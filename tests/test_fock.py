import itertools
import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockdecay import (
    DensityOperator,
    FockSpace,
    InvariantViolation,
    ModeSpec,
    MixingParams,
    Statistics,
    TruncationError,
    build_annihilator,
    build_creation,
    build_number,
    build_total_number,
    coherent_state,
    number_state,
    poisson_mixture,
    vacuum_state,
)
from fockdecay.channel import occupation_distribution
from fockdecay.flavour import mixing_matrix
from fockdecay.fock import (
    Support,
    block_minima,
    check_densities,
    connected_blocks,
    padded,
    hermitian_scale,
    linear_form,
    one_body_correlations,
    quadratic_form,
)


def boson(cutoff=4, mass=0.0, width=1.0):
    return ModeSpec(Statistics.BOSON, mass=mass, width=width, cutoff=cutoff)


def fermion(mass=0.0, width=1.0):
    return ModeSpec(Statistics.FERMION, mass=mass, width=width)


# ---------------------------------------------------------------------------
# mode specs and spaces

def test_modespec_rejects_bad_values():
    with pytest.raises(ValueError):
        ModeSpec(width=-0.1)
    with pytest.raises(ValueError):
        ModeSpec(cutoff=-1)


def test_fermion_cutoff_forced_to_one():
    assert ModeSpec(Statistics.FERMION, cutoff=7).cutoff == 1
    assert ModeSpec(Statistics.FERMION, cutoff=0).cutoff == 1


def test_space_dimension_and_vacuum_first():
    space = FockSpace([boson(2), fermion()])
    assert space.dimension == 3 * 2
    assert space.occupations[0] == (0, 0)
    assert space.index_of((0, 0)) == 0
    # first mode slowest-varying
    assert space.occupations[1] == (0, 1)


@settings(max_examples=40, deadline=None)
@given(
    cutoffs=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=3),
)
def test_index_map_round_trips(cutoffs):
    space = FockSpace([boson(c) for c in cutoffs])
    assert space.dimension == int(np.prod([c + 1 for c in cutoffs]))
    for i in range(space.dimension):
        assert space.index_of(space.occupation_of(i)) == i


def test_index_of_rejects_out_of_range():
    space = FockSpace(boson(3))
    with pytest.raises(TruncationError):
        space.index_of((4,))


SECTOR_MODES = [
    [boson(3), fermion(), boson(0), boson(2)],
    [fermion(), fermion()],
    [boson(0)],
    [boson(4), boson(4)],
]


@pytest.mark.parametrize("modes", SECTOR_MODES, ids=["mixed-statistics", "fermions", "cutoff0", "bosons"])
def test_sector_space_is_the_product_filtered_by_total(modes):
    full = sum(m.cutoff for m in modes)
    product = list(itertools.product(*(range(m.cutoff + 1) for m in modes)))
    for total in range(full + 3):
        space = FockSpace(modes, total=total)
        want = [occ for occ in product if sum(occ) <= total]
        assert list(space.occupations) == want
        assert space.dimension == len(want)
        assert space.occupation_array.tolist() == [list(occ) for occ in want]
        assert space.total_occupation.tolist() == [sum(occ) for occ in want]
        assert [space.index_of(occ) for occ in want] == list(range(len(want)))
        assert space.total == min(total, full)
        for occ in product:
            if sum(occ) > total:
                with pytest.raises(TruncationError):
                    space.index_of(occ)
        same = FockSpace(modes, total=total)
        assert space == same and hash(space) == hash(same)
        if total >= full:
            assert space == FockSpace(modes) and hash(space) == hash(FockSpace(modes))
        else:
            assert space != FockSpace(modes)
    assert FockSpace(modes, total=0).occupations == ((0,) * len(modes),)


def test_sector_space_rejects_negative_total():
    with pytest.raises(ValueError, match="total"):
        FockSpace([boson(2), boson(2)], total=-1)


# ---------------------------------------------------------------------------
# ladder operators

def test_annihilator_single_boson_entries():
    a = build_annihilator(FockSpace(boson(2)), 1).entries
    assert a[0, 1] == pytest.approx(1.0)
    assert a[1, 2] == pytest.approx(math.sqrt(2))
    assert np.count_nonzero(a) == 2
    # vacuum column is annihilated
    assert np.all(a[:, 0] == 0)


def test_number_equals_adjoint_product():
    space = FockSpace(boson(3))
    a = build_annihilator(space, 1).entries
    n = build_number(space, 1).entries
    assert np.array_equal(np.diag(n).real, [0, 1, 2, 3])
    assert np.max(np.abs(a.conj().T @ a - n)) <= 1e-14


def test_total_number_eigenvalues_two_modes():
    space = FockSpace([boson(2), boson(2)])
    n_tot = build_total_number(space).entries
    for i, occ in enumerate(space.occupations):
        assert n_tot[i, i] == sum(occ)


def test_bosonic_ccr_below_cutoff():
    space = FockSpace(boson(5))
    a = build_annihilator(space, 1).entries
    comm = a @ a.conj().T - a.conj().T @ a
    # exact identity away from the top occupation level
    sub = np.arange(space.dimension - 1)
    assert np.max(np.abs(comm[np.ix_(sub, sub)] - np.eye(sub.size))) <= 1e-12


def test_fermionic_car_exact():
    space = FockSpace([fermion(), fermion()])
    a1 = build_annihilator(space, 1).entries
    a2 = build_annihilator(space, 2).entries
    eye = np.eye(4)

    def anti(x, y):
        return x @ y + y @ x

    assert np.max(np.abs(anti(a1, a2.conj().T))) == 0.0
    assert np.max(np.abs(anti(a1, a1.conj().T) - eye)) == 0.0
    assert np.max(np.abs(anti(a2, a2.conj().T) - eye)) == 0.0
    assert np.max(np.abs(anti(a1, a2))) == 0.0
    assert np.max(np.abs(a1 @ a1)) == 0.0


def test_boson_fermion_modes_commute():
    space = FockSpace([boson(2), fermion()])
    ab = build_annihilator(space, 1).entries
    af = build_annihilator(space, 2).entries
    assert np.max(np.abs(ab @ af - af @ ab)) == 0.0
    assert np.max(np.abs(ab @ af.conj().T - af.conj().T @ ab)) == 0.0


def test_mode_out_of_range():
    space = FockSpace(boson(2))
    for bad in (0, 2, -1):
        with pytest.raises(ValueError):
            build_annihilator(space, bad)
        with pytest.raises(ValueError):
            build_number(space, bad)


def test_creation_is_adjoint():
    space = FockSpace([boson(3), boson(2)])
    for mode in (1, 2):
        a = build_annihilator(space, mode).entries
        adag = build_creation(space, mode).entries
        assert np.array_equal(adag, a.conj().T)


def _column_loop_annihilator(space, mode):
    """a_j as the column loop that built it before the space owned its ladder map:
    the reference build_annihilator must match bit for bit."""
    j = mode - 1
    out = np.zeros((space.dimension, space.dimension), dtype=complex)
    for col, occ in enumerate(space.occupations):
        n = occ[j]
        if n == 0:
            continue
        target = list(occ)
        target[j] = n - 1
        row = space.index_of(target)
        if space.modes[j].is_fermion:
            parity = sum(occ[l] for l in range(j) if space.modes[l].is_fermion)
            out[row, col] = -1.0 if parity % 2 else 1.0
        else:
            out[row, col] = math.sqrt(n)
    return out


def _scattered_annihilator(space, mode):
    """a_j as build_annihilator built it before the linear forms: its ladder map assigned at once."""
    lower, amp = space.ladders[mode - 1][1]
    out = np.zeros((space.dimension, space.dimension), dtype=complex)
    out[lower, np.arange(space.dimension)] = amp
    return out


def _linear_form_cases():
    pair = MixingParams(theta=0.7, phi=0.3, psi=1.1, chi=0.2)
    rng = np.random.default_rng(5)
    v3, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    return [
        ("mixed boson pair", FockSpace([boson(3), boson(3, mass=5.0)], total=3), mixing_matrix(pair)),
        ("mixed fermion pair", FockSpace([fermion(), fermion(mass=2.0)]), mixing_matrix(pair)),
        ("three modes", FockSpace([boson(2), fermion(), boson(2)], total=3), v3),
    ]


@pytest.mark.parametrize("case", range(3), ids=[c[0] for c in _linear_form_cases()])
def test_linear_form_is_the_old_scatter_and_sum_of_annihilators(case):
    _, space, v = _linear_form_cases()[case]
    a = [_scattered_annihilator(space, l) for l in range(1, space.n_modes + 1)]
    for l, a_l in enumerate(a):
        assert linear_form(space, np.eye(space.n_modes)[l]).tobytes() == a_l.tobytes()
        assert build_annihilator(space, l + 1).entries.tobytes() == a_l.tobytes()
    for row in v:  # c_j as the model summed it, left to right; equal up to the sign of a zero
        want = reduce(np.add, (v_jl.conjugate() * a_l for v_jl, a_l in zip(row, a)))
        assert np.array_equal(linear_form(space, row.conj()), want)
    # a zero coefficient adds no term
    assert np.array_equal(linear_form(space, np.array([0.0, 2.0] + [0.0] * (space.n_modes - 2))), 2.0 * a[1])


def _reference_plans(space, j):
    """The gather plans (cols, vals) of a_j and a_j^dag from a dict of the occupations."""
    index = {occ: i for i, occ in enumerate(space.occupations)}
    d = space.dimension
    plans = [(np.zeros(d, dtype=int), np.zeros(d)), (np.zeros(d, dtype=int), np.zeros(d))]
    for i, occ in enumerate(space.occupations):
        if occ[j] == 0:
            continue
        target = index[occ[:j] + (occ[j] - 1,) + occ[j + 1:]]
        sign = (-1) ** sum(occ[l] for l in range(j) if space.modes[l].is_fermion)
        amp = float(sign) if space.modes[j].is_fermion else math.sqrt(occ[j])
        plans[0][0][target], plans[0][1][target] = i, amp  # a_j: row n - e_j reads column n
        plans[1][0][i], plans[1][1][i] = target, amp  # a_j^dag: row n reads column n - e_j
    return plans


def _check_ladders(space):
    assert len(space.ladders) == space.n_modes
    for j, plans in enumerate(space.ladders):
        for (cols, vals), (want_cols, want_vals) in zip(plans, _reference_plans(space, j)):
            assert np.array_equal(cols, want_cols)
            assert np.array_equal(vals.view(np.uint64), want_vals.view(np.uint64))  # no -0.0 either
            assert not (cols.flags.writeable or vals.flags.writeable)
        a = build_annihilator(space, j + 1).entries
        assert a.tobytes() == _column_loop_annihilator(space, j + 1).tobytes()
        # each plan is the dense operator's one nonzero per row
        rows = np.arange(space.dimension)
        for lower, (cols, vals) in ((a, plans[0]), (a.T, plans[1])):
            assert np.array_equal(lower[rows, cols].real, vals)
            assert np.count_nonzero(lower) == np.count_nonzero(vals)


mode_lists = st.lists(st.one_of(st.integers(0, 4).map(boson), st.just(fermion())), min_size=1, max_size=5)


@settings(max_examples=60, deadline=None)
@given(modes=mode_lists, data=st.data())
def test_ladder_maps_and_gather_plans_match_a_dict_reference(modes, data):
    full = sum(m.cutoff for m in modes)
    total = data.draw(st.one_of(st.none(), st.integers(0, full)))  # None: the product space
    _check_ladders(FockSpace(modes, total=total))


@pytest.mark.parametrize("modes, total", [
    ([boson(3), fermion(), boson(2), fermion(), fermion()], None),
    ([fermion(), boson(4), fermion()], 3),
    ([fermion()] * 6, 2),
    ([boson(2)] * 64, 1),  # |S| = 65, product space 3^64 > 2^63
])
def test_ladder_maps_on_mixed_statistics_sector_and_wide_spaces(modes, total):
    space = FockSpace(modes, total=total)
    _check_ladders(space)
    assert space.ladders is space.ladders  # one map per space, shared by every model on it


small_mode_lists = st.lists(st.one_of(st.integers(0, 3).map(boson), st.just(fermion())), min_size=1, max_size=3)
omega_entries = st.one_of(st.just(0j), st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                                          allow_infinity=False))


@settings(max_examples=40, deadline=None)
@given(modes=small_mode_lists, data=st.data())
def test_quadratic_forms_are_the_dense_ladder_products(modes, data):
    total = data.draw(st.one_of(st.none(), st.integers(0, sum(m.cutoff for m in modes))))
    space = FockSpace(modes, total=total)
    r = space.n_modes
    omega = np.array(data.draw(st.lists(omega_entries, min_size=r * r, max_size=r * r))).reshape(r, r)
    a = [build_annihilator(space, j).entries for j in range(1, r + 1)]
    want = np.zeros((space.dimension,) * 2, dtype=complex)
    for l, m in zip(*np.nonzero(omega)):
        want += omega[l, m] * (a[l].conj().T @ a[m])
    assert np.array_equal(quadratic_form(space, omega), want)
    # the means of every a_l^dag a_m in a random state
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    raw = rng.standard_normal((space.dimension,) * 2) + 1j * rng.standard_normal((space.dimension,) * 2)
    rho = raw @ raw.conj().T
    rho = DensityOperator(space, rho / np.trace(rho))
    dense = np.array([[np.trace(rho.matrix @ a[l].conj().T @ a[m]) for m in range(r)] for l in range(r)])
    full = Support(space, *np.indices((space.dimension,) * 2).reshape(2, -1))
    assert np.max(np.abs(one_body_correlations(full, full.values(rho.matrix)[None])[0] - dense)) <= 1e-14


def test_a_support_gathers_its_ladder_pairs_from_one_cached_slot_index():
    space = FockSpace([ModeSpec(cutoff=3), ModeSpec(Statistics.FERMION)])
    support = number_state(space, (2, 1)).support()
    want = support.slots[np.arange(space.dimension), space.ladder_pairs[0]]
    assert support.pair_slots is support.pair_slots and np.array_equal(support.pair_slots, want)


# ---------------------------------------------------------------------------
# states

def test_number_state_vacuum():
    space = FockSpace([boson(2), boson(2)])
    rho = vacuum_state(space)
    assert rho.matrix[0, 0] == 1.0
    assert np.trace(rho.matrix) == pytest.approx(1.0)


def test_number_state_places_projector():
    space = FockSpace(boson(4))
    rho = number_state(space, (2,))
    idx = space.index_of((2,))
    expected = np.zeros((5, 5))
    expected[idx, idx] = 1.0
    assert np.array_equal(rho.matrix.real, expected)


def test_number_state_two_modes():
    space = FockSpace([boson(4), boson(4)])
    rho = number_state(space, (2, 1))
    i = space.index_of((2, 1))
    assert rho.matrix[i, i] == 1.0
    rho.check_invariants()


def test_number_state_is_built_unchecked():
    # a basis projector is a density matrix by construction: its matrix and the state's copy, no check's
    space = FockSpace([boson(12)] * 3, total=12)
    tracemalloc.start()
    try:
        rho = number_state(space, (4, 4, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.dimension == 455 and peak <= 2.25 * 16 * space.dimension ** 2
    rho.check_invariants()


def test_number_state_rejects_overflow():
    space = FockSpace(boson(3))
    with pytest.raises(TruncationError):
        number_state(space, (4,))
    with pytest.raises(TruncationError):
        number_state(FockSpace(fermion()), (2,))


def test_coherent_alpha_zero_is_vacuum():
    space = FockSpace(boson(6))
    rho = coherent_state(space, 1, 0.0)
    assert np.max(np.abs(rho.matrix - vacuum_state(space).matrix)) == 0.0
    assert rho.tail_weight == 0.0


def test_coherent_alpha_one_probabilities():
    space = FockSpace(boson(12))
    rho = coherent_state(space, 1, 1.0)
    probs = np.diag(rho.matrix).real
    for k in range(13):
        assert probs[k] == pytest.approx(math.exp(-1.0) / math.factorial(k), abs=1e-9)
    n_tot = build_total_number(space).entries
    mean_n = float(np.real(np.trace(rho.matrix @ n_tot)))
    assert mean_n == pytest.approx(1.0, abs=1e-8)
    assert 0 <= rho.tail_weight < 1e-10


def test_coherent_errors():
    with pytest.raises(ValueError):
        coherent_state(FockSpace(fermion()), 1, 0.3)
    with pytest.raises(TruncationError):
        coherent_state(FockSpace(boson(3)), 1, 2.5)  # heavy tail past cutoff 3


def test_poisson_mixture_values():
    space = FockSpace(boson(12))
    rho = poisson_mixture(space, 1, 1.0)
    probs = np.diag(rho.matrix).real
    for k in range(13):
        assert probs[k] == pytest.approx(math.exp(-1.0) / math.factorial(k), abs=1e-9)
    assert np.max(np.abs(rho.matrix - np.diag(np.diag(rho.matrix)))) == 0.0


def test_poisson_mixture_nbar_zero_and_errors():
    space = FockSpace(boson(5))
    assert np.max(np.abs(poisson_mixture(space, 1, 0.0).matrix - vacuum_state(space).matrix)) == 0.0
    with pytest.raises(TruncationError):
        poisson_mixture(FockSpace(boson(2)), 1, 3.0)
    with pytest.raises(ValueError):
        poisson_mixture(space, 1, -0.5)


def test_states_beyond_the_float_factorial_range():
    # 171! overflows a float, and |alpha|^2 or nbar**k can overflow too.
    small, large = FockSpace(boson(30)), FockSpace(boson(200))
    for build, arg in ((coherent_state, 1.0), (poisson_mixture, 1.0)):
        head = np.diag(build(large, 1, arg).matrix)[:31]
        assert np.max(np.abs(head - np.diag(build(small, 1, arg).matrix))) <= 1e-15
    for build, arg in ((coherent_state, 1e200), (poisson_mixture, 1e308)):
        with pytest.raises(TruncationError):
            build(small, 1, arg)


def test_coherent_diagonal_matches_poisson_mixture():
    space = FockSpace(boson(12))
    coh = coherent_state(space, 1, 1.0)
    poi = poisson_mixture(space, 1, 1.0)
    assert np.max(np.abs(np.diag(coh.matrix) - np.diag(poi.matrix))) <= 1e-14


# ---------------------------------------------------------------------------
# density-operator invariants

def test_density_operator_validation():
    space = FockSpace(boson(1))
    with pytest.raises(InvariantViolation):
        DensityOperator(space, np.array([[0.5, 0.2], [0.1, 0.5]], dtype=complex))
    with pytest.raises(InvariantViolation):
        DensityOperator(space, 0.7 * np.eye(2, dtype=complex))
    with pytest.raises(InvariantViolation):
        DensityOperator(space, np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ValueError):
        DensityOperator(space, np.eye(3, dtype=complex))


def test_density_operator_is_read_only():
    rho = vacuum_state(FockSpace(boson(2)))
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 0.0


def _own(stack):
    """The support of a stack's exact-nonzero pattern, and the stack's values there."""
    support = Support(FockSpace(boson(stack.shape[-1] - 1)), *np.nonzero((stack != 0).any(axis=0)))
    return support, support.values(stack)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_density_checks_refuse_a_non_finite_entry(bad):
    space = FockSpace(boson(1))
    with pytest.raises(InvariantViolation, match="non-finite"):
        check_densities(*_own(np.full((1, 2, 2), np.nan, dtype=complex)))
    for at in ((0, 0), (0, 1)):
        mat = np.diag([0.5, 0.5]).astype(complex)
        mat[at] = bad
        with pytest.raises(InvariantViolation, match="non-finite"):
            DensityOperator(space, mat)
        with pytest.raises(InvariantViolation, match="non-finite"):
            check_densities(*_own(mat[None]))
        with pytest.raises(ValueError, match="non-finite"):
            hermitian_scale(mat)
    # the occupation probabilities read the diagonal
    with pytest.raises(InvariantViolation, match="occupation probabilities"):
        occupation_distribution(DensityOperator(space, np.diag([bad, 0.5]), validate=False))


# ---------------------------------------------------------------------------
# eigenvalues per connected block


@st.composite
def block_stacks(draw):
    """(stack, blocks, rng): n Hermitian matrices, block-diagonal in a permutation of
    the drawn block sizes, which cover every index; their entries in a block are
    nonzero, so each block is connected.  The blocks come as index arrays."""
    kind = draw(st.sampled_from(["ones", "mixed", "full"]))
    if kind == "ones":
        sizes = [1] * draw(st.integers(2, 12))
    elif kind == "mixed":
        sizes = draw(st.lists(st.integers(1, 5), min_size=2, max_size=6))
    else:
        sizes = [draw(st.integers(2, 8))]
    dim = sum(sizes)
    perm = np.array(draw(st.permutations(range(dim))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = np.zeros((draw(st.integers(1, 3)), dim, dim), dtype=complex)
    blocks, start = [], 0
    for size in sizes:
        idx = perm[start:start + size]
        start += size
        raw = rng.standard_normal((len(stack), size, size)) + 1j * rng.standard_normal((len(stack), size, size))
        stack[:, idx[:, None], idx] = raw + raw.conj().swapaxes(-1, -2)
        blocks.append(idx)
    return stack, blocks, rng


@given(block_stacks())
@settings(max_examples=60, deadline=None)
def test_block_eigenvalues_match_the_dense_spectrum(case):
    stack, blocks, _ = case
    dim = stack.shape[-1]
    found = connected_blocks(dim, *np.nonzero(stack.any(axis=0)))
    assert sorted(tuple(sorted(b)) for group in found for b in group) == sorted(tuple(sorted(b)) for b in blocks)
    assert [group.shape[1] for group in found] == sorted({b.size for b in blocks})
    support, values = _own(stack)
    lo = block_minima(support, padded(values))
    assert np.max(np.abs(lo - np.linalg.eigvalsh(stack).min(axis=-1))) <= 1e-12


@given(block_stacks())
@settings(max_examples=60, deadline=None)
def test_block_checks_refuse_a_negative_eigenvalue(case):
    stack, blocks, rng = case
    dim = stack.shape[-1]
    # density matrices: each block U diag(p) U^dag, with p >= 0 summing to 1 over the blocks
    weights = rng.dirichlet(np.ones(dim), size=len(stack))
    states = np.zeros_like(stack)
    start = 0
    for idx in blocks:
        u = np.linalg.qr(stack[:, idx[:, None], idx])[0]
        p = weights[:, start:start + idx.size]
        states[:, idx[:, None], idx] = (u * p[:, None, :]) @ u.conj().swapaxes(-1, -2)
        start += idx.size
    check_densities(*_own(states))
    # the least eigenvalue of one block of the last matrix moved to -1e-3, and the trace kept
    # by adding as much to its largest one, or to another block's first diagonal entry
    k = int(rng.integers(len(blocks)))
    idx = blocks[k]
    bad = states.copy()
    vals, vecs = np.linalg.eigh(bad[-1][np.ix_(idx, idx)])
    shift = -1e-3 - vals[0]
    bad[-1][np.ix_(idx, idx)] += shift * np.outer(vecs[:, 0], vecs[:, 0].conj())
    if idx.size > 1:
        bad[-1][np.ix_(idx, idx)] -= shift * np.outer(vecs[:, -1], vecs[:, -1].conj())
    else:
        other = blocks[k - 1][0]
        bad[-1, other, other] -= shift
    with pytest.raises(InvariantViolation, match="eigenvalue"):
        check_densities(*_own(bad))


def test_number_state_checks_one_block():
    # a basis projector's pattern is one entry: a 1 x 1 block, whatever the dimension
    space = FockSpace([boson(16)] * 3, total=18)
    rho = number_state(space, (6, 6, 6))
    (block,) = connected_blocks(space.dimension, *np.nonzero(rho.matrix))
    assert block.tolist() == [[space.index_of((6, 6, 6))]]
    assert connected_blocks(space.dimension, np.zeros(0, dtype=int), np.zeros(0, dtype=int)) == ()


def test_the_support_check_refuses_each_breach_with_its_message():
    space = FockSpace([boson(2), boson(1)])
    d, a, b = space.dimension, space.index_of((1, 0)), space.index_of((0, 1))
    good = np.zeros((d, d), dtype=complex)
    good[a, a], good[b, b], good[a, b], good[b, a] = 0.5, 0.5, 0.25j, -0.25j
    support = Support(space, *np.nonzero(good))
    check_densities(support, support.values(good)[None])
    # an entry whose transpose is off the support is paired with slot K, so it fails by its modulus
    one_sided = Support(space, *np.nonzero(np.triu(good)))
    with pytest.raises(InvariantViolation, match="not Hermitian: defect 2.500e-01"):
        check_densities(one_sided, one_sided.values(good)[None])
    off = good.copy()
    off[a, a] += 2e-12
    with pytest.raises(InvariantViolation, match=r"density matrix trace \(1.000000000002\+0j\) differs from 1"):
        check_densities(support, support.values(off)[None])
    # within the block {a, b}: eigenvalues 0.5 +- 0.75, with the trace kept
    negative = good.copy()
    negative[a, b], negative[b, a] = 0.75j, -0.75j
    with pytest.raises(InvariantViolation, match="eigenvalue -2.500e-01 < -1e-10"):
        check_densities(support, support.values(negative)[None])
    for bad in (np.nan, np.inf):
        values = support.values(good)[None].copy()
        values[0, 1] = bad
        with pytest.raises(InvariantViolation, match="non-finite"):
            check_densities(support, np.concatenate([support.values(good)[None], values]))


@pytest.mark.parametrize("build", [
    lambda space: number_state(space, (1.7, 0)),
    lambda space: space.index_of((1.5, 0.9)),
    lambda space: number_state(space, (math.inf, 0)),
], ids=["number-state", "index-of", "infinite"])
def test_occupations_must_be_integers(build):
    with pytest.raises(ValueError, match="occupations must be integers"):
        build(FockSpace([boson(3), boson(2)]))
    assert FockSpace([boson(3), boson(2)]).index_of((1.0, 0)) == FockSpace([boson(3), boson(2)]).index_of((1, 0))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("build, match", [
    (lambda space: poisson_mixture(space, 1, math.nan), "nbar must be finite"),
    (lambda space: poisson_mixture(space, 1, math.inf), "nbar must be finite"),
    (lambda space: coherent_state(space, 1, math.nan), "alpha must be finite"),
    (lambda space: coherent_state(space, 1, complex(0.1, math.inf)), "alpha must be finite"),
], ids=["poisson-nan", "poisson-inf", "coherent-nan", "coherent-inf"])
def test_state_parameters_must_be_finite(build, match):
    with pytest.raises(ValueError, match=match):
        build(FockSpace(boson(4)))
