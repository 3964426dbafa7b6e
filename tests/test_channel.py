import math

import numpy as np
import pytest
import scipy.linalg
from conftest import random_density_matrix, support_total_bound

from fockdecay import (
    CertificateError,
    FockSpace,
    ModeSpec,
    OperatorMatrix,
    Statistics,
    apply_channel,
    apply_channel_matrix,
    build_annihilator,
    build_decay_model,
    build_kraus,
    build_total_number,
    build_flavour_observables,
    build_mixed_model,
    enforce_superselection,
    evolve_observable_matrix,
    evolve_state,
    expectation,
    expectations,
    kraus_multi_indices,
    number_state,
    coherent_state,
    occupation_distribution,
    trace_distance,
    vacuum_state,
    DensityOperator,
    InvariantViolation,
    MixingParams,
)
import fockdecay.channel as channel
from fockdecay.channel import LARGE_EXPONENT, _assemble_model

LN2 = math.log(2.0)


def single_mode_space(cutoff=6, mass=0.0, width=1.0):
    return FockSpace(ModeSpec(mass=mass, width=width, cutoff=cutoff))


def decayed_unit(n, npr, m, gamma, t, dim):
    """Channel action on |n><n'| assembled from the closed-form coefficients."""
    w = -math.expm1(-gamma * t)
    out = np.zeros((dim, dim), dtype=complex)
    for k in range(min(n, npr) + 1):
        coeff = (
            math.sqrt(math.comb(n, k) * math.comb(npr, k))
            * np.exp(-1j * m * (n - npr) * t)
            * math.exp(-0.5 * gamma * (n + npr - 2 * k) * t)
            * w**k
        )
        out[n - k, npr - k] += coeff
    return out


# ---------------------------------------------------------------------------
# model assembly

def test_model_operator_relations():
    space = FockSpace([ModeSpec(mass=0.4, width=0.8, cutoff=3),
                       ModeSpec(mass=1.1, width=1.6, cutoff=2)])
    model = build_decay_model(space)
    assert model.masses == (0.4, 1.1) and model.widths == (0.8, 1.6)
    ham = sum(m * c.entries.conj().T @ c.entries for m, c in zip(model.masses, model.decay_ops))
    kay = sum(-0.5 * L.entries.conj().T @ L.entries for L in model.lindblads)
    assert np.max(np.abs(model.m_operator.entries - (ham + 1j * kay))) <= 1e-12
    assert model.certificate_defect <= 1e-12


def test_certificate_is_relative_to_the_largest_complex_mass():
    # rounding in [M, c_j] grows with the mass scale; the relative defect does not
    params = MixingParams(theta=0.7, phi=0.3)
    for masses in ((1e6, 1e6 + 5.0), (1e200, 5.0)):
        space = FockSpace([ModeSpec(mass=m, width=g, cutoff=4)
                           for m, g in zip(masses, (0.5, 1.5))], total=4)
        model = build_mixed_model(space, params)
        assert model.certificate_defect <= 1e-12


def test_certificate_catches_a_wrong_relation_at_large_scale():
    # c_1 = a_1 + 1e-3 a_2 is not an annihilator of its own mode, so [M, c_1] != -mu_1 c_1
    space = FockSpace([ModeSpec(mass=1e6, width=0.5, cutoff=3),
                       ModeSpec(mass=2e6, width=1.5, cutoff=3)])
    a1, a2 = (build_annihilator(space, j).entries for j in (1, 2))
    ops = [OperatorMatrix(space, a1 + 1e-3 * a2), OperatorMatrix(space, a2)]
    with pytest.raises(CertificateError, match="certificate defect"):
        _assemble_model(space, ops)


def test_multi_index_enumeration_order():
    space = FockSpace([ModeSpec(cutoff=2), ModeSpec(Statistics.FERMION)])
    idx = kraus_multi_indices(space)
    assert idx == ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1))
    assert kraus_multi_indices(FockSpace(space.modes, total=2)) == idx[:-1]


# ---------------------------------------------------------------------------
# Kraus families

def test_kraus_at_time_zero_is_identity_plus_zeros():
    model = build_decay_model(single_mode_space(cutoff=3))
    ks = build_kraus(model, 0.0)
    assert np.array_equal(ks.operators[0].entries, np.eye(4))
    for op in ks.operators[1:]:
        assert np.max(np.abs(op.entries)) == 0.0
    assert ks.completeness_defect <= 1e-12


def test_kraus_half_life_two_level():
    model = build_decay_model(single_mode_space(cutoff=1))
    ks = build_kraus(model, LN2)
    e0, e1 = ks.operators[0].entries, ks.operators[1].entries
    assert np.max(np.abs(e0 - np.diag([1.0, 2 ** -0.5]))) <= 1e-15
    expected = np.zeros((2, 2))
    expected[0, 1] = math.sqrt(0.5)
    assert np.max(np.abs(e1 - expected)) <= 1e-15


def test_kraus_columns_match_closed_form():
    m, gamma, cutoff = 0.4, 1.0, 6
    model = build_decay_model(single_mode_space(cutoff=cutoff, mass=m, width=gamma))
    for t in (0.1, 0.7, 2.3):
        ks = build_kraus(model, t)
        w = -math.expm1(-gamma * t)
        for k, op in zip((sum(i) for i in ks.multi_indices), ks.operators):
            for n in range(cutoff + 1):
                col = op.entries[:, n]
                expected = np.zeros(cutoff + 1, dtype=complex)
                if n >= k:
                    expected[n - k] = (
                        math.sqrt(math.comb(n, k))
                        * np.exp(-(1j * m + 0.5 * gamma) * (n - k) * t)
                        * w ** (k / 2)
                    )
                assert np.max(np.abs(col - expected)) <= 1e-12


def test_completeness_on_grid():
    single = build_decay_model(single_mode_space(cutoff=8))
    two = build_decay_model(FockSpace([ModeSpec(width=0.5, cutoff=3),
                                       ModeSpec(width=1.5, cutoff=2)]))
    sp_mix = FockSpace([ModeSpec(width=0.5, cutoff=4), ModeSpec(mass=3.0, width=1.5, cutoff=4)], total=4)
    mixed = build_mixed_model(sp_mix, MixingParams(theta=1.2, phi=0.5, psi=0.3, chi=0.1))
    for model in (single, two, mixed):
        gmin = min(g for g in model.widths if g > 0)
        for t in np.linspace(0.0, 10.0 / gmin, 20):
            ks = build_kraus(model, float(t))
            assert ks.completeness_defect <= 1e-10


def kraus_reference(model, t, multi_indices):
    """Each operator rebuilt from the identity: U(t) prod_j (sqrt(w_j) c_j)^{k_j} / sqrt(k_j!)."""
    prop = scipy.linalg.expm(-1j * model.m_operator.entries * t)
    weights = [-math.expm1(-g * t) for g in model.widths]
    out = []
    for kappa in multi_indices:
        coeff2 = math.prod(w**k / math.factorial(k) for k, w in zip(kappa, weights))
        mono = np.eye(model.space.dimension, dtype=complex)
        for k_j, c in zip(kappa, model.decay_ops):
            for _ in range(k_j):
                mono = mono @ c.entries
        out.append(math.sqrt(coeff2) * (prop @ mono))
    return out


def _reference_cases():
    bosons = FockSpace([ModeSpec(width=0.5, cutoff=4), ModeSpec(mass=3.0, width=1.5, cutoff=4)], total=4)
    yield build_mixed_model(bosons, MixingParams(theta=1.2, phi=0.5, psi=0.3, chi=0.1)), 0.7
    # the Jordan-Wigner signs depend on the order c_1^k1 c_2^k2 c_3^k3
    yield build_decay_model(FockSpace([
        ModeSpec(mass=0.3, width=0.8, cutoff=3),
        ModeSpec(Statistics.FERMION, mass=1.0, width=1.2),
        ModeSpec(Statistics.FERMION, mass=2.0, width=0.6),
    ])), 0.9
    fermions = FockSpace([ModeSpec(Statistics.FERMION, mass=0.0, width=0.5),
                          ModeSpec(Statistics.FERMION, mass=2.0, width=1.5)])
    yield build_mixed_model(fermions, MixingParams(theta=0.9, phi=0.2)), 1.1
    # w_1 = 1e-200, so w_1**2 / 2 underflows in the reference; w_2 = 0
    yield build_decay_model(FockSpace([ModeSpec(width=1.0, cutoff=3),
                                       ModeSpec(mass=1.0, width=0.0, cutoff=2)])), 1e-200


@pytest.mark.parametrize("model, t", list(_reference_cases()))
def test_kraus_recursion_matches_monomial_reference(model, t):
    ks = build_kraus(model, t)
    assert ks.multi_indices == kraus_multi_indices(model.space)
    assert max(map(sum, ks.multi_indices)) == model.space.total
    ref = kraus_reference(model, t, ks.multi_indices)
    assert len(ref) == len(ks.operators)
    for op, want in zip(ks.operators, ref):
        assert np.max(np.abs(op.entries - want)) <= 1e-13


def _block_cases():
    bosons = FockSpace([ModeSpec(width=0.5, cutoff=4), ModeSpec(mass=3.0, width=1.5, cutoff=4)], total=4)
    model = build_mixed_model(bosons, MixingParams(theta=1.2, phi=0.5, psi=0.3, chi=0.1))
    rho = random_density_matrix(np.random.default_rng(7), bosons, max_total=2)
    yield pytest.param(model, rho, id="mixed-bosons")
    # the Jordan-Wigner signs depend on the order c_1^k1 c_2^k2 c_3^k3
    space = FockSpace([ModeSpec(mass=0.3, width=0.8, cutoff=3),
                       ModeSpec(Statistics.FERMION, mass=1.0, width=1.2),
                       ModeSpec(Statistics.FERMION, mass=2.0, width=0.6)])
    rho = random_density_matrix(np.random.default_rng(8), space, max_total=2)
    yield pytest.param(build_decay_model(space), rho, id="boson-two-fermions")
    single = single_mode_space(cutoff=20, mass=0.7)
    yield pytest.param(build_decay_model(single), coherent_state(single, 1, 0.5), id="coherent-tail")
    space = FockSpace([ModeSpec(mass=0.5, width=0.6, cutoff=3), ModeSpec(mass=1.5, width=0.4, cutoff=3),
                       ModeSpec(Statistics.FERMION, mass=2.5, width=0.7),
                       ModeSpec(Statistics.FERMION, mass=3.5, width=1.0)])
    mat = np.zeros((space.dimension,) * 2, dtype=complex)
    for w, occ in ((0.625, (2, 1, 1, 0)), (0.375, (1, 2, 0, 1))):
        mat[space.index_of(occ), space.index_of(occ)] = w
    yield pytest.param(build_decay_model(space), DensityOperator(space, mat), id="mixture")


@pytest.mark.parametrize("model, rho", list(_block_cases()))
def test_block_family_matches_the_full_space_reference(model, rho):
    outside = model.space.total_occupation > support_total_bound(rho)
    assert outside.any()  # the state's support is a proper subset of the space
    full = kraus_multi_indices(model.space)
    for t, got in zip((0.0, 0.3, 1.1), evolve_state(model, rho, (0.0, 0.3, 1.1))):
        want = sum(E @ rho.matrix @ E.conj().T for E in kraus_reference(model, t, full))
        assert np.max(np.abs(got.matrix - want)) <= 1e-13


def _random_matrix(rng, space):
    d = space.dimension
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _edge_cases():
    # w_1 = 1 exactly (Gamma_1 t beyond LARGE_EXPONENT) next to a mode still decaying
    space = FockSpace([ModeSpec(mass=0.4, width=1.0, cutoff=3), ModeSpec(mass=1.3, width=1e-3, cutoff=2)])
    yield pytest.param(build_decay_model(space), 1.5 * LARGE_EXPONENT, id="w-one")
    # w_2 = 0: a stable mode contributes no loss map
    space = FockSpace([ModeSpec(mass=0.4, width=1.0, cutoff=3), ModeSpec(mass=1.3, width=0.0, cutoff=2)])
    yield pytest.param(build_decay_model(space), 0.8, id="w-zero")
    bosons = FockSpace([ModeSpec(width=0.5, cutoff=3), ModeSpec(mass=3.0, width=1.5, cutoff=3)], total=3)
    mixed = build_mixed_model(bosons, MixingParams(theta=1.2, phi=0.5, psi=0.3, chi=0.1))
    yield pytest.param(mixed, 0.0, id="t-zero")
    yield pytest.param(mixed, 0.7, id="mixed")
    # the Jordan-Wigner signs of c_1^k1 c_2^k2 c_3^k3 act on coherences
    space = FockSpace([ModeSpec(mass=0.3, width=0.8, cutoff=3),
                       ModeSpec(Statistics.FERMION, mass=1.0, width=1.2),
                       ModeSpec(Statistics.FERMION, mass=2.0, width=0.6)])
    yield pytest.param(build_decay_model(space), 0.9, id="boson-two-fermions")


@pytest.mark.parametrize("model, t", list(_edge_cases()))
def test_nested_maps_match_the_family_reference(model, t, rng):
    ks = build_kraus(model, t)
    ref = kraus_reference(model, t, ks.multi_indices)
    x = _random_matrix(rng, model.space)
    forward = sum(E @ x @ E.conj().T for E in ref)
    adjoint = sum(E.conj().T @ x @ E for E in ref)
    gram = sum(E.conj().T @ E for E in ref)
    assert np.max(np.abs(apply_channel_matrix(ks, x) - forward)) <= 1e-13
    assert np.max(np.abs(evolve_observable_matrix(build_kraus(model, t), x) - adjoint)) <= 1e-13
    assert np.max(np.abs(ks.gram - gram)) <= 1e-13
    # a state with coherences between every pair of totals
    rho = random_density_matrix(rng, model.space)
    want = sum(E @ rho.matrix @ E.conj().T for E in ref)
    assert np.max(np.abs(apply_channel(ks, rho).matrix - want)) <= 1e-13


@pytest.mark.parametrize("model, t", [
    pytest.param(build_decay_model(FockSpace([ModeSpec(width=0.5, cutoff=3),
                                              ModeSpec(mass=1.0, width=1.5, cutoff=2)])), 0.0,
                 id="t-zero"),
    pytest.param(build_decay_model(FockSpace([ModeSpec(width=0.0, cutoff=3),
                                              ModeSpec(mass=1.0, width=0.0, cutoff=2)])), 0.8,
                 id="widths-zero"),
])
def test_loss_maps_return_a_new_array_when_no_mode_decays(model, t, rng):
    ks = build_kraus(model, t)
    x = _random_matrix(rng, model.space)
    for adjoint in (False, True):
        y = ks.loss_maps(x, adjoint=adjoint)
        assert np.array_equal(y, x) and not np.shares_memory(y, x)


def test_evolve_state_never_builds_the_family(monkeypatch):
    space = FockSpace([ModeSpec(mass=0.3, width=0.8, cutoff=3),
                       ModeSpec(Statistics.FERMION, mass=1.0, width=1.2)])
    model = build_decay_model(space)
    seen = []
    apply = channel.apply_channel
    monkeypatch.setattr(channel, "apply_channel", lambda ks, rho: seen.append(ks) or apply(ks, rho))
    evolve_state(model, number_state(space, (2, 1)), (0.0, 0.5, 1.0))
    assert len(seen) == 3
    for ks in seen:
        assert not {"family", "operators", "multi_indices"} & set(vars(ks))
    assert seen[-1].family.shape == (space.dimension, len(seen[-1].multi_indices), space.dimension)
    assert "family" in vars(seen[-1])


def test_kraus_rejects_negative_time():
    model = build_decay_model(single_mode_space())
    with pytest.raises(ValueError):
        build_kraus(model, -0.1)


# ---------------------------------------------------------------------------
# channel application

def test_vacuum_is_stationary():
    space = single_mode_space(cutoff=4)
    model = build_decay_model(space)
    rho = vacuum_state(space)
    for t in (0.3, 2.0, 50.0):
        out = apply_channel(build_kraus(model, t), rho)
        assert np.max(np.abs(out.matrix - rho.matrix)) <= 1e-15


def test_one_particle_half_life():
    space = single_mode_space(cutoff=1)
    model = build_decay_model(space)
    out = apply_channel(build_kraus(model, LN2), number_state(space, (1,)))
    assert np.max(np.abs(out.matrix - np.diag([0.5, 0.5]))) <= 1e-15


def test_matrix_element_law():
    m, gamma, cutoff = 0.3, 1.0, 6
    space = single_mode_space(cutoff=cutoff, mass=m, width=gamma)
    model = build_decay_model(space)
    for t in (0.1, 1.0, 10.0):
        ks = build_kraus(model, t)
        for n in range(5):
            for npr in range(5):
                unit = np.zeros((cutoff + 1,) * 2, dtype=complex)
                unit[n, npr] = 1.0
                got = apply_channel_matrix(ks, unit)
                want = decayed_unit(n, npr, m, gamma, t, cutoff + 1)
                assert np.max(np.abs(got - want)) <= 1e-12


def test_cptp_on_random_states(rng):
    space = single_mode_space(cutoff=5, mass=0.7)
    model = build_decay_model(space)
    for _ in range(10):
        rho = random_density_matrix(rng, space)
        t = float(rng.uniform(0.0, 10.0))
        out = apply_channel(build_kraus(model, t), rho)
        assert abs(np.trace(out.matrix) - 1.0) <= 1e-12
        assert np.max(np.abs(out.matrix - out.matrix.conj().T)) <= 1e-12
        assert np.linalg.eigvalsh(out.matrix).min() >= -1e-10


def test_mixed_model_needs_a_space_where_it_is_exact():
    # the rotated c_j close only on totals up to a boson pair's common cutoff
    modes = [ModeSpec(width=0.5, cutoff=2), ModeSpec(mass=1.0, width=1.5, cutoff=2)]
    for total in (3, 4):
        with pytest.raises(ValueError, match=r"FockSpace\(modes, total=2\)"):
            build_mixed_model(FockSpace(modes, total=total), MixingParams(theta=0.7))
    build_mixed_model(FockSpace(modes, total=2), MixingParams(theta=0.7))
    # a fermion pair is exact on its whole four-state space
    fermions = FockSpace([ModeSpec(Statistics.FERMION, width=0.5),
                          ModeSpec(Statistics.FERMION, mass=1.0, width=1.5)])
    model = build_mixed_model(fermions, MixingParams(theta=0.7))
    assert model.space.dimension == 4


def test_evolve_state_grid_basics():
    space = single_mode_space(cutoff=3)
    model = build_decay_model(space)
    rho = number_state(space, (2,))
    assert evolve_state(model, rho, []) == []
    only_zero = evolve_state(model, rho, [0.0])
    assert len(only_zero) == 1
    assert np.max(np.abs(only_zero[0].matrix - rho.matrix)) <= 1e-15
    with pytest.raises(ValueError):
        evolve_state(model, rho, [1.0, 0.5])
    with pytest.raises(ValueError):
        evolve_state(model, rho, [-1.0])


def test_semigroup_composition(rng):
    space = single_mode_space(cutoff=5, mass=0.9)
    model = build_decay_model(space)
    t1, t2 = 0.3, 0.7
    for _ in range(5):
        rho = random_density_matrix(rng, space)
        step1 = apply_channel(build_kraus(model, t1), rho)
        composed = apply_channel(build_kraus(model, t2), step1)
        direct = apply_channel(build_kraus(model, t1 + t2), rho)
        assert trace_distance(composed, direct) <= 1e-10


def test_vacuum_attractor(rng):
    space = single_mode_space(cutoff=6)
    model = build_decay_model(space)
    vac = vacuum_state(space)
    states = [
        number_state(space, (2,)),
        coherent_state(space, 1, 0.3),
        random_density_matrix(rng, space),
    ]
    for rho in states:
        last = math.inf
        for t in np.arange(5.0, 45.0, 5.0):
            dist = trace_distance(apply_channel(build_kraus(model, float(t)), rho), vac)
            assert dist <= last + 1e-12
            last = dist
        assert last < 1e-6


# ---------------------------------------------------------------------------
# expectations and distributions

def test_expectation_values():
    space = single_mode_space(cutoff=4)
    model = build_decay_model(space)
    n_op = build_total_number(space)
    assert expectation(number_state(space, (2,)), n_op) == pytest.approx(2.0, abs=1e-15)
    evolved = apply_channel(build_kraus(model, LN2), number_state(space, (2,)))
    assert expectation(evolved, n_op) == pytest.approx(1.0, abs=1e-12)


def test_expectation_strangeness_eigenvalue():
    space = FockSpace([ModeSpec(cutoff=3), ModeSpec(cutoff=3)])
    s_op = build_flavour_observables(space)["S"]
    assert expectation(number_state(space, (2, 1)), s_op) == pytest.approx(1.0, abs=1e-15)


def test_expectation_rejects_bad_inputs():
    space = single_mode_space(cutoff=2)
    rho = vacuum_state(space)
    from fockdecay import OperatorMatrix

    skew = OperatorMatrix(space, np.triu(np.ones((3, 3)), 1).astype(complex))
    with pytest.raises(ValueError):
        expectation(rho, skew)
    other = single_mode_space(cutoff=3)
    with pytest.raises(ValueError):
        expectation(rho, build_total_number(other))


def test_expectations_match_one_state_at_a_time(rng):
    space = FockSpace([ModeSpec(cutoff=3), ModeSpec(cutoff=3)])
    s_op = build_flavour_observables(space)["S"]
    states = [random_density_matrix(rng, space) for _ in range(4)]
    got = expectations(states, s_op)
    assert got.shape == (4,)
    assert np.array_equal(got, [expectation(rho, s_op) for rho in states])
    assert expectations([], s_op).shape == (0,)


def test_expectations_check_every_state():
    space = single_mode_space(cutoff=2)
    n_op = build_total_number(space)
    with pytest.raises(ValueError):
        expectations([vacuum_state(space), vacuum_state(single_mode_space(cutoff=3))], n_op)
    # an unvalidated non-Hermitian matrix leaves an imaginary residue on one sample only
    skew = np.diag([0.0, 1.0, 0.0]).astype(complex)
    skew[1, 2] = 1j
    bad = DensityOperator(space, skew, validate=False)
    hop = OperatorMatrix(space, np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex))
    with pytest.raises(InvariantViolation):
        expectations([vacuum_state(space), bad], hop)


def test_binomial_occupation_distribution():
    space = single_mode_space(cutoff=5)
    model = build_decay_model(space)
    evolved = apply_channel(build_kraus(model, LN2), number_state(space, (3,)))
    dist = occupation_distribution(evolved)
    expected = {0: 1 / 8, 1: 3 / 8, 2: 3 / 8, 3: 1 / 8}
    for k, p in expected.items():
        assert dist[(k,)] == pytest.approx(p, abs=1e-12)
    assert dist[(4,)] == pytest.approx(0.0, abs=1e-15)


def test_vacuum_distribution():
    space = FockSpace([ModeSpec(cutoff=2), ModeSpec(cutoff=1)])
    dist = occupation_distribution(vacuum_state(space))
    assert dist[(0, 0)] == pytest.approx(1.0, abs=1e-15)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_poisson_evolution_matches_coherent():
    space = single_mode_space(cutoff=12)
    model = build_decay_model(space)
    n_op = build_total_number(space)
    from fockdecay import poisson_mixture

    for t in (0.2, 1.0, 2.5):
        ks = build_kraus(model, t)
        mean_coh = expectation(apply_channel(ks, coherent_state(space, 1, 1.0)), n_op)
        mean_poi = expectation(apply_channel(ks, poisson_mixture(space, 1, 1.0)), n_op)
        assert mean_coh == pytest.approx(mean_poi, abs=1e-12)
        assert mean_coh == pytest.approx(math.exp(-t), abs=1e-8)


# ---------------------------------------------------------------------------
# edges

def test_zero_width_is_unitary():
    space = FockSpace(ModeSpec(mass=1.3, width=0.0, cutoff=4))
    model = build_decay_model(space)
    ks = build_kraus(model, 2.0)
    nonzero = [op for op in ks.operators if np.max(np.abs(op.entries)) > 0]
    assert len(nonzero) == 1  # only the unitary piece survives
    rho = np.zeros((5, 5), dtype=complex)
    rho[2, 1] = 1.0
    out = apply_channel_matrix(ks, rho)
    assert out[2, 1] == pytest.approx(np.exp(-1j * 1.3 * (2 - 1) * 2.0), abs=1e-14)


def test_very_large_time_is_clean():
    space = single_mode_space(cutoff=4)
    model = build_decay_model(space)
    ks = build_kraus(model, 800.0)
    out = apply_channel(ks, number_state(space, (3,)))
    assert np.isfinite(out.matrix).all()
    assert trace_distance(out, vacuum_state(space)) <= 1e-14


def test_fermionic_channel():
    space = FockSpace([ModeSpec(Statistics.FERMION, width=1.0),
                       ModeSpec(Statistics.FERMION, mass=0.8, width=2.0)])
    model = build_decay_model(space)
    for t in (0.3, 1.0, 4.0):
        ks = build_kraus(model, t)
        assert all(all(k <= 1 for k in kappa) for kappa in ks.multi_indices)
        assert ks.completeness_defect <= 1e-12
        out = apply_channel(ks, number_state(space, (1, 0)))
        n_op = build_total_number(space)
        assert expectation(out, n_op) == pytest.approx(math.exp(-t), abs=1e-12)


def test_superselection_pinching():
    space = single_mode_space(cutoff=2)
    vec = np.array([math.sqrt(0.5), math.sqrt(0.3), math.sqrt(0.2)], dtype=complex)
    rho = DensityOperator(space, np.outer(vec, vec.conj()))
    pinched = enforce_superselection(rho)
    assert np.max(np.abs(pinched.matrix - np.diag([0.5, 0.3, 0.2]))) <= 1e-15
