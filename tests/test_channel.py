import math
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest
import scipy.linalg
from conftest import kraus_reference, loss_patterns, random_density_matrix, support_total_bound

from fockdecay import (
    CertificateError,
    DecayModel,
    KrausSet,
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
from fockdecay.channel import LARGE_EXPONENT

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
    kay = sum(-0.5 * g * c.entries.conj().T @ c.entries for g, c in zip(model.widths, model.decay_ops))
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
        DecayModel(space, ops)


def test_certificate_is_formed_on_the_scaled_generator():
    # M = m N is finite at m = 8e307 and n <= 2 (5e307 and n <= 3), but m^2 is not:
    # [M, c] is formed on M / s, so the huge mass passes the certificate
    for mass, cutoff in ((8e307, 2), (5e307, 3), (8e307, 1)):
        model = build_decay_model(FockSpace(ModeSpec(mass=mass, width=0.5, cutoff=cutoff)))
        assert model.certificate_defect <= 1e-12


def test_model_refuses_decay_operators_that_do_not_lower_the_total_by_one():
    space = FockSpace([ModeSpec(cutoff=2), ModeSpec(cutoff=2)])
    a1, a2 = (build_annihilator(space, j).entries for j in (1, 2))
    drop_two = a1.copy()
    drop_two[space.index_of((0, 0)), space.index_of((1, 1))] = 0.1  # lowers the total by 2
    for bad in (drop_two, a1 + a1.conj().T):  # c + c^dag also raises it
        with pytest.raises(InvariantViolation, match="Delta N"):
            DecayModel(space, (OperatorMatrix(space, bad), OperatorMatrix(space, a2)))


def test_model_refuses_operators_that_do_not_match_its_space():
    space = FockSpace([ModeSpec(cutoff=2), ModeSpec(cutoff=2)])
    a1 = build_annihilator(space, 1)
    with pytest.raises(ValueError, match="one decay operator per mode"):
        DecayModel(space, (a1,))
    other = FockSpace([ModeSpec(cutoff=2), ModeSpec(cutoff=2)], total=3)
    with pytest.raises(ValueError, match="one decay operator per mode"):
        DecayModel(space, (a1, build_annihilator(other, 2)))


def test_models_and_channels_are_constructed_only_from_what_they_check():
    assert [f.name for f in fields(DecayModel) if f.init] == ["space", "decay_ops", "mixing_unitary"]
    assert [f.name for f in fields(KrausSet) if f.init] == ["model", "time"]
    model = build_decay_model(single_mode_space(cutoff=2))
    ks = KrausSet(model, 0.5)
    for obj, name in ((model, "m_operator"), (model, "decay_ops"), (ks, "propagator"),
                      (ks, "gram")):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, None)
    for array in (model.m_operator.entries, ks.propagator, ks.gram):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0
    with pytest.raises(TypeError):
        KrausSet(model=model, time=0.5, propagator=ks.propagator)
    with pytest.raises(TypeError, match="DecayModel"):
        KrausSet(object(), 0.5)


# ---------------------------------------------------------------------------
# Kraus channels

def test_kraus_at_time_zero_is_identity_plus_zeros():
    model = build_decay_model(single_mode_space(cutoff=3))
    ks = build_kraus(model, 0.0)
    ref = kraus_reference(model, 0.0, loss_patterns(model.space))
    assert np.array_equal(ref[0], np.eye(4)) and np.array_equal(ks.propagator, np.eye(4))
    for E in ref[1:]:
        assert np.max(np.abs(E)) == 0.0
    assert ks.completeness_defect <= 1e-12


def test_kraus_half_life_two_level():
    model = build_decay_model(single_mode_space(cutoff=1))
    e0, e1 = kraus_reference(model, LN2, loss_patterns(model.space))
    for u in (e0, build_kraus(model, LN2).propagator):
        assert np.max(np.abs(u - np.diag([1.0, 2 ** -0.5]))) <= 1e-15
    expected = np.zeros((2, 2))
    expected[0, 1] = math.sqrt(0.5)
    assert np.max(np.abs(e1 - expected)) <= 1e-15


def test_kraus_columns_match_closed_form():
    m, gamma, cutoff = 0.4, 1.0, 6
    model = build_decay_model(single_mode_space(cutoff=cutoff, mass=m, width=gamma))
    for t in (0.1, 0.7, 2.3):
        patterns = loss_patterns(model.space)
        w = -math.expm1(-gamma * t)
        for (k,), E in zip(patterns, kraus_reference(model, t, patterns)):
            for n in range(cutoff + 1):
                col = E[:, n]
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


def _decaying_generator(rng, d, normal):
    """A random non-diagonal M whose exp(-i M t) is a contraction for t >= 0, as a model's M is:
    normal with eigenvalues in the lower half-plane, or H - i K / 2 with H and K >= 0 not commuting."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    if normal:
        q, _ = np.linalg.qr(z)
        return (q * (rng.standard_normal(d) - 1j * rng.random(d))) @ q.conj().T
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (h + h.conj().T) - 0.5j * (z @ z.conj().T) / d


@pytest.mark.parametrize("d", [2, 10, 21, 39])
@pytest.mark.parametrize("normal", [True, False], ids=["normal", "non-normal"])
def test_propagators_match_scipy_expm(d, normal, rng):
    m = _decaying_generator(rng, d, normal)
    # t ||M||_1 from 0 to 1e4: up to 11 squarings
    times = np.concatenate([[0.0], np.logspace(-3, 4, 29)]) / np.abs(m).sum(axis=0).max()
    got = channel._propagators(m, times)
    want = scipy.linalg.expm(-1j * m * times[:, None, None])
    scale = np.maximum(1.0, np.abs(want).max(axis=(-2, -1)))
    assert np.all(np.abs(got - want).max(axis=(-2, -1)) <= 1e-13 * scale)
    assert np.array_equal(got[0], np.eye(d))
    # each point is the one its time alone gives, in whatever order the times come
    order = rng.permutation(len(times))
    assert np.array_equal(channel._propagators(m, times[order]), got[order])
    assert all(np.array_equal(channel._propagators(m, [t])[0], u) for t, u in zip(times, got))


def test_a_diagonal_generator_takes_exp_of_its_diagonal(rng):
    diag = rng.standard_normal(6) - 1j * rng.random(6)
    times = [0.0, 0.3, 7.0, 1e3]
    for t, u in zip(times, channel._propagators(np.diag(diag), times)):
        assert np.array_equal(u, np.diag(np.exp(-1j * diag * t)))
        assert np.array_equal(u, scipy.linalg.expm(-1j * np.diag(diag) * t))


def test_a_non_finite_exponent_ends_in_an_invariant_violation():
    for entry, t in ((math.nan, 1.0), (math.inf, 1.0), (0.2, math.inf)):
        m = np.array([[0.5 - 0.5j, entry], [0.2, 1.0 - 1.0j]])
        stack = channel._propagators(m, [0.5, t])  # no LinAlgError from the solve
        with pytest.raises(InvariantViolation, match="propagator exp\\(-i M t\\) is not finite"):
            channel._check_finite(stack, "propagator exp(-i M t)", [0.5, t])
    fermions = FockSpace([ModeSpec(Statistics.FERMION, width=0.5), ModeSpec(Statistics.FERMION, width=1.5)])
    with pytest.raises(InvariantViolation, match="not finite at t = inf"):
        build_kraus(build_mixed_model(fermions, MixingParams(theta=0.9)), math.inf)


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
    full = loss_patterns(model.space)
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
    fermions = FockSpace([ModeSpec(Statistics.FERMION, mass=0.0, width=0.5),
                          ModeSpec(Statistics.FERMION, mass=2.0, width=1.5)])
    yield pytest.param(build_mixed_model(fermions, MixingParams(theta=0.9, phi=0.2)), 1.1,
                       id="mixed-fermions")
    # w_1 = 1e-200, so w_1**2 / 2 underflows; w_2 = 0
    space = FockSpace([ModeSpec(width=1.0, cutoff=3), ModeSpec(mass=1.0, width=0.0, cutoff=2)])
    yield pytest.param(build_decay_model(space), 1e-200, id="w-underflow")


@pytest.mark.parametrize("model, t", list(_edge_cases()))
def test_nested_maps_match_the_family_reference(model, t, rng):
    ks = build_kraus(model, t)
    ref = kraus_reference(model, t, loss_patterns(model.space))
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


def dense_loss_maps(x, model, weights, adjoint):
    """The Horner sums of the loss maps, one point at a time, each c_j a dense matrix."""
    space, out = model.space, []
    modes = list(enumerate(model.decay_ops))
    for w_point in weights:
        y = np.array(x, dtype=complex)
        for j, c in modes if adjoint else reversed(modes):
            if w_point[j] == 0:
                continue
            lower, upper = (c.entries.conj().T, c.entries) if adjoint else (c.entries, c.entries.conj().T)
            sub = y
            for k in range(min(space.modes[j].cutoff, space.total), 0, -1):
                sub = lower @ sub @ upper
                sub *= w_point[j] / k
                sub += y
            y = sub
        out.append(y)
    return np.array(out)


def _gather_cases():
    # (model, t, gathered, tol); tol 0 asks for bit-equal sums
    for case in _edge_cases():
        if case.id in ("w-zero", "boson-two-fermions", "mixed"):
            model, t = case.values
            yield pytest.param(model, t, not model.is_mixed, 0.0, id=case.id)
    # at theta = 0 each c_j keeps one nonzero per row, with the phase of V: gathered, but the
    # complex products round unlike the matmul's
    bosons = FockSpace([ModeSpec(width=0.5, cutoff=3), ModeSpec(mass=3.0, width=1.5, cutoff=3)], total=3)
    model = build_mixed_model(bosons, MixingParams(theta=0.0, phi=0.5, psi=0.3, chi=0.1))
    yield pytest.param(model, 0.7, True, 1e-13, id="theta-zero-phases")


@pytest.mark.parametrize("model, t, gathered, tol", list(_gather_cases()))
def test_gathered_loss_maps_equal_the_dense_horner_sums(model, t, gathered, tol, rng):
    assert all((plan is not None) == gathered for plans in model._gather_plans for plan in plans)
    times = [0.0, t, 2 * t]  # every weight is 0 at t = 0
    weights = np.array([[channel._decay_weight(g, s) for g in model.widths] for s in times])
    x = _random_matrix(rng, model.space)
    for adjoint in (False, True):
        got = channel._nested_loss_maps(x, model, weights, adjoint)
        want = dense_loss_maps(x, model, weights, adjoint)
        assert np.array_equal(got, want) if tol == 0 else np.max(np.abs(got - want)) <= tol
        assert np.array_equal(got[0], x)


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


def _grid_cases():
    space = FockSpace([ModeSpec(mass=0.3, width=0.8, cutoff=3),
                       ModeSpec(Statistics.FERMION, mass=1.0, width=1.2)])
    yield pytest.param(build_decay_model(space), number_state(space, (2, 1)), id="boson-fermion")
    bosons = FockSpace([ModeSpec(width=0.5, cutoff=4), ModeSpec(mass=3.0, width=1.5, cutoff=4)], total=4)
    rho = random_density_matrix(np.random.default_rng(5), bosons)
    yield pytest.param(build_mixed_model(bosons, MixingParams(theta=1.2, phi=0.5)), rho, id="mixed-bosons")
    space = FockSpace([ModeSpec(mass=0.4, width=1.0, cutoff=3), ModeSpec(mass=1.3, width=0.0, cutoff=2)])
    rho = random_density_matrix(np.random.default_rng(6), space)
    yield pytest.param(build_decay_model(space), rho, id="zero-width")


@pytest.mark.parametrize("stack_points", [None, 3], ids=["default-chunk", "three-point-chunks"])
@pytest.mark.parametrize("model, rho", list(_grid_cases()))
def test_evolve_state_is_the_per_point_channel(model, rho, stack_points, monkeypatch):
    d = model.space.dimension
    if stack_points is not None:
        monkeypatch.setattr(channel, "STACK_BYTES", 16 * d * d * stack_points)
    chunk = channel._stack_points(d)
    times = np.linspace(0.0, 4.0, 2 * chunk + 3)  # from t = 0, over more than two chunks
    want = [apply_channel(build_kraus(model, float(t)), rho).matrix for t in times]
    got = evolve_state(model, rho, times)
    assert len(got) == len(times)
    for g, w in zip(got, want):
        assert np.array_equal(g.matrix, w)


def test_a_breach_at_one_point_of_a_chunk_raises_as_that_point_does(monkeypatch):
    model = build_decay_model(single_mode_space(cutoff=3))
    weight = channel._decay_weight
    # a wrong weight at t = 0.5 alone breaks the completeness of that channel
    monkeypatch.setattr(channel, "_decay_weight",
                        lambda g, t: weight(g, t) + (1e-3 if t == 0.5 else 0.0))
    times = (0.0, 0.25, 0.5, 0.75, 1.0)
    assert channel._stack_points(model.space.dimension) >= len(times)  # one chunk
    with pytest.raises(InvariantViolation, match="completeness defect") as one:
        build_kraus(model, 0.5)
    with pytest.raises(InvariantViolation) as grid:
        evolve_state(model, number_state(model.space, (3,)), times)
    assert str(grid.value) == str(one.value)


def test_of_two_breaches_in_one_chunk_the_earlier_point_raises(monkeypatch):
    model = build_decay_model(single_mode_space(cutoff=3))
    rho = number_state(model.space, (3,))
    weight = channel._decay_weight
    # t = 0.25 passes its completeness check and then changes the trace; t = 0.75 fails
    # completeness, a check the stack runs on every point before any trace check
    monkeypatch.setattr(channel, "_decay_weight",
                        lambda g, t: weight(g, t) + {0.25: 1e-11, 0.75: 1e-3}.get(t, 0.0))
    times = (0.0, 0.25, 0.5, 0.75, 1.0)
    assert channel._stack_points(model.space.dimension) >= len(times)  # one chunk
    with pytest.raises(InvariantViolation, match="changed the trace") as first:
        apply_channel(build_kraus(model, 0.25), rho)
    with pytest.raises(InvariantViolation, match="completeness defect"):
        build_kraus(model, 0.75)
    with pytest.raises(InvariantViolation) as grid:
        evolve_state(model, rho, times)
    assert str(grid.value) == str(first.value)


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
    nonzero = [E for E in kraus_reference(model, 2.0, loss_patterns(space)) if np.max(np.abs(E)) > 0]
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
    assert all(all(k <= 1 for k in kappa) for kappa in loss_patterns(space))
    for t in (0.3, 1.0, 4.0):
        ks = build_kraus(model, t)
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
