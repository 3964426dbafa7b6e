import math

import numpy as np
import pytest
from conftest import dense_decay_ops, random_density_matrix, random_hermitian

from fockdecay import (
    DensityOperator,
    FockSpace,
    InvariantViolation,
    ModeSpec,
    MixingParams,
    OperatorMatrix,
    Statistics,
    apply_channel_matrix,
    build_annihilator,
    build_decay_model,
    build_flavour_observables,
    build_kraus,
    build_mixed_model,
    build_total_number,
    coherent_state,
    evolve_ladder,
    evolve_observable,
    evolve_observable_matrix,
    evolve_projector,
    evolve_quadratic,
    expectation,
    mean_quadratic_trajectories,
    number_state,
)
from fockdecay.flavour import quadratic_omegas
from fockdecay.fock import linear_form, one_body_correlations, quadratic_form
import fockdecay.heisenberg as heisenberg
from fockdecay.channel import _decay_amplitude


def single_model(cutoff=6, mass=0.5, width=1.0):
    return build_decay_model(FockSpace(ModeSpec(mass=mass, width=width, cutoff=cutoff)))


def mixed_model(theta, phi=0.4, psi=1.1, chi=0.2, masses=(0.0, 5.0), widths=(0.5, 1.5), cutoff=4):
    space = FockSpace([ModeSpec(mass=masses[0], width=widths[0], cutoff=cutoff),
                       ModeSpec(mass=masses[1], width=widths[1], cutoff=cutoff)], total=cutoff)
    return build_mixed_model(space, MixingParams(theta=theta, phi=phi, psi=psi, chi=chi))


def eq42_eq47_matrices(space, theta, phi, masses, widths, t):
    """Mixed-model closed forms for the evolved N and S, built independently."""
    obs = build_flavour_observables(space, phi)
    n_mat, s_mat = obs["N"].entries, obs["S"].entries
    qp, qm = obs["Qplus"].entries, obs["Qminus"].entries
    e1, e2 = math.exp(-widths[0] * t), math.exp(-widths[1] * t)
    gbar = 0.5 * (widths[0] + widths[1])
    dm = masses[1] - masses[0]
    half_sum, half_diff = 0.5 * (e1 + e2), 0.5 * (e1 - e2)
    ebar = math.exp(-gbar * t)
    n_t = half_sum * n_mat + half_diff * (math.cos(theta) * s_mat + math.sin(theta) * qp)
    s_t = (
        half_diff * math.cos(theta) * n_mat
        + ebar * math.sin(dm * t) * math.sin(theta) * qm
        + (half_sum * math.cos(theta) ** 2 + ebar * math.cos(dm * t) * math.sin(theta) ** 2) * s_mat
        + (half_sum - ebar * math.cos(dm * t)) * math.sin(theta) * math.cos(theta) * qp
    )
    return n_t, s_t


# ---------------------------------------------------------------------------
# closed forms, single mode

def test_number_decays_exponentially():
    model = single_model()
    n_op = build_total_number(model.space)
    for t in (0.0, math.log(2.0), 1.9):
        ks = build_kraus(model, t)
        series = evolve_observable(ks, n_op).entries
        closed = evolve_quadratic(model, quadratic_omegas(1)["N"], t).entries
        want = math.exp(-t) * n_op.entries
        assert np.max(np.abs(series - want)) <= 1e-12
        assert np.max(np.abs(closed - want)) <= 1e-12


def test_vacuum_projector_spreads_upward():
    model = single_model(cutoff=7)
    proj0 = number_state(model.space, (0,)).matrix
    for t in (0.4, 2.0):
        ks = build_kraus(model, t)
        got = evolve_observable_matrix(ks, proj0)
        w = -math.expm1(-t)
        want = np.diag([w**k for k in range(8)]).astype(complex)
        assert np.max(np.abs(got - want)) <= 1e-12
        closed = evolve_projector(model, t, (0,)).entries
        assert np.max(np.abs(closed - want)) <= 1e-12
    # long-time limit reaches the identity on the retained block
    got = evolve_observable_matrix(build_kraus(model, 50.0), proj0)
    assert np.max(np.abs(got - np.eye(8))) <= 1e-10


def test_projector_closed_form_regular_at_zero():
    model = single_model(cutoff=5)
    got = evolve_projector(model, 0.0, (3,)).entries
    assert np.max(np.abs(got - number_state(model.space, (3,)).matrix)) == 0.0


def test_projector_matches_series_on_grid():
    model = single_model(cutoff=6, mass=1.2)
    for n in (1, 3):
        for t in (1e-12, 0.05, 1.3):
            closed = evolve_projector(model, t, (n,)).entries
            series = evolve_observable_matrix(
                build_kraus(model, t), number_state(model.space, (n,)).matrix
            )
            assert np.max(np.abs(closed - series)) <= 1e-12


def test_duality_random_pairs(rng):
    model = single_model(cutoff=5, mass=0.8)
    n_pairs = 20
    for t in (0.2, 1.0, 3.0):
        ks = build_kraus(model, t)
        for _ in range(n_pairs):
            rho = random_density_matrix(rng, model.space)
            omega = random_hermitian(rng, model.space)
            lhs = np.trace(apply_channel_matrix(ks, rho.matrix) @ omega.entries)
            rhs = np.trace(rho.matrix @ evolve_observable(ks, omega).entries)
            assert abs(lhs - rhs) <= 1e-10


# ---------------------------------------------------------------------------
# ladder operators

def test_ladder_single_type():
    m, gamma = 0.7, 1.0
    model = single_model(mass=m, width=gamma)
    a = build_annihilator(model.space, 1).entries
    for t in (0.0, 0.9):
        low, high = evolve_ladder(model, t, 1)
        scale = np.exp(-(1j * m + 0.5 * gamma) * t)
        assert np.max(np.abs(low.entries - scale * a)) <= 1e-14
        assert np.max(np.abs(high.entries - np.conj(scale) * a.conj().T)) <= 1e-14


def test_ladder_factorization_single_type():
    model = single_model(mass=0.6)
    t = 1.1
    low, high = evolve_ladder(model, t, 1)
    n_t = evolve_quadratic(model, quadratic_omegas(1)["N"], t).entries
    assert np.max(np.abs(high.entries @ low.entries - n_t)) <= 1e-12


def test_ladder_theta_zero_reduces_to_single_type():
    model = mixed_model(theta=0.0, phi=0.9, psi=0.2, chi=1.0)
    a1 = build_annihilator(model.space, 1).entries
    t = 0.7
    low, _ = evolve_ladder(model, t, 1)
    scale = np.exp(-(1j * model.masses[0] + 0.5 * model.widths[0]) * t)
    assert np.max(np.abs(low.entries - scale * a1)) <= 1e-12


def test_ladder_mixed_matches_series(rng):
    model = mixed_model(theta=1.0)
    t = 0.6
    ks = build_kraus(model, t)
    for mode in (1, 2):
        a = build_annihilator(model.space, mode).entries
        closed = evolve_ladder(model, t, mode)[0].entries
        series = evolve_observable_matrix(ks, a)
        assert np.max(np.abs((closed - series))) <= 1e-12


def _fermion(mass, width):
    return ModeSpec(Statistics.FERMION, mass=mass, width=width)


def _fermion_ladder_cases():
    """(id, model, the modes whose ladder closed form is refused)."""
    pair = [_fermion(0.3, 1.3), _fermion(1.1, 0.7)]
    still = [_fermion(0.3, 0.0), _fermion(1.1, 0.0)]
    boson = ModeSpec(mass=0.3, width=1.3, cutoff=2)
    mix = MixingParams(theta=0.9, phi=0.4)
    return [
        ("two decaying fermions", build_decay_model(FockSpace(pair)), (1, 2)),
        ("fermion pair, one width 0", build_decay_model(FockSpace([pair[0], still[1]])), (2,)),
        ("mixed fermion pair", build_mixed_model(FockSpace(pair), mix), (1, 2)),
        ("boson and fermion", build_decay_model(FockSpace([boson, pair[1]])), ()),
        ("lone fermion", build_decay_model(FockSpace(pair[0])), ()),
        ("mixed fermion pair, widths 0", build_mixed_model(FockSpace(still), mix), ()),
    ]


@pytest.mark.parametrize("case", range(6), ids=[c[0] for c in _fermion_ladder_cases()])
def test_ladder_closed_form_on_fermions_holds_or_is_refused(case):
    # c_j^dag c_i c_j = -n_j c_i for fermions j != i, so another decaying fermion breaks the form
    _, model, refused = _fermion_ladder_cases()[case]
    t = 0.8
    ks = build_kraus(model, t)
    d, v = heisenberg._grid_amplitudes(model, [t])[0], model._couplings
    for mode in range(1, model.space.n_modes + 1):
        series = evolve_observable_matrix(ks, build_annihilator(model.space, mode).entries)
        if mode in refused:
            unrestricted = linear_form(model.space, (v[:, mode - 1] * d) @ v.conj())
            assert np.max(np.abs(unrestricted - series)) > 0.1
            with pytest.raises(ValueError, match="another fermion mode decays"):
                evolve_ladder(model, t, mode)
        else:
            assert np.max(np.abs(evolve_ladder(model, t, mode)[0].entries - series)) <= 1e-14


@pytest.mark.parametrize("mixed", [False, True], ids=["unmixed", "mixed"])
def test_quadratic_closed_forms_hold_on_a_fermion_pair(mixed):
    # quadratic forms are even operators, so no sign of c_j^dag c_i c_j reaches them
    space = FockSpace([_fermion(0.3, 1.3), _fermion(1.1, 0.7)])
    phi = 0.4 if mixed else 0.0
    model = build_mixed_model(space, MixingParams(theta=0.9, phi=phi)) if mixed else build_decay_model(space)
    t = 0.8
    ks = build_kraus(model, t)
    for name, omega in quadratic_omegas(2, phi).items():
        series = evolve_observable_matrix(ks, quadratic_form(space, omega))
        assert np.max(np.abs(evolve_quadratic(model, omega, t).entries - series)) <= 1e-14, name


# ---------------------------------------------------------------------------
# dual-map structure

def test_unitality_on_exact_block():
    for model in (single_model(), mixed_model(theta=1.2)):
        eye = np.eye(model.space.dimension, dtype=complex)
        for t in (0.3, 2.0, 5.0):
            ks = build_kraus(model, t)
            got = evolve_observable_matrix(ks, eye)
            assert np.max(np.abs((got - eye))) <= 1e-10


def test_dual_map_preserves_positivity(rng):
    model = single_model(cutoff=5)
    ks = build_kraus(model, 0.8)
    for _ in range(5):
        b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        omega = OperatorMatrix(model.space, b.conj().T @ b)
        evolved = evolve_observable(ks, omega).entries
        assert np.linalg.eigvalsh(evolved).min() >= -1e-10


def test_dual_semigroup(rng):
    model = single_model(cutoff=5, mass=0.4)
    t1, t2 = 0.5, 0.9
    omega = random_hermitian(rng, model.space).entries
    inner = evolve_observable_matrix(build_kraus(model, t2), omega)
    composed = evolve_observable_matrix(build_kraus(model, t1), inner)
    direct = evolve_observable_matrix(build_kraus(model, t1 + t2), omega)
    assert np.max(np.abs((composed - direct))) <= 1e-9


# ---------------------------------------------------------------------------
# mixed-model operator identities

def test_number_and_strangeness_identities_generic_angle():
    theta, phi = 1.0, 0.7
    masses, widths = (0.0, 5.0), (0.5, 1.5)
    model = mixed_model(theta=theta, phi=phi, psi=0.3, chi=0.2, masses=masses, widths=widths)
    obs = build_flavour_observables(model.space, phi)
    for t in (0.0, 0.4, 1.7):
        want_n, want_s = eq42_eq47_matrices(model.space, theta, phi, masses, widths, t)
        ks = build_kraus(model, t)
        for got in (evolve_quadratic(model, quadratic_omegas(2)["N"], t).entries,
                    evolve_observable(ks, obs["N"]).entries):
            assert np.max(np.abs((got - want_n))) <= 1e-10
        for got in (evolve_quadratic(model, quadratic_omegas(2)["S"], t).entries,
                    evolve_observable(ks, obs["S"]).entries):
            assert np.max(np.abs((got - want_s))) <= 1e-10


def test_extreme_angle_forms():
    masses, widths = (0.0, 5.0), (0.5, 1.5)
    gbar = 1.0
    dm = 5.0
    t = 0.9
    e1, e2 = math.exp(-widths[0] * t), math.exp(-widths[1] * t)

    plain = mixed_model(theta=0.0, phi=0.0, psi=0.0, chi=0.0, masses=masses, widths=widths)
    obs = build_flavour_observables(plain.space, 0.0)
    n_mat, s_mat = obs["N"].entries, obs["S"].entries
    omegas = quadratic_omegas(2)
    got_n = evolve_quadratic(plain, omegas["N"], t).entries
    got_s = evolve_quadratic(plain, omegas["S"], t).entries
    want_n = 0.5 * e1 * (n_mat + s_mat) + 0.5 * e2 * (n_mat - s_mat)
    want_s = 0.5 * e1 * (s_mat + n_mat) + 0.5 * e2 * (s_mat - n_mat)
    assert np.max(np.abs((got_n - want_n))) <= 1e-10
    assert np.max(np.abs((got_s - want_s))) <= 1e-10

    phi = 2 * math.pi
    maximal = mixed_model(theta=math.pi / 2, phi=phi, psi=math.pi, chi=3 * math.pi / 2,
                          masses=masses, widths=widths)
    obs = build_flavour_observables(maximal.space, phi)
    qp, qm, s_mat, n_mat = (obs["Qplus"].entries, obs["Qminus"].entries,
                            obs["S"].entries, obs["N"].entries)
    got_n = evolve_quadratic(maximal, omegas["N"], t).entries
    got_s = evolve_quadratic(maximal, omegas["S"], t).entries
    want_n = 0.5 * (e1 + e2) * n_mat + 0.5 * (e1 - e2) * qp
    want_s = math.exp(-gbar * t) * (math.cos(dm * t) * s_mat + math.sin(dm * t) * qm)
    assert np.max(np.abs((got_n - want_n))) <= 1e-10
    assert np.max(np.abs((got_s - want_s))) <= 1e-10


def test_global_phase_does_not_move_observables():
    mats = []
    for chi in (0.0, math.pi / 3, 3 * math.pi / 2):
        model = mixed_model(theta=1.1, phi=0.5, psi=0.8, chi=chi)
        mats.append(tuple(evolve_quadratic(model, quadratic_omegas(2)[name], 0.7).entries for name in "NS"))
    for n_t, s_t in mats[1:]:
        assert np.max(np.abs(n_t - mats[0][0])) <= 1e-12
        assert np.max(np.abs(s_t - mats[0][1])) <= 1e-12


def test_mean_trajectories_match_scalar_closed_forms():
    masses, widths = (0.0, 5.0), (0.5, 1.5)
    n1, n2 = 2, 1
    times = np.linspace(0.0, 3.0, 31)
    gbar, dm = 1.0, 5.0
    for theta in (0.0, math.pi / 4, math.pi / 2):
        model = mixed_model(theta=theta, phi=0.0, psi=0.0, chi=0.0,
                            masses=masses, widths=widths)
        rho = number_state(model.space, (n1, n2))
        means = mean_quadratic_trajectories(model, rho, quadratic_omegas(2), times)
        got_n, got_s = means["N"], means["S"]
        e1 = np.exp(-widths[0] * times)
        e2 = np.exp(-widths[1] * times)
        want_n = 0.5 * (e1 + e2) * (n1 + n2) + 0.5 * (e1 - e2) * (n1 - n2) * math.cos(theta)
        want_s = (
            0.5 * (e1 - e2) * (n1 + n2) * math.cos(theta)
            + (0.5 * (e1 + e2) * math.cos(theta) ** 2
               + np.exp(-gbar * times) * np.cos(dm * times) * math.sin(theta) ** 2) * (n1 - n2)
        )
        assert np.max(np.abs(got_n - want_n)) <= 1e-10
        assert np.max(np.abs(got_s - want_s)) <= 1e-10
    assert got_n[0] == pytest.approx(3.0, abs=1e-12)
    assert got_s[0] == pytest.approx(1.0, abs=1e-12)


def test_strangeness_requires_two_flavours():
    assert list(quadratic_omegas(1)) == ["N"]
    assert "S" in quadratic_omegas(2) and "S" not in quadratic_omegas(3)


def test_quadratic_evolver_handles_coherence_pair():
    phi = 0.4
    model = mixed_model(theta=math.pi / 2, phi=phi, psi=0.0, chi=0.0)
    obs = build_flavour_observables(model.space, phi)
    t = 0.8
    ks = build_kraus(model, t)
    for name, omega in (("Qplus", np.array([[0, np.exp(1j * phi)], [np.exp(-1j * phi), 0]])),
                        ("Qminus", np.array([[0, 1j * np.exp(1j * phi)], [-1j * np.exp(-1j * phi), 0]]))):
        closed = evolve_quadratic(model, omega, t).entries
        series = evolve_observable(ks, obs[name]).entries
        assert np.max(np.abs((closed - series))) <= 1e-11


# ---------------------------------------------------------------------------
# grid-wide closed form on the one-body correlations

def _grid_cases():
    fermion = ModeSpec(Statistics.FERMION, mass=2.0, width=0.8)
    three = FockSpace([ModeSpec(mass=0.3, width=0.6, cutoff=3), fermion,
                       ModeSpec(Statistics.FERMION, mass=3.5, width=1.2)])
    pair = FockSpace([fermion, ModeSpec(Statistics.FERMION, mass=3.5, width=1.2)])
    mix = MixingParams(theta=0.9, phi=0.7, psi=1.3, chi=0.4)
    return [
        ("mixed boson pair", mixed_model(theta=1.1, phi=0.7, psi=1.3, chi=0.4), 0.7),
        ("boson and two fermions", build_decay_model(three), 0.0),
        ("mixed fermion pair",
         build_mixed_model(pair, mix), mix.phi),
    ]


@pytest.mark.parametrize("case", range(3), ids=[c[0] for c in _grid_cases()])
def test_grid_form_builds_no_decay_operator(rng, case, scatter_calls):
    # the closed forms read V, the masses and the widths: a run on them forms no c_j and no M
    _, model, phi = _grid_cases()[case]
    mean_quadratic_trajectories(model, random_density_matrix(rng, model.space),
                                quadratic_omegas(model.space.n_modes, phi), np.linspace(0.0, 1.0, 5))
    assert scatter_calls == []


@pytest.mark.parametrize("case", range(3), ids=[c[0] for c in _grid_cases()])
def test_grid_form_matches_operator_form(rng, case):
    _, model, phi = _grid_cases()[case]
    r = model.space.n_modes
    rho0 = random_density_matrix(rng, model.space)
    raw = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    omegas = dict(quadratic_omegas(r, phi), random=0.5 * (raw + raw.conj().T))
    times = np.linspace(0.0, 3.0, 13)
    for name, omega in omegas.items():
        got = mean_quadratic_trajectories(model, rho0, {name: omega}, times)[name]
        want = [expectation(rho0, evolve_quadratic(model, omega, float(t))) for t in times]
        assert got.shape == times.shape
        assert np.max(np.abs(got - want)) <= 1e-13, name


def test_grid_form_shares_the_operator_form_checks(rng):
    model = mixed_model(theta=0.8)
    rho0 = random_density_matrix(rng, model.space)
    with pytest.raises(ValueError, match="must be 2x2"):
        mean_quadratic_trajectories(model, rho0, {"big": np.eye(3)}, [0.5])
    with pytest.raises(ValueError, match="not Hermitian"):
        mean_quadratic_trajectories(model, rho0, {"skew": np.array([[0.0, 1.0], [0.0, 0.0]])}, [0.5])
    # the tolerance is relative to the observable's scale on both paths
    large = 1e6 * np.array([[1.0, 0.3], [0.3, -2.0]], dtype=complex)
    large[0, 1] += 1e-7
    operator = OperatorMatrix(model.space, quadratic_form(model.space, large))
    assert np.isfinite(mean_quadratic_trajectories(model, rho0, {"large": large}, [0.5])["large"]).all()
    assert np.isfinite(expectation(rho0, operator))


def test_grid_form_rejects_an_imaginary_expectation():
    model = single_model(cutoff=2)
    # not Hermitian, so <N> = rho[1, 1] + 2 rho[2, 2] is not real
    state = DensityOperator(model.space, np.diag([0.0, 1.0 + 0.5j, 0.0]), validate=False)
    with pytest.raises(InvariantViolation, match="imaginary residue"):
        mean_quadratic_trajectories(model, state, quadratic_omegas(1), [0.0, 0.5])


def test_grid_form_rejects_a_nan_state():
    # NaN compares False with any tolerance, so the residue check must be written to fail on it
    model = single_model(cutoff=2)
    state = DensityOperator(model.space, np.full((3, 3), np.nan), validate=False)
    with pytest.raises(InvariantViolation, match="imaginary residue nan"):
        mean_quadratic_trajectories(model, state, quadratic_omegas(1), [0.0, 0.5])


@pytest.mark.parametrize("case", ["mixed pair, coherent", "boson and fermion, mixture"])
def test_rotated_one_body_correlations_match_the_dense_trace(case):
    if case == "mixed pair, coherent":
        model = mixed_model(theta=1.1, phi=0.7, psi=1.3, chi=0.4)
        rho0 = coherent_state(model.space, 1, 0.1 + 0.05j)
    else:
        model = build_decay_model(FockSpace([ModeSpec(mass=0.3, width=0.6, cutoff=3),
                                             ModeSpec(Statistics.FERMION, mass=2.0, width=0.8)]))
        rho0 = DensityOperator(model.space, 0.25 * number_state(model.space, (2, 1)).matrix
                               + 0.75 * number_state(model.space, (3, 0)).matrix)
    ops = dense_decay_ops(model)
    want = np.array([[np.trace(rho0.matrix @ cj.conj().T @ ck) for ck in ops] for cj in ops])
    # G = V T V^dag, as mean_quadratic_trajectories forms it
    v = model.mixing_unitary if model.is_mixed else np.eye(model.space.n_modes)
    support = rho0.support()
    gram = np.einsum("jl,lm,km->jk", v, one_body_correlations(support, support.values(rho0.matrix)[None])[0], v.conj())
    assert np.max(np.abs(gram - want)) <= 1e-14


def test_pair_amplitudes_refuse_a_non_finite_mass_difference():
    # m t = 1e308 is finite for each mode, (m_1 - m_2) t = -2e308 is not
    model = build_decay_model(FockSpace([ModeSpec(mass=-1e300, width=1e-12, cutoff=1),
                                         ModeSpec(mass=1e300, width=1e-12, cutoff=1)]))
    rho0 = number_state(model.space, (1, 0))
    heisenberg._grid_amplitudes(model, [1e8])
    omega = quadratic_omegas(2)["N"]
    with pytest.raises(InvariantViolation, match="mass difference"):
        mean_quadratic_trajectories(model, rho0, {"N": omega}, [0.0, 1e8])
    with pytest.raises(InvariantViolation, match="mass difference"):
        evolve_quadratic(model, omega, 1e8)


def _closed_forms():
    """Every public closed form at time t, on a width-1 boson pair."""
    space = FockSpace([ModeSpec(width=1.0, cutoff=2), ModeSpec(mass=0.5, width=1.0, cutoff=2)])
    model = build_decay_model(space)
    rho0 = number_state(space, (1, 0))
    omega = quadratic_omegas(2)["S"]
    return {
        "evolve_ladder": lambda t: evolve_ladder(model, t, 1),
        "evolve_quadratic": lambda t: evolve_quadratic(model, omega, t),
        "evolve_projector": lambda t: evolve_projector(model, t, (1, 0)),
        "mean_quadratic_trajectories": lambda t: mean_quadratic_trajectories(
            model, rho0, quadratic_omegas(2), [0.5, t]),
    }


@pytest.mark.parametrize("name", sorted(_closed_forms()))
def test_closed_forms_refuse_a_negative_or_nan_time(name):
    # exp(+Gamma t / 2) would grow: e ~ 2.718 at t = -1 for a width-1 boson
    form = _closed_forms()[name]
    form(0.0)
    for t in (-1.0, -1e-300, math.nan):
        with pytest.raises(ValueError, match="time must be >= 0"):
            form(t)


def test_grid_amplitudes_equal_the_per_point_ones_bit_for_bit():
    # widths 2 and 1e-3: 0.5 * 2 * t passes LARGE_EXPONENT = 700 at t = 700, where mode 1
    # underflows to an exact zero while mode 2 still decays
    model = build_decay_model(FockSpace([ModeSpec(mass=0.7, width=2.0, cutoff=1),
                                         ModeSpec(mass=-3.1, width=1e-3, cutoff=1)]))
    times = np.concatenate([np.linspace(0.0, 10.0, 201), [699.9, 700.0, np.nextafter(700.0, 1e3), 701.0,
                                                          1e4, 1e300]])
    grid = heisenberg._grid_amplitudes(model, times)
    want = np.array([[_decay_amplitude(m, g, float(t)) for m, g in zip(model.masses, model.widths)]
                     for t in times])
    assert grid.shape == (len(times), 2)
    assert np.array_equal(grid.view(np.uint64), want.view(np.uint64))  # signed zeros too
    assert np.array_equal(np.ascontiguousarray(grid[-4:, 0]).view(np.uint64), np.zeros(8, dtype=np.uint64))
    assert grid[-4, 1] != 0
    assert heisenberg._grid_amplitudes(model, []).shape == (0, 2)
    for bad in ([0.5, -1.0], [math.nan]):
        with pytest.raises(ValueError, match="time must be >= 0"):
            heisenberg._grid_amplitudes(model, bad)
    # m t overflows while Gamma t / 2 stays below LARGE_EXPONENT
    huge = build_decay_model(FockSpace(ModeSpec(mass=1e300, width=1e-12, cutoff=1)))
    with pytest.raises(InvariantViolation, match="phase m t"):
        heisenberg._grid_amplitudes(huge, [0.0, 1e10])


def test_trajectories_share_one_pass_and_equal_each_omega_alone(rng):
    model = mixed_model(theta=0.8)
    rho0 = random_density_matrix(rng, model.space)
    omegas = quadratic_omegas(2, phi=0.4)
    times = np.linspace(0.0, 3.0, 13)
    got = mean_quadratic_trajectories(model, rho0, omegas, times)
    assert list(got) == list(omegas)
    for name, omega in omegas.items():
        assert np.array_equal(got[name], mean_quadratic_trajectories(model, rho0, {name: omega}, times)[name])
