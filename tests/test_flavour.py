import math

import numpy as np
import pytest
from conftest import kraus_reference, loss_patterns
from hypothesis import given, settings
from hypothesis import strategies as st

from fockdecay import (
    DecayModel,
    FockSpace,
    ModeSpec,
    MixingParams,
    Statistics,
    apply_channel,
    build_annihilator,
    build_creation,
    build_decay_model,
    build_flavour_observables,
    build_generator,
    build_kraus,
    build_mixed_model,
    evolve_state,
    expectation,
    integrate,
    mean_quadratic_trajectories,
    mixing_matrix,
    number_state,
    trace_distance,
)
from fockdecay.flavour import quadratic_omegas

MASSES = (0.0, 5.0)
WIDTHS = (0.5, 1.5)


def two_boson_space(cutoff=4, masses=MASSES, widths=WIDTHS):
    """The mixed pair's space: totals up to the common cutoff, where mixing is exact."""
    return FockSpace([
        ModeSpec(mass=masses[0], width=widths[0], cutoff=cutoff),
        ModeSpec(mass=masses[1], width=widths[1], cutoff=cutoff),
    ], total=cutoff)


angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(theta=angles, phi=angles, psi=angles, chi=angles)
def test_mixing_matrix_is_unitary(theta, phi, psi, chi):
    V = mixing_matrix(MixingParams(theta=theta, phi=phi, psi=psi, chi=chi))
    assert np.max(np.abs(V @ V.conj().T - np.eye(2))) <= 1e-14


def test_angles_reduced_mod_two_pi():
    params = MixingParams(theta=-math.pi, phi=7.0, psi=2 * math.pi, chi=0.0)
    assert 0.0 <= params.theta < 2 * math.pi
    assert params.theta == pytest.approx(math.pi)
    assert params.psi == pytest.approx(0.0, abs=1e-12)


def test_maximal_mixing_angle_tuple():
    # theta=pi/2, phi=2pi, psi=pi, chi=3pi/2 reproduces the symmetric and
    # antisymmetric raising combinations.  The half-angle phases are only
    # 4pi-periodic, so this relies on the canonical mod-2pi reduction; the
    # unreduced angles give the same operators times a global -1, which is
    # a per-mode phase with no observable content.
    space = two_boson_space()
    a1d = build_creation(space, 1).entries
    a2d = build_creation(space, 2).entries
    sym = (a1d + a2d) / math.sqrt(2)
    anti = (a1d - a2d) / math.sqrt(2)

    stated = build_mixed_model(
        space,
        MixingParams(theta=math.pi / 2, phi=2 * math.pi, psi=math.pi, chi=3 * math.pi / 2),
    )
    c1d = stated.decay_ops[0].entries.conj().T
    c2d = stated.decay_ops[1].entries.conj().T
    assert np.max(np.abs(c1d - sym)) <= 1e-14
    assert np.max(np.abs(c2d - anti)) <= 1e-14


def test_mixed_operators_keep_ccr_on_safe_block():
    space = two_boson_space(cutoff=4)
    model = build_mixed_model(space, MixingParams(theta=0.8, phi=0.3, psi=1.2, chi=0.5))
    # c_k^dag leaves the space from its top total, so the CCR hold on totals <= c - 1
    safe = np.flatnonzero(space.total_occupation <= 3)
    eye = np.eye(space.dimension)
    for j, cj in enumerate(model.decay_ops):
        for k, ck in enumerate(model.decay_ops):
            comm = cj.entries @ ck.entries.conj().T - ck.entries.conj().T @ cj.entries
            want = eye if j == k else np.zeros_like(eye)
            assert np.max(np.abs((comm - want)[np.ix_(safe, safe)])) <= 1e-12


@pytest.mark.parametrize("total", range(6))
def test_sector_space_compresses_the_mixed_model(total):
    # S = {n_1 + n_2 <= total} is invariant, so every operator a run uses
    # equals the product-space one, built from the V-rotated annihilators,
    # restricted to S
    params = MixingParams(theta=1.1, phi=0.7, psi=0.4, chi=0.3)
    product = FockSpace(two_boson_space(cutoff=5).modes)
    sector = FockSpace(product.modes, total=total)
    ix = [product.index_of(occ) for occ in sector.occupations]
    on_s = np.ix_(ix, ix)
    V = mixing_matrix(params)
    a_ops = [build_annihilator(product, j).entries for j in (1, 2)]
    c_big = [V[j, 0].conj() * a_ops[0] + V[j, 1].conj() * a_ops[1] for j in (0, 1)]
    m_big = sum((m - 0.5j * g) * c.conj().T @ c for c, m, g in zip(c_big, MASSES, WIDTHS))
    small = build_mixed_model(sector, params)
    for c, c_small in zip(c_big, small.decay_ops):
        assert np.max(np.abs(c[on_s] - c_small.entries)) <= 1e-14
    assert np.max(np.abs(m_big[on_s] - small.m_operator.entries)) <= 1e-14
    assert small.certificate_defect <= 1e-14
    obs_big = build_flavour_observables(product, params.phi)
    obs_small = build_flavour_observables(sector, params.phi)
    assert obs_small.keys() == quadratic_omegas(2).keys()
    for name, op in obs_small.items():
        assert np.max(np.abs(obs_big[name].entries[on_s] - op.entries)) <= 1e-14


def test_mixed_model_certificate_and_errors():
    space = two_boson_space()
    model = build_mixed_model(space, MixingParams(theta=1.0))
    assert model.certificate_defect <= 1e-12

    unequal = FockSpace([ModeSpec(cutoff=3), ModeSpec(cutoff=4)])
    with pytest.raises(ValueError):
        build_mixed_model(unequal, MixingParams(theta=1.0))
    three = FockSpace([ModeSpec(cutoff=2)] * 3)
    with pytest.raises(ValueError):
        build_mixed_model(three, MixingParams(theta=1.0))
    hybrid = FockSpace([ModeSpec(cutoff=1), ModeSpec(Statistics.FERMION)])
    with pytest.raises(ValueError):
        build_mixed_model(hybrid, MixingParams(theta=1.0))


def test_mixed_model_checks_its_mixing_unitary():
    space = two_boson_space()
    model = build_mixed_model(space, MixingParams(theta=0.7))
    nan = np.array(model.mixing_unitary)
    nan[0, 1] = np.nan
    for v in (1.001 * model.mixing_unitary, nan):
        with pytest.raises(ValueError, match="not unitary"):
            DecayModel(space, v)
    for v in (np.eye(3), np.eye(2)[:, :1]):
        with pytest.raises(ValueError, match="2x2"):
            DecayModel(space, v)
    # not numbers: decay operators in the place of V, and strings
    for v in ((build_annihilator(space, 1), build_annihilator(space, 2)), [["a", "b"], ["c", "d"]]):
        with pytest.raises(ValueError, match="mixing_unitary must be a numeric matrix"):
            DecayModel(space, v)
    fermions = FockSpace([ModeSpec(Statistics.FERMION, mass=0.0, width=0.5),
                          ModeSpec(Statistics.FERMION, mass=2.0, width=1.5)])
    for pair in (space, fermions):  # the pairs build_mixed_model builds pass
        params = MixingParams(theta=0.9, phi=0.2, psi=0.4, chi=0.3)
        model = build_mixed_model(pair, params)
        assert np.array_equal(model.mixing_unitary, mixing_matrix(params))
        with pytest.raises(ValueError, match="read-only"):
            model.mixing_unitary[0, 0] = 1.0


def test_flavour_observables_structure():
    space = two_boson_space(cutoff=3)
    obs = build_flavour_observables(space, phi=0.6)
    s_mat = obs["S"].entries
    i = space.index_of((2, 1))
    assert s_mat[i, i] == pytest.approx(1.0)
    for name in ("Qplus", "Qminus"):
        mat = obs[name].entries
        assert np.max(np.abs(mat - mat.conj().T)) <= 1e-15
    comm = obs["N"].entries @ s_mat - s_mat @ obs["N"].entries
    assert np.max(np.abs(comm)) == 0.0
    with pytest.raises(ValueError):
        build_flavour_observables(FockSpace(ModeSpec(cutoff=2)))


def test_theta_zero_factorizes_into_single_modes():
    cutoff = 4
    space = two_boson_space(cutoff=cutoff)
    model = build_mixed_model(space, MixingParams(theta=0.0))
    rho0 = number_state(space, (2, 1))
    t = 0.8
    evolved = evolve_state(model, rho0, [t])[0]

    singles = []
    for mass, width, n in zip(MASSES, WIDTHS, (2, 1)):
        sp = FockSpace(ModeSpec(mass=mass, width=width, cutoff=cutoff))
        m = build_decay_model(sp)
        singles.append(evolve_state(m, number_state(sp, (n,)), [t])[0].matrix)
    # the product-space reference restricted to S's indices
    ix = [n1 * (cutoff + 1) + n2 for n1, n2 in space.occupations]
    product = np.kron(singles[0], singles[1])[np.ix_(ix, ix)]
    assert trace_distance(evolved.matrix, product) <= 1e-10


def test_three_routes_agree_on_mean_values():
    space = two_boson_space()
    theta = 2.0
    model = build_mixed_model(space, MixingParams(theta=theta))
    rho0 = number_state(space, (2, 1))
    times = [0.5, 1.5]
    obs = build_flavour_observables(space, phi=0.0)
    means = mean_quadratic_trajectories(model, rho0, quadratic_omegas(2), times)
    heis_n, heis_s = means["N"], means["S"]
    gen = build_generator(model)
    ode_states = integrate(gen, rho0, times, 1e-3)
    for i, t in enumerate(times):
        kraus_state = apply_channel(build_kraus(model, t), rho0)
        values_n = [heis_n[i], expectation(kraus_state, obs["N"]),
                    float(np.real(np.trace(ode_states[i].matrix @ obs["N"].entries)))]
        values_s = [heis_s[i], expectation(kraus_state, obs["S"]),
                    float(np.real(np.trace(ode_states[i].matrix @ obs["S"].entries)))]
        assert max(values_n) - min(values_n) <= 1e-8
        assert max(values_s) - min(values_s) <= 1e-8


def test_oscillation_frequency_lands_on_fft_bin():
    space = two_boson_space()
    dm = MASSES[1] - MASSES[0]
    gbar = 0.5 * (WIDTHS[0] + WIDTHS[1])
    model = build_mixed_model(space, MixingParams(theta=math.pi / 2))
    rho0 = number_state(space, (2, 1))
    cycles, n_samples = 8, 256
    period = 2 * math.pi * cycles / dm
    times = np.arange(n_samples) * (period / n_samples)
    signal = mean_quadratic_trajectories(model, rho0, quadratic_omegas(2), times)["S"] * np.exp(gbar * times)
    spectrum = np.abs(np.fft.rfft(signal))
    peak = int(np.argmax(spectrum[1:])) + 1
    peak_freq = 2 * math.pi * peak / period
    assert abs(peak_freq - dm) <= 2 * math.pi / period


@pytest.mark.parametrize("space", [
    *(two_boson_space(cutoff=c, masses=(0.0, 2.0)) for c in (1, 2, 4, 7)),
    FockSpace([ModeSpec(Statistics.FERMION, mass=0.0, width=0.5),
               ModeSpec(Statistics.FERMION, mass=2.0, width=1.5)]),
], ids=["bosons-c1", "bosons-c2", "bosons-c4", "bosons-c7", "fermions"])
def test_mixed_model_is_exact_on_its_whole_space(space):
    # every column of the certificate and every entry of the Gram count
    model = build_mixed_model(space, MixingParams(theta=1.1, phi=0.7, psi=0.4, chi=0.3))
    m_mat = model.m_operator.entries
    mus = [m - 0.5j * g for m, g in zip(model.masses, model.widths)]
    defect = max(float(np.max(np.abs(m_mat @ c.entries - c.entries @ m_mat + mu * c.entries)))
                 for c, mu in zip(model.decay_ops, mus))
    assert defect / max(1.0, *map(abs, mus)) <= 1e-12
    assert model.certificate_defect <= 1e-12
    eye = np.eye(space.dimension)
    for t in (0.3, 1.7):
        ks = build_kraus(model, t)
        gram = sum(E.conj().T @ E for E in kraus_reference(model, t, loss_patterns(space)))
        assert np.linalg.norm(gram - eye, 2) <= 1e-12
        assert ks.completeness_defect <= 1e-12


def test_fermionic_mixing_is_supported():
    space = FockSpace([ModeSpec(Statistics.FERMION, mass=0.0, width=0.5),
                       ModeSpec(Statistics.FERMION, mass=2.0, width=1.5)])
    model = build_mixed_model(space, MixingParams(theta=0.9, phi=0.2))
    assert model.certificate_defect <= 1e-12
    for t in (0.4, 1.1):
        ks = build_kraus(model, t)
        assert ks.completeness_defect <= 1e-10
        out = apply_channel(ks, number_state(space, (1, 1)))
        assert abs(np.trace(out.matrix) - 1.0) <= 1e-12
