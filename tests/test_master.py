import math

import numpy as np
import pytest
from conftest import random_density_matrix, random_hermitian

import fockdecay.master as master
from fockdecay import (
    FockSpace,
    GeneratorAction,
    InvariantViolation,
    ModeSpec,
    MixingParams,
    Statistics,
    build_decay_model,
    build_generator,
    build_kraus,
    apply_channel,
    build_mixed_model,
    integrate,
    number_state,
    trace_distance,
    vacuum_state,
)


def single_model(cutoff=6, mass=0.0, width=1.0):
    return build_decay_model(FockSpace(ModeSpec(mass=mass, width=width, cutoff=cutoff)))


def rk4_reference(gen, rho0, times, step):
    """The k1..k4 matrix loop on the full product space, with no restriction."""
    rho, done, out = np.array(rho0.matrix, dtype=complex), 0, []
    for t in times:
        n = int(round(t / step))
        for _ in range(n - done):
            k1 = gen(rho)
            k2 = gen(rho + 0.5 * step * k1)
            k3 = gen(rho + 0.5 * step * k2)
            k4 = gen(rho + step * k3)
            rho = rho + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        done = n
        out.append(rho)
    return out


def reachable_reference(gen, rho):
    """The pattern closure of ``master._reachable`` as numpy boolean products."""
    w = gen.w_matrix != 0
    jumps = [L != 0 for L in gen.jump_ops]
    live = rho != 0
    while True:
        grown = live | (w @ live) | (live @ w.T)
        for L in jumps:
            grown |= L @ live @ L.T
        if np.array_equal(grown, live):
            return live
        live = grown


def test_generator_vacuum_is_stationary():
    model = single_model(cutoff=3)
    gen = build_generator(model)
    rho = vacuum_state(model.space).matrix
    assert np.max(np.abs(gen(rho))) == 0.0


def test_generator_one_particle_rates():
    model = single_model(cutoff=3, mass=1.7)
    gen = build_generator(model)
    rho = number_state(model.space, (1,)).matrix
    dot = gen(rho)
    assert dot[1, 1] == pytest.approx(-1.0, abs=1e-14)
    assert dot[0, 0] == pytest.approx(1.0, abs=1e-14)
    off = dot - np.diag(np.diag(dot))
    assert np.max(np.abs(off)) <= 1e-14


def test_generator_coherence_coefficient():
    # d/dt rho_{10} = -(i m + Gamma/2) rho_{10}
    m, gamma = 0.9, 1.0
    model = single_model(cutoff=3, mass=m, width=gamma)
    gen = build_generator(model)
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 0] = 1.0
    dot = gen(rho)
    assert dot[1, 0] == pytest.approx(-(1j * m + gamma / 2), abs=1e-14)


def test_generator_matrix_element_system():
    # linear system for the matrix elements, checked coefficient by coefficient
    m, gamma, cutoff = 0.6, 1.3, 6
    model = single_model(cutoff=cutoff, mass=m, width=gamma)
    gen = build_generator(model)
    for k in range(6):
        for l in range(6):
            unit = np.zeros((cutoff + 1,) * 2, dtype=complex)
            unit[k, l] = 1.0
            dot = gen(unit)
            expected = np.zeros_like(unit)
            expected[k, l] = -1j * (k - l) * m - 0.5 * (k + l) * gamma
            if k >= 1 and l >= 1:
                expected[k - 1, l - 1] = math.sqrt(k * l) * gamma
            assert np.max(np.abs(dot - expected)) <= 1e-13


def test_generator_traceless_and_hermiticity_preserving(rng):
    model = single_model(cutoff=5, mass=0.8)
    gen = build_generator(model)
    for _ in range(5):
        omega = random_hermitian(rng, model.space).entries
        dot = gen(omega)
        assert abs(np.trace(dot)) <= 1e-12 * max(1.0, float(np.max(np.abs(omega))))
        assert np.max(np.abs(dot - dot.conj().T)) <= 1e-12


def test_generator_dimension_mismatch():
    gen = build_generator(single_model(cutoff=2))
    with pytest.raises(ValueError):
        gen(np.eye(5, dtype=complex))


def test_integrate_zero_steps_returns_input():
    model = single_model(cutoff=2)
    gen = build_generator(model)
    rho = number_state(model.space, (1,))
    out = integrate(gen, rho, [0.0], 1e-3)
    assert out == [rho]


def test_integrate_one_particle_decay():
    model = single_model(cutoff=1)
    gen = build_generator(model)
    out = integrate(gen, number_state(model.space, (1,)), [1.0], 1e-3)[0]
    expected = np.diag([1 - math.exp(-1.0), math.exp(-1.0)])
    assert np.max(np.abs(out.matrix - expected)) <= 1e-9


def test_integrate_validates_inputs():
    model = single_model(cutoff=2)
    gen = build_generator(model)
    rho = number_state(model.space, (1,))
    with pytest.raises(ValueError):
        integrate(gen, rho, [1.0], 0.0)
    with pytest.raises(ValueError):
        integrate(gen, rho, [0.00037], 1e-3)  # not a step multiple
    with pytest.raises(ValueError):
        integrate(gen, rho, [1.0, 0.5], 1e-3)


def test_trace_drift_budget():
    model = single_model(cutoff=5)
    gen = build_generator(model)
    rho = number_state(model.space, (4,))
    traj = integrate(gen, rho, [1.0, 3.0, 5.0], 1e-3)
    for state, t in zip(traj, [1.0, 3.0, 5.0]):
        drift = abs(np.trace(state.matrix) - 1.0)
        assert drift <= 1e-10 * t


def test_rk4_matches_kraus_on_mixed_model(rng):
    space = FockSpace([ModeSpec(width=0.5, cutoff=4), ModeSpec(mass=2.0, width=1.5, cutoff=4)], total=4)
    model = build_mixed_model(space, MixingParams(theta=0.9, phi=0.4, psi=1.1, chi=0.2))
    gen = build_generator(model)
    t = 0.5
    for _ in range(3):
        rho = random_density_matrix(rng, space, max_total=4)
        ode = integrate(gen, rho, [t], 1e-3)[0]
        kraus = apply_channel(build_kraus(model, t), rho)
        assert trace_distance(ode, kraus) <= 1e-8


def _mixed_dense_case(rng):
    space = FockSpace([ModeSpec(width=0.5, cutoff=3), ModeSpec(mass=2.0, width=1.5, cutoff=3)], total=3)
    model = build_mixed_model(space, MixingParams(theta=0.9, phi=0.4, psi=1.1, chi=0.2))
    rho0 = random_density_matrix(rng, space, max_total=3)
    tot = space.total_occupation
    rows, cols = np.nonzero(rho0.matrix)
    assert set(tot[rows] - tot[cols]) == set(range(-3, 4))  # every Delta N block is occupied
    return model, rho0


def _boson_fermion_case(rng):
    space = FockSpace([ModeSpec(mass=0.7, width=0.8, cutoff=3),
                       ModeSpec(Statistics.FERMION, mass=1.9, width=1.2)])
    return build_decay_model(space), random_density_matrix(rng, space)


def _oscillation_theta90_case(rng):
    space = FockSpace([ModeSpec(width=0.5, cutoff=5), ModeSpec(mass=5.0, width=1.5, cutoff=5)], total=5)
    mixing = MixingParams(theta=math.pi / 2, phi=2 * math.pi, psi=math.pi, chi=1.5 * math.pi)
    model = build_mixed_model(space, mixing)
    return model, number_state(space, (2, 1))


@pytest.mark.parametrize("case", [_mixed_dense_case, _boson_fermion_case, _oscillation_theta90_case])
def test_integrate_matches_full_space_loop(rng, case):
    model, rho0 = case(rng)
    gen = build_generator(model)
    step = 0.05 / 75
    times = [0.0, 0.05, 0.1, 0.3, 0.4]
    got = integrate(gen, rho0, times, step)
    for state, ref in zip(got, rk4_reference(gen, rho0, times, step)):
        assert np.max(np.abs(state.matrix - ref)) <= 1e-12

    # each gathered block matrix is the generator's image of the basis matrices E_rc
    tot = model.space.total_occupation
    live = master._reachable(gen, rho0.matrix)
    assert np.array_equal(live, reachable_reference(gen, rho0.matrix))
    rows, cols = np.nonzero(live)
    delta = tot[rows] - tot[cols]
    for dn in np.unique(delta):
        r, c = rows[delta == dn], cols[delta == dn]
        block = master._block_generator(gen, r, c)
        for i in range(r.size):
            unit = np.zeros_like(rho0.matrix)
            unit[r[i], c[i]] = 1.0
            assert np.max(np.abs(block[:, i] - gen(unit)[r, c])) <= 1e-15


def test_integrate_refuses_generator_that_leaks_between_blocks():
    model = single_model(cutoff=2)
    gen = build_generator(model)
    for entry, occupation in [
        ((None, 2, 1), 1),  # W couples total occupation 1 to 2
        ((0, 0, 2), 2),  # L lowers the total by 2 where it lowers it by 1 elsewhere
        ((None, 2, 1), 0),  # the vacuum never reaches the leaking entry: refused all the same
    ]:
        w, jumps = np.array(gen.w_matrix), [np.array(L) for L in gen.jump_ops]
        j, a, b = entry
        (w if j is None else jumps[j])[a, b] = 0.1
        leaky = GeneratorAction(model=model, w_matrix=w, jump_ops=tuple(jumps))
        with pytest.raises(InvariantViolation, match="Delta N"):
            integrate(leaky, number_state(model.space, (occupation,)), [0.0, 0.5], 1e-3)


@pytest.mark.parametrize("mass, match", [(1e200, "step matrix"), (1e20, "not finite on the grid")])
@pytest.mark.filterwarnings("error")  # the overflow is reported, not warned about
def test_integrate_refuses_an_unstable_step(mass, match):
    # h M ~ 1e197 overflows the step matrix itself; h M ~ 1e17 overflows only its powers
    space = FockSpace([ModeSpec(mass=mass, width=0.5, cutoff=3), ModeSpec(mass=5.0, width=1.5, cutoff=3)],
                      total=3)
    model = build_mixed_model(space, MixingParams(theta=0.7))
    with pytest.raises(InvariantViolation, match=match):
        integrate(build_generator(model), number_state(space, (2, 1)), [0.0, 0.5], 1e-3)
