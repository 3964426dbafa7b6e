import math
from dataclasses import FrozenInstanceError, fields
from functools import partial

import numpy as np
import pytest
from conftest import random_density_matrix, random_hermitian

import fockdecay.channel as channel
import fockdecay.master as master
from fockdecay import (
    DensityOperator,
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
    evolve_state,
    integrate,
    number_state,
    trace_distance,
    vacuum_state,
)
from fockdecay.config import STEP_MATCH_TOL
from fockdecay.fock import Support
from fockdecay.flavour import quadratic_omegas


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
    """The pattern closure of ``master._reachable`` as numpy boolean products of dense matrices."""
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


def steps_for_reference(times, step):
    """The step counts of a grid checked one time at a time, in order."""
    out = []
    for t in map(float, times):
        ratio = t / step
        if not math.isfinite(ratio):
            raise master.StepError(f"time {t!r} over step {step!r} is not a finite step count")
        n = int(round(ratio))
        if abs(n * step - t) > STEP_MATCH_TOL * max(1.0, abs(t)):
            raise master.StepError(f"time {t!r} is not a multiple of step {step!r}; "
                                   "interpolation is not supported")
        out.append(n)
    return out


@pytest.mark.parametrize("times, step", [
    (np.linspace(0.0, 8.0, 161), 8.0 / 160 / 50),
    ([0.0, 0.125, 0.375, 2.5, 1e16], 0.125),  # 2.5 / 0.125 and 1e16 / 0.125 round exactly
    ([0.0, 5e-4, 1.0], 1e-3),  # half a step rounds to even, then misses
    ([0.0, 0.75, 1e308], 0.3),  # the first miss is named, not the later overflow
    ([0.0, 1e308, 0.75], 0.3),  # t / step overflows first
    ([0.0, 1e20], 0.3),  # 3.3e20 steps: a Python int past the int64 range
    ([], 0.1),
])
def test_steps_for_checks_a_grid_as_the_per_time_loop_does(times, step):
    try:
        want = steps_for_reference(times, step)
    except master.StepError as exc:
        with pytest.raises(master.StepError) as got:
            master.steps_for(times, step)
        assert str(got.value) == str(exc) and "np." not in str(exc)
    else:
        got = master.steps_for(times, step)
        assert got == want and all(type(n) is int for n in got)


def test_integrate_counts_the_steps_of_its_grid_once(monkeypatch):
    model = single_model(cutoff=2)
    calls = []
    counted = master.steps_for
    monkeypatch.setattr(master, "steps_for", lambda times, step: calls.append(step) or counted(times, step))
    integrate(build_generator(model), number_state(model.space, (2,)), np.linspace(0, 1, 21), 1e-2)
    assert calls == [1e-2]


@pytest.mark.parametrize("block_points", [None, 2], ids=["one-block", "two-point-blocks"])
@pytest.mark.parametrize("spoil, message", [
    (lambda v: v + 1e-6j, "RK4 state lost Hermiticity: defect 2.000e-06 at t=0.3"),
    (lambda v: -1e-3, "RK4 state eigenvalue -1.000e-03 below -1e-08 at t=0.3"),
], ids=["hermiticity", "eigenvalue"])
def test_integrate_names_the_earliest_state_that_fails_a_check(spoil, message, block_points, monkeypatch):
    model = single_model(cutoff=3)
    if block_points is not None:
        monkeypatch.setattr(channel, "STACK_BYTES", 16 * model.space.dimension ** 2 * block_points)
        assert channel._stack_points(model.space.dimension) == block_points
    sample = master._sample

    def spoiled(p, vec, targets, size):
        start = 0
        for out in sample(p, vec, targets, size):
            for i in (3, 5):  # the vacuum population of the states at t = 0.3 and 0.5
                if start <= i < start + len(out):
                    out[i - start, 0] = spoil(out[i - start, 0])
            start += len(out)
            yield out

    monkeypatch.setattr(master, "_sample", spoiled)
    times = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    with pytest.raises(InvariantViolation) as err:
        integrate(build_generator(model), number_state(model.space, (3,)), times, 0.01)
    assert str(err.value) == message


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
    rows, cols = master._reachable(gen, rho0.matrix)
    live = np.zeros_like(rho0.matrix, dtype=bool)
    live[rows, cols] = True
    assert np.array_equal(live, reachable_reference(gen, rho0.matrix))
    assert np.array_equal(np.nonzero(live), (rows, cols))  # in row-major order
    delta = tot[rows] - tot[cols]
    for dn in np.unique(delta):
        r, c = rows[delta == dn], cols[delta == dn]
        block = master._block_generator(gen, Support(model.space, rows, cols), r, c)
        for i in range(r.size):
            unit = np.zeros_like(rho0.matrix)
            unit[r[i], c[i]] = 1.0
            assert np.max(np.abs(block[:, i] - gen(unit)[r, c])) <= 1e-15


def _multimode_model():
    """The shape of the multimode workload: two bosons at cutoff 3 and two fermions, unmixed."""
    fermions = [ModeSpec(Statistics.FERMION, mass=m, width=g) for m, g in ((2.4, 0.6), (3.3, 1.0))]
    space = FockSpace([ModeSpec(mass=0.2, width=0.5, cutoff=3), ModeSpec(mass=1.6, width=0.8, cutoff=3),
                       *fermions])
    rho0 = 0.625 * number_state(space, (2, 1, 1, 0)).matrix + 0.375 * number_state(space, (1, 2, 0, 1)).matrix
    return build_decay_model(space), rho0


def _mixed_pair_model():
    space = FockSpace([ModeSpec(width=0.5, cutoff=4), ModeSpec(mass=5.0, width=1.5, cutoff=4)], total=4)
    model = build_mixed_model(space, MixingParams(theta=0.7, phi=0.3, psi=1.1, chi=0.2))
    return model, number_state(space, (2, 1)).matrix


@pytest.mark.parametrize("case", [_mixed_pair_model, _multimode_model], ids=["mixed pair", "multimode"])
def test_block_generator_is_the_dense_gather_of_w_and_the_jumps(case):
    # the old gather from the held -iM and sqrt(Gamma_j) c_j, which the generator no longer keeps
    model, rho0 = case()
    gen = build_generator(model)
    w = -1j * model.m_operator.entries
    jumps = [math.sqrt(g) * c.entries for g, c in zip(model.widths, model.decay_ops)]
    tot = model.space.total_occupation
    rows, cols = master._reachable(gen, rho0)
    delta = tot[rows] - tot[cols]
    for dn in set(delta.tolist()):
        r, c = rows[delta == dn], cols[delta == dn]
        rr, cc = np.ix_(r, r), np.ix_(c, c)
        want = w[rr] * (c[:, None] == c) + np.conj(w[cc]) * (r[:, None] == r)
        for L in jumps:
            want += np.conj(L[cc]) * L[rr]
        assert np.array_equal(master._block_generator(gen, Support(model.space, rows, cols), r, c), want)


@pytest.mark.parametrize("case", [_mixed_pair_model, _multimode_model], ids=["mixed pair", "multimode"])
def test_the_state_routes_form_no_dense_m_or_c_j(case):
    # both read the model's terms; only the tests' dense reference forms M and the c_j
    model, rho0 = case()
    state = DensityOperator(model.space, rho0)
    integrate(build_generator(model), state, [0.0, 0.05, 0.1], 0.001)
    evolve_state(model, state, [0.0, 0.05, 0.1])
    assert "m_operator" not in vars(model)
    assert "decay_ops" not in vars(model)


def test_generator_holds_nothing_but_its_model():
    model, rho0 = _mixed_pair_model()
    gen = build_generator(model)
    integrate(gen, DensityOperator(model.space, rho0), [0.0, 0.1, 0.2], 0.001)
    gen(rho0)
    assert vars(gen) == {"model": model}


def test_generator_is_derived_from_its_model_alone():
    # a generator that leaks between Delta N blocks can no longer be represented:
    # W and the L_j come from a DecayModel, which checks the structure when built
    model = single_model(cutoff=2, mass=0.7, width=1.3)
    gen = build_generator(model)
    assert [f.name for f in fields(GeneratorAction) if f.init] == ["model"]
    assert np.array_equal(gen.w_matrix, -1j * model.m_operator.entries)
    (jump,) = gen.jump_ops
    assert np.array_equal(jump, math.sqrt(1.3) * model.decay_ops[0].entries)
    with pytest.raises(TypeError):
        GeneratorAction(model=model, w_matrix=gen.w_matrix)
    with pytest.raises(TypeError, match="DecayModel"):
        GeneratorAction(object())
    for name in ("w_matrix", "jump_ops"):
        with pytest.raises(FrozenInstanceError):
            setattr(gen, name, None)


@pytest.mark.parametrize("mass, match", [(1e200, "step matrix"), (1e20, "not finite on the grid")])
@pytest.mark.filterwarnings("error")  # the overflow is reported, not warned about
def test_integrate_refuses_an_unstable_step(mass, match):
    # h M ~ 1e197 overflows the step matrix itself; h M ~ 1e17 overflows only its powers
    space = FockSpace([ModeSpec(mass=mass, width=0.5, cutoff=3), ModeSpec(mass=5.0, width=1.5, cutoff=3)],
                      total=3)
    model = build_mixed_model(space, MixingParams(theta=0.7))
    with pytest.raises(InvariantViolation, match=match):
        integrate(build_generator(model), number_state(space, (2, 1)), [0.0, 0.5], 1e-3)


def test_a_reader_gets_the_wrappers_states_stack_by_stack(monkeypatch):
    space = FockSpace([ModeSpec(width=0.5, cutoff=3), ModeSpec(mass=2.0, width=1.5, cutoff=3)], total=3)
    model = build_mixed_model(space, MixingParams(theta=0.9, phi=0.4))
    rho0 = number_state(space, (2, 1))
    monkeypatch.setattr(channel, "STACK_BYTES", 16 * space.dimension ** 2 * 3)
    times, step = np.arange(8) * 0.25, 0.25 / 50
    read = partial(channel.read_series, omegas={"N": np.eye(2), "Qplus": quadratic_omegas(2, 0.4)["Qplus"]},
                   diagonal=True)
    keep = lambda support, stacks, basis: (support, list(stacks), basis)  # noqa: E731
    for (support, stacks, basis), states in [
        (evolve_state(model, rho0, times, keep), evolve_state(model, rho0, times)),
        (integrate(build_generator(model), rho0, times, step, keep),
         integrate(build_generator(model), rho0, times, step)),
    ]:
        assert [len(s) for s in stacks] == [3, 3, 2]
        dense = support.scatter(np.concatenate(stacks))
        assert np.array_equal(dense if basis is None else channel._from_mode_basis(basis, dense),
                              [s.matrix for s in states])
        # the grid's series are those of the reader applied to each state alone, bit for bit
        values, diagonals = read(support, iter(stacks), basis)
        alone = [read(support, iter([state[None]]), basis) for stack in stacks for state in stack]
        for name in values:
            assert np.array_equal(values[name], [v[name][0] for v, _ in alone])
        assert np.array_equal(diagonals, np.concatenate([d for _, d in alone]))
    # a reader that stops early leaves the rest of the grid unevaluated
    monkeypatch.setattr(master, "_check_states", lambda *args: seen.append(len(args[1])))
    seen = []
    first = integrate(build_generator(model), rho0, times, step, lambda support, stacks, basis: next(stacks))
    assert len(first) == 3 and seen == [3]
