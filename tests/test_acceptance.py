"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them).
"""
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import random_density_matrix, random_hermitian

from fockdecay import (
    FockSpace,
    ModeSpec,
    MixingParams,
    Statistics,
    apply_channel,
    apply_channel_matrix,
    build_decay_model,
    build_flavour_observables,
    build_generator,
    build_kraus,
    build_mixed_model,
    build_total_number,
    coherent_state,
    evolve_number,
    evolve_observable,
    evolve_observable_matrix,
    evolve_state,
    evolve_strangeness,
    expectation,
    integrate,
    mean_strangeness_trajectory,
    number_state,
    occupation_distribution,
    parse_config,
    poisson_mixture,
    run_scenario,
    trace_distance,
    vacuum_state,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

MASSES = (0.0, 5.0)
WIDTHS = (0.5, 1.5)


def _report(num, name, ok, detail=""):
    print(f"[acceptance] criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}): {detail}"


def single_space(cutoff, mass=0.0, width=1.0):
    return FockSpace(ModeSpec(mass=mass, width=width, cutoff=cutoff))


def mixed_two_flavour(theta, phi=0.0, psi=0.0, chi=0.0, cutoff=4,
                      masses=MASSES, widths=WIDTHS, total=None):
    space = FockSpace([ModeSpec(mass=masses[0], width=widths[0], cutoff=cutoff),
                       ModeSpec(mass=masses[1], width=widths[1], cutoff=cutoff)],
                      total=cutoff if total is None else total)
    return build_mixed_model(space, MixingParams(theta=theta, phi=phi, psi=psi, chi=chi))


def test_criterion_01_exponential_decay_law():
    times = np.linspace(0.0, 5.0, 51)
    worst_kraus = worst_ode = 0.0
    for n in (1, 2, 5):
        space = single_space(cutoff=n)
        model = build_decay_model(space)
        rho = number_state(space, (n,))
        n_op = build_total_number(space)
        for state, t in zip(evolve_state(model, rho, times), times):
            worst_kraus = max(worst_kraus, abs(expectation(state, n_op) - n * math.exp(-t)))
        gen = build_generator(model)
        for state, t in zip(integrate(gen, rho, times, 1e-3), times):
            got = float(np.real(np.trace(state.matrix @ n_op.entries)))
            worst_ode = max(worst_ode, abs(got - n * math.exp(-t)))
    _report(1, "exponential decay law", worst_kraus <= 1e-12 and worst_ode <= 1e-8,
            f"kraus dev {worst_kraus:.2e} (<=1e-12), rk4 dev {worst_ode:.2e} (<=1e-8)")


def test_criterion_02_binomial_occupation_law():
    n = 4
    space = single_space(cutoff=n)
    model = build_decay_model(space)
    worst = 0.0
    for t in (0.1, math.log(2.0), 3.0):
        dist = occupation_distribution(apply_channel(build_kraus(model, t), number_state(space, (n,))))
        p = math.exp(-t)
        for k in range(n + 1):
            want = math.comb(n, k) * p**k * (1 - p) ** (n - k)
            worst = max(worst, abs(dist[(k,)] - want))
    _report(2, "binomial occupation law", worst <= 1e-12, f"max dev {worst:.2e} (<=1e-12)")


def test_criterion_03_poisson_law():
    space = single_space(cutoff=16)
    model = build_decay_model(space)
    alpha = 1.2
    nbar = alpha**2
    coh = coherent_state(space, 1, alpha)
    ok_tail = coh.tail_weight < 1e-10
    t = 1.0
    ks = build_kraus(model, t)
    dist_coh = occupation_distribution(apply_channel(ks, coh))
    lam = nbar * math.exp(-t)
    worst_poisson = max(
        abs(dist_coh[(k,)] - math.exp(-lam) * lam**k / math.factorial(k)) for k in range(17)
    )
    dist_mix = occupation_distribution(apply_channel(ks, poisson_mixture(space, 1, nbar)))
    worst_agree = max(abs(dist_coh[(k,)] - dist_mix[(k,)]) for k in range(17))
    _report(3, "poisson occupation law", ok_tail and worst_poisson <= 1e-9 and worst_agree <= 1e-12,
            f"tail {coh.tail_weight:.2e}, poisson dev {worst_poisson:.2e} (<=1e-9), "
            f"mixture dev {worst_agree:.2e} (<=1e-12)")


def test_criterion_04_kraus_completeness():
    models = [
        build_decay_model(single_space(cutoff=8)),
        build_decay_model(FockSpace([ModeSpec(width=0.5, cutoff=3),
                                     ModeSpec(mass=2.0, width=1.5, cutoff=3)])),
        mixed_two_flavour(theta=1.1, phi=0.4, psi=0.2, chi=0.7),
    ]
    worst = 0.0
    for model in models:
        gmin = min(g for g in model.widths if g > 0)
        for t in np.linspace(0.0, 10.0 / gmin, 20):
            worst = max(worst, build_kraus(model, float(t)).completeness_defect)
    _report(4, "kraus completeness", worst <= 1e-10, f"max defect {worst:.2e} (<=1e-10)")


def test_criterion_05_semigroup_property(rng):
    space = single_space(cutoff=5, mass=0.8)
    model = build_decay_model(space)
    worst = 0.0
    for _ in range(50):
        t1, t2 = rng.uniform(0.0, 2.5, size=2)
        rho = random_density_matrix(rng, space)
        composed = apply_channel(build_kraus(model, float(t2)),
                                 apply_channel(build_kraus(model, float(t1)), rho))
        direct = apply_channel(build_kraus(model, float(t1 + t2)), rho)
        worst = max(worst, trace_distance(composed, direct))
    _report(5, "semigroup property", worst <= 1e-10, f"max trace distance {worst:.2e} (<=1e-10)")


def test_criterion_06_duality(rng):
    space = single_space(cutoff=5, mass=0.6)
    model = build_decay_model(space)
    worst = 0.0
    for t in (0.2, 1.0, 3.0):
        ks = build_kraus(model, t)
        for _ in range(34):
            rho = random_density_matrix(rng, space)
            omega = random_hermitian(rng, space)
            lhs = complex(np.trace(apply_channel_matrix(ks, rho.matrix) @ omega.entries))
            rhs = complex(np.trace(rho.matrix @ evolve_observable(ks, omega).entries))
            worst = max(worst, abs(lhs - rhs))
    _report(6, "state/observable duality", worst <= 1e-10, f"max |lhs-rhs| {worst:.2e} (<=1e-10)")


def test_criterion_07_oracle_equivalence(rng):
    worst = 0.0
    for _ in range(10):
        widths = tuple(rng.uniform(0.3, 1.5, size=2))
        masses = tuple(rng.uniform(0.0, 3.0, size=2))
        model = mixed_two_flavour(
            theta=float(rng.uniform(0, 2 * math.pi)),
            phi=float(rng.uniform(0, 2 * math.pi)),
            psi=float(rng.uniform(0, 2 * math.pi)),
            chi=float(rng.uniform(0, 2 * math.pi)),
            cutoff=4, masses=masses, widths=widths,
        )
        rho = random_density_matrix(rng, model.space, max_total=4)
        t_max = 5.0 / max(widths)
        t = round(float(rng.uniform(0.3, t_max)), 3)  # multiple of the step
        ode = integrate(build_generator(model), rho, [t], 1e-3)[0]
        kraus = apply_channel(build_kraus(model, t), rho)
        worst = max(worst, trace_distance(ode, kraus))
    _report(7, "kraus vs rk4 oracle", worst <= 1e-8, f"max trace distance {worst:.2e} (<=1e-8)")


def test_criterion_08_matrix_element_law():
    m, gamma, cutoff = 0.3, 1.0, 6
    space = single_space(cutoff=cutoff, mass=m, width=gamma)
    model = build_decay_model(space)
    worst = 0.0
    for t in (0.1, 1.0, 10.0):
        ks = build_kraus(model, t)
        w = -math.expm1(-gamma * t)
        for n in range(5):
            for npr in range(5):
                unit = np.zeros((cutoff + 1,) * 2, dtype=complex)
                unit[n, npr] = 1.0
                got = apply_channel_matrix(ks, unit)
                want = np.zeros_like(unit)
                for k in range(min(n, npr) + 1):
                    want[n - k, npr - k] += (
                        math.sqrt(math.comb(n, k) * math.comb(npr, k))
                        * np.exp(-1j * m * (n - npr) * t)
                        * math.exp(-0.5 * gamma * (n + npr - 2 * k) * t)
                        * w**k
                    )
                worst = max(worst, float(np.max(np.abs(got - want))))
    _report(8, "matrix-element law", worst <= 1e-12, f"max coefficient dev {worst:.2e} (<=1e-12)")


def test_criterion_09_heisenberg_closed_forms():
    # single mode: evolved number observable is the number observable scaled
    model = build_decay_model(single_space(cutoff=6, mass=0.5))
    n_op = build_total_number(model.space)
    worst_n = 0.0
    for t in (0.0, 0.7, 2.1):
        want = math.exp(-t) * n_op.entries
        series = evolve_observable(build_kraus(model, t), n_op).entries
        closed = evolve_number(model, t).entries
        worst_n = max(worst_n, float(np.max(np.abs(series - want))),
                      float(np.max(np.abs(closed - want))))

    # mixed model at a generic angle: full operator identities for N and S
    theta, phi = 1.0, 0.7
    mixed = mixed_two_flavour(theta=theta, phi=phi, psi=0.3, chi=0.2)
    obs = build_flavour_observables(mixed.space, phi)
    ix = np.flatnonzero(mixed.space.total_occupation <= 4)
    g1, g2 = WIDTHS
    gbar, dm = 0.5 * (g1 + g2), MASSES[1] - MASSES[0]
    worst_mixed = 0.0
    for t in (0.4, 1.3):
        e1, e2 = math.exp(-g1 * t), math.exp(-g2 * t)
        half_sum, half_diff = 0.5 * (e1 + e2), 0.5 * (e1 - e2)
        ebar = math.exp(-gbar * t)
        want_n = half_sum * obs["N"].entries + half_diff * (
            math.cos(theta) * obs["S"].entries + math.sin(theta) * obs["Qplus"].entries)
        want_s = (half_diff * math.cos(theta) * obs["N"].entries
                  + ebar * math.sin(dm * t) * math.sin(theta) * obs["Qminus"].entries
                  + (half_sum * math.cos(theta) ** 2
                     + ebar * math.cos(dm * t) * math.sin(theta) ** 2) * obs["S"].entries
                  + (half_sum - ebar * math.cos(dm * t))
                  * math.sin(theta) * math.cos(theta) * obs["Qplus"].entries)
        got_n = evolve_number(mixed, t).entries
        got_s = evolve_strangeness(mixed, t).entries
        worst_mixed = max(worst_mixed,
                          float(np.max(np.abs((got_n - want_n)[np.ix_(ix, ix)]))),
                          float(np.max(np.abs((got_s - want_s)[np.ix_(ix, ix)]))))

    # extreme angles: decoupled and maximally mixed forms
    worst_extreme = 0.0
    t = 0.9
    e1, e2 = math.exp(-g1 * t), math.exp(-g2 * t)
    plain = mixed_two_flavour(theta=0.0)
    obs0 = build_flavour_observables(plain.space, 0.0)
    want_n = 0.5 * e1 * (obs0["N"].entries + obs0["S"].entries) + \
        0.5 * e2 * (obs0["N"].entries - obs0["S"].entries)
    want_s = 0.5 * e1 * (obs0["S"].entries + obs0["N"].entries) + \
        0.5 * e2 * (obs0["S"].entries - obs0["N"].entries)
    worst_extreme = max(
        worst_extreme,
        float(np.max(np.abs((evolve_number(plain, t).entries - want_n)[np.ix_(ix, ix)]))),
        float(np.max(np.abs((evolve_strangeness(plain, t).entries - want_s)[np.ix_(ix, ix)]))),
    )
    maximal = mixed_two_flavour(theta=math.pi / 2)
    obs9 = build_flavour_observables(maximal.space, 0.0)
    want_n = 0.5 * (e1 + e2) * obs9["N"].entries + 0.5 * (e1 - e2) * obs9["Qplus"].entries
    want_s = math.exp(-gbar * t) * (math.cos(dm * t) * obs9["S"].entries
                                    + math.sin(dm * t) * obs9["Qminus"].entries)
    worst_extreme = max(
        worst_extreme,
        float(np.max(np.abs((evolve_number(maximal, t).entries - want_n)[np.ix_(ix, ix)]))),
        float(np.max(np.abs((evolve_strangeness(maximal, t).entries - want_s)[np.ix_(ix, ix)]))),
    )
    ok = worst_n <= 1e-12 and worst_mixed <= 1e-10 and worst_extreme <= 1e-10
    _report(9, "heisenberg closed forms", ok,
            f"number dev {worst_n:.2e} (<=1e-12), identity dev {worst_mixed:.2e} (<=1e-10), "
            f"extreme-angle dev {worst_extreme:.2e} (<=1e-10)")


def test_criterion_10_oscillation_reproduction():
    n1, n2 = 2, 1
    g1, g2 = WIDTHS
    gbar, dm = 0.5 * (g1 + g2), MASSES[1] - MASSES[0]
    # on the sector space of total <= n1 + n2, the space a run of this state uses
    model = mixed_two_flavour(theta=math.pi / 2, cutoff=4, total=n1 + n2)
    rho = number_state(model.space, (n1, n2))
    obs = build_flavour_observables(model.space, 0.0)

    times = np.linspace(0.0, 5.0, 51)
    worst_s = 0.0
    for state, t in zip(evolve_state(model, rho, times), times):
        want = math.exp(-gbar * t) * math.cos(dm * t) * (n1 - n2)
        worst_s = max(worst_s, abs(expectation(state, obs["S"]) - want))
    heis = mean_strangeness_trajectory(model, rho, times)
    worst_s = max(worst_s, float(np.max(np.abs(
        heis - np.exp(-gbar * times) * np.cos(dm * times) * (n1 - n2)))))

    cycles, n_samples = 8, 256
    period = 2 * math.pi * cycles / dm
    fft_times = np.arange(n_samples) * (period / n_samples)
    signal = mean_strangeness_trajectory(model, rho, fft_times) * np.exp(gbar * fft_times)
    peak = int(np.argmax(np.abs(np.fft.rfft(signal))[1:])) + 1
    peak_freq = 2 * math.pi * peak / period
    ok_fft = abs(peak_freq - dm) <= 2 * math.pi / period

    worst_n = 0.0
    for theta in (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi):
        sweep_model = mixed_two_flavour(theta=theta, cutoff=4, total=n1 + n2)
        rho_t = number_state(sweep_model.space, (n1, n2))
        for state, t in zip(evolve_state(sweep_model, rho_t, times), times):
            e1, e2 = math.exp(-g1 * t), math.exp(-g2 * t)
            want = 0.5 * (e1 + e2) * (n1 + n2) + 0.5 * (e1 - e2) * (n1 - n2) * math.cos(theta)
            worst_n = max(worst_n, abs(expectation(state, obs["N"]) - want))

    ok = worst_s <= 1e-10 and ok_fft and worst_n <= 1e-10
    _report(10, "oscillation reproduction", ok,
            f"strangeness dev {worst_s:.2e} (<=1e-10), fft peak at {peak_freq:.4f} "
            f"vs {dm} (bin {2 * math.pi / period:.4f}), number-sweep dev {worst_n:.2e} (<=1e-10)")


def test_criterion_11_vacuum_attractor_and_dual_limit(rng):
    space = single_space(cutoff=6)
    model = build_decay_model(space)
    vac = vacuum_state(space)
    worst = 0.0
    for rho in (number_state(space, (6,)), coherent_state(space, 1, 0.3),
                random_density_matrix(rng, space)):
        worst = max(worst, trace_distance(apply_channel(build_kraus(model, 40.0), rho), vac))
    proj0 = vac.matrix
    evolved = evolve_observable_matrix(build_kraus(model, 50.0), proj0)
    dual_dev = float(np.max(np.abs(evolved - np.eye(space.dimension))))
    _report(11, "vacuum attractor and dual limit", worst < 1e-6 and dual_dev <= 1e-10,
            f"distance to vacuum {worst:.2e} (<1e-6), dual identity dev {dual_dev:.2e} (<=1e-10)")


def test_criterion_12_fermionic_sector():
    space = FockSpace([ModeSpec(Statistics.FERMION, mass=0.4, width=1.0),
                       ModeSpec(Statistics.FERMION, mass=1.1, width=2.0)])
    model = build_decay_model(space)
    n_op = build_total_number(space)
    worst_complete = worst_trace = worst_decay = 0.0
    partitions_ok = True
    for t in np.linspace(0.0, 4.0, 9):
        ks = build_kraus(model, float(t))
        partitions_ok &= all(all(k <= 1 for k in kappa) for kappa in ks.multi_indices)
        worst_complete = max(worst_complete, ks.completeness_defect)
        out = apply_channel(ks, number_state(space, (1, 0)))
        worst_trace = max(worst_trace, abs(complex(np.trace(out.matrix)) - 1.0))
        worst_decay = max(worst_decay, abs(expectation(out, n_op) - math.exp(-1.0 * t)))
    ok = (partitions_ok and worst_complete <= 1e-10 and worst_trace <= 1e-12
          and worst_decay <= 1e-12)
    _report(12, "fermionic sector", ok,
            f"completeness {worst_complete:.2e} (<=1e-10), trace dev {worst_trace:.2e} "
            f"(<=1e-12), decay dev {worst_decay:.2e} (<=1e-12)")


def test_criterion_13_cli_determinism(tmp_path):
    worst_dev = 0.0
    identical = True
    for name in ("single_mode_decay", "fig1_number", "oscillation_theta90"):
        cfg = parse_config((CONFIGS / f"{name}.json").read_text())
        res_a = run_scenario(cfg, out_dir=tmp_path / f"{name}_a")
        res_b = run_scenario(cfg, out_dir=tmp_path / f"{name}_b")
        for pa, pb in zip(res_a.csv_paths, res_b.csv_paths):
            identical &= pa.read_bytes() == pb.read_bytes()
        man_a = res_a.manifest_path.read_text().splitlines()
        man_b = res_b.manifest_path.read_text().splitlines()
        identical &= ([l for l in man_a if not l.startswith("timestamp=")]
                      == [l for l in man_b if not l.startswith("timestamp=")])
        for line in man_a:
            if line.startswith("cross_route_max_deviation["):
                worst_dev = max(worst_dev, float(line.rsplit("=", 1)[1]))
    _report(13, "cli determinism", identical and worst_dev <= 1e-8,
            f"byte-identical {identical}, manifest cross-route deviation {worst_dev:.2e} (<=1e-8)")
