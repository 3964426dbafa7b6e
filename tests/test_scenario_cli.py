import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import support_total_bound

from fockdecay import (ConfigError, InvariantViolation, build_decay_model, build_generator, config_to_json,
                       evolve_state, integrate, parse_config, run_scenario)
from fockdecay.cli import main
from fockdecay.config import CUTOFF_LIMIT, OCCUPATION_COLUMNS_LIMIT, TIME_POINTS_LIMIT
import fockdecay.channel as channel
import fockdecay.scenario as scenario
from fockdecay.channel import read_series
from fockdecay.flavour import build_mixed_model, quadratic_omegas
from fockdecay.heisenberg import mean_quadratic_trajectories
from fockdecay.scenario import build_initial_state, build_space

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"

MINIMAL = {
    "schema_version": 1,
    "name": "minimal",
    "modes": [{"statistics": "boson", "mass": 0.0, "width": 1.0, "cutoff": 4}],
    "mixing": None,
    "initial_state": {"type": "number", "occupations": [1]},
    "time_grid": {"start": 0.0, "stop": 5.0, "count": 101},
    "routes": ["kraus"],
    "observables": ["N"],
    "output_path": "out/minimal",
}


def make_config(**overrides):
    doc = json.loads(json.dumps(MINIMAL))
    doc.update(overrides)
    return doc


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# parsing

def test_minimal_round_trip():
    cfg = parse_config(json.dumps(MINIMAL))
    again = parse_config(config_to_json(cfg))
    assert again == cfg
    assert cfg.routes == ("kraus",)
    assert cfg.modes[0].width == 1.0


def test_fig1_sweep_parses():
    cfg = parse_config((CONFIGS / "fig1_number.json").read_text())
    assert len(cfg.mixing) == 5
    thetas = [m.theta for m in cfg.mixing]
    assert thetas == pytest.approx([0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi])
    again = parse_config(config_to_json(cfg))
    assert again == cfg


@pytest.mark.parametrize(
    "mangle, code, category",
    [
        (lambda d: d["modes"][0].update(width=-1.0), "CONFIG_WIDTH_NEGATIVE", "invariant"),
        (lambda d: d["modes"][0].update(cutoff=-2), "CONFIG_CUTOFF_NEGATIVE", "invariant"),
        (lambda d: d["modes"][0].update(statistics="anyon"), "CONFIG_STATISTICS_UNKNOWN", "invariant"),
        (lambda d: d.update(time_grid={"start": 2.0, "stop": 1.0, "count": 5}),
         "CONFIG_TIME_GRID_INVALID", "invariant"),
        (lambda d: d.update(routes=["warp"]), "CONFIG_ROUTE_UNKNOWN", "invariant"),
        (lambda d: d.update(routes=[]), "CONFIG_ROUTES_EMPTY", "invariant"),
        (lambda d: d.update(observables=["S"]), "CONFIG_OBSERVABLE_MODES", "invariant"),
        (lambda d: d.update(observables=["X"]), "CONFIG_OBSERVABLE_UNKNOWN", "invariant"),
        (lambda d: d.update(observables=["occupations"], routes=["heisenberg"]),
         "CONFIG_OBSERVABLE_ROUTE", "invariant"),
        (lambda d: d.update(initial_state={"type": "number", "occupations": [9]}),
         "CONFIG_OCCUPATION_EXCEEDS_CUTOFF", "invariant"),
        (lambda d: d.update(initial_state={"type": "smear"}), "CONFIG_INITIAL_STATE", "invariant"),
        (lambda d: d.update(ode_step=-0.1), "CONFIG_ODE_STEP_INVALID", "invariant"),
        (lambda d: d.update(schema_version=99), "CONFIG_SCHEMA_VERSION", "schema"),
        (lambda d: d.pop("modes"), "CONFIG_FIELD_MISSING", "schema"),
        (lambda d: d.update(output_path=7), "CONFIG_FIELD_TYPE", "schema"),
    ],
)
def test_config_rejections(mangle, code, category):
    doc = make_config()
    mangle(doc)
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.code == code
    assert err.value.category == category


def test_malformed_json():
    with pytest.raises(ConfigError) as err:
        parse_config("{not json")
    assert err.value.code == "CONFIG_JSON_MALFORMED"
    assert err.value.category == "json"


def test_mixture_weight_validation():
    doc = make_config(initial_state={
        "type": "mixture",
        "components": [
            {"weight": 0.6, "occupations": [0]},
            {"weight": 0.5, "occupations": [1]},
        ],
    })
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.code == "CONFIG_MIXTURE_WEIGHTS"


def test_mixing_support_bound():
    doc = make_config(
        modes=[
            {"statistics": "boson", "mass": 0.0, "width": 0.5, "cutoff": 2},
            {"statistics": "boson", "mass": 1.0, "width": 1.5, "cutoff": 2},
        ],
        mixing={"theta": 0.3},
        initial_state={"type": "number", "occupations": [2, 1]},
        observables=["N"],
    )
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.code == "CONFIG_SUPPORT_EXCEEDS_CUTOFF"


def test_unequal_cutoffs_under_mixing_rejected():
    doc = make_config(
        modes=[
            {"statistics": "boson", "mass": 0.0, "width": 0.5, "cutoff": 2},
            {"statistics": "boson", "mass": 1.0, "width": 1.5, "cutoff": 3},
        ],
        mixing={"theta": 0.3},
        initial_state={"type": "number", "occupations": [1, 0]},
        observables=["N"],
    )
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.code == "CONFIG_MIXING_MODES"


# ---------------------------------------------------------------------------
# runs

def test_single_mode_run_matches_decay_law(tmp_path):
    cfg = parse_config((CONFIGS / "single_mode_decay.json").read_text())
    result = run_scenario(cfg, out_dir=tmp_path)
    header, rows = read_csv(tmp_path / "single_mode_decay__kraus__N.csv")
    assert header == ["t", "N", "t_raw", "route"]
    assert len(rows) == 101
    for row in rows:
        t, value = float(row[0]), float(row[1])
        assert abs(value - math.exp(-t)) <= 1e-12
    assert result.max_deviation <= 1e-8


def test_fig1_run_matches_mean_number_formula(tmp_path):
    cfg = parse_config((CONFIGS / "fig1_number.json").read_text())
    run_scenario(cfg, out_dir=tmp_path)
    g1, g2 = 0.5, 1.5
    n1, n2 = 2, 1
    for idx, theta in enumerate(m.theta for m in cfg.mixing):
        for route in ("kraus", "heisenberg"):
            path = tmp_path / f"fig1_number__theta{idx}__{route}__N.csv"
            _, rows = read_csv(path)
            for row in rows:
                t_raw, value = float(row[2]), float(row[1])
                e1, e2 = math.exp(-g1 * t_raw), math.exp(-g2 * t_raw)
                want = 0.5 * (e1 + e2) * (n1 + n2) + 0.5 * (e1 - e2) * (n1 - n2) * math.cos(theta)
                assert abs(value - want) <= 1e-10


def test_oscillation_run_matches_strangeness_formula(tmp_path):
    cfg = parse_config((CONFIGS / "oscillation_theta90.json").read_text())
    run_scenario(cfg, out_dir=tmp_path, routes=("kraus", "heisenberg"))
    _, rows = read_csv(tmp_path / "oscillation_theta90__kraus__S.csv")
    for row in rows:
        t_raw, value = float(row[2]), float(row[1])
        want = math.exp(-1.0 * t_raw) * math.cos(5.0 * t_raw)
        assert abs(value - want) <= 1e-10
    # scaled time column is t_raw * mean width (= t_raw here)
    assert float(rows[3][0]) == pytest.approx(float(rows[3][2]) * 1.0)


def test_run_is_byte_deterministic(tmp_path):
    cfg = parse_config((CONFIGS / "single_mode_decay.json").read_text())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    res_a = run_scenario(cfg, out_dir=out_a)
    res_b = run_scenario(cfg, out_dir=out_b)
    assert [p.name for p in res_a.csv_paths] == [p.name for p in res_b.csv_paths]
    for pa, pb in zip(res_a.csv_paths, res_b.csv_paths):
        assert pa.read_bytes() == pb.read_bytes()
    man_a = [l for l in res_a.manifest_path.read_text().splitlines()
             if not l.startswith("timestamp=")]
    man_b = [l for l in res_b.manifest_path.read_text().splitlines()
             if not l.startswith("timestamp=")]
    assert man_a == man_b


def test_manifest_records_deviations(tmp_path):
    cfg = parse_config((CONFIGS / "single_mode_decay.json").read_text())
    result = run_scenario(cfg, out_dir=tmp_path)
    lines = result.manifest_path.read_text().splitlines()
    devs = [l for l in lines if l.startswith("cross_route_max_deviation[")]
    assert devs, "expected cross-route deviation lines"
    for line in devs:
        assert float(line.rsplit("=", 1)[1]) <= 1e-8
    assert "status=ok" in lines
    assert any(l.startswith("config={") for l in lines)
    assert sum(1 for l in lines if l.startswith("timestamp=")) == 1


def test_manifest_deviation_keys_follow_route_order(tmp_path):
    # Scalar pairs follow the routes as given; occupation pairs follow sorted route names.
    cfg = parse_config((CONFIGS / "oscillation_theta90.json").read_text())
    result = run_scenario(cfg, out_dir=tmp_path, routes=("heisenberg", "ode", "kraus"))
    keys = [l.rsplit("=", 1)[0]
            for l in result.manifest_path.read_text().splitlines()
            if l.startswith("cross_route_max_deviation[")]
    assert keys == [
        f"cross_route_max_deviation[{name}][{pair}][theta=-]"
        for name in ("N", "S", "Qplus", "Qminus")
        for pair in ("heisenberg|ode", "heisenberg|kraus", "ode|kraus")
    ] + ["cross_route_max_deviation[occupations][kraus|ode][theta=-]"]


def test_occupation_columns_sum_to_one(tmp_path):
    cfg = parse_config((CONFIGS / "single_mode_decay.json").read_text())
    run_scenario(cfg, out_dir=tmp_path, routes=("kraus",))
    header, rows = read_csv(tmp_path / "single_mode_decay__kraus__occupations.csv")
    p_cols = [i for i, name in enumerate(header) if name.startswith("p_")]
    assert len(p_cols) == 9
    for row in rows:
        total = sum(float(row[i]) for i in p_cols)
        assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("routes, observables, unread", [
    (["heisenberg"], ["N"], ((scenario, "read_series"), (scenario, "_occupation_columns"))),
    (["kraus", "heisenberg"], ["N"], ((scenario, "_occupation_columns"),)),
    (["ode"], ["occupations"], ((channel, "one_body_correlations"),)),
])
def test_run_builds_only_what_its_routes_read(tmp_path, monkeypatch, routes, observables, unread):
    # the occupation columns span the product space: 2^22 of them for 22 fermions
    def unread_builder(*args, **kwargs):
        raise AssertionError("built for a run that does not read it")
    for module, name in unread:
        monkeypatch.setattr(module, name, unread_builder)
    cfg = parse_config(json.dumps(make_config(routes=routes, observables=observables)))
    run_scenario(cfg, out_dir=tmp_path)


def test_three_mode_mixed_statistics_scenario(tmp_path):
    doc = make_config(
        name="tri",
        modes=[
            {"statistics": "boson", "mass": 0.1, "width": 0.7, "cutoff": 2},
            {"statistics": "boson", "mass": 0.4, "width": 1.1, "cutoff": 2},
            {"statistics": "fermion", "mass": 0.9, "width": 2.0, "cutoff": 1},
        ],
        initial_state={"type": "number", "occupations": [2, 1, 1]},
        time_grid={"start": 0.0, "stop": 2.0, "count": 21},
        routes=["kraus", "ode", "heisenberg"],
        observables=["N", "occupations"],
    )
    result = run_scenario(parse_config(json.dumps(doc)), out_dir=tmp_path)
    assert result.max_deviation <= 1e-8
    _, rows = read_csv(tmp_path / "tri__heisenberg__N.csv")
    for row in rows:
        t = float(row[2])
        want = 2 * math.exp(-0.7 * t) + math.exp(-1.1 * t) + math.exp(-2.0 * t)
        assert abs(float(row[1]) - want) <= 1e-12


@pytest.mark.parametrize("route", ["kraus", "ode", "heisenberg"])
def test_six_bosons_run_on_the_sector_space(tmp_path, route):
    # product space 3**6 = 729; the run works on the 28 states with total <= 2
    widths = [0.4 + 0.2 * j for j in range(6)]
    doc = make_config(
        name="six",
        modes=[{"statistics": "boson", "mass": 0.3 * j, "width": g, "cutoff": 2}
               for j, g in enumerate(widths)],
        initial_state={"type": "number", "occupations": [1, 1, 0, 0, 0, 0]},
        time_grid={"start": 0.0, "stop": 2.0, "count": 11},
        routes=[route],
        observables=["N"] if route == "heisenberg" else ["N", "occupations"],
        output_path=str(tmp_path),
    )
    cfg = tmp_path / "six.json"
    cfg.write_text(json.dumps(doc))
    assert main(["run", str(cfg)]) == 0
    _, rows = read_csv(tmp_path / f"six__{route}__N.csv")
    for row in rows:
        t = float(row[0])
        assert abs(float(row[1]) - math.exp(-widths[0] * t) - math.exp(-widths[1] * t)) <= 1e-9
    if route == "heisenberg":
        return
    header, rows = read_csv(tmp_path / f"six__{route}__occupations.csv")
    labels = header[1:-2]
    assert len(labels) == 729
    off_s = [i for i, label in enumerate(labels) if sum(map(int, label[2:].split("_"))) > 2]
    assert len(off_s) == 729 - 28
    for row in rows:
        values = [float(v) for v in row[1:-2]]
        assert all(values[i] == 0.0 for i in off_s)
        assert sum(values) == pytest.approx(1.0, abs=1e-12)


def test_sixty_four_bosons_holding_one_quantum_run_on_every_route(tmp_path, capsys):
    # |S| = 65 while the product space holds 3**64 > 2**63 tuples: every lookup uses the space's own index
    widths = [0.5 + 0.25 * (j % 4) for j in range(64)]
    doc = make_config(
        name="wide",
        modes=[{"statistics": "boson", "mass": 0.1 * (j % 3), "width": g, "cutoff": 2}
               for j, g in enumerate(widths)],
        initial_state={"type": "number", "occupations": [0, 1] + [0] * 62},
        time_grid={"start": 0.0, "stop": 1.0, "count": 5},
        routes=["kraus", "ode", "heisenberg"],
        output_path=str(tmp_path),
    )
    cfg = tmp_path / "wide.json"
    cfg.write_text(json.dumps(doc))
    assert main(["run", str(cfg)]) == 0
    for route in ("kraus", "ode", "heisenberg"):
        _, rows = read_csv(tmp_path / f"wide__{route}__N.csv")
        for row in rows:
            assert abs(float(row[1]) - math.exp(-widths[1] * float(row[0]))) <= 1e-9


def test_fermion_pair_scenario(tmp_path):
    doc = make_config(
        name="ferm",
        modes=[
            {"statistics": "fermion", "mass": 0.0, "width": 1.0, "cutoff": 1},
            {"statistics": "fermion", "mass": 2.0, "width": 1.5, "cutoff": 1},
        ],
        initial_state={"type": "number", "occupations": [1, 1]},
        time_grid={"start": 0.0, "stop": 2.0, "count": 21},
        routes=["kraus", "ode", "heisenberg"],
        observables=["N", "S", "occupations"],
    )
    result = run_scenario(parse_config(json.dumps(doc)), out_dir=tmp_path)
    assert result.max_deviation <= 1e-8
    _, rows = read_csv(tmp_path / "ferm__kraus__S.csv")
    for row in rows:
        t = float(row[2])
        want = math.exp(-1.0 * t) - math.exp(-1.5 * t)
        assert abs(float(row[1]) - want) <= 1e-12


def test_mixed_fermion_pair_cli_run(tmp_path, capsys):
    # Fermions hold one quantum each, so mixing sets no bound on the total occupation.
    doc = make_config(
        name="fermmix",
        modes=[
            {"statistics": "fermion", "mass": 0.0, "width": 1.0, "cutoff": 1},
            {"statistics": "fermion", "mass": 2.0, "width": 1.5, "cutoff": 1},
        ],
        mixing={"theta": 0.9, "phi": 0.4},
        initial_state={"type": "number", "occupations": [1, 1]},
        time_grid={"start": 0.0, "stop": 2.0, "count": 21},
        routes=["kraus", "ode", "heisenberg"],
        observables=["N", "S"],
        output_path=str(tmp_path),
    )
    cfg = tmp_path / "fermmix.json"
    cfg.write_text(json.dumps(doc))
    assert main(["run", str(cfg)]) == 0
    assert capsys.readouterr().err == ""
    for route in ("kraus", "ode", "heisenberg"):
        _, rows = read_csv(tmp_path / f"fermmix__{route}__N.csv")
        assert len(rows) == 21
        for row in rows:
            t = float(row[2])
            assert abs(float(row[1]) - (math.exp(-1.0 * t) + math.exp(-1.5 * t))) <= 1e-12


@pytest.mark.parametrize("state, mixing", [
    pytest.param({"type": "coherent", "mode": 1, "alpha": 0.01}, None, id="coherent-unmixed"),
    pytest.param({"type": "poisson", "mode": 2, "nbar": 0.05}, {"theta": 0.7}, id="poisson-mixed"),
])
def test_cli_run_with_support_below_the_space_total(tmp_path, capsys, state, mixing):
    # the space's total K is the cutoff, but rho0 carries no entry above 1e-14 beyond a lower total
    doc = make_config(
        name="tail",
        modes=[{"statistics": "boson", "mass": 0.0, "width": 0.5, "cutoff": 8},
               {"statistics": "boson", "mass": 1.0, "width": 1.5, "cutoff": 8}],
        mixing=mixing,
        initial_state=state,
        time_grid={"start": 0.0, "stop": 2.0, "count": 21},
        routes=["kraus", "ode", "heisenberg"],
        observables=["N", "S"],
        output_path=str(tmp_path),
    )
    cfg = parse_config(json.dumps(doc))
    space = build_space(cfg)
    assert support_total_bound(build_initial_state(cfg, space)) < space.total == 8
    path = tmp_path / "tail.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 0
    assert capsys.readouterr().err == ""
    devs = {}
    for line in (tmp_path / "tail__manifest.txt").read_text().splitlines():
        if line.startswith("cross_route_max_deviation["):
            key, value = line.rsplit("=", 1)
            pair = key.split("][")[1]
            devs[pair] = max(devs.get(pair, 0.0), float(value))
    assert devs["kraus|heisenberg"] <= 1e-12
    assert devs["kraus|ode"] <= 1e-9


def test_route_override_unknown_rejected(tmp_path):
    cfg = parse_config(json.dumps(make_config(output_path=str(tmp_path))))
    with pytest.raises(ConfigError):
        run_scenario(cfg, routes=("warp",))


# ---------------------------------------------------------------------------
# command-line entry

def test_cli_validate(capsys):
    assert main(["validate", str(CONFIGS / "single_mode_decay.json")]) == 0
    assert "valid: single_mode_decay" in capsys.readouterr().out


def test_cli_validate_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(make_config(routes=["warp"])))
    assert main(["validate", str(bad)]) == 1
    assert "CONFIG_ROUTE_UNKNOWN" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("validate", {"modes": [dict(MINIMAL["modes"][0], width=math.nan)]}),
        ("run", {"modes": [dict(MINIMAL["modes"][0], width=math.nan)]}),
        ("validate", {"time_grid": dict(MINIMAL["time_grid"], stop=math.inf)}),
        ("run", {"time_grid": dict(MINIMAL["time_grid"], stop=math.inf)}),
        ("run", {"time_grid": dict(MINIMAL["time_grid"], stop=math.inf), "routes": ["ode"]}),
        ("run", {"modes": [dict(MINIMAL["modes"][0], mass=10**400)]}),
    ],
)
def test_cli_rejects_nonfinite_numbers(tmp_path, capsys, command, overrides):
    # Python's json reads NaN and Infinity; they must end as a coded config error.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(make_config(output_path=str(tmp_path / "out"), **overrides)))
    assert main([command, str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error [invariant]: CONFIG_NUMBER_NONFINITE")
    assert "Traceback" not in err


MIXED_PAIR = {"modes": [dict(MINIMAL["modes"][0], cutoff=2), dict(MINIMAL["modes"][0], mass=1.0, cutoff=2)],
              "mixing": {"theta": 0.5}, "initial_state": {"type": "number", "occupations": [1, 0]}}


@pytest.mark.parametrize(
    "overrides, code, prefix",
    [
        # mass * n overflows the Hamiltonian to inf on every route
        ({"modes": [dict(MINIMAL["modes"][0], mass=1e308, width=1e308, cutoff=2)],
          "initial_state": {"type": "number", "occupations": [2]}},
         2, "runtime invariant breach: "),
        ({"modes": [dict(MINIMAL["modes"][0], mass=1e308, width=1e308, cutoff=2)],
          "initial_state": {"type": "number", "occupations": [2]}, "routes": ["heisenberg"]},
         2, "runtime invariant breach: "),
        # the default step 1e-3 / width underflows, so spacing / step is inf
        ({"modes": [dict(MINIMAL["modes"][0], mass=0.0, width=1e308, cutoff=1)], "routes": ["ode"]},
         1, "config error [invariant]: CONFIG_TIME_GRID_STEP"),
        ({"ode_step": 5e-324, "routes": ["ode"]},
         1, "config error [invariant]: CONFIG_TIME_GRID_STEP"),
        # m t overflows where nothing decays; under mixing the splitting phase stays
        # finite and every amplitude but the vacuum's has decayed to 0, so the run ends
        # well (test_cli_runs_a_mixed_pair_to_a_huge_time_on_the_kraus_route checks it)
        ({"modes": [dict(MINIMAL["modes"][0], mass=2.0, width=0.0)],
          "time_grid": dict(MINIMAL["time_grid"], stop=1e308, count=3), "routes": ["heisenberg"]},
         2, "runtime invariant breach: "),
        (dict(MIXED_PAIR, time_grid=dict(MINIMAL["time_grid"], stop=1.7e308, count=3)), 0, ""),
        # a huge but finite mass in the shape of fig1_number: the certificate is
        # relative, so the closed forms run; the kraus route cannot resolve the
        # splitting's phase, and the RK4 step is not finite
        *[
            ({"modes": [dict(MINIMAL["modes"][0], mass=mass, width=0.5, cutoff=3),
                        dict(MINIMAL["modes"][0], mass=5.0, width=1.5, cutoff=3)],
              "mixing": {"theta": 0.7}, "initial_state": {"type": "number", "occupations": [2, 1]},
              "time_grid": dict(MINIMAL["time_grid"], stop=1.0, count=3), "routes": [route]},
             code, prefix)
            for mass in (1e20, 1e200)
            for route, code, prefix in (("kraus", 2, "runtime invariant breach: "),
                                        ("ode", 2, "runtime invariant breach: "),
                                        ("heisenberg", 0, ""))
        ],
        # the run's space stops at n = 1, where H = m n is finite: the closed
        # forms run, the default step 1e-3 / width underflows, and the
        # propagator exp(-i M t) of the kraus route is not finite
        *[
            ({"modes": [dict(MINIMAL["modes"][0], mass=1e308, width=1e308, cutoff=2)],
              "routes": [route]}, code, prefix)
            for route, code, prefix in (
                ("heisenberg", 0, ""),
                ("ode", 1, "config error [invariant]: CONFIG_TIME_GRID_STEP"),
                ("kraus", 2, "runtime invariant breach: "))
        ],
        # the kraus route resolves a splitting phase (m_j - m_ref) n_j t of a mixed pair
        # to 1e-10 up to 9.0e5 rad: with the splitting 5 from |1,0>, t = 1.8e5 reaches
        # 9e5 and runs, t = 1.81e5 stops.  An unmixed pair's phases m_j n_j t are
        # those of the closed forms, and it runs at any mass
        *[
            ({"modes": [dict(MINIMAL["modes"][0], mass=0.0, width=0.0, cutoff=1),
                        dict(MINIMAL["modes"][0], mass=5.0, width=0.0, cutoff=1)],
              "mixing": {"theta": 0.7}, "initial_state": {"type": "number", "occupations": [1, 0]},
              "time_grid": dict(MINIMAL["time_grid"], stop=stop, count=3)}, code, prefix)
            for stop, code, prefix in ((1.8e5, 0, ""), (1.81e5, 2, "runtime invariant breach: "))
        ],
        ({"modes": [dict(MINIMAL["modes"][0], mass=0.0, width=0.5, cutoff=3),
                    dict(MINIMAL["modes"][0], mass=1e6, width=0.5, cutoff=3)],
          "initial_state": {"type": "number", "occupations": [1, 1]},
          "time_grid": dict(MINIMAL["time_grid"], stop=1.0, count=3)}, 0, ""),
    ],
)
@pytest.mark.filterwarnings("error")  # a numpy warning would precede the prefix on stderr
def test_cli_overflowing_runs_exit_with_codes(tmp_path, capsys, overrides, code, prefix):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(make_config(output_path=str(tmp_path / "out"), **overrides)))
    assert main(["run", str(bad)]) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    assert (tmp_path / "out").exists() == (code == 0)  # a failed run leaves no output directory


@pytest.mark.filterwarnings("error")
def test_cli_runs_a_mixed_pair_to_a_huge_time_on_the_kraus_route(tmp_path, capsys):
    # at t = 1e300, and at 1.7e308 where t ||M||_1 overflows, the splitting phases are
    # finite and every decaying state has decayed, as the closed forms say
    for stop in (1e300, 1.7e308):
        cfg = tmp_path / "huge_t.json"
        out = tmp_path / f"out_{stop:g}"
        cfg.write_text(json.dumps(make_config(
            **MIXED_PAIR, time_grid=dict(MINIMAL["time_grid"], stop=stop, count=3),
            routes=["kraus", "heisenberg"], observables=["N", "S"], output_path=str(out))))
        assert main(["run", str(cfg)]) == 0
        assert capsys.readouterr().err == ""
        for obs in ("N", "S"):
            _, kraus = read_csv(out / f"minimal__kraus__{obs}.csv")
            _, heis = read_csv(out / f"minimal__heisenberg__{obs}.csv")
            got, want = (np.array([float(row[1]) for row in rows]) for rows in (kraus, heis))
            assert np.max(np.abs(got - want)) <= 1e-15
            assert np.array_equal(got[1:], [0.0, 0.0])


@pytest.mark.parametrize("state", [{"type": "number", "occupations": [2, 1]},
                                   {"type": "coherent", "mode": 1, "alpha": 0.1}], ids=["number", "coherent"])
@pytest.mark.filterwarnings("error")
def test_cli_runs_a_large_common_mass_on_the_kraus_route(tmp_path, capsys, state):
    # the kaon regime: masses (m, m + 5) under mixing.  The common mass is a phase per
    # total-N sector, so kraus agrees with heisenberg as closely as at m = 0
    devs = {}
    for mass in (0.0, 1e4, 1e8, 1e14):
        cfg = tmp_path / "big.json"
        out = tmp_path / f"out_{mass:g}"
        cfg.write_text(json.dumps(make_config(
            modes=[dict(MINIMAL["modes"][0], mass=mass, width=0.5, cutoff=5),
                   dict(MINIMAL["modes"][0], mass=mass + 5.0, width=1.5, cutoff=5)],
            mixing={"theta": 0.7}, initial_state=state, routes=["kraus", "heisenberg"],
            observables=["N", "S"], time_grid=dict(MINIMAL["time_grid"], stop=1.0, count=11),
            output_path=str(out))))
        assert main(["run", str(cfg)]) == 0
        assert capsys.readouterr().err == ""
        for obs in ("N", "S"):
            _, kraus = read_csv(out / f"minimal__kraus__{obs}.csv")
            _, heis = read_csv(out / f"minimal__heisenberg__{obs}.csv")
            got, want = (np.array([float(row[1]) for row in rows]) for rows in (kraus, heis))
            devs[mass, obs] = np.max(np.abs(got - want))
    for (mass, obs), dev in devs.items():
        assert dev <= 2 * devs[0.0, obs]


@pytest.mark.filterwarnings("error")
def test_cli_keeps_the_coherence_pair_at_a_large_common_mass(tmp_path, capsys):
    # conj(d_1) d_2 carries the phase (m_1 - m_2) t = -5 t, not the difference of two
    # phases m t that round at ulp(m t): the closed forms agree with kraus as at m = 0
    devs = {}
    for mass in (0.0, 1e8, 1e12, 1e14):
        cfg = tmp_path / "big.json"
        out = tmp_path / f"out_{mass:g}"
        cfg.write_text(json.dumps(make_config(
            modes=[dict(MINIMAL["modes"][0], mass=mass, width=0.5, cutoff=3),
                   dict(MINIMAL["modes"][0], mass=mass + 5.0, width=1.5, cutoff=3)],
            mixing={"theta": 0.7}, initial_state={"type": "number", "occupations": [2, 1]},
            routes=["kraus", "heisenberg"], observables=["Qplus", "Qminus"],
            time_grid=dict(MINIMAL["time_grid"], stop=0.9371, count=7), output_path=str(out))))
        assert main(["run", str(cfg)]) == 0
        assert capsys.readouterr().err == ""
        for obs in ("Qplus", "Qminus"):
            _, kraus = read_csv(out / f"minimal__kraus__{obs}.csv")
            _, heis = read_csv(out / f"minimal__heisenberg__{obs}.csv")
            got, want = (np.array([float(row[1]) for row in rows]) for rows in (kraus, heis))
            devs[mass, obs] = np.max(np.abs(got - want))
    for (mass, obs), dev in devs.items():
        assert dev <= 2 * devs[0.0, obs], (mass, obs, dev)


@pytest.mark.parametrize("route", ["kraus", "ode", "heisenberg"])
@pytest.mark.filterwarnings("error")
def test_cli_runs_a_mass_near_the_float_limit_on_every_route(tmp_path, capsys, route):
    # M = m N is finite at m = 8e307 and n <= 2 (5e307 and n <= 3), but m^2 is not: the
    # certificate is formed on M / s, so the model is built, and with m t finite every route runs
    for mass, n in ((8e307, 2), (5e307, 3), (8e307, 1)):
        cfg = tmp_path / f"big_{n}.json"
        out = tmp_path / f"out_{n}"
        cfg.write_text(json.dumps(make_config(
            modes=[dict(MINIMAL["modes"][0], mass=mass, width=0.5, cutoff=max(n, 2))],
            initial_state={"type": "number", "occupations": [n]}, routes=[route],
            time_grid=dict(MINIMAL["time_grid"], stop=1.0, count=11), output_path=str(out))))
        assert main(["run", str(cfg)]) == 0
        assert capsys.readouterr().err == ""
        assert (out / f"minimal__{route}__N.csv").exists()


@pytest.mark.parametrize("args", [["validate"], ["run", "--routes", "heisenberg"], ["run", "--routes", "kraus"]])
def test_no_command_imports_scipy(tmp_path, args):
    # a fresh interpreter, so that no other test has imported scipy yet
    script = ("import sys\n"
              "from fockdecay.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(code, 'scipy' in sys.modules, 'numpy.ma' in sys.modules, 'numpy' in sys.modules)\n")
    doc = json.loads((CONFIGS / "fig1_number.json").read_text())
    doc["observables"] = ["N"]  # occupations would need a state-side route
    config = tmp_path / "fig1_number.json"
    config.write_text(json.dumps(doc))
    argv = [args[0], str(config), *args[1:]]
    if args[0] == "run":
        argv += ["--out-dir", str(tmp_path)]
    src = str(REPO / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True,
                          text=True, check=True)
    code, scipy, numpy_ma, numpy = done.stdout.splitlines()[-1].split()
    assert (code, scipy, numpy_ma) == ("0", "False", "False")  # nor numpy.ma, which a plain np.unique loads
    if args[0] == "validate":  # validate reads the config alone
        assert numpy == "False"


def test_cli_missing_file(capsys):
    assert main(["validate", "/nonexistent/nowhere.json"]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_run_with_overrides(tmp_path, capsys):
    code = main([
        "run", str(CONFIGS / "single_mode_decay.json"),
        "--out-dir", str(tmp_path), "--routes", "kraus,heisenberg", "--seed", "7",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "max cross-route deviation" in out
    assert (tmp_path / "single_mode_decay__kraus__N.csv").exists()
    assert not (tmp_path / "single_mode_decay__ode__N.csv").exists()
    manifest = (tmp_path / "single_mode_decay__manifest.txt").read_text()
    assert "seed=7" in manifest


def test_cli_seed_does_not_change_outputs(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["run", str(CONFIGS / "single_mode_decay.json"), "--out-dir", str(out_a),
          "--routes", "kraus", "--seed", "1"])
    main(["run", str(CONFIGS / "single_mode_decay.json"), "--out-dir", str(out_b),
          "--routes", "kraus", "--seed", "99"])
    csv_a = (out_a / "single_mode_decay__kraus__N.csv").read_bytes()
    csv_b = (out_b / "single_mode_decay__kraus__N.csv").read_bytes()
    assert csv_a == csv_b


@pytest.mark.parametrize(
    "overrides, extra, code",
    [
        ({"routes": ["kraus", "kraus"]}, [], "CONFIG_ROUTE_REPEATED at $.routes[1]"),
        ({"observables": ["N", "N"]}, [], "CONFIG_OBSERVABLE_REPEATED at $.observables[1]"),
        ({"routes": ["kraus", "ode"]}, ["--routes", "kraus,kraus"], "CONFIG_ROUTE_REPEATED at --routes[1]"),
        ({}, ["--routes", ","], "CONFIG_ROUTES_EMPTY at --routes"),
        ({}, ["--routes", "kraus,warp"], "CONFIG_ROUTE_UNKNOWN at --routes[1]"),
        # the override meets the same route/observable check as the config's own routes
        ({"observables": ["N", "occupations"]}, ["--routes", "heisenberg"],
         "CONFIG_OBSERVABLE_ROUTE at --routes"),
    ],
)
def test_cli_rejects_bad_route_and_observable_lists(tmp_path, capsys, overrides, extra, code):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(make_config(output_path=str(tmp_path / "out"), **overrides)))
    assert main(["run", str(bad), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error [invariant]: {code}:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["../escaped", "a/b", "a\\b", "", ".", ".."])
def test_cli_rejects_names_that_leave_the_out_dir(tmp_path, capsys, name):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(make_config(name=name, output_path=str(tmp_path / "out"))))
    for command in ("validate", "run"):
        assert main([command, str(bad)]) == 1
        assert capsys.readouterr().err.startswith("config error [invariant]: CONFIG_NAME_INVALID at $.name")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


@pytest.mark.parametrize("name, theta", [("x" * 227, 0.5), ("x" * 218, [0.1 * i for i in range(11)]),
                                         ("\u00e9" * 113 + "x", 0.5)],
                         ids=["ascii", "theta-sweep", "two-byte-utf8"])
def test_cli_rejects_names_too_long_for_their_output_files(tmp_path, capsys, name, theta):
    # <name>[__theta<k>]__heisenberg__occupations.csv must fit in 255 bytes of UTF-8
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(make_config(**dict(MIXED_PAIR, mixing={"theta": theta}), name=name,
                                          output_path=str(tmp_path / "out"))))
    for command in ("validate", "run"):
        assert main([command, str(bad)]) == 1
        assert capsys.readouterr().err.startswith("config error [invariant]: CONFIG_NAME_INVALID at $.name")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]
    # one byte shorter runs, and writes its longest file
    short = name[:-1]
    good = tmp_path / "good.json"
    good.write_text(json.dumps(make_config(**dict(MIXED_PAIR, mixing={"theta": theta}), name=short,
                                           routes=["kraus"], observables=["occupations"],
                                           output_path=str(tmp_path / "out"))))
    assert main(["run", str(good)]) == 0
    tag = "__theta10" if isinstance(theta, list) else ""
    assert (tmp_path / "out" / f"{short}{tag}__kraus__occupations.csv").exists()


def _latin1_name(out):
    return json.dumps(make_config(name="caf\u00e9", output_path=out), ensure_ascii=False).encode("latin-1")


@pytest.mark.parametrize(
    "document, error",
    [
        pytest.param(_latin1_name, "[json]: CONFIG_JSON_MALFORMED at $: not UTF-8", id="not-utf8"),
        pytest.param(lambda out: json.dumps(make_config(name="x\ud800", output_path=out)).encode(),
                     "[invariant]: CONFIG_STRING_UNENCODABLE at $.name", id="lone-surrogate-name"),
        pytest.param(lambda out: json.dumps(make_config(output_path=out + "/\udc80")).encode(),
                     "[invariant]: CONFIG_STRING_UNENCODABLE at $.output_path", id="lone-surrogate-path"),
        pytest.param(lambda out: b"[" * 200_000, "[json]: CONFIG_JSON_MALFORMED at $: maximum recursion",
                     id="nested-too-deep"),
        pytest.param(lambda out: json.dumps(make_config(output_path=out)).replace(
            '"schema_version": 1', '"schema_version": ' + "1" * 5000).encode(),
            "[json]: CONFIG_JSON_MALFORMED at $: Exceeds the limit", id="integer-too-long"),
    ],
)
def test_cli_refuses_undecodable_documents_and_strings(tmp_path, capsys, document, error):
    bad = tmp_path / "bad.json"
    bad.write_bytes(document(str(tmp_path / "out")))
    for command in ("validate", "run"):
        assert main([command, str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error {error}") and captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


@pytest.mark.parametrize(
    "commands, overrides, code",
    [
        (("validate", "run"), {"initial_state": {"type": "coherent", "mode": 1, "alpha": 1e200}},
         "CONFIG_STATE_TAIL"),
        (("validate", "run"), {"initial_state": {"type": "poisson", "mode": 1, "nbar": 1e308}},
         "CONFIG_STATE_TAIL"),
        # the default step 1e-3 / width overflows to inf
        (("validate", "run"), {"modes": [dict(MINIMAL["modes"][0], width=1e-320)], "routes": ["ode"]},
         "CONFIG_TIME_GRID_STEP"),
        # the default step divides the spacing but not the first time
        pytest.param(("validate", "run"), {"time_grid": dict(MINIMAL["time_grid"], start=1e-4),
                                           "routes": ["kraus", "ode"]},
                     "CONFIG_TIME_GRID_STEP at $.time_grid", id="default-step-misses-start"),
        pytest.param(("validate", "run"), {"ode_step": 0.3, "routes": ["kraus", "ode"]},
                     "CONFIG_TIME_GRID_STEP at $.ode_step", id="ode-step-misses-grid"),
        # each step divides t = 1, but 1e9 or 1e300 RK4 steps round by more than STEP_MATCH_TOL
        *[pytest.param(("validate", "run"), {"ode_step": step, "routes": ["ode", "heisenberg"],
                                             "time_grid": dict(MINIMAL["time_grid"], stop=1.0, count=11)},
                       "CONFIG_TIME_GRID_STEP at $.ode_step", id=f"ode-step-{step:g}-rounds-past-the-grid")
          for step in (1e-9, 1e-300)],
        # |alpha| itself is past the float range
        pytest.param(("validate", "run"), {"initial_state": {"type": "coherent", "mode": 1,
                                                             "alpha": [1.7e308, 1.7e308]}},
                     "CONFIG_STATE_TAIL", id="alpha-modulus-overflows"),
    ],
)
@pytest.mark.filterwarnings("error")
def test_cli_state_and_step_overflow_are_config_errors(tmp_path, capsys, commands, overrides, code):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(make_config(output_path=str(tmp_path / "out"), **overrides)))
    for command in commands:
        assert main([command, str(bad)]) == 1
        assert capsys.readouterr().err.startswith(f"config error [invariant]: {code}")
    assert not (tmp_path / "out").exists()


def _modes(count, statistics="boson", cutoff=1):
    return [{"statistics": statistics, "mass": 0.0, "width": 1.0, "cutoff": cutoff}] * count


@pytest.mark.parametrize(
    "overrides, path",
    [
        pytest.param({"modes": _modes(1, cutoff=10**21)}, "$.modes[0].cutoff", id="cutoff-past-int64"),
        pytest.param({"modes": _modes(1, cutoff=1025)}, "$.modes[0].cutoff", id="cutoff-past-limit"),
        # the example that ended in a MemoryError in _occupation_columns: the cutoff refuses it first
        pytest.param({"modes": _modes(1, cutoff=10**12), "observables": ["occupations"]},
                     "$.modes[0].cutoff", id="occupations-one-boson"),
        pytest.param({"modes": _modes(3, cutoff=1024), "observables": ["N", "occupations"],
                      "initial_state": {"type": "number", "occupations": [1, 0, 0]}},
                     "$.observables[1]", id="occupations-1025^3-columns"),
        pytest.param({"modes": _modes(21, "fermion"), "observables": ["occupations"],
                      "initial_state": {"type": "number", "occupations": [1] + [0] * 20}},
                     "$.observables[0]", id="occupations-2^21-columns"),
        # 1025^1500 has more digits than str() of an int allows: the message must not print it
        pytest.param({"modes": _modes(1500, cutoff=1024), "observables": ["occupations"],
                      "initial_state": {"type": "number", "occupations": [1] + [0] * 1499}},
                     "$.observables[0]", id="occupations-width-past-str-digits"),
        # a grid past the budget ended in a MemoryError traceback in run_scenario, and its ode
        # route would have been stepped through in Python by validate
        *[pytest.param({"time_grid": dict(MINIMAL["time_grid"], count=count), "routes": [route]},
                       "$.time_grid.count", id=f"{route}-grid-of-{count}-times")
          for count in (2**20 + 1, 10**14) for route in ("heisenberg", "ode")],
    ],
)
def test_cli_refuses_a_config_over_budget_before_building_anything(tmp_path, capsys, overrides, path):
    # estimates only: each refusal comes from parsing, so no space of this size is ever built
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(make_config(output_path=str(tmp_path / "out"), **overrides)))
    for command in ("validate", "run"):
        assert main([command, str(bad)]) == 1
        assert capsys.readouterr().err.startswith(f"config error [invariant]: CONFIG_BUDGET_EXCEEDED at {path}:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


@pytest.mark.parametrize(
    "overrides",
    [
        pytest.param({"modes": _modes(1, cutoff=CUTOFF_LIMIT)}, id="cutoff-at-limit"),
        pytest.param({"modes": _modes(20, "fermion"), "observables": ["occupations"],
                      "initial_state": {"type": "number", "occupations": [1] + [0] * 19}},
                     id="occupations-2^20-columns"),
    ],
)
def test_cli_validates_a_config_at_the_budget(tmp_path, capsys, overrides):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(make_config(output_path=str(tmp_path / "out"), **overrides)))
    assert main(["validate", str(good)]) == 0
    assert OCCUPATION_COLUMNS_LIMIT == 2**20  # the 20 fermions' product space, exactly


def test_a_grid_at_the_budget_parses():
    # parsing only: validating its ode route would step through every time
    cfg = parse_config(json.dumps(make_config(time_grid=dict(MINIMAL["time_grid"], count=2**20),
                                              routes=["ode", "heisenberg"])))
    assert cfg.time_grid.count == TIME_POINTS_LIMIT == 2**20


def test_csv_rows_are_written_as_fmt_writes_each_value(tmp_path):
    values = (0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, 5e-324, 1.0 / 3.0,
              np.float64(0.1), np.float64(-0.0), np.float64(math.nan), np.float64(5e-324))
    # t and t_raw come as _fmt cells; x, y and w are live columns, z a tuple outside the space
    rows = [(scenario._fmt(v), v, -v, np.float64(v) * 2.0, scenario._fmt(-v)) for v in values]
    path = tmp_path / "edge.csv"
    line = scenario._line_format([True, True, False, True], "kraus")
    scenario._write_csv(path, ["t", "x", "y", "z", "w", "t_raw", "route"], line, rows)
    want = "t,x,y,z,w,t_raw,route\n" + "".join(
        ",".join([t_s, scenario._fmt(x), scenario._fmt(y), "0", scenario._fmt(w), t_r, "kraus"]) + "\n"
        for t_s, x, y, w, t_r in rows)
    assert path.read_text(encoding="utf-8") == want
    assert want.splitlines()[2].split(",")[1:5] == ["-0", "0", "0", "-0"]  # a live -0.0 keeps its sign


def _reference_series(cfg, mix, route, name):
    """One route's series of one observable, one observable and one state at a time: T rows of columns."""
    space = build_space(cfg)
    rho0 = build_initial_state(cfg, space)
    times = np.linspace(cfg.time_grid.start, cfg.time_grid.stop, cfg.time_grid.count)
    model = build_decay_model(space) if mix is None else build_mixed_model(space, mix)
    phi = mix.phi if mix is not None else 0.0
    omegas = {} if name == "occupations" else {name: quadratic_omegas(space.n_modes, phi)[name]}
    if route == "heisenberg":
        return [[v] for v in mean_quadratic_trajectories(model, rho0, omegas, times)[name]]
    keep = lambda support, stacks, basis: (support, list(stacks), basis)  # noqa: E731
    if route == "kraus":
        support, stacks, basis = evolve_state(model, rho0, times, keep)
    else:
        support, stacks, basis = integrate(build_generator(model), rho0, times, scenario._ode_step(cfg), keep)
    alone = [read_series(support, iter([state[None]]), basis, omegas=omegas, diagonal=name == "occupations")
             for stack in stacks for state in stack]
    if name != "occupations":
        return [[values[name][0]] for values, _ in alone]
    _, from_s = scenario._occupation_columns(space)
    return [np.append(diagonals[0], 0.0)[from_s] for _, diagonals in alone]


@pytest.mark.parametrize("overrides", [
    {"modes": [{"statistics": "boson", "mass": 0.1, "width": 0.5, "cutoff": 3},
               {"statistics": "boson", "mass": 5.0, "width": 1.5, "cutoff": 3}],
     "mixing": {"theta": [0.4, 1.2], "phi": 0.3},
     "initial_state": {"type": "number", "occupations": [2, 1]},
     "observables": ["N", "S", "Qplus", "Qminus", "occupations"]},
    {"modes": [{"statistics": "boson", "mass": 0.3, "width": 1.0, "cutoff": 4},
               {"statistics": "boson", "mass": 0.0, "width": 0.5, "cutoff": 4}],
     "initial_state": {"type": "coherent", "mode": 1, "alpha": 0.05},
     "observables": ["occupations", "N"]},
], ids=["mixed-sweep", "coherent"])
def test_each_csv_is_its_series_written_row_by_row(tmp_path, overrides):
    doc = make_config(time_grid={"start": 0.0, "stop": 1.0, "count": 11},
                      routes=["kraus", "ode", "heisenberg"], **overrides)
    cfg = parse_config(json.dumps(doc))
    result = run_scenario(cfg, out_dir=tmp_path)
    sweep = list(cfg.mixing) if cfg.mixing else [None]
    times = np.linspace(cfg.time_grid.start, cfg.time_grid.stop, cfg.time_grid.count)
    t_scaled = times * scenario._mean_width(cfg.modes) if cfg.mixing else times
    seen = 0
    for ti, mix in enumerate(sweep):
        tag = f"__theta{ti}" if len(sweep) > 1 else ""
        for route in cfg.routes:
            for name in cfg.observables:
                path = tmp_path / f"{cfg.name}{tag}__{route}__{name}.csv"
                if route == "heisenberg" and name == "occupations":
                    assert not path.exists()
                    continue
                rows = _reference_series(cfg, mix, route, name)
                lines = path.read_text(encoding="utf-8").splitlines()[1:]
                assert lines == [",".join([scenario._fmt(t_s), *map(scenario._fmt, row), scenario._fmt(t_r),
                                           route]) for t_s, row, t_r in zip(t_scaled, rows, times)]
                if name == "occupations":  # the tuples outside the run's space print 0
                    header, cells = read_csv(path)
                    outside = [i for i, col in enumerate(header)
                               if col.startswith("p_")
                               and sum(map(int, col[2:].split("_"))) > build_space(cfg).total]
                    assert outside and all(row[i] == "0" for row in cells for i in outside)
                seen += 1
    assert seen == len(result.csv_paths)


def test_a_failed_run_writes_nothing(tmp_path, monkeypatch, capsys):
    # a rerun with other masses fails at its second angle: the first angle's CSVs and the
    # old manifest stay as the first run wrote them
    out = tmp_path / "out"
    config = tmp_path / "sweep.json"
    doc = make_config(
        name="sweep",
        modes=[{"statistics": "boson", "mass": 0.0, "width": 0.5, "cutoff": 2},
               {"statistics": "boson", "mass": 5.0, "width": 1.5, "cutoff": 2}],
        mixing={"theta": [0.3, 0.9]},
        initial_state={"type": "number", "occupations": [1, 1]},
        time_grid={"start": 0.0, "stop": 1.0, "count": 6},
        routes=["kraus", "heisenberg"], observables=["N", "S"], output_path=str(out))
    config.write_text(json.dumps(doc))
    assert main(["run", str(config)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(before) == 9
    doc["modes"][1]["mass"] = 3.0
    config.write_text(json.dumps(doc))

    calls = []
    build = scenario.build_mixed_model

    def failing_on_the_second_angle(space, mix):
        calls.append(mix)
        if len(calls) == 2:
            raise InvariantViolation("model breach at the second angle")
        return build(space, mix)

    monkeypatch.setattr(scenario, "build_mixed_model", failing_on_the_second_angle)
    capsys.readouterr()
    assert main(["run", str(config)]) == 2
    assert "model breach at the second angle" in capsys.readouterr().err
    assert len(calls) == 2
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
