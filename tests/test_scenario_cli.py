import json
import math
from pathlib import Path

import numpy as np
import pytest

from fockdecay import ConfigError, config_to_json, parse_config, run_scenario
from fockdecay.cli import main

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
    assert result.exit_code == 0
    header, rows = read_csv(tmp_path / "single_mode_decay__kraus__N.csv")
    assert header == ["t", "N", "t_raw", "route"]
    assert len(rows) == 101
    for row in rows:
        t, value = float(row[0]), float(row[1])
        assert abs(value - math.exp(-t)) <= 1e-12
    assert result.max_deviation <= 1e-8


def test_fig1_run_matches_mean_number_formula(tmp_path):
    cfg = parse_config((CONFIGS / "fig1_number.json").read_text())
    result = run_scenario(cfg, out_dir=tmp_path)
    assert result.exit_code == 0
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
    result = run_scenario(cfg, out_dir=tmp_path, routes=("kraus", "heisenberg"))
    assert result.exit_code == 0
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


def test_occupation_columns_sum_to_one(tmp_path):
    cfg = parse_config((CONFIGS / "single_mode_decay.json").read_text())
    run_scenario(cfg, out_dir=tmp_path, routes=("kraus",))
    header, rows = read_csv(tmp_path / "single_mode_decay__kraus__occupations.csv")
    p_cols = [i for i, name in enumerate(header) if name.startswith("p_")]
    assert len(p_cols) == 9
    for row in rows:
        total = sum(float(row[i]) for i in p_cols)
        assert total == pytest.approx(1.0, abs=1e-12)


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
    assert result.exit_code == 0
    assert result.max_deviation <= 1e-8
    _, rows = read_csv(tmp_path / "tri__heisenberg__N.csv")
    for row in rows:
        t = float(row[2])
        want = 2 * math.exp(-0.7 * t) + math.exp(-1.1 * t) + math.exp(-2.0 * t)
        assert abs(float(row[1]) - want) <= 1e-12


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
    assert result.exit_code == 0
    assert result.max_deviation <= 1e-8
    _, rows = read_csv(tmp_path / "ferm__kraus__S.csv")
    for row in rows:
        t = float(row[2])
        want = math.exp(-1.0 * t) - math.exp(-1.5 * t)
        assert abs(float(row[1]) - want) <= 1e-12


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
