"""Self-tests of the benchmark: python3 -m pytest perfbench

They run every workload at a tiny size, so they check the harness, not
the timings.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import fockdecay.scenario as scenario  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tiny(workload: str, seed: int, trace: bool) -> dict:
    out = harness.run_benchmark(workload, seed, seconds=0.0, trace=trace, root=ROOT,
                                tiny=True, setup_reps=1)
    assert out["summary"]["problems"] == []
    return out["result"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_pass_emits_every_named_metric_with_its_unit(workload, trace):
    result = _tiny(workload, seed=1, trace=trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in named}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_workloads_match_the_benchmark_file():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_work_counts_repeat_across_seeds(workload):
    first, second = (_tiny(workload, seed, trace=True)["metrics"] for seed in (1, 2))
    for key in harness.WORK_COUNTS:
        assert first[key]["value"] == second[key]["value"], key
    docs = [workloads.make_config(workload, seed, "out") for seed in (1, 2)]
    assert docs[0] != docs[1]


def test_gate_flags_a_perturbed_csv_value(tmp_path):
    doc = workloads.make_config("oracle", 3, str(tmp_path / "out"), tiny=True)
    cfg = scenario.parse_config(json.dumps(doc))
    result = scenario.run_scenario(cfg)
    problems, reference, _ = harness.gate(result, None)
    assert problems == [] and harness.check_series(reference, doc) == []

    rerun = scenario.run_scenario(cfg)
    assert harness.gate(rerun, reference)[0] == []

    path = next(p for p in rerun.csv_paths if p.name.endswith("__kraus__S.csv"))
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[2].split(",")
    cells[1] = repr(float(cells[1]) + 1e-6)
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    problems, snap, _ = harness.gate(rerun, reference)
    assert problems == [f"outputs differ from the first run: {path.name}"]
    assert any("kraus and ode differ" in p for p in harness.check_series(snap, doc))
