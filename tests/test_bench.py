import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def test_bench_gives_one_result_per_workload_and_seed_and_each_config_time():
    doc = bench.bench(ROOT, ["multimode"], [1], 0, 1)
    env = doc["environment"]
    assert {"python", "numpy", "scipy", "blas_threads", "src_sha256", "source_committed"} <= set(env)
    # a run of an uncommitted src/ names no commit
    assert (env["commit"] is None) == (env["source_committed"] is not True)
    [run] = doc["perfbench"]
    assert (run["workload"], run["seed"]) == ("multimode", 1)
    assert run["result"]["correct"] and run["result"]["failed"] == 0
    assert set(run["result"]["metrics"]) == {"run_s", "setup_s", "peak_rss_mb", "max_route_dev_digits"}
    shipped = sorted(json.loads(p.read_text(encoding="utf-8"))["name"]
                     for p in (ROOT / "configs").glob("*.json"))
    assert [c["config"] for c in doc["configs"]] == shipped
    for c in doc["configs"]:
        assert len(c["warm_run_s"]) == 1 and c["median_s"] > 0


def test_tier1_counts_are_read_from_the_pytest_summary_line():
    assert bench.summary_counts("275 passed in 9.75s") == {"passed": 275, "seconds": 9.75}
    line = "==== 1 failed, 273 passed, 1 skipped, 2 warnings in 65.20s (0:01:05) ===="
    assert bench.summary_counts(line) == {"failed": 1, "passed": 273, "skipped": 1, "warnings": 2,
                                          "seconds": 65.2}
    assert bench.summary_counts("no tests ran") == {"seconds": None}
