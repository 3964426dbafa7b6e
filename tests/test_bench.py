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


def _run_dir(root: Path, value: str, timestamp: str) -> Path:
    run = root / "single"
    run.mkdir(parents=True)
    (run / "single__kraus__N.csv").write_text(f"time,route,N\n0.0,kraus,1.0\n0.5,kraus,{value}\n")
    (run / "single__heisenberg__N.csv").write_text("time,route,N\n0.0,heisenberg,1.0\n")
    (run / "single__manifest.txt").write_text(f"name=single\ntimestamp={timestamp}\nstatus=ok\n")
    return root


def test_diff_report_reads_the_max_diff_per_route_and_the_equal_counts(tmp_path):
    a = _run_dir(tmp_path / "a", "0.25", "t0")
    b = _run_dir(tmp_path / "b", "0.375", "t1")
    assert bench.diff_report(a, b) == {
        "exit_code": 0, "max_abs_diff": {"heisenberg": 0.0, "kraus": 0.125},
        "csvs_byte_equal": 1, "csvs": 2, "manifests_identical": 1, "manifests": 1}
    (b / "single" / "single__heisenberg__N.csv").unlink()
    report = bench.diff_report(a, b)
    assert report["exit_code"] == 1 and (report["csvs_byte_equal"], report["csvs"]) == (0, 2)


def test_parent_outputs_go_into_the_bench_file(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(bench, "bench", lambda root, *args: {"perfbench": []})
    monkeypatch.setattr(bench, "tier1", lambda root: {"exit_code": 0})
    monkeypatch.setattr(bench, "output_diff", lambda root, parent: seen.append(parent) or {"csvs": 0})
    for extra, outputs in (([], None), (["--parent", "HEAD~1"], {"csvs": 0})):
        assert bench.main(["--pr", "0", "--root", str(tmp_path), *extra]) == 0
        doc = json.loads((tmp_path / "BENCH_0.json").read_text(encoding="utf-8"))
        assert doc.get("outputs") == outputs and doc["tier1"] == {"exit_code": 0}
    assert seen == ["HEAD~1"]
    assert bench._parent_checkout(ROOT, str(tmp_path), tmp_path / "unused")[0] == tmp_path.resolve()
