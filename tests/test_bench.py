import importlib.util
import json
import os
import re
import statistics
import subprocess
from pathlib import Path

import pytest

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


def test_tier1_slowest_tests_are_read_from_the_durations_block():
    stdout = "\n".join([
        "........................................................................ [ 85%]",
        "=========================== slowest 10 durations ============================",
        "4.62s call     tests/test_config.py::test_steps_for_counts_and_refuses_as_numpy_did",
        "0.31s setup    tests/test_cli_fuzz.py::test_mutated_configs_end_in_a_coded_exit[3]",
        "",
        "(8 durations < 0.005s hidden.  Use -vv to show these durations.)",
        "423 passed in 20.43s",
    ])
    assert bench.slowest_tests(stdout) == [
        {"test": "tests/test_config.py::test_steps_for_counts_and_refuses_as_numpy_did", "when": "call",
         "seconds": 4.62},
        {"test": "tests/test_cli_fuzz.py::test_mutated_configs_end_in_a_coded_exit[3]", "when": "setup",
         "seconds": 0.31},
    ]
    assert bench.summary_counts(stdout.splitlines()[-1]) == {"passed": 423, "seconds": 20.43}
    assert bench.slowest_tests("423 passed in 20.43s") == []


def test_src_lines_counts_code_and_docstrings_but_not_blanks_or_comments(tmp_path):
    pkg = tmp_path / "src" / "fockdecay"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text('"""Doc."""\n\n# comment\n    # indented comment\nx = 1  # trailing\n   \n')
    (pkg / "b.py").write_text("def f():\n    return 2\n")
    (pkg / "notes.txt").write_text("not python\n")
    assert bench.src_lines(tmp_path) == 4
    assert bench.src_lines(ROOT) > 0
    # the tests are counted by the same rule, each folder's own files alone
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text("# comment\n\nassert True\n")
    assert bench.code_lines(tmp_path / "tests") == 1 and bench.src_lines(tmp_path) == 4
    assert bench.code_lines(ROOT / "tests") > 0


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
    seen, output_diff = [], bench.output_diff
    monkeypatch.setattr(bench, "bench", lambda root, *args: {"perfbench": []})
    monkeypatch.setattr(bench, "tier1", lambda root: {"exit_code": 0})
    monkeypatch.setattr(bench, "output_diff", lambda root, parent: seen.append(parent) or {"csvs": 0})
    (tmp_path / "src" / "fockdecay").mkdir(parents=True)
    (tmp_path / "src" / "fockdecay" / "m.py").write_text("x = 1\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_m.py").write_text("def test_m():\n    assert True\n")
    for extra, outputs in (([], None), (["--parent", "HEAD~1"], {"csvs": 0})):
        assert bench.main(["--pr", "0", "--root", str(tmp_path), *extra]) == 0
        doc = json.loads((tmp_path / "BENCH_0.json").read_text(encoding="utf-8"))
        assert doc.get("outputs") == outputs and doc["tier1"] == {"exit_code": 0}
        assert (doc["src_lines"], doc["test_lines"]) == (1, 2)
    assert seen == ["HEAD~1"]
    # the parent's counts go into its outputs block
    monkeypatch.setattr(bench, "_parent_checkout", lambda root, parent, tmp: (tmp_path, "c"))
    monkeypatch.setattr(bench, "_child", lambda args, cwd, **env: [])
    monkeypatch.setattr(bench, "diff_report", lambda a, b: {"csvs": 0})
    assert output_diff(ROOT, "HEAD~1") == {"parent_commit": "c", "parent_src_lines": 1, "parent_test_lines": 2,
                                           "csvs": 0}
    assert bench._parent_checkout(ROOT, str(tmp_path), tmp_path / "unused")[0] == tmp_path.resolve()


def test_parent_perfbench_runs_pair_by_pair_alternating_which_side_runs_first(tmp_path, monkeypatch, capsys):
    parent = tmp_path / "parent"
    parent.mkdir()
    calls, prefixes = [], set()

    def child(args, cwd, **env):
        if args[0] != "perfbench/run.py":  # the shipped configs' warm times
            return [json.dumps({"single": [0.5]})]
        # every perfbench run reads and writes its bytecode in the one prefix of the bench
        assert env["PYTHONDONTWRITEBYTECODE"] is None and "PYTHONPYCACHEPREFIX" in env
        prefixes.add(env["PYTHONPYCACHEPREFIX"])
        calls.append((args[2], int(args[4]), float(args[6]), Path(cwd)))
        env = {"commit": "c", "src_sha256": "s", "side": str(cwd)}
        return ["# environment " + json.dumps(env), json.dumps({"side": str(cwd), "seconds": args[6]})]

    monkeypatch.setattr(bench, "_child", child)
    doc = bench.bench(ROOT, ["oracle", "sweep"], [1, 2], 5, 1, str(parent))
    pairs = [("oracle", 1), ("oracle", 2), ("sweep", 1), ("sweep", 2)]
    sides = [ROOT, parent.resolve()]
    # one untimed run per side first, then the pairs; only the pairs are recorded
    assert calls == [("oracle", 1, 0, side) for side in sides] + [
        (w, k, 5, side) for i, (w, k) in enumerate(pairs) for side in sides[::(-1) ** i]]
    for key, side in (("perfbench", ROOT), ("perfbench_parent", parent.resolve())):
        assert [(r["workload"], r["seed"]) for r in doc[key]] == pairs
        assert all(r["result"] == {"side": str(side), "seconds": "5"} for r in doc[key])
    assert doc["environment"]["side"] == str(ROOT)  # the environment is CHECKOUT's, not PARENT's
    assert len(prefixes) == 1 and not any(map(os.path.exists, prefixes))
    if len(str(parent.resolve())) != len(str(ROOT)):  # a directory PARENT runs where it is
        assert "warning: PARENT runs at" in capsys.readouterr().err
    calls.clear()
    assert "perfbench_parent" not in bench.bench(ROOT, ["oracle"], [1], 0, 1)
    assert calls == [("oracle", 1, 0, ROOT)] * 2
    assert len(prefixes) == 2  # a prefix per bench


def test_a_child_runs_without_the_variables_given_as_none(monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    show = "import os, sys; print(os.environ.get('PYTHONDONTWRITEBYTECODE'), sys.dont_write_bytecode)"
    assert bench._child(["-c", show], ROOT) == ["1 True"]
    assert bench._child(["-c", show], ROOT, PYTHONDONTWRITEBYTECODE=None) == ["None False"]


def test_a_revision_parent_is_extracted_to_a_path_as_long_as_the_checkout(tmp_path, monkeypatch, capsys):
    # a checkout whose path is longer than a temporary directory's, with one commit
    root = tmp_path / ("checkout-" + "x" * 40)
    (root / "src").mkdir(parents=True)
    (root / "src" / "m.py").write_text("x = 1\n")
    git = ["git", "-C", str(root), "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "one"]):
        subprocess.run(git + args, check=True, capture_output=True)
    short = tmp_path / "t"
    short.mkdir()
    dest, commit = bench._parent_checkout(root, "HEAD", short)
    assert len(str(dest)) == len(str(root)) and dest.parent == short
    assert (dest / "src" / "m.py").read_text() == "x = 1\n" and commit == bench._rev_parse(root, "HEAD")
    # a temporary directory too long to match is an error naming both lengths, and no run is made
    long = tmp_path / ("t" * 60)
    long.mkdir()
    with pytest.raises(SystemExit, match=rf"{re.escape(str(root))} has {len(str(root))} characters, "
                                         rf"and a directory of {re.escape(str(long))} has {len(str(long)) + 2} "):
        bench._parent_checkout(root, "HEAD", long)
    assert list(long.iterdir()) == []

    def child(args, cwd, **env):
        if args[0] != "perfbench/run.py":
            return [json.dumps({})]
        lengths.append(len(str(cwd)))
        return ["# environment " + json.dumps({"commit": "c", "src_sha256": "s"}), json.dumps({"failed": 0})]

    monkeypatch.setattr(bench, "_child", child)
    monkeypatch.setattr(bench.tempfile, "tempdir", str(short))
    lengths = []
    bench.bench(root, ["oracle"], [1], 0, 1, "HEAD")
    assert lengths[0] == lengths[1] and "warning: PARENT runs at" not in capsys.readouterr().err
    monkeypatch.setattr(bench.tempfile, "tempdir", str(long))
    lengths = []
    with pytest.raises(SystemExit, match="cannot be extracted to a path as long as CHECKOUT's"):
        bench.bench(root, ["oracle"], [1], 0, 1, "HEAD")
    assert lengths == []


def _line(run_s, digits):
    """A perfbench result line as the runs print it, with two of the metrics."""
    return json.loads(json.dumps({"correct": True, "attempted": 5, "failed": 0, "metrics": {
        "run_s": {"value": run_s, "unit": "s"}, "max_route_dev_digits": {"value": digits, "unit": "digits"}}}))


def test_the_comparison_gives_each_metric_its_verdict():
    bounds = [{"name": "run_s", "better": "lower", "bound": 0.24},
              {"name": "max_route_dev_digits", "better": "higher", "bound": 0.1}]

    def runs(workload, values):
        return [{"workload": workload, "seed": k, "result": _line(*v)} for k, v in enumerate(values, 1)]

    steady = [(0.020 + 0.0001 * k, 14.0 + 0.01 * k) for k in range(10)]
    # a parent whose run_s spreads wider than the bound: a change inside that spread is unresolved,
    # a change whose every run beats every parent run is not, and nor is one whose median is worse
    # by more than the bound
    wide = [(0.015 + 0.002 * k, 14.0) for k in range(10)]
    parent = runs("oracle", steady) + runs("sweep", wide) + runs("multimode", wide) + runs("slow", wide)
    change = (runs("oracle", [(1.3 * t, d - 0.05) for t, d in steady]) + runs("sweep", wide)
              + runs("multimode", [(0.010, 14.0)] * 10) + runs("slow", [(t + 0.01, d) for t, d in wide]))
    got = {(c["workload"], c["metric"]): c for c in bench.comparison(change, parent, bounds)}
    assert len(got) == 8 and all(c["pairs"] == 10 for c in got.values())
    slow = got[("slow", "run_s")]
    assert slow["parent_quartile_distance"] > 0.24 * slow["parent_median"]
    assert slow["verdict"] == "worse" and slow["wins"] == 0
    assert got[("oracle", "run_s")]["verdict"] == "worse" and got[("oracle", "run_s")]["wins"] == 0
    assert got[("oracle", "run_s")]["parent_median"] == statistics.median(t for t, _ in steady)
    # 0.05 fewer digits, within 10% of 14
    assert got[("oracle", "max_route_dev_digits")]["verdict"] == "within bound"
    assert got[("oracle", "max_route_dev_digits")]["change_median"] == statistics.median(d - 0.05 for _, d in steady)
    assert got[("sweep", "run_s")]["verdict"] == "unresolved" and got[("sweep", "run_s")]["wins"] == 0
    assert got[("sweep", "run_s")]["parent_quartile_distance"] > 0.24 * got[("sweep", "run_s")]["parent_median"]
    assert got[("multimode", "run_s")]["verdict"] == "within bound" and got[("multimode", "run_s")]["wins"] == 10
    # ties win for neither side, and a steady metric is resolved
    assert got[("sweep", "max_route_dev_digits")] == {
        "workload": "sweep", "metric": "max_route_dev_digits", "change_median": 14.0, "parent_median": 14.0,
        "parent_quartile_distance": 0.0, "wins": 0, "pairs": 10, "allowance": 0.1 * 14.0,
        "verdict": "within bound"}
    # the allowance is the bound times the parent's median, in the metric's unit
    assert got[("oracle", "run_s")]["allowance"] == 0.24 * statistics.median(t for t, _ in steady)


def test_the_comparison_of_captured_runs_finds_the_oracle_run_time_unresolved():
    # BENCH_26.json's twenty oracle runs: the parent's run_s spreads 5.9 ms on a 21.4 ms median,
    # wider than the 24% bound, and the change won 2 of 10 pairs
    doc = json.loads((ROOT / "BENCH_26.json").read_text(encoding="utf-8"))
    bounds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    got = {(c["workload"], c["metric"]): c for c in bench.comparison(doc["perfbench"], doc["perfbench_parent"], bounds)}
    oracle = got[("oracle", "run_s")]
    assert oracle["verdict"] == "unresolved" and oracle["wins"] == 2
    assert round(oracle["parent_quartile_distance"], 4) == 0.0059 and round(oracle["parent_median"], 4) == 0.0214
    assert got[("oracle", "setup_s")]["verdict"] == "within bound"  # 18 ms on 82 ms, inside its 25%
