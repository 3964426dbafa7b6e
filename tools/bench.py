"""Write BENCH_<N>.json: the benchmark workloads and the shipped configs, timed on one checkout.

    python3 tools/bench.py --pr N [--root CHECKOUT] [--parent PARENT]

The file holds:

- ``environment``: the ``# environment`` line of the first benchmark run
  (host, CPU count, Python, numpy, scipy, BLAS and its thread count, the
  commit and a digest of ``src/fockdecay``), plus ``source_committed``:
  whether ``src/`` matched that commit, per ``git status``.  When it did not,
  ``commit`` is null, the checked-out commit is kept as ``base_commit``, and
  a warning goes to standard error: the numbers belong to no commit, only to
  the digest;
- ``perfbench``: for each workload in ``WORKLOADS`` and each seed in
  ``SEEDS``, the last line of ``perfbench/run.py --workload W --seed K
  --seconds SECONDS --trace 0``, run as a subprocess of CHECKOUT (its
  end-to-end metrics, ``attempted`` and ``failed``).  Every such run reads
  and writes its bytecode in one ``PYTHONPYCACHEPREFIX`` made for the call
  (``PYTHONDONTWRITEBYTECODE`` unset), which one untimed run per checkout
  fills first: each recorded run reads the stdlib, numpy and both
  checkouts compiled, and none reads a checkout's own ``__pycache__``;
- ``perfbench_parent``, with ``--parent``: the same runs of PARENT's
  perfbench, each (workload, seed) run on both sides back to back, the
  side that runs first alternating from one pair to the next, so that the
  two lists can be compared pair by pair on the same machine state.
  ``peak_rss_mb`` moves with the length of the checkout's path, so a
  revision PARENT is extracted to a path as long as CHECKOUT's, and the
  script exits with an error where the temporary directory cannot give that
  length (CHECKOUT's path must be at least 2 characters longer); a directory
  PARENT runs where it is, with a warning when its path has another length;
- ``comparison``, with ``--parent``: for each workload and each
  end-to-end metric of this script's checkout's ``BENCHMARK.json``, the two medians, the
  parent's quartile distance, the change's wins out of the pairs, the
  allowance the bound gives and a verdict (see :func:`comparison`);
- ``configs``: for each ``configs/*.json`` of CHECKOUT, the wall time of
  ``REPS`` warm ``run_scenario`` calls (after one untimed call) and their
  median, in a fresh interpreter with BLAS pinned to one thread;
- ``outputs``, with ``--parent``: ``tools/compare_outputs.py run`` on PARENT
  and on CHECKOUT, then ``diff`` of the two (see ``output_diff``).  PARENT
  is a checkout, or a git revision of CHECKOUT that is extracted with ``git
  archive`` for the run;
- ``src_lines``: the count of non-blank lines of ``src/fockdecay/*.py`` in
  CHECKOUT that are not comment-only lines (docstrings count), and with
  ``--parent`` the same count of PARENT as ``outputs.parent_src_lines``;
- ``test_lines``: the same count over ``tests/*.py``, and with ``--parent``
  PARENT's as ``outputs.parent_test_lines``, so that code moved between the
  library and its tests shows on both sides;
- ``tier1``: the Tier-1 suite, ``TIER1`` run in CHECKOUT with ``src`` on
  ``PYTHONPATH``: its wall time, exit code, summary line, the counts and
  duration read from that line, and ``slowest``, its ten slowest tests.

CHECKOUT defaults to the checkout holding this script; the file is written there.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("oracle", "sweep", "multimode")
SEEDS = tuple(range(1, 11))  # ten pairs with --parent, the fewest that can show a gain
SECONDS = 6.0
REPS = 3
PIN_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CAP_SECONDS = 600
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=10")
COMPARE = Path(__file__).resolve().parent / "compare_outputs.py"
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"  # the end-to-end metrics and their bounds

# argv: source checkout, warm repetitions; prints {config name: [seconds, ...]}
CONFIG_CHILD = """
import json, sys, tempfile, time
from pathlib import Path
sys.path.insert(0, sys.argv[1] + "/src")
from fockdecay.scenario import parse_config, run_scenario
walls = {}
for path in sorted(Path(sys.argv[1], "configs").glob("*.json")):
    cfg = parse_config(path.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as out:
        run_scenario(cfg, out_dir=out)
        walls[cfg.name] = []
        for _ in range(int(sys.argv[2])):
            start = time.perf_counter()
            run_scenario(cfg, out_dir=out)
            walls[cfg.name].append(time.perf_counter() - start)
print(json.dumps(walls))
"""


def _child(args: list[str], cwd: Path, **env: str | None) -> list[str]:
    """Standard output lines of a Python subprocess with BLAS on one thread and ``env`` set, a
    variable given as None unset; it must exit 0."""
    env = {k: v for k, v in dict(os.environ, **PIN_ONE_THREAD, **env).items() if v is not None}
    done = subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          env=env, timeout=CAP_SECONDS)
    if done.returncode != 0:
        tail = (done.stderr.strip().splitlines() or ["(no output)"])[-1]
        raise RuntimeError(f"{' '.join(args[:2])} exited {done.returncode}: {tail}")
    return done.stdout.splitlines()


def _source_committed(root: Path) -> bool | None:
    try:
        done = subprocess.run(["git", "-C", str(root), "status", "--porcelain", "--", "src"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() == "" if done.returncode == 0 else None


def bench(root: Path, workloads: list[str], seeds: list[int], seconds: float, reps: int,
          parent: str | None = None) -> dict:
    environment = None
    runs, parent_runs = [], []
    with tempfile.TemporaryDirectory() as tmp:
        sides = [(root, runs)]
        if parent is not None:
            checkout = _parent_checkout(root, parent, Path(tmp))[0]
            if len(str(checkout)) != len(str(root)):
                print(f"warning: PARENT runs at {checkout} ({len(str(checkout))} characters) and CHECKOUT "
                      f"at {root} ({len(str(root))}); peak_rss_mb moves with the path's length",
                      file=sys.stderr)
            sides.append((checkout, parent_runs))
        bytecode = {"PYTHONDONTWRITEBYTECODE": None, "PYTHONPYCACHEPREFIX": str(Path(tmp) / "pycache")}

        def perfbench(checkout: Path, workload: str, seed: int, seconds: float) -> list[str]:
            return _child(["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"], checkout, **bytecode)

        for checkout, _ in sides:  # untimed: compiles what the recorded runs read
            perfbench(checkout, workloads[0], seeds[0], 0)
        for k, (workload, seed) in enumerate(itertools.product(workloads, seeds)):
            for checkout, into in sides[::-1] if k % 2 else sides:
                lines = perfbench(checkout, workload, seed, seconds)
                if environment is None and into is runs:
                    env_line = next(ln for ln in lines if ln.startswith("# environment "))
                    environment = json.loads(env_line.split(" ", 2)[2])
                into.append({"workload": workload, "seed": seed, "seconds": seconds,
                             "result": json.loads(lines[-1])})
    walls = json.loads(_child(["-c", CONFIG_CHILD, str(root), str(reps)], root)[-1])
    environment["source_committed"] = _source_committed(root)
    if environment["source_committed"] is not True:
        environment["base_commit"], environment["commit"] = environment["commit"], None
        print(f"warning: src/ of {root} is not a committed tree; BENCH names no commit, "
              f"only src_sha256 {environment['src_sha256']}", file=sys.stderr)
    return {
        "environment": environment,
        "perfbench": runs,
        **({"perfbench_parent": parent_runs} if parent is not None else {}),
        "configs": [{"config": name, "warm_run_s": times, "median_s": statistics.median(times)}
                    for name, times in walls.items()],
    }


def comparison(runs: list[dict], parent_runs: list[dict], end_to_end: list[dict]) -> list[dict]:
    """Per workload and end-to-end metric (each a ``BENCHMARK.json`` entry with its
    ``name``, ``better`` and relative ``bound``), the paired perfbench runs of the
    change and of the parent compared: both medians, the parent's quartile
    distance, the pairs the change wins (ties win for neither), the
    ``allowance`` = bound x |parent median| in the metric's unit, and a
    verdict: "worse" when the change's median is worse than the parent's by
    more than the allowance; otherwise "unresolved" when that distance exceeds
    the allowance, unless every change run beats every parent run; else
    "within bound"."""
    out = []
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs = [(c["result"]["metrics"], p["result"]["metrics"]) for c, p in zip(runs, parent_runs)
                 if c["workload"] == workload]
        for metric in end_to_end:
            name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
            change = [sign * c[name]["value"] for c, _ in pairs]  # lower is better on this scale
            parent = [sign * p[name]["value"] for _, p in pairs]
            q1, _, q3 = statistics.quantiles(parent, n=4)
            median_c, median_p = statistics.median(change), statistics.median(parent)
            scale = metric["bound"] * abs(median_p)
            if median_c - median_p > scale:
                verdict = "worse"
            elif q3 - q1 > scale and not max(change) < min(parent):
                verdict = "unresolved"
            else:
                verdict = "within bound"
            out.append({"workload": workload, "metric": name, "change_median": sign * median_c,
                        "parent_median": sign * median_p, "parent_quartile_distance": q3 - q1,
                        "wins": sum(c < p for c, p in zip(change, parent)), "pairs": len(pairs),
                        "allowance": scale, "verdict": verdict})
    return out


def code_lines(folder: Path) -> int:
    """Non-blank lines of ``folder``'s ``*.py`` that are not comment-only lines."""
    return sum(1 for path in sorted(folder.glob("*.py"))
               for line in path.read_text(encoding="utf-8").splitlines()
               if line.strip() and not line.lstrip().startswith("#"))


def src_lines(root: Path) -> int:
    """:func:`code_lines` of ``root``'s ``src/fockdecay``."""
    return code_lines(root / "src" / "fockdecay")


def _parent_checkout(root: Path, parent: str, tmp: Path) -> tuple[Path, str | None]:
    """PARENT itself when it is a directory, else git revision PARENT of ``root``
    extracted into a new directory of ``tmp`` whose path is as long as
    ``root``'s; with its commit (None when git cannot name it).  Where no
    name in ``tmp`` gives that length, it exits with an error naming both."""
    if Path(parent).is_dir():
        return Path(parent).resolve(), _rev_parse(Path(parent), "HEAD")
    name = len(str(root)) - len(str(tmp)) - 1
    if not 1 <= name <= 255:
        raise SystemExit(f"tools/bench.py: PARENT cannot be extracted to a path as long as CHECKOUT's: {root} has "
                         f"{len(str(root))} characters, and a directory of {tmp} has {len(str(tmp)) + 2} to "
                         f"{len(str(tmp)) + 256}; peak_rss_mb moves with the path's length")
    dest = tmp / ("p" * name)
    dest.mkdir()
    tar = subprocess.run(["git", "-C", str(root), "archive", "--format=tar", parent],
                         capture_output=True, check=True, timeout=CAP_SECONDS).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True, timeout=CAP_SECONDS)
    return dest, _rev_parse(root, parent)


def _rev_parse(repo: Path, revision: str) -> str | None:
    done = subprocess.run(["git", "-C", str(repo), "rev-parse", revision],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else None


def diff_report(a: Path, b: Path) -> dict:
    """``tools/compare_outputs.py diff A B`` as a dict: its exit code, the max abs CSV
    diff per route, and the counts of byte-equal CSVs and of manifests whose lines
    other than ``timestamp=`` are identical, each out of all such files."""
    done = subprocess.run([sys.executable, str(COMPARE), "diff", str(a), str(b)],
                          capture_output=True, text=True, timeout=CAP_SECONDS)
    routes = re.findall(r"^route (\S+): max_abs_diff=(\S+)$", done.stdout, re.M)
    counts = re.search(r"^summary: (\d+) of (\d+) CSVs byte-equal, (\d+) of (\d+) manifests",
                       done.stdout, re.M)
    keys = ("csvs_byte_equal", "csvs", "manifests_identical", "manifests")
    return {"exit_code": done.returncode,
            "max_abs_diff": {route: float(dev) for route, dev in routes},
            **dict(zip(keys, map(int, counts.groups()) if counts else (None,) * 4))}


def output_diff(root: Path, parent: str) -> dict:
    """The outputs of ``compare_outputs.py run`` on the parent and on ``root``, compared
    by :func:`diff_report`, with the parent's commit (None when it has no git), its
    :func:`src_lines` and the :func:`code_lines` of its ``tests``."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        checkout, commit = _parent_checkout(root, parent, tmp)
        for name, source in (("parent", checkout), ("change", root)):
            _child([str(COMPARE), "run", str(tmp / f"out-{name}"), "--root", str(source)], root)
        return {"parent_commit": commit, "parent_src_lines": src_lines(checkout),
                "parent_test_lines": code_lines(checkout / "tests"),
                **diff_report(tmp / "out-parent", tmp / "out-change")}


def summary_counts(line: str) -> dict:
    """Counts and duration of a pytest summary line, such as
    ``== 1 failed, 274 passed, 2 warnings in 9.75s (0:00:09) ==``, keyed
    ``passed``, ``failed``, ... and ``seconds`` (None on a line without one)."""
    counts = {word: int(n) for n, word in re.findall(r"(\d+) ([a-z]+)", line.split(" in ")[0])}
    found = re.search(r" in ([0-9.]+)s\b", line)
    counts["seconds"] = float(found.group(1)) if found else None
    return counts


def slowest_tests(stdout: str) -> list[dict]:
    """The rows of pytest's ``slowest N durations`` block, such as ``4.62s call
    tests/test_config.py::test_x``, as ``{test, when, seconds}``, slowest first."""
    block = stdout.partition(" durations ==")[2]
    return [{"test": test, "when": when, "seconds": float(seconds)}
            for seconds, when, test in re.findall(r"^([0-9.]+)s (\w+) +(\S+)$", block, re.M)]


def tier1(root: Path) -> dict:
    """Wall time, exit code, summary and slowest tests of one Tier-1 run of ``root``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=root, capture_output=True, text=True,
                          env=env, timeout=CAP_SECONDS)
    wall = time.perf_counter() - start
    summary = (done.stdout.strip().splitlines() or [""])[-1]
    return {"command": ["python", *TIER1], "wall_s": wall, "exit_code": done.returncode,
            "summary": summary, **summary_counts(summary), "slowest": slowest_tests(done.stdout)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tools/bench.py", description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="number N of BENCH_<N>.json")
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="source checkout to run (default: this script's)")
    parser.add_argument("--parent", help="checkout, or git revision of CHECKOUT, whose outputs "
                                         "CHECKOUT's are compared with")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    doc = {"pr": args.pr,
           "command": ["tools/bench.py", *(sys.argv[1:] if argv is None else argv)],
           **bench(root, list(WORKLOADS), list(SEEDS), SECONDS, REPS, args.parent)}
    doc["src_lines"], doc["test_lines"] = src_lines(root), code_lines(root / "tests")
    if args.parent is not None:
        bounds = json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
        doc["comparison"] = comparison(doc["perfbench"], doc.get("perfbench_parent", []), bounds)
        doc["outputs"] = output_diff(root, args.parent)
    doc["tier1"] = tier1(root)
    path = root / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
