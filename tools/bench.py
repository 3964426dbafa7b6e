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
  end-to-end metrics, ``attempted`` and ``failed``);
- ``configs``: for each ``configs/*.json`` of CHECKOUT, the wall time of
  ``REPS`` warm ``run_scenario`` calls (after one untimed call) and their
  median, in a fresh interpreter with BLAS pinned to one thread;
- ``outputs``, with ``--parent``: ``tools/compare_outputs.py run`` on PARENT
  and on CHECKOUT, then ``diff`` of the two (see ``output_diff``).  PARENT
  is a checkout, or a git revision of CHECKOUT that is extracted with ``git
  archive`` for the run;
- ``tier1``: the Tier-1 suite, ``TIER1`` run in CHECKOUT with ``src`` on
  ``PYTHONPATH``: its wall time, exit code, summary line, and the counts and
  duration read from that line.

CHECKOUT defaults to the checkout holding this script; the file is written there.
"""
from __future__ import annotations

import argparse
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
SEEDS = (1, 2, 3)
SECONDS = 6.0
REPS = 3
PIN_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CAP_SECONDS = 600
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")
COMPARE = Path(__file__).resolve().parent / "compare_outputs.py"

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


def _child(args: list[str], cwd: Path) -> list[str]:
    """Standard output lines of a Python subprocess with BLAS on one thread; it must exit 0."""
    done = subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          env=dict(os.environ, **PIN_ONE_THREAD), timeout=CAP_SECONDS)
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


def bench(root: Path, workloads: list[str], seeds: list[int], seconds: float, reps: int) -> dict:
    environment = None
    runs = []
    for workload in workloads:
        for seed in seeds:
            lines = _child(["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", "0"], root)
            if environment is None:
                env_line = next(ln for ln in lines if ln.startswith("# environment "))
                environment = json.loads(env_line.split(" ", 2)[2])
            runs.append({"workload": workload, "seed": seed, "seconds": seconds,
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
        "configs": [{"config": name, "warm_run_s": times, "median_s": statistics.median(times)}
                    for name, times in walls.items()],
    }


def _parent_checkout(root: Path, parent: str, dest: Path) -> tuple[Path, str | None]:
    """PARENT itself when it is a directory, else git revision PARENT of ``root``
    extracted into ``dest``; with its commit (None when git cannot name it)."""
    if Path(parent).is_dir():
        return Path(parent).resolve(), _rev_parse(Path(parent), "HEAD")
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
    by :func:`diff_report`, with the parent's commit (None when it has no git)."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "parent").mkdir()
        checkout, commit = _parent_checkout(root, parent, tmp / "parent")
        for name, source in (("parent", checkout), ("change", root)):
            _child([str(COMPARE), "run", str(tmp / f"out-{name}"), "--root", str(source)], root)
        return {"parent_commit": commit, **diff_report(tmp / "out-parent", tmp / "out-change")}


def summary_counts(line: str) -> dict:
    """Counts and duration of a pytest summary line, such as
    ``== 1 failed, 274 passed, 2 warnings in 9.75s (0:00:09) ==``, keyed
    ``passed``, ``failed``, ... and ``seconds`` (None on a line without one)."""
    counts = {word: int(n) for n, word in re.findall(r"(\d+) ([a-z]+)", line.split(" in ")[0])}
    found = re.search(r" in ([0-9.]+)s\b", line)
    counts["seconds"] = float(found.group(1)) if found else None
    return counts


def tier1(root: Path) -> dict:
    """Wall time, exit code and summary of one Tier-1 run of ``root``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=root, capture_output=True, text=True,
                          env=env, timeout=CAP_SECONDS)
    wall = time.perf_counter() - start
    summary = (done.stdout.strip().splitlines() or [""])[-1]
    return {"command": ["python", *TIER1], "wall_s": wall, "exit_code": done.returncode,
            "summary": summary, **summary_counts(summary)}


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
           **bench(root, list(WORKLOADS), list(SEEDS), SECONDS, REPS)}
    if args.parent is not None:
        doc["outputs"] = output_diff(root, args.parent)
    doc["tier1"] = tier1(root)
    path = root / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
