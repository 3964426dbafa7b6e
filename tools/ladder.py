"""Time fockdecay's size ladder: each (row, routes) cell, several runs per checkout, each in a fresh process.

    python3 tools/ladder.py [--root CHECKOUT]...

Every row is a scenario with 21 grid points to t = 2 (161 where its name
ends in ``_t161``) and the observable N, with masses 0, 0.5, 1 and widths
0.5, 1, 1.5, repeated over the modes (a mixed pair takes the first and the
last, theta = 0.7):

- a mixed boson pair from a coherent state, alpha = 0.1 in mode 1, at
  cutoff 12, 16 and 20 (|S| = 91, 153 and 231), and at cutoff 30 (|S| =
  496) on the heisenberg and kraus routes only: its ode step matrix for
  Delta N = 0 alone would need about 1.7 GB;
- three bosons from |3,3,3> at cutoff 9, from |4,4,4> at cutoff 12 and from
  |6,6,6> at cutoff 16 (|S| = 220, 455 and 1318), and the cutoff-9 row again
  on 161 grid points: the state routes read each chunk of states and drop
  it, so its peak RSS should stay near the 21-point row's;
- one boson at cutoff 20 with two fermions, from |20,1,1> (|S| = 84);
- eight bosons at cutoff 2 holding two quanta, from |1,1,0,...,0>
  (|S| = 45, product space 3^8 = 6561);
- 22 fermions from one excitation (|S| = 23, product space 2^22).

Each run calls ``run_scenario`` on the row's config with one set of routes,
in a new interpreter that imports fockdecay from ``CHECKOUT/src`` (default:
the checkout holding this script), with BLAS pinned to one thread and a
wall-clock cap of ``CAP_SECONDS``.  ``--root`` may be given more than once,
to compare checkouts on the same machine state: each cell runs ``REPS``
times per checkout, one run of every checkout per pass, and the checkout
that goes first rotates from one pass to the next, over the whole ladder.
It prints one JSON line per cell and checkout: the row, the routes, the
checkout, ``status`` ("ok" when every run was, else the first other
"timeout" or "error", with that error's last line), and the median, min
and max of the ``run_scenario`` wall times in seconds and of the child's
peak RSS in MB (all null unless ok).
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable, Iterator, Sequence

CAP_SECONDS = 150
REPS = 3
MASSES = (0.0, 0.5, 1.0)
WIDTHS = (0.5, 1.0, 1.5)

# argv: source checkout, config JSON, comma-separated routes
CHILD = """
import json, resource, sys, tempfile, time
sys.path.insert(0, sys.argv[1] + "/src")
from fockdecay.scenario import parse_config, run_scenario
cfg = parse_config(sys.argv[2])
with tempfile.TemporaryDirectory() as out:
    start = time.perf_counter()
    run_scenario(cfg, out_dir=out, routes=sys.argv[3].split(","))
    seconds = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"seconds": round(seconds, 3), "peak_rss_mb": round(peak, 1)}))
"""


def _config(name, modes, initial_state, mixing=None, count=21):
    return {"schema_version": 1, "name": name,
            "modes": [{"statistics": s, "mass": m, "width": g, "cutoff": c}
                      for s, m, g, c in modes],
            "mixing": mixing, "initial_state": initial_state,
            "time_grid": {"start": 0.0, "stop": 2.0, "count": count},
            "routes": ["kraus", "ode", "heisenberg"], "observables": ["N"],
            "output_path": f"out/{name}"}


def _mixed_pair(cutoff):
    modes = [("boson", MASSES[i], WIDTHS[i], cutoff) for i in (0, 2)]
    return _config(f"mixed_pair_c{cutoff}", modes,
                   {"type": "coherent", "mode": 1, "alpha": 0.1}, mixing={"theta": 0.7})


def _three_bosons(cutoff, n, count=21):
    modes = [("boson", m, g, cutoff) for m, g in zip(MASSES, WIDTHS)]
    name = f"three_bosons_c{cutoff}" + (f"_t{count}" if count != 21 else "")
    return _config(name, modes, {"type": "number", "occupations": [n] * 3}, count=count)


def _boson_with_fermions(cutoff):
    modes = [("boson", MASSES[0], WIDTHS[0], cutoff),
             *(("fermion", MASSES[j], WIDTHS[j], 1) for j in (1, 2))]
    return _config(f"boson_c{cutoff}_two_fermions", modes,
                   {"type": "number", "occupations": [cutoff, 1, 1]})


def _bosons_two_quanta(count):
    modes = [("boson", MASSES[j % 3], WIDTHS[j % 3], 2) for j in range(count)]
    return _config(f"bosons_{count}_two_quanta", modes,
                   {"type": "number", "occupations": [1, 1] + [0] * (count - 2)})


def _fermions(count):
    modes = [("fermion", MASSES[j % 3], WIDTHS[j % 3], 1) for j in range(count)]
    return _config(f"fermions_{count}", modes,
                   {"type": "number", "occupations": [1] + [0] * (count - 1)})


# (config, route sets): each route set is one run
ROWS = (
    *((_mixed_pair(c), ("heisenberg", "kraus", "ode")) for c in (12, 16, 20)),
    (_mixed_pair(30), ("heisenberg", "kraus")),
    *((_three_bosons(c, n), ("heisenberg", "kraus", "ode")) for c, n in ((9, 3), (12, 4), (16, 6))),
    (_three_bosons(9, 3, count=161), ("kraus", "ode")),
    (_boson_with_fermions(20), ("heisenberg", "kraus", "ode")),
    (_bosons_two_quanta(8), ("heisenberg", "kraus", "ode")),
    (_fermions(22), ("heisenberg", "kraus,heisenberg")),
)


def _run(doc: dict, routes: str, root: Path) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    record = {"row": doc["name"], "routes": routes, "status": "ok",
              "seconds": None, "peak_rss_mb": None}
    try:
        child = subprocess.run([sys.executable, "-c", CHILD, str(root), json.dumps(doc), routes],
                               capture_output=True, text=True, env=env, timeout=CAP_SECONDS)
    except subprocess.TimeoutExpired:
        record["status"] = "timeout"
        return record
    if child.returncode != 0:
        record["status"] = "error"
        record["error"] = (child.stderr.strip().splitlines() or ["(no output)"])[-1]
        return record
    record.update(json.loads(child.stdout.strip().splitlines()[-1]))
    return record


def _summary(runs: list[dict], root: Path) -> dict:
    """One cell's line for one checkout: the first failed run's status and error with
    null measures, or the median, min and max of each measure over the runs."""
    failed = [run for run in runs if run["status"] != "ok"]
    record = {**(failed or runs)[0], "root": str(root), "runs": len(runs)}
    for key in ("seconds", "peak_rss_mb"):
        values = [run[key] for run in runs]
        record[key] = None if failed else {"median": statistics.median(values),
                                           "min": min(values), "max": max(values)}
    return record


def cells(roots: Sequence[Path], rows=ROWS,
          run: Callable[[dict, str, Path], dict] = _run) -> Iterator[dict]:
    """The :func:`_summary` of every (row, routes) cell for each of ``roots``, in
    ladder order, each cell made of ``REPS`` passes over the roots, every pass
    starting one root later than the one before it."""
    passes = 0
    for doc, route_sets in rows:
        for routes in route_sets:
            runs = {root: [] for root in roots}
            for _ in range(REPS):
                for k in range(len(roots)):
                    root = roots[(passes + k) % len(roots)]
                    runs[root].append(run(doc, routes, root))
                passes += 1
            yield from (_summary(runs[root], root) for root in roots)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tools/ladder.py", description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, action="append",
                        help="source checkout to run, repeatable (default: this script's)")
    args = parser.parse_args(argv)
    roots = [root.resolve() for root in args.root or [Path(__file__).resolve().parent.parent]]
    for line in cells(roots):
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
