"""Run fockdecay's reference scenarios into a directory, or compare two such directories.

    python3 tools/compare_outputs.py run OUT [--seed N] [--root CHECKOUT]
    python3 tools/compare_outputs.py diff A B

``run`` runs the shipped ``configs/*.json``, the three benchmark workloads
of ``perfbench/workloads.py`` at one seed (default 1) and the small inline
``SCENARIOS`` below, each into its own subdirectory of OUT.  The first three
inline scenarios start from coherent or Poisson states whose support
(entries above 1e-14) ends below the total occupation K of the run's space;
the last two evolve a state that is neither diagonal nor full in the
decay-mode basis, but block-diagonal in N: a mixed boson pair from a Poisson
state and a mixed fermion pair from the mixture (|1,1><1,1| + |1,0><1,0|) / 2.
No shipped config or workload reaches these cases.  They are defined here,
so that ``--root`` runs them on every version.  ``--root`` selects the source
checkout whose ``src/``, ``configs/`` and ``perfbench/`` are used (default:
the checkout holding this script), so the outputs of an older commit come
from a plain ``git archive`` or ``git clone`` of it.  A run that raises leaves ``error.txt`` in its
subdirectory instead of outputs.  BLAS is pinned to one thread, as in the
benchmark.

``diff`` prints, for every CSV, its route and the max abs diff of its numeric
columns between A and B, the max per route, and for every manifest whether
its key list (every line's text before ``=``, without ``timestamp=``) is the
same in both, and whether its lines other than ``timestamp=`` are identical,
naming the key of the first line that is not.  Its last line counts the CSVs
that are byte-equal and the manifests whose non-``timestamp=`` lines are
identical, each out of all such files on either side.  It exits 1 when a file is missing on one side, or a header,
row count, key list or error differs; otherwise 0.  How large a CSV
difference is acceptable is left to the reader of the report.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from itertools import zip_longest
from pathlib import Path

# OpenBLAS, OpenMP and MKL read these when numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402 -- after the thread pinning

WORKLOADS = ("oracle", "sweep", "multimode")


def _scenario(name, modes, initial_state, observables, mixing=None, statistics="boson"):
    return {"schema_version": 1, "name": name,
            "modes": [{"statistics": statistics, "mass": m, "width": g, "cutoff": c}
                      for m, g, c in modes],
            "mixing": mixing, "initial_state": initial_state,
            "time_grid": {"start": 0.0, "stop": 2.0, "count": 21},
            "routes": ["kraus", "ode", "heisenberg"], "observables": observables,
            "output_path": f"out/{name}"}


# the first three: support bound below K, 6 of 8, 4 of 5 and 7 of 9; the last two: a support
# block-diagonal in N
SCENARIOS = (
    _scenario("tail_coherent_pair", [(0.0, 0.5, 8), (0.5, 1.0, 8)],
              {"type": "coherent", "mode": 1, "alpha": 0.01}, ["N", "S", "occupations"]),
    _scenario("tail_poisson_three", [(0.0, 0.5, 5), (0.5, 1.0, 5), (1.0, 1.5, 5)],
              {"type": "poisson", "mode": 1, "nbar": 0.001}, ["N", "occupations"]),
    _scenario("tail_coherent_mixed", [(0.0, 0.5, 9), (5.0, 1.5, 9)],
              {"type": "coherent", "mode": 1, "alpha": 0.03}, ["N", "S", "occupations"],
              mixing={"theta": 0.7}),
    _scenario("poisson_mixed_pair", [(0.0, 0.5, 8), (5.0, 1.5, 8)],
              {"type": "poisson", "mode": 1, "nbar": 0.3}, ["N", "S", "occupations"],
              mixing={"theta": 0.7}),
    _scenario("mixture_mixed_fermions", [(0.0, 0.5, 1), (2.0, 1.5, 1)],
              {"type": "mixture", "components": [{"weight": 0.5, "occupations": [1, 1]},
                                                 {"weight": 0.5, "occupations": [1, 0]}]},
              ["N", "S", "occupations"], mixing={"theta": 0.7}, statistics="fermion"),
)


def _run(out: Path, seed: int, root: Path) -> int:
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import fockdecay.scenario as scenario
    from workloads import make_config

    print(f"# fockdecay from {Path(scenario.__file__).parent}")
    jobs = [(p.stem, lambda p=p: scenario.load_config(p))
            for p in sorted((root / "configs").glob("*.json"))]
    jobs += [(w, lambda w=w: scenario.parse_config(json.dumps(make_config(w, seed, ""))))
             for w in WORKLOADS]
    jobs += [(doc["name"], lambda doc=doc: scenario.parse_config(json.dumps(doc)))
             for doc in SCENARIOS]
    for name, load in jobs:
        target = out / name
        target.mkdir(parents=True, exist_ok=True)
        try:
            result = scenario.run_scenario(load(), out_dir=target)
        except Exception:  # recorded, so that diff compares outcomes too
            (target / "error.txt").write_text(traceback.format_exc(limit=0), encoding="utf-8")
            print(f"{name}: error")
            continue
        print(f"{name}: {len(result.csv_paths)} CSV files")
    return 0


def _read_csv(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    route = rows[0][header.index("route")] if rows else "-"
    numeric = [i for i, name in enumerate(header) if name != "route"]
    values = np.array([[float(row[i]) for i in numeric] for row in rows]).reshape(len(rows), -1)
    return header, route, values


def _manifest_lines(path: Path) -> list[str]:
    return [line for line in path.read_text(encoding="utf-8").splitlines()
            if not line.startswith("timestamp=")]


def _manifest_report(pa: Path, pb: Path) -> tuple[bool, bool, str]:
    """Whether the key lists agree, whether the lines agree, and a report on both."""
    la, lb = _manifest_lines(pa), _manifest_lines(pb)
    same_keys = [x.split("=", 1)[0] for x in la] == [y.split("=", 1)[0] for y in lb]
    report = f"manifest keys {'identical' if same_keys else 'differ'}"
    for x, y in zip_longest(la, lb, fillvalue=""):
        if x != y:
            return same_keys, False, f"{report}, lines differ first at key {(x or y).split('=', 1)[0]}"
    return same_keys, True, f"{report}, lines identical"


def _diff(a: Path, b: Path) -> int:
    files = sorted({p.relative_to(a) for p in a.rglob("*") if p.is_file()}
                   | {p.relative_to(b) for p in b.rglob("*") if p.is_file()})
    bad = False
    per_route: dict[str, float] = {}
    csvs = [rel for rel in files if rel.suffix == ".csv"]
    manifests = [rel for rel in files if rel.name.endswith("__manifest.txt")]
    equal_csvs = equal_manifests = 0
    for rel in files:
        pa, pb = a / rel, b / rel
        if not (pa.is_file() and pb.is_file()):
            print(f"{rel}: only in {a if pa.is_file() else b}")
            bad = True
            continue
        if rel.name == "error.txt":
            same = pa.read_text(encoding="utf-8") == pb.read_text(encoding="utf-8")
            print(f"{rel}: {'same' if same else 'different'} error in both")
            bad |= not same
        elif rel.suffix == ".csv":
            ha, route, va = _read_csv(pa)
            hb, _, vb = _read_csv(pb)
            if ha != hb or va.shape != vb.shape:
                print(f"{rel}: header or row count differs")
                bad = True
                continue
            dev = float(np.max(np.abs(va - vb), initial=0.0))
            same = pa.read_bytes() == pb.read_bytes()
            equal_csvs += same
            per_route[route] = max(per_route.get(route, 0.0), dev)
            print(f"{rel}: route={route} max_abs_diff={dev:.3e}{' (bytes equal)' if same else ''}")
        elif rel.name.endswith("__manifest.txt"):
            same_keys, same_lines, report = _manifest_report(pa, pb)
            equal_manifests += same_lines
            print(f"{rel}: {report}")
            bad |= not same_keys
    for route, dev in sorted(per_route.items()):
        print(f"route {route}: max_abs_diff={dev:.3e}")
    print(f"summary: {equal_csvs} of {len(csvs)} CSVs byte-equal, {equal_manifests} of "
          f"{len(manifests)} manifests with identical non-timestamp lines")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tools/compare_outputs.py",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run the reference scenarios into OUT")
    p_run.add_argument("out", type=Path)
    p_run.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    p_run.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                       help="source checkout to run (default: this script's)")
    p_diff = sub.add_parser("diff", help="compare two run directories")
    p_diff.add_argument("a", type=Path)
    p_diff.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        return _run(args.out, args.seed, args.root.resolve())
    return _diff(args.a, args.b)


if __name__ == "__main__":
    raise SystemExit(main())
