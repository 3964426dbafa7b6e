"""Run fockdecay's reference scenarios into a directory, or compare two such directories.

    python3 tools/compare_outputs.py run OUT [--seed N] [--root CHECKOUT]
    python3 tools/compare_outputs.py diff A B

``run`` runs the shipped ``configs/*.json`` and the three benchmark workloads
of ``perfbench/workloads.py`` at one seed (default 1), each into its own
subdirectory of OUT.  ``--root`` selects the source checkout whose ``src/``,
``configs/`` and ``perfbench/`` are used (default: the checkout holding this
script), so the outputs of an older commit come from a plain ``git archive``
or ``git clone`` of it.  A run that raises leaves ``error.txt`` in its
subdirectory instead of outputs.  BLAS is pinned to one thread, as in the
benchmark.

``diff`` prints, for every CSV, its route and the max abs diff of its numeric
columns between A and B, the max per route, and for every manifest whether
its key list (every line's text before ``=``, without ``timestamp=``) is the
same in both.  It exits 1 when a file is missing on one side, or a header,
row count, key list or error differs; otherwise 0.  How large a CSV
difference is acceptable is left to the reader of the report.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

# OpenBLAS, OpenMP and MKL read these when numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402 -- after the thread pinning

WORKLOADS = ("oracle", "sweep", "multimode")


def _run(out: Path, seed: int, root: Path) -> int:
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import fockdecay.scenario as scenario
    from workloads import make_config

    print(f"# fockdecay from {Path(scenario.__file__).parent}")
    jobs = [(p.stem, lambda p=p: scenario.load_config(p))
            for p in sorted((root / "configs").glob("*.json"))]
    jobs += [(w, lambda w=w: scenario.parse_config(json.dumps(make_config(w, seed, ""))))
             for w in WORKLOADS]
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


def _manifest_keys(path: Path) -> list[str]:
    return [line.split("=", 1)[0] for line in path.read_text(encoding="utf-8").splitlines()
            if not line.startswith("timestamp=")]


def _diff(a: Path, b: Path) -> int:
    files = sorted({p.relative_to(a) for p in a.rglob("*") if p.is_file()}
                   | {p.relative_to(b) for p in b.rglob("*") if p.is_file()})
    bad = False
    per_route: dict[str, float] = {}
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
            per_route[route] = max(per_route.get(route, 0.0), dev)
            print(f"{rel}: route={route} max_abs_diff={dev:.3e}{' (bytes equal)' if same else ''}")
        elif rel.name.endswith("__manifest.txt"):
            same = _manifest_keys(pa) == _manifest_keys(pb)
            print(f"{rel}: manifest keys {'identical' if same else 'differ'}")
            bad |= not same
    for route, dev in sorted(per_route.items()):
        print(f"route {route}: max_abs_diff={dev:.3e}")
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
