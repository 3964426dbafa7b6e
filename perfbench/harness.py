"""Closed-loop benchmark of fockdecay through its public entry points.

One process, one caller: the next ``run_scenario`` call starts only after
the previous one has returned and its outputs have been checked.  Set-up
is measured in fresh interpreters that import ``fockdecay.cli`` and run
``cli.main(["validate", cfg])``.  End-to-end numbers come from untraced
calls; per-layer numbers come from traced calls only (see instrument.py),
and the tracing overhead is the difference of the two medians.
"""
from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import scipy

import fockdecay.scenario as scenario
import instrument
import workloads
from tracer import Tracer
from workloads import ROUTE_TOL

SETUP_REPS = 5
SETUP_TIMEOUT_S = 60.0
# Double precision carries about 17 significant digits; a zero deviation
# is reported as that many digits of agreement.
DEV_FLOOR = 1e-17

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "max_route_dev_digits": "digits",
}

# per-layer time metric -> span whose summed self time it reports
SPAN_METRICS = {
    "fock.space_s": "fock.space",
    "fock.state_s": "fock.state",
    "flavour.model_s": "flavour.model",
    "flavour.observables_s": "flavour.observables",
    "channel.model_s": "channel.model",
    "channel.kraus_s": "channel.kraus",
    "channel.apply_s": "channel.apply",
    "channel.expectation_s": "channel.expectation",
    "master.integrate_s": "master.integrate",
    "heisenberg.quadratic_s": "heisenberg.quadratic",
    "scenario.self_s": "scenario.run",
}
SETUP_SPAN_METRICS = {
    "scenario.parse_s": "scenario.parse",
    "scenario.validate_s": "scenario.validate",
    "cli.import_s": "cli.import",
}
# Work counts: they must repeat exactly between calls and across seeds.
WORK_COUNTS = (
    "fock.dim",
    "channel.kraus_calls",
    "channel.kraus_ops",
    "channel.expectation_calls",
    "master.rk4_steps",
    "master.generator_calls",
    "heisenberg.quadratic_calls",
)
LAYERS = ("fock", "flavour", "channel", "master", "heisenberg", "scenario")

PER_LAYER_UNITS = {
    **{name: "s" for name in SPAN_METRICS},
    **{name: "s" for name in SETUP_SPAN_METRICS},
    **{name: "count" for name in WORK_COUNTS},
    "channel.kraus_useful_ratio": "ratio",
    "scenario.bytes_written": "bytes",
    "scenario.files_written": "count",
    "scenario.max_route_dev": "abs",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# environment record

def _blas_name() -> str:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy bundles, if any."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _commit(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "fockdecay").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(root: Path) -> dict:
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_name(),
        "blas_threads": _blas_threads(),
        "commit": _commit(root),
        "src_sha256": _source_digest(root),
    }


# ---------------------------------------------------------------------------
# correctness gate

def snapshot(result) -> dict[str, bytes]:
    """Bytes of every output of one run, the manifest without its timestamp."""
    files = {p.name: p.read_bytes() for p in result.csv_paths}
    manifest = result.manifest_path.read_bytes().splitlines(keepends=True)
    files[result.manifest_path.name] = b"".join(
        line for line in manifest if not line.startswith(b"timestamp=")
    )
    return files


def gate(result, reference: dict[str, bytes] | None):
    """Problems with one run's outputs, its snapshot and its max deviation.

    A run fails when its manifest lacks ``status=ok``, when its maximum
    cross-route deviation exceeds ``ROUTE_TOL``, or when its bytes differ from
    the reference run's.
    """
    problems = []
    snap = snapshot(result)
    lines = result.manifest_path.read_text(encoding="utf-8").splitlines()
    if "status=ok" not in lines:
        problems.append("manifest lacks status=ok")
    devs = [ln.split("=", 1)[1] for ln in lines if ln.startswith("max_cross_route_deviation=")]
    dev = float(devs[0]) if devs else math.nan
    if not dev <= ROUTE_TOL:
        problems.append(f"max_cross_route_deviation {dev!r} exceeds {ROUTE_TOL!r}")
    if reference is not None and snap != reference:
        changed = sorted(set(snap) ^ set(reference)
                         | {k for k in snap.keys() & reference.keys() if snap[k] != reference[k]})
        problems.append(f"outputs differ from the first run: {', '.join(changed)}")
    return problems, snap, dev


def _read_csv(data: bytes) -> tuple[list[str], np.ndarray]:
    header, *rows = data.decode("utf-8").splitlines()
    cols = header.split(",")
    return cols, np.array([[float(c) for c in row.split(",")[:-1]] for row in rows])


def check_series(snap: dict[str, bytes], doc: dict) -> list[str]:
    """Checks of the CSV values themselves, independent of the manifest.

    Every expected file is present with one row per time point, the routes
    agree within ``ROUTE_TOL`` column by column, and the total number at t = 0
    equals the initial state's mean occupation.
    """
    problems = []
    mixing = doc["mixing"]
    n_theta = len(mixing["theta"]) if mixing and isinstance(mixing["theta"], list) else 1
    tags = [f"__theta{i}" for i in range(n_theta)] if n_theta > 1 else [""]
    count = doc["time_grid"]["count"]
    state = doc["initial_state"]
    comps = state.get("components") or [{"weight": 1.0, "occupations": state["occupations"]}]
    n0 = sum(c["weight"] * sum(c["occupations"]) for c in comps)
    for tag in tags:
        for obs in doc["observables"]:
            routes = [r for r in doc["routes"] if obs != "occupations" or r != "heisenberg"]
            tables = {}
            for route in routes:
                name = f"{doc['name']}{tag}__{route}__{obs}.csv"
                if name not in snap:
                    problems.append(f"missing {name}")
                    continue
                cols, table = _read_csv(snap[name])
                if table.shape[0] != count:
                    problems.append(f"{name}: {table.shape[0]} rows, expected {count}")
                    continue
                tables[route] = table[:, 1:len(cols) - 2]
                if obs == "N" and doc["time_grid"]["start"] == 0.0 and abs(table[0, 1] - n0) > ROUTE_TOL:
                    problems.append(f"{name}: N(0) = {table[0, 1]!r}, expected {n0!r}")
            names = sorted(tables)
            for i, ra in enumerate(names):
                for rb in names[i + 1:]:
                    dev = float(np.max(np.abs(tables[ra] - tables[rb])))
                    if not dev <= ROUTE_TOL:
                        problems.append(f"{obs}{tag}: {ra} and {rb} differ by {dev!r}")
    return problems


# ---------------------------------------------------------------------------
# set-up probe

def probe_setup(root: Path, config_path: Path, trace: bool) -> tuple[float, dict | None]:
    """Wall time of a fresh interpreter importing fockdecay.cli and validating."""
    cmd = [sys.executable, str(root / "perfbench" / "setup_probe.py"), str(config_path)]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S)
    wall = time.perf_counter() - start
    if proc.returncode != 0 or "valid:" not in proc.stdout:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return wall, json.loads(proc.stdout.splitlines()[-1]) if trace else None


# ---------------------------------------------------------------------------
# closed loop

class ClosedLoop:
    """Runs one scenario again and again, gating every run's outputs."""

    def __init__(self, workload: str, seed: int, doc: dict, config_path: Path, tracer):
        self.workload, self.seed, self.doc, self.tracer = workload, seed, doc, tracer
        self.cfg = scenario.load_config(config_path)
        self.out_dir = Path(doc["output_path"])
        self.reference: dict[str, bytes] | None = None
        self.max_dev = math.nan
        self.runs: list[dict] = []

    def run(self, traced: bool) -> dict:
        run_id = f"{self.workload}-s{self.seed}-r{len(self.runs)}"
        record = {"run_id": run_id, "traced": traced, "wall": math.nan, "problems": []}
        self.runs.append(record)
        if traced:
            self.tracer.start_run(run_id)
        try:
            with instrument.traced_library(self.tracer) if traced else nullcontext():
                start = time.perf_counter()
                result = scenario.run_scenario(self.cfg, out_dir=self.out_dir)
                record["wall"] = time.perf_counter() - start
            problems, snap, dev = gate(result, self.reference)
        except Exception:  # a raising run is a failed run; record it and go on
            record["problems"].append("raised: " + traceback.format_exc(limit=3))
            return record
        if self.reference is None:
            problems += check_series(snap, self.doc)
            self.reference, self.max_dev = snap, dev
        record["problems"] = problems
        record["bytes"] = sum(len(b) for b in snap.values())
        record["files"] = len(snap)
        return record


def _median(values) -> float:
    return statistics.median(values) if values else math.nan


def _per_layer(loop: ClosedLoop, setup_traces: list[dict], problems: list[str]) -> tuple[dict, dict]:
    tracer = loop.tracer
    traced = [r for r in loop.runs[1:] if r["traced"] and not r["problems"]]
    untraced = [r for r in loop.runs[1:] if not r["traced"] and not r["problems"]]
    selfs = [tracer.self_times(r["run_id"]) for r in traced]
    counts = [tracer.counts[r["run_id"]] for r in traced]
    metrics = {m: _median([s.get(span, 0.0) for s in selfs]) for m, span in SPAN_METRICS.items()}
    for m, span in SETUP_SPAN_METRICS.items():
        metrics[m] = _median([t["self_times"].get(span, 0.0) for t in setup_traces])
    for key in WORK_COUNTS:
        seen = {c.get(key, 0) for c in counts}
        if len(seen) > 1:
            problems.append(f"work count {key} changed between runs: {sorted(seen)}")
        metrics[key] = max(seen, default=0)
    ops = counts[0].get("channel.kraus_ops", 0) if counts else 0
    useful = counts[0].get("channel.kraus_useful", 0) if counts else 0
    metrics["channel.kraus_useful_ratio"] = useful / ops if ops else 0.0
    metrics["scenario.bytes_written"] = traced[0]["bytes"] if traced else 0
    metrics["scenario.files_written"] = traced[0]["files"] if traced else 0
    metrics["scenario.max_route_dev"] = loop.max_dev
    metrics["trace.run_s"] = _median([r["wall"] for r in traced])
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - _median([r["wall"] for r in untraced])
    shares = {}
    for layer in LAYERS:
        shares[layer] = _median([
            sum(v for k, v in s.items() if k.split(".")[0] == layer) / r["wall"]
            for s, r in zip(selfs, traced)
        ])
    return metrics, shares


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, root: Path,
                  tiny: bool = False, setup_reps: int = SETUP_REPS) -> dict:
    """One benchmark run; returns the result object and a summary."""
    work = root / ".bench_out" / f"{workload}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _measure(workload, seed, seconds, trace, root, work, tiny, setup_reps)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(workload, seed, seconds, trace, root, work, tiny, setup_reps) -> dict:
    doc = workloads.make_config(workload, seed, str(work / "out"), tiny=tiny)
    config_path = work / f"{workload}.json"
    config_path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    problems: list[str] = []

    setup_walls, setup_traces, probes = [], [], 0

    def probe() -> None:
        nonlocal probes
        probes += 1
        try:
            wall, spans = probe_setup(root, config_path, trace)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            problems.append(str(exc))
            return
        setup_walls.append(wall)
        if spans is not None:
            setup_traces.append(spans)

    loop = ClosedLoop(workload, seed, doc, config_path, Tracer() if trace else None)
    loop.run(traced=False)  # warm-up; its outputs are the reference
    # One set-up probe after each timed call spreads the set-up samples over
    # the whole window, so a slow phase of a shared host skews fewer of them.
    deadline = time.perf_counter() + seconds
    traced_next = trace
    while True:
        loop.run(traced=traced_next)
        probe()
        kinds = {r["traced"] for r in loop.runs[1:]}
        if time.perf_counter() >= deadline and (not trace or len(kinds) == 2):
            break
        traced_next = trace and not traced_next
    while probes < setup_reps:
        probe()

    failed = [r for r in loop.runs if r["problems"]]
    for r in failed:
        problems.extend(f"{r['run_id']}: {p}" for p in r["problems"])
    timed = [r["wall"] for r in loop.runs[1:] if not r["traced"] and not r["problems"]]
    summary = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "samples": len(timed), "run_walls": timed, "failed_frac": len(failed) / len(loop.runs),
        "max_route_dev": loop.max_dev,
    }
    if trace:
        metrics, summary["layer_share"] = _per_layer(loop, setup_traces, problems)
        units = PER_LAYER_UNITS
        out = root / ".bench_out" / f"trace-{workload}-s{seed}.json"
        out.write_text(json.dumps({
            "environment": environment(root),
            "run": loop.tracer.to_json(),
            "setup": [t["trace"] for t in setup_traces],
        }), encoding="utf-8")
        summary["trace_file"] = str(out.relative_to(root))
    else:
        metrics = {
            "run_s": _median(timed),
            "setup_s": _median(setup_walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "max_route_dev_digits": -math.log10(max(loop.max_dev, DEV_FLOOR)),
        }
        units = END_TO_END_UNITS
    summary["problems"] = problems
    return {
        "result": {
            "correct": not problems,
            "attempted": len(loop.runs),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
        "summary": summary,
    }


def main(args, root: Path) -> int:
    src = (root / "src" / "fockdecay").resolve()
    if Path(scenario.__file__).resolve().parent != src:
        print(f"error: fockdecay was imported from {scenario.__file__}, not {src}", file=sys.stderr)
        return 2
    print("# environment " + json.dumps(environment(root)), flush=True)
    out = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print("# summary " + json.dumps(out["summary"]), flush=True)
    print(json.dumps(out["result"]), flush=True)
    return 0
