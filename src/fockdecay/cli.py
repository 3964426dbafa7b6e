"""Command-line front end: validate and run scenario configs.

``validate`` reads the config alone, through :mod:`fockdecay.config`: it
checks the initial state's tail weight and the RK4 step with the same
functions a run calls, and loads neither numpy nor the routes.  ``run``
imports the run side when it starts.

Exit codes: 0 success, 1 config error, 2 runtime invariant breach or I/O
failure while producing outputs.
"""
from __future__ import annotations

import argparse
import sys

from .config import (
    CertificateError,
    ConfigError,
    InvariantViolation,
    TruncationError,
    load_config,
    validate_config,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockdecay",
        description="Dissipative Fock-space evolution scenarios: validate configs, "
                    "run them, and emit CSV time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="parse and check a scenario config")
    p_validate.add_argument("config", help="path to a JSON scenario file")

    p_run = sub.add_parser("run", help="run a scenario and write CSV outputs")
    p_run.add_argument("config", help="path to a JSON scenario file")
    p_run.add_argument("--out-dir", default=None, help="override the config output_path")
    p_run.add_argument("--routes", default=None,
                       help="comma-separated subset of kraus,ode,heisenberg")
    p_run.add_argument("--seed", type=int, default=None,
                       help="reserved; the shipped routes are deterministic")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except OSError as exc:
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error [{exc.category}]: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        try:
            validate_config(cfg)
        except ConfigError as exc:
            print(f"config error [{exc.category}]: {exc}", file=sys.stderr)
            return 1
        print(f"valid: {cfg.name} ({len(cfg.modes)} modes, {cfg.time_grid.count} time points)")
        return 0

    from .scenario import run_scenario

    routes = None
    if args.routes is not None:
        routes = tuple(r.strip() for r in args.routes.split(",") if r.strip())
    try:
        result = run_scenario(cfg, out_dir=args.out_dir, routes=routes, seed=args.seed)
    except ConfigError as exc:
        print(f"config error [{exc.category}]: {exc}", file=sys.stderr)
        return 1
    except (InvariantViolation, CertificateError, TruncationError) as exc:
        print(f"runtime invariant breach: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 2
    for path in result.csv_paths:
        print(f"wrote {path}")
    print(f"wrote {result.manifest_path}")
    print(f"max cross-route deviation: {result.max_deviation:.3e}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
