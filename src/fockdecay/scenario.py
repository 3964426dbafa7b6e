"""Batch runs of scenario configs: every route's series, then the CSVs and the manifest.

A config (see :mod:`fockdecay.config`, which parses and validates it) is
run on the sector space of its initial state.  Runs emit one CSV per
(route, observable) plus a line-oriented key=value manifest recording the
config echo and the cross-route deviations.
"""
from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .channel import build_decay_model, evolve_state, read_series
from .channel import expectation  # noqa: F401 -- only for the benchmark's tracer
from .config import (  # noqa: F401 -- the config side, also read as scenario attributes
    CUTOFF_LIMIT,
    OCCUPATION_COLUMNS_LIMIT,
    ROUTES,
    SCHEMA_VERSION,
    ConfigError,
    MixingParams,
    ScenarioConfig,
    TruncationError,
    _check_observable_routes,
    _mean_width,
    _ode_step,
    _parse_names,
    config_to_json,
    load_config,
    parse_config,
    validate_config,
)
from .flavour import build_mixed_model, build_quadratic_observables, quadratic_omegas
from .flavour import build_flavour_observables  # noqa: F401 -- only for the benchmark's tracer
from .fock import DensityOperator, FockSpace, coherent_state, number_state, poisson_mixture
from .heisenberg import evolve_quadratic  # noqa: F401 -- only for the benchmark's tracer
from .heisenberg import mean_quadratic_trajectories
from .master import build_generator, integrate


@dataclass
class RunResult:
    csv_paths: list[Path]
    manifest_path: Path
    max_deviation: float


# ---------------------------------------------------------------------------
# run machinery

def build_space(cfg: ScenarioConfig) -> FockSpace:
    """The run's space: the sector space bounded by the largest total occupation
    of the initial state.  Decay never raises the total, so every route is exact on it."""
    state = cfg.initial_state
    if state.kind == "number":
        total = sum(state.occupations)
    elif state.kind == "mixture":
        total = max(sum(occ) for _, occ in state.components)
    else:
        total = cfg.modes[state.mode - 1].cutoff
    return FockSpace(cfg.modes, total=total)


def build_initial_state(cfg: ScenarioConfig, space: FockSpace) -> DensityOperator:
    state = cfg.initial_state
    try:
        if state.kind == "number":
            return number_state(space, state.occupations)
        if state.kind == "coherent":
            return coherent_state(space, state.mode, state.alpha)
        if state.kind == "poisson":
            return poisson_mixture(space, state.mode, state.nbar)
        mat = np.zeros((space.dimension, space.dimension), dtype=complex)
        for w, occ in state.components:
            mat[space.index_of(occ), space.index_of(occ)] += w
        return DensityOperator(space, mat)
    except TruncationError as exc:
        raise ConfigError("CONFIG_STATE_TAIL", str(exc), "invariant", "$.initial_state") from exc


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def run_scenario(
    cfg: ScenarioConfig,
    out_dir: str | Path | None = None,
    routes: Sequence[str] | None = None,
    seed: int | None = None,
) -> RunResult:
    """Run every requested route and write CSV series plus a manifest.

    ``seed`` is accepted for interface stability; all shipped routes are
    deterministic and ignore it.
    """
    if routes is None:
        routes = cfg.routes
    else:
        routes = _parse_names(list(routes), ROUTES, "route", "--routes")
        _check_observable_routes(cfg.observables, routes, "--routes")

    out = Path(out_dir) if out_dir is not None else Path(cfg.output_path)
    space = build_space(cfg)
    rho0 = build_initial_state(cfg, space)
    times = np.fromiter(cfg.time_grid, float, cfg.time_grid.count)
    step = _ode_step(cfg) if "ode" in routes else None
    mixed = cfg.mixing is not None
    gamma_bar = _mean_width(cfg.modes) if mixed else None
    t_scaled = times * gamma_bar if mixed else times
    phi = cfg.mixing[0].phi if mixed else 0.0

    # Scalars in config order, then occupations once: the manifest's key order.
    scalar_obs = [o for o in cfg.observables if o != "occupations"]
    names = scalar_obs + (["occupations"] if "occupations" in cfg.observables else [])
    columns = {name: [name] for name in scalar_obs}
    if "occupations" in names:  # parsing ensures a state-side route reads them
        columns["occupations"], from_s = _occupation_columns(space)
    omegas = quadratic_omegas(space.n_modes, phi)
    if {"kraus", "ode"} & set(routes):  # the state routes' reader: every series of a route in one pass
        obs_matrices = build_quadratic_observables(space, phi) if scalar_obs else {}
        read = partial(read_series, observables={name: obs_matrices[name] for name in scalar_obs},
                       diagonal="occupations" in names)

    sweep: list[MixingParams | None] = list(cfg.mixing) if mixed else [None]
    skipped: list[str] = []
    deviation_lines: list[str] = []
    max_dev = 0.0
    # every angle's series, each (route, observable) -> T x columns: the CSVs are
    # written only once all of them are computed, so a run that fails writes nothing
    results: list[tuple[str, dict[tuple[str, str], np.ndarray]]] = []

    for ti, mix in enumerate(sweep):
        if mix is None:
            model = build_decay_model(space)
        else:
            model = build_mixed_model(space, mix)

        series: dict[tuple[str, str], np.ndarray] = {}
        for route in routes:
            if route == "heisenberg":  # observable-side closed forms
                if scalar_obs:
                    values = mean_quadratic_trajectories(
                        model, rho0, {name: omegas[name] for name in scalar_obs}, times)
                    for name in scalar_obs:
                        series[(route, name)] = values[name][:, None]
                if "occupations" in names:
                    skipped.append(f"{route}:occupations=unsupported")
                continue
            if route == "kraus":
                values, diagonals = evolve_state(model, rho0, times, read)
            else:
                values, diagonals = integrate(build_generator(model), rho0, times, step, read)
            for name in scalar_obs:
                series[(route, name)] = values[name][:, None]
            if diagonals is not None:
                series[(route, "occupations")] = diagonals

        theta_key = f"theta={ti}" if mixed and len(sweep) > 1 else "theta=-"
        for name in names:
            have = [r for r in routes if (r, name) in series]
            if name == "occupations":  # occupation keys name their routes in sorted order
                have.sort()
            for i, ra in enumerate(have):
                for rb in have[i + 1:]:
                    dev = float(np.max(np.abs(series[(ra, name)] - series[(rb, name)])))
                    max_dev = max(max_dev, dev)
                    deviation_lines.append(
                        f"cross_route_max_deviation[{name}][{ra}|{rb}][{theta_key}]={_fmt(dev)}"
                    )
        results.append((f"__theta{ti}" if mixed and len(sweep) > 1 else "", series))

    out.mkdir(parents=True, exist_ok=True)  # made only once there is output to write
    stamps = list(zip(map(_fmt, t_scaled.tolist()), map(_fmt, times.tolist())))
    csv_paths: list[Path] = []
    for tag, series in results:
        for name in names:
            if name == "occupations":  # tuples outside the run's space read 0
                inside = from_s < space.dimension
                cells, pick = inside.tolist(), from_s[inside]
            else:
                cells, pick = [True], [0]
            for route in routes:
                if (route, name) not in series:
                    continue
                path = out / f"{cfg.name}{tag}__{route}__{name}.csv"
                _write_csv(path, ["t", *columns[name], "t_raw", "route"], _line_format(cells, route),
                           ((t_s, *row, t_r) for (t_s, t_r), row
                            in zip(stamps, series[(route, name)][:, pick].tolist())))
                csv_paths.append(path)

    manifest_path = out / f"{cfg.name}__manifest.txt"
    lines = [
        f"schema_version={SCHEMA_VERSION}",
        "library=fockdecay",
        f"library_version={__version__}",
        f"scenario={cfg.name}",
        f"timestamp={datetime.now(timezone.utc).isoformat()}",
        f"seed={'none' if seed is None else seed}",
        f"time_unit={'inverse_mean_width' if mixed else 'raw'}",
        f"mean_width={'none' if gamma_bar is None else _fmt(gamma_bar)}",
        f"theta_count={len(sweep) if mixed else 0}",
        f"routes={','.join(routes)}",
        f"observables={','.join(cfg.observables)}",
        f"config={config_to_json(cfg)}",
    ]
    lines.extend(f"file={p.name}" for p in sorted(csv_paths))
    lines.extend(f"skipped={s}" for s in sorted(set(skipped)))
    lines.extend(deviation_lines)
    lines.append(f"max_cross_route_deviation={_fmt(max_dev)}")
    lines.append("status=ok")
    manifest_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    return RunResult(
        csv_paths=sorted(csv_paths),
        manifest_path=manifest_path,
        max_deviation=max_dev,
    )


def _occupation_columns(space: FockSpace) -> tuple[list[str], np.ndarray]:
    """The occupations CSV's columns, one per tuple of the product space, and
    ``from_s``: column i reads entry ``from_s[i]`` of the diagonal, and
    ``from_s[i]`` = the space's dimension marks a tuple outside the run's
    space, which reads 0."""
    radices = tuple(m.cutoff + 1 for m in space.modes)
    labels = ["p_" + "_".join(map(str, occ)) for occ in np.ndindex(*radices)]
    from_s = np.full(len(labels), space.dimension)
    from_s[np.ravel_multi_index(space.occupation_array.T, radices)] = np.arange(space.dimension)
    return labels, from_s


def _line_format(cells: Sequence[bool], route: str) -> str:
    """The %-format of one CSV line: the t cell, one cell per column, the t_raw
    cell and the route.  The t cells come formatted by :func:`_fmt`; a column
    marked True takes its value as "%.17g" formats it (as :func:`_fmt` does),
    and one marked False, a tuple outside the run's space, is the literal 0,
    which is "%.17g" of the 0.0 it reads."""
    return "%s," + "".join("%.17g," if live else "0," for live in cells) + "%s," + route + "\n"


def _write_csv(path: Path, header: list[str], line: str, rows) -> None:
    """The header, then ``line % row`` for each row tuple."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % row for row in rows)
