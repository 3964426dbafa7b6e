"""Declarative scenario configs (JSON, schema_version 1) and batch runs.

A scenario names the modes, an optional mixing block (the mixing angle may
be a list, producing one output set per angle), an initial state, a time
grid, the computation routes to run, and the observables to record.  Runs
emit one CSV per (route, observable) plus a line-oriented key=value
manifest recording the config echo and the cross-route deviations.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .channel import build_decay_model, evolve_state, read_series
from .channel import expectation  # noqa: F401 -- only for the benchmark's tracer
from .flavour import (
    MixingParams,
    build_mixed_model,
    build_quadratic_observables,
    mixing_total_bound,
    quadratic_omegas,
)
from .flavour import build_flavour_observables  # noqa: F401 -- only for the benchmark's tracer
from .fock import (
    DensityOperator,
    FockSpace,
    ModeSpec,
    Statistics,
    TruncationError,
    coherent_state,
    number_state,
    poisson_mixture,
)
from .heisenberg import evolve_quadratic  # noqa: F401 -- only for the benchmark's tracer
from .heisenberg import mean_quadratic_trajectories
from .master import StepError, build_generator, default_step, integrate, steps_for

ROUTES = ("kraus", "ode", "heisenberg")
OBSERVABLES = ("N", "S", "Qplus", "Qminus", "occupations")
WEIGHT_SUM_TOL = 1e-12
SCHEMA_VERSION = 1
# Longest file name, in bytes, that common file systems accept
FILE_NAME_BYTES = 255
# Budgets checked when parsing (CONFIG_BUDGET_EXCEEDED): the largest mode cutoff, and the
# most occupations CSV columns, one per tuple of the product space
CUTOFF_LIMIT = 1024
OCCUPATION_COLUMNS_LIMIT = 2**20


class ConfigError(ValueError):
    """Config rejection with a machine-readable code and a JSON-path."""

    def __init__(self, code: str, message: str, category: str = "invariant", path: str = "$"):
        super().__init__(f"{code} at {path}: {message}")
        self.code = code
        self.category = category  # "json" | "schema" | "invariant"
        self.path = path


@dataclass(frozen=True)
class TimeGrid:
    start: float
    stop: float
    count: int

    def times(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class InitialStateSpec:
    kind: str
    occupations: tuple[int, ...] | None = None
    mode: int | None = None
    alpha: complex | None = None
    nbar: float | None = None
    components: tuple[tuple[float, tuple[int, ...]], ...] | None = None


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    modes: tuple[ModeSpec, ...]
    mixing: tuple[MixingParams, ...] | None
    initial_state: InitialStateSpec
    time_grid: TimeGrid
    routes: tuple[str, ...]
    observables: tuple[str, ...]
    output_path: str
    ode_step: float | None = None


@dataclass
class RunResult:
    csv_paths: list[Path]
    manifest_path: Path
    max_deviation: float


# ---------------------------------------------------------------------------
# parsing

def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ConfigError("CONFIG_FIELD_MISSING", f"missing field '{key}'", "schema", path)
    return obj[key]


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError("CONFIG_FIELD_TYPE", f"expected a number, got {value!r}", "schema", path)
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError("CONFIG_NUMBER_NONFINITE", f"expected a finite number, got {value!r}",
                          "invariant", path)
    return number


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError("CONFIG_FIELD_TYPE", f"expected an integer, got {value!r}", "schema", path)
    return value


def _as_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError("CONFIG_FIELD_TYPE", f"expected a string, got {value!r}", "schema", path)
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:  # a lone surrogate, such as "\ud800", cannot be printed or named
        raise ConfigError("CONFIG_STRING_UNENCODABLE", f"{value!r} cannot be encoded as UTF-8: {exc.reason}",
                          "invariant", path) from None
    return value


def _as_dict(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError("CONFIG_FIELD_TYPE", f"expected an object, got {value!r}", "schema", path)
    return value


def _as_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError("CONFIG_FIELD_TYPE", f"expected an array, got {value!r}", "schema", path)
    return value


def _parse_names(raw: list, allowed: tuple[str, ...], noun: str, path: str) -> tuple[str, ...]:
    """A non-empty list of distinct names from ``allowed``: the routes or the observables."""
    key = noun.upper()
    if not raw:
        raise ConfigError(f"CONFIG_{key}S_EMPTY", f"at least one {noun} is required", "invariant", path)
    names = tuple(_as_str(v, f"{path}[{i}]") for i, v in enumerate(raw))
    for i, name in enumerate(names):
        if name not in allowed:
            raise ConfigError(f"CONFIG_{key}_UNKNOWN", f"unknown {noun} {name!r}", "invariant",
                              f"{path}[{i}]")
        if name in names[:i]:
            raise ConfigError(f"CONFIG_{key}_REPEATED", f"{noun} {name!r} is listed twice",
                              "invariant", f"{path}[{i}]")
    return names


def _parse_mode(entry, path: str) -> ModeSpec:
    entry = _as_dict(entry, path)
    stat = _as_str(_require(entry, "statistics", path), f"{path}.statistics")
    try:
        statistics = Statistics(stat)
    except ValueError:
        raise ConfigError(
            "CONFIG_STATISTICS_UNKNOWN", f"unknown statistics {stat!r}", "invariant",
            f"{path}.statistics",
        ) from None
    mass = _as_number(_require(entry, "mass", path), f"{path}.mass")
    width = _as_number(_require(entry, "width", path), f"{path}.width")
    if width < 0:
        raise ConfigError("CONFIG_WIDTH_NEGATIVE", f"width {width} < 0", "invariant", f"{path}.width")
    cutoff = _as_int(_require(entry, "cutoff", path), f"{path}.cutoff")
    if cutoff < 0:
        raise ConfigError("CONFIG_CUTOFF_NEGATIVE", f"cutoff {cutoff} < 0", "invariant", f"{path}.cutoff")
    mode = ModeSpec(statistics=statistics, mass=mass, width=width, cutoff=cutoff)
    if mode.cutoff > CUTOFF_LIMIT:
        raise ConfigError("CONFIG_BUDGET_EXCEEDED", f"cutoff {cutoff} exceeds {CUTOFF_LIMIT}", "invariant",
                          f"{path}.cutoff")
    return mode


def _parse_occupations(value, n_modes: int, modes, path: str) -> tuple[int, ...]:
    occ = tuple(_as_int(v, f"{path}[{i}]") for i, v in enumerate(_as_list(value, path)))
    if len(occ) != n_modes:
        raise ConfigError(
            "CONFIG_INITIAL_STATE", f"expected {n_modes} occupations, got {len(occ)}",
            "invariant", path,
        )
    for i, (n, m) in enumerate(zip(occ, modes)):
        if n < 0 or n > m.cutoff:
            raise ConfigError(
                "CONFIG_OCCUPATION_EXCEEDS_CUTOFF",
                f"occupation {n} outside 0..{m.cutoff}", "invariant", f"{path}[{i}]",
            )
    return occ


def _parse_initial_state(entry, modes, path: str) -> InitialStateSpec:
    entry = _as_dict(entry, path)
    kind = _as_str(_require(entry, "type", path), f"{path}.type")
    n_modes = len(modes)
    if kind == "number":
        occ = _parse_occupations(_require(entry, "occupations", path), n_modes, modes, f"{path}.occupations")
        return InitialStateSpec(kind="number", occupations=occ)
    if kind in ("coherent", "poisson"):
        mode = _as_int(_require(entry, "mode", path), f"{path}.mode")
        if not 1 <= mode <= n_modes:
            raise ConfigError("CONFIG_INITIAL_STATE", f"mode {mode} out of range 1..{n_modes}",
                              "invariant", f"{path}.mode")
        if modes[mode - 1].is_fermion:
            raise ConfigError("CONFIG_INITIAL_STATE", f"mode {mode} is fermionic",
                              "invariant", f"{path}.mode")
        if kind == "coherent":
            raw = _require(entry, "alpha", path)
            if isinstance(raw, list):
                if len(raw) != 2:
                    raise ConfigError("CONFIG_FIELD_TYPE", "alpha array must be [re, im]",
                                      "schema", f"{path}.alpha")
                alpha = complex(_as_number(raw[0], f"{path}.alpha[0]"),
                                _as_number(raw[1], f"{path}.alpha[1]"))
            else:
                alpha = complex(_as_number(raw, f"{path}.alpha"), 0.0)
            return InitialStateSpec(kind="coherent", mode=mode, alpha=alpha)
        nbar = _as_number(_require(entry, "nbar", path), f"{path}.nbar")
        if nbar < 0:
            raise ConfigError("CONFIG_INITIAL_STATE", f"nbar {nbar} < 0", "invariant", f"{path}.nbar")
        return InitialStateSpec(kind="poisson", mode=mode, nbar=nbar)
    if kind == "mixture":
        comps = []
        raw = _as_list(_require(entry, "components", path), f"{path}.components")
        if not raw:
            raise ConfigError("CONFIG_INITIAL_STATE", "mixture needs at least one component",
                              "invariant", f"{path}.components")
        for i, item in enumerate(raw):
            item = _as_dict(item, f"{path}.components[{i}]")
            w = _as_number(_require(item, "weight", f"{path}.components[{i}]"),
                           f"{path}.components[{i}].weight")
            occ = _parse_occupations(_require(item, "occupations", f"{path}.components[{i}]"),
                                     n_modes, modes, f"{path}.components[{i}].occupations")
            comps.append((w, occ))
        if any(w < 0 for w, _ in comps):
            raise ConfigError("CONFIG_MIXTURE_WEIGHTS", "weights must be >= 0",
                              "invariant", f"{path}.components")
        total = math.fsum(w for w, _ in comps)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ConfigError("CONFIG_MIXTURE_WEIGHTS", f"weights sum to {total!r}, not 1",
                              "invariant", f"{path}.components")
        return InitialStateSpec(kind="mixture", components=tuple(comps))
    raise ConfigError("CONFIG_INITIAL_STATE", f"unknown state type {kind!r}", "invariant", f"{path}.type")


def _parse_mixing(entry, modes, path: str) -> tuple[MixingParams, ...]:
    entry = _as_dict(entry, path)
    if len(modes) != 2:
        raise ConfigError("CONFIG_MIXING_MODES", f"mixing needs exactly 2 modes, got {len(modes)}",
                          "invariant", path)
    if modes[0].statistics is not modes[1].statistics:
        raise ConfigError("CONFIG_MIXING_MODES", "mixing needs both modes to share one statistics",
                          "invariant", path)
    if modes[0].cutoff != modes[1].cutoff:
        raise ConfigError("CONFIG_MIXING_MODES",
                          f"mixing needs equal cutoffs, got {modes[0].cutoff} and {modes[1].cutoff}",
                          "invariant", path)
    raw_theta = _require(entry, "theta", path)
    if isinstance(raw_theta, list):
        if not raw_theta:
            raise ConfigError("CONFIG_MIXING_MODES", "theta sweep must not be empty", "invariant",
                              f"{path}.theta")
        thetas = [_as_number(v, f"{path}.theta[{i}]") for i, v in enumerate(raw_theta)]
    else:
        thetas = [_as_number(raw_theta, f"{path}.theta")]
    phi = _as_number(entry.get("phi", 0.0), f"{path}.phi")
    psi = _as_number(entry.get("psi", 0.0), f"{path}.psi")
    chi = _as_number(entry.get("chi", 0.0), f"{path}.chi")
    return tuple(MixingParams(theta=t, phi=phi, psi=psi, chi=chi) for t in thetas)


def _check_observable_routes(observables: Sequence[str], routes: Sequence[str], path: str) -> None:
    """The occupations observable needs a state-side route."""
    if "occupations" in observables and not ({"kraus", "ode"} & set(routes)):
        raise ConfigError("CONFIG_OBSERVABLE_ROUTE",
                          "occupations need the kraus or ode route", "invariant", path)


def parse_config(text: str, default_name: str = "scenario") -> ScenarioConfig:
    """Parse and validate a JSON scenario document."""
    try:
        root = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an integer too long or nesting too deep to decode
        raise ConfigError("CONFIG_JSON_MALFORMED", str(exc), "json") from None
    root = _as_dict(root, "$")
    version = _require(root, "schema_version", "$")
    if version != SCHEMA_VERSION:
        raise ConfigError("CONFIG_SCHEMA_VERSION", f"unsupported schema_version {version!r}",
                          "schema", "$.schema_version")

    modes_raw = _as_list(_require(root, "modes", "$"), "$.modes")
    if not modes_raw:
        raise ConfigError("CONFIG_FIELD_TYPE", "modes must not be empty", "schema", "$.modes")
    modes = tuple(_parse_mode(m, f"$.modes[{i}]") for i, m in enumerate(modes_raw))

    mixing = None
    if root.get("mixing") is not None:
        mixing = _parse_mixing(root["mixing"], modes, "$.mixing")

    initial = _parse_initial_state(_require(root, "initial_state", "$"), modes, "$.initial_state")

    grid_raw = _as_dict(_require(root, "time_grid", "$"), "$.time_grid")
    start = _as_number(_require(grid_raw, "start", "$.time_grid"), "$.time_grid.start")
    stop = _as_number(_require(grid_raw, "stop", "$.time_grid"), "$.time_grid.stop")
    count = _as_int(_require(grid_raw, "count", "$.time_grid"), "$.time_grid.count")
    if start < 0 or stop < start or count < 1:
        raise ConfigError("CONFIG_TIME_GRID_INVALID",
                          f"need 0 <= start <= stop and count >= 1, got ({start}, {stop}, {count})",
                          "invariant", "$.time_grid")
    if mixing is not None and not math.isfinite(_mean_width(modes) * stop):
        raise ConfigError("CONFIG_TIME_GRID_INVALID",
                          f"the scaled time mean_width * stop = {_mean_width(modes)!r} * {stop!r} "
                          "is not finite", "invariant", "$.time_grid")
    grid = TimeGrid(start=start, stop=stop, count=count)

    routes = _parse_names(_as_list(_require(root, "routes", "$"), "$.routes"), ROUTES, "route",
                          "$.routes")
    observables = _parse_names(_as_list(_require(root, "observables", "$"), "$.observables"),
                               OBSERVABLES, "observable", "$.observables")
    for i, o in enumerate(observables):
        if o in ("S", "Qplus", "Qminus") and len(modes) != 2:
            raise ConfigError("CONFIG_OBSERVABLE_MODES",
                              f"observable {o} needs exactly 2 modes, got {len(modes)}",
                              "invariant", f"$.observables[{i}]")
    _check_observable_routes(observables, routes, "$.observables")
    # the count is not printed: it can have more digits than str() of an int allows
    if "occupations" in observables and math.prod(m.cutoff + 1 for m in modes) > OCCUPATION_COLUMNS_LIMIT:
        raise ConfigError("CONFIG_BUDGET_EXCEEDED", "occupations need one column per product-space tuple, "
                          f"prod_j (cutoff_j + 1), more than {OCCUPATION_COLUMNS_LIMIT}", "invariant",
                          f"$.observables[{observables.index('occupations')}]")

    bound = mixing_total_bound(modes) if mixing is not None else None
    if initial.occupations is not None:
        supports = [("occupations", initial.occupations)]
    else:
        supports = [(f"components[{i}]", occ) for i, (_, occ) in enumerate(initial.components or ())]
    for where, occ in supports:
        if bound is not None and sum(occ) > bound:
            raise ConfigError("CONFIG_SUPPORT_EXCEEDS_CUTOFF",
                              f"total occupation {sum(occ)} exceeds the mixing-exact bound {bound:g}",
                              "invariant", f"$.initial_state.{where}")

    ode_step = None
    if root.get("ode_step") is not None:
        ode_step = _as_number(root["ode_step"], "$.ode_step")
        if ode_step <= 0:
            raise ConfigError("CONFIG_ODE_STEP_INVALID", f"ode_step {ode_step} <= 0",
                              "invariant", "$.ode_step")

    name = _as_str(root.get("name", default_name), "$.name")
    if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise ConfigError("CONFIG_NAME_INVALID",
                          f"name {name!r} must be a plain file-name part (no path separator)",
                          "invariant", "$.name")
    # the longest output file name; <name>__manifest.txt is shorter
    tag = f"__theta{len(mixing) - 1}" if mixing is not None and len(mixing) > 1 else ""
    longest = len(f"{name}{tag}__{max(ROUTES, key=len)}__{max(OBSERVABLES, key=len)}.csv".encode())
    if longest > FILE_NAME_BYTES:
        raise ConfigError("CONFIG_NAME_INVALID", f"name makes output file names of {longest} bytes, "
                          f"more than {FILE_NAME_BYTES}", "invariant", "$.name")
    output_path = _as_str(_require(root, "output_path", "$"), "$.output_path")
    return ScenarioConfig(
        name=name,
        modes=modes,
        mixing=mixing,
        initial_state=initial,
        time_grid=grid,
        routes=routes,
        observables=observables,
        output_path=output_path,
        ode_step=ode_step,
    )


def load_config(path: str | Path) -> ScenarioConfig:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError("CONFIG_JSON_MALFORMED", f"not UTF-8: {exc}", "json") from None
    return parse_config(text, default_name=p.stem)


def config_to_json(cfg: ScenarioConfig) -> str:
    """Canonical (sorted, compact) JSON form; parse_config round-trips it."""
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "name": cfg.name,
        "modes": [
            {"statistics": m.statistics.value, "mass": m.mass, "width": m.width, "cutoff": m.cutoff}
            for m in cfg.modes
        ],
        "initial_state": _state_to_json(cfg.initial_state),
        "time_grid": {"start": cfg.time_grid.start, "stop": cfg.time_grid.stop,
                      "count": cfg.time_grid.count},
        "routes": list(cfg.routes),
        "observables": list(cfg.observables),
        "output_path": cfg.output_path,
    }
    if cfg.mixing is not None:
        first = cfg.mixing[0]
        thetas = [m.theta for m in cfg.mixing]
        doc["mixing"] = {
            "theta": thetas if len(thetas) > 1 else thetas[0],
            "phi": first.phi, "psi": first.psi, "chi": first.chi,
        }
    else:
        doc["mixing"] = None
    if cfg.ode_step is not None:
        doc["ode_step"] = cfg.ode_step
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _state_to_json(state: InitialStateSpec) -> dict:
    if state.kind == "number":
        return {"type": "number", "occupations": list(state.occupations)}
    if state.kind == "coherent":
        return {"type": "coherent", "mode": state.mode,
                "alpha": [state.alpha.real, state.alpha.imag]}
    if state.kind == "poisson":
        return {"type": "poisson", "mode": state.mode, "nbar": state.nbar}
    return {"type": "mixture",
            "components": [{"weight": w, "occupations": list(occ)} for w, occ in state.components]}


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


def validate_config(cfg: ScenarioConfig) -> None:
    """Beyond parsing: actually construct the space and the initial state, and
    check the ode step against the grid when the routes include ode."""
    build_initial_state(cfg, build_space(cfg))
    if "ode" in cfg.routes:
        _ode_step(cfg, cfg.time_grid.times())


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
    times = cfg.time_grid.times()
    step = _ode_step(cfg, times) if "ode" in routes else None
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


def _mean_width(modes: Sequence[ModeSpec]) -> float:
    """Gamma-bar, the unit of the scaled time of a mixed run."""
    return sum(m.width for m in modes) / len(modes)


def _ode_step(cfg: ScenarioConfig, times: np.ndarray) -> float:
    """The ode route's RK4 step, checked against every grid time.

    By default the largest step <= ``default_step`` that divides the grid
    spacing evenly.  Every model of the sweep takes its widths from the
    config's modes, so one step serves them all.
    """
    try:
        step = cfg.ode_step
        if step is None:
            step = default_step([m.width for m in cfg.modes])
            spacing = float(times[1] - times[0]) if len(times) > 1 else 0.0
            if spacing > 0:
                ratio = spacing / step
                if not 0 < ratio < math.inf:
                    raise StepError(f"default step {step!r} does not fit grid spacing {spacing!r}")
                step = spacing / math.ceil(ratio)
        steps_for(times, step)
    except StepError as exc:
        path = "$.ode_step" if cfg.ode_step is not None else "$.time_grid"
        raise ConfigError("CONFIG_TIME_GRID_STEP", str(exc), "invariant", path) from exc
    return step


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
