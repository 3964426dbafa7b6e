"""Scenario configs (JSON, schema_version 1): parsing, the canonical form and validation.

Standard library only, so ``fockdecay validate`` reads a config without
loading numpy or building anything of the size of the space.  A scenario
names the modes, an optional mixing block (the mixing angle may be a list,
producing one output set per angle), an initial state, a time grid, the
computation routes to run, and the observables to record.  The few scalars
the routes and the validation share live here too: the mode and mixing
parameters, the error types, the initial state's tail weight, the time grid
and the RK4 step count, each with one implementation that a run calls as
well.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Sequence

ROUTES = ("kraus", "ode", "heisenberg")
OBSERVABLES = ("N", "S", "Qplus", "Qminus", "occupations")
WEIGHT_SUM_TOL = 1e-12
SCHEMA_VERSION = 1
# Longest file name, in bytes, that common file systems accept
FILE_NAME_BYTES = 255
# Budgets checked when parsing (CONFIG_BUDGET_EXCEEDED): the largest mode cutoff, the most
# occupations CSV columns, one per tuple of the product space, and the most grid times
CUTOFF_LIMIT = 1024
OCCUPATION_COLUMNS_LIMIT = 2**20
TIME_POINTS_LIMIT = 2**20
TAIL_TOL = 1e-10
STEP_MATCH_TOL = 1e-9
# Most RK4 steps to a grid time: each step rounds by about 2^-53, so up to this count their sum
# stays within STEP_MATCH_TOL
MAX_RK4_STEPS = STEP_MATCH_TOL * 2.0**53
TWO_PI = 2.0 * math.pi


class ConfigError(ValueError):
    """Config rejection with a machine-readable code and a JSON-path."""

    def __init__(self, code: str, message: str, category: str = "invariant", path: str = "$"):
        super().__init__(f"{code} at {path}: {message}")
        self.code = code
        self.category = category  # "json" | "schema" | "invariant"
        self.path = path


class InvariantViolation(RuntimeError):
    """A numerical contract that should hold by construction was broken."""


class TruncationError(ValueError):
    """Requested state content does not fit inside the truncated basis."""


class CertificateError(ValueError):
    """The decay operators do not shift the non-Hermitian generator as required."""


class StepError(ValueError):
    """The RK4 step does not fit the requested times."""


class Statistics(Enum):
    BOSON = "boson"
    FERMION = "fermion"


@dataclass(frozen=True)
class ModeSpec:
    """One particle type: exchange statistics, mass, decay width, cutoff.

    ``cutoff`` is the largest retained occupation of the mode.  Fermionic
    modes are always stored with cutoff 1, whatever was passed in.
    """

    statistics: Statistics = Statistics.BOSON
    mass: float = 0.0
    width: float = 0.0
    cutoff: int = 8

    def __post_init__(self):
        if not math.isfinite(self.mass):
            raise ValueError(f"mass must be finite, got {self.mass}")
        if not (math.isfinite(self.width) and self.width >= 0.0):
            raise ValueError(f"width must be >= 0, got {self.width}")
        if self.cutoff < 0:
            raise ValueError(f"cutoff must be >= 0, got {self.cutoff}")
        if self.statistics is Statistics.FERMION and self.cutoff != 1:
            object.__setattr__(self, "cutoff", 1)

    @property
    def is_fermion(self) -> bool:
        return self.statistics is Statistics.FERMION


@dataclass(frozen=True)
class MixingParams:
    """Mixing angles (theta, phi, psi) plus a global phase chi.

    Angles are stored reduced to [0, 2*pi) so serialized configs have a
    canonical form; the reduction changes nothing observable.
    """

    theta: float = 0.0
    phi: float = 0.0
    psi: float = 0.0
    chi: float = 0.0

    def __post_init__(self):
        for name in ("theta", "phi", "psi", "chi"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value % TWO_PI)


def mixing_refusal(modes: Sequence[ModeSpec]) -> str | None:
    """Why ``modes`` cannot be mixed, or None: a mixing rotates two modes of one statistics and cutoff."""
    if len(modes) != 2:
        return f"mixing needs exactly 2 modes, got {len(modes)}"
    if modes[0].statistics is not modes[1].statistics:
        return "mixing needs both modes to share one statistics"
    if modes[0].cutoff != modes[1].cutoff:
        return f"mixing needs equal cutoffs, got {modes[0].cutoff} and {modes[1].cutoff}"
    return None


def mixing_total_bound(modes: Sequence[ModeSpec]) -> int | None:
    """Largest total occupation on which a mixed pair of ``modes`` is exact.

    The rotated c_j move quanta between the modes, so a boson pair with
    common cutoff c is closed under them only on the sectors of total <= c;
    a fermion pair is exact on its whole space, so it has no bound.
    """
    return None if modes[0].is_fermion else modes[0].cutoff


def truncated_terms(kind: str, value: complex | float, cutoff: int) -> tuple[list, float, float]:
    """(terms, kept, tail) of one bosonic mode's initial state up to ``cutoff``.

    For ``kind`` "coherent", ``value`` is alpha and the terms are the
    amplitudes <k|alpha>; for "poisson", it is nbar and the terms are the
    Poisson weights.  ``kept`` is the weight they hold (the exactly rounded
    sum of |amplitude|^2 or of the weights) and ``tail`` = max(0, 1 - kept) the
    weight beyond the cutoff; a TruncationError when it reaches ``TAIL_TOL``.
    Each term is the last times alpha / sqrt(k) (nbar / k), so it stays <= 1
    and no power or factorial overflows.
    """
    if kind == "coherent":
        alpha = complex(value)
        try:
            nbar = abs(alpha) * abs(alpha)
        except OverflowError:  # |alpha| itself past the float range
            nbar = math.inf
        terms = [complex(math.exp(-0.5 * nbar))]
        for k in range(1, cutoff + 1):
            terms.append(terms[-1] * alpha / math.sqrt(k))
        kept = math.fsum(abs(a) ** 2 for a in terms)
        what = f"coherent state |alpha|^2={nbar:.6g}"
    else:
        nbar = float(value)
        terms = [math.exp(-nbar)]
        for k in range(1, cutoff + 1):
            terms.append(terms[-1] * nbar / k)
        kept = math.fsum(terms)
        what = f"Poisson mixture nbar={nbar:.6g}"
    tail = max(0.0, 1.0 - kept)
    if tail >= TAIL_TOL:
        raise TruncationError(f"{what} leaves weight {tail:.3e} beyond cutoff {cutoff} (tolerance {TAIL_TOL})")
    return terms, kept, tail


def default_step(widths: Sequence[float]) -> float:
    """1e-3 in units of the fastest width (1e-3 raw when nothing decays)."""
    gmax = max(widths, default=0.0)
    return 1e-3 / gmax if gmax > 0 else 1e-3


def steps_for(times: Iterable[float], step: float) -> list[int]:
    """The number of RK4 steps to each of ``times``, which must be multiples of ``step``
    within ``STEP_MATCH_TOL``, relative to max(1, |t|); the times are read once, in
    order, and an error names the first that fails."""
    step = float(step)
    counts = []
    for t in map(float, times):
        ratio = t / step if step else math.nan  # t / 0 is no finite count either
        if not math.isfinite(ratio):
            raise StepError(f"time {t!r} over step {step!r} is not a finite step count")
        n = round(ratio)  # to even on a tie, as np.rint
        if not abs(n * step - t) <= STEP_MATCH_TOL * max(1.0, abs(t)):
            raise StepError(f"time {t!r} is not a multiple of step {step!r}; "
                            "interpolation is not supported")
        counts.append(n)
    return counts


@dataclass(frozen=True)
class TimeGrid:
    """``count`` times from ``start`` to ``stop``, iterated one at a time."""

    start: float
    stop: float
    count: int

    def __iter__(self) -> Iterator[float]:
        """The times of np.linspace(start, stop, count), bit for bit: numpy's operations
        in numpy's order, i * step + start with step = (stop - start) / (count - 1), or
        i / (count - 1) * (stop - start) + start where that step underflows to 0, and
        stop itself last; a single time is 0 * (stop - start) + start."""
        start, stop = float(self.start), float(self.stop)
        delta, div = stop - start, self.count - 1
        if div < 1:
            yield from (0.0 * delta + start for _ in range(self.count))
            return
        step = delta / div
        for i in range(div):
            yield (i / div * delta if step == 0 else i * step) + start
        yield stop


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
    if (refusal := mixing_refusal(modes)) is not None:
        raise ConfigError("CONFIG_MIXING_MODES", refusal, "invariant", path)
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
    if count > TIME_POINTS_LIMIT:  # not printed, as the occupations' count below
        raise ConfigError("CONFIG_BUDGET_EXCEEDED", f"more than {TIME_POINTS_LIMIT} grid times", "invariant",
                          "$.time_grid.count")
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
# validation

def validate_config(cfg: ScenarioConfig) -> None:
    """Beyond parsing, from the config alone: a coherent or Poisson initial state's
    tail weight beyond its mode's cutoff (:func:`truncated_terms`, which builds
    the state in a run), and, when the routes include ode, the RK4 step against
    every time of the grid (:func:`_ode_step`, which a run calls too).  Nothing of
    the size of the space is built: the grid is iterated, not held."""
    state = cfg.initial_state
    if state.kind in ("coherent", "poisson"):
        try:
            truncated_terms(state.kind, state.alpha if state.kind == "coherent" else state.nbar,
                            cfg.modes[state.mode - 1].cutoff)
        except TruncationError as exc:
            raise ConfigError("CONFIG_STATE_TAIL", str(exc), "invariant", "$.initial_state") from exc
    if "ode" in cfg.routes:
        _ode_step(cfg)


def _mean_width(modes: Sequence[ModeSpec]) -> float:
    """Gamma-bar, the unit of the scaled time of a mixed run."""
    return sum(m.width for m in modes) / len(modes)


def _ode_step(cfg: ScenarioConfig) -> float:
    """The ode route's RK4 step, checked against every grid time by :func:`steps_for`,
    and refused where the last time needs more than ``MAX_RK4_STEPS`` steps.

    By default the largest step <= ``default_step`` that divides the grid
    spacing evenly.  Every model of the sweep takes its widths from the
    config's modes, so one step serves them all.
    """
    try:
        step = cfg.ode_step
        if step is None:
            step = default_step([m.width for m in cfg.modes])
            head = list(itertools.islice(cfg.time_grid, 2))
            spacing = head[1] - head[0] if len(head) > 1 else 0.0
            if spacing > 0:
                ratio = spacing / step
                if not 0 < ratio < math.inf:
                    raise StepError(f"default step {step!r} does not fit grid spacing {spacing!r}")
                step = spacing / math.ceil(ratio)
        if steps_for(cfg.time_grid, step)[-1] > MAX_RK4_STEPS:  # a count can have hundreds of digits
            raise StepError(f"time {cfg.time_grid.stop!r} needs more than {MAX_RK4_STEPS:.2e} RK4 steps of "
                            f"{step!r}, whose rounding (2^-53 each) would add up past {STEP_MATCH_TOL}")
    except StepError as exc:
        path = "$.ode_step" if cfg.ode_step is not None else "$.time_grid"
        raise ConfigError("CONFIG_TIME_GRID_STEP", str(exc), "invariant", path) from exc
    return step
