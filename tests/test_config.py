"""The config module: its time grid and step count against numpy's, the lazy package, and a
validation that reads the config alone."""
import importlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fockdecay
from fockdecay import config
from fockdecay.config import STEP_MATCH_TOL, StepError, TimeGrid, parse_config, steps_for, validate_config

FINITE = st.floats(min_value=-1e300, max_value=1e300)  # stop - start stays finite; subnormals included


@settings(max_examples=500, deadline=None)
@given(start=FINITE, stop=FINITE, count=st.integers(1, 40))
@example(start=0.0, stop=8.0, count=161)
@example(start=-0.0, stop=-0.0, count=1)
@example(start=-0.0, stop=0.0, count=3)
@example(start=0.0, stop=-0.0, count=2)
@example(start=2.5, stop=2.5, count=4)
@example(start=0.0, stop=5e-324, count=7)  # the spacing underflows to 0
@example(start=5e-324, stop=1e-323, count=3)
@example(start=1e-310, stop=3e-310, count=11)
def test_the_time_grid_is_numpys_linspace_bit_for_bit(start, stop, count):
    got = np.array(list(TimeGrid(start, stop, count)), dtype=float)
    want = np.linspace(start, stop, count)
    assert got.tobytes() == want.tobytes()  # every bit, the sign of zero too


def numpy_steps_for(times, step):
    """The step counts as numpy formed them, one pass over the whole grid."""
    t = np.asarray(times, dtype=float)
    step = float(step)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ratio = t / step
        n = np.rint(ratio)
        bad = ~(np.abs(n * step - t) <= STEP_MATCH_TOL * np.maximum(1.0, np.abs(t)))
    if bad.any():
        i = int(np.argmax(bad))
        if not math.isfinite(ratio[i]):
            raise StepError(f"time {float(t[i])!r} over step {step!r} is not a finite step count")
        raise StepError(f"time {float(t[i])!r} is not a multiple of step {step!r}; "
                        "interpolation is not supported")
    return list(map(int, n.tolist()))


@st.composite
def grids_and_steps(draw):
    step = draw(st.one_of(st.sampled_from([1e-3, 0.125, 0.3, 8.0 / 160 / 50, 0.0, -0.0, math.inf]),
                          st.floats(min_value=5e-324, max_value=1e6), st.floats()))
    multiples = st.integers(0, 10**6).map(lambda k: k * step if math.isfinite(step) else 0.0)
    times = draw(st.lists(st.one_of(multiples, st.floats(min_value=0.0, max_value=1e308), st.floats()),
                          max_size=8))
    return times, step


@settings(max_examples=1000, deadline=None)
@given(case=grids_and_steps())
@example(case=([0.0, 5e-4, 1.0], 1e-3))  # half a step rounds to even, then misses
@example(case=([0.0, 0.75, 1e308], 0.3))
@example(case=([0.0, 1e308, 0.75], 0.3))
@example(case=([0.0, 1e20], 0.3))
@example(case=([0.0, 1.0], 5e-324))
@example(case=([1e9 + 0.5, 1e9 + 1.5], 1.0))  # ties within the tolerance: counts 1e9 and 1e9 + 2, to even
def test_steps_for_counts_and_refuses_as_numpy_did(case):
    times, step = case
    try:
        want = numpy_steps_for(times, step)
    except StepError as exc:
        with pytest.raises(StepError) as got:
            steps_for(times, step)
        assert str(got.value) == str(exc)
    else:
        got = steps_for(iter(times), step)  # read once, in order
        assert got == want and all(type(n) is int for n in got)


# ---------------------------------------------------------------------------
# the lazy package

MOVED = [(module, name) for module, names in [
    ("fock", ("Statistics", "ModeSpec", "InvariantViolation", "TruncationError", "TAIL_TOL")),
    ("flavour", ("MixingParams", "mixing_total_bound")),
    ("channel", ("CertificateError",)),
    ("master", ("StepError", "STEP_MATCH_TOL", "default_step", "steps_for")),
    ("scenario", ("ConfigError", "ScenarioConfig", "parse_config", "load_config", "config_to_json",
                  "validate_config", "_ode_step", "_mean_width", "CUTOFF_LIMIT", "OCCUPATION_COLUMNS_LIMIT")),
] for name in names]


def test_every_export_is_its_home_modules_object():
    for name in fockdecay.__all__:
        if name != "__version__":
            home = importlib.import_module(f"fockdecay.{fockdecay._HOME[name]}")
            assert getattr(fockdecay, name) is getattr(home, name), name
    with pytest.raises(AttributeError):
        fockdecay.not_an_export


@pytest.mark.parametrize("module, name", MOVED, ids=[f"{m}.{n}" for m, n in MOVED])
def test_names_moved_to_the_config_module_resolve_from_their_old_homes(module, name):
    assert getattr(importlib.import_module(f"fockdecay.{module}"), name) is getattr(config, name)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from fockdecay import *", namespace)
    assert set(fockdecay.__all__) <= set(namespace)
    assert namespace["run_scenario"] is fockdecay.scenario.run_scenario


# ---------------------------------------------------------------------------
# validation from the config alone

def test_validation_of_a_large_space_allocates_nothing_of_its_size():
    # 3 bosons at cutoff 60 from a coherent state: |S| = C(63, 3) = 39,711, so a dense
    # rho0 would need 25 GB; the tail weight and the ode step need a few kB
    doc = {
        "schema_version": 1, "name": "large",
        "modes": [{"statistics": "boson", "mass": 0.1 * j, "width": 1.0, "cutoff": 60} for j in range(3)],
        "initial_state": {"type": "coherent", "mode": 1, "alpha": [2.0, 1.0]},
        "time_grid": {"start": 0.0, "stop": 2.0, "count": 201},
        "routes": ["kraus", "ode", "heisenberg"], "observables": ["N"], "output_path": "out/large",
    }
    cfg = parse_config(json.dumps(doc))
    tracemalloc.start()
    try:
        validate_config(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
