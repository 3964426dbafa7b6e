"""A run's memory does not grow with its time grid beyond the series it writes.

The state routes hand each chunk of states to the reader and drop it, so
the peak of a run is set by the model and one chunk, not by the number of
grid points.  A chunk is one (n, K) stack of a route's support values, n =
_stack_points(max(K, d)).  Each case's short grid is two whole stacks of its
route, as from the second stack on the stack a route handed over, and what
its reader made of it, are held while the next is made; its long grid is
seven.  What a run does hold for every grid point is its output: the
(T, columns) float64 series, kept until all of them are computed so that a
run that fails writes nothing, and written to CSV row by row.  tracemalloc
sees numpy's buffers, so the peak it reports covers the state stacks, the
RK4 block values and those series.
"""
import json
import tracemalloc
from functools import partial

import numpy as np
import pytest

from conftest import stack_width

from fockdecay.channel import _stack_points, evolve_state, read_series
from fockdecay.master import build_generator, integrate
from fockdecay.scenario import (_ode_step, build_decay_model, build_initial_state, build_space, parse_config,
                                run_scenario)

# |S| = 35 (three bosons, total 4) and |S| = 36 (two bosons, total 12)
THREE_BOSONS = [{"statistics": "boson", "mass": m, "width": g, "cutoff": 4}
                for m, g in ((0.0, 0.5), (0.5, 1.0), (1.0, 1.5))]
TWO_BOSONS = [{"statistics": "boson", "mass": m, "width": g, "cutoff": c}
              for m, g, c in ((0.0, 0.5, 12), (0.5, 1.0, 2))]
CASES = pytest.mark.parametrize("route, modes, initial_state", [
    ("kraus", THREE_BOSONS, {"type": "number", "occupations": [2, 1, 1]}),
    ("ode", THREE_BOSONS, {"type": "number", "occupations": [2, 1, 1]}),
    # 169 reachable entries in Delta N blocks of at most 13: each block advances chunk by
    # chunk, and its 7 x 48 x 169 values (~900 KB) are never all held
    ("ode", TWO_BOSONS, {"type": "coherent", "mode": 1, "alpha": 0.05}),
    # the kraus support of the same state holds the same 169 entries, enough to show kept
    # states; from |2,1,1> it holds 12, in stacks as wide as d = 35
    ("kraus", TWO_BOSONS, {"type": "coherent", "mode": 1, "alpha": 0.05}),
], ids=["kraus-number", "ode-number", "ode-coherent", "kraus-coherent"])


def _config(route, modes, initial_state, count, observables, output_path="unused"):
    return parse_config(json.dumps({
        "schema_version": 1, "name": "grid", "modes": modes, "mixing": None,
        "initial_state": initial_state, "time_grid": {"start": 0.0, "stop": 2.0, "count": count},
        "routes": [route], "observables": observables, "output_path": output_path}))


def _traced_peak(run):
    run()  # first-call set-up is not the grid's
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _run_peak_beyond_output(tmp_path, route, modes, initial_state, count):
    """The peak of a run reading N and the occupations, less the bytes of those series."""
    cfg = _config(route, modes, initial_state, count, ["N", "occupations"], str(tmp_path))
    runs = iter(("warm", str(count)))
    peak = _traced_peak(lambda: run_scenario(cfg, out_dir=tmp_path / next(runs)))
    return peak - count * (1 + build_space(cfg).dimension) * 8


def _route(route, modes, initial_state, count):
    """The route on the case's grid of ``count`` points, called with its reader."""
    cfg = _config(route, modes, initial_state, count, ["N"])
    space = build_space(cfg)
    rho0, model, times = build_initial_state(cfg, space), build_decay_model(space), np.linspace(0.0, 2.0, count)
    if route == "kraus":
        return partial(evolve_state, model, rho0, times)
    return partial(integrate, build_generator(model), rho0, times, _ode_step(cfg))


def _grids(route, modes, initial_state):
    """The counts of a grid of two whole stacks of the route's and of a grid of seven."""
    points = _stack_points(stack_width(_route(route, modes, initial_state, 2)))
    return 2 * points, 7 * points


def _route_peak(route, modes, initial_state, count):
    """The peak of a route and a reader of N alone."""
    read = partial(read_series, omegas={"N": np.eye(len(modes))})
    return _traced_peak(partial(_route(route, modes, initial_state, count), read))


@CASES
def test_peak_memory_does_not_grow_with_the_grid(tmp_path, route, modes, initial_state):
    short, long = (_run_peak_beyond_output(tmp_path, route, modes, initial_state, count)
                   for count in _grids(route, modes, initial_state))
    assert long <= 1.2 * short, (short, long)


@CASES
def test_a_routes_peak_memory_does_not_grow_with_the_grid(route, modes, initial_state):
    short, long = (_route_peak(route, modes, initial_state, count) for count in _grids(route, modes, initial_state))
    assert long <= 1.2 * short, (short, long)
