"""A run's memory does not grow with its time grid.

The state routes hand each chunk of states to the reader and drop it, so
the peak of a run is set by the model and one chunk, not by the number of
grid points.  tracemalloc sees numpy's buffers, so the peak it reports
covers the state stacks and the RK4 block values.
"""
import json
import tracemalloc

import pytest

from fockdecay.scenario import parse_config, run_scenario

# |S| = 35 (three bosons, total 4) and |S| = 36 (two bosons, total 12): a state is
# ~20 KB, so 161 kept states would be ~3 MB against a peak of ~1 MB, and a 21-point
# grid fills a whole stack of _stack_points(|S|) = 6 points
THREE_BOSONS = [{"statistics": "boson", "mass": m, "width": g, "cutoff": 4}
                for m, g in ((0.0, 0.5), (0.5, 1.0), (1.0, 1.5))]
TWO_BOSONS = [{"statistics": "boson", "mass": m, "width": g, "cutoff": c}
              for m, g, c in ((0.0, 0.5, 12), (0.5, 1.0, 2))]


def _peak(tmp_path, route, modes, initial_state, count):
    cfg = parse_config(json.dumps({
        "schema_version": 1, "name": "grid", "modes": modes, "mixing": None,
        "initial_state": initial_state, "time_grid": {"start": 0.0, "stop": 2.0, "count": count},
        "routes": [route], "observables": ["N", "occupations"], "output_path": str(tmp_path)}))
    run_scenario(cfg, out_dir=tmp_path / "warm")  # first-call set-up is not the grid's
    tracemalloc.start()
    try:
        run_scenario(cfg, out_dir=tmp_path / str(count))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("route, modes, initial_state", [
    ("kraus", THREE_BOSONS, {"type": "number", "occupations": [2, 1, 1]}),
    ("ode", THREE_BOSONS, {"type": "number", "occupations": [2, 1, 1]}),
    # 169 reachable entries in Delta N blocks of at most 13: each block advances chunk by
    # chunk, and its 161 x 169 values (~430 KB) are never all held
    ("ode", TWO_BOSONS, {"type": "coherent", "mode": 1, "alpha": 0.05}),
], ids=["kraus-number", "ode-number", "ode-coherent"])
def test_peak_memory_does_not_grow_with_the_grid(tmp_path, route, modes, initial_state):
    short = _peak(tmp_path, route, modes, initial_state, 21)
    long = _peak(tmp_path, route, modes, initial_state, 161)
    assert long <= 1.2 * short, (short, long)
