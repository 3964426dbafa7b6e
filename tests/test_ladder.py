import importlib.util
import json
from pathlib import Path

import pytest

from fockdecay.scenario import parse_config, validate_config

LADDER = Path(__file__).resolve().parent.parent / "tools" / "ladder.py"
_spec = importlib.util.spec_from_file_location("ladder", LADDER)
ladder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ladder)


@pytest.mark.parametrize("doc, route_sets", ladder.ROWS, ids=[doc["name"] for doc, _ in ladder.ROWS])
def test_ladder_rows_are_valid_configs(doc, route_sets):
    # parsed and validated as a run would be (space, initial state, ode step), but not run
    cfg = parse_config(json.dumps(doc))
    validate_config(cfg)
    for routes in route_sets:
        assert set(routes.split(",")) <= set(cfg.routes)


def test_cells_alternate_the_roots_and_summarise_each():
    # a fake runner: no subprocess, each run's seconds are its place in the run order
    calls = []

    def run(doc, routes, root):
        calls.append((doc["name"], routes, root))
        if len(calls) == 10:  # the second kraus run on b
            return {"row": doc["name"], "routes": routes, "status": "timeout",
                    "seconds": None, "peak_rss_mb": None}
        return {"row": doc["name"], "routes": routes, "status": "ok",
                "seconds": float(len(calls)), "peak_rss_mb": 10.0 * len(calls)}

    rows = [({"name": "one"}, ("heisenberg", "kraus"))]
    lines = list(ladder.cells(["a", "b"], rows=rows, run=run))
    assert [root for _, _, root in calls] == ["a", "b", "b", "a", "a", "b",  # heisenberg
                                              "b", "a", "a", "b", "b", "a"]  # kraus
    assert [(line["row"], line["routes"], line["root"]) for line in lines] == [
        ("one", "heisenberg", "a"), ("one", "heisenberg", "b"), ("one", "kraus", "a"), ("one", "kraus", "b")]
    # heisenberg on a ran 1st, 4th and 5th
    assert lines[0]["status"] == "ok" and lines[0]["runs"] == 3
    assert lines[0]["seconds"] == {"median": 4.0, "min": 1.0, "max": 5.0}
    assert lines[0]["peak_rss_mb"] == {"median": 40.0, "min": 10.0, "max": 50.0}
    assert lines[1]["seconds"] == {"median": 3.0, "min": 2.0, "max": 6.0}
    assert lines[2]["seconds"] == {"median": 9.0, "min": 8.0, "max": 12.0}
    # kraus on b: one of its three runs timed out, so the cell has no measures
    assert lines[3]["status"] == "timeout"
    assert lines[3]["seconds"] is None and lines[3]["peak_rss_mb"] is None


def test_a_failed_run_names_its_error():
    runs = [{"row": "r", "routes": "ode", "status": "ok", "seconds": 1.0, "peak_rss_mb": 5.0},
            {"row": "r", "routes": "ode", "status": "error", "seconds": None, "peak_rss_mb": None,
             "error": "InvariantViolation: boom"}]
    line = ladder._summary(runs, "root")
    assert line["status"] == "error" and line["error"] == "InvariantViolation: boom"
    assert line["runs"] == 2 and line["root"] == "root"
    assert line["seconds"] is None and line["peak_rss_mb"] is None
