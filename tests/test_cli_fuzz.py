"""Property test of the config/CLI boundary.

Mutated copies of the shipped configs go through ``cli.main`` in-process.
Every one must end in exactly one of three ways: exit 0 with a silent
stderr, exit 1 with a coded config error, or exit 2 with a runtime
invariant breach (or an output I/O failure).  An escaping exception, a
Python warning or any other stderr text fails the test.
"""
import copy
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fockdecay.cli import main

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
PREFIXES = {0: ("",), 1: ("config error [",), 2: ("runtime invariant breach: ", "i/o failure: ")}
MAX_POINTS = 5


def _shipped(path: Path) -> dict:
    doc = json.loads(path.read_text())
    doc["time_grid"]["count"] = min(doc["time_grid"]["count"], MAX_POINTS)
    return doc


BASES = [_shipped(p) for p in CONFIGS]
KEYS = sorted({k for doc in BASES for k in doc}
              | {"type", "mode", "alpha", "nbar", "components", "weight", "occupations",
                 "statistics", "mass", "width", "cutoff", "theta", "phi", "start", "stop",
                 "count", "ode_step"})
NUMBERS = st.one_of(
    st.integers(-2, MAX_POINTS),
    st.floats(-10.0, 10.0),
    st.sampled_from([0.0, 1e-320, 5e-324, 1e-300, 1e200, 1e308, -1e308, 10**400,
                     math.nan, math.inf, -math.inf]),
)
WORDS = st.sampled_from(["boson", "fermion", "anyon", "number", "coherent", "poisson", "mixture",
                         "kraus", "ode", "heisenberg", "N", "S", "Qplus", "Qminus", "occupations",
                         "", ".", "..", "a/b", "x"])
VALUES = st.recursive(
    NUMBERS | WORDS | st.booleans() | st.none(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(KEYS), inner,
                                                                max_size=3),
    max_leaves=6,
)
OCCUPATIONS = st.lists(st.integers(-1, 3), min_size=1, max_size=3)
# Whole blocks in the shape the parser expects, so that mutations reach the runs.
BLOCKS = {
    "initial_state": st.one_of(
        st.fixed_dictionaries({"type": st.just("number"), "occupations": OCCUPATIONS}),
        st.fixed_dictionaries({"type": st.just("coherent"), "mode": st.integers(0, 3),
                               "alpha": NUMBERS | st.lists(NUMBERS, min_size=2, max_size=2)}),
        st.fixed_dictionaries({"type": st.just("poisson"), "mode": st.integers(0, 3),
                               "nbar": NUMBERS}),
        st.fixed_dictionaries({"type": st.just("mixture"), "components": st.lists(
            st.fixed_dictionaries({"weight": st.sampled_from([0.25, 0.5, 0.75, 1.0]),
                                   "occupations": OCCUPATIONS}), min_size=1, max_size=3)}),
    ),
    "mixing": st.none() | st.fixed_dictionaries(
        {"theta": NUMBERS | st.lists(NUMBERS, max_size=3)},
        optional={"phi": NUMBERS, "psi": NUMBERS, "chi": NUMBERS}),
    "modes": st.lists(st.fixed_dictionaries({
        "statistics": st.sampled_from(["boson", "fermion"]), "mass": NUMBERS,
        "width": NUMBERS, "cutoff": st.integers(0, 4)}), min_size=1, max_size=3),
}
ROUTE_OVERRIDES = st.none() | st.sampled_from(
    ["kraus", "ode", "heisenberg", "kraus,heisenberg", "kraus,kraus", ",", "", "warp"]
)


def _paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _new_value(draw, key, old):
    """Mostly a value of the old one's kind, so the parser accepts it often enough."""
    if key in BLOCKS and draw(st.booleans()):
        return draw(BLOCKS[key])
    if draw(st.integers(0, 4)) == 0:
        return draw(VALUES)
    if isinstance(old, bool) or old is None:
        return draw(VALUES)
    if isinstance(old, int):
        return draw(st.integers(-2, MAX_POINTS))
    if isinstance(old, float):
        return draw(NUMBERS)
    if isinstance(old, str):
        return draw(WORDS)
    return draw(VALUES)


@st.composite
def mutated_configs(draw):
    """A shipped config with one to three leaves or subtrees replaced, deleted or duplicated."""
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        action = draw(st.sampled_from(["replace", "replace", "replace", "delete", "duplicate"]))
        if action == "delete":
            del parent[key]
        elif action == "duplicate" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key] = _new_value(draw, key, parent[key])
    return doc


@pytest.mark.filterwarnings("error")  # a warning would reach stderr ahead of the prefix
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=mutated_configs(), command=st.sampled_from(["validate", "run"]), routes=ROUTE_OVERRIDES)
def test_mutated_configs_end_in_a_coded_exit(doc, command, routes):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "mutated.json"
        cfg.write_text(json.dumps(doc))
        argv = [command, str(cfg)]
        if command == "run":
            argv += ["--out-dir", str(Path(tmp) / "out")]
            if routes is not None:
                argv += ["--routes", routes]
        err = StringIO()
        with redirect_stderr(err), redirect_stdout(StringIO()):
            code = main(argv)
    assert code in PREFIXES
    text = err.getvalue()
    if code == 0:
        assert text == ""
    else:
        assert text.startswith(PREFIXES[code]), text
