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
