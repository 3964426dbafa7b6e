"""The library still has every name the benchmark looks up.

``perfbench/instrument.py`` looks each traced function up by name when a
traced run starts; ``perfbench/harness.py`` and ``perfbench/test_perfbench.py``
read ``load_config``, ``parse_config`` and ``run_scenario`` from
``fockdecay.scenario``; ``perfbench/setup_probe.py`` patches ``load_config``
and ``validate_config`` in ``fockdecay.cli``.  These tests do those lookups,
so a renamed or deleted name fails here, not only in ``perfbench/run.py``.
"""
import importlib
from pathlib import Path

import pytest

import fockdecay.channel as channel
import fockdecay.cli as cli
import fockdecay.scenario as scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_the_tracer_finds_every_function_it_wraps(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    instrument = importlib.import_module("instrument")
    tracer = importlib.import_module("tracer")
    original = channel.build_kraus
    with instrument.traced_library(tracer.Tracer()):
        assert channel.build_kraus is not original
    assert channel.build_kraus is original


@pytest.mark.parametrize("module, name", [
    (scenario, "load_config"), (scenario, "parse_config"), (scenario, "run_scenario"),
    (cli, "load_config"), (cli, "validate_config"),
], ids=lambda x: getattr(x, "__name__", x))
def test_the_benchmark_finds_every_other_name_it_reads(module, name):
    assert callable(getattr(module, name))
