"""The library still has every function the benchmark's tracer wraps.

``perfbench/instrument.py`` looks each traced function up by name when a
traced run starts.  This test does that lookup, so a renamed or deleted
function fails here, not only in ``perfbench/run.py --trace 1``.
"""
import importlib
from pathlib import Path

import fockdecay.channel as channel

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_the_tracer_finds_every_function_it_wraps(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    instrument = importlib.import_module("instrument")
    tracer = importlib.import_module("tracer")
    original = channel.build_kraus
    with instrument.traced_library(tracer.Tracer()):
        assert channel.build_kraus is not original
    assert channel.build_kraus is original
