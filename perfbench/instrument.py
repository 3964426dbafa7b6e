"""Spans and counters around fockdecay's public functions, from outside.

Each function is replaced where its caller looks it up: ``run_scenario``
finds the fock constructors, the model builders, ``evolve_state``,
``integrate``, ``evolve_quadratic`` and ``expectation`` as
``fockdecay.scenario`` attributes; ``evolve_state`` finds ``build_kraus``
and ``apply_channel`` in ``fockdecay.channel``; ``build_total_number``,
used when the space does not have two modes, is imported from
``fockdecay.fock`` at call time.  The library itself is not changed.
"""
from __future__ import annotations

import numpy as np

import fockdecay.channel as channel
import fockdecay.fock as fock
import fockdecay.scenario as scenario
from tracer import Tracer, patched

# A Kraus operator E counts as useful on rho when tr(E rho E^dag) exceeds this.
USEFUL_WEIGHT_FLOOR = 1e-30
# Eigenvalues of rho at or below this are taken as outside its support.
SUPPORT_FLOOR = 1e-14


class CountedGenerator:
    """Stands in for ``master.GeneratorAction`` and counts its applications."""

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._gen, name)

    def __call__(self, rho):
        self._tracer.count("master.generator_calls")
        return self._gen(rho)


def _count_dim(tracer, args, kwargs, space):
    tracer.set_count("fock.dim", space.dimension)
    return space


def _count_kraus(tracer, args, kwargs, kraus):
    tracer.count("channel.kraus_calls")
    tracer.count("channel.kraus_ops", len(kraus.operators))
    return kraus


class _UsefulCounter:
    """Counts the Kraus operators with E rho E^dag != 0 on each applied state.

    E rho E^dag = (E R)(E R)^dag for rho = R R^dag, so only E R is needed.
    R is computed once per distinct state; ``evolve_state`` applies every
    family to the same initial state.
    """

    def __init__(self):
        self._roots: dict[int, tuple[object, np.ndarray]] = {}

    def _root(self, rho) -> np.ndarray:
        cached = self._roots.get(id(rho))
        if cached is None or cached[0] is not rho:
            w, v = np.linalg.eigh(rho.matrix)
            keep = w > SUPPORT_FLOOR
            cached = (rho, v[:, keep] * np.sqrt(w[keep]))
            self._roots[id(rho)] = cached
        return cached[1]

    def __call__(self, tracer, args, kwargs, result):
        kraus, rho = args
        root = self._root(rho)
        useful = sum(
            1 for E in kraus.operators
            if float(np.sum(np.abs(E.entries @ root) ** 2)) > USEFUL_WEIGHT_FLOOR
        )
        tracer.count("channel.kraus_useful", useful)
        return result


def _count(key):
    def hook(tracer, args, kwargs, result):
        tracer.count(key)
        return result
    return hook


def _count_generator(tracer, args, kwargs, gen):
    return CountedGenerator(gen, tracer)


def _count_rk4_steps(tracer, args, kwargs, states):
    times, step = args[2], args[3]
    tracer.count("master.rk4_steps", int(round(max(times) / step)) if len(times) else 0)
    return states


def traced_library(tracer: Tracer):
    """Context manager: every call below records spans and counts on ``tracer``."""
    useful = _UsefulCounter()
    table = [
        (scenario, "run_scenario", "scenario.run", None),
        (scenario, "FockSpace", "fock.space", _count_dim),
        (scenario, "number_state", "fock.state", None),
        (scenario, "coherent_state", "fock.state", None),
        (scenario, "poisson_mixture", "fock.state", None),
        (scenario, "DensityOperator", "fock.state", None),
        (fock, "build_total_number", "fock.observables", None),
        (scenario, "build_mixed_model", "flavour.model", None),
        (scenario, "build_flavour_observables", "flavour.observables", None),
        (scenario, "build_decay_model", "channel.model", None),
        (scenario, "evolve_state", "channel.evolve", None),
        (channel, "build_kraus", "channel.kraus", _count_kraus),
        (channel, "apply_channel", "channel.apply", useful),
        (scenario, "expectation", "channel.expectation", _count("channel.expectation_calls")),
        (scenario, "build_generator", "master.generator", _count_generator),
        (scenario, "integrate", "master.integrate", _count_rk4_steps),
        (scenario, "evolve_quadratic", "heisenberg.quadratic", _count("heisenberg.quadratic_calls")),
    ]
    return patched([
        (mod, attr, tracer.wrap(getattr(mod, attr), name, hook))
        for mod, attr, name, hook in table
    ])
