"""Seeded scenario generators for the three benchmark workloads.

The seed is read here and nowhere else: it picks masses, mixing angles,
``phi`` and the widths below each workload's fixed maximum width.  Those
values leave the work unchanged.  The maximum width fixes the RK4 step
count and the initial occupations fix the Kraus family, so both are
constants of the workload, and every generated width stays above zero.
"""
from __future__ import annotations

import math
import random

# Largest cross-route deviation a correct run may report, on every workload.
# The shipped configs agree to <= 5e-11; the RK4 oracle sets that floor.
ROUTE_TOL = 1e-9


def _boson(mass: float, width: float, cutoff: int) -> dict:
    return {"statistics": "boson", "mass": mass, "width": width, "cutoff": cutoff}


def _fermion(mass: float, width: float) -> dict:
    return {"statistics": "fermion", "mass": mass, "width": width, "cutoff": 1}


def _oracle(rng: random.Random, tiny: bool) -> dict:
    # Shape of configs/oscillation_theta90.json; mode 2 carries the maximum width.
    return {
        "modes": [_boson(rng.uniform(0.0, 0.2), rng.uniform(0.45, 0.55), 5),
                  _boson(5.0, 1.5, 5)],
        "mixing": {"theta": rng.uniform(1.45, 1.70), "phi": rng.uniform(0.0, 2 * math.pi),
                   "psi": math.pi, "chi": 1.5 * math.pi},
        "initial_state": {"type": "number", "occupations": [2, 1]},
        "time_grid": {"start": 0.0, "stop": 0.4 if tiny else 8.0, "count": 5 if tiny else 161},
        "routes": ["kraus", "ode", "heisenberg"],
        "observables": ["N", "S", "Qplus", "Qminus", "occupations"],
    }


def _sweep(rng: random.Random, tiny: bool) -> dict:
    # One angle in each quarter of [0, pi]; none lands on 0 or pi/2 exactly.
    thetas = [(i + rng.uniform(0.1, 0.9)) * math.pi / 4 for i in range(5)]
    return {
        "modes": [_boson(rng.uniform(0.0, 0.5), rng.uniform(0.4, 0.8), 7),
                  _boson(rng.uniform(4.5, 5.5), 1.5, 7)],
        "mixing": {"theta": thetas, "phi": rng.uniform(0.0, 2 * math.pi), "psi": 0.0, "chi": 0.0},
        "initial_state": {"type": "number", "occupations": [3, 2]},
        "time_grid": {"start": 0.0, "stop": 0.5 if tiny else 5.0, "count": 3 if tiny else 41},
        "routes": ["kraus", "heisenberg"],
        "observables": ["N", "S", "Qplus"],
    }


def _multimode(rng: random.Random, tiny: bool) -> dict:
    # Fermion 2 carries the maximum width.  Both components have total
    # occupation 4, so the reachable subspace is the 39 states with total <= 4.
    return {
        "modes": [_boson(rng.uniform(0.0, 1.0), rng.uniform(0.3, 0.9), 3),
                  _boson(rng.uniform(1.0, 2.0), rng.uniform(0.3, 0.9), 3),
                  _fermion(rng.uniform(2.0, 3.0), rng.uniform(0.3, 0.9)),
                  _fermion(rng.uniform(3.0, 4.0), 1.0)],
        "mixing": None,
        "initial_state": {"type": "mixture", "components": [
            {"weight": 0.625, "occupations": [2, 1, 1, 0]},
            {"weight": 0.375, "occupations": [1, 2, 0, 1]},
        ]},
        "time_grid": {"start": 0.0, "stop": 0.2 if tiny else 1.5, "count": 3 if tiny else 31},
        "routes": ["kraus", "ode", "heisenberg"],
        "observables": ["N", "occupations"],
    }


_BUILDERS = {"oracle": _oracle, "sweep": _sweep, "multimode": _multimode}
WORKLOADS = tuple(_BUILDERS)


def make_config(workload: str, seed: int, output_path: str, tiny: bool = False) -> dict:
    """Scenario document (schema_version 1) for one workload and seed.

    ``tiny`` shrinks the time grid for the self-tests; it keeps every mode,
    route and observable, so every layer still runs.
    """
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    doc = {"schema_version": 1, "name": workload}
    doc.update(_BUILDERS[workload](rng, tiny))
    doc["output_path"] = output_path
    return doc
