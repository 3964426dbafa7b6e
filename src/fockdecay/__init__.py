"""Truncated Fock-space simulation of decaying particles.

State-side channel evolution through Kraus channels applied as nested
per-mode loss maps, the dual observable-side evolution, an independent
RK4 master-equation oracle, and two-flavour mixing with oscillating
charges.

Each name of ``__all__`` is imported from its module on first use, so
``import fockdecay.config`` (and ``fockdecay validate``) loads no numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULES = {
    "config": (
        "Statistics", "ModeSpec", "InvariantViolation", "TruncationError", "CertificateError",
        "MixingParams", "default_step",
        "ScenarioConfig", "ConfigError", "parse_config", "load_config", "config_to_json", "validate_config",
    ),
    "fock": (
        "FockSpace", "OperatorMatrix", "DensityOperator",
        "build_annihilator", "build_creation", "build_number", "build_total_number",
        "number_state", "vacuum_state", "coherent_state", "poisson_mixture",
    ),
    "channel": (
        "DecayModel", "KrausSet", "build_decay_model", "build_kraus",
        "apply_channel", "apply_channel_matrix", "evolve_state", "enforce_superselection",
        "expectation", "occupation_distribution", "trace_distance",
    ),
    "master": ("GeneratorAction", "build_generator", "integrate"),
    "heisenberg": ("evolve_observable", "evolve_observable_matrix", "evolve_ladder", "evolve_quadratic",
                   "evolve_projector", "mean_quadratic_trajectories"),
    "flavour": ("mixing_matrix", "build_mixed_model", "build_flavour_observables"),
    "scenario": ("RunResult", "run_scenario"),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
