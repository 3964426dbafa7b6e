"""Truncated Fock-space simulation of decaying particles.

State-side channel evolution through Kraus channels applied as nested
per-mode loss maps, the dual observable-side evolution, an independent
RK4 master-equation oracle, and two-flavour mixing with oscillating
charges.
"""

__version__ = "0.1.0"

from .fock import (
    DensityOperator,
    FockSpace,
    InvariantViolation,
    ModeSpec,
    OperatorMatrix,
    Statistics,
    TruncationError,
    build_annihilator,
    build_creation,
    build_number,
    build_total_number,
    coherent_state,
    number_state,
    poisson_mixture,
    vacuum_state,
)
from .channel import (
    CertificateError,
    DecayModel,
    KrausSet,
    apply_channel,
    apply_channel_matrix,
    build_decay_model,
    build_kraus,
    enforce_superselection,
    evolve_state,
    expectation,
    expectations,
    occupation_distribution,
    trace_distance,
)
from .master import GeneratorAction, build_generator, default_step, integrate
from .heisenberg import (
    evolve_ladder,
    evolve_number,
    evolve_observable,
    evolve_observable_matrix,
    evolve_projector,
    evolve_quadratic,
    evolve_strangeness,
    mean_number_trajectory,
    mean_strangeness_trajectory,
)
from .flavour import MixingParams, build_flavour_observables, build_mixed_model, mixing_matrix
from .scenario import (
    ConfigError,
    RunResult,
    ScenarioConfig,
    config_to_json,
    load_config,
    parse_config,
    run_scenario,
    validate_config,
)

__all__ = [
    "__version__",
    # fock
    "Statistics", "ModeSpec", "FockSpace", "OperatorMatrix", "DensityOperator",
    "InvariantViolation", "TruncationError",
    "build_annihilator", "build_creation", "build_number", "build_total_number",
    "number_state", "vacuum_state", "coherent_state", "poisson_mixture",
    # channel
    "DecayModel", "KrausSet", "CertificateError",
    "build_decay_model", "build_kraus",
    "apply_channel", "apply_channel_matrix", "evolve_state", "enforce_superselection",
    "expectation", "expectations", "occupation_distribution", "trace_distance",
    # master
    "GeneratorAction", "build_generator", "integrate", "default_step",
    # heisenberg
    "evolve_observable", "evolve_observable_matrix", "evolve_ladder",
    "evolve_quadratic", "evolve_number", "evolve_strangeness", "evolve_projector",
    "mean_number_trajectory", "mean_strangeness_trajectory",
    # flavour
    "MixingParams", "mixing_matrix", "build_mixed_model", "build_flavour_observables",
    # scenario
    "ScenarioConfig", "ConfigError", "RunResult",
    "parse_config", "load_config", "config_to_json", "validate_config", "run_scenario",
]
