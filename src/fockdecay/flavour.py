"""Two-flavour mixing: the mixing unitary, mixed decay models, observables.

The propagation modes c_1, c_2 (definite mass and width) are a unitary
rotation of the detection flavours a_1, a_2; their mismatch is what makes
the flavour charge oscillate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import DecayModel
from .fock import FockSpace, ModeSpec, OperatorMatrix, quadratic_form

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class MixingParams:
    """Mixing angles (theta, phi, psi) plus a global phase chi.

    Angles are stored reduced to [0, 2*pi) so serialized configs have a
    canonical form; the reduction changes nothing observable.
    """

    theta: float = 0.0
    phi: float = 0.0
    psi: float = 0.0
    chi: float = 0.0

    def __post_init__(self):
        for name in ("theta", "phi", "psi", "chi"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value % TWO_PI)


def mixing_matrix(params: MixingParams) -> np.ndarray:
    """2x2 unitary V with c_j^dag = sum_l V[j, l] a_l^dag (checked by the model it mixes)."""
    c = math.cos(0.5 * params.theta)
    s = math.sin(0.5 * params.theta)
    phase = np.exp(1j * params.chi)
    return phase * np.array(
        [
            [np.exp(0.5j * (params.phi + params.psi)) * c,
             np.exp(-0.5j * (params.phi - params.psi)) * s],
            [-np.exp(0.5j * (params.phi - params.psi)) * s,
             np.exp(-0.5j * (params.phi + params.psi)) * c],
        ],
        dtype=complex,
    )


def mixing_total_bound(modes: Sequence[ModeSpec]) -> int | None:
    """Largest total occupation on which a mixed pair of ``modes`` is exact.

    The rotated c_j move quanta between the modes, so a boson pair with
    common cutoff c is closed under them only on the sectors of total <= c;
    a fermion pair is exact on its whole space, so it has no bound.
    """
    return None if modes[0].is_fermion else modes[0].cutoff


def build_mixed_model(space: FockSpace, params: MixingParams) -> DecayModel:
    """Two-flavour model whose decay modes are the rotated operators c_1, c_2.

    Mode j of the space is the flavour a_j of the occupations and the
    observables, while its ``ModeSpec`` carries the mass and width of the
    propagation mode c_j.  Both modes must share one statistics and one
    cutoff, and the space's total must not exceed :func:`mixing_total_bound`:
    the rotation moves quanta between modes, so only then is the space
    closed under it and the model exact on all of it.  A boson pair with cutoff c is built on
    ``FockSpace(modes, total=c)``.  Fermionic pairs are accepted on their
    whole space (the loss patterns are then restricted to {0, 1}) but the
    worked closed forms target bosons.
    """
    if space.n_modes != 2:
        raise ValueError(f"mixing needs exactly 2 modes, space has {space.n_modes}")
    m1, m2 = space.modes
    if m1.statistics is not m2.statistics:
        raise ValueError("mixing needs both modes to share one statistics")
    if m1.cutoff != m2.cutoff:
        raise ValueError(
            f"mixing needs equal cutoffs, got {m1.cutoff} and {m2.cutoff}"
        )
    bound = mixing_total_bound(space.modes)
    if bound is not None and space.total > bound:
        raise ValueError(
            f"a mixed boson pair is exact only on totals <= the common cutoff {bound}, "
            f"but the space reaches total {space.total}; build it on FockSpace(modes, total={bound})"
        )
    return DecayModel(space, mixing_matrix(params))


def quadratic_omegas(n_modes: int, phi: float = 0.0) -> dict[str, np.ndarray]:
    """The scalar observables sum_{lm} omega[l, m] a_l^dag a_m, as their one-body omega.

    N for any number of modes; S, Qplus and Qminus for two.  The phase of the
    coherence pair must match the mixing phi for the closed forms to hold.
    """
    out = {"N": np.eye(n_modes, dtype=complex)}
    if n_modes == 2:
        out["S"] = np.diag([1.0, -1.0]).astype(complex)
        cross = np.zeros((2, 2), dtype=complex)
        cross[0, 1] = np.exp(1j * phi)
        out["Qplus"] = cross + cross.conj().T
        out["Qminus"] = 1j * (cross - cross.conj().T)
    return out


def build_quadratic_observables(space: FockSpace, phi: float = 0.0) -> dict[str, OperatorMatrix]:
    """Fock operators of every observable in :func:`quadratic_omegas`."""
    return {
        name: OperatorMatrix(space, quadratic_form(space, omega))
        for name, omega in quadratic_omegas(space.n_modes, phi).items()
    }


def build_flavour_observables(space: FockSpace, phi: float = 0.0) -> dict[str, OperatorMatrix]:
    """Total number N, flavour charge S, and the coherence pair Qplus/Qminus."""
    if space.n_modes != 2:
        raise ValueError(f"flavour observables need exactly 2 modes, space has {space.n_modes}")
    return build_quadratic_observables(space, phi)
