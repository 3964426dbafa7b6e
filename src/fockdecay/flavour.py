"""Two-flavour mixing: the mixing unitary, mixed decay models, observables.

The propagation modes c_1, c_2 (definite mass and width) are a unitary
rotation of the detection flavours a_1, a_2; their mismatch is what makes
the flavour charge oscillate.
"""
from __future__ import annotations

import math

import numpy as np

from .channel import DecayModel
from .config import MixingParams, mixing_refusal, mixing_total_bound
from .fock import FockSpace, OperatorMatrix, quadratic_form


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


def build_mixed_model(space: FockSpace, params: MixingParams) -> DecayModel:
    """Two-flavour model whose decay modes are the rotated operators c_1, c_2.

    Mode j of the space is the flavour a_j of the occupations and the observables, while its
    ``ModeSpec`` carries the mass and width of the propagation mode c_j.  Both modes must share one
    statistics and one cutoff (else the ValueError of :func:`fockdecay.config.mixing_refusal`, the
    config's text), and the space's total must not exceed :func:`mixing_total_bound`: the rotation
    moves quanta between modes, so only then is the space closed under it and the model exact on all
    of it.  A boson pair with cutoff c is built on ``FockSpace(modes, total=c)``.  Fermionic pairs are
    accepted on their whole space (the loss patterns are then restricted to {0, 1}): their quadratic
    closed forms hold, and :func:`fockdecay.heisenberg.evolve_ladder` refuses a flavour mode with
    weight on one decay mode while the other has a width.
    """
    if (refusal := mixing_refusal(space.modes)) is not None:
        raise ValueError(refusal)
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


def build_flavour_observables(space: FockSpace, phi: float = 0.0) -> dict[str, OperatorMatrix]:
    """Total number N, flavour charge S, and the coherence pair Qplus/Qminus, each the
    :func:`quadratic_form` of its :func:`quadratic_omegas` entry."""
    if space.n_modes != 2:
        raise ValueError(f"flavour observables need exactly 2 modes, space has {space.n_modes}")
    return {name: OperatorMatrix(space, quadratic_form(space, omega))
            for name, omega in quadratic_omegas(2, phi).items()}
