"""Observable-side (adjoint) evolution, dual to the state channel.

Provides the general series sum_k E_k^dag Omega E_k plus closed forms for
ladder operators, quadratic observables (number, flavour charges) and
basis projectors.  On the truncated space the series with the full loss
range equals the exact adjoint map compressed to the retained block, so
the reported tail error is just the completeness defect of the family.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    CERTIFICATE_TOL,
    DecayModel,
    KrausSet,
    _decay_amplitude,
    _decay_weight,
    build_kraus,
    expectation,
)
from .fock import (
    DensityOperator,
    InvariantViolation,
    OperatorMatrix,
    build_annihilator,
)

TAIL_TOL = 1e-10


class TailBoundError(ValueError):
    """The truncated series drops weight inside the reporting subspace."""


@dataclass(frozen=True, eq=False)
class HeisenbergMap:
    """Adjoint map at a fixed time, backed by a Kraus family.

    ``k_series`` is the largest total loss index kept; ``tail_error``
    bounds the weight the kept family is missing on the reporting
    (exactly represented) subspace.
    """

    model: DecayModel
    time: float
    kraus: KrausSet
    k_series: int
    tail_error: float


def build_heisenberg_map(model: DecayModel, t: float, k_max: int | None = None) -> HeisenbergMap:
    kraus = build_kraus(model, t, k_max)
    k_series = max((sum(k) for k in kraus.multi_indices), default=0)
    # Weight the kept family is missing on the reporting subspace (the model's
    # full exact block, wider than the channel-side k_max coverage).
    ix = np.flatnonzero(model.space.total_occupation <= model.exact_total_bound())
    deficit = (np.eye(model.space.dimension) - kraus.gram_sum)[np.ix_(ix, ix)]
    tail = float(np.linalg.norm(deficit, 2)) if ix.size else 0.0
    if tail > TAIL_TOL:
        raise TailBoundError(
            f"series truncated at k={k_series} drops weight {tail:.3e} on the "
            f"reporting subspace (tolerance {TAIL_TOL})"
        )
    return HeisenbergMap(model=model, time=float(t), kraus=kraus, k_series=k_series, tail_error=tail)


def evolve_observable_matrix(hmap: HeisenbergMap, matrix: np.ndarray) -> np.ndarray:
    """Raw linear action sum_k E_k^dag X E_k."""
    out = np.zeros_like(np.asarray(matrix, dtype=complex))
    for E in hmap.kraus.operators:
        out += E.entries.conj().T @ matrix @ E.entries
    return out


def evolve_observable(hmap: HeisenbergMap, obs: OperatorMatrix) -> OperatorMatrix:
    """Adjoint-evolved Hermitian observable.

    Matrix elements between states of total occupation <= the family's
    exact bound are exact; entries touching the cutoff boundary carry the
    usual truncation artifact.
    """
    if obs.space != hmap.model.space:
        raise ValueError("observable and map live on different spaces")
    herm = obs.hermiticity_defect()
    if herm > 1e-12 * max(1.0, float(np.max(np.abs(obs.entries)))):
        raise ValueError(f"observable is not Hermitian (defect {herm:.3e})")
    out = evolve_observable_matrix(hmap, obs.entries)
    defect = float(np.max(np.abs(out - out.conj().T)))
    if defect > 1e-12 * max(1.0, float(np.max(np.abs(out)))):
        raise InvariantViolation(f"adjoint map broke Hermiticity: defect {defect:.3e}")
    return OperatorMatrix(hmap.model.space, out)


def _mode_amplitudes(model: DecayModel, t: float) -> np.ndarray:
    """Per decay mode: exp(-(i m_j + Gamma_j / 2) t)."""
    return np.array(
        [_decay_amplitude(m, g, t) for m, g in zip(model.masses, model.widths)],
        dtype=complex,
    )


def evolve_ladder(model: DecayModel, t: float, mode: int) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Adjoint-evolved (lowering, raising) pair for one flavour mode.

    Each propagation mode contributes its decay amplitude; with mixing the
    result is rotated back through the mixing matrix.
    """
    if not 1 <= mode <= model.space.n_modes:
        raise ValueError(f"mode {mode} out of range 1..{model.space.n_modes}")
    if model.certificate_defect > CERTIFICATE_TOL:
        raise ValueError("commutation certificate failed; closed forms are not valid")
    d = _mode_amplitudes(model, t)
    if model.is_mixed:
        V = model.mixing_unitary
        coeff = V.T @ np.diag(d) @ V.conj()  # row m: Lambda_t a_m over flavour ops
        lowering = np.zeros((model.space.dimension,) * 2, dtype=complex)
        for l in range(model.space.n_modes):
            lowering += coeff[mode - 1, l] * build_annihilator(model.space, l + 1).entries
    else:
        lowering = d[mode - 1] * build_annihilator(model.space, mode).entries
    low = OperatorMatrix(model.space, lowering)
    return low, low.dagger()


def evolve_quadratic(model: DecayModel, omega: np.ndarray, t: float) -> OperatorMatrix:
    """Closed-form adjoint evolution of sum_{lm} omega[l, m] a_l^dag a_m.

    In the propagation basis each monomial c_j^dag c_k just picks up the
    factor conj(d_j) d_k, with d_j the mode decay amplitude.
    """
    r = model.space.n_modes
    omega = np.asarray(omega, dtype=complex)
    if omega.shape != (r, r):
        raise ValueError(f"coefficient matrix must be {r}x{r}, got {omega.shape}")
    if model.certificate_defect > CERTIFICATE_TOL:
        raise ValueError("commutation certificate failed; closed forms are not valid")
    if model.is_mixed:
        V = model.mixing_unitary
        coeffs = V.conj() @ omega @ V.T  # propagation-basis coefficients
    else:
        coeffs = omega
    d = _mode_amplitudes(model, t)
    scaled = coeffs * np.outer(d.conj(), d)
    out = np.zeros((model.space.dimension,) * 2, dtype=complex)
    for j in range(r):
        for k in range(r):
            if scaled[j, k] == 0:
                continue
            cj = model.decay_ops[j].entries
            ck = model.decay_ops[k].entries
            out += scaled[j, k] * (cj.conj().T @ ck)
    return OperatorMatrix(model.space, out)


def evolve_number(model: DecayModel, t: float) -> OperatorMatrix:
    """Adjoint-evolved total number observable (closed form)."""
    return evolve_quadratic(model, np.eye(model.space.n_modes), t)


def evolve_strangeness(model: DecayModel, t: float) -> OperatorMatrix:
    """Adjoint-evolved two-flavour charge n_1 - n_2 (closed form)."""
    _require_two_boson_flavours(model)
    return evolve_quadratic(model, np.diag([1.0, -1.0]), t)


def evolve_projector(model: DecayModel, t: float, occupations) -> OperatorMatrix:
    """Adjoint-evolved basis projector for unmixed models.

    The result is diagonal: the projector onto n spreads upward over
    projectors onto n + k with binomially decaying weights.  This form is
    regular at t = 0 (only the k = 0 term survives there).
    """
    if model.is_mixed:
        raise ValueError("closed-form projector evolution requires an unmixed model")
    space = model.space
    occ = tuple(int(n) for n in occupations)
    space.index_of(occ)  # validates the tuple
    weights = [_decay_weight(g, t) for g in model.widths]
    damps = [abs(_decay_amplitude(0.0, g, t)) ** 2 for g in model.widths]
    diag = np.zeros(space.dimension, dtype=complex)
    for i, tau in enumerate(space.occupations):
        coeff = 1.0
        for n_j, tau_j, w_j, e_j in zip(occ, tau, weights, damps):
            if tau_j < n_j:
                coeff = 0.0
                break
            coeff *= math.comb(tau_j, n_j) * e_j**n_j * w_j ** (tau_j - n_j)
        diag[i] = coeff
    return OperatorMatrix(space, np.diag(diag))


def _require_two_boson_flavours(model: DecayModel):
    if model.space.n_modes != 2:
        raise ValueError(
            f"flavour charge needs exactly 2 modes, space has {model.space.n_modes}"
        )
    if any(m.is_fermion for m in model.space.modes):
        raise ValueError("flavour charge closed forms are derived for bosonic modes")


def mean_number_trajectory(model: DecayModel, rho0: DensityOperator, times) -> np.ndarray:
    """<N(t)> over the grid, computed on the observable side."""
    return np.array(
        [expectation(rho0, evolve_number(model, float(t))) for t in times]
    )


def mean_strangeness_trajectory(model: DecayModel, rho0: DensityOperator, times) -> np.ndarray:
    """<S(t)> over the grid for a two-flavour bosonic model."""
    _require_two_boson_flavours(model)
    return np.array(
        [expectation(rho0, evolve_strangeness(model, float(t))) for t in times]
    )
