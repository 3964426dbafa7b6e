"""Observable-side (adjoint) evolution, dual to the state channel.

Provides the general series sum_k E_k^dag Omega E_k, applied as the
adjoint per-mode loss maps of the Kraus channel, plus closed forms for
ladder operators, quadratic observables (number, flavour charges) and
basis projectors.  Every model is exact on its whole space, so the
series with the full loss range is the exact adjoint map there, and the
weight it misses is the channel's completeness defect, which a
:class:`KrausSet` bounds when constructed.  Every decay factor of the closed
forms refuses a negative or NaN time.
"""
from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .channel import DecayModel, KrausSet, _decay_amplitude, _decay_weight, _raw_action
from .config import InvariantViolation
from .fock import (
    DensityOperator,
    OperatorMatrix,
    _check_mode,
    hermitian_scale,
    linear_form,
    one_body_correlations,
    quadratic_form,
)


def evolve_observable_matrix(kraus: KrausSet, matrix: np.ndarray) -> np.ndarray:
    """Raw linear action sum_k E_k^dag X E_k of a Kraus channel on a d x d matrix,
    the adjoint channel in the decay-mode basis (see ``channel._channel_action``)."""
    return _raw_action(kraus, matrix, adjoint=True)


def evolve_observable(kraus: KrausSet, obs: OperatorMatrix) -> OperatorMatrix:
    """Adjoint-evolved Hermitian observable: exact in every matrix element of
    the channel's space, on which its model is exact."""
    if obs.space != kraus.model.space:
        raise ValueError("observable and channel live on different spaces")
    obs.check_hermitian()
    out = evolve_observable_matrix(kraus, obs.entries)
    defect = float(np.max(np.abs(out - out.conj().T)))
    if defect > 1e-12 * max(1.0, float(np.max(np.abs(out)))):
        raise InvariantViolation(f"adjoint map broke Hermiticity: defect {defect:.3e}")
    return OperatorMatrix(kraus.model.space, out)


def _grid_amplitudes(model: DecayModel, times) -> np.ndarray:
    """The (T, r) array of exp(-(i m_j + Gamma_j / 2) t) for each time and decay
    mode j, each entry as :func:`_decay_amplitude` gives it."""
    modes = list(zip(model.masses, model.widths))
    return np.array([[_decay_amplitude(m, g, t) for m, g in modes] for t in map(float, times)],
                    dtype=complex).reshape(-1, len(modes))


def evolve_ladder(model: DecayModel, t: float, mode: int) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Adjoint-evolved (lowering, raising) pair for one flavour mode.

    With a_m = sum_j V[j, m] c_j (V the identity without mixing), each
    propagation mode contributes its decay amplitude d_j: the lowering one is
    the :func:`linear_form` sum_l (sum_j V[j, m] d_j conj(V[j, l])) a_l.  For
    fermions c_j^dag c_i c_j = -n_j c_i (j != i) breaks it: a ValueError refuses
    a_m with weight on a fermionic c_i while another fermionic mode has a width.
    """
    j = _check_mode(model.space, mode)
    v, fermions = model._couplings, np.array([m.is_fermion for m in model.space.modes])
    decaying = fermions & (np.array(model.widths) > 0)
    if any(decaying.sum() > decaying[i] for i in np.flatnonzero(fermions & (v[:, j] != 0))):
        raise ValueError("no ladder closed form: a_m is on a fermionic c_i, and another fermion mode decays")
    d = _grid_amplitudes(model, [t])[0]
    low = OperatorMatrix(model.space, linear_form(model.space, (v[:, j] * d) @ v.conj()))
    return low, low.dagger()


def _propagation_coefficients(model: DecayModel, omega: np.ndarray) -> np.ndarray:
    """Shape check, then omega rotated onto the c_j^dag c_k."""
    r = model.space.n_modes
    omega = np.asarray(omega, dtype=complex)
    if omega.shape != (r, r):
        raise ValueError(f"coefficient matrix must be {r}x{r}, got {omega.shape}")
    if model.is_mixed:
        return model.mixing_unitary.conj() @ omega @ model.mixing_unitary.T
    return omega


def _pair_amplitudes(model: DecayModel, times) -> np.ndarray:
    """The (T, r, r) array of conj(d_j(t)) d_k(t): the magnitudes |d_j| |d_k| of
    :func:`_grid_amplitudes`, with its refusals, times exp(i (m_j - m_k) t), so
    a large common mass cancels before it is multiplied by t.  A non-finite
    phase is refused."""
    times = np.array(times, dtype=float).reshape(-1)
    size = np.abs(_grid_amplitudes(model, times))
    masses = np.array(model.masses)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        phase = np.multiply.outer(times, masses[:, None] - masses)
    if not np.isfinite(phase).all():
        raise InvariantViolation("a mass difference times t is not finite")
    return size[:, :, None] * size[:, None, :] * np.exp(1j * phase)


def evolve_quadratic(model: DecayModel, omega: np.ndarray, t: float) -> OperatorMatrix:
    """Closed-form adjoint evolution of sum_{lm} omega[l, m] a_l^dag a_m.

    In the propagation basis each monomial c_j^dag c_k just picks up the
    factor conj(d_j) d_k, with d_j the mode decay amplitude.
    """
    scaled = _propagation_coefficients(model, omega) * _pair_amplitudes(model, [t])[0]
    return OperatorMatrix(model.space, quadratic_form(model.space, model._on_ladders(scaled)))


def mean_quadratic_trajectories(model: DecayModel, rho0: DensityOperator,
                                omegas: Mapping[str, np.ndarray], times) -> dict[str, np.ndarray]:
    """For each named omega, tr(rho0 evolve_quadratic(model, omega, t)) for every t.

    rho0 enters only through G[j, k] = tr(rho0 c_j^dag c_k), G = V T V^dag with
    T = :func:`one_body_correlations`, and the time only through the (T, r, r)
    pair amplitudes conj(d_j(t)) d_k(t), both computed once for all omegas:
    <Omega(t)> = sum_{jk} coeff[j, k] conj(d_j(t)) d_k(t) G[j, k].
    """
    coeffs = {}
    for name, omega in omegas.items():
        coeffs[name] = _propagation_coefficients(model, omega)
        hermitian_scale(omega)
    if rho0.space != model.space:
        raise ValueError("state and model live on different spaces")
    gram, v = one_body_correlations(rho0), model.mixing_unitary
    if model.is_mixed:  # one sum per entry, not two matmuls, whose order rounds differently
        gram = np.einsum("jl,lm,km->jk", v, gram, v.conj())
    pairs = _pair_amplitudes(model, times)
    out = {}
    for name, coeff in coeffs.items():
        terms = coeff * gram
        values = np.einsum("jk,tjk->t", terms, pairs)
        residue = float(np.max(np.abs(values.imag), initial=0.0))
        if not residue <= 1e-12 * max(1.0, float(np.sum(np.abs(terms)))):  # NaN fails it
            raise InvariantViolation(f"expectation has imaginary residue {residue:.3e}")
        out[name] = values.real
    return out


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
    # math.comb is 0 where tau_j < n_j, which zeroes that basis state's product
    diag = [math.prod(math.comb(tau_j, n_j) * e_j**n_j * w_j ** max(tau_j - n_j, 0)
                      for n_j, tau_j, w_j, e_j in zip(occ, tau, weights, damps)) for tau in space.occupations]
    return OperatorMatrix(space, np.diag(np.array(diag, dtype=complex)))
