"""Brute-force oracle: the generator as a linear map plus fixed-step RK4.

Independent of the Kraus construction on purpose; it integrates the
first-order system for the density matrix directly so the two routes can
be compared against each other.  What it restricts is an index set, not
the numerics: it evolves only the entries of rho that the generator's own
sparsity pattern reaches from the initial state, every other entry being
exactly zero for all time.  Those entries split into blocks of equal
Delta N = N_row - N_col (the decay conserves M and lowers row and column
occupations together; a structural check on W and the L_j enforces it).
Each block's generator matrix is gathered from W and the L_j at the
block's own indices by the Liouville form of the generator, and the block
advances by the RK4 step polynomial of that matrix, formed once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import DecayModel
from .fock import DensityOperator, InvariantViolation

EIG_EXCURSION_FLOOR = -1e-8
STEP_MATCH_TOL = 1e-9


class StepError(ValueError):
    """The RK4 step does not fit the requested times."""


@dataclass(frozen=True, eq=False)
class GeneratorAction:
    """Right-hand side of the evolution: rho -> W rho + rho W^dag + sum L rho L^dag,

    where W = -i(H + iK) combines the commutator and anticommutator parts.
    """

    model: DecayModel
    w_matrix: np.ndarray
    jump_ops: tuple[np.ndarray, ...]

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        if rho.shape != self.w_matrix.shape:
            raise ValueError(f"matrix shape {rho.shape} does not match {self.w_matrix.shape}")
        out = self.w_matrix @ rho + rho @ self.w_matrix.conj().T
        for L in self.jump_ops:
            out += L @ rho @ L.conj().T
        return out


def build_generator(model: DecayModel) -> GeneratorAction:
    w = -1j * model.m_operator.entries
    jumps = tuple(L.entries for L in model.lindblads)
    return GeneratorAction(model=model, w_matrix=w, jump_ops=jumps)


def steps_for(t: float, step: float) -> int:
    """The number of RK4 steps to time ``t``, which must be a multiple of ``step``."""
    ratio = t / step
    if not math.isfinite(ratio):
        raise StepError(f"time {t!r} over step {step!r} is not a finite step count")
    n = int(round(ratio))
    if abs(n * step - t) > STEP_MATCH_TOL * max(1.0, abs(t)):
        raise StepError(
            f"time {t!r} is not a multiple of step {step!r}; "
            "interpolation is not supported"
        )
    return n


def _reachable(gen: GeneratorAction, rho: np.ndarray) -> np.ndarray:
    """Entries that can ever be nonzero, as a boolean mask.

    The exact-nonzero pattern of ``rho`` closed under the pattern of the
    generator, (W!=0) X + X (W!=0)^T + sum_j (L_j!=0) X (L_j!=0)^T, until it
    stops growing.  No tolerance: only exact zeros are dropped.  The patterns
    are multiplied as 0/1 floats, so the products run in BLAS; their entries
    are sums of nonnegative integers, nonzero exactly where the boolean
    product is true.
    """
    w = (gen.w_matrix != 0).astype(float)
    jumps = [(L != 0).astype(float) for L in gen.jump_ops]
    live = rho != 0
    while True:
        x = live.astype(float)
        grown = w @ x + x @ w.T
        for L in jumps:
            grown += L @ x @ L.T
        grown = live | (grown != 0)
        if np.array_equal(grown, live):
            return live
        live = grown


def _block_generator(gen: GeneratorAction, r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Matrix of ``gen`` on the block of entries (r[i], c[i]) of rho.

    Gathered at the block's indices from the Liouville form
    L[(a,b),(r,c)] = W_ar d_bc + d_ar conj(W_bc) + sum_j L_j,ar conj(L_j,bc),
    in place: at most three block-sized arrays are alive at once.
    """
    rr, cc = np.ix_(r, r), np.ix_(c, c)
    out = gen.w_matrix[rr]
    out *= c[:, None] == c
    tmp = gen.w_matrix[cc]
    np.conj(tmp, out=tmp)
    tmp *= r[:, None] == r
    out += tmp
    for L in gen.jump_ops:
        np.conj(L[cc], out=tmp)
        tmp *= L[rr]
        out += tmp
    return out


def _rk4_step_matrix(a: np.ndarray) -> np.ndarray:
    """P(A) = 1 + A(1 + A/2(1 + A/3(1 + A/4))) for A = hL, by Horner's rule."""
    diag = slice(None, None, a.shape[0] + 1)
    p = a / 4
    for j in (3.0, 2.0, 1.0):
        p.flat[diag] += 1.0
        p = a @ p
        p /= j
    p.flat[diag] += 1.0
    return p


def _sample(p: np.ndarray, vec: np.ndarray, targets: Sequence[int]) -> np.ndarray:
    """Rows P^n vec for each n in ``targets``; one cached power per distinct gap."""
    out = np.empty((len(targets), vec.size), dtype=complex)
    powers: dict[int, np.ndarray] = {}
    done = 0
    for i, n in enumerate(targets):
        m = n - done
        if m:
            if m not in powers:
                powers[m] = np.linalg.matrix_power(p, m)
            vec = powers[m] @ vec
        done = n
        out[i] = vec
    return out


def integrate(
    gen: GeneratorAction,
    rho0: DensityOperator,
    times: Sequence[float],
    step: float,
) -> list[DensityOperator]:
    """Classic fixed-step RK4 trajectory sampled at the requested times.

    Every requested time must be an integer multiple of ``step``.  Only the
    entries reachable from ``rho0`` are evolved, the others being exactly
    zero for all time.  They are split into blocks of equal Delta N, which
    W and the L_j are first checked to conserve, and each block's generator
    is gathered from W and the L_j at the block's own indices; an interval
    of m steps applies the m-th power of the block's RK4 step matrix, so
    scheme and step are those of the k1..k4 loop and only the rounding differs.
    The trajectory is returned as-is: no renormalization and no positivity
    projection, so trace drift stays visible to the caller.  Negative
    eigenvalue excursions beyond -1e-8 abort loudly, and so does a step
    matrix or a sampled state that is not finite (an unstable step).
    """
    step = float(step)
    if step <= 0:
        raise StepError(f"step must be > 0, got {step}")
    times = [float(t) for t in times]
    if any(t < 0 for t in times):
        raise ValueError("times must be >= 0")
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("times must be sorted ascending")
    if rho0.space != gen.model.space:
        raise ValueError("state and generator live on different spaces")

    targets = [steps_for(t, step) for t in times]
    tot = gen.model.space.total_occupation
    for op in (gen.w_matrix, *gen.jump_ops):
        rows, cols = np.nonzero(op)
        shifts = np.unique(tot[rows] - tot[cols])
        if shifts.size > 1 or (op is gen.w_matrix and shifts.any()):
            raise InvariantViolation(
                f"W or an L_j shifts the total occupation by {shifts.tolist()}: "
                "the generator does not conserve Delta N"
            )
    live = _reachable(gen, rho0.matrix)
    rows, cols = np.nonzero(live)
    delta = tot[rows] - tot[cols]
    series = []
    dns, sizes = np.unique(delta, return_counts=True)
    for dn in dns[np.argsort(-sizes, kind="stable")]:  # largest first: later blocks reuse its memory
        r, c = rows[delta == dn], cols[delta == dn]
        with np.errstate(over="ignore", invalid="ignore"):  # checked for finiteness below
            # no name holds the block's L, so it is freed before the powers are taken
            p = _rk4_step_matrix(step * _block_generator(gen, r, c))
            if not np.isfinite(p).all():
                raise InvariantViolation(
                    f"RK4 step matrix of the Delta N = {dn} block is not finite at step {step!r}"
                )
            values = _sample(p, rho0.matrix[r, c], targets)
        if not np.isfinite(values).all():
            raise InvariantViolation(
                f"RK4 state of the Delta N = {dn} block is not finite on the grid; "
                f"step {step!r} is unstable for this generator"
            )
        series.append((r, c, values))

    dim = gen.model.space.dimension
    out: list[DensityOperator] = []
    for i, (t, n) in enumerate(zip(times, targets)):
        if n == 0:
            out.append(rho0)
            continue
        rho = np.zeros((dim, dim), dtype=complex)
        for r, c, values in series:
            rho[r, c] = values[i]
        herm = float(np.max(np.abs(rho - rho.conj().T)))
        if herm > 1e-10:
            raise InvariantViolation(f"RK4 state lost Hermiticity: defect {herm:.3e} at t={t}")
        lo = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
        if lo < EIG_EXCURSION_FLOOR:
            raise InvariantViolation(
                f"RK4 state eigenvalue {lo:.3e} below {EIG_EXCURSION_FLOOR} at t={t}"
            )
        out.append(
            DensityOperator(gen.model.space, rho, tail_weight=rho0.tail_weight, validate=False)
        )
    return out


def default_step(widths: Sequence[float]) -> float:
    """1e-3 in units of the fastest width (1e-3 raw when nothing decays)."""
    gmax = max(widths, default=0.0)
    return 1e-3 / gmax if gmax > 0 else 1e-3
