"""Brute-force oracle: the generator as a linear map plus fixed-step RK4.

Independent of the Kraus construction on purpose; it integrates the
first-order system for the density matrix directly so the two routes can
be compared against each other.  What it restricts is an index set, not
the numerics: it evolves only the entries of rho that the generator's own
sparsity pattern reaches from the initial state, every other entry being
exactly zero for all time.  Those entries split into blocks of equal
Delta N = N_row - N_col (the decay conserves M and lowers row and column
occupations together).  Each block's generator matrix is read off
:class:`GeneratorAction` itself, and the block advances by the RK4 step
polynomial of that matrix, formed once.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import DecayModel
from .fock import DensityOperator, InvariantViolation

EIG_EXCURSION_FLOOR = -1e-8
STEP_MATCH_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class GeneratorAction:
    """Right-hand side of the evolution: rho -> W rho + rho W^dag + sum L rho L^dag,

    where W = -i(H + iK) combines the commutator and anticommutator parts.
    """

    model: DecayModel
    w_matrix: np.ndarray
    jump_ops: tuple[np.ndarray, ...]

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        out = self.w_matrix @ rho + rho @ self.w_matrix.conj().T
        for L in self.jump_ops:
            out += L @ rho @ L.conj().T
        return out


def build_generator(model: DecayModel) -> GeneratorAction:
    w = -1j * model.m_operator.entries
    jumps = tuple(L.entries for L in model.lindblads)
    return GeneratorAction(model=model, w_matrix=w, jump_ops=jumps)


def generator_apply(gen: GeneratorAction, rho_matrix: np.ndarray) -> np.ndarray:
    """One application of the generator to a raw density matrix."""
    rho = np.asarray(rho_matrix, dtype=complex)
    dim = gen.model.space.dimension
    if rho.shape != (dim, dim):
        raise ValueError(f"matrix shape {rho.shape} does not match dimension {dim}")
    return gen(rho)


def _steps_for(t: float, step: float) -> int:
    n = int(round(t / step))
    if abs(n * step - t) > STEP_MATCH_TOL * max(1.0, abs(t)):
        raise ValueError(
            f"time {t!r} is not a multiple of step {step!r}; "
            "interpolation is not supported"
        )
    return n


# Basis matrices applied to the generator at once: bounds the stacked
# array to 2**15 complex entries (512 kB), whatever the block size.
BASIS_CHUNK_ENTRIES = 2**15


def _reachable(gen: GeneratorAction, rho: np.ndarray) -> np.ndarray:
    """Entries that can ever be nonzero, as a boolean mask.

    The exact-nonzero pattern of ``rho`` closed under the pattern of the
    generator, (W!=0) X + X (W!=0)^T + sum_j (L_j!=0) X (L_j!=0)^T, until it
    stops growing.  No tolerance: only exact zeros are dropped.
    """
    w = gen.w_matrix != 0
    jumps = [L != 0 for L in gen.jump_ops]
    live = rho != 0
    while True:
        grown = live | (w @ live) | (live @ w.T)
        for L in jumps:
            grown |= L @ live @ L.T
        if np.array_equal(grown, live):
            return live
        live = grown


def _block_generator(sub: GeneratorAction, rs: np.ndarray, cs: np.ndarray) -> np.ndarray:
    """Matrix of ``sub`` on the block of entries (rs[i], cs[i]) of its space.

    Column i is the image of the i-th basis matrix, read at the block's
    entries.  ``sub`` acts on the reachable indices, so every image lies in
    the reachable set; a nonzero image entry outside the block means the
    generator does not conserve Delta N, and the dynamics would be lost.
    """
    k, n = rs.size, sub.w_matrix.shape[0]
    out = np.empty((k, k), dtype=complex)
    chunk = max(1, BASIS_CHUNK_ENTRIES // n**2)
    for lo in range(0, k, chunk):
        hi = min(lo + chunk, k)
        basis = np.zeros((hi - lo, n, n), dtype=complex)
        basis[np.arange(hi - lo), rs[lo:hi], cs[lo:hi]] = 1.0
        images = sub(basis)
        out[:, lo:hi] = images[:, rs, cs].T
        if np.count_nonzero(images) != np.count_nonzero(out[:, lo:hi]):
            raise InvariantViolation(
                "generator maps a Delta N block of rho outside itself; "
                "it does not conserve the total occupation"
            )
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
    zero for all time.  They are split into blocks of equal Delta N, and
    each block's generator is read off ``gen`` itself; an interval of m
    steps applies the m-th power of the block's RK4 step matrix, so scheme
    and step are those of the k1..k4 loop and only the rounding differs.
    The trajectory is returned as-is: no renormalization and no positivity
    projection, so trace drift stays visible to the caller.  Negative
    eigenvalue excursions beyond -1e-8 abort loudly.
    """
    step = float(step)
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step}")
    times = [float(t) for t in times]
    if any(t < 0 for t in times):
        raise ValueError("times must be >= 0")
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("times must be sorted ascending")
    if rho0.space != gen.model.space:
        raise ValueError("state and generator live on different spaces")

    targets = [_steps_for(t, step) for t in times]
    live = _reachable(gen, rho0.matrix)
    idx = np.flatnonzero(live.any(axis=0) | live.any(axis=1))
    sub = GeneratorAction(
        model=gen.model,
        w_matrix=gen.w_matrix[np.ix_(idx, idx)],
        jump_ops=tuple(L[np.ix_(idx, idx)] for L in gen.jump_ops),
    )
    tot = gen.model.space.total_occupation
    rows, cols = np.nonzero(live)
    delta = tot[rows] - tot[cols]
    series = []
    for dn in np.unique(delta):
        r, c = rows[delta == dn], cols[delta == dn]
        # no name holds the block's L, so it is freed before the powers are taken
        p = _rk4_step_matrix(
            step * _block_generator(sub, np.searchsorted(idx, r), np.searchsorted(idx, c))
        )
        series.append((r, c, _sample(p, rho0.matrix[r, c], targets)))

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


def default_step(model: DecayModel) -> float:
    """1e-3 in units of the fastest width (1e-3 raw when nothing decays)."""
    gmax = max(model.widths) if model.widths else 0.0
    return 1e-3 / gmax if gmax > 0 else 1e-3
