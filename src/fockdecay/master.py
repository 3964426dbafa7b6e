"""Brute-force oracle: the generator as a linear map plus fixed-step RK4.

Independent of the Kraus construction on purpose; it integrates the
first-order system for the density matrix directly so the two routes can
be compared against each other.  What it restricts is an index set, not
the numerics: it evolves only the entries of rho that the generator's own
sparsity pattern reaches from the initial state, every other entry being
exactly zero for all time.  Those entries split into blocks of equal
Delta N = N_row - N_col (M conserves the total and each L_j lowers row and
column occupations together, which holds by construction of a DecayModel).
W = -iM and the L_j = sqrt(Gamma_j) c_j are read as the model's terms, one
value per column each, so no dense M or c_j is formed: the pattern is closed
under their moves, and each block's generator matrix is scattered from them
by the Liouville form.  The block advances by the RK4 step polynomial of that
matrix, formed once.  The dense map is the tests' reference, not the library's.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .channel import DecayModel, Result, _as_states, _stack_points
from .config import STEP_MATCH_TOL, InvariantViolation, StepError, default_step, steps_for  # noqa: F401
from .fock import DensityOperator, Support, closed_support, density_breach, linear_terms

EIG_EXCURSION_FLOOR = -1e-8


@dataclass(frozen=True, eq=False)
class GeneratorAction:
    """Right-hand side of the evolution: rho -> W rho + rho W^dag + sum L rho L^dag,

    where W = -iM combines the commutator and anticommutator parts and
    L_j = sqrt(Gamma_j) c_j.  It holds nothing but its model and inherits its
    guarantees: W conserves the total occupation and each L_j lowers it by
    exactly one.  :func:`integrate` reads the model's terms, so no dense W or
    L_j is formed; the tests keep the dense map as their reference.
    """

    model: DecayModel

    def __post_init__(self):
        if not isinstance(self.model, DecayModel):
            raise TypeError(f"a generator needs a DecayModel, got {type(self.model).__name__}")


build_generator = GeneratorAction


Moves = list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]


def _generator_terms(model: DecayModel) -> Moves:
    """The moves (f, g, a, b) of the generator: entry (r, c) of rho moves to (f[r], g[c]) with the factor
    a[r] b[c].  W = -iM's terms on the row, conj(W)'s on the column, then per j each pair of the terms of
    L_j = sqrt(Gamma_j) c_j (the :func:`linear_terms` of c_j, scaled) on both."""
    q, one = np.arange(model.space.dimension), np.ones(model.space.dimension)
    w = [(rows, vals * -1j) for rows, vals in model.m_terms]
    moves = [(rows, q, vals, one) for rows, vals in w] + [(q, rows, one, vals.conj()) for rows, vals in w]
    for g, v_j in zip(model.widths, model._couplings):
        terms = [(rows, vals * math.sqrt(g)) for rows, vals in linear_terms(model.space, v_j.conj())]
        moves += [(f, h, a, b.conj()) for (f, a), (h, b) in itertools.product(terms, repeat=2)]
    return moves


def _reachable(moves: Moves, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entries (rows, cols) of rho that can ever be nonzero, in row-major order: the
    exact-nonzero pattern of ``rho`` closed under the generator's ``moves`` (see
    :func:`_generator_terms`), (W!=0) X + X (W!=0)^T + sum_j (L_j!=0) X (L_j!=0)^T,
    each move taken where its factors are nonzero.
    """
    f, g = np.array([(np.where(a != 0, f, -1), np.where(b != 0, g, -1)) for f, g, a, b in moves]).transpose(1, 0, 2)
    return closed_support(len(rho), *np.nonzero(rho), f, g)


def _block_generator(moves: Moves, support: Support, r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Matrix of the generator on the block of entries (r[i], c[i]) of rho, all on ``support``: the Liouville
    form L[(a,b),(r,c)] = W_ar d_bc + d_ar conj(W_bc) + sum_j L_j,ar conj(L_j,bc), whose column k takes
    each move's factor in the row of the entry it moves (r[k], c[k]) to, by the support's slots.  The
    ``moves`` of :func:`_generator_terms` each give an entry one value at most, in their order, so every
    nonzero is the dense gather's sum, in its order."""
    n, k = r.size, np.arange(r.size)
    at = np.full(support.rows.size + 1, n)  # each slot's place in the block, n off it
    at[support.slots[r, c]] = k
    out = np.zeros((n + 1, n), dtype=complex)  # row n takes the moves off the block of zero values
    for f, g, a, b in moves:
        out[at[support.slots[f[r], g[c]]], k] += b[c] * a[r]
    return out[:n]


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


def _sample(p: np.ndarray, vec: np.ndarray, targets: Sequence[int], size: int) -> Iterator[np.ndarray]:
    """Rows P^n vec for each n in ``targets``, handed over ``size`` rows at a time.

    The power of each distinct gap between targets is taken here, once, so
    the iterator holds those powers and one vector, not ``p``.
    """
    gaps = set(np.diff(targets, prepend=0).tolist()) - {0}
    powers = {m: np.linalg.matrix_power(p, m) for m in gaps}
    return _advance(powers, vec, targets, size)


def _advance(powers: dict[int, np.ndarray], vec: np.ndarray, targets: Sequence[int],
             size: int) -> Iterator[np.ndarray]:
    done = 0
    for start in range(0, len(targets), size):
        part = targets[start:start + size]
        out = np.empty((len(part), vec.size), dtype=complex)
        for i, n in enumerate(part):
            if n != done:
                vec = powers[n - done] @ vec
                done = n
            out[i] = vec
        yield out


def integrate(
    gen: GeneratorAction,
    rho0: DensityOperator,
    times: Sequence[float],
    step: float,
    read: Callable[[Support, Iterator[np.ndarray], None], Result] | None = None,
) -> list[DensityOperator] | Result:
    """Classic fixed-step RK4 trajectory sampled at the requested times.

    Every requested time must be an integer multiple of ``step``.  Only the
    entries reachable from ``rho0`` are evolved, the others being exactly
    zero for all time.  They are split into blocks of equal Delta N, which
    the generator conserves because its model does, and each block's generator
    is scattered from the terms of W and the L_j into the block; an interval
    of m steps applies the m-th power of the block's RK4 step matrix, so
    scheme and step are those of the k1..k4 loop and only the rounding differs.
    The trajectory is returned as-is: no renormalization and no positivity
    projection, so trace drift stays visible to the caller.  Negative
    eigenvalue excursions beyond -1e-8 abort loudly, and so does a step
    matrix or a sampled state that is not finite (an unstable step).

    The generator's moves are listed once, for the support and every block.  The grid is
    assembled n = _stack_points(max(K, d)) points at a time, as (n, K) stacks of the
    values on the reachable support, checked as they are made
    (a point at step 0 is rho0 itself, unchecked), and an error names the
    earliest time of the stack that fails.  With ``read``, the result is
    ``read(support, stacks, None)`` (see :func:`fockdecay.channel.read_series`),
    the stacks made as ``read`` iterates.  Without, it is the list of states,
    rho0 itself at step 0.
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

    targets = steps_for(times, step)
    moves = _generator_terms(gen.model)
    support = Support(gen.model.space, *_reachable(moves, rho0.matrix))
    stacks = _rk4_stacks(moves, rho0, support, times, targets, step)
    if read is not None:
        return read(support, stacks, None)
    states = _as_states((m for values in stacks for m in support.scatter(values)), rho0)
    return [rho0 if n == 0 else state for n, state in zip(targets, states)]


def _rk4_stacks(moves: Moves, rho0: DensityOperator, support: Support, times: list[float],
                targets: list[int], step: float) -> Iterator[np.ndarray]:
    tot = support.space.total_occupation
    size = _stack_points(max(support.rows.size, support.space.dimension))
    delta = tot[support.rows] - tot[support.cols]
    blocks = []
    dns, sizes = np.unique(delta, return_counts=True)
    for dn in dns[np.argsort(-sizes, kind="stable")]:  # largest first: later blocks reuse its memory
        at = np.flatnonzero(delta == dn)
        samples = _block_samples(moves, rho0, support, dn, support.rows[at], support.cols[at], targets, step, size)
        blocks.append((dn, at, samples))
    start_values = support.values(rho0.matrix)
    for start in range(0, len(times), size):
        part = np.array(targets[start:start + size])
        values = np.empty((len(part), support.rows.size), dtype=complex)  # every entry is in one block
        for dn, at, samples in blocks:
            with np.errstate(over="ignore", invalid="ignore"):  # checked for finiteness below
                values[:, at] = next(samples)
            if not np.isfinite(values[:, at]).all():
                raise InvariantViolation(
                    f"RK4 state of the Delta N = {dn} block is not finite on the grid; "
                    f"step {step!r} is unstable for this generator"
                )
        values[part == 0] = start_values
        _check_states(support, values, part > 0, times[start:start + size])
        yield values


def _block_samples(moves: Moves, rho0: DensityOperator, support: Support, dn: int, r: np.ndarray,
                   c: np.ndarray, targets: list[int], step: float, size: int) -> Iterator[np.ndarray]:
    """The values of the block's entries (r[i], c[i]) on the grid, ``size``
    points at a time (see :func:`_sample`).

    A block whose series is no larger than its step matrix (no more grid
    points than entries) is sampled whole here, so only its series is kept;
    any other keeps one power per gap and advances as it is read.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # checked for finiteness here and by the caller
        # no name holds the block's L, so it is freed before the powers are taken
        p = _rk4_step_matrix(step * _block_generator(moves, support, r, c))
        if not np.isfinite(p).all():
            raise InvariantViolation(
                f"RK4 step matrix of the Delta N = {dn} block is not finite at step {step!r}"
            )
        samples = _sample(p, rho0.matrix[r, c], targets, size)
        return iter(list(samples)) if len(targets) <= r.size else samples


def _check_states(support: Support, values: np.ndarray, sampled: np.ndarray, times: Sequence[float]) -> None:
    """Hermiticity within 1e-10 (which a non-finite value fails) and no eigenvalue below
    EIG_EXCURSION_FLOOR for each ``sampled`` state of the (n, K) values, the error
    naming the first :func:`fockdecay.fock.density_breach`."""
    breach = density_breach(support, values[sampled], 1e-10, math.inf, EIG_EXCURSION_FLOOR)
    if breach is not None:
        i, check, value = breach
        t = [time for time, checked in zip(times, sampled) if checked][i]
        raise InvariantViolation(f"RK4 state eigenvalue {value:.3e} below {EIG_EXCURSION_FLOOR} at t={t}" if
                                 check == "eigenvalue" else f"RK4 state lost Hermiticity: defect {value:.3e} at t={t}")
