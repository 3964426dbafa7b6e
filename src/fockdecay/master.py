"""Brute-force oracle: the generator as a linear map plus fixed-step RK4.

Independent of the Kraus construction on purpose; it integrates the
first-order system for the density matrix directly so the two routes can
be compared against each other.  What it restricts is an index set, not
the numerics: it evolves only the entries of rho that the generator's own
sparsity pattern reaches from the initial state, every other entry being
exactly zero for all time.  Those entries split into blocks of equal
Delta N = N_row - N_col (M conserves the total and each L_j lowers row and
column occupations together, which holds by construction of a DecayModel).
That pattern is closed from the space's ladder maps, reading W and the L_j
only where they can be nonzero, with no matrix product, and each state is
checked and read as its values on it.  Each block's generator matrix is
gathered from W and the L_j at the block's own indices by the Liouville form
of the generator, and the block advances by the RK4 step polynomial of that
matrix, formed once.  W and the L_j are read from the model's M and c_j,
gathered where they are read and scaled there, so no copy of them is held.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .channel import DecayModel, Result, _as_states, _stack_points
from .config import STEP_MATCH_TOL, InvariantViolation, StepError, default_step, steps_for  # noqa: F401
from .fock import DensityOperator, Support, closed_support, density_breach

EIG_EXCURSION_FLOOR = -1e-8


@dataclass(frozen=True, eq=False)
class GeneratorAction:
    """Right-hand side of the evolution: rho -> W rho + rho W^dag + sum L rho L^dag,

    where W = -iM combines the commutator and anticommutator parts and
    L_j = sqrt(Gamma_j) c_j.  Both are read from ``model`` and formed on each
    read, so the generator holds nothing but its model and inherits its
    guarantees: W conserves the total occupation and each L_j lowers it by
    exactly one.
    """

    model: DecayModel

    def __post_init__(self):
        if not isinstance(self.model, DecayModel):
            raise TypeError(f"a generator needs a DecayModel, got {type(self.model).__name__}")

    @property
    def w_matrix(self) -> np.ndarray:
        return -1j * self.model.m_operator.entries

    @property
    def jump_ops(self) -> tuple[np.ndarray, ...]:
        return tuple(math.sqrt(g_j) * c.entries for g_j, c in zip(self.model.widths, self.model.decay_ops))

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        w = self.w_matrix
        if rho.shape != w.shape:
            raise ValueError(f"matrix shape {rho.shape} does not match {w.shape}")
        out = w @ rho + rho @ w.conj().T
        for L in self.jump_ops:
            out += L @ rho @ L.conj().T
        return out


build_generator = GeneratorAction


def _scaled(matrix: np.ndarray, index: tuple[np.ndarray, ...], scale: complex) -> np.ndarray:
    """matrix[index] * scale, scaled in place of the gather: one new array."""
    out = matrix[index]
    out *= scale
    return out


def _reachable(gen: GeneratorAction, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entries (rows, cols) of rho that can ever be nonzero, in row-major order: the
    exact-nonzero pattern of ``rho`` closed under the generator's, (W!=0) X + X
    (W!=0)^T + sum_j (L_j!=0) X (L_j!=0)^T.  Off its diagonal W can be nonzero
    only at (q - e_m + e_l, q) and L_j only at (q - e_l, q); those entries are
    read and moved along, W's on a row or a column, L_j's on both (any two l).
    """
    model, space = gen.model, gen.model.space
    dim, (down, up) = space.dimension, space.steps
    q, below = np.arange(dim), down[:, :dim]  # (l, q): q - e_l
    hops = up[:, below][~np.eye(space.n_modes, dtype=bool)]  # (l, m), l != m: q - e_m + e_l
    # W = -iM is nonzero where M is
    hops = np.where((hops >= 0) & (model.m_operator.entries[hops, q] != 0), hops, -1)
    hops = hops[(hops >= 0).any(axis=-1)]
    same = np.broadcast_to(q, hops.shape)
    f, g = [hops, same], [same, hops]
    for g_j, c in zip(model.widths, model.decay_ops):
        lows = np.where((below >= 0) & (math.sqrt(g_j) * c.entries[below, q] != 0), below, -1)
        lows = lows[(lows >= 0).any(axis=-1)]
        f.append(np.repeat(lows, len(lows), axis=0))
        g.append(np.tile(lows, (len(lows), 1)))
    return closed_support(dim, *np.nonzero(rho), np.concatenate(f), np.concatenate(g))


def _block_generator(gen: GeneratorAction, r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Matrix of ``gen`` on the block of entries (r[i], c[i]) of rho.

    Gathered at the block's indices from the Liouville form
    L[(a,b),(r,c)] = W_ar d_bc + d_ar conj(W_bc) + sum_j L_j,ar conj(L_j,bc),
    each gather of M or c_j scaled to W or L_j in place: at most three
    block-sized arrays are alive at once.
    """
    model = gen.model
    rr, cc = np.ix_(r, r), np.ix_(c, c)
    out = _scaled(model.m_operator.entries, rr, -1j)
    out *= c[:, None] == c
    tmp = _scaled(model.m_operator.entries, cc, -1j)
    np.conj(tmp, out=tmp)
    tmp *= r[:, None] == r
    out += tmp
    for g_j, op in zip(model.widths, model.decay_ops):
        np.conj(_scaled(op.entries, cc, math.sqrt(g_j)), out=tmp)
        tmp *= _scaled(op.entries, rr, math.sqrt(g_j))
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
    is gathered from W and the L_j at the block's own indices; an interval
    of m steps applies the m-th power of the block's RK4 step matrix, so
    scheme and step are those of the k1..k4 loop and only the rounding differs.
    The trajectory is returned as-is: no renormalization and no positivity
    projection, so trace drift stays visible to the caller.  Negative
    eigenvalue excursions beyond -1e-8 abort loudly, and so does a step
    matrix or a sampled state that is not finite (an unstable step).

    The grid is assembled n = _stack_points(d) points at a time, as (n, K)
    stacks of the values on the reachable support, checked as they are made
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
    support = Support(gen.model.space, *_reachable(gen, rho0.matrix))
    stacks = _rk4_stacks(gen, rho0, support, times, targets, step)
    if read is not None:
        return read(support, stacks, None)
    states = _as_states((m for values in stacks for m in support.scatter(values)), rho0)
    return [rho0 if n == 0 else state for n, state in zip(targets, states)]


def _rk4_stacks(gen: GeneratorAction, rho0: DensityOperator, support: Support, times: list[float],
                targets: list[int], step: float) -> Iterator[np.ndarray]:
    tot = gen.model.space.total_occupation
    size = _stack_points(gen.model.space.dimension)
    delta = tot[support.rows] - tot[support.cols]
    blocks = []
    dns, sizes = np.unique(delta, return_counts=True)
    for dn in dns[np.argsort(-sizes, kind="stable")]:  # largest first: later blocks reuse its memory
        at = np.flatnonzero(delta == dn)
        samples = _block_samples(gen, rho0, dn, support.rows[at], support.cols[at], targets, step, size)
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


def _block_samples(gen: GeneratorAction, rho0: DensityOperator, dn: int, r: np.ndarray, c: np.ndarray,
                   targets: list[int], step: float, size: int) -> Iterator[np.ndarray]:
    """The values of the block's entries (r[i], c[i]) on the grid, ``size``
    points at a time (see :func:`_sample`).

    A block whose series is no larger than its step matrix (no more grid
    points than entries) is sampled whole here, so only its series is kept;
    any other keeps one power per gap and advances as it is read.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # checked for finiteness here and by the caller
        # no name holds the block's L, so it is freed before the powers are taken
        p = _rk4_step_matrix(step * _block_generator(gen, r, c))
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
