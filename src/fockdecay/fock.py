"""Truncated occupation-number bases and the operators read from their ladder maps.

Multi-mode boson/fermion spaces with a per-mode occupation cutoff, dense ladder
and number matrices, the linear forms sum_l coeffs_l a_l and quadratic forms
sum_lm omega_lm a_l^dag a_m as terms of one value per column, and their scatter,
the standard initial states, and the supports that states are evolved, checked
and read on: a state is its values there, and its checks and its means
tr(rho a_l^dag a_m) gather from them through one slot map.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .config import TAIL_TOL, InvariantViolation, ModeSpec, Statistics, TruncationError  # noqa: F401
from .config import truncated_terms

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
# Entries of a support up to which its indices are intp, and int32 beyond
SMALL_SUPPORT = 2**14


def _integral(occupation) -> tuple[int, ...]:
    """An occupation tuple as ints; a ValueError for a non-integral entry."""
    occ = tuple(occupation)
    if not all(float(n).is_integer() for n in occ):
        raise ValueError(f"occupations must be integers, got {occ}")
    return tuple(int(n) for n in occ)


def sector_occupations(cutoffs: Sequence[int], total: int) -> np.ndarray:
    """Every tuple n with 0 <= n_j <= cutoffs[j] and sum_j n_j <= total, one per row,
    in lexicographic order: each partial tuple is followed by its next entries
    0..min(cutoff, quanta left), so no tuple outside the set is ever formed.
    """
    occ = np.zeros((1, 0), dtype=np.int64)
    left = np.array([total], dtype=np.int64)
    for cutoff in cutoffs:
        counts = np.minimum(cutoff, left) + 1
        parent = np.repeat(np.arange(left.size), counts)
        n = np.arange(parent.size) - np.repeat(np.cumsum(counts) - counts, counts)
        occ = np.column_stack([occ[parent], n])
        left = left[parent] - n
    return occ


class FockSpace:
    """Lexicographic occupation-number basis over an ordered list of modes.

    The basis is the sector space S = {n : n_j <= cutoff_j, sum_j n_j <= ``total``},
    ordered with the first mode varying slowest, so the vacuum tuple ``(0, ..., 0)``
    always sits at flat index 0.  ``total`` defaults to (and is capped at) the sum
    of the cutoffs, where S is the product space.  Instances are immutable after
    construction.  Every annihilator and gather plan is read from :attr:`ladders`,
    so the order of S is known to this class alone.
    """

    def __init__(self, modes: Sequence[ModeSpec] | ModeSpec, total: int | None = None):
        if isinstance(modes, ModeSpec):
            modes = (modes,)
        self.modes: tuple[ModeSpec, ...] = tuple(modes)
        if not self.modes:
            raise ValueError("a FockSpace needs at least one mode")
        full = sum(m.cutoff for m in self.modes)
        total = full if total is None else int(total)
        if total < 0:
            raise ValueError(f"total must be >= 0, got {total}")
        self.total = min(total, full)
        arr = sector_occupations([m.cutoff for m in self.modes], self.total)
        arr.setflags(write=False)
        self.occupation_array = arr
        self.dimension = arr.shape[0]
        self._occupations = tuple(map(tuple, arr.tolist()))
        self._flat_index = {occ: i for i, occ in enumerate(self._occupations)}
        tot = arr.sum(axis=1)
        tot.setflags(write=False)
        self.total_occupation = tot

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def occupations(self) -> tuple[tuple[int, ...], ...]:
        return self._occupations

    def index_of(self, occupation) -> int:
        key = _integral(occupation)
        try:
            return self._flat_index[key]
        except KeyError:
            raise TruncationError(
                f"occupation {key} is outside the truncated basis "
                f"(cutoffs {tuple(m.cutoff for m in self.modes)}, total <= {self.total})"
            ) from None

    def occupation_of(self, index: int) -> tuple[int, ...]:
        return self._occupations[index]

    @cached_property
    def ladders(self) -> tuple[tuple[tuple[np.ndarray, np.ndarray], ...], ...]:
        """Per mode j (0-based), the gather plans (cols, vals) of a_j and of a_j^dag: row
        i's only nonzero is vals[i], in column cols[i] (both 0 on an empty row).
        a_j^dag's plan (lower, amp) is the mode's ladder map, a_j|n_i> = amp[i]
        |n_lower[i]>: n_i - e_j is looked up in the space's own index, so the map
        holds in any order of S, and amp[i] = sqrt(n_ij), times (-1)^(occupation of
        the earlier fermionic modes) for a fermion.  a_j's plan is its inverse."""
        occ = self.occupation_array
        fermionic = occ * np.array([m.is_fermion for m in self.modes])
        # (-1)^(occupation of the earlier fermionic modes), an integer so that amp = +0.0 where n = 0
        sign = 1 - 2 * ((np.cumsum(fermionic, axis=1) - fermionic) % 2)
        plans = []
        for j, mode in enumerate(self.modes):
            lower = np.array([self._flat_index[t[:j] + (t[j] - 1,) + t[j + 1:]] if t[j] else 0
                              for t in self._occupations])
            # a fermion's sqrt(n) is n
            amp = (occ[:, j] * sign[:, j]).astype(float) if mode.is_fermion else np.sqrt(occ[:, j])
            hit = np.flatnonzero(amp)
            cols, vals = np.zeros_like(lower), np.zeros_like(amp)
            cols[lower[hit]], vals[lower[hit]] = hit, amp[hit]
            for array in (cols, vals, lower, amp):
                array.setflags(write=False)
            plans.append(((cols, vals), (lower, amp)))
        return tuple(plans)

    @cached_property
    def ladder_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, values), each (r, r, d) and read-only: column q of a_l^dag a_m (0-based modes) holds
        values[l, m, q] in row rows[l, m, q] alone, as a_m |n_q> = amp_m[q] |n_k>, k = lower_m[q], and
        a_l^dag |n_k> = vals_l[k] |n_{cols_l[k]}>."""
        up, down = zip(*self.ladders)
        (cols, vals), (lower, amp) = (map(np.array, zip(*plans)) for plans in (up, down))
        rows, values = cols[:, lower], vals[:, lower] * amp
        rows.flags.writeable = values.flags.writeable = False
        return rows, values

    def __eq__(self, other):
        return (isinstance(other, FockSpace) and self.modes == other.modes
                and self.total == other.total)

    def __hash__(self):
        return hash((self.modes, self.total))

    def __repr__(self):
        tags = ",".join(
            f"{'f' if m.is_fermion else 'b'}{m.cutoff}" for m in self.modes
        )
        return f"FockSpace({tags}, total={self.total}, dim={self.dimension})"


def hermitian_scale(matrix: np.ndarray) -> float:
    """The scale max(1, max |entries|) of an observable's square matrix, once its
    entries are finite and its Hermiticity defect is within 1e-12 of it; a
    ValueError otherwise."""
    matrix = np.asarray(matrix, dtype=complex)
    if not np.isfinite(matrix).all():
        raise ValueError("observable has a non-finite entry")
    scale = max(1.0, float(np.max(np.abs(matrix))))
    herm = float(np.max(np.abs(matrix - matrix.conj().T)))
    if herm > 1e-12 * scale:
        raise ValueError(f"observable is not Hermitian (defect {herm:.3e})")
    return scale


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense complex matrix acting on a :class:`FockSpace`."""

    space: FockSpace
    entries: np.ndarray

    def __post_init__(self):
        mat = np.array(self.entries, dtype=complex)
        if mat.shape != (self.space.dimension, self.space.dimension):
            raise ValueError(
                f"operator shape {mat.shape} does not match space dimension "
                f"{self.space.dimension}"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)

    def dagger(self) -> "OperatorMatrix":
        return OperatorMatrix(self.space, self.entries.conj().T)


@dataclass(frozen=True, eq=False)
class Support:
    """Entries (rows[i], cols[i]) of a d x d matrix on ``space``, in row-major order, such as
    those a route runs on; a matrix on them is the flat array of its values there.  Every
    gather reads the one map :attr:`slots`, whose slot K, "off the entries", reads 0."""

    space: FockSpace
    rows: np.ndarray
    cols: np.ndarray
    _plans: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        # int32 halves the indices of a large support; a small one keeps intp, as numpy's cast from
        # int32 loads code that weighs more in a short run's peak RSS than its indices do
        index = np.int32 if self.rows.size > SMALL_SUPPORT else np.intp
        object.__setattr__(self, "rows", self.rows.astype(index, copy=False))
        object.__setattr__(self, "cols", self.cols.astype(index, copy=False))

    def values(self, matrix: np.ndarray) -> np.ndarray:
        return matrix.reshape(*matrix.shape[:-2], -1) if self.full else matrix[..., self.rows, self.cols]

    def scatter(self, flat: np.ndarray) -> np.ndarray:
        """The (n, d, d) stack of the (n, K) values, zero off the entries."""
        d = self.space.dimension
        if self.full:  # row-major: the values are the stack's own
            return flat.reshape(len(flat), d, d)
        out = np.zeros((len(flat), d, d), dtype=flat.dtype)
        out[:, self.rows, self.cols] = flat
        return out

    @property
    def full(self) -> bool:
        return self.rows.size == self.space.dimension ** 2

    @cached_property
    def slots(self) -> np.ndarray:
        """The (d, d) map of each entry to its slot, K off the entries."""
        slot = np.full((self.space.dimension,) * 2, self.rows.size, dtype=self.rows.dtype)
        slot[self.rows, self.cols] = np.arange(self.rows.size)
        return slot

    @cached_property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """The slots of the square blocks of :func:`connected_blocks`, (blocks, size, size) per size."""
        return tuple(self.slots[idx[:, :, None], idx[:, None, :]]
                     for idx in connected_blocks(self.space.dimension, self.rows, self.cols))

    def plans(self, adjoint: bool) -> tuple[np.ndarray, ...]:
        """Per mode j, where each value of lower Y lower^dag is gathered from, lower
        the plan (cols, vals) of ``space.ladders[j][adjoint]``: the slot of entry
        (cols[rows[i]], cols[cols[i]]), and slot K last."""
        if adjoint not in self._plans:
            self._plans[adjoint] = tuple(
                np.append(self.slots[cols[self.rows], cols[self.cols]], self.rows.size).astype(self.rows.dtype)
                for cols in (ladder[adjoint][0] for ladder in self.space.ladders))
        return self._plans[adjoint]


def padded(values: np.ndarray) -> np.ndarray:
    """The (n, K) values with a last column of zeros, which slot K reads."""
    out = np.zeros((len(values), values.shape[-1] + 1), dtype=values.dtype)
    out[:, :-1] = values
    return out


def closed_support(dim: int, rows: np.ndarray, cols: np.ndarray, f: np.ndarray,
                   g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries (rows, cols), row-major, of the least d x d pattern holding the
    entries (rows[i], cols[i]) and closed under each move (n, m) -> (f[k, n], g[k,
    m]) where both are >= 0, such as the rows of terms (-1 where a value is 0):
    every move of a frontier of new entries at once, then the entries it found."""
    live = np.zeros((dim, dim), dtype=bool)
    live[rows, cols] = True
    n, m = rows, cols
    while n.size:
        a, b = f[:, n], g[:, m]
        hit = (a >= 0) & (b >= 0)
        found = np.zeros_like(live)
        found[a[hit], b[hit]] = True
        found &= ~live
        live |= found
        n, m = np.nonzero(found)
    return np.nonzero(live)


def connected_blocks(dim: int, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, ...]:
    """The components of the graph on the indices of a d x d matrix with an edge per
    entry (rows[i], cols[i]), as one (blocks, size) index array per size, by
    increasing size; an index in no entry is in none.  A matrix zero off them
    has the union of their spectra (and 0 per index in none)."""
    # no sort, np.minimum.at or np.unique: code that no other step loads raises the peak RSS
    root = np.arange(dim)
    while True:  # the larger root of each edge between two trees hooks onto the smaller
        a, b = root[rows], root[cols]
        low, high = np.minimum(a, b), np.maximum(a, b)
        if not (hook := low < high).any():
            break
        root[high[hook]] = low[hook]
        while not np.array_equal(root[root], root):
            root = root[root]
    nodes = np.flatnonzero(np.bincount(rows, minlength=dim) + np.bincount(cols, minlength=dim))
    sizes, members = np.bincount(root[nodes], minlength=dim), []
    if nodes.size and sizes.max() == nodes.size:  # one block
        return (nodes[None],)
    while nodes.size:  # each root takes one more of its indices per pass, whichever the scatter keeps
        members.append(np.full(dim, -1))
        members[-1][root[nodes]] = nodes
        nodes = nodes[members[-1][root[nodes]] != nodes]
    return tuple(np.array(members)[:s, sizes == s].T for s in sorted(set(sizes.tolist()) - {0}))


def block_minima(support: Support, values: np.ndarray) -> np.ndarray:
    """Per state of the (n, K + 1) :func:`padded` values, the least eigenvalue of its Hermitian part
    on the support's blocks (inf with none): one ``eigvalsh`` per size, a 1 x 1 block's real entry."""
    lo = np.full(len(values), np.inf)
    for slots in support.blocks:
        sub = values[:, slots]
        if slots.shape[-1] == 1:
            lo = np.minimum(lo, sub.real.min(axis=(1, 2, 3)))
            continue
        lo = np.minimum(lo, np.linalg.eigvalsh(0.5 * (sub + sub.conj().swapaxes(-1, -2))).min(axis=(1, 2)))
    return lo


def density_breach(support: Support, values: np.ndarray, herm_tol: float, trace_tol: float,
                   floor: float) -> tuple[int, str, float | complex] | None:
    """(index, check, value) of the first state of the (n, K) values that is not a density matrix,
    or None: a non-finite state first ("finite", nan), then the earliest state failing, in this
    order, Hermiticity within ``herm_tol`` (each value against its transpose's slot), a trace
    within ``trace_tol`` of 1 (the diagonal slots), no :func:`block_minima` below ``floor``."""
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        return int(np.argmax(bad)), "finite", math.nan
    full = padded(values)
    herm = np.max(np.abs(values - full[:, support.slots[support.cols, support.rows]].conj()), axis=1, initial=0.0)
    trace = full[:, support.slots.diagonal()].sum(axis=1)
    lo = block_minima(support, full)
    checks = [("hermiticity", ~(herm <= herm_tol), herm), ("trace", ~(np.abs(trace - 1.0) <= trace_tol), trace),
              ("eigenvalue", ~(lo >= floor), lo)]
    i, k = min(((int(np.argmax(fails)), k) for k, (_, fails, _) in enumerate(checks) if fails.any()), default=(0, None))
    return None if k is None else (i, checks[k][0], checks[k][2][i])


def check_densities(support: Support, values: np.ndarray) -> None:
    """InvariantViolation for the first :func:`density_breach` at HERMITICITY_TOL, TRACE_TOL and EIGENVALUE_FLOOR."""
    breach = density_breach(support, values, HERMITICITY_TOL, TRACE_TOL, EIGENVALUE_FLOOR)
    if breach is not None:
        _, check, value = breach
        raise InvariantViolation({
            "finite": "density matrix has a non-finite entry",
            "hermiticity": f"density matrix not Hermitian: defect {value:.3e}",
            "trace": f"density matrix trace {complex(value)} differs from 1",
            "eigenvalue": f"density matrix has eigenvalue {value:.3e} < {EIGENVALUE_FLOOR}",
        }[check])


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, positive, unit-trace matrix over a :class:`FockSpace`.

    ``tail_weight`` records probability discarded when the state was
    projected onto the truncated basis (zero for exactly representable
    states).
    """

    space: FockSpace
    matrix: np.ndarray
    tail_weight: float = 0.0
    validate: InitVar[bool] = True

    def __post_init__(self, validate):
        mat = np.array(self.matrix, dtype=complex)
        if mat.shape != (self.space.dimension, self.space.dimension):
            raise ValueError(
                f"density matrix shape {mat.shape} does not match space "
                f"dimension {self.space.dimension}"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        if validate:
            self.check_invariants()

    def support(self) -> Support:
        """The state's exact nonzeros."""
        return Support(self.space, *np.nonzero(self.matrix))

    def check_invariants(self):
        support = self.support()
        check_densities(support, support.values(self.matrix)[None])


def _check_mode(space: FockSpace, mode: int) -> int:
    """Validate a 1-based mode label and return the 0-based index."""
    if not 1 <= mode <= space.n_modes:
        raise ValueError(f"mode {mode} out of range 1..{space.n_modes}")
    return mode - 1


def build_annihilator(space: FockSpace, mode: int) -> OperatorMatrix:
    """Lowering operator for one mode, scattered from its :attr:`FockSpace.ladders` map.

    Bosonic matrix elements are sqrt(n); fermionic modes carry the
    Jordan-Wigner string over earlier fermionic modes so that the
    anti-commutation relations hold exactly.
    """
    return OperatorMatrix(space, linear_form(space, np.eye(space.n_modes)[_check_mode(space, mode)]))


def build_creation(space: FockSpace, mode: int) -> OperatorMatrix:
    """Raising operator; adjoint of :func:`build_annihilator`."""
    return build_annihilator(space, mode).dagger()


def build_number(space: FockSpace, mode: int) -> OperatorMatrix:
    """Occupation-number operator of one mode (diagonal)."""
    j = _check_mode(space, mode)
    diag = space.occupation_array[:, j].astype(complex)
    return OperatorMatrix(space, np.diag(diag))


def build_total_number(space: FockSpace) -> OperatorMatrix:
    """Sum of the per-mode number operators."""
    return OperatorMatrix(space, np.diag(space.total_occupation.astype(complex)))


def linear_terms(space: FockSpace, coeffs: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The terms (rows, vals) of sum_l coeffs[l] a_l, column q of each holding vals[q] in row rows[q]
    alone: per nonzero coeffs[l], in mode order, a_l's ladder map (lower, coeffs[l] * amp)."""
    return [(space.ladders[l][1][0], coeffs[l] * space.ladders[l][1][1]) for l in np.flatnonzero(coeffs)]


def quadratic_terms(space: FockSpace, omega: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The terms of sum_lm omega[..., l, m] a_l^dag a_m (vals (..., d) for a stack of omegas), from the
    ladder pairs: first the diagonal sum_l omega_ll n_l on rows 0 .. d - 1, summed from 0 in mode order,
    then one per (l, m), l != m, nonzero in some omega, row-major; so each entry takes one term's value."""
    (rows, values), omega, d = space.ladder_pairs, np.asarray(omega), space.dimension
    live = omega.reshape(-1, *omega.shape[-2:]).any(axis=0)
    diag = np.zeros((*omega.shape[:-2], d), dtype=complex)
    for l in np.flatnonzero(live.diagonal()):
        diag += omega[..., l, l, None] * values[l, l]
    off = np.argwhere(live & ~np.eye(len(live), dtype=bool))
    return [(np.arange(d), diag), *((rows[l, m], omega[..., l, m, None] * values[l, m]) for l, m in off)]


def scatter_terms(space: FockSpace, terms: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """The d x d matrix of ``terms``, each scattered onto zeros in turn."""
    out = np.zeros((space.dimension,) * 2, dtype=complex)
    for rows, vals in terms:
        out[rows, np.arange(space.dimension)] += vals
    return out


def linear_form(space: FockSpace, coeffs: np.ndarray) -> np.ndarray:
    """sum_l coeffs[l] a_l, the scatter of its :func:`linear_terms`."""
    return scatter_terms(space, linear_terms(space, coeffs))


def quadratic_form(space: FockSpace, omega: np.ndarray) -> np.ndarray:
    """sum_{lm} omega[l, m] a_l^dag a_m, the scatter of its :func:`quadratic_terms`."""
    return scatter_terms(space, quadratic_terms(space, omega))


def one_body_correlations(support: Support, values: np.ndarray) -> np.ndarray:
    """T[n, l, m] = tr(rho_n a_l^dag a_m) of the (n, K) values, the gathered sum_q
    rho[q, rows[l, m, q]] values[l, m, q] of :attr:`FockSpace.ladder_pairs`, laid out q-major:
    one pairwise sum over q per (l, m), and a C-ordered T whatever n is."""
    rows, pairs = support.space.ladder_pairs
    terms = padded(values)[:, support.slots[np.arange(support.space.dimension), rows]] * pairs
    return np.sum(np.ascontiguousarray(terms), axis=-1)


def number_state(space: FockSpace, occupations) -> DensityOperator:
    """Pure basis-state projector |n1,...,nr><n1,...,nr|, a density matrix by construction, so unchecked."""
    occ = _integral(occupations)
    if len(occ) != space.n_modes:
        raise ValueError(f"expected {space.n_modes} occupations, got {len(occ)}")
    if any(n < 0 for n in occ):
        raise ValueError(f"occupations must be >= 0, got {occ}")
    idx = space.index_of(occ)
    mat = np.zeros((space.dimension, space.dimension), dtype=complex)
    mat[idx, idx] = 1.0
    return DensityOperator(space, mat, validate=False)


def vacuum_state(space: FockSpace) -> DensityOperator:
    return number_state(space, (0,) * space.n_modes)


def _single_mode_embedding(space: FockSpace, j: int, amplitudes: np.ndarray) -> np.ndarray:
    """Embed a single-mode state vector with all other modes in vacuum."""
    vec = np.zeros(space.dimension, dtype=complex)
    for n, amp in enumerate(amplitudes):
        occ = [0] * space.n_modes
        occ[j] = n
        vec[space.index_of(occ)] = amp
    return vec


def coherent_state(space: FockSpace, mode: int, alpha: complex) -> DensityOperator:
    """Truncated coherent state in one bosonic mode, other modes in vacuum.

    The amplitude tail beyond the cutoff must weigh less than ``TAIL_TOL``;
    the retained vector is renormalized and the discarded weight is stored
    on the returned state as ``tail_weight``.
    """
    j = _check_mode(space, mode)
    if space.modes[j].is_fermion:
        raise ValueError(f"mode {mode} is fermionic; coherent states need a bosonic mode")
    if not cmath.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    amps, kept, tail = truncated_terms("coherent", alpha, space.modes[j].cutoff)
    amps = np.array(amps) / math.sqrt(kept)
    vec = _single_mode_embedding(space, j, amps)
    return DensityOperator(space, np.outer(vec, vec.conj()), tail_weight=tail)


def poisson_mixture(space: FockSpace, mode: int, nbar: float) -> DensityOperator:
    """Diagonal mixture of number states with Poissonian weights."""
    j = _check_mode(space, mode)
    if space.modes[j].is_fermion:
        raise ValueError(f"mode {mode} is fermionic; Poisson mixtures need a bosonic mode")
    nbar = float(nbar)
    if not 0 <= nbar < math.inf:
        raise ValueError(f"nbar must be finite and >= 0, got {nbar}")
    weights, kept, tail = truncated_terms("poisson", nbar, space.modes[j].cutoff)
    mat = np.diag(_single_mode_embedding(space, j, np.array(weights) / kept))
    return DensityOperator(space, mat, tail_weight=tail)
