"""Truncated occupation-number bases and the operators read from their ladder maps.

Multi-mode boson/fermion spaces with a per-mode occupation cutoff, dense
ladder and number matrices, the quadratic forms sum_lm omega_lm a_l^dag a_m
and their means, scattered and gathered with no matrix product, the standard
initial states (number states, coherent states, Poisson mixtures), and the
supports and connected blocks that the density checks run on.
"""
from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
TAIL_TOL = 1e-10
# Entries of a support up to which its indices are intp, and int32 beyond
SMALL_SUPPORT = 2**14


class InvariantViolation(RuntimeError):
    """A numerical contract that should hold by construction was broken."""


class TruncationError(ValueError):
    """Requested state content does not fit inside the truncated basis."""


class Statistics(Enum):
    BOSON = "boson"
    FERMION = "fermion"


@dataclass(frozen=True)
class ModeSpec:
    """One particle type: exchange statistics, mass, decay width, cutoff.

    ``cutoff`` is the largest retained occupation of the mode.  Fermionic
    modes are always stored with cutoff 1, whatever was passed in.
    """

    statistics: Statistics = Statistics.BOSON
    mass: float = 0.0
    width: float = 0.0
    cutoff: int = 8

    def __post_init__(self):
        if not math.isfinite(self.mass):
            raise ValueError(f"mass must be finite, got {self.mass}")
        if not (math.isfinite(self.width) and self.width >= 0.0):
            raise ValueError(f"width must be >= 0, got {self.width}")
        if self.cutoff < 0:
            raise ValueError(f"cutoff must be >= 0, got {self.cutoff}")
        if self.statistics is Statistics.FERMION and self.cutoff != 1:
            object.__setattr__(self, "cutoff", 1)

    @property
    def is_fermion(self) -> bool:
        return self.statistics is Statistics.FERMION


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
        key = tuple(int(n) for n in occupation)
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
    def steps(self) -> np.ndarray:
        """(down, up): row j maps the index of n to that of n - e_j (n + e_j), or to
        -1 outside the space; a last column maps -1 to -1, so maps compose."""
        maps = np.full((2, self.n_modes, self.dimension + 1), -1)
        for j, ((cols, vals), (lower, amp)) in enumerate(self.ladders):
            maps[:, j, :-1] = np.where(amp != 0, lower, -1), np.where(vals != 0, cols, -1)
        maps.setflags(write=False)
        return maps

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

    def check_hermitian(self) -> float:
        """:func:`hermitian_scale` of the entries."""
        return hermitian_scale(self.entries)


@dataclass(frozen=True, eq=False)
class Support:
    """Entries (rows[i], cols[i]) of a d x d matrix on ``space``, in row-major
    order, such as those a route runs on; a matrix on them is the flat array of
    its values there."""

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

    @classmethod
    def every(cls, space: FockSpace) -> Support:
        rows, cols = np.divmod(np.arange(space.dimension**2), space.dimension)
        return cls(space, rows, cols)

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

    def plans(self, adjoint: bool) -> tuple[np.ndarray, ...]:
        """Per mode j, where each value of lower Y lower^dag is gathered from, lower
        the plan (cols, vals) of ``space.ladders[j][adjoint]``: the slot of entry
        (cols[rows[i]], cols[cols[i]]), or slot K, a last one that is always 0."""
        if adjoint not in self._plans:
            slot = np.full((self.space.dimension,) * 2, self.rows.size)  # each entry's slot, K off them
            slot[self.rows, self.cols] = np.arange(self.rows.size)
            self._plans[adjoint] = tuple(
                np.append(slot[cols[self.rows], cols[self.cols]], self.rows.size).astype(self.rows.dtype)
                for cols in (ladder[adjoint][0] for ladder in self.space.ladders))
        return self._plans[adjoint]


def closed_support(dim: int, rows: np.ndarray, cols: np.ndarray, f: np.ndarray,
                   g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries (rows, cols), row-major, of the least d x d pattern holding the
    entries (rows[i], cols[i]) and closed under each move (n, m) -> (f[k, n], g[k,
    m]) where both are >= 0, such as the maps of :attr:`FockSpace.steps`: every
    move of a frontier of new entries at once, then the entries it found."""
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


def block_minima(matrices: np.ndarray, blocks: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per matrix of the (n, d, d) stack: the least eigenvalue of its Hermitian part
    on ``blocks`` (inf with none), one ``eigvalsh`` per block size, a 1 x 1 block's
    being its real entry, and the count of its nonzero entries off the blocks."""
    lo = np.full(len(matrices), np.inf)
    inside = np.zeros(len(matrices), dtype=np.int64)
    for idx in blocks:
        if idx.shape[1] == 1:
            sub = matrices[:, idx[:, 0], idx[:, 0]]
            inside += np.count_nonzero(sub, axis=1)
            lo = np.minimum(lo, sub.real.min(axis=1))
            continue
        if idx.shape[1] == matrices.shape[-1]:  # every index: the whole matrix, none off it
            lo = np.linalg.eigvalsh(0.5 * (matrices + matrices.conj().swapaxes(-1, -2))).min(axis=-1)
            return lo, np.zeros_like(inside)
        sub = matrices[:, idx[:, :, None], idx[:, None, :]]
        inside += np.count_nonzero(sub, axis=(1, 2, 3))
        lo = np.minimum(lo, np.linalg.eigvalsh(0.5 * (sub + sub.conj().swapaxes(-1, -2))).min(axis=(1, 2)))
    return lo, np.count_nonzero(matrices, axis=(1, 2)) - inside


def check_densities(matrices: np.ndarray, blocks: Sequence[np.ndarray] | None = None,
                    scratch: np.ndarray | None = None) -> None:
    """Raise InvariantViolation unless each matrix of the (n, d, d) stack is a
    density matrix: finite, Hermitian within HERMITICITY_TOL, of unit trace
    within TRACE_TOL, zero off ``blocks`` (by default those of the stack's
    exact-nonzero pattern) and with no eigenvalue on them below
    EIGENVALUE_FLOOR.  Each check reports the first matrix that fails it.
    The Hermiticity defect is formed in ``scratch``, a complex array of the
    stack's shape, when given, or in one new such array."""
    if not np.isfinite(matrices).all():
        raise InvariantViolation("density matrix has a non-finite entry")
    diff = np.conjugate(matrices.swapaxes(-1, -2), out=scratch)
    np.subtract(matrices, diff, out=diff)
    herm = np.max(np.abs(diff), axis=(-2, -1))
    if (herm > HERMITICITY_TOL).any():
        raise InvariantViolation(
            f"density matrix not Hermitian: defect {herm[herm > HERMITICITY_TOL][0]:.3e}")
    tr = np.trace(matrices, axis1=-2, axis2=-1)
    off = np.abs(tr - 1.0) > TRACE_TOL
    if off.any():
        raise InvariantViolation(f"density matrix trace {complex(tr[off][0])} differs from 1")
    if blocks is None:
        blocks = connected_blocks(matrices.shape[-1], *np.nonzero((matrices != 0).any(axis=0)))
    lo, stray = block_minima(matrices, blocks)
    if stray.any():
        raise InvariantViolation(f"density matrix has {stray[stray > 0][0]} nonzero entries outside its support")
    if (lo < EIGENVALUE_FLOOR).any():
        raise InvariantViolation(
            f"density matrix has eigenvalue {lo[lo < EIGENVALUE_FLOOR][0]:.3e} < {EIGENVALUE_FLOOR}")


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

    def check_invariants(self):
        check_densities(self.matrix[None])

    def diagonal(self) -> np.ndarray:
        return np.real(np.diag(self.matrix)).copy()


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
    lower, amp = space.ladders[_check_mode(space, mode)][1]
    out = np.zeros((space.dimension, space.dimension), dtype=complex)
    out[lower, np.arange(space.dimension)] = amp
    return OperatorMatrix(space, out)


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


def _ladder_pairs(space: FockSpace) -> tuple[np.ndarray, np.ndarray]:
    """(rows, values), each (r, r, d): column q of a_l^dag a_m (0-based modes) holds values[l, m, q] in
    row rows[l, m, q] alone, as a_m |n_q> = amp_m[q] |n_k>, k = lower_m[q], and a_l^dag |n_k> =
    vals_l[k] |n_{cols_l[k]}>."""
    up, down = zip(*space.ladders)
    (cols, vals), (lower, amp) = (map(np.array, zip(*plans)) for plans in (up, down))
    return cols[:, lower], vals[:, lower] * amp


def quadratic_form(space: FockSpace, omega: np.ndarray) -> np.ndarray:
    """sum_{lm} omega[l, m] a_l^dag a_m, one of :func:`_ladder_pairs` scattered at a time; zero terms are skipped."""
    rows, values = _ladder_pairs(space)
    out = np.zeros((space.dimension,) * 2, dtype=complex)
    for l, m in zip(*np.nonzero(omega)):
        out[rows[l, m], np.arange(space.dimension)] += omega[l, m] * values[l, m]
    return out


def one_body_correlations(rho: DensityOperator) -> np.ndarray:
    """T[l, m] = tr(rho a_l^dag a_m), the gathered sum_q rho[q, rows[l, m, q]] values[l, m, q] of
    :func:`_ladder_pairs`."""
    rows, values = _ladder_pairs(rho.space)
    terms = rho.matrix[np.arange(rho.space.dimension), rows] * values  # laid out q-major, as gathered
    return np.sum(np.ascontiguousarray(terms), axis=-1)  # so each (l, m) is one pairwise sum over q


def number_state(space: FockSpace, occupations) -> DensityOperator:
    """Pure basis-state projector |n1,...,nr><n1,...,nr|."""
    occ = tuple(int(n) for n in occupations)
    if len(occ) != space.n_modes:
        raise ValueError(f"expected {space.n_modes} occupations, got {len(occ)}")
    if any(n < 0 for n in occ):
        raise ValueError(f"occupations must be >= 0, got {occ}")
    idx = space.index_of(occ)
    mat = np.zeros((space.dimension, space.dimension), dtype=complex)
    mat[idx, idx] = 1.0
    return DensityOperator(space, mat)


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
    alpha = complex(alpha)
    cutoff = space.modes[j].cutoff
    nbar = abs(alpha) * abs(alpha)  # inf, not OverflowError, for a huge alpha
    # amp_k = amp_{k-1} alpha / sqrt(k) stays <= 1, so no power or factorial overflows
    amps = np.empty(cutoff + 1, dtype=complex)
    amps[0] = math.exp(-0.5 * nbar)
    for k in range(1, cutoff + 1):
        amps[k] = amps[k - 1] * alpha / math.sqrt(k)
    kept = float(np.sum(np.abs(amps) ** 2))
    tail = max(0.0, 1.0 - kept)
    if tail >= TAIL_TOL:
        raise TruncationError(
            f"coherent state |alpha|^2={nbar:.6g} leaves weight {tail:.3e} beyond "
            f"cutoff {cutoff} (tolerance {TAIL_TOL})"
        )
    amps /= math.sqrt(kept)
    vec = _single_mode_embedding(space, j, amps)
    return DensityOperator(space, np.outer(vec, vec.conj()), tail_weight=tail)


def poisson_mixture(space: FockSpace, mode: int, nbar: float) -> DensityOperator:
    """Diagonal mixture of number states with Poissonian weights."""
    j = _check_mode(space, mode)
    if space.modes[j].is_fermion:
        raise ValueError(f"mode {mode} is fermionic; Poisson mixtures need a bosonic mode")
    nbar = float(nbar)
    if nbar < 0:
        raise ValueError(f"nbar must be >= 0, got {nbar}")
    cutoff = space.modes[j].cutoff
    # w_k = w_{k-1} nbar / k stays <= 1, so no power or factorial overflows
    weights = np.empty(cutoff + 1)
    weights[0] = math.exp(-nbar)
    for k in range(1, cutoff + 1):
        weights[k] = weights[k - 1] * nbar / k
    kept = float(weights.sum())
    tail = max(0.0, 1.0 - kept)
    if tail >= TAIL_TOL:
        raise TruncationError(
            f"Poisson mixture nbar={nbar:.6g} leaves weight {tail:.3e} beyond "
            f"cutoff {cutoff} (tolerance {TAIL_TOL})"
        )
    weights /= kept
    mat = np.zeros((space.dimension, space.dimension), dtype=complex)
    for n, p in enumerate(weights):
        occ = [0] * space.n_modes
        occ[j] = n
        i = space.index_of(occ)
        mat[i, i] = p
    return DensityOperator(space, mat, tail_weight=tail)
