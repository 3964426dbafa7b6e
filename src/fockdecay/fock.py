"""Truncated occupation-number bases and dense operator matrices.

Multi-mode boson/fermion spaces with a per-mode occupation cutoff,
matrix representations of ladder and number operators, and the standard
initial states (number states, coherent states, Poisson mixtures).
"""
from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from enum import Enum
from typing import Sequence

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
TAIL_TOL = 1e-10


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

    The basis is the sector space S = {n : n_j <= cutoff_j, sum_j n_j <=
    ``total``}, ordered with the first mode varying slowest, so the vacuum
    tuple ``(0, ..., 0)`` always sits at flat index 0.  ``total`` defaults
    to (and is capped at) the sum of the cutoffs, where S is the product
    space.  Instances are immutable after construction.
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
    Hermiticity defect is within 1e-12 of it; a ValueError otherwise."""
    matrix = np.asarray(matrix, dtype=complex)
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
        herm = float(np.max(np.abs(self.matrix - self.matrix.conj().T)))
        if herm > HERMITICITY_TOL:
            raise InvariantViolation(f"density matrix not Hermitian: defect {herm:.3e}")
        tr = complex(np.trace(self.matrix))
        if abs(tr - 1.0) > TRACE_TOL:
            raise InvariantViolation(f"density matrix trace {tr} differs from 1")
        lo = float(np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.conj().T)).min())
        if lo < EIGENVALUE_FLOOR:
            raise InvariantViolation(f"density matrix has eigenvalue {lo:.3e} < {EIGENVALUE_FLOOR}")

    def diagonal(self) -> np.ndarray:
        return np.real(np.diag(self.matrix)).copy()


def _check_mode(space: FockSpace, mode: int) -> int:
    """Validate a 1-based mode label and return the 0-based index."""
    if not 1 <= mode <= space.n_modes:
        raise ValueError(f"mode {mode} out of range 1..{space.n_modes}")
    return mode - 1


def _jw_sign(space: FockSpace, occ: tuple[int, ...], j: int) -> float:
    parity = sum(occ[l] for l in range(j) if space.modes[l].is_fermion)
    return -1.0 if parity % 2 else 1.0


def build_annihilator(space: FockSpace, mode: int) -> OperatorMatrix:
    """Lowering operator for one mode on the truncated basis.

    Bosonic matrix elements are sqrt(n); fermionic modes carry the
    Jordan-Wigner string over earlier fermionic modes so that the
    anti-commutation relations hold exactly.
    """
    j = _check_mode(space, mode)
    fermion = space.modes[j].is_fermion
    out = np.zeros((space.dimension, space.dimension), dtype=complex)
    for col, occ in enumerate(space.occupations):
        n = occ[j]
        if n == 0:
            continue
        target = list(occ)
        target[j] = n - 1
        row = space.index_of(target)
        if fermion:
            out[row, col] = _jw_sign(space, occ, j)
        else:
            out[row, col] = math.sqrt(n)
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


def quadratic_form(omega: np.ndarray, ops: Sequence[np.ndarray]) -> np.ndarray:
    """sum_{jk} omega[j, k] X_j^dag X_k over the matrices X_j in ``ops``; zero terms are skipped."""
    out = np.zeros_like(ops[0], dtype=complex)
    for j, k in zip(*np.nonzero(omega)):
        out += omega[j, k] * (ops[j].conj().T @ ops[k])
    return out


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
