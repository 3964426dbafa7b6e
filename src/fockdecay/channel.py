"""Decay channels: Kraus channels, their application, and certificates.

Builds the completely positive trace-preserving map generated by a set of
decaying modes on the space the model is given.  Its Kraus operators are
indexed by how many quanta each decay mode loses; their sum factorises by
mode, and is evaluated in the basis of the decay modes' number states, where
M is diagonal and each loss map is the amplitude damping of one mode, a
gather, run on the entries a state can reach from its own (its support),
where it is checked and read as its values; only a returned state is rotated
back.  A model and a :class:`KrausSet` check themselves when constructed (the
commutation certificate, which guards that the space is closed under the decay
operators, and completeness), over the whole space, so no object that fails
them can be represented.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from .config import CertificateError, InvariantViolation
from .fock import (
    DensityOperator,
    FockSpace,
    OperatorMatrix,
    Support,
    check_densities,
    closed_support,
    hermitian_scale,
    linear_form,
    one_body_correlations,
    padded,
    quadratic_terms,
    scatter_terms,
)

CERTIFICATE_TOL = 1e-10
COMPLETENESS_TOL = 1e-10
MIXING_TOL = 1e-12
MODE_BASIS_TOL = 1e-12
# Largest rounding 2^-53 |Re lambda_n| t of the phase of a nonzero amplitude D_n
PHASE_TOL = 1e-10

# exp(-x) underflows well before this; treat the decayed weight as exact
LARGE_EXPONENT = 700.0

# Bytes of one (n, width) complex stack: a time grid is evaluated as (n, K) support
# values, n = _stack_points(max(K, d)), and each stack is read in slices as large
STACK_BYTES = 128 * 1024

Result = TypeVar("Result")


def _stack_points(width: int) -> int:
    """n = max(1, STACK_BYTES // (16 width)): the points of one (n, width) complex stack."""
    return max(1, STACK_BYTES // (16 * width))


def _by_rows(f: Callable[[np.ndarray], np.ndarray], values: np.ndarray, width: int) -> np.ndarray:
    """The row-wise ``f`` of the (n, K) values, taken :func:`_stack_points` (``width``) rows at a time."""
    size = _stack_points(width)
    return np.concatenate([f(values[i:i + size]) for i in range(0, max(len(values), 1), size)])


@dataclass(frozen=True, eq=False)
class DecayModel:
    """Decay operators and the non-Hermitian generator M of one dissipative
    evolution, built from its space and mixing unitary alone, exact on the
    whole space and certified when constructed.

    Mode j of the space carries the mass m_j and width Gamma_j of decay mode
    c_j.  Without ``mixing_unitary`` c_j = a_j, the annihilator of mode j.
    With it, V must be an n x n matrix (n the number of modes) with max |V
    V^dag - 1| within ``MIXING_TOL`` (a ValueError otherwise), and c_j =
    sum_l conj(V[j, l]) a_l, the scatter of its :func:`linear_terms`.
    Each c_j thus lowers the total occupation by exactly one.  M = sum_j mu_j
    c_j^dag c_j, mu_j = m_j - i Gamma_j / 2, is kept as ``m_terms``: the
    :func:`quadratic_terms` of its mass part, V^T diag(m) conj(V), plus i
    times those of its decay part, V^T diag(-Gamma / 2) conj(V), term by
    term.  The model holds no dense M or c_j: the tests scatter them from
    these terms as their reference.  The model is refused
    unless every term is finite, the mass part Hermitian and the relative
    defect of [M, c_j] = -mu_j c_j, ``certificate_defect``, read exactly on
    the space's boundary with no d x d array (:func:`_certificate_defect`),
    is within ``CERTIFICATE_TOL``: this refuses a V under which the space is
    not closed, such as a mixed boson pair past its common cutoff, at any mass.  The
    ``mode_basis`` its Kraus channels use is built on its first use.
    """

    space: FockSpace
    mixing_unitary: np.ndarray | None = None
    m_terms: tuple[tuple[np.ndarray, np.ndarray], ...] = field(init=False, repr=False)
    certificate_defect: float = field(init=False, repr=False)

    def __post_init__(self):
        space, r = self.space, self.space.n_modes
        if self.mixing_unitary is not None:
            try:
                v = np.array(self.mixing_unitary, dtype=complex)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"mixing_unitary must be a numeric matrix: {exc}") from None
            if v.shape != (r, r):
                raise ValueError(f"mixing_unitary must be {r}x{r}, got shape {v.shape}")
            unitarity = float(np.max(np.abs(v @ v.conj().T - np.eye(r))))
            if not unitarity <= MIXING_TOL:
                raise ValueError(f"mixing_unitary is not unitary: defect {unitarity:.3e} "
                                 f"exceeds {MIXING_TOL}")
            v.setflags(write=False)
            object.__setattr__(self, "mixing_unitary", v)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
            omega_m = self._on_ladders(np.diag(self.masses))
            terms = quadratic_terms(space, np.array([omega_m, self._on_ladders(-0.5 * np.diag(self.widths))]))
        if not all(np.isfinite(vals).all() for _, vals in terms):
            raise InvariantViolation("Hamiltonian or decay term is not finite; masses or widths "
                                     "overflow at this cutoff")
        herm = float(np.max(np.abs(omega_m - omega_m.conj().T)))
        if herm > 1e-12 * max(1.0, float(np.max(np.abs(omega_m)))):
            raise InvariantViolation(f"Hamiltonian not Hermitian: defect {herm:.3e}")
        for _, vals in terms:  # mass + 1j * decay, bit for bit, in the mass term kept
            vals[0].real -= vals[1].imag
            vals[0].imag += vals[1].real
            vals.setflags(write=False)
        defect = _certificate_defect(self)
        if not defect <= CERTIFICATE_TOL:
            raise CertificateError(
                f"commutation certificate defect {defect:.3e} (relative) exceeds "
                f"{CERTIFICATE_TOL}; the space is not closed under the decay operators"
            )
        object.__setattr__(self, "m_terms", tuple((rows, vals[0]) for rows, vals in terms))
        object.__setattr__(self, "certificate_defect", defect)

    @property
    def masses(self) -> tuple[float, ...]:
        return tuple(m.mass for m in self.space.modes)

    @property
    def widths(self) -> tuple[float, ...]:
        return tuple(m.width for m in self.space.modes)

    @property
    def is_mixed(self) -> bool:
        return self.mixing_unitary is not None

    @property
    def _couplings(self) -> np.ndarray:
        """V, or the identity unmixed: c_j = sum_l conj(V[j, l]) a_l."""
        return self.mixing_unitary if self.is_mixed else np.eye(self.space.n_modes)

    def _on_ladders(self, coeff: np.ndarray) -> np.ndarray:
        """V^T coeff conj(V) (coeff unmixed): the omega of sum_jk coeff[j, k] c_j^dag c_k."""
        return self.mixing_unitary.T @ coeff @ self.mixing_unitary.conj() if self.is_mixed else coeff

    @property
    def mode_basis(self) -> np.ndarray | None:
        """W, the Fock-space rotation of V with c_j W = W a_j (None unmixed); see :attr:`_rotation`."""
        return self._rotation[0]

    @cached_property
    def _rotation(self) -> tuple[np.ndarray | None, float]:
        """(W, ||W^dag W - 1||_2), or (None, 0.0) unmixed.  Column n of W is
        prod_j (c_j^dag)^{n_j} |0> / sqrt(prod_j n_j!), formed as c_j^dag (the
        adjoint of its :func:`linear_form`, held until W is built) of the column
        of n - e_j (the space's ladder map) over sqrt(n_j), j the first
        occupied mode of n (no Jordan-Wigner sign), then one Newton-Schulz step
        W <- W (3 - W^dag W) / 2.  Refused: ||W^dag W - 1||_2 above
        ``MODE_BASIS_TOL``, and W^dag M W off diag(m_ref N + lambda) by more than
        ``CERTIFICATE_TOL``, relative as the certificate (M scattered for it alone)."""
        if not self.is_mixed:
            return None, 0.0
        space, eye = self.space, np.eye(self.space.dimension)
        occ, totals = space.occupation_array, space.total_occupation
        first = np.argmax(occ > 0, axis=1)
        w = eye.astype(complex)  # the vacuum's column; every other one is overwritten
        raising = [linear_form(space, row.conj()).conj().T for row in self.mixing_unitary]
        for total in range(1, space.total + 1):
            for j, c_dag in enumerate(raising):
                cols = np.flatnonzero((totals == total) & (first == j))
                block = c_dag @ w[:, space.ladders[j][1][0][cols]]  # the columns of n - e_j
                block.real /= np.sqrt(occ[cols, j])  # real divisions: sqrt(n) / sqrt(n) is exactly 1
                block.imag /= np.sqrt(occ[cols, j])
                w[:, cols] = block
        del raising
        w = w @ (3.0 * eye - w.conj().T @ w) / 2.0
        defect = float(np.linalg.norm(w.conj().T @ w - eye, 2))
        if not defect <= MODE_BASIS_TOL:
            raise InvariantViolation(f"mode basis W is not unitary: ||W^dag W - 1|| = {defect:.3e}")
        m_ref, split, half_width = self._spectrum
        scale = _mass_scale(self.masses, self.widths)
        off = w.conj().T @ (scatter_terms(space, self.m_terms) / scale) @ w - np.diag(
            (m_ref / scale) * totals + split / scale - 1j * (half_width / scale))
        if not float(np.max(np.abs(off))) <= CERTIFICATE_TOL:
            raise CertificateError(f"mode-basis certificate defect {np.max(np.abs(off)):.3e} (relative) "
                                   f"exceeds {CERTIFICATE_TOL}: W^dag M W is not diagonal")
        w.setflags(write=False)
        return w, defect

    @cached_property
    def _diagonal(self) -> Support:
        """The diagonal of the space, which the Grams of its channels are on."""
        d = self.space.dimension
        return Support(self.space, np.arange(d), np.arange(d))

    @cached_property
    def _spectrum(self) -> tuple[float, np.ndarray, np.ndarray]:
        """(m_ref, split, half_width): m_ref = min_j m_j, and per basis state n
        split_n = sum_j (m_j - m_ref) n_j and half_width_n = sum_j Gamma_j n_j / 2,
        so lambda_n = split_n - i half_width_n and sum_j mu_j n_j = m_ref N + lambda_n."""
        m_ref = min(self.masses)
        occ = self.space.occupation_array.astype(float)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow makes an amplitude non-finite
            return m_ref, occ @ (np.array(self.masses) - m_ref), occ @ (0.5 * np.array(self.widths))


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Kraus channel of ``model`` at time ``time``, as loss maps in the decay-mode basis.

    Its Kraus operators E_kappa = U prod_j (sqrt(w_j) c_j)^{k_j} / sqrt(k_j!),
    U = exp(-i M t) and w_j = 1 - exp(-Gamma_j t), over every loss pattern the
    space allows, sum to W D [Phi_1 o ... o Phi_r](W^dag X W) D^dag W^dag, W
    the model's ``mode_basis`` (none unmixed) and Phi_j the amplitude damping
    of a_j (Chuang, Leung & Yamamoto, PRA 56, 1114 (1997)).  D is U in
    that basis: exp(-i M_nn t) unmixed, and exp(-i (m_ref N_n + lambda_n) t)
    under mixing, with the sector phase and the splitting phase taken apart
    (see :attr:`DecayModel._spectrum`) and kept as the factors of
    :func:`_channels`, which the action reads; ``propagator`` = U = W D
    W^dag is formed from them on its first read, and sum E^dag
    E is ``evolve_observable_matrix(channel, eye)``.  Construction forms no
    d x d matrix of its own, and refuses a negative or NaN time, a non-finite
    amplitude, under mixing a nonzero one whose splitting phase rounds by
    more than ``PHASE_TOL`` (2^-53 Re lambda_n t), and a
    ``completeness_defect`` above ``COMPLETENESS_TOL``: with g the largest
    |Phi^dag(D^dag D) - 1| (a diagonal) and delta = ||W^dag W - 1||_2, (1 +
    delta)^2 (1 + g) - 1 bounds ||sum E^dag E - 1||_2.  A channel is the
    one-point case of the stacks :func:`evolve_state` evaluates.
    """

    model: DecayModel
    time: float
    weights: tuple[float, ...] = field(init=False, repr=False)
    completeness_defect: float = field(init=False, repr=False)
    _factors: tuple[np.ndarray, np.ndarray | None] = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.model, DecayModel):
            raise TypeError(f"a Kraus channel needs a DecayModel, got {type(self.model).__name__}")
        t = float(self.time)
        weights, defects, factors = _channels(self.model, [t])
        for name, value in (("time", t), ("weights", tuple(weights[0].tolist())),
                            ("completeness_defect", float(defects[0])), ("_factors", factors)):
            object.__setattr__(self, name, value)

    @cached_property
    def propagator(self) -> np.ndarray:
        """U = exp(-i M t) = W D W^dag, read-only, D's diagonal formed as :func:`_channels` forms it."""
        rest, sectors = self._factors
        amplitudes = rest[0] if sectors is None else sectors[0, self.model.space.total_occupation] * rest[0]
        u = _from_mode_basis(self.model, np.diag(amplitudes))
        u.setflags(write=False)
        return u


def _channels(model: DecayModel, times: Sequence[float]) -> tuple[np.ndarray, ...]:
    """The Kraus channels of ``model`` at each of ``times``, checked as :class:`KrausSet`
    describes: their (n, r) weights, (n,) completeness defects, read from the diagonals of
    the Grams Phi^dag(D^dag D), and the factors (rest, sectors) of their (n, d) amplitudes D,
    D_n = sectors[N_n] rest_n with sectors[k] = exp(-i m_ref k t) (unmixed D, None)."""
    times = [float(t) for t in times]
    weights = np.array([[_decay_weight(g, t) for g in model.widths] for t in times])  # refuses t < 0
    space, t = model.space, np.array(times)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is reported below
        if model.is_mixed:
            m_ref, split, half_width = model._spectrum
            sectors = np.exp(-1j * ((m_ref * np.arange(space.total + 1)) * t))
            rest = np.exp(-(half_width + 1j * split) * t)
            amplitudes = sectors[:, space.total_occupation] * rest
            rounding = 2.0**-53 * split * t
        else:  # M is its diagonal term, D_n = exp(-i M_nn t) rounds each phase once as the closed forms
            # do, and there is no W to turn a phase into interference: none is checked
            sectors = None
            amplitudes = rest = np.exp(-1j * model.m_terms[0][1] * t)
    _check_finite(amplitudes, "propagator exp(-i M t)", times)
    if model.is_mixed:
        coarse = np.argwhere((amplitudes != 0) & (rounding > PHASE_TOL))
        if coarse.size:
            i, n = coarse[0]
            raise InvariantViolation(f"the phase {split[n] * times[i]:.3e} of amplitude {space.occupation_of(n)} "
                                     f"at t = {times[i]!r} rounds by {rounding[i, n]:.3e}, more than {PHASE_TOL}")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is reported below
        grams = _loss_maps(np.abs(amplitudes) ** 2, model._diagonal, weights, adjoint=True)
    _check_finite(grams, "Kraus Gram", times)
    defects = (1.0 + model._rotation[1]) ** 2 * (1.0 + np.max(np.abs(grams - 1.0), axis=-1)) - 1.0
    bad = defects > COMPLETENESS_TOL
    if bad.any():
        raise InvariantViolation(f"Kraus completeness defect {defects[bad][0]:.3e}")
    return weights, defects, (rest, sectors)


def _to_mode_basis(model: DecayModel, x: np.ndarray) -> np.ndarray:
    """W^dag X W, or X itself for an unmixed model."""
    w = model.mode_basis
    return x if w is None else w.conj().T @ x @ w


def _from_mode_basis(model: DecayModel, y: np.ndarray) -> np.ndarray:
    """W Y W^dag on the last two axes, or Y itself for an unmixed model."""
    w = model.mode_basis
    return y if w is None else w @ y @ w.conj().T


def _check_finite(stack: np.ndarray, what: str, times: Sequence[float]) -> None:
    finite = np.isfinite(stack).reshape(len(stack), -1).all(axis=-1)
    if not finite.all():
        raise InvariantViolation(f"{what} is not finite at t = {times[int(np.argmin(finite))]!r}")


def _state_support(model: DecayModel, y0: np.ndarray) -> Support:
    """The exact nonzeros of y0 = W^dag rho0 W closed under (n, m) -> (n - e_j, m -
    e_j) for each mode j: the loss maps move an entry only so and D is diagonal,
    so each state of the grid is zero off them in the decay-mode basis."""
    down = np.array([np.where(amp != 0, lower, -1) for _, (lower, amp) in model.space.ladders])
    return Support(model.space, *closed_support(model.space.dimension, *np.nonzero(y0), down, down))


def _loss_maps(x: np.ndarray, support: Support, weights: np.ndarray, adjoint: bool) -> np.ndarray:
    """Phi_1 o ... o Phi_r of the space's a_j (Phi_r first), or the adjoint maps
    (Phi_1^dag first), on the values ``x`` of a matrix on ``support``, for each
    row of the (n, r) ``weights``: the new (n, K) values.  Each Phi_j is summed
    in Horner form Y <- X + (w/k) lower Y lower^dag, k = min(cutoff_j, total)
    ... 1, lower = a_j (a_j^dag adjoint): a gather by the mode's plan, times
    vals[row], times vals[col], as the dense product, so each value is
    bit-identical to it.  A mode is skipped where its weight is 0, so each
    matrix is the one a single point would give.
    """
    space, size = support.space, support.rows.size
    y = np.zeros((len(weights), size + 1), dtype=x.dtype)
    y[:, :size] = x
    modes = list(enumerate(min(m.cutoff, space.total) for m in space.modes))
    for j, cap in modes if adjoint else reversed(modes):
        live = np.flatnonzero(weights[:, j])
        if not (live.size and cap):
            continue
        src, vals = support.plans(adjoint)[j], space.ladders[j][adjoint][1]
        row_vals, col_vals = np.zeros(size + 1), np.zeros(size + 1)
        row_vals[:size], col_vals[:size] = vals[support.rows], vals[support.cols]
        w = weights[live, j][:, None]
        part = live.size < len(y)
        z = y[live] if part else y
        sub = z
        for k in range(cap, 0, -1):
            sub = np.take(sub, src, axis=1)  # faster than sub[:, src]; src is writeable, so not copied
            sub *= row_vals
            sub *= col_vals
            sub *= w / k
            sub += z
        if part:
            y[live] = sub
        else:
            y = sub
    return y[:, :size]


def _decay_weight(gamma: float, t: float) -> float:
    """1 - exp(-gamma t) for t >= 0, exact 1.0 once the exponent is numerically dead."""
    if not t >= 0:
        raise ValueError(f"time must be >= 0, got {t}")
    x = gamma * t
    if x <= 0.0:
        return 0.0
    if x > LARGE_EXPONENT:
        return 1.0
    return -math.expm1(-x)


def _decay_amplitude(mass: float, gamma: float, t: float) -> complex:
    """exp(-(i m + gamma/2) t) for t >= 0, with a clean underflow to exactly zero."""
    if not t >= 0:
        raise ValueError(f"time must be >= 0, got {t}")
    x = 0.5 * gamma * t
    if x > LARGE_EXPONENT:
        return 0.0j
    phase = mass * t
    if not math.isfinite(phase):
        raise InvariantViolation(f"phase m t = {mass!r} * {t!r} is not finite")
    return complex(math.cos(-phase), math.sin(-phase)) * math.exp(-x)


def _certificate_defect(model: DecayModel) -> float:
    """max_j |[M, c_j] + mu_j c_j| / s, exact for a unitary V.  Every a_l keeps S, so on S this is P c_j Q M P
    (P onto S, Q = 1 - P): a hop Omega_pm a_p^dag a_m (p != m, not two fermions) takes mode p past its cutoff,
    and a_p alone brings it back, so column q holds sum_p conj(V[j, p]) Omega_pm (cutoff_p + 1) amp_m[q] in
    row n_q - e_m.  Omega = V^T diag((mu - m_ref) / s) conj(V), m_ref = min_j m_j and s = max(1, max_j
    max(m_j - m_ref, Gamma_j / 2)), is formed from halves, which cannot overflow.  A V coupling a boson with
    a fermion is refused on two fermionic modes and a total of 2 or more: there the relation fails inside S."""
    space, occ, v = model.space, model.space.occupation_array, model._couplings
    fermion = np.array([mode.is_fermion for mode in space.modes])
    if fermion.sum() > 1 and space.total > 1 and (v[:, fermion].any(axis=1) & v[:, ~fermion].any(axis=1)).any():
        raise CertificateError("commutation certificate defect is not on the space's boundary: the mixing "
                               "couples a boson with a fermion among two fermionic modes or more")
    half, quarter = np.array(model.masses) / 2 - min(model.masses) / 2, np.array(model.widths) / 4
    scale = max(0.5, *half, *quarter)  # s / 2
    omega = model._on_ladders(np.diag(half / scale - 1j * (quarter / scale)))
    hops = omega * ~(np.eye(space.n_modes, dtype=bool) | np.outer(fermion, fermion))  # a fermion pair's keeps S
    defect = np.zeros((space.n_modes, space.n_modes, space.dimension), dtype=complex)  # [m, j, q]
    for p, m in np.argwhere(hops):
        amp, cutoff = space.ladders[m][1][1], space.modes[p].cutoff
        cols = np.flatnonzero((occ[:, p] == cutoff) & (amp != 0))  # the boundary: Omega is read there alone
        defect[m][:, cols] += np.outer(v[:, p].conj() * (hops[p, m] * (cutoff + 1)), amp[cols])
    return float(np.abs(defect).max())


def _mass_scale(masses: Sequence[float], widths: Sequence[float]) -> float:
    """s = max(1, max_j |mu_j|), |mu_j| taken as max(|m_j|, Gamma_j / 2), which cannot overflow."""
    return max(1.0, *(max(abs(m_j), 0.5 * g_j) for m_j, g_j in zip(masses, widths)))


build_decay_model = DecayModel
build_kraus = KrausSet


def apply_channel_matrix(kraus: KrausSet, matrix: np.ndarray) -> np.ndarray:
    """Linear action sum_k E_k X E_k^dag on a raw d x d matrix (see :func:`_channel_action`)."""
    return _raw_action(kraus, matrix)


def _raw_action(kraus: KrausSet, matrix: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """:func:`_channel_action` of one channel on a raw d x d matrix, on the full support."""
    matrix = OperatorMatrix(kraus.model.space, matrix).entries  # checks the shape
    full = Support(kraus.model.space, *np.indices((kraus.model.space.dimension,) * 2).reshape(2, -1))
    y = _channel_action(kraus._factors, np.array([kraus.weights]), full.values(_to_mode_basis(kraus.model, matrix)),
                        full, adjoint)
    return _from_mode_basis(kraus.model, full.scatter(y))[0]


def _channel_action(phases: tuple[np.ndarray, np.ndarray | None], weights: np.ndarray, y: np.ndarray,
                    support: Support, adjoint: bool = False) -> np.ndarray:
    """Per channel, the (n, K) values of D Phi_1 o ... o Phi_r(y) D^dag = W^dag (sum_k E_k
    X E_k^dag) W (adjoint: Phi_r^dag o ... o Phi_1^dag(D^dag y D)), y those of W^dag X W on
    ``support``; D_a conj(D_b) takes the ``phases`` of :func:`_channels`' sectors only where
    N_a != N_b, so a common mass leaves an entry within a sector as no mass does."""
    (rest, sectors), rows, cols = phases, support.rows, support.cols
    if not adjoint:
        y = _loss_maps(y, support, weights, adjoint=False)
    pair = rest[:, rows] * rest[:, cols].conj()  # formed where it is used, not held through the maps
    if sectors is not None:
        tot = support.space.total_occupation
        cross = np.flatnonzero(tot[rows] != tot[cols])
        pair[:, cross] *= sectors[:, tot[rows[cross]]] * sectors[:, tot[cols[cross]]].conj()
    if adjoint:
        return _loss_maps(y * pair.conj(), support, weights, adjoint=True)
    y *= pair
    return y


def _as_states(matrices: Iterable[np.ndarray], like: DensityOperator) -> list[DensityOperator]:
    """Checked state matrices as DensityOperators on ``like``'s space, with its tail weight."""
    return [DensityOperator(like.space, m, tail_weight=like.tail_weight, validate=False)
            for m in matrices]


def apply_channel(kraus: KrausSet, rho: DensityOperator) -> DensityOperator:
    """Evolve a state on the channel's space: the one-point grid of :func:`evolve_state` at its time."""
    return evolve_state(kraus.model, rho, [kraus.time])[0]


def evolve_state(
    model: DecayModel,
    rho0: DensityOperator,
    times: Sequence[float],
    read: Callable[[Support, Iterator[np.ndarray], DecayModel | None], Result] | None = None,
) -> list[DensityOperator] | Result:
    """The complete Kraus channel of each point of a time grid applied to rho0.

    The grid is evaluated as checked (n, K) stacks of the values of n = _stack_points(max(K, d))
    states y = W^dag rho W on rho0's :func:`_state_support`; a chunk that fails is
    evaluated again one point at a time, so the error is the earliest point's.  With
    ``read``, the result is ``read(support, stacks, basis)`` (see :func:`read_series`).
    Without, it is the list of states W y W^dag, each bit-identical to
    ``apply_channel_matrix(build_kraus(model, t), rho0.matrix)``.
    """
    times = [float(t) for t in times]
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("times must be sorted ascending")
    if rho0.space != model.space:
        raise ValueError("state and model live on different spaces")
    y0 = _to_mode_basis(model, rho0.matrix)
    support = _state_support(model, y0)
    stacks = _state_stacks(model, rho0, support, support.values(y0), times)
    if read is not None:
        return read(support, stacks, model if model.is_mixed else None)
    return _as_states((m for y in stacks for m in _from_mode_basis(model, support.scatter(y))), rho0)


def _state_stacks(model: DecayModel, rho0: DensityOperator, support: Support, y0: np.ndarray,
                  times: list[float]) -> Iterator[np.ndarray]:
    chunk = _stack_points(max(support.rows.size, model.space.dimension))
    for first in range(0, len(times), chunk):
        part = times[first:first + chunk]
        try:
            stack = _grid_stack(model, rho0, support, y0, part)
        except (InvariantViolation, ValueError):
            for t in part:
                _grid_stack(model, rho0, support, y0, [t])
            raise
        yield stack


def _grid_stack(model: DecayModel, rho0: DensityOperator, support: Support, y0: np.ndarray,
                times: list[float]) -> np.ndarray:
    """The (n, K) values of the states y the channels at ``times`` make of y0, their trace kept to
    1e-12, checked in the mode basis, which differs from checking W y W^dag by about 2 delta."""
    weights, _, phases = _channels(model, times)  # refuses t < 0
    out = _channel_action(phases, weights, y0, support)
    drift = np.abs(padded(out)[:, support.slots.diagonal()].sum(axis=1) - np.trace(rho0.matrix))
    if (drift > 1e-12).any():
        raise InvariantViolation(f"channel changed the trace by {drift[drift > 1e-12][0]:.3e}")
    check_densities(support, out)
    return out


def _propagation_coefficients(model: DecayModel, omega: np.ndarray) -> np.ndarray:
    """Shape check, then omega rotated onto the c_j^dag c_k: conj(V) omega V^T."""
    r = model.space.n_modes
    omega = np.asarray(omega, dtype=complex)
    if omega.shape != (r, r):
        raise ValueError(f"coefficient matrix must be {r}x{r}, got {omega.shape}")
    if model.is_mixed:
        return model.mixing_unitary.conj() @ omega @ model.mixing_unitary.T
    return omega


def _real(values: np.ndarray, scale: np.ndarray | float) -> np.ndarray:
    """The real part of a series of means whose imaginary residues are within 1e-12 of their scale."""
    residue = np.abs(values.imag)
    bad = ~(residue <= 1e-12 * np.asarray(scale))
    if bad.any():
        raise InvariantViolation(f"expectation has imaginary residue {np.max(residue[bad]):.3e}")
    return values.real


def read_series(
    support: Support,
    stacks: Iterable[np.ndarray],
    basis: DecayModel | None = None,
    *,
    omegas: Mapping[str, np.ndarray],
    diagonal: bool = False,
) -> tuple[dict[str, np.ndarray], np.ndarray | None]:
    """The series of a grid of (n, K) value stacks on ``support``, each dropped once read: the
    real mean of each Hermitian sum_lm omega_lm a_l^dag a_m, and with ``diagonal`` the diagonals.

    With ``basis`` None the values are rho's, and a mean is sum_lm omega_lm T_lm,
    T = :func:`one_body_correlations`.  With a model they are y = W^dag rho W,
    and a mean is sum_jk coeff_jk G_jk, G_jk = tr(y a_j^dag a_k) = tr(rho c_j^dag
    c_k), coeff = :func:`_propagation_coefficients`, and a diagonal the row sums
    of (W Y) o conj(W).  Each residue is within 1e-12 of max(1, sum |coeff o G|).
    A stack is read in slices whose (n, r, r, d) ladder-pair gather, or (n, d, d)
    scatter of a mixed diagonal, is one stack's width (see :func:`_by_rows`).
    """
    r, d = support.space.n_modes, support.space.dimension
    for omega in omegas.values():
        hermitian_scale(omega)
    coeffs = {name: _propagation_coefficients(basis, omega) if basis is not None else np.asarray(omega, complex)
              for name, omega in omegas.items()}
    series, diagonals = {name: np.empty(0) for name in omegas}, np.empty((0, d))
    for values in stacks:
        gram = _by_rows(partial(one_body_correlations, support), values, r * r * d) if coeffs else None
        for name, coeff in coeffs.items():
            terms = coeff * gram
            _extend(series[name], _real(terms.sum(axis=(1, 2)), np.maximum(1.0, np.abs(terms).sum(axis=(1, 2)))))
        if diagonal:
            w = None if basis is None else basis.mode_basis
            _extend(diagonals, (padded(values)[:, support.slots.diagonal()] if w is None else _by_rows(
                lambda part: np.sum((w @ support.scatter(part)) * w.conj(), axis=-1), values, d * d)).real)
    return series, diagonals if diagonal else None


def _extend(series: np.ndarray, rows: np.ndarray) -> None:
    """Append ``rows`` to the series in place, by a realloc, so that it is never held twice."""
    start = len(series)
    series.resize((start + len(rows), *series.shape[1:]), refcheck=False)
    series[start:] = rows


def expectation(rho: DensityOperator, obs: OperatorMatrix) -> float:
    """tr(rho * obs) for a Hermitian observable, its residue within 1e-12 of max(1, max |obs|)."""
    if rho.space != obs.space:
        raise ValueError("state and observable live on different spaces")
    return float(_real(np.einsum("ij,ji->", rho.matrix, obs.entries)[None], hermitian_scale(obs.entries))[0])


def occupation_distribution(rho: DensityOperator) -> dict[tuple[int, ...], float]:
    """Probabilities of each occupation tuple (the diagonal of the state)."""
    diag = np.diag(rho.matrix)
    if not float(np.max(np.abs(diag.imag))) <= 1e-12:
        raise InvariantViolation("occupation probabilities have imaginary parts")
    probs = diag.real
    total = float(probs.sum())
    if not abs(total - 1.0) <= 1e-12:
        raise InvariantViolation(f"occupation probabilities sum to {total}, not 1")
    return {occ: float(p) for occ, p in zip(rho.space.occupations, probs)}


def trace_distance(a, b) -> float:
    """(1/2) ||a - b||_1 between two states or raw matrices; two states must share a space."""
    if isinstance(a, DensityOperator) and isinstance(b, DensityOperator) and a.space != b.space:
        raise ValueError("the two states live on different spaces")
    ma = a.matrix if isinstance(a, DensityOperator) else np.asarray(a, dtype=complex)
    mb = b.matrix if isinstance(b, DensityOperator) else np.asarray(b, dtype=complex)
    if ma.ndim != 2 or ma.shape[0] != ma.shape[1] or ma.shape != mb.shape:
        raise ValueError(f"trace distance needs two square matrices of one shape, got {ma.shape} and {mb.shape}")
    delta = ma - mb
    delta = 0.5 * (delta + delta.conj().T)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(delta))))


def enforce_superselection(rho: DensityOperator) -> DensityOperator:
    """Drop coherences between different total-occupation sectors (a pinching)."""
    tot = rho.space.total_occupation
    mask = (tot[:, None] == tot[None, :]).astype(float)
    return DensityOperator(rho.space, rho.matrix * mask, tail_weight=rho.tail_weight)
