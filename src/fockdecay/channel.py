"""Decay channels: Kraus channels, their application, and certificates.

Builds the completely positive trace-preserving map generated by a set of
decaying modes on the space the model is given.  Its Kraus operators are
indexed by how many quanta each decay mode loses, over every loss pattern
the space allows; the sum over them factorises by mode, so the channel is
applied as the propagator around one loss map per mode.  A
:class:`DecayModel` builds its decay operators from its space and mixing
unitary, so their Delta N structure and their relation to V hold by
construction.  Every model is exact on its whole space, and a model and a
:class:`KrausSet` check themselves when constructed: the commutation
certificate, which guards that the space is closed under the decay
operators, and the completeness of the channel are computed and enforced
over the whole space, so no object that fails them can be represented.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from .fock import (
    DensityOperator,
    FockSpace,
    InvariantViolation,
    OperatorMatrix,
    build_annihilator,
    check_densities,
)

CERTIFICATE_TOL = 1e-10
COMPLETENESS_TOL = 1e-10
MIXING_TOL = 1e-12

# exp(-x) underflows well before this; treat the decayed weight as exact
LARGE_EXPONENT = 700.0

# Bytes of one (n, d, d) complex stack: time grids and lists of states are
# evaluated _stack_points(d) points at a time.
STACK_BYTES = 128 * 1024

Result = TypeVar("Result")


def _stack_points(dim: int) -> int:
    """n = max(1, STACK_BYTES // (16 d^2)): the points of one (n, d, d) complex stack."""
    return max(1, STACK_BYTES // (16 * dim * dim))


class CertificateError(ValueError):
    """The decay operators do not shift the non-Hermitian generator as required."""


@dataclass(frozen=True, eq=False)
class DecayModel:
    """Decay operators and the non-Hermitian generator M of one dissipative
    evolution, built from its space and mixing unitary alone, exact on the
    whole space and certified when constructed.

    Mode j of the space carries the mass m_j and width Gamma_j of decay mode
    c_j = ``decay_ops[j]``, read back as ``masses`` and ``widths``.  Without
    ``mixing_unitary`` c_j = a_j, the annihilator of mode j.  With it, V must
    be an n x n matrix (n the number of modes) with max |V V^dag - 1| within
    ``MIXING_TOL`` (a ValueError otherwise), and c_j = sum_l conj(V[j, l]) a_l,
    summed over l in order, so c_j^dag = sum_l V[j, l] a_l^dag.  Each c_j thus
    lowers the total occupation by exactly one and M conserves the total, by
    construction.  Construction builds ``m_operator`` = M = sum_j mu_j
    c_j^dag c_j, with mu_j = m_j - i Gamma_j / 2, and refuses the model
    unless M is finite with a Hermitian mass part and the relative defect of
    [M, c_j] = -mu_j c_j, kept as ``certificate_defect``, is within
    ``CERTIFICATE_TOL``.  The certificate guards closure: it refuses a V
    under which the space is not closed, such as a mixed boson pair past its
    common cutoff or a boson mixed with a fermion.
    """

    space: FockSpace
    mixing_unitary: np.ndarray | None = None
    decay_ops: tuple[OperatorMatrix, ...] = field(init=False, repr=False)
    m_operator: OperatorMatrix = field(init=False, repr=False)
    certificate_defect: float = field(init=False, repr=False)

    def __post_init__(self):
        space = self.space
        ops = tuple(build_annihilator(space, l) for l in range(1, space.n_modes + 1))
        if self.mixing_unitary is not None:
            v = np.array(self.mixing_unitary, dtype=complex)
            if v.shape != (len(ops), len(ops)):
                raise ValueError(f"mixing_unitary must be {len(ops)}x{len(ops)}, got shape {v.shape}")
            unitarity = float(np.max(np.abs(v @ v.conj().T - np.eye(len(ops)))))
            if not unitarity <= MIXING_TOL:
                raise ValueError(f"mixing_unitary is not unitary: defect {unitarity:.3e} "
                                 f"exceeds {MIXING_TOL}")
            v.setflags(write=False)
            object.__setattr__(self, "mixing_unitary", v)
            # c_j = sum_l conj(V[j, l]) a_l, summed left to right
            ops = tuple(OperatorMatrix(space, reduce(np.add, (v_jl.conjugate() * a_l.entries
                                                              for v_jl, a_l in zip(row, ops))))
                        for row in v)
        dim = space.dimension
        ham = np.zeros((dim, dim), dtype=complex)
        kay = np.zeros((dim, dim), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
            for c, m_j, g_j in zip(ops, self.masses, self.widths):
                cdag_c = c.entries.conj().T @ c.entries
                ham += m_j * cdag_c
                kay += -0.5 * g_j * cdag_c
        if not (np.isfinite(ham).all() and np.isfinite(kay).all()):
            raise InvariantViolation("Hamiltonian or decay term is not finite; masses or widths "
                                     "overflow at this cutoff")
        herm = float(np.max(np.abs(ham - ham.conj().T)))
        if herm > 1e-12 * max(1.0, float(np.max(np.abs(ham)))):
            raise InvariantViolation(f"Hamiltonian not Hermitian: defect {herm:.3e}")
        m_matrix = ham + 1j * kay
        defect = _certificate_defect(m_matrix, [c.entries for c in ops], self.masses, self.widths)
        if defect > CERTIFICATE_TOL:
            raise CertificateError(
                f"commutation certificate defect {defect:.3e} (relative) exceeds "
                f"{CERTIFICATE_TOL}; the space is not closed under the decay operators"
            )
        object.__setattr__(self, "decay_ops", ops)
        object.__setattr__(self, "m_operator", OperatorMatrix(space, m_matrix))
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

    @cached_property
    def _gather_plans(self) -> tuple[tuple[tuple[np.ndarray, np.ndarray] | None, ...], ...]:
        """For each c_j, the :func:`_one_per_row` plans of c_j and of c_j^dag."""
        return tuple((_one_per_row(c.entries), _one_per_row(c.entries.conj().T)) for c in self.decay_ops)


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Kraus channel of ``model`` at evolution time ``time``, as nested loss maps.

    Its Kraus operators E_kappa = U prod_j (sqrt(w_j) c_j)^{k_j} / sqrt(k_j!),
    one per loss pattern kappa = (k_1, ..., k_r) with k_j at most the
    mode's cutoff (1 for a fermion) and sum k_j at most the space's total,
    are the complete series on the model's space: no other pattern acts
    there.  Here U = exp(-i M t) and w_j = 1 - exp(-Gamma_j t).  They sum to
    sum_kappa E_kappa X E_kappa^dag = U [Phi_1 o ... o Phi_r](X) U^dag, with
    Phi_j(X) = sum_k (w_j^k / k!) c_j^k X c_j^{dag k} the bosonic amplitude
    damping of mode j alone (Chuang, Leung & Yamamoto, PRA 56, 1114 (1997)).
    So a time point carries only ``propagator`` = U and ``weights`` = (w_j);
    :meth:`loss_maps` applies the Phi_j or their adjoints with the model's
    c_j, and a zero weight drops its mode (at t = 0 the channel is the
    identity).  Construction refuses a negative or NaN time, and a channel
    that is not finite or whose ``completeness_defect``, the spectral norm of
    ``gram`` - 1 over the whole space, exceeds ``COMPLETENESS_TOL``; ``gram``
    = sum_kappa E_kappa^dag E_kappa is the adjoint loss maps applied to U^dag U.
    A channel is the one-point case of the stacks :func:`evolve_state`
    evaluates on its grid, with the same checks.
    """

    model: DecayModel
    time: float
    propagator: np.ndarray = field(init=False, repr=False)
    weights: tuple[float, ...] = field(init=False, repr=False)
    gram: np.ndarray = field(init=False, repr=False)
    completeness_defect: float = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.model, DecayModel):
            raise TypeError(f"a Kraus channel needs a DecayModel, got {type(self.model).__name__}")
        t = float(self.time)
        propagators, weights, grams, defects = _channels(self.model, [t])
        for name, value in (("time", t), ("propagator", propagators[0]),
                            ("weights", tuple(weights[0].tolist())), ("gram", grams[0]),
                            ("completeness_defect", float(defects[0]))):
            object.__setattr__(self, name, value)
        self.propagator.setflags(write=False)
        self.gram.setflags(write=False)

    def loss_maps(self, matrix: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """[Phi_1 o ... o Phi_r](X), or with ``adjoint`` [Phi_r^dag o ... o Phi_1^dag](X)."""
        return _nested_loss_maps(matrix, self.model, np.array([self.weights]), adjoint)[0]


def _channels(
    model: DecayModel,
    times: Sequence[float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The Kraus channels of ``model`` at each of ``times``, checked as
    :class:`KrausSet` describes: their propagators U = exp(-i M t) (see
    :func:`_propagators`) and Grams as (n, d, d) stacks, their weights w_j as
    an (n, r) array and their completeness defects as an (n,) array.
    """
    times = [float(t) for t in times]
    weights = np.array([[_decay_weight(g, t) for g in model.widths] for t in times])  # refuses t < 0
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is reported below
        propagators = _propagators(model.m_operator.entries, times)
    _check_finite(propagators, "propagator exp(-i M t)", times)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is reported below
        grams = _nested_loss_maps(_adjoint(propagators) @ propagators, model, weights, adjoint=True)
    _check_finite(grams, "Kraus Gram", times)
    defects = np.linalg.norm(grams - np.eye(model.space.dimension), 2, axis=(-2, -1))
    bad = defects > COMPLETENESS_TOL
    if bad.any():
        raise InvariantViolation(f"Kraus completeness defect {defects[bad][0]:.3e}")
    return propagators, weights, grams, defects


# Degree-13 Pade coefficients b_0 ... b_13 and the largest 1-norm of A they
# take unscaled (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)).
PADE_13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
           129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
           40840800.0, 960960.0, 16380.0, 182.0, 1.0)
THETA_13 = 5.371920351148152


def _propagators(m: np.ndarray, times: Sequence[float]) -> np.ndarray:
    """exp(-i M t) for each of ``times``, as an (n, d, d) stack.

    A diagonal M takes exp of its diagonal.  Otherwise each point is the
    degree-13 Pade approximant r of A = -i M t / 2^s, squared s times, with
    s = max(0, ceil(log2(t ||M||_1 / THETA_13))) (Higham, SIAM J. Matrix
    Anal. Appl. 26, 1179 (2005)).  A = -i x B, where B = M / 2^e is M
    scaled exactly into ||B||_1 < 1 and x = t 2^(e - s), so B^2, B^4 and B^6
    are formed once for all points and A^2, A^4 and A^6 are scalar multiples
    of them; each point then costs Higham's three products for the Pade
    polynomials U and V, one solve and its squarings.  The approximant is
    taken as r = I + 2 (V - U)^-1 U, whose rounding the squarings amplify
    less than that of (V - U)^-1 (V + U).  The squarings run on the points,
    in order of s, that still need one.  Every step acts on each point
    alone, so each matrix is the one a single time would give.
    A point where t ||M||_1 is not finite (or M is not) is all NaN.
    """
    t = np.asarray(times, dtype=float)
    d = len(m)
    if not m[~np.eye(d, dtype=bool)].any():
        out = np.zeros((len(t), d, d), dtype=complex)
        out[:, range(d), range(d)] = np.exp(-1j * np.diagonal(m) * t[:, None])
        return out
    norm = float(np.abs(m).sum(axis=0).max())
    if not math.isfinite(norm):
        return np.full((len(t), d, d), np.nan, dtype=complex)
    e = math.frexp(norm)[1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s = np.maximum(0.0, np.ceil(np.log2(t * norm / THETA_13)))
    bad = ~np.isfinite(s)
    s = np.where(bad, 0, s).astype(int)
    x = np.where(bad, 0.0, np.ldexp(t, e - s))[:, None, None]
    b = np.ldexp(np.ascontiguousarray(m, dtype=complex).view(float), -e).view(complex)
    b2 = b @ b
    b4 = b2 @ b2
    b6 = b2 @ b4
    a, a2, a4, a6 = -1j * x * b, -x**2 * b2, x**4 * b4, -x**6 * b6
    c = PADE_13
    eye = np.eye(d)
    u = a @ (a6 @ (c[13] * a6 + c[11] * a4 + c[9] * a2) + c[7] * a6 + c[5] * a4 + c[3] * a2 + c[1] * eye)
    v = a6 @ (c[12] * a6 + c[10] * a4 + c[8] * a2) + c[6] * a6 + c[4] * a4 + c[2] * a2 + c[0] * eye
    r = eye + 2 * np.linalg.solve(v - u, u)
    order = np.argsort(s, kind="stable")
    r, s = r[order], s[order]
    for i in range(1, int(s.max(initial=0)) + 1):
        k = int(np.searchsorted(s, i))
        r[k:] = r[k:] @ r[k:]
    out = np.empty_like(r)
    out[order] = r
    out[bad] = np.nan
    return out


def _adjoint(stack: np.ndarray) -> np.ndarray:
    return stack.conj().swapaxes(-1, -2)


def _check_finite(stack: np.ndarray, what: str, times: Sequence[float]) -> None:
    finite = np.isfinite(stack).all(axis=(-2, -1))
    if not finite.all():
        raise InvariantViolation(f"{what} is not finite at t = {times[int(np.argmin(finite))]!r}")


def _nested_loss_maps(
    x: np.ndarray,
    model: DecayModel,
    weights: np.ndarray,
    adjoint: bool,
) -> np.ndarray:
    """Phi_1 o ... o Phi_r on x (Phi_r first), or the adjoint maps (Phi_1^dag first),
    once for each row of the (n, r) ``weights``: an (n, d, d) stack.

    ``x`` is one matrix or an (n, d, d) stack.  Each Phi_j is summed in
    Horner form Y <- X + (w/k) c Y c^dag for k = cap_j ... 1, with cap_j =
    min(cutoff_j, the space's total): no higher power of c_j acts on the
    space.  When the operator on the left (c_j, or c_j^dag for the adjoint
    maps) has at most one nonzero per row, as an unmixed c_j does, its two
    products are a gather and a scale, O(n d^2) in place of O(n d^3).  The
    matmuls' other terms are exact zeros, so with real nonzeros (the
    annihilators and their Jordan-Wigner signs) the two are bit-equal.  A
    mixed c_j, with two nonzeros per row, keeps the matmuls; at theta = 0 it
    has one, with the phase of V, and its gather equals them within rounding.
    A mode is skipped at the points where its weight is 0, so each matrix of
    the stack is the one a single point would give.  The result is a new
    array, also when no mode decays.
    """
    space = model.space
    y = np.array(np.broadcast_to(x, (len(weights), space.dimension, space.dimension)))
    modes = list(enumerate(zip(model.decay_ops, (min(m.cutoff, space.total) for m in space.modes))))
    for j, (c, cap) in modes if adjoint else reversed(modes):
        live = np.flatnonzero(weights[:, j])
        if not (live.size and cap):
            continue
        # Phi_j(X) = sum_k (w^k / k!) lower^k X upper^k
        lower, upper = (c.entries.conj().T, c.entries) if adjoint else (c.entries, c.entries.conj().T)
        plan = model._gather_plans[j][adjoint]
        w = weights[live, j, None, None]  # kept real: a complex w rounds differently
        part = live.size < len(y)
        z = y[live] if part else y
        sub = z
        for k in range(cap, 0, -1):
            sub = lower @ sub @ upper if plan is None else _gather_sandwich(sub, *plan)
            sub *= w / k
            sub += z
        if part:
            y[live] = sub
        else:
            y = sub
    return y


def _one_per_row(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(cols, vals) with matrix[a, cols[a]] = vals[a] the only nonzero of row a
    (vals[a] = 0 on an empty row), or None when some row has two nonzeros."""
    nonzero = matrix != 0
    if (nonzero.sum(axis=1) > 1).any():
        return None
    cols = np.argmax(nonzero, axis=1)
    return cols, matrix[np.arange(len(matrix)), cols]


def _gather_sandwich(y: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """lower @ y @ lower^dag for the lower of plan (cols, vals), on the last two axes."""
    out = np.take(y, cols, axis=-2)
    out *= vals[:, None]
    out = np.take(out, cols, axis=-1)
    out *= vals.conj()
    return out


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


def _certificate_defect(
    m_matrix: np.ndarray,
    decay_ops: Sequence[np.ndarray],
    masses: Sequence[float],
    widths: Sequence[float],
) -> float:
    """Max deviation of [M, c_j] from -mu_j c_j over the whole space, with
    mu_j = m_j - i Gamma_j / 2, relative to s = max(1, max_j |mu_j|).

    The commutator is formed on M / s and mu_j / s, whose entries are of
    order one, so a finite M never overflows it, and its rounding is
    rounding-sized at any finite scale.  |mu_j| is taken as the larger of
    |m_j| and Gamma_j / 2, which unlike the modulus cannot overflow.
    """
    scale = max(1.0, *(max(abs(m_j), 0.5 * g_j) for m_j, g_j in zip(masses, widths)))
    m_scaled = m_matrix / scale
    worst = 0.0
    for c, m_j, g_j in zip(decay_ops, masses, widths):
        defect = m_scaled @ c - c @ m_scaled + complex(m_j / scale, -0.5 * g_j / scale) * c
        worst = max(worst, float(np.max(np.abs(defect))))
    return worst


def build_decay_model(space: FockSpace) -> DecayModel:
    """Unmixed model: every mode decays independently at its own width."""
    return DecayModel(space)


def build_kraus(model: DecayModel, t: float) -> KrausSet:
    """The complete Kraus channel of ``model`` at time t (see :class:`KrausSet`)."""
    return KrausSet(model, t)


def apply_channel_matrix(kraus: KrausSet, matrix: np.ndarray) -> np.ndarray:
    """Linear action sum_k E_k X E_k^dag on a raw d x d matrix.

    Computed as U [Phi_1 o ... o Phi_r](X) U^dag: the loss maps of the
    modes, last mode first, then the propagator.
    """
    matrix = OperatorMatrix(kraus.model.space, matrix).entries  # checks the shape
    return _channel_action(kraus.model, kraus.propagator[None], np.array([kraus.weights]), matrix)[0]


def _channel_action(model: DecayModel, propagators: np.ndarray, weights: np.ndarray,
                    matrix: np.ndarray) -> np.ndarray:
    """U [Phi_1 o ... o Phi_r](X) U^dag for each channel of the stack."""
    return propagators @ _nested_loss_maps(matrix, model, weights, adjoint=False) @ _adjoint(propagators)


def _channel_stack(model: DecayModel, propagators: np.ndarray, weights: np.ndarray,
                   rho: DensityOperator) -> np.ndarray:
    """The (n, d, d) stack of states the channels of the stack make of rho, with
    the trace kept to 1e-12 and each validated as a density operator."""
    out = _channel_action(model, propagators, weights, rho.matrix)
    drift = np.abs(np.trace(out, axis1=-2, axis2=-1) - np.trace(rho.matrix))
    if (drift > 1e-12).any():
        raise InvariantViolation(f"channel changed the trace by {drift[drift > 1e-12][0]:.3e}")
    check_densities(out)
    return out


def _as_states(matrices: Iterable[np.ndarray], like: DensityOperator) -> list[DensityOperator]:
    """Checked state matrices as DensityOperators on ``like``'s space, with its tail weight."""
    return [DensityOperator(like.space, m, tail_weight=like.tail_weight, validate=False)
            for m in matrices]


def apply_channel(kraus: KrausSet, rho: DensityOperator) -> DensityOperator:
    """Evolve a state on the channel's space; trace is preserved to 1e-12.

    The result is validated as a density operator.
    """
    if rho.space != kraus.model.space:
        raise ValueError("state and Kraus channel live on different spaces")
    return _as_states(_channel_stack(kraus.model, kraus.propagator[None], np.array([kraus.weights]), rho),
                      rho)[0]


def evolve_state(
    model: DecayModel,
    rho0: DensityOperator,
    times: Sequence[float],
    read: Callable[[Iterator[np.ndarray]], Result] | None = None,
) -> list[DensityOperator] | Result:
    """Channel evolution sampled on a time grid: the complete Kraus channel of
    each point, on the model's space, applied to rho0.

    The grid is evaluated n = _stack_points(d) points at a time, as checked
    (n, d, d) stacks of states, so the memory is O(n d^2); each state is
    bit-identical to ``apply_channel(build_kraus(model, t), rho0)``.  A stack
    runs each check on all its points in turn, so a chunk that fails is
    evaluated again one point at a time: the error is the earliest point's,
    as the points would raise one after another.  With ``read``, the result
    is ``read(stacks)``, the stacks handed over in grid order and made one
    at a time as ``read`` iterates (see :func:`read_series`).  Without, it
    is a thin wrapper: the list of one DensityOperator per grid point.
    """
    times = [float(t) for t in times]
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("times must be sorted ascending")
    if rho0.space != model.space:
        raise ValueError("state and model live on different spaces")
    stacks = _state_stacks(model, rho0, times)
    return _as_states((m for stack in stacks for m in stack), rho0) if read is None else read(stacks)


def _state_stacks(model: DecayModel, rho0: DensityOperator, times: list[float]) -> Iterator[np.ndarray]:
    chunk = _stack_points(model.space.dimension)
    for start in range(0, len(times), chunk):
        part = times[start:start + chunk]
        try:
            stack = _grid_stack(model, rho0, part)
        except (InvariantViolation, ValueError):
            for t in part:
                _grid_stack(model, rho0, [t])
            raise
        yield stack


def _grid_stack(model: DecayModel, rho0: DensityOperator, times: list[float]) -> np.ndarray:
    propagators, weights, _, _ = _channels(model, times)  # refuses t < 0
    return _channel_stack(model, propagators, weights, rho0)


def read_series(
    stacks: Iterable[np.ndarray],
    observables: Mapping[str, OperatorMatrix],
    diagonal: bool = False,
) -> tuple[dict[str, np.ndarray], np.ndarray | None]:
    """The series of a grid of states handed over as (n, d, d) stacks, each
    dropped once read: tr(rho * obs) of each Hermitian observable, as a real
    array under its name, and with ``diagonal`` the (T, d) real diagonals
    (None without).

    Each observable is checked once, with one ``einsum`` per observable per
    stack; the tiny imaginary residue left by floating point is checked over
    the whole series and discarded.
    """
    scales = {name: obs.check_hermitian() for name, obs in observables.items()}
    parts: dict[str, list[np.ndarray]] = {name: [] for name in observables}
    diagonals = []
    for stack in stacks:
        for name, obs in observables.items():
            parts[name].append(np.einsum("nij,ji->n", stack, obs.entries))
        if diagonal:
            diagonals.append(np.real(stack.diagonal(axis1=-2, axis2=-1)).copy())
    values = {}
    for name, scale in scales.items():
        series = np.concatenate(parts[name]) if parts[name] else np.empty(0, dtype=complex)
        residue = float(np.max(np.abs(series.imag), initial=0.0))
        if residue > 1e-12 * scale:
            raise InvariantViolation(f"expectation has imaginary residue {residue:.3e}")
        values[name] = series.real
    if not diagonal:
        return values, None
    return values, np.concatenate(diagonals) if diagonals else np.empty((0, 0))


def expectations(states: Sequence[DensityOperator], obs: OperatorMatrix) -> np.ndarray:
    """tr(rho * obs) for each state, for a Hermitian observable: a thin wrapper
    that reads the states in (n, d, d) stacks of n = _stack_points(d) with
    :func:`read_series`."""
    if any(rho.space != obs.space for rho in states):
        raise ValueError("state and observable live on different spaces")
    block = _stack_points(obs.space.dimension)
    stacks = (np.array([rho.matrix for rho in states[i:i + block]]) for i in range(0, len(states), block))
    return read_series(stacks, {"obs": obs})[0]["obs"]


def expectation(rho: DensityOperator, obs: OperatorMatrix) -> float:
    """tr(rho * obs) for a Hermitian observable: :func:`expectations` of one state."""
    return float(expectations([rho], obs)[0])


def occupation_distribution(rho: DensityOperator) -> dict[tuple[int, ...], float]:
    """Probabilities of each occupation tuple (the diagonal of the state)."""
    diag = np.diag(rho.matrix)
    if float(np.max(np.abs(diag.imag))) > 1e-12:
        raise InvariantViolation("occupation probabilities have imaginary parts")
    probs = diag.real
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-12:
        raise InvariantViolation(f"occupation probabilities sum to {total}, not 1")
    return {occ: float(p) for occ, p in zip(rho.space.occupations, probs)}


def trace_distance(a, b) -> float:
    """(1/2) ||a - b||_1 between two states or raw matrices."""
    ma = a.matrix if isinstance(a, DensityOperator) else np.asarray(a, dtype=complex)
    mb = b.matrix if isinstance(b, DensityOperator) else np.asarray(b, dtype=complex)
    delta = ma - mb
    delta = 0.5 * (delta + delta.conj().T)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(delta))))


def enforce_superselection(rho: DensityOperator) -> DensityOperator:
    """Drop coherences between different total-occupation sectors (a pinching)."""
    tot = rho.space.total_occupation
    mask = (tot[:, None] == tot[None, :]).astype(float)
    return DensityOperator(rho.space, rho.matrix * mask, tail_weight=rho.tail_weight)
