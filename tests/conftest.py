import math
import sys

import numpy as np
import pytest
import scipy.linalg

import fockdecay.fock as fock
from fockdecay import DensityOperator, FockSpace, OperatorMatrix
from fockdecay.fock import linear_form, scatter_terms


def random_density_matrix(rng, space: FockSpace, max_total=None, n_pure=4) -> DensityOperator:
    """Mixture of Haar-random pure states, optionally capped in total occupation."""
    if max_total is None:
        allowed = np.arange(space.dimension)
    else:
        allowed = np.flatnonzero(space.total_occupation <= max_total)
    mat = np.zeros((space.dimension, space.dimension), dtype=complex)
    weights = rng.random(n_pure)
    weights /= weights.sum()
    for w in weights:
        vec = np.zeros(space.dimension, dtype=complex)
        amp = rng.standard_normal(allowed.size) + 1j * rng.standard_normal(allowed.size)
        vec[allowed] = amp / np.linalg.norm(amp)
        mat += w * np.outer(vec, vec.conj())
    return DensityOperator(space, mat)


def support_total_bound(rho: DensityOperator, tol=1e-14) -> int:
    """Largest total occupation of a basis state whose row or column in rho has an entry above tol."""
    mag = np.maximum(np.max(np.abs(rho.matrix), axis=0), np.max(np.abs(rho.matrix), axis=1))
    live = np.flatnonzero(mag > tol)
    return int(rho.space.total_occupation[live].max()) if live.size else 0


def stack_width(run) -> int:
    """max(K, d), the width of the (n, width) stacks of the route ``run(read)``, K its support's values."""
    support = run(lambda support, stacks, basis: support)
    return max(support.rows.size, support.space.dimension)


def loss_patterns(space: FockSpace) -> list[tuple[int, ...]]:
    """The loss patterns of a Kraus channel on ``space``: its occupation tuples, grouped by total."""
    return sorted(space.occupations, key=sum)


def dense_m(model) -> np.ndarray:
    """The model's M as a d x d matrix, the scatter of its ``m_terms``."""
    return scatter_terms(model.space, model.m_terms)


def dense_decay_ops(model) -> list[np.ndarray]:
    """The model's c_j as d x d matrices, each the linear form of its row of conj(V)."""
    return [linear_form(model.space, row.conj()) for row in model._couplings]


def dense_jumps(model) -> list[np.ndarray]:
    """L_j = sqrt(Gamma_j) c_j, dense."""
    return [math.sqrt(g_j) * c for g_j, c in zip(model.widths, dense_decay_ops(model))]


def dense_generator(model):
    """rho -> W rho + rho W^dag + sum_j L_j rho L_j^dag on d x d matrices, W = -iM: the dense
    reference of the generator that ``fockdecay.master.integrate`` reads as terms."""
    w, jumps = -1j * dense_m(model), dense_jumps(model)

    def apply(rho: np.ndarray) -> np.ndarray:
        if rho.shape != w.shape:
            raise ValueError(f"matrix shape {rho.shape} does not match {w.shape}")
        out = w @ rho + rho @ w.conj().T
        for L in jumps:
            out += L @ rho @ L.conj().T
        return out

    return apply


def kraus_reference(model, t, patterns):
    """Each Kraus operator rebuilt from the identity: U(t) prod_j (sqrt(w_j) c_j)^{k_j} / sqrt(k_j!)."""
    prop = scipy.linalg.expm(-1j * dense_m(model) * t)
    weights, ops = [-math.expm1(-g * t) for g in model.widths], dense_decay_ops(model)
    out = []
    for kappa in patterns:
        coeff2 = math.prod(w**k / math.factorial(k) for k, w in zip(kappa, weights))
        mono = np.eye(model.space.dimension, dtype=complex)
        for k_j, c in zip(kappa, ops):
            for _ in range(k_j):
                mono = mono @ c
        out.append(math.sqrt(coeff2) * (prop @ mono))
    return out


def random_hermitian(rng, space: FockSpace, scale=1.0) -> OperatorMatrix:
    raw = rng.standard_normal((space.dimension,) * 2) + 1j * rng.standard_normal((space.dimension,) * 2)
    return OperatorMatrix(space, scale * 0.5 * (raw + raw.conj().T))


@pytest.fixture
def scatter_calls(monkeypatch):
    """Every call of ``fock.scatter_terms``, each as its number of terms, wherever the library looks it up
    (``fock`` itself, ``channel`` and any other module that imports it): the library forms a dense matrix
    from terms only there."""
    calls, scatter = [], fock.scatter_terms

    def counted(space, terms):
        calls.append(len(terms))
        return scatter(space, terms)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "fockdecay" and getattr(module, "scatter_terms", None) is scatter:
            monkeypatch.setattr(module, "scatter_terms", counted)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
