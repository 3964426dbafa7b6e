import math

import numpy as np
import pytest
import scipy.linalg

from fockdecay import DensityOperator, FockSpace, OperatorMatrix


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


def kraus_reference(model, t, patterns):
    """Each Kraus operator rebuilt from the identity: U(t) prod_j (sqrt(w_j) c_j)^{k_j} / sqrt(k_j!)."""
    prop = scipy.linalg.expm(-1j * model.m_operator.entries * t)
    weights = [-math.expm1(-g * t) for g in model.widths]
    out = []
    for kappa in patterns:
        coeff2 = math.prod(w**k / math.factorial(k) for k, w in zip(kappa, weights))
        mono = np.eye(model.space.dimension, dtype=complex)
        for k_j, c in zip(kappa, model.decay_ops):
            for _ in range(k_j):
                mono = mono @ c.entries
        out.append(math.sqrt(coeff2) * (prop @ mono))
    return out


def random_hermitian(rng, space: FockSpace, scale=1.0) -> OperatorMatrix:
    raw = rng.standard_normal((space.dimension,) * 2) + 1j * rng.standard_normal((space.dimension,) * 2)
    return OperatorMatrix(space, scale * 0.5 * (raw + raw.conj().T))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
