import numpy as np
import pytest

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


def random_hermitian(rng, space: FockSpace, scale=1.0) -> OperatorMatrix:
    raw = rng.standard_normal((space.dimension,) * 2) + 1j * rng.standard_normal((space.dimension,) * 2)
    return OperatorMatrix(space, scale * 0.5 * (raw + raw.conj().T))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
