import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockdecay import (
    DensityOperator,
    FockSpace,
    InvariantViolation,
    ModeSpec,
    Statistics,
    TruncationError,
    build_annihilator,
    build_creation,
    build_number,
    build_total_number,
    coherent_state,
    number_state,
    poisson_mixture,
    vacuum_state,
)


def boson(cutoff=4, mass=0.0, width=1.0):
    return ModeSpec(Statistics.BOSON, mass=mass, width=width, cutoff=cutoff)


def fermion(mass=0.0, width=1.0):
    return ModeSpec(Statistics.FERMION, mass=mass, width=width)


# ---------------------------------------------------------------------------
# mode specs and spaces

def test_modespec_rejects_bad_values():
    with pytest.raises(ValueError):
        ModeSpec(width=-0.1)
    with pytest.raises(ValueError):
        ModeSpec(cutoff=-1)


def test_fermion_cutoff_forced_to_one():
    assert ModeSpec(Statistics.FERMION, cutoff=7).cutoff == 1
    assert ModeSpec(Statistics.FERMION, cutoff=0).cutoff == 1


def test_space_dimension_and_vacuum_first():
    space = FockSpace([boson(2), fermion()])
    assert space.dimension == 3 * 2
    assert space.occupations[0] == (0, 0)
    assert space.index_of((0, 0)) == 0
    # first mode slowest-varying
    assert space.occupations[1] == (0, 1)


@settings(max_examples=40, deadline=None)
@given(
    cutoffs=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=3),
)
def test_index_map_round_trips(cutoffs):
    space = FockSpace([boson(c) for c in cutoffs])
    assert space.dimension == int(np.prod([c + 1 for c in cutoffs]))
    for i in range(space.dimension):
        assert space.index_of(space.occupation_of(i)) == i


def test_index_of_rejects_out_of_range():
    space = FockSpace(boson(3))
    with pytest.raises(TruncationError):
        space.index_of((4,))


# ---------------------------------------------------------------------------
# ladder operators

def test_annihilator_single_boson_entries():
    a = build_annihilator(FockSpace(boson(2)), 1).entries
    assert a[0, 1] == pytest.approx(1.0)
    assert a[1, 2] == pytest.approx(math.sqrt(2))
    assert np.count_nonzero(a) == 2
    # vacuum column is annihilated
    assert np.all(a[:, 0] == 0)


def test_number_equals_adjoint_product():
    space = FockSpace(boson(3))
    a = build_annihilator(space, 1).entries
    n = build_number(space, 1).entries
    assert np.array_equal(np.diag(n).real, [0, 1, 2, 3])
    assert np.max(np.abs(a.conj().T @ a - n)) <= 1e-14


def test_total_number_eigenvalues_two_modes():
    space = FockSpace([boson(2), boson(2)])
    n_tot = build_total_number(space).entries
    for i, occ in enumerate(space.occupations):
        assert n_tot[i, i] == sum(occ)


def test_bosonic_ccr_below_cutoff():
    space = FockSpace(boson(5))
    a = build_annihilator(space, 1).entries
    comm = a @ a.conj().T - a.conj().T @ a
    # exact identity away from the top occupation level
    sub = np.arange(space.dimension - 1)
    assert np.max(np.abs(comm[np.ix_(sub, sub)] - np.eye(sub.size))) <= 1e-12


def test_fermionic_car_exact():
    space = FockSpace([fermion(), fermion()])
    a1 = build_annihilator(space, 1).entries
    a2 = build_annihilator(space, 2).entries
    eye = np.eye(4)

    def anti(x, y):
        return x @ y + y @ x

    assert np.max(np.abs(anti(a1, a2.conj().T))) == 0.0
    assert np.max(np.abs(anti(a1, a1.conj().T) - eye)) == 0.0
    assert np.max(np.abs(anti(a2, a2.conj().T) - eye)) == 0.0
    assert np.max(np.abs(anti(a1, a2))) == 0.0
    assert np.max(np.abs(a1 @ a1)) == 0.0


def test_boson_fermion_modes_commute():
    space = FockSpace([boson(2), fermion()])
    ab = build_annihilator(space, 1).entries
    af = build_annihilator(space, 2).entries
    assert np.max(np.abs(ab @ af - af @ ab)) == 0.0
    assert np.max(np.abs(ab @ af.conj().T - af.conj().T @ ab)) == 0.0


def test_mode_out_of_range():
    space = FockSpace(boson(2))
    for bad in (0, 2, -1):
        with pytest.raises(ValueError):
            build_annihilator(space, bad)
        with pytest.raises(ValueError):
            build_number(space, bad)


def test_creation_is_adjoint():
    space = FockSpace([boson(3), boson(2)])
    for mode in (1, 2):
        a = build_annihilator(space, mode).entries
        adag = build_creation(space, mode).entries
        assert np.array_equal(adag, a.conj().T)


# ---------------------------------------------------------------------------
# states

def test_number_state_vacuum():
    space = FockSpace([boson(2), boson(2)])
    rho = vacuum_state(space)
    assert rho.matrix[0, 0] == 1.0
    assert np.trace(rho.matrix) == pytest.approx(1.0)


def test_number_state_places_projector():
    space = FockSpace(boson(4))
    rho = number_state(space, (2,))
    idx = space.index_of((2,))
    expected = np.zeros((5, 5))
    expected[idx, idx] = 1.0
    assert np.array_equal(rho.matrix.real, expected)


def test_number_state_two_modes():
    space = FockSpace([boson(4), boson(4)])
    rho = number_state(space, (2, 1))
    i = space.index_of((2, 1))
    assert rho.matrix[i, i] == 1.0
    rho.check_invariants()


def test_number_state_rejects_overflow():
    space = FockSpace(boson(3))
    with pytest.raises(TruncationError):
        number_state(space, (4,))
    with pytest.raises(TruncationError):
        number_state(FockSpace(fermion()), (2,))


def test_coherent_alpha_zero_is_vacuum():
    space = FockSpace(boson(6))
    rho = coherent_state(space, 1, 0.0)
    assert np.max(np.abs(rho.matrix - vacuum_state(space).matrix)) == 0.0
    assert rho.tail_weight == 0.0


def test_coherent_alpha_one_probabilities():
    space = FockSpace(boson(12))
    rho = coherent_state(space, 1, 1.0)
    probs = np.diag(rho.matrix).real
    for k in range(13):
        assert probs[k] == pytest.approx(math.exp(-1.0) / math.factorial(k), abs=1e-9)
    n_tot = build_total_number(space).entries
    mean_n = float(np.real(np.trace(rho.matrix @ n_tot)))
    assert mean_n == pytest.approx(1.0, abs=1e-8)
    assert 0 <= rho.tail_weight < 1e-10


def test_coherent_errors():
    with pytest.raises(ValueError):
        coherent_state(FockSpace(fermion()), 1, 0.3)
    with pytest.raises(TruncationError):
        coherent_state(FockSpace(boson(3)), 1, 2.5)  # heavy tail past cutoff 3


def test_poisson_mixture_values():
    space = FockSpace(boson(12))
    rho = poisson_mixture(space, 1, 1.0)
    probs = np.diag(rho.matrix).real
    for k in range(13):
        assert probs[k] == pytest.approx(math.exp(-1.0) / math.factorial(k), abs=1e-9)
    assert np.max(np.abs(rho.matrix - np.diag(np.diag(rho.matrix)))) == 0.0


def test_poisson_mixture_nbar_zero_and_errors():
    space = FockSpace(boson(5))
    assert np.max(np.abs(poisson_mixture(space, 1, 0.0).matrix - vacuum_state(space).matrix)) == 0.0
    with pytest.raises(TruncationError):
        poisson_mixture(FockSpace(boson(2)), 1, 3.0)
    with pytest.raises(ValueError):
        poisson_mixture(space, 1, -0.5)


def test_states_beyond_the_float_factorial_range():
    # 171! overflows a float, and |alpha|^2 or nbar**k can overflow too.
    small, large = FockSpace(boson(30)), FockSpace(boson(200))
    for build, arg in ((coherent_state, 1.0), (poisson_mixture, 1.0)):
        head = np.diag(build(large, 1, arg).matrix)[:31]
        assert np.max(np.abs(head - np.diag(build(small, 1, arg).matrix))) <= 1e-15
    for build, arg in ((coherent_state, 1e200), (poisson_mixture, 1e308)):
        with pytest.raises(TruncationError):
            build(small, 1, arg)


def test_coherent_diagonal_matches_poisson_mixture():
    space = FockSpace(boson(12))
    coh = coherent_state(space, 1, 1.0)
    poi = poisson_mixture(space, 1, 1.0)
    assert np.max(np.abs(np.diag(coh.matrix) - np.diag(poi.matrix))) <= 1e-14


# ---------------------------------------------------------------------------
# density-operator invariants

def test_density_operator_validation():
    space = FockSpace(boson(1))
    with pytest.raises(InvariantViolation):
        DensityOperator(space, np.array([[0.5, 0.2], [0.1, 0.5]], dtype=complex))
    with pytest.raises(InvariantViolation):
        DensityOperator(space, 0.7 * np.eye(2, dtype=complex))
    with pytest.raises(InvariantViolation):
        DensityOperator(space, np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ValueError):
        DensityOperator(space, np.eye(3, dtype=complex))


def test_density_operator_is_read_only():
    rho = vacuum_state(FockSpace(boson(2)))
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 0.0
