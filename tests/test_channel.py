import math
import re
import tracemalloc
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import kraus_reference, loss_patterns, random_density_matrix, support_total_bound

from fockdecay import (
    CertificateError,
    DecayModel,
    KrausSet,
    FockSpace,
    ModeSpec,
    OperatorMatrix,
    Statistics,
    apply_channel,
    apply_channel_matrix,
    build_annihilator,
    build_decay_model,
    build_kraus,
    build_total_number,
    build_flavour_observables,
    build_mixed_model,
    enforce_superselection,
    evolve_observable_matrix,
    evolve_state,
    expectation,
    number_state,
    coherent_state,
    occupation_distribution,
    poisson_mixture,
    trace_distance,
    vacuum_state,
    DensityOperator,
    InvariantViolation,
    MixingParams,
    mixing_matrix,
)
import fockdecay.channel as channel
from fockdecay.channel import LARGE_EXPONENT
from fockdecay.fock import quadratic_form
from fockdecay.flavour import quadratic_omegas

LN2 = math.log(2.0)


def single_mode_space(cutoff=6, mass=0.0, width=1.0):
    return FockSpace(ModeSpec(mass=mass, width=width, cutoff=cutoff))


def decayed_unit(n, npr, m, gamma, t, dim):
    """Channel action on |n><n'| assembled from the closed-form coefficients."""
    w = -math.expm1(-gamma * t)
    out = np.zeros((dim, dim), dtype=complex)
    for k in range(min(n, npr) + 1):
        coeff = (
            math.sqrt(math.comb(n, k) * math.comb(npr, k))
            * np.exp(-1j * m * (n - npr) * t)
            * math.exp(-0.5 * gamma * (n + npr - 2 * k) * t)
            * w**k
        )
        out[n - k, npr - k] += coeff
    return out


# ---------------------------------------------------------------------------
# model assembly

def test_model_operator_relations():
    space = FockSpace([ModeSpec(mass=0.4, width=0.8, cutoff=3),
                       ModeSpec(mass=1.1, width=1.6, cutoff=2)])
    model = build_decay_model(space)
    assert model.masses == (0.4, 1.1) and model.widths == (0.8, 1.6)
    ham = sum(m * c.entries.conj().T @ c.entries for m, c in zip(model.masses, model.decay_ops))
    kay = sum(-0.5 * g * c.entries.conj().T @ c.entries for g, c in zip(model.widths, model.decay_ops))
    assert np.max(np.abs(model.m_operator.entries - (ham + 1j * kay))) <= 1e-12
    assert model.certificate_defect <= 1e-12


def test_certificate_is_relative_to_the_largest_complex_mass():
    # rounding in [M, c_j] grows with the mass scale; the relative defect does not
    params = MixingParams(theta=0.7, phi=0.3)
    for masses in ((1e6, 1e6 + 5.0), (1e200, 5.0)):
        space = FockSpace([ModeSpec(mass=m, width=g, cutoff=4)
                           for m, g in zip(masses, (0.5, 1.5))], total=4)
        model = build_mixed_model(space, params)
        assert model.certificate_defect <= 1e-12


def test_certificate_catches_a_wrong_relation_at_large_scale():
    # past the common cutoff the rotated c_j leave the space, so [M, c_j] != -mu_j c_j
    v = mixing_matrix(MixingParams(theta=0.7))
    for masses in ((0.0, 5.0), (1e6, 2e6)):
        space = FockSpace([ModeSpec(mass=m, width=g, cutoff=3) for m, g in zip(masses, (0.5, 1.5))])
        with pytest.raises(CertificateError, match="certificate defect"):
            DecayModel(space, v)


def test_certificate_refuses_a_boson_mixed_with_a_fermion():
    space = FockSpace([ModeSpec(width=0.5, cutoff=1), ModeSpec(Statistics.FERMION, mass=2.0, width=1.5)])
    with pytest.raises(CertificateError, match="certificate defect"):
        DecayModel(space, mixing_matrix(MixingParams(theta=0.7)))


def _dense_certificate(space, v):
    """max_j |[M, c_j] + mu_j c_j| / s from dense matmuls: M = sum_lm Omega_lm a_l^dag a_m,
    Omega = V^T diag(mu) conj(V), and c_j = sum_l conj(V[j, l]) a_l."""
    masses = np.array([m.mass for m in space.modes])
    mus = masses - 0.5j * np.array([m.width for m in space.modes])
    scale = max(1.0, *(max(abs(m.mass), 0.5 * m.width) for m in space.modes))
    a = [build_annihilator(space, l).entries for l in range(1, space.n_modes + 1)]
    omega = v.T @ np.diag(mus) @ v.conj()
    m_mat = sum(omega[l, m] * (a[l].conj().T @ a[m]) for l in range(len(a)) for m in range(len(a)))
    c = [sum(v[j, l].conjugate() * a[l] for l in range(len(a))) for j in range(len(a))]
    return max(float(np.max(np.abs((m_mat / scale) @ c_j - c_j @ (m_mat / scale) + mu / scale * c_j)))
               for c_j, mu in zip(c, mus))


def _certificate_cases():
    rng = np.random.default_rng(5)
    v3, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    pair = mixing_matrix(MixingParams(theta=0.7, phi=0.3, psi=1.1))
    fermions = [ModeSpec(Statistics.FERMION, width=0.5), ModeSpec(Statistics.FERMION, mass=2.0, width=1.5)]
    return {
        "unmixed three": (FockSpace([ModeSpec(mass=0.4, width=0.8, cutoff=3),
                                     ModeSpec(Statistics.FERMION, mass=1.1, width=1.6),
                                     ModeSpec(mass=2.5, width=0.2, cutoff=2)]), None),
        "mixed bosons": (FockSpace([ModeSpec(mass=1e6, width=0.5, cutoff=4),
                                    ModeSpec(mass=1e6 + 5, width=1.5, cutoff=4)], total=4), pair),
        "mixed fermions": (FockSpace(fermions), pair),
        "three mixed": (FockSpace([ModeSpec(mass=0.3 * j, width=0.5 + j, cutoff=3) for j in range(3)],
                                  total=3), v3),
        "22 fermions, one excitation": (FockSpace([ModeSpec(Statistics.FERMION, mass=0.5 * (j % 3),
                                                            width=0.5 * (1 + j % 3)) for j in range(22)],
                                                  total=1), None),
    }


@pytest.mark.parametrize("case", list(_certificate_cases()))
def test_gathered_certificate_matches_the_dense_commutators(case):
    space, v = _certificate_cases()[case]
    model = DecayModel(space, v)
    want = _dense_certificate(space, np.eye(space.n_modes) if v is None else v)
    assert want <= 1e-12
    assert abs(model.certificate_defect - want) <= 1e-15


@pytest.mark.parametrize("modes, want", [
    # a mixed boson pair at cutoff 3 with no total: the rotated c_j leave the space
    ([ModeSpec(width=0.5, cutoff=3), ModeSpec(mass=5.0, width=1.5, cutoff=3)], 2.107),
    ([ModeSpec(width=0.5, cutoff=1), ModeSpec(Statistics.FERMION, mass=2.0, width=1.5)], 0.624),
], ids=["bosons past the common cutoff", "boson with fermion"])
def test_gathered_certificate_refuses_with_the_dense_defect(modes, want):
    space, v = FockSpace(modes), mixing_matrix(MixingParams(theta=0.7))
    dense = _dense_certificate(space, v)
    assert round(dense, 3) == want
    with pytest.raises(CertificateError, match=re.escape(f"defect {dense:.3e} ")):
        DecayModel(space, v)


@pytest.mark.parametrize("case", ["mixed bosons", "mixed fermions", "three mixed", "unmixed three"])
def test_m_is_its_mass_form_plus_i_times_its_decay_form_bit_for_bit(case):
    # the decay part is folded into the mass part's array: the sum as one expression, signs of zero too
    space, v = _certificate_cases()[case]
    model = DecayModel(space, v)
    on_ladders = (lambda x: x) if v is None else (lambda x: v.T @ x @ v.conj())
    want = (quadratic_form(space, on_ladders(np.diag(model.masses)))
            + 1j * quadratic_form(space, on_ladders(-0.5 * np.diag(model.widths))))
    assert np.array_equal(model.m_operator.entries, want)
    assert np.array_equal(np.signbit(model.m_operator.entries.view(float)), np.signbit(want.view(float)))


@pytest.mark.parametrize("mixed", [False, True], ids=["unmixed", "three mixed"])
def test_building_a_model_holds_one_dense_matrix_at_most(mixed):
    # M is kept as its (d,) terms, so the certificate's defect is the one d x d array built, and a fully
    # mixed V adds only more terms; every cutoff is the total, so any V keeps the space closed
    space = FockSpace([ModeSpec(mass=m, width=g, cutoff=12) for m, g in ((0.0, 0.5), (0.5, 1.0), (1.0, 1.5))],
                      total=12)
    v = _certificate_cases()["three mixed"][1] if mixed else None
    space.ladders  # cached on the space, not the model's
    tracemalloc.start()
    try:
        model = DecayModel(space, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.dimension == 455 and peak <= 1.25 * 16 * space.dimension ** 2
    # it holds no dense matrix: M, the c_j and W are built on first read
    assert set(vars(model)) == {"space", "mixing_unitary", "m_terms", "certificate_defect"}


def test_model_accepts_any_unitary_on_a_closed_space():
    rng = np.random.default_rng(3)
    v, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    for cutoff in (1, 2, 3, 4):
        space = FockSpace([ModeSpec(mass=0.3 * j, width=0.5 + j, cutoff=cutoff) for j in range(3)],
                          total=cutoff)
        model = DecayModel(space, v)
        assert model.certificate_defect <= 1e-12
        a = [build_annihilator(space, l).entries for l in (1, 2, 3)]
        for row, c in zip(v, model.decay_ops):
            assert np.max(np.abs(c.entries - sum(v_jl.conjugate() * a_l for v_jl, a_l in zip(row, a)))) \
                <= 1e-14


def test_certificate_is_formed_on_the_scaled_generator():
    # M = m N is finite at m = 8e307 and n <= 2 (5e307 and n <= 3), but m^2 is not:
    # [M, c] is formed on M / s, so the huge mass passes the certificate
    for mass, cutoff in ((8e307, 2), (5e307, 3), (8e307, 1)):
        model = build_decay_model(FockSpace(ModeSpec(mass=mass, width=0.5, cutoff=cutoff)))
        assert model.certificate_defect <= 1e-12


def test_models_and_channels_are_constructed_only_from_what_they_check():
    assert [f.name for f in fields(DecayModel) if f.init] == ["space", "mixing_unitary"]
    assert [f.name for f in fields(KrausSet) if f.init] == ["model", "time"]
    model = build_decay_model(single_mode_space(cutoff=2))
    ks = KrausSet(model, 0.5)
    assert "propagator" not in vars(ks)  # no d x d matrix until it is read
    for obj, name in ((model, "m_operator"), (model, "decay_ops"), (ks, "propagator")):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, None)
    for array in (model.m_operator.entries, ks.propagator):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0
    with pytest.raises(TypeError):
        KrausSet(model=model, time=0.5, propagator=ks.propagator)
    with pytest.raises(TypeError, match="DecayModel"):
        KrausSet(object(), 0.5)


# ---------------------------------------------------------------------------
# Kraus channels

def test_kraus_at_time_zero_is_identity_plus_zeros():
    model = build_decay_model(single_mode_space(cutoff=3))
    ks = build_kraus(model, 0.0)
    ref = kraus_reference(model, 0.0, loss_patterns(model.space))
    assert np.array_equal(ref[0], np.eye(4)) and np.array_equal(ks.propagator, np.eye(4))
    for E in ref[1:]:
        assert np.max(np.abs(E)) == 0.0
    assert ks.completeness_defect <= 1e-12


def test_kraus_half_life_two_level():
    model = build_decay_model(single_mode_space(cutoff=1))
    e0, e1 = kraus_reference(model, LN2, loss_patterns(model.space))
    for u in (e0, build_kraus(model, LN2).propagator):
        assert np.max(np.abs(u - np.diag([1.0, 2 ** -0.5]))) <= 1e-15
    expected = np.zeros((2, 2))
    expected[0, 1] = math.sqrt(0.5)
    assert np.max(np.abs(e1 - expected)) <= 1e-15


def test_kraus_columns_match_closed_form():
    m, gamma, cutoff = 0.4, 1.0, 6
    model = build_decay_model(single_mode_space(cutoff=cutoff, mass=m, width=gamma))
    for t in (0.1, 0.7, 2.3):
        patterns = loss_patterns(model.space)
        w = -math.expm1(-gamma * t)
        for (k,), E in zip(patterns, kraus_reference(model, t, patterns)):
            for n in range(cutoff + 1):
                col = E[:, n]
                expected = np.zeros(cutoff + 1, dtype=complex)
                if n >= k:
                    expected[n - k] = (
                        math.sqrt(math.comb(n, k))
                        * np.exp(-(1j * m + 0.5 * gamma) * (n - k) * t)
                        * w ** (k / 2)
                    )
                assert np.max(np.abs(col - expected)) <= 1e-12


def test_completeness_on_grid():
    single = build_decay_model(single_mode_space(cutoff=8))
    two = build_decay_model(FockSpace([ModeSpec(width=0.5, cutoff=3),
                                       ModeSpec(width=1.5, cutoff=2)]))
    sp_mix = FockSpace([ModeSpec(width=0.5, cutoff=4), ModeSpec(mass=3.0, width=1.5, cutoff=4)], total=4)
    mixed = build_mixed_model(sp_mix, MixingParams(theta=1.2, phi=0.5, psi=0.3, chi=0.1))
    for model in (single, two, mixed):
        gmin = min(g for g in model.widths if g > 0)
        for t in np.linspace(0.0, 10.0 / gmin, 20):
            ks = build_kraus(model, float(t))
            assert ks.completeness_defect <= 1e-10


@st.composite
def rotated_models(draw, identity=False):
    """A mixed model of one of three kinds: a boson pair with theta, phi, psi and chi
    drawn, a fermion pair, or three bosons with a random 3x3 unitary; with
    ``identity`` the same space under V = 1."""
    masses = st.floats(0.0, 5.0)
    widths = st.floats(0.1, 2.0)
    kind = draw(st.sampled_from(["boson-pair", "fermion-pair", "three-bosons"]))
    if kind == "three-bosons":
        cutoff = draw(st.integers(1, 3))
        space = FockSpace([ModeSpec(mass=draw(masses), width=draw(widths), cutoff=cutoff) for _ in range(3)],
                          total=cutoff)
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        v, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        return DecayModel(space, np.eye(3) if identity else v)
    if kind == "boson-pair":
        cutoff = draw(st.integers(1, 5))
        space = FockSpace([ModeSpec(mass=draw(masses), width=draw(widths), cutoff=cutoff) for _ in range(2)],
                          total=cutoff)
    else:
        space = FockSpace([ModeSpec(Statistics.FERMION, mass=draw(masses), width=draw(widths))
                           for _ in range(2)])
    angles = st.floats(0.0, 2 * math.pi)
    params = MixingParams(theta=draw(angles), phi=draw(angles), psi=draw(angles), chi=draw(angles))
    return DecayModel(space, np.eye(2) if identity else mixing_matrix(params))


@settings(max_examples=60, deadline=None)
@given(model=rotated_models())
def test_mode_basis_rotates_the_annihilators_into_the_decay_operators(model):
    w = model.mode_basis
    assert np.linalg.norm(w.conj().T @ w - np.eye(model.space.dimension), 2) <= 1e-14
    for j, c in enumerate(model.decay_ops, start=1):
        a = build_annihilator(model.space, j).entries
        assert np.max(np.abs(c.entries @ w - w @ a)) <= 1e-13


@settings(max_examples=20, deadline=None)
@given(model=rotated_models(identity=True))
def test_the_identity_mixing_unitary_gives_the_identity_mode_basis(model):
    assert np.array_equal(model.mode_basis, np.eye(model.space.dimension))
    assert build_decay_model(model.space).mode_basis is None


@settings(max_examples=40, deadline=None)
@given(model=rotated_models(), t=st.floats(0.0, 20.0))
def test_propagator_matches_scipy_expm(model, t):
    # W D W^dag against scipy's scaled and squared Pade exponential of the dense M; both
    # round at about 1e-16 of ||exp(-i M t)|| <= 1 on these spaces (|S| <= 21, t ||M||_1 < 1e3)
    want = scipy.linalg.expm(-1j * model.m_operator.entries * t)
    assert np.max(np.abs(build_kraus(model, t).propagator - want)) <= 1e-13


def test_a_non_finite_exponent_ends_in_an_invariant_violation():
    fermions = FockSpace([ModeSpec(Statistics.FERMION, width=0.5), ModeSpec(Statistics.FERMION, width=1.5)])
    for model in (build_mixed_model(fermions, MixingParams(theta=0.9)), build_decay_model(fermions)):
        with pytest.raises(InvariantViolation, match="propagator exp\\(-i M t\\) is not finite at t = inf"):
            build_kraus(model, math.inf)
    # the phase m t overflows, though the amplitude has decayed to 0
    single = FockSpace(ModeSpec(mass=1e308, width=1e308, cutoff=1))
    with pytest.raises(InvariantViolation, match="not finite at t = 1.8"):
        build_kraus(build_decay_model(single), 1.8)


def test_a_splitting_too_large_to_resolve_ends_in_an_invariant_violation():
    params = MixingParams(theta=0.7)
    for masses in ((0.0, 1e20), (5.0, 1e200)):
        space = FockSpace([ModeSpec(mass=m, width=g, cutoff=3) for m, g in zip(masses, (0.5, 1.5))], total=3)
        model = build_mixed_model(space, params)
        build_kraus(model, 0.0)
        with pytest.raises(InvariantViolation, match="rounds by .* more than 1e-10"):
            build_kraus(model, 0.5)
        # once every amplitude but the vacuum's has decayed to 0, no phase is read
        assert build_kraus(model, 1e4).completeness_defect <= 1e-12
    # a large common mass drops out of the splittings: only the sector phase m_ref N t is large
    for m in (1e4, 1e8, 1e14):
        space = FockSpace([ModeSpec(mass=m + dm, width=g, cutoff=3) for dm, g in ((0.0, 0.5), (5.0, 1.5))],
                          total=3)
        model = build_mixed_model(space, params)
        for t in (0.1, 1.0):
            assert build_kraus(model, t).completeness_defect <= 1e-12
    # resolved to 1e-10 up to (m_j - m_ref) n_j t = 9.0e5 rad: 15 t at total 3
    zero_width = FockSpace([ModeSpec(mass=m, width=0.0, cutoff=3) for m in (0.0, 5.0)], total=3)
    model = build_mixed_model(zero_width, params)
    assert build_kraus(model, 6e4).completeness_defect <= 1e-12
    with pytest.raises(InvariantViolation, match="rounds by .* more than 1e-10"):
        build_kraus(model, 7e4)
    # an unmixed M is diagonal, and its phases m_j n_j t are those of the closed forms: not refused
    for masses in ((0.0, 1e6), (0.0, 1e20)):
        space = FockSpace([ModeSpec(mass=m, width=0.5, cutoff=3) for m in masses], total=3)
        model = build_decay_model(space)
        ks = build_kraus(model, 1.0)
        assert np.array_equal(np.diag(ks.propagator), np.exp(-1j * model.m_operator.entries.diagonal() * 1.0))
        assert ks.completeness_defect <= 1e-12


def _block_cases():
    bosons = FockSpace([ModeSpec(width=0.5, cutoff=4), ModeSpec(mass=3.0, width=1.5, cutoff=4)], total=4)
    model = build_mixed_model(bosons, MixingParams(theta=1.2, phi=0.5, psi=0.3, chi=0.1))
    rho = random_density_matrix(np.random.default_rng(7), bosons, max_total=2)
    yield pytest.param(model, rho, id="mixed-bosons")
    # the Jordan-Wigner signs depend on the order c_1^k1 c_2^k2 c_3^k3
    space = FockSpace([ModeSpec(mass=0.3, width=0.8, cutoff=3),
                       ModeSpec(Statistics.FERMION, mass=1.0, width=1.2),
                       ModeSpec(Statistics.FERMION, mass=2.0, width=0.6)])
    rho = random_density_matrix(np.random.default_rng(8), space, max_total=2)
    yield pytest.param(build_decay_model(space), rho, id="boson-two-fermions")
    single = single_mode_space(cutoff=20, mass=0.7)
    yield pytest.param(build_decay_model(single), coherent_state(single, 1, 0.5), id="coherent-tail")
    space = FockSpace([ModeSpec(mass=0.5, width=0.6, cutoff=3), ModeSpec(mass=1.5, width=0.4, cutoff=3),
                       ModeSpec(Statistics.FERMION, mass=2.5, width=0.7),
                       ModeSpec(Statistics.FERMION, mass=3.5, width=1.0)])
    mat = np.zeros((space.dimension,) * 2, dtype=complex)
    for w, occ in ((0.625, (2, 1, 1, 0)), (0.375, (1, 2, 0, 1))):
        mat[space.index_of(occ), space.index_of(occ)] = w
    yield pytest.param(build_decay_model(space), DensityOperator(space, mat), id="mixture")


@pytest.mark.parametrize("model, rho", list(_block_cases()))
def test_block_family_matches_the_full_space_reference(model, rho):
    outside = model.space.total_occupation > support_total_bound(rho)
    assert outside.any()  # the state's support is a proper subset of the space
    full = loss_patterns(model.space)
    for t, got in zip((0.0, 0.3, 1.1), evolve_state(model, rho, (0.0, 0.3, 1.1))):
        want = sum(E @ rho.matrix @ E.conj().T for E in kraus_reference(model, t, full))
        assert np.max(np.abs(got.matrix - want)) <= 1e-13


def _random_matrix(rng, space):
    d = space.dimension
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _edge_cases():
    # w_1 = 1 exactly (Gamma_1 t beyond LARGE_EXPONENT) next to a mode still decaying
    space = FockSpace([ModeSpec(mass=0.4, width=1.0, cutoff=3), ModeSpec(mass=1.3, width=1e-3, cutoff=2)])
    yield pytest.param(build_decay_model(space), 1.5 * LARGE_EXPONENT, id="w-one")
    # w_2 = 0: a stable mode contributes no loss map
    space = FockSpace([ModeSpec(mass=0.4, width=1.0, cutoff=3), ModeSpec(mass=1.3, width=0.0, cutoff=2)])
    yield pytest.param(build_decay_model(space), 0.8, id="w-zero")
    bosons = FockSpace([ModeSpec(width=0.5, cutoff=3), ModeSpec(mass=3.0, width=1.5, cutoff=3)], total=3)
    mixed = build_mixed_model(bosons, MixingParams(theta=1.2, phi=0.5, psi=0.3, chi=0.1))
    yield pytest.param(mixed, 0.0, id="t-zero")
    yield pytest.param(mixed, 0.7, id="mixed")
    # the Jordan-Wigner signs of c_1^k1 c_2^k2 c_3^k3 act on coherences
    space = FockSpace([ModeSpec(mass=0.3, width=0.8, cutoff=3),
                       ModeSpec(Statistics.FERMION, mass=1.0, width=1.2),
                       ModeSpec(Statistics.FERMION, mass=2.0, width=0.6)])
    yield pytest.param(build_decay_model(space), 0.9, id="boson-two-fermions")
    fermions = FockSpace([ModeSpec(Statistics.FERMION, mass=0.0, width=0.5),
                          ModeSpec(Statistics.FERMION, mass=2.0, width=1.5)])
    yield pytest.param(build_mixed_model(fermions, MixingParams(theta=0.9, phi=0.2)), 1.1,
                       id="mixed-fermions")
    # w_1 = 1e-200, so w_1**2 / 2 underflows; w_2 = 0
    space = FockSpace([ModeSpec(width=1.0, cutoff=3), ModeSpec(mass=1.0, width=0.0, cutoff=2)])
    yield pytest.param(build_decay_model(space), 1e-200, id="w-underflow")


@pytest.mark.parametrize("model, t", list(_edge_cases()))
def test_nested_maps_match_the_family_reference(model, t, rng):
    ks = build_kraus(model, t)
    ref = kraus_reference(model, t, loss_patterns(model.space))
    x = _random_matrix(rng, model.space)
    forward = sum(E @ x @ E.conj().T for E in ref)
    adjoint = sum(E.conj().T @ x @ E for E in ref)
    gram = sum(E.conj().T @ E for E in ref)
    assert np.max(np.abs(apply_channel_matrix(ks, x) - forward)) <= 1e-13
    assert np.max(np.abs(evolve_observable_matrix(build_kraus(model, t), x) - adjoint)) <= 1e-13
    assert np.max(np.abs(evolve_observable_matrix(ks, np.eye(len(x))) - gram)) <= 1e-13
    # a state with coherences between every pair of totals
    rho = random_density_matrix(rng, model.space)
    want = sum(E @ rho.matrix @ E.conj().T for E in ref)
    assert np.max(np.abs(apply_channel(ks, rho).matrix - want)) <= 1e-13


def dense_loss_maps(x, model, weights, adjoint):
    """The Horner sums of the loss maps, one point at a time, each c_j a dense matrix."""
    space, out = model.space, []
    modes = list(enumerate(model.decay_ops))
    for w_point in weights:
        y = np.array(x, dtype=complex)
        for j, c in modes if adjoint else reversed(modes):
            if w_point[j] == 0:
                continue
            lower, upper = (c.entries.conj().T, c.entries) if adjoint else (c.entries, c.entries.conj().T)
            sub = y
            for k in range(min(space.modes[j].cutoff, space.total), 0, -1):
                sub = lower @ sub @ upper
                sub *= w_point[j] / k
                sub += y
            y = sub
        out.append(y)
    return np.array(out)


def kraus_support_reference(model, y0):
    """The exact-nonzero pattern of y0 closed under the loss maps' pattern, (a_j!=0) Y (a_j!=0)^T,
    as numpy boolean products of the dense a_j."""
    lowers = [build_annihilator(model.space, j).entries != 0 for j in range(1, model.space.n_modes + 1)]
    live = y0 != 0
    while True:
        grown = live.copy()
        for a in lowers:
            grown |= a @ live @ a.T
        if np.array_equal(grown, live):
            return live
        live = grown


def _support_cases():
    # states whose supports in the decay-mode basis are neither diagonal nor full
    bosons = FockSpace([ModeSpec(width=0.5, cutoff=6), ModeSpec(mass=3.0, width=1.5, cutoff=6)], total=6)
    mixed = build_mixed_model(bosons, MixingParams(theta=0.7, phi=0.4))
    yield pytest.param(mixed, poisson_mixture(bosons, 1, 0.05), id="mixed-pair-poisson")
    yield pytest.param(mixed, random_density_matrix(np.random.default_rng(3), bosons, max_total=2),
                       id="mixed-pair-low-totals")
    space = FockSpace([ModeSpec(mass=0.3, width=0.8, cutoff=3),
                       ModeSpec(Statistics.FERMION, mass=1.0, width=1.2)])
    mat = np.zeros((space.dimension,) * 2, dtype=complex)
    a, b = space.index_of((2, 1)), space.index_of((3, 0))
    mat[a, a], mat[b, b], mat[a, b], mat[b, a] = 0.5, 0.5, 0.25j, -0.25j
    yield pytest.param(build_decay_model(space), DensityOperator(space, mat), id="boson-fermion-coherence")


@pytest.mark.parametrize("model, rho", list(_support_cases()))
def test_the_kraus_support_is_the_closure_of_the_loss_maps_pattern(model, rho):
    y0 = channel._to_mode_basis(model, rho.matrix)
    support = channel._state_support(model, y0)
    live = np.zeros(y0.shape, dtype=bool)
    live[support.rows, support.cols] = True
    assert np.array_equal(live, kraus_support_reference(model, y0))
    assert np.array_equal(np.nonzero(live), (support.rows, support.cols))  # in row-major order
    assert model.space.dimension < support.rows.size < model.space.dimension ** 2


@pytest.mark.parametrize("model, rho", list(_support_cases()))
def test_a_grid_stack_is_the_dense_loss_maps_bit_for_bit(model, rho):
    # the maps of the a_j on the dense y0 = W^dag rho0 W, as the unmixed model on the same space
    # has them, then the phases; the stack stays in the mode basis, with the model as its basis
    times = [0.0, 0.4, 1.3]
    support, (stack,), basis = evolve_state(model, rho, times, read=lambda *grid: (grid[0], list(grid[1]), grid[2]))
    weights, _, (rest, sectors) = channel._channels(model, times)
    y = dense_loss_maps(channel._to_mode_basis(model, rho.matrix), build_decay_model(model.space), weights,
                        adjoint=False)
    pairs = rest[:, :, None] * rest[:, None, :].conj()
    if model.is_mixed:  # the sector phases on the entries across sectors, none within one
        tot = model.space.total_occupation
        a, b = np.nonzero(tot[:, None] != tot[None, :])
        pairs[:, a, b] *= sectors[:, tot[a]] * sectors[:, tot[b]].conj()
    y *= pairs
    assert np.array_equal(support.scatter(stack), y)
    assert basis is (model if model.is_mixed else None)


def _gather_cases():
    # (model, t, tol); tol 0 asks for bit-equal sums: an unmixed model is in its decay-mode
    # basis already, so its maps are the gathers alone
    for case in _edge_cases():
        if case.id in ("w-zero", "boson-two-fermions", "mixed"):
            model, t = case.values
            yield pytest.param(model, t, 1e-14 if model.is_mixed else 0.0, id=case.id)
    # at theta = 0 each c_j is a_j times a phase of V, and W is diagonal with those phases
    bosons = FockSpace([ModeSpec(width=0.5, cutoff=3), ModeSpec(mass=3.0, width=1.5, cutoff=3)], total=3)
    model = build_mixed_model(bosons, MixingParams(theta=0.0, phi=0.5, psi=0.3, chi=0.1))
    yield pytest.param(model, 0.7, 1e-14, id="theta-zero-phases")


@pytest.mark.parametrize("model, t, tol", list(_gather_cases()))
def test_gathered_loss_maps_equal_the_dense_horner_sums(model, t, tol, rng):
    # the maps of the model's c_j, evaluated as W [the gathers of the a_j](W^dag X W) W^dag
    times = [0.0, t, 2 * t]  # every weight is 0 at t = 0
    weights = np.array([[channel._decay_weight(g, s) for g in model.widths] for s in times])
    x = _random_matrix(rng, model.space)
    full = channel.Support(model.space, *np.indices((model.space.dimension,) * 2).reshape(2, -1))  # every entry
    for adjoint in (False, True):
        gathered = channel._loss_maps(full.values(channel._to_mode_basis(model, x)), full, weights, adjoint)
        got = channel._from_mode_basis(model, full.scatter(gathered))
        want = dense_loss_maps(x, model, weights, adjoint)
        assert np.array_equal(got, want) if tol == 0 else np.max(np.abs(got - want)) <= tol
        assert np.array_equal(got[0], x) if tol == 0 else np.max(np.abs(got[0] - x)) <= tol


@pytest.mark.parametrize("model, t", [
    pytest.param(build_decay_model(FockSpace([ModeSpec(width=0.5, cutoff=3),
                                              ModeSpec(mass=1.0, width=1.5, cutoff=2)])), 0.0,
                 id="t-zero"),
    pytest.param(build_decay_model(FockSpace([ModeSpec(width=0.0, cutoff=3),
                                              ModeSpec(mass=1.0, width=0.0, cutoff=2)])), 0.8,
                 id="widths-zero"),
])
def test_loss_maps_return_a_new_array_when_no_mode_decays(model, t, rng):
    # the loss maps are the identity: each action is D X D^dag (adjoint D^dag X D), a new array
    ks = build_kraus(model, t)
    x = _random_matrix(rng, model.space)
    amplitudes = np.diag(ks.propagator)  # unmixed: U = D
    phases = amplitudes[:, None] * amplitudes.conj()
    for y, want in ((apply_channel_matrix(ks, x), x * phases),
                    (evolve_observable_matrix(ks, x), x * phases.conj())):
        assert np.array_equal(y, want) and not np.shares_memory(y, x)
    if t == 0.0:
        assert np.array_equal(apply_channel_matrix(ks, x), x)


def _grid_cases():
    space = FockSpace([ModeSpec(mass=0.3, width=0.8, cutoff=3),
                       ModeSpec(Statistics.FERMION, mass=1.0, width=1.2)])
    yield pytest.param(build_decay_model(space), number_state(space, (2, 1)), id="boson-fermion")
    bosons = FockSpace([ModeSpec(width=0.5, cutoff=4), ModeSpec(mass=3.0, width=1.5, cutoff=4)], total=4)
    rho = random_density_matrix(np.random.default_rng(5), bosons)
    yield pytest.param(build_mixed_model(bosons, MixingParams(theta=1.2, phi=0.5)), rho, id="mixed-bosons")
    space = FockSpace([ModeSpec(mass=0.4, width=1.0, cutoff=3), ModeSpec(mass=1.3, width=0.0, cutoff=2)])
    rho = random_density_matrix(np.random.default_rng(6), space)
    yield pytest.param(build_decay_model(space), rho, id="zero-width")


@pytest.mark.parametrize("stack_points", [None, 3], ids=["default-chunk", "three-point-chunks"])
@pytest.mark.parametrize("model, rho", list(_grid_cases()))
def test_evolve_state_is_the_per_point_channel(model, rho, stack_points, monkeypatch):
    d = model.space.dimension
    if stack_points is not None:
        monkeypatch.setattr(channel, "STACK_BYTES", 16 * d * d * stack_points)
    chunk = channel._stack_points(d)
    times = np.linspace(0.0, 4.0, 2 * chunk + 3)  # from t = 0, over more than two chunks
    want = [apply_channel_matrix(build_kraus(model, float(t)), rho.matrix) for t in times]
    got = evolve_state(model, rho, times)
    assert len(got) == len(times)
    for g, w in zip(got, want):
        assert np.array_equal(g.matrix, w)


def test_a_grid_rotates_rho0_into_the_mode_basis_once(monkeypatch):
    bosons = FockSpace([ModeSpec(width=0.5, cutoff=3), ModeSpec(mass=3.0, width=1.5, cutoff=3)], total=3)
    model = build_mixed_model(bosons, MixingParams(theta=0.9, phi=0.3))
    rho = random_density_matrix(np.random.default_rng(7), bosons)
    d = bosons.dimension
    monkeypatch.setattr(channel, "STACK_BYTES", 16 * d * d * 2)
    times = np.linspace(0.0, 2.0, 7)  # four stacks of at most two points
    want = [apply_channel_matrix(build_kraus(model, float(t)), rho.matrix) for t in times]
    rotate, rotated = channel._to_mode_basis, []
    monkeypatch.setattr(channel, "_to_mode_basis", lambda m, x: rotated.append(x) or rotate(m, x))
    stacks = []
    support = evolve_state(model, rho, times, read=lambda support, grid, basis: stacks.extend(grid) or support)
    # one W^dag rho0 W for the whole grid, and the states of the raw per-point action bit for bit
    assert len(stacks) == 4 and len(rotated) == 1 and rotated[0] is rho.matrix
    assert np.array_equal(channel._from_mode_basis(model, support.scatter(np.concatenate(stacks))), np.array(want))


def test_a_breach_at_one_point_of_a_chunk_raises_as_that_point_does(monkeypatch):
    model = build_decay_model(single_mode_space(cutoff=3))
    weight = channel._decay_weight
    # a wrong weight at t = 0.5 alone breaks the completeness of that channel
    monkeypatch.setattr(channel, "_decay_weight",
                        lambda g, t: weight(g, t) + (1e-3 if t == 0.5 else 0.0))
    times = (0.0, 0.25, 0.5, 0.75, 1.0)
    assert channel._stack_points(model.space.dimension) >= len(times)  # one chunk
    with pytest.raises(InvariantViolation, match="completeness defect") as one:
        build_kraus(model, 0.5)
    with pytest.raises(InvariantViolation) as grid:
        evolve_state(model, number_state(model.space, (3,)), times)
    assert str(grid.value) == str(one.value)


def test_of_two_breaches_in_one_chunk_the_earlier_point_raises(monkeypatch):
    model = build_decay_model(single_mode_space(cutoff=3))
    rho = number_state(model.space, (3,))
    weight = channel._decay_weight
    # t = 0.25 passes its completeness check and then changes the trace; t = 0.75 fails
    # completeness, a check the stack runs on every point before any trace check
    monkeypatch.setattr(channel, "_decay_weight",
                        lambda g, t: weight(g, t) + {0.25: 1e-11, 0.75: 1e-3}.get(t, 0.0))
    times = (0.0, 0.25, 0.5, 0.75, 1.0)
    assert channel._stack_points(model.space.dimension) >= len(times)  # one chunk
    with pytest.raises(InvariantViolation, match="changed the trace") as first:
        apply_channel(build_kraus(model, 0.25), rho)
    with pytest.raises(InvariantViolation, match="completeness defect"):
        build_kraus(model, 0.75)
    with pytest.raises(InvariantViolation) as grid:
        evolve_state(model, rho, times)
    assert str(grid.value) == str(first.value)


def test_kraus_rejects_negative_time():
    model = build_decay_model(single_mode_space())
    with pytest.raises(ValueError):
        build_kraus(model, -0.1)


# ---------------------------------------------------------------------------
# channel application

def test_vacuum_is_stationary():
    space = single_mode_space(cutoff=4)
    model = build_decay_model(space)
    rho = vacuum_state(space)
    for t in (0.3, 2.0, 50.0):
        out = apply_channel(build_kraus(model, t), rho)
        assert np.max(np.abs(out.matrix - rho.matrix)) <= 1e-15


def test_one_particle_half_life():
    space = single_mode_space(cutoff=1)
    model = build_decay_model(space)
    out = apply_channel(build_kraus(model, LN2), number_state(space, (1,)))
    assert np.max(np.abs(out.matrix - np.diag([0.5, 0.5]))) <= 1e-15


def test_matrix_element_law():
    m, gamma, cutoff = 0.3, 1.0, 6
    space = single_mode_space(cutoff=cutoff, mass=m, width=gamma)
    model = build_decay_model(space)
    for t in (0.1, 1.0, 10.0):
        ks = build_kraus(model, t)
        for n in range(5):
            for npr in range(5):
                unit = np.zeros((cutoff + 1,) * 2, dtype=complex)
                unit[n, npr] = 1.0
                got = apply_channel_matrix(ks, unit)
                want = decayed_unit(n, npr, m, gamma, t, cutoff + 1)
                assert np.max(np.abs(got - want)) <= 1e-12


def test_cptp_on_random_states(rng):
    space = single_mode_space(cutoff=5, mass=0.7)
    model = build_decay_model(space)
    for _ in range(10):
        rho = random_density_matrix(rng, space)
        t = float(rng.uniform(0.0, 10.0))
        out = apply_channel(build_kraus(model, t), rho)
        assert abs(np.trace(out.matrix) - 1.0) <= 1e-12
        assert np.max(np.abs(out.matrix - out.matrix.conj().T)) <= 1e-12
        assert np.linalg.eigvalsh(out.matrix).min() >= -1e-10


def test_mixed_model_needs_a_space_where_it_is_exact():
    # the rotated c_j close only on totals up to a boson pair's common cutoff
    modes = [ModeSpec(width=0.5, cutoff=2), ModeSpec(mass=1.0, width=1.5, cutoff=2)]
    for total in (3, 4):
        with pytest.raises(ValueError, match=r"FockSpace\(modes, total=2\)"):
            build_mixed_model(FockSpace(modes, total=total), MixingParams(theta=0.7))
    build_mixed_model(FockSpace(modes, total=2), MixingParams(theta=0.7))
    # a fermion pair is exact on its whole four-state space
    fermions = FockSpace([ModeSpec(Statistics.FERMION, width=0.5),
                          ModeSpec(Statistics.FERMION, mass=1.0, width=1.5)])
    model = build_mixed_model(fermions, MixingParams(theta=0.7))
    assert model.space.dimension == 4


def test_evolve_state_grid_basics():
    space = single_mode_space(cutoff=3)
    model = build_decay_model(space)
    rho = number_state(space, (2,))
    assert evolve_state(model, rho, []) == []
    only_zero = evolve_state(model, rho, [0.0])
    assert len(only_zero) == 1
    assert np.max(np.abs(only_zero[0].matrix - rho.matrix)) <= 1e-15
    with pytest.raises(ValueError):
        evolve_state(model, rho, [1.0, 0.5])
    with pytest.raises(ValueError):
        evolve_state(model, rho, [-1.0])


def test_semigroup_composition(rng):
    space = single_mode_space(cutoff=5, mass=0.9)
    model = build_decay_model(space)
    t1, t2 = 0.3, 0.7
    for _ in range(5):
        rho = random_density_matrix(rng, space)
        step1 = apply_channel(build_kraus(model, t1), rho)
        composed = apply_channel(build_kraus(model, t2), step1)
        direct = apply_channel(build_kraus(model, t1 + t2), rho)
        assert trace_distance(composed, direct) <= 1e-10


def test_vacuum_attractor(rng):
    space = single_mode_space(cutoff=6)
    model = build_decay_model(space)
    vac = vacuum_state(space)
    states = [
        number_state(space, (2,)),
        coherent_state(space, 1, 0.3),
        random_density_matrix(rng, space),
    ]
    for rho in states:
        last = math.inf
        for t in np.arange(5.0, 45.0, 5.0):
            dist = trace_distance(apply_channel(build_kraus(model, float(t)), rho), vac)
            assert dist <= last + 1e-12
            last = dist
        assert last < 1e-6


# ---------------------------------------------------------------------------
# expectations and distributions

def test_expectation_values():
    space = single_mode_space(cutoff=4)
    model = build_decay_model(space)
    n_op = build_total_number(space)
    assert expectation(number_state(space, (2,)), n_op) == pytest.approx(2.0, abs=1e-15)
    evolved = apply_channel(build_kraus(model, LN2), number_state(space, (2,)))
    assert expectation(evolved, n_op) == pytest.approx(1.0, abs=1e-12)


def test_expectation_strangeness_eigenvalue():
    space = FockSpace([ModeSpec(cutoff=3), ModeSpec(cutoff=3)])
    s_op = build_flavour_observables(space)["S"]
    assert expectation(number_state(space, (2, 1)), s_op) == pytest.approx(1.0, abs=1e-15)


def test_expectation_rejects_bad_inputs():
    space = single_mode_space(cutoff=2)
    rho = vacuum_state(space)
    from fockdecay import OperatorMatrix

    skew = OperatorMatrix(space, np.triu(np.ones((3, 3)), 1).astype(complex))
    with pytest.raises(ValueError):
        expectation(rho, skew)
    other = single_mode_space(cutoff=3)
    with pytest.raises(ValueError):
        expectation(rho, build_total_number(other))


def test_expectations_match_one_state_at_a_time(rng):
    space = FockSpace([ModeSpec(cutoff=3), ModeSpec(cutoff=3)])
    s_op = build_flavour_observables(space)["S"]
    states = [random_density_matrix(rng, space) for _ in range(4)]
    full = channel.Support(space, *np.indices((space.dimension,) * 2).reshape(2, -1))
    omegas = {"S": quadratic_omegas(2)["S"]}
    got = channel.read_series(full, [full.values(np.array([rho.matrix for rho in states]))], omegas=omegas)[0]["S"]
    assert got.shape == (4,)
    alone = [channel.read_series(full, [full.values(rho.matrix[None])], omegas=omegas)[0]["S"][0] for rho in states]
    assert np.array_equal(got, alone)
    assert np.max(np.abs(got - [expectation(rho, s_op) for rho in states])) <= 1e-14
    assert channel.read_series(full, [], omegas=omegas)[0]["S"].shape == (0,)


def test_expectations_check_every_state():
    space = single_mode_space(cutoff=2)
    n_op = build_total_number(space)
    with pytest.raises(ValueError, match="state and observable live on different spaces"):
        expectation(vacuum_state(single_mode_space(cutoff=3)), n_op)
    # an unvalidated non-Hermitian matrix leaves an imaginary residue on one sample only
    bad = np.diag([0.0, 1.0 + 1e-3j, 0.0])
    full = channel.Support(space, *np.indices((3, 3)).reshape(2, -1))
    with pytest.raises(InvariantViolation, match="imaginary residue 1.000e-03"):
        channel.read_series(full, [full.values(np.array([vacuum_state(space).matrix, bad]))],
                            omegas={"N": np.eye(1)})
    with pytest.raises(ValueError, match="not Hermitian"):
        channel.read_series(full, [], omegas={"hop": np.array([[1j]])})


def test_trace_distance_refuses_states_on_different_spaces():
    # both spaces have dimension 4, so their vacua's matrices are equal
    boson = vacuum_state(FockSpace(ModeSpec(cutoff=3)))
    fermions = vacuum_state(FockSpace([ModeSpec(Statistics.FERMION), ModeSpec(Statistics.FERMION)]))
    assert np.array_equal(boson.matrix, fermions.matrix)
    with pytest.raises(ValueError, match="live on different spaces"):
        trace_distance(boson, fermions)
    assert trace_distance(boson.matrix, fermions.matrix) == 0.0  # raw matrices carry no space
    assert trace_distance(boson, vacuum_state(boson.space)) == 0.0


def test_a_nan_state_fails_the_expectation_residue_check():
    # NaN compares False with any tolerance, so the check must be written to fail on it
    space = single_mode_space(cutoff=1)
    full = channel.Support(space, *np.indices((2, 2)).reshape(2, -1))
    with pytest.raises(InvariantViolation, match="imaginary residue nan"):
        channel.read_series(full, [np.full((1, 4), np.nan)], omegas={"n": np.eye(1)})
    nan_state = DensityOperator(space, np.full((2, 2), np.nan), validate=False)
    with pytest.raises(InvariantViolation, match="imaginary residue nan"):
        expectation(nan_state, build_total_number(space))


def test_binomial_occupation_distribution():
    space = single_mode_space(cutoff=5)
    model = build_decay_model(space)
    evolved = apply_channel(build_kraus(model, LN2), number_state(space, (3,)))
    dist = occupation_distribution(evolved)
    expected = {0: 1 / 8, 1: 3 / 8, 2: 3 / 8, 3: 1 / 8}
    for k, p in expected.items():
        assert dist[(k,)] == pytest.approx(p, abs=1e-12)
    assert dist[(4,)] == pytest.approx(0.0, abs=1e-15)


def test_vacuum_distribution():
    space = FockSpace([ModeSpec(cutoff=2), ModeSpec(cutoff=1)])
    dist = occupation_distribution(vacuum_state(space))
    assert dist[(0, 0)] == pytest.approx(1.0, abs=1e-15)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_poisson_evolution_matches_coherent():
    space = single_mode_space(cutoff=12)
    model = build_decay_model(space)
    n_op = build_total_number(space)
    from fockdecay import poisson_mixture

    for t in (0.2, 1.0, 2.5):
        ks = build_kraus(model, t)
        mean_coh = expectation(apply_channel(ks, coherent_state(space, 1, 1.0)), n_op)
        mean_poi = expectation(apply_channel(ks, poisson_mixture(space, 1, 1.0)), n_op)
        assert mean_coh == pytest.approx(mean_poi, abs=1e-12)
        assert mean_coh == pytest.approx(math.exp(-t), abs=1e-8)


# ---------------------------------------------------------------------------
# edges

def test_zero_width_is_unitary():
    space = FockSpace(ModeSpec(mass=1.3, width=0.0, cutoff=4))
    model = build_decay_model(space)
    ks = build_kraus(model, 2.0)
    nonzero = [E for E in kraus_reference(model, 2.0, loss_patterns(space)) if np.max(np.abs(E)) > 0]
    assert len(nonzero) == 1  # only the unitary piece survives
    rho = np.zeros((5, 5), dtype=complex)
    rho[2, 1] = 1.0
    out = apply_channel_matrix(ks, rho)
    assert out[2, 1] == pytest.approx(np.exp(-1j * 1.3 * (2 - 1) * 2.0), abs=1e-14)


def test_very_large_time_is_clean():
    space = single_mode_space(cutoff=4)
    model = build_decay_model(space)
    ks = build_kraus(model, 800.0)
    out = apply_channel(ks, number_state(space, (3,)))
    assert np.isfinite(out.matrix).all()
    assert trace_distance(out, vacuum_state(space)) <= 1e-14


def test_fermionic_channel():
    space = FockSpace([ModeSpec(Statistics.FERMION, width=1.0),
                       ModeSpec(Statistics.FERMION, mass=0.8, width=2.0)])
    model = build_decay_model(space)
    assert all(all(k <= 1 for k in kappa) for kappa in loss_patterns(space))
    for t in (0.3, 1.0, 4.0):
        ks = build_kraus(model, t)
        assert ks.completeness_defect <= 1e-12
        out = apply_channel(ks, number_state(space, (1, 0)))
        n_op = build_total_number(space)
        assert expectation(out, n_op) == pytest.approx(math.exp(-t), abs=1e-12)


def test_superselection_pinching():
    space = single_mode_space(cutoff=2)
    vec = np.array([math.sqrt(0.5), math.sqrt(0.3), math.sqrt(0.2)], dtype=complex)
    rho = DensityOperator(space, np.outer(vec, vec.conj()))
    pinched = enforce_superselection(rho)
    assert np.max(np.abs(pinched.matrix - np.diag([0.5, 0.3, 0.2]))) <= 1e-15


def _pin_cases():
    # the kraus route unmixed and mixed, on a boson and on a fermion pair (whose Jordan-Wigner
    # signs enter T), and the ode route; each from a state with coherences between the modes
    bosons = FockSpace([ModeSpec(width=0.5, cutoff=3), ModeSpec(mass=2.0, width=1.5, cutoff=3)], total=3)
    fermions = FockSpace([ModeSpec(Statistics.FERMION, width=0.5), ModeSpec(Statistics.FERMION, mass=2.0, width=1.5)])
    for space, seed in ((bosons, 11), (fermions, 12)):
        rho = random_density_matrix(np.random.default_rng(seed), space)
        mixed = build_mixed_model(space, MixingParams(theta=0.8, phi=0.4))
        for model in (build_decay_model(space), mixed):
            yield pytest.param("kraus", model, rho, 0.4 if model.is_mixed else 0.0,
                               id=f"kraus-{space.modes[0].statistics.value}-{'mixed' if model.is_mixed else 'unmixed'}")
        yield pytest.param("ode", mixed, rho, 0.4, id=f"ode-{space.modes[0].statistics.value}-mixed")


@pytest.mark.parametrize("route, model, rho, phi", list(_pin_cases()))
def test_the_support_reader_is_the_dense_einsum_on_every_route(route, model, rho, phi):
    # the reader that every route shares, against the dense trace it replaced: a defect in it
    # would cancel out of the cross-route comparison
    from fockdecay.master import build_generator, integrate
    times = np.linspace(0.0, 1.5, 7)
    keep = lambda support, stacks, basis: (support, list(stacks), basis)  # noqa: E731
    if route == "kraus":
        support, stacks, basis = evolve_state(model, rho, times, keep)
    else:
        support, stacks, basis = integrate(build_generator(model), rho, times, 1.5 / 600, keep)
    omegas = quadratic_omegas(2, phi)
    values, diagonals = channel.read_series(support, iter(stacks), basis, omegas=omegas, diagonal=True)
    states = support.scatter(np.concatenate(stacks))
    states = states if basis is None else channel._from_mode_basis(basis, states)
    for name, omega in omegas.items():
        obs = quadratic_form(model.space, omega)
        want = np.einsum("nij,ji->n", states, obs)
        assert np.max(np.abs(values[name] - want)) <= 1e-14 * max(1.0, np.max(np.abs(obs))), name
    assert np.max(np.abs(diagonals - states.diagonal(axis1=1, axis2=2))) <= 1e-14
    # heisenberg's rho0, read on its own support
    own = rho.support()
    values, diagonals = channel.read_series(own, iter([own.values(rho.matrix)[None]]), omegas=omegas, diagonal=True)
    for name, omega in omegas.items():
        obs = quadratic_form(model.space, omega)
        assert abs(values[name][0] - np.einsum("ij,ji->", rho.matrix, obs)) <= 1e-14 * max(1.0, np.max(np.abs(obs)))
    assert np.max(np.abs(diagonals[0] - rho.matrix.diagonal())) <= 1e-14


def test_trace_distance_refuses_a_matrix_of_another_shape():
    v = vacuum_state(FockSpace(ModeSpec(cutoff=3)))
    for other in (np.zeros(4), np.zeros((1, 1)), 0.25, np.zeros((4, 5))):
        with pytest.raises(ValueError, match="square matrices of one shape"):
            trace_distance(v, other)
        with pytest.raises(ValueError, match="square matrices of one shape"):
            trace_distance(other, v)
    assert trace_distance(v, v.matrix) == 0.0
