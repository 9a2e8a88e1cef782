"""Closed-form solution families and their preconditions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feqlab.families import (
    FamilyConstructionError,
    SolutionPair,
    canned_half_trace,
    dalembert_family,
    family_case_iv,
    twisted_companion,
)
from feqlab.feq import GroupFunction, residual_wilson
from feqlab.groups import BallDomain, IntegerLattice, build_catalog_group
from feqlab.morphisms import (
    Character,
    ball_character,
    ball_involution,
    enumerate_characters,
    enumerate_multiplicative,
    identity_involution,
    inversion_involution,
    trivial_character,
)

from family_oracle import (family_case_i, family_case_ii, family_case_iii,
                           generate_family_pairs)
from morphism_oracle import fraction_angles


def z4_setup():
    Z4 = build_catalog_group("Z4")
    sigma = inversion_involution(Z4)
    chars = enumerate_characters(Z4)
    m_i = chars[1]  # i^k
    return Z4, sigma, chars, m_i


def test_case_i_is_zero_f_with_any_g():
    Z4, sigma, chars, _ = z4_setup()
    pair = family_case_i(Z4, [5, -1, 2j, 7], sigma, trivial_character(Z4))
    assert pair.family_tag == "CaseI"
    assert pair.residual_sup == 0.0
    assert np.all(pair.f.values == 0)


def test_case_ii_frozen_vector_on_z4():
    Z4, sigma, chars, m_i = z4_setup()
    pair = family_case_ii(m_i, chars[1], sigma, 2.0)
    # chi * m o sigma is trivial here, so g = (i^k + 1)/2 and f = i^k + 1
    assert np.allclose(pair.f.values, [2, 1 + 1j, 0, 1 - 1j], atol=1e-15)
    assert np.allclose(pair.g.values, [1, 0.5 + 0.5j, 0, 0.5 - 0.5j], atol=1e-15)
    assert pair.residual_sup <= 1e-12
    assert pair.parameters["f_at_e"] == 2.0


def test_case_ii_zero_height_gives_zero_f():
    Z4, sigma, chars, m_i = z4_setup()
    pair = family_case_ii(m_i, chars[1], sigma, 0.0)
    assert np.all(pair.f.values == 0)


def test_case_iii_frozen_sine_pair_on_z4():
    Z4, sigma, chars, m_i = z4_setup()
    pair = family_case_iii(m_i, trivial_character(Z4), sigma, 1.0, 0.0)
    assert np.allclose(pair.f.values, [0, 2j, 0, -2j], atol=1e-15)
    assert np.allclose(pair.g.values, [1, 0, -1, 0], atol=1e-15)
    assert pair.parameters == {"c": 1.0, "f_at_e": 0.0}


def test_case_iii_twisted_pair_with_nontrivial_chi():
    # the partner character chi * m o sigma replaces m o sigma in f; with
    # m = chi = i^k the partner is trivial and the pair is still exact
    Z4, sigma, chars, m_i = z4_setup()
    chi = chars[1]
    pair = family_case_iii(m_i, chi, sigma, 1.0, 0.0)
    assert np.allclose(pair.f.values, [0, -1 + 1j, -2, -1 - 1j], atol=1e-15)
    assert np.allclose(pair.g.values, [1, 0.5 + 0.5j, 0, 0.5 - 0.5j], atol=1e-15)
    assert pair.residual_sup <= 1e-12
    # exact even where the balance condition (chi - 1) m = (chi - 1) m o sigma
    # fails: first at element 1, so the family needs no such condition
    balance = (chi.values - 1.0) * (m_i.values - m_i.values[sigma.table])
    assert np.flatnonzero(np.abs(balance) > 1e-12)[0] == 1


def test_case_iii_rejects_zero_c():
    Z4, sigma, chars, m_i = z4_setup()
    with pytest.raises(FamilyConstructionError):
        family_case_iii(m_i, chars[1], sigma, 0.0, 1.0)


def test_case_iii_collapses_when_m_is_symmetric():
    # m = chi m o sigma makes the two characters coincide; f = f(e) m for all c
    Z4 = build_catalog_group("Z4")
    sigma = identity_involution(Z4)
    chi = trivial_character(Z4)
    m = enumerate_characters(Z4)[1]
    for c in (1.0, 2.0, 1j):
        pair = family_case_iii(m, chi, sigma, c, 3.0)
        assert np.allclose(pair.f.values, 3.0 * m.values)


def test_twisted_companion_angles_are_exact():
    Z4, sigma, chars, m_i = z4_setup()
    M = twisted_companion(m_i, chars[1], sigma)
    assert fraction_angles(M) == [0, 0, 0, 0]
    assert np.allclose(M.values, 1.0)


def test_case_iv_on_a_lattice_ball():
    ball = BallDomain(IntegerLattice(2), 3)
    sigma = ball_involution(ball, "inv")
    chi = ball_character(ball, [1.0, 1.0])
    m = chi
    pair = family_case_iv(m, chi, sigma, ball.coords @ [1.0, 0.0], 1.0)
    assert pair.residual_sup == 0.0
    assert pair.f.values[ball.elements.index((1, 0))] == 2.0  # a + f(e) at x1 = 1
    assert np.allclose(pair.g.values, 1.0)


def test_case_iv_rejects_non_odd_additive():
    ball = BallDomain(IntegerLattice(1), 2)
    sigma = ball_involution(ball, "id")
    chi = ball_character(ball, [1.0])
    m = chi
    with pytest.raises(FamilyConstructionError, match="fails at element"):
        family_case_iv(m, chi, sigma, ball.coords @ [1.0], 0.0)


def test_case_iv_rejects_asymmetric_m():
    Z4, sigma, chars, m_i = z4_setup()
    with pytest.raises(FamilyConstructionError, match="chi"):
        family_case_iv(m_i, trivial_character(Z4), sigma, None, 1.0)


def test_case_iv_on_finite_group_collapses_to_scaled_m():
    # chi = (-1)^k satisfies m = chi * m o sigma for m = i^k, sigma = inv
    Z4, sigma, chars, m_i = z4_setup()
    pair = family_case_iv(m_i, chars[2], sigma, None, 2.0)
    assert np.allclose(pair.f.values, 2.0 * m_i.values)
    assert np.allclose(pair.g.values, m_i.values)


def test_dalembert_family_members():
    Z4, sigma, chars, m_i = z4_setup()
    zero = dalembert_family(Character.zero(Z4), trivial_character(Z4), sigma)
    assert np.all(zero.values == 0)
    cos = dalembert_family(m_i, trivial_character(Z4), sigma)
    assert np.allclose(cos.values, [1, 0, -1, 0], atol=1e-15)


def test_dalembert_family_rejects_incompatible_chi():
    # chi = i^k with sigma = id violates chi(x sigma(x)) = 1
    Z4 = build_catalog_group("Z4")
    sigma = identity_involution(Z4)
    chi = enumerate_characters(Z4)[1]
    m = trivial_character(Z4)
    with pytest.raises(FamilyConstructionError):
        dalembert_family(m, chi, sigma)


# --- half trace candidates ------------------------------------------------


def test_canned_half_trace_vectors():
    S3 = build_catalog_group("S3")
    assert np.array_equal(canned_half_trace(S3).values,
                          [1, 0, 0, -0.5, -0.5, 0])
    D4 = build_catalog_group("D4")
    assert np.array_equal(canned_half_trace(D4).values,
                          [1, 0, -1, 0, 0, 0, 0, 0])
    Q8 = build_catalog_group("Q8")
    assert np.array_equal(canned_half_trace(Q8).values,
                          [1, -1, 0, 0, 0, 0, 0, 0])


def test_canned_half_trace_absent_for_other_groups():
    for name in ("Z6", "Z2xZ2", "Z8", "Z2xZ4"):
        assert canned_half_trace(build_catalog_group(name)) is None
    with pytest.raises(ValueError):
        canned_half_trace(BallDomain(IntegerLattice(1), 1))


def test_half_trace_needs_the_determinant_character():
    # the 2-dim representation of Q8 has determinant 1, so the trivial chi
    # works there; on S3 and D4 only the sign-like character closes the
    # equation, and the trivial chi leaves residual exactly 2
    Q8 = build_catalog_group("Q8")
    half = canned_half_trace(Q8)
    rep = residual_wilson(Q8, inversion_involution(Q8), trivial_character(Q8),
                          half, half)
    assert rep.sup <= 1e-12

    S3 = build_catalog_group("S3")
    half = canned_half_trace(S3)
    chars = enumerate_characters(S3)
    sign = chars[1]
    assert residual_wilson(S3, inversion_involution(S3), sign, half,
                           half).sup <= 1e-12
    assert residual_wilson(S3, inversion_involution(S3),
                           trivial_character(S3), half, half).sup == 2.0

    D4 = build_catalog_group("D4")
    half = canned_half_trace(D4)
    sups = [residual_wilson(D4, inversion_involution(D4), chi, half, half).sup
            for chi in enumerate_characters(D4)]
    assert sum(s <= 1e-12 for s in sups) == 1  # exactly one character closes it


# --- pair construction and sweeps -----------------------------------------


def test_solution_pair_rejects_non_solutions_with_witness():
    Z4, sigma, chars, m_i = z4_setup()
    f = GroupFunction(Z4, [1, 1, 1, 0])
    g = GroupFunction(Z4, [1, 0, 0, 0])
    with pytest.raises(FamilyConstructionError, match=r"residual .* at \("):
        SolutionPair(f, g, "External", sigma=sigma, chi=chars[0])


def test_solution_pair_requires_verification_context():
    Z4, sigma, chars, _ = z4_setup()
    f = GroupFunction.zero(Z4)
    with pytest.raises(TypeError):
        SolutionPair(f, f, "External")
    with pytest.raises(ValueError):
        SolutionPair(f, f, "CaseXI", sigma=sigma, chi=chars[0])


def test_generate_family_pairs_counts_and_exactness():
    Z2 = build_catalog_group("Z2")
    sigma = identity_involution(Z2)
    chi = trivial_character(Z2)
    ms = enumerate_multiplicative(Z2)
    pairs = generate_family_pairs(Z2, sigma, chi, ms)
    # 5 f(e) samples for case ii, 4 x 5 (c, f(e)) for case iii, per m
    assert len(pairs) == len(ms) * 25
    assert {p.family_tag for p in pairs} == {"CaseII", "CaseIII"}
    for p in pairs:
        assert p.residual_sup <= 1e-12


finite_params = st.one_of(
    st.integers(-3, 3).map(complex),
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=60)
@given(finite_params, finite_params)
def test_case_iii_is_exact_for_arbitrary_parameters(c, fe):
    Z3 = build_catalog_group("Z3")
    sigma = identity_involution(Z3)
    chi = trivial_character(Z3)
    m = enumerate_characters(Z3)[1]
    if c == 0:
        with pytest.raises(FamilyConstructionError):
            family_case_iii(m, chi, sigma, c, fe)
    else:
        pair = family_case_iii(m, chi, sigma, c, fe)
        assert pair.residual_sup <= 1e-9
        rep = residual_wilson(Z3, sigma, chi, pair.f, pair.g)
        assert rep.sup <= 1e-9
