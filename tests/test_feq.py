"""Residual evaluators and derived functions.

The frozen vectors below were derived by hand from the closed forms
(fourth-root characters on Z4, half-sums on Z6) and double-checked against
an independent pointwise sweep.
"""

import numpy as np
import pytest

from feqlab.feq import (
    GroupFunction,
    companion_mg,
    parity_parts,
    read_function,
    residual_dalembert,
    residual_symmetrized_cauchy,
    residual_wilson,
    section_function,
    write_function,
    zero_tolerance,
)
from feqlab.feq import _report
from feqlab.groups import BallDomain, DiscreteHeisenberg, FreeGroup, \
    IntegerLattice, build_catalog_group
from feqlab.morphisms import (
    ball_involution,
    enumerate_characters,
    identity_involution,
    inversion_involution,
    trivial_character,
)


def z4_mixed_pair():
    """g = (i^k + 1)/2 with chi = i^k and sigma = -k; f = 2g is exact."""
    Z4 = build_catalog_group("Z4")
    sigma = inversion_involution(Z4)
    chi = enumerate_characters(Z4)[1]
    g = GroupFunction(Z4, [1.0, (1 + 1j) / 2, 0.0, (1 - 1j) / 2])
    f = 2.0 * g
    return Z4, sigma, chi, f, g


def test_zero_tolerances():
    assert zero_tolerance(build_catalog_group("Z2")) == 1e-12
    assert zero_tolerance(BallDomain(IntegerLattice(1), 1)) == 1e-9


def test_exact_mixed_pair_has_zero_residual():
    Z4, sigma, chi, f, g = z4_mixed_pair()
    rep = residual_wilson(Z4, sigma, chi, f, g)
    assert rep.sup <= 1e-12
    assert rep.pairs == 16 and rep.skipped == 0


def test_bumped_pair_residual_is_positive_and_bounded():
    Z4, sigma, chi, f, g = z4_mixed_pair()
    bumped = GroupFunction(Z4, f.values + np.array([0.1, 0, 0, 0]))
    rep = residual_wilson(Z4, sigma, chi, bumped, g)
    assert rep.sup > 0.01
    assert rep.sup <= 0.1 * (2 + 2 * g.sup()) + 1e-12


def test_constant_half_on_z2_misses_by_half():
    Z2 = build_catalog_group("Z2")
    f = GroupFunction(Z2, [0.5, 0.5])
    rep = residual_dalembert(Z2, identity_involution(Z2), trivial_character(Z2), f)
    assert rep.sup == 0.5  # 0.5 + 0.5 - 2*0.25, exactly representable


def test_zero_function_is_always_exact():
    S3 = build_catalog_group("S3")
    g = GroupFunction(S3, np.arange(6, dtype=float))  # arbitrary g
    rep = residual_wilson(S3, inversion_involution(S3), trivial_character(S3),
                          GroupFunction.zero(S3), g)
    assert rep.sup == 0.0


def test_symmetrized_cauchy_on_characters_and_on_a_non_solution():
    S3 = build_catalog_group("S3")
    for chi in enumerate_characters(S3):
        rep = residual_symmetrized_cauchy(S3, GroupFunction(S3, chi.values))
        assert rep.sup <= 1e-12
    # half the 2-dim trace is not multiplicative; worst pair is (t, t)
    half = GroupFunction(S3, [1, 0, 0, -0.5, -0.5, 0])
    assert residual_symmetrized_cauchy(S3, half).sup == 2.0


def old_symmetrized_cauchy(domain, f):
    """The symmetrized Cauchy residual as written out before it delegated
    to the pair residual."""
    mul = domain.mul
    xy, yx = mul, mul.T
    valid = (xy >= 0) & (yx >= 0)
    fv = f.values
    resid = np.abs(fv[np.maximum(xy, 0)] + fv[np.maximum(yx, 0)]
                   - 2.0 * fv[:, None] * fv[None, :])
    return _report(resid, valid)


CAUCHY_DOMAINS = {
    "Z1_r3": lambda: BallDomain(IntegerLattice(1), 3),
    "Z1_r6": lambda: BallDomain(IntegerLattice(1), 6),
    "Z2_r2": lambda: BallDomain(IntegerLattice(2), 2),
    "Z2_r4": lambda: BallDomain(IntegerLattice(2), 4),
    "Z2_r8": lambda: BallDomain(IntegerLattice(2), 8),
    "H3_r2": lambda: BallDomain(DiscreteHeisenberg(), 2),
    "H3_r3": lambda: BallDomain(DiscreteHeisenberg(), 3),
    "F2_r2": lambda: BallDomain(FreeGroup(2), 2),
    "F2_r3": lambda: BallDomain(FreeGroup(2), 3),
    "S3": lambda: build_catalog_group("S3"),
    "Q8": lambda: build_catalog_group("Q8"),
    "Z6": lambda: build_catalog_group("Z6"),
}


@pytest.mark.parametrize("name", CAUCHY_DOMAINS)
def test_symmetrized_cauchy_equals_the_old_closed_form(name):
    domain = CAUCHY_DOMAINS[name]()
    rng = np.random.default_rng(domain.n)
    for _ in range(10):
        f = GroupFunction(domain, rng.normal(size=domain.n)
                          + 1j * rng.normal(size=domain.n))
        assert residual_symmetrized_cauchy(domain, f) == \
            old_symmetrized_cauchy(domain, f)


def test_ball_residual_counts_skipped_pairs():
    ball = BallDomain(IntegerLattice(1), 2)
    one = GroupFunction(ball, np.ones(ball.n))
    rep = residual_wilson(ball, ball_involution(ball, "id"),
                          trivial_character(ball), one, one)
    # 25 pairs, 6 with x+y outside the radius-2 window
    assert rep.pairs == 19 and rep.skipped == 6
    assert rep.sup == 0.0


def test_group_function_validation_and_algebra():
    Z4 = build_catalog_group("Z4")
    with pytest.raises(ValueError):
        GroupFunction(Z4, [1.0, 2.0])
    with pytest.raises(ValueError):
        GroupFunction(Z4, [1.0, np.nan, 0, 0])
    f = GroupFunction(Z4, [1, 2j, -3, 0])
    assert f.sup() == 3.0
    assert f.at_identity() == 1.0
    assert np.array_equal((2 * f - f).values, f.values)


def test_function_file_round_trip_is_exact(tmp_path):
    Z4 = build_catalog_group("Z4")
    f = GroupFunction(Z4, [1 / 3, np.pi * 1j, -1e-17, 2 ** 0.5])
    path = tmp_path / "f.txt"
    write_function(f, path)
    back = read_function(Z4, path)
    # 17 significant digits round-trip doubles exactly
    assert np.array_equal(back.values, f.values)


def test_function_file_size_mismatch_rejected(tmp_path):
    path = tmp_path / "f.txt"
    write_function(GroupFunction.zero(build_catalog_group("Z2")), path)
    with pytest.raises(ValueError):
        read_function(build_catalog_group("Z4"), path)


# --- derived quantities ---------------------------------------------------


def test_companion_of_a_character_is_its_square():
    Z4 = build_catalog_group("Z4")
    chi = enumerate_characters(Z4)[1]
    mg = companion_mg(GroupFunction(Z4, chi.values))
    assert np.allclose(mg.values, chi.values ** 2)


def test_companion_of_mixed_g_recovers_chi():
    Z4, sigma, chi, f, g = z4_mixed_pair()
    mg = companion_mg(g)
    assert np.allclose(mg.values, chi.values, atol=1e-12)
    # and it is multiplicative across the whole table
    for y in range(4):
        for z in range(4):
            assert np.isclose(mg.values[Z4.op(y, z)], mg.values[y] * mg.values[z])


def test_companion_on_z6_cosine_is_constant_one():
    Z6 = build_catalog_group("Z6")
    g = GroupFunction(Z6, np.cos(np.pi * np.arange(6) / 3))
    assert np.allclose(companion_mg(g).values, 1.0, atol=1e-12)
    rep = residual_dalembert(Z6, inversion_involution(Z6), trivial_character(Z6), g)
    assert rep.sup <= 1e-12


def test_companion_is_partial_on_balls():
    ball = BallDomain(IntegerLattice(1), 2)
    g = GroupFunction(ball, np.ones(ball.n))
    mg = companion_mg(g)
    assert mg.values[ball.index[(2,)]] == 0  # (2,)^2 leaves the window
    assert mg.values[ball.index[(1,)]] == 1


def test_section_at_identity_is_f_minus_fe_g():
    Z4, sigma, chi, f, g = z4_mixed_pair()
    fa = section_function(f, g, Z4.identity)
    assert np.allclose(fa.values, f.values - f.at_identity() * g.values)


def test_section_of_exact_pair_solves_sine_addition():
    Z4, sigma, chi, f, g = z4_mixed_pair()
    for a in range(4):
        fa = section_function(f, g, a)
        for x in range(4):
            for y in range(4):
                lhs = fa.values[Z4.op(x, y)]
                rhs = fa.values[x] * g.values[y] + fa.values[y] * g.values[x]
                assert abs(lhs - rhs) <= 1e-12


def test_parity_parts_reconstruct_and_split():
    Z4, sigma, chi, f, g = z4_mixed_pair()
    fe, fo = parity_parts(f, sigma, chi)
    assert np.allclose(fe.values + fo.values, f.values)
    # chi * (f o sigma) applied twice returns f, so the parts are projections
    fee, feo = parity_parts(fe, sigma, chi)
    assert np.allclose(fee.values, fe.values, atol=1e-12)
    assert np.allclose(feo.values, 0.0, atol=1e-12)


def test_parity_with_identity_sigma_and_trivial_chi_is_trivial():
    Z4 = build_catalog_group("Z4")
    f = GroupFunction(Z4, [1, 2, 3, 4])
    fe, fo = parity_parts(f, identity_involution(Z4), trivial_character(Z4))
    assert np.array_equal(fe.values, f.values)
    assert np.array_equal(fo.values, np.zeros(4))


def test_odd_vector_has_zero_even_part():
    Z4 = build_catalog_group("Z4")
    f = GroupFunction(Z4, [0, 2j, 0, -2j])  # i^k - i^{-k}
    fe, _ = parity_parts(f, inversion_involution(Z4), trivial_character(Z4))
    assert np.allclose(fe.values, 0.0)
