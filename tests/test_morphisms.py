"""Involutive morphisms, characters, multiplicative and additive maps."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from feqlab import cli
from feqlab.groups import CATALOG_NAMES, BallDomain, FreeGroup, IntegerLattice, \
    DiscreteHeisenberg, abelianization, build_catalog_group
from feqlab.morphisms import (
    AdditiveMap,
    Character,
    Involution,
    ball_character,
    ball_involution,
    compatibility_witness,
    compatible_characters,
    enumerate_characters,
    enumerate_involutions,
    enumerate_multiplicative,
    identity_involution,
    inversion_involution,
    is_involutive,
    read_character,
    satisfies_morphism_law,
    trivial_character,
    write_character,
)


def test_involution_kind_validated():
    with pytest.raises(ValueError):
        Involution([0, 1], "isomorphism")


def test_identity_and_inversion_labels():
    Z4 = build_catalog_group("Z4")
    assert identity_involution(Z4).is_identity
    s = inversion_involution(Z4)
    assert s.is_inversion
    assert s.kind == "automorphism"  # abelian domain


def test_inversion_kind_on_nonabelian_groups():
    Q8 = build_catalog_group("Q8")
    s = inversion_involution(Q8)
    assert s.kind == "anti-automorphism"


def test_involution_counts():
    Z4 = build_catalog_group("Z4")
    assert len(enumerate_involutions(Z4, "automorphism")) == 2  # id and -k
    S3 = build_catalog_group("S3")
    assert len(enumerate_involutions(S3, "automorphism")) == 4
    assert len(enumerate_involutions(S3, "anti-automorphism")) == 4


def test_enumeration_starts_with_canonical_instances():
    S3 = build_catalog_group("S3")
    autos = enumerate_involutions(S3, "automorphism")
    assert autos[0].is_identity
    antis = enumerate_involutions(S3, "anti-automorphism")
    assert antis[0].is_inversion or antis[1].is_inversion


def test_enumerated_morphisms_satisfy_their_laws():
    # independent pointwise oracle, no vectorized shortcut
    for name in ("Z6", "S3", "D4", "Q8"):
        G = build_catalog_group(name)
        for kind in ("automorphism", "anti-automorphism"):
            for s in enumerate_involutions(G, kind):
                assert is_involutive(G, s.table)
                for a in range(G.order):
                    assert s(s(a)) == a
                    for b in range(G.order):
                        if kind == "automorphism":
                            assert s(G.op(a, b)) == G.op(s(a), s(b))
                        else:
                            assert s(G.op(a, b)) == G.op(s(b), s(a))


def test_bad_kind_rejected_in_enumeration():
    with pytest.raises(ValueError):
        enumerate_involutions(build_catalog_group("Z2"), "endomorphism")


# --- characters -----------------------------------------------------------


def test_character_counts():
    for name, count in (("Z4", 4), ("S3", 2), ("Q8", 4), ("Z2xZ2", 4), ("D4", 4)):
        assert len(enumerate_characters(build_catalog_group(name))) == count


def test_character_count_equals_abelianization_order():
    for name in ("Z6", "S3", "S4", "D4", "Q8", "Z2xZ4"):
        G = build_catalog_group(name)
        Q, _ = abelianization(G)
        assert len(enumerate_characters(G)) == Q.order


def test_z4_characters_are_fourth_roots():
    Z4 = build_catalog_group("Z4")
    chars = enumerate_characters(Z4)
    angle_sets = [tuple(c.angles) for c in chars]
    q = Fraction(1, 4)
    assert angle_sets == [
        (0, 0, 0, 0),
        (0, q, 2 * q, 3 * q),
        (0, 2 * q, 0, 2 * q),
        (0, 3 * q, 2 * q, q),
    ]
    assert np.allclose(chars[1].values, [1, 1j, -1, -1j])


def test_characters_are_unitary_homomorphisms():
    for name in ("Z8", "S3", "Q8", "Z2xZ3"):
        G = build_catalog_group(name)
        for chi in enumerate_characters(G):
            assert chi.unitary
            assert chi(0) == 1
            assert chi.check_multiplicative()


def test_character_angle_product_closure():
    # product of two characters is again a character
    G = build_catalog_group("Z6")
    chars = enumerate_characters(G)
    for a in chars:
        for b in chars:
            prod = Character.from_angles(
                G, [(x + y) % 1 for x, y in zip(a.angles, b.angles)])
            assert prod.check_multiplicative()


def test_trivial_character_on_both_domain_kinds():
    G = build_catalog_group("S3")
    assert all(t == 0 for t in trivial_character(G).angles)
    ball = BallDomain(IntegerLattice(1), 2)
    chi = trivial_character(ball)
    assert np.allclose(chi.values, 1.0) and chi.unitary


def test_compatible_characters_with_inversion_keeps_all():
    # chi(x * x^-1) = chi(e) = 1 for every character
    for name in ("Z4", "S3", "Q8"):
        G = build_catalog_group(name)
        chars = enumerate_characters(G)
        kept = compatible_characters(G, inversion_involution(G), chars)
        assert len(kept) == len(chars)


def test_compatible_characters_with_identity_filters():
    Z4 = build_catalog_group("Z4")
    kept = compatible_characters(Z4, identity_involution(Z4),
                                 enumerate_characters(Z4))
    assert [tuple(c.angles) for c in kept] == [
        (0, 0, 0, 0), (0, Fraction(1, 2), 0, Fraction(1, 2))]
    Z2 = build_catalog_group("Z2")
    kept = compatible_characters(Z2, identity_involution(Z2),
                                 enumerate_characters(Z2))
    assert len(kept) == 2


def test_multiplicative_is_zero_plus_characters():
    for name in ("Z1", "Z2", "S3"):
        G = build_catalog_group(name)
        ms = enumerate_multiplicative(G)
        assert ms[0].is_zero
        assert len(ms) == 1 + len(enumerate_characters(G))
        assert all(isinstance(m, Character) for m in ms)
        assert not any(m.is_zero for m in ms[1:])


def test_zero_character_is_multiplicative_and_not_unitary():
    G = build_catalog_group("S3")
    zero = Character.zero(G)
    assert zero.is_zero and not zero.unitary
    assert zero.angles is None and not zero.values.any()
    assert zero.check_multiplicative()


# --- the angle-based checks these replace, kept as oracles ----------------


def angle_compat_witness(G, sigma, chi):
    """First x whose exact angle sum at x and sigma(x) is not 0 mod 1."""
    for x in range(G.n):
        if (chi.angles[x] + chi.angles[sigma(x)]) % 1 != 0:
            return x, complex(chi.values[x] * chi.values[sigma(x)])
    return None


def angle_compatible_characters(domain, sigma, characters):
    return [chi for chi in characters
            if all((chi.angles[x] + chi.angles[sigma(x)]) % 1 == 0
                   for x in range(domain.n))]


def angle_check_multiplicative(chi):
    mul = chi.domain.mul
    n = chi.domain.n
    return all((chi.angles[x] + chi.angles[y]) % 1 == chi.angles[mul[x, y]]
               for x in range(n) for y in range(n))


COMPAT_GROUPS = list(CATALOG_NAMES) + ["Z4xZ8"]


@pytest.mark.parametrize("name", COMPAT_GROUPS)
def test_value_compatibility_matches_the_angle_oracle(name):
    G = build_catalog_group(name)
    chars = enumerate_characters(G)
    for kind in ("automorphism", "anti-automorphism"):
        for sigma in enumerate_involutions(G, kind):
            for chi in chars:
                got = compatibility_witness(G, sigma, chi)
                want = angle_compat_witness(G, sigma, chi)
                assert (got is None) == (want is None)
                if got is not None:
                    assert got[0] == want[0]
                    assert abs(got[1] - want[1]) <= 1e-14
            kept = compatible_characters(G, sigma, chars)
            assert [id(c) for c in kept] == \
                [id(c) for c in angle_compatible_characters(G, sigma, chars)]


def test_cli_compat_witness_is_the_library_check():
    assert cli._compat_witness is compatibility_witness


@pytest.mark.parametrize("name", COMPAT_GROUPS)
def test_value_multiplicativity_matches_the_angle_oracle(name):
    G = build_catalog_group(name)
    for chi in enumerate_characters(G):
        assert chi.check_multiplicative() and angle_check_multiplicative(chi)
        if G.order > 1:
            # a value that is no |G|-th root of unity breaks the law
            bent = list(chi.angles)
            x = 1 if G.identity == 0 else 0
            bent[x] += Fraction(1, 2 * G.order)
            bent = Character.from_angles(G, bent)
            assert not bent.check_multiplicative()
            assert not angle_check_multiplicative(bent)


def test_compatibility_on_a_ball_needs_no_product_inside_it():
    # x sigma(x) = x^2 leaves the ball at the rim; the values decide anyway
    ball = BallDomain(IntegerLattice(1), 2)
    sigma = identity_involution(ball)
    assert (ball.mul[np.arange(ball.n), sigma.table] < 0).any()
    sign = ball_character(ball, [-1.0])
    assert compatible_characters(ball, sigma, [sign]) == [sign]
    x, value = compatibility_witness(ball, sigma, ball_character(ball, [1j]))
    assert value == pytest.approx(1j ** (2 * ball.elements[x][0]))


# --- ball morphism data ---------------------------------------------------


def test_ball_involution_kinds():
    lat = BallDomain(IntegerLattice(2), 2)
    assert ball_involution(lat, "id").is_identity
    s = ball_involution(lat, "inv")
    assert s.is_inversion and s.kind == "automorphism"
    free = BallDomain(FreeGroup(2), 2)
    assert ball_involution(free, "inv").kind == "anti-automorphism"
    with pytest.raises(ValueError):
        ball_involution(lat, "conjugation")


def test_ball_character_is_a_coordinate_power():
    ball = BallDomain(IntegerLattice(1), 3)
    chi = ball_character(ball, [2.0])
    for el in ball.elements:
        assert chi.values[ball.index[el]] == 2.0 ** el[0]
    assert not chi.unitary
    assert ball_character(ball, [1j]).unitary


def test_ball_character_input_validation():
    ball = BallDomain(IntegerLattice(2), 1)
    with pytest.raises(ValueError):
        ball_character(ball, [2.0])  # needs two bases
    with pytest.raises(ValueError):
        ball_character(ball, [0.0, 1.0])


def test_ball_character_respects_products():
    ball = BallDomain(DiscreteHeisenberg(), 2)
    m = ball_character(ball, [3.0, 0.5])
    mul = ball.mul
    for i in range(ball.n):
        for j in range(ball.n):
            if mul[i, j] >= 0:
                assert np.isclose(m.values[mul[i, j]], m.values[i] * m.values[j])


def test_additive_basis_sizes():
    # an additive map has one coefficient per abelianized coordinate
    assert len(IntegerLattice(2).abelian_coords((0, 0))) == 2
    # the central coordinate is a commutator, so only two survive
    assert len(DiscreteHeisenberg().abelian_coords((0, 0, 0))) == 2


def test_additive_map_is_additive_on_ball():
    ball = BallDomain(IntegerLattice(2), 3)
    a = AdditiveMap(ball, [1.0, -2.0])
    vals = a.values()
    mul = ball.mul
    for i in range(ball.n):
        for j in range(ball.n):
            if mul[i, j] >= 0:
                assert np.isclose(vals[mul[i, j]], vals[i] + vals[j])


def test_additive_map_on_finite_group_must_be_zero():
    G = build_catalog_group("Z6")
    assert np.all(AdditiveMap(G, []).values() == 0)
    with pytest.raises(ValueError):
        AdditiveMap(G, [1.0])


# --- file formats ---------------------------------------------------------


def test_character_file_round_trip(tmp_path):
    Z4 = build_catalog_group("Z4")
    chi = enumerate_characters(Z4)[1]
    path = tmp_path / "chi.txt"
    write_character(chi, path)
    back = read_character(path, Z4)
    assert np.allclose(back.values, chi.values, atol=1e-15)


def test_character_file_rejects_non_multiplicative(tmp_path):
    Z4 = build_catalog_group("Z4")
    path = tmp_path / "chi.txt"
    path.write_text("1 0\n0.5 0\n1 0\n1 0\n")
    with pytest.raises(ValueError):
        read_character(path, Z4)


@given(st.integers(2, 9), st.integers(0, 8))
def test_cyclic_power_characters_are_multiplicative(n, m):
    G = build_catalog_group(f"Z{n}")
    chi = Character.from_angles(G, [Fraction(m * k, n) for k in range(n)])
    assert chi.check_multiplicative()
    assert chi.unitary
