"""Involutive morphisms, characters, multiplicative and additive maps."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from feqlab import cli, morphisms
from feqlab.groups import CATALOG_NAMES, BallDomain, FreeGroup, IntegerLattice, \
    DiscreteHeisenberg, Domain, build_catalog_group
from feqlab.morphisms import (
    Character,
    Involution,
    MorphismSearchTooLarge,
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
)
from morphism_oracle import abelianization, character_from_angles, \
    fraction_angles, write_character


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
            for sigma in enumerate_involutions(G, kind):
                assert is_involutive(G, sigma.table)
                s = sigma.table.tolist()
                for a in range(G.order):
                    assert s[s[a]] == a
                    for b in range(G.order):
                        if kind == "automorphism":
                            assert s[G.op(a, b)] == G.op(s[a], s[b])
                        else:
                            assert s[G.op(a, b)] == G.op(s[b], s[a])


def _search_estimates(monkeypatch, G):
    """The generator assignments of G's involution and character searches,
    read off their refusals under a zero budget, which come before any
    assignment is tried."""
    monkeypatch.setattr(morphisms, "MORPHISM_SEARCH_BUDGET", 0)
    estimates = []
    for search in (lambda: enumerate_involutions(G, "automorphism"),
                   lambda: enumerate_characters(G)):
        with pytest.raises(MorphismSearchTooLarge) as refusal:
            search()
        estimates.append(int(re.search(r"would try (\d+) generator",
                                       str(refusal.value))[1]))
    return estimates


def test_search_budget_admits_the_catalog_s5_and_z4xz8(monkeypatch):
    budget = morphisms.MORPHISM_SEARCH_BUDGET
    estimates = {name: _search_estimates(monkeypatch,
                                         build_catalog_group(name))
                 for name in CATALOG_NAMES + ["S5", "Z4xZ8"]}
    # S5's involution search is the largest: 25 candidates for each of its
    # four generators
    assert estimates["S5"] == [25 ** 4, 16]
    assert max(max(e) for e in estimates.values()) == 25 ** 4 <= budget


def test_search_over_budget_is_refused_with_the_estimate(monkeypatch):
    # 31 involutions for each of Z2^5's five generators; refused before the
    # search, where an unpruned search used to run for minutes
    G = build_catalog_group("Z2xZ2xZ2xZ2xZ2")
    with pytest.raises(MorphismSearchTooLarge, match=r"would try 28629151 "
                       r"generator assignments \(budget 2000000\)"):
        enumerate_involutions(G, "automorphism")
    assert _search_estimates(monkeypatch, G) == [31 ** 5, 32]


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
    angle_sets = [tuple(fraction_angles(c)) for c in chars]
    q = Fraction(1, 4)
    assert angle_sets == [
        (0, 0, 0, 0),
        (0, q, 2 * q, 3 * q),
        (0, 2 * q, 0, 2 * q),
        (0, 3 * q, 2 * q, q),
    ]
    assert np.allclose(chars[1].values, [1, 1j, -1, -1j])


@pytest.mark.parametrize("name", [*CATALOG_NAMES, "Z2xZ128"])
def test_angle_labels_are_the_fraction_strings(name):
    G = build_catalog_group(name)
    for chi in enumerate_characters(G):
        assert chi.angle_labels() == [str(t) for t in fraction_angles(chi)]


def test_characters_are_unitary_homomorphisms():
    for name in ("Z8", "S3", "Q8", "Z2xZ3"):
        G = build_catalog_group(name)
        for chi in enumerate_characters(G):
            assert chi.unitary
            assert chi.values[0] == 1
            assert chi.check_multiplicative()


def test_character_angle_product_closure():
    # product of two characters is again a character
    G = build_catalog_group("Z6")
    chars = enumerate_characters(G)
    for a in chars:
        for b in chars:
            prod = character_from_angles(
                G, [(x + y) % 1 for x, y in zip(fraction_angles(a),
                                                fraction_angles(b))])
            assert prod.check_multiplicative()


def test_trivial_character_on_both_domain_kinds():
    G = build_catalog_group("S3")
    assert all(t == 0 for t in fraction_angles(trivial_character(G)))
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
    assert [tuple(fraction_angles(c)) for c in kept] == [
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
    assert fraction_angles(zero) is None and not zero.values.any()
    assert zero.check_multiplicative()


# --- the angle-based checks these replace, kept as oracles ----------------


def angle_compat_witness(G, sigma, chi):
    """First x whose exact angle sum at x and sigma(x) is not 0 mod 1."""
    t, s = fraction_angles(chi), sigma.table
    for x in range(G.n):
        if (t[x] + t[s[x]]) % 1 != 0:
            return x, complex(chi.values[x] * chi.values[s[x]])
    return None


def angle_compatible_characters(domain, sigma, characters):
    return [chi for chi in characters
            if angle_compat_witness(domain, sigma, chi) is None]


def angle_check_multiplicative(chi):
    mul = chi.domain.mul
    n = chi.domain.n
    t = fraction_angles(chi)
    return all((t[x] + t[y]) % 1 == t[mul[x, y]]
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
            bent = fraction_angles(chi)
            x = 1 if G.identity == 0 else 0
            bent[x] += Fraction(1, 2 * G.order)
            bent = character_from_angles(G, bent)
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
        assert chi.values[ball.elements.index(el)] == 2.0 ** el[0]
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



INVERSION_DOMAINS = [(name, build_catalog_group(name)) for name in CATALOG_NAMES] \
    + [(f"{kind.name}_r{r}", BallDomain(kind, r))
       for kind in (IntegerLattice(1), IntegerLattice(2), DiscreteHeisenberg(),
                    FreeGroup(2))
       for r in range(5)]


@pytest.mark.parametrize("name, domain", INVERSION_DOMAINS,
                         ids=[name for name, _ in INVERSION_DOMAINS])
def test_inversion_kind_agrees_with_the_morphism_law(name, domain):
    law = satisfies_morphism_law(domain, domain.inv, "automorphism")
    assert (inversion_involution(domain).kind == "automorphism") == law
    if domain.radius is not None and domain.radius >= 2 and \
            not isinstance(domain.kind, IntegerLattice):
        # some pairs have exactly one of xy, yx in the ball
        one_sided = (domain.mul >= 0) != (domain.mul.T >= 0)
        assert one_sided.any() and not law


def test_inversion_kind_skips_products_that_leave_the_domain():
    # Z^1 r=3 with the product 1 * 2 cut out, but 2 * 1 kept: the law only
    # compares xy with yx where both are defined
    ball = BallDomain(IntegerLattice(1), 3)
    mul = ball.mul.copy()
    mul[ball.elements.index((1,)), ball.elements.index((2,))] = -1
    cut = Domain(mul, name="cut", kind=ball.kind, elements=ball.elements,
                 length=ball.length, radius=3, coords=ball.coords)
    assert satisfies_morphism_law(cut, cut.inv, "automorphism")
    assert inversion_involution(cut).kind == "automorphism"

def test_additive_basis_sizes():
    # an additive map has one coefficient per abelianized coordinate
    assert BallDomain(IntegerLattice(2), 1).coords.shape[1] == 2
    # the central coordinate is a commutator, so only two survive
    assert BallDomain(DiscreteHeisenberg(), 1).coords.shape[1] == 2


def test_additive_map_is_additive_on_ball():
    ball = BallDomain(IntegerLattice(2), 3)
    vals = ball.coords @ [1, -2]
    mul = ball.mul
    for i in range(ball.n):
        for j in range(ball.n):
            if mul[i, j] >= 0:
                assert np.isclose(vals[mul[i, j]], vals[i] + vals[j])


def test_additive_map_on_finite_group_must_be_zero():
    # torsion: a finite group has no abelianized integer coordinate
    assert build_catalog_group("Z6").coords.shape == (6, 0)


# --- file formats ---------------------------------------------------------


def test_character_file_round_trip(tmp_path):
    Z4 = build_catalog_group("Z4")
    chi = enumerate_characters(Z4)[1]
    path = tmp_path / "chi.txt"
    write_character(chi, path)
    back = read_character(path, Z4)
    assert np.allclose(back.values, chi.values, atol=1e-15)


def test_character_file_with_a_byte_order_mark_is_read(tmp_path):
    Z4 = build_catalog_group("Z4")
    chi = enumerate_characters(Z4)[1]
    path = tmp_path / "chi.txt"
    write_character(chi, path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert np.array_equal(read_character(path, Z4).values, chi.values)


def test_character_file_rejects_non_multiplicative(tmp_path):
    Z4 = build_catalog_group("Z4")
    path = tmp_path / "chi.txt"
    path.write_text("1 0\n0.5 0\n1 0\n1 0\n")
    with pytest.raises(ValueError):
        read_character(path, Z4)


@given(st.integers(2, 9), st.integers(0, 8))
def test_cyclic_power_characters_are_multiplicative(n, m):
    G = build_catalog_group(f"Z{n}")
    chi = character_from_angles(G, [Fraction(m * k, n) for k in range(n)])
    assert chi.check_multiplicative()
    assert chi.unitary
