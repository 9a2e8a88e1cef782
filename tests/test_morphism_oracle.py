"""The generator-image search against the reference enumerations: the
abelianization route for characters and the per-assignment Cayley walk for
involutions, compared bit for bit; and the integer turns of characters
against the Fraction angle arithmetic they replaced."""

import hashlib
from fractions import Fraction

import pytest

import morphism_oracle as oracle
from completeness_oracle import family_span_for_g
from feqlab.families import twisted_companion
from feqlab.groups import CATALOG_NAMES, build_catalog_group
from feqlab.morphisms import (compatible_characters, enumerate_characters,
                              enumerate_involutions, enumerate_multiplicative,
                              is_involutive, satisfies_morphism_law,
                              trivial_character)
from feqlab.solver import _angle_key, _key_label, candidate_gs

KINDS = ("automorphism", "anti-automorphism")

# every catalog group plus larger abelian, dihedral and product groups; S5's
# involutions are checked against a digest below, since the reference
# search takes about 30 s on them
GROUPS = CATALOG_NAMES + ["Z4xZ8", "D8", "Q8xZ2", "Z2xZ2xZ2"]

# involutions_digest(oracle.enumerate_involutions(S5, kind)) for each kind,
# recorded once with
#   PYTHONPATH=src:tests python -c "import morphism_oracle as o, \
#   test_morphism_oracle as t; from feqlab.groups import build_catalog_group \
#   as b; print([t.involutions_digest(o.enumerate_involutions(b('S5'), k)) \
#   for k in t.KINDS])"
S5_INVOLUTION_DIGESTS = {
    "automorphism":
        "acadda7926b5f140a0aa55321de6baf3be65d8fb4fba0e90c0a1cdfec2a1bdc2",
    "anti-automorphism":
        "ce9db4a54088a05419f514ab9b40e92ac0a5bf9c964e3b1d253420e9f15c60a2",
}


def involutions_digest(found):
    h = hashlib.sha256()
    for s in found:
        h.update(f"{s.kind} {s.label} {s.table.tolist()}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", GROUPS + ["S5"])
def test_characters_match_the_abelianization_route(name):
    G = build_catalog_group(name)
    got, want = enumerate_characters(G), oracle.enumerate_characters(G)
    assert list(map(oracle.fraction_angles, got)) == \
        list(map(oracle.fraction_angles, want))
    assert [c.values.tobytes() for c in got] == \
        [c.values.tobytes() for c in want]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", GROUPS)
def test_involutions_match_the_reference_search(name, kind):
    G = build_catalog_group(name)
    got, want = enumerate_involutions(G, kind), \
        oracle.enumerate_involutions(G, kind)
    assert [(s.table.tobytes(), s.label, s.kind) for s in got] == \
        [(s.table.tobytes(), s.label, s.kind) for s in want]
    # the search checks Cayley edges only; every product must follow
    assert all(satisfies_morphism_law(G, s.table, kind) for s in got)


@pytest.mark.parametrize("kind", KINDS)
def test_s5_involutions_match_the_recorded_reference(kind):
    G = build_catalog_group("S5")
    found = enumerate_involutions(G, kind)
    assert len(found) == 26
    assert len(enumerate_characters(G)) == 2
    for s in found:
        assert is_involutive(G, s.table)
        assert satisfies_morphism_law(G, s.table, kind)
    assert involutions_digest(found) == S5_INVOLUTION_DIGESTS[kind]


def _combos(G):
    chars = enumerate_characters(G)
    for sigma in enumerate_involutions(G, "automorphism"):
        for chi in compatible_characters(G, sigma, chars):
            yield sigma, chi


@pytest.mark.parametrize("name", CATALOG_NAMES + ["Z4xZ8"])
def test_turns_match_the_fraction_angles(name):
    G = build_catalog_group(name)
    ms = enumerate_multiplicative(G)
    for sigma, chi in _combos(G):
        companions = [oracle.twisted_companion(m, chi, sigma) for m in ms]
        for m, (_, angles) in zip(ms, companions):
            assert oracle.fraction_angles(
                twisted_companion(m, chi, sigma)) == angles
        got = candidate_gs(G, sigma, chi)
        want = oracle.candidate_groups(ms, companions)
        assert [[v.tobytes() for v in fam] for _, _, fam in got] == \
            [[v.tobytes() for v in family_span_for_g(G, sigma, chi, group)]
             for _, group in want]
        assert [_key_label(key) for key, _, _ in got] == \
            [oracle.key_label(key) for key, _ in want]



@pytest.mark.parametrize("name", GROUPS + ["S5"])
def test_edge_walk_picks_the_greedy_closure_generators(name):
    G = build_catalog_group(name)
    gens, levels = G.edge_levels
    assert gens == oracle.generating_set(G)
    assert len(levels) == len(gens)

def _exact_characters(G):
    """Enumerated characters over the group exponent; the trivial one over
    period 1; the same angles through the oracle's character_from_angles,
    over the lcm of their reduced denominators; shifted by 1/3, a period
    that need not divide the exponent; and bent tables that are not
    characters."""
    chars = enumerate_characters(G)
    out = list(chars) + [trivial_character(G)]
    for chi in chars:
        angles = oracle.fraction_angles(chi)
        out.append(oracle.character_from_angles(G, angles))
        out.append(oracle.character_from_angles(
            G, [t + Fraction(1, 3) for t in angles]))
        bent = list(angles)
        bent[-1] += Fraction(1, 2 * G.order)
        out.append(oracle.character_from_angles(G, bent))
    return out


@pytest.mark.parametrize("name", ["Z1", "Z6", "Q8", "S4", "Z4xZ8"])
def test_from_angles_values_are_bit_equal_to_the_fraction_route(name):
    G = build_catalog_group(name)
    for chi in _exact_characters(G):
        assert chi.values.tobytes() == \
            oracle.angle_values(oracle.fraction_angles(chi)).tobytes()


@pytest.mark.parametrize("name", ["Z1", "Z6", "Q8", "S4", "Z4xZ8"])
def test_turn_keys_are_equal_exactly_when_angle_tuples_are(name):
    G = build_catalog_group(name)
    chars = _exact_characters(G)
    angles = [tuple(oracle.fraction_angles(chi)) for chi in chars]
    for a, a_angles in zip(chars, angles):
        for b, b_angles in zip(chars, angles):
            same = a_angles == b_angles
            assert (_angle_key(a) == _angle_key(b)) is same
            assert (len({_angle_key(a), _angle_key(b)}) == 1) is same
    assert len({chi.period for chi in chars}) > 2
