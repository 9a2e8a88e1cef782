"""The generator-image search against the reference enumerations: the
abelianization route for characters and the per-assignment Cayley walk for
involutions, compared bit for bit."""

import pytest

import morphism_oracle as oracle
from feqlab.groups import CATALOG_NAMES, build_catalog_group
from feqlab.morphisms import enumerate_characters, enumerate_involutions

# every catalog group plus larger abelian, dihedral and product groups; the
# S5 involution search takes seconds, so S5 is left out
GROUPS = CATALOG_NAMES + ["Z4xZ8", "D8", "Q8xZ2", "Z2xZ2xZ2"]


@pytest.mark.parametrize("name", GROUPS)
def test_characters_match_the_abelianization_route(name):
    G = build_catalog_group(name)
    got, want = enumerate_characters(G), oracle.enumerate_characters(G)
    assert [c.angles for c in got] == [c.angles for c in want]
    assert [c.values.tobytes() for c in got] == \
        [c.values.tobytes() for c in want]


@pytest.mark.parametrize("kind", ["automorphism", "anti-automorphism"])
@pytest.mark.parametrize("name", GROUPS)
def test_involutions_match_the_reference_search(name, kind):
    G = build_catalog_group(name)
    got, want = enumerate_involutions(G, kind), \
        oracle.enumerate_involutions(G, kind)
    assert [(s.table.tobytes(), s.label, s.kind) for s in got] == \
        [(s.table.tobytes(), s.label, s.kind) for s in want]
