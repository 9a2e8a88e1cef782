"""Cayley-table groups, the catalog, and word-length balls."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feqlab.groups import (
    BallDomain,
    DiscreteHeisenberg,
    Domain,
    FreeGroup,
    IntegerLattice,
    abelianization,
    build_catalog_group,
    commutator_subgroup,
    direct_product,
    CATALOG_NAMES,
)

KNOWN_ORDERS = {
    "Z1": 1, "Z2": 2, "Z3": 3, "Z4": 4, "Z5": 5, "Z6": 6, "Z7": 7, "Z8": 8,
    "Z2xZ2": 4, "Z2xZ4": 8, "Z2xZ3": 6, "S3": 6, "S4": 24, "D4": 8, "Q8": 8,
}


def test_cyclic_addition_wraps():
    Z4 = Domain.cyclic(4)
    assert Z4.op(1, 3) == 0
    assert Z4.op(2, 3) == 1
    assert Z4.inverse(1) == 3


def test_catalog_names_and_orders():
    assert set(KNOWN_ORDERS) == set(CATALOG_NAMES)
    for name, order in KNOWN_ORDERS.items():
        G = build_catalog_group(name)
        assert G.order == order
        assert G.identity == 0


def test_group_axioms_hold_across_catalog():
    for name in CATALOG_NAMES:
        G = build_catalog_group(name)
        G.check()  # raises on violation
        for a in range(G.order):
            assert G.op(a, G.inverse(a)) == G.identity
            assert G.op(G.inverse(a), a) == G.identity


def test_symmetric_group_is_nonabelian():
    S3 = build_catalog_group("S3")
    assert S3.order == 6
    assert not S3.is_abelian()


def test_quaternion_has_unique_order_two_element():
    Q8 = build_catalog_group("Q8")
    assert not Q8.is_abelian()
    order_two = [a for a in range(8) if Q8.element_order(a) == 2]
    assert len(order_two) == 1
    # that element is central
    c = order_two[0]
    assert all(Q8.op(c, a) == Q8.op(a, c) for a in range(8))


def test_klein_four_has_exponent_two():
    V = build_catalog_group("Z2xZ2")
    assert V.is_abelian()
    assert all(V.op(a, a) == V.identity for a in range(4))


def test_direct_product_structure():
    S3 = build_catalog_group("S3")
    Z2 = build_catalog_group("Z2")
    P = direct_product(S3, Z2)
    assert P.order == 12
    assert not P.is_abelian()
    # G-major pair order: (a, b) at index a*|H| + b
    assert P.op(1 * 2 + 0, 0 * 2 + 1) == 1 * 2 + 1


def test_bad_group_specs_rejected():
    for spec in ("X5", "Zx", "S6", "D9", "Z0"):
        with pytest.raises(ValueError):
            build_catalog_group(spec)


def test_non_associative_table_rejected():
    # constraint: check() must catch a broken table, not just range errors
    mul = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    mul[2, 2] = 2  # breaks associativity while staying in range
    with pytest.raises(ValueError):
        Domain(mul)


def test_duplicate_inverse_rejected():
    mul = np.array([[0, 1], [1, 1]])  # 1*1 = 1 leaves 1 with no inverse
    with pytest.raises(ValueError, match="element 1 has 0 right inverses"):
        Domain(mul)


def test_commutator_subgroup_s3_is_the_three_cycles():
    S3 = build_catalog_group("S3")
    N = commutator_subgroup(S3)
    assert len(N) == 3
    assert all(S3.element_order(a) in (1, 3) for a in N)


def test_abelianization_examples():
    Z4 = build_catalog_group("Z4")
    Q, proj = abelianization(Z4)
    assert Q.order == 4 and sorted(proj) == [0, 1, 2, 3]

    S3 = build_catalog_group("S3")
    Q, proj = abelianization(S3)
    assert Q.order == 2
    assert proj[S3.identity] == 0

    Q8 = build_catalog_group("Q8")
    Q, _ = abelianization(Q8)
    assert Q.order == 4
    assert all(Q.op(a, a) == Q.identity for a in range(4))


# --- balls ----------------------------------------------------------------


def test_lattice_ball_counts():
    assert BallDomain(IntegerLattice(1), 3).n == 7
    assert BallDomain(IntegerLattice(2), 2).n == 13
    assert BallDomain(DiscreteHeisenberg(), 2).n == 17


def test_free_group_ball_count():
    assert BallDomain(FreeGroup(2), 2).n == 17  # 1 + 4 + 4*3


def test_ball_radius_zero_is_identity_only():
    ball = BallDomain(IntegerLattice(2), 0)
    assert ball.n == 1
    assert ball.elements == [(0, 0)]


@pytest.mark.parametrize("kind", [IntegerLattice(1), IntegerLattice(2),
                                  DiscreteHeisenberg(), FreeGroup(2)],
                         ids=lambda kind: kind.name)
def test_restricted_ball_equals_a_fresh_build(kind):
    # the growth experiments build their largest ball once and restrict it
    large = BallDomain(kind, 4)
    for r in range(5):
        small, fresh = large.restrict(r), BallDomain(kind, r)
        assert np.array_equal(small.mul, fresh.mul)
        assert np.array_equal(small.inv, fresh.inv)
        assert small.elements == fresh.elements
        assert small.index == fresh.index
        assert np.array_equal(small.length, fresh.length)
        assert np.array_equal(small.coords, fresh.coords)
        assert small.coords.dtype == fresh.coords.dtype == np.int64
        assert (small.name, small.radius) == (fresh.name, fresh.radius)
        assert small.is_total == fresh.is_total
    assert large.restrict(4) is large  # no copy of the table
    with pytest.raises(ValueError):
        large.restrict(5)
    with pytest.raises(ValueError):
        large.restrict(-1)


def test_finite_group_has_no_sub_balls_and_no_coordinates():
    Z4 = build_catalog_group("Z4")
    assert Z4.kind is None and Z4.is_total
    assert Z4.coords.shape == (4, 0)
    with pytest.raises(ValueError):
        Z4.restrict(0)


def test_ball_products_outside_are_marked():
    ball = BallDomain(IntegerLattice(1), 2)
    i2, i1 = ball.index[(2,)], ball.index[(1,)]
    assert ball.op(i2, i1) == -1
    assert ball.op(i2, ball.index[(-1,)]) == ball.index[(1,)]


def test_ball_inverses_are_total():
    for kind in (IntegerLattice(2), DiscreteHeisenberg(), FreeGroup(2)):
        ball = BallDomain(kind, 2)
        assert (ball.inv >= 0).all()
        for i in range(ball.n):
            assert ball.op(i, ball.inverse(i)) == ball.identity


def test_ball_cap_enforced():
    with pytest.raises(ValueError):
        BallDomain(IntegerLattice(2), 10, cap=50)


def test_ball_negative_radius_rejected():
    with pytest.raises(ValueError):
        BallDomain(IntegerLattice(1), -1)


def test_heisenberg_is_noncommutative():
    H = DiscreteHeisenberg()
    x, y = (1, 0, 0), (0, 1, 0)
    assert H.mult(x, y) == (1, 1, 1)
    assert H.mult(y, x) == (1, 1, 0)


vectors = st.lists(st.integers(-20, 20), min_size=2, max_size=2).map(tuple)


@given(vectors, vectors)
def test_lattice_mult_is_componentwise(a, b):
    L = IntegerLattice(2)
    assert L.mult(a, b) == (a[0] + b[0], a[1] + b[1])


triples = st.lists(st.integers(-5, 5), min_size=3, max_size=3).map(tuple)


@given(triples, triples, triples)
def test_heisenberg_mult_is_associative(u, v, w):
    H = DiscreteHeisenberg()
    assert H.mult(H.mult(u, v), w) == H.mult(u, H.mult(v, w))
    assert H.abelian_coords(H.mult(u, v)) == (u[0] + v[0], u[1] + v[1])


letters = st.integers(-2, 2).filter(lambda k: k != 0)


@given(st.lists(letters, max_size=8))
def test_free_group_words_reduce(raw):
    F = FreeGroup(2)
    w = F.identity()
    for letter in raw:
        w = F.mult(w, (letter,))
    # reduced: no adjacent letter cancels
    assert all(w[i] != -w[i + 1] for i in range(len(w) - 1))


@settings(max_examples=25)
@given(st.integers(1, 4), st.integers(1, 4))
def test_ball_sizes_monotone_in_radius(r1, r2):
    lo, hi = sorted((r1, r2))
    assert BallDomain(FreeGroup(2), lo).n <= BallDomain(FreeGroup(2), hi).n
