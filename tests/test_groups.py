"""Cayley-table groups, the catalog, and word-length balls."""

import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feqlab import groups
from feqlab.groups import (
    BallDomain,
    DiscreteHeisenberg,
    Domain,
    FreeGroup,
    GROUP_ORDER_CAP,
    IntegerLattice,
    build_catalog_group,
    direct_product,
    CATALOG_NAMES,
)
import ball_oracle
import group_oracle
from morphism_oracle import abelianization, commutator_subgroup

KNOWN_ORDERS = {
    "Z1": 1, "Z2": 2, "Z3": 3, "Z4": 4, "Z5": 5, "Z6": 6, "Z7": 7, "Z8": 8,
    "Z2xZ2": 4, "Z2xZ4": 8, "Z2xZ3": 6, "S3": 6, "S4": 24, "D4": 8, "Q8": 8,
}


def test_cyclic_addition_wraps():
    Z4 = Domain.cyclic(4)
    assert Z4.op(1, 3) == 0
    assert Z4.op(2, 3) == 1
    assert Z4.inv[1] == 3


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
            assert G.op(a, G.inv[a]) == G.identity
            assert G.op(G.inv[a], a) == G.identity


def test_symmetric_group_is_nonabelian():
    S3 = build_catalog_group("S3")
    assert S3.order == 6
    assert not S3.is_abelian()


def _from_func(elements, mult, name):
    """The group table of an element list (identity first) under a Python
    multiplication of elements, filled entry by entry."""
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    mul = np.zeros((n, n), dtype=np.int64)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            mul[i, j] = index[mult(a, b)]
    return Domain(mul, name=name)


def _symmetric_by_compose(n):
    """S_n through a Python compose on each pair of permutation tuples, in
    lexicographic order."""
    perms = list(itertools.permutations(range(n)))

    def compose(p, q):  # (p*q)(i) = p(q(i))
        return tuple(p[q[i]] for i in range(n))

    return _from_func(perms, compose, f"S{n}")


def _dihedral_by_pairs(n):
    """D_n on pairs (i, k) for s^i r^k, rotations first."""
    elements = [(0, k) for k in range(n)] + [(1, k) for k in range(n)]

    def mult(a, b):
        # (s^i r^k)(s^j r^m) = s^(i+j) r^(((-1)^j) k + m)
        (i, k), (j, m) = a, b
        return ((i + j) % 2, ((k if j == 0 else -k) + m) % n)

    return _from_func(elements, mult, f"D{n}")


def _quaternion_by_units():
    """Q8 on (sign, unit) pairs, each unit followed by its negative."""
    table = {  # unit products, (u, v) -> (sign, unit)
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"),
        ("1", "k"): (1, "k"), ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"),
        ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"), ("j", "1"): (1, "j"),
        ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
        ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"),
        ("k", "k"): (-1, "1"),
    }
    elements = [(s, u) for u in "1ijk" for s in (1, -1)]

    def mult(a, b):
        (sa, ua), (sb, ub) = a, b
        s, u = table[(ua, ub)]
        return (sa * sb * s, u)

    return _from_func(elements, mult, "Q8")


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_symmetric_table_equals_the_compose_oracle(n):
    G, want = Domain.symmetric(n), _symmetric_by_compose(n)
    assert G.mul.dtype == want.mul.dtype
    assert G.mul.tobytes() == want.mul.tobytes()
    assert G.inv.tobytes() == want.inv.tobytes()
    assert G.name == want.name


@pytest.mark.parametrize("G, want",
                         [(Domain.dihedral(n), _dihedral_by_pairs(n))
                          for n in range(1, 9)]
                         + [(Domain.quaternion(), _quaternion_by_units())],
                         ids=[f"D{n}" for n in range(1, 9)] + ["Q8"])
def test_index_arithmetic_table_equals_the_pair_oracle(G, want):
    assert G.mul.dtype == want.mul.dtype == np.int64
    assert G.mul.tobytes() == want.mul.tobytes()
    assert G.inv.tobytes() == want.inv.tobytes()
    assert G.name == want.name


def test_quaternion_has_unique_order_two_element():
    Q8 = build_catalog_group("Q8")
    assert not Q8.is_abelian()
    order_two = [a for a in range(8) if Q8.element_orders[a] == 2]
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


# a loop of order 5 that is not a group: (1*2)*2 = 3*2 = 4, 1*(2*2) = 1*0 = 1
NON_ASSOCIATIVE_LOOP_5 = [[0, 1, 2, 3, 4],
                          [1, 0, 3, 4, 2],
                          [2, 4, 0, 1, 3],
                          [3, 2, 4, 0, 1],
                          [4, 3, 1, 2, 0]]


def random_loop(n, rng):
    """A random loop of order n: a Latin square whose row and column 0 are
    the identity, filled cell by cell in row order with random symbols and
    backtracking."""
    mul = np.zeros((n, n), dtype=np.int64)
    mul[0] = mul[:, 0] = np.arange(n)
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        used = set(mul[i, :j].tolist()) | set(mul[:i, j].tolist())
        for v in rng.permutation(n).tolist():
            if v not in used:
                mul[i, j] = v
                if fill(k + 1):
                    return True
        return False

    assert fill(0)
    return mul


def accepts(mul):
    try:
        Domain(mul)
    except ValueError as exc:
        assert str(exc) == "table is not associative"
        return False
    return True


def test_fixed_non_associative_loop_is_rejected():
    mul = np.array(NON_ASSOCIATIVE_LOOP_5)
    assert not group_oracle.is_associative(mul)
    with pytest.raises(ValueError, match="table is not associative"):
        Domain(mul)


def test_light_test_agrees_with_the_cubic_check_on_random_loops():
    # a loop has an identity and unique inverses, so only associativity
    # can fail; orders 3 and 4 are groups, most loops of orders 5-7 are not
    rng = np.random.default_rng(0)
    verdicts = []
    for k in range(400):
        mul = random_loop(3 + k % 5, rng)
        verdicts.append(group_oracle.is_associative(mul))
        assert accepts(mul) == verdicts[-1], mul.tolist()
    assert 0 < sum(verdicts) < len(verdicts)


def test_catalog_groups_pass_the_cubic_check():
    for name in CATALOG_NAMES + ["S5", "D8", "Z4xZ8"]:
        assert group_oracle.is_associative(build_catalog_group(name).mul)


def test_building_z256_takes_no_cubic_memory():
    # the two n^3 int64 grids of the cubic check took 272.5 MiB here
    tracemalloc.start()
    try:
        build_catalog_group("Z256")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_duplicate_inverse_rejected():
    mul = np.array([[0, 1], [1, 1]])  # 1*1 = 1 leaves 1 with no inverse
    with pytest.raises(ValueError, match="element 1 has 0 right inverses"):
        Domain(mul)


def test_commutator_subgroup_s3_is_the_three_cycles():
    S3 = build_catalog_group("S3")
    N = commutator_subgroup(S3)
    assert len(N) == 3
    assert all(S3.element_orders[a] in (1, 3) for a in N)


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


def test_over_cap_group_is_refused_before_any_table():
    Z32 = Domain.cyclic(32)
    errors = []
    tracemalloc.start()
    try:
        for build in (lambda: Domain.cyclic(1000),
                      lambda: direct_product(Z32, Z32),
                      lambda: Domain.symmetric(6),
                      # the estimates for these overflow a float
                      lambda: Domain.symmetric(100),
                      lambda: Domain.cyclic(10**110)):
            with pytest.raises(ValueError) as info:
                build()
            errors.append(str(info.value))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert errors[0].startswith("group Z1000 of order 1000 exceeds the "
                                f"order cap {GROUP_ORDER_CAP}")
    assert errors[1].startswith("group Z32xZ32 of order 1024 exceeds")
    assert errors[2].startswith("group S6 of order 720 exceeds the order cap")
    assert "system of 5695.31 MiB" in errors[2]
    assert errors[3].startswith("group S100 of order 933262154439441")
    assert "system of 1.52588e+325 MiB" in errors[4]
    assert all("MiB" in e for e in errors)
    # one row of the Z1000 table alone would take 8000 bytes
    assert peak < 8000


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
    i2, i1 = ball.elements.index((2,)), ball.elements.index((1,))
    assert ball.op(i2, i1) == -1
    assert ball.op(i2, ball.elements.index((-1,))) == ball.elements.index((1,))


def test_ball_inverses_are_total():
    for kind in (IntegerLattice(2), DiscreteHeisenberg(), FreeGroup(2)):
        ball = BallDomain(kind, 2)
        assert (ball.inv >= 0).all()
        for i in range(ball.n):
            assert ball.op(i, ball.inv[i]) == ball.identity


def test_element_order_raises_when_a_power_leaves_the_ball():
    # (-1,) has infinite order: its third power already leaves the r=2 ball
    ball = BallDomain(IntegerLattice(1), 2)
    with pytest.raises(ValueError, match="power 3 of element 1 leaves"):
        group_oracle.element_order(ball, ball.elements.index((-1,)))
    assert group_oracle.element_order(ball, ball.identity) == 1


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_element_orders_match_the_power_loop(name):
    G = build_catalog_group(name)
    assert G.element_orders == tuple(group_oracle.element_order(G, a)
                                     for a in range(G.n))


def test_a_ball_has_no_element_orders():
    ball = BallDomain(IntegerLattice(1), 2)
    with pytest.raises(ValueError, match="is a ball"):
        ball.element_orders


def test_ball_cap_enforced(monkeypatch):
    monkeypatch.setattr(groups, "BALL_ELEMENT_CAP", 50)
    with pytest.raises(ValueError):
        BallDomain(IntegerLattice(2), 10)


def test_ball_negative_radius_rejected():
    with pytest.raises(ValueError):
        BallDomain(IntegerLattice(1), -1)


@pytest.mark.parametrize("kind", [IntegerLattice(3), DiscreteHeisenberg(),
                                  FreeGroup(3)], ids=lambda kind: kind.name)
def test_each_bfs_level_is_keyed_by_one_sort(monkeypatch, kind):
    # the products of a level are keyed in one _first_rows call together
    # with the known levels
    calls = []

    def counting(rows):
        calls.append(len(rows))
        return first_rows(rows)

    first_rows = groups._first_rows
    monkeypatch.setattr(groups, "_first_rows", counting)
    rows, length, _, _, _ = groups._bfs(kind, 3, 4)
    sizes = np.bincount(length)
    assert calls == [sizes[max(0, k - 2):k].sum() + sizes[k - 1] * kind.ngens
                     for k in range(1, 5)]


BFS_KINDS = [IntegerLattice(1), IntegerLattice(2), IntegerLattice(3),
             DiscreteHeisenberg(), FreeGroup(2), FreeGroup(3)]


@pytest.mark.parametrize("radius", range(5))
@pytest.mark.parametrize("kind", BFS_KINDS, ids=lambda kind: kind.name)
def test_bfs_right_table_equals_the_tuple_products(kind, radius):
    # every entry, the top level's too: right[s, x] = x * gens[s] in the
    # auxiliary ball of radius floor(3r/2), else -1; the rows are those of
    # the radius-r ball, a prefix of the auxiliary one
    depth = 3 * radius // 2
    rows, length, _, _, right = groups._bfs(kind, radius, depth)
    elements, lengths = ball_oracle.ball_elements(kind, depth)
    assert kind.row_elements(rows) == elements[:len(rows)]
    assert length.tolist() == lengths[lengths <= radius].tolist()
    index = {el: i for i, el in enumerate(elements)}
    assert right.tolist() == [
        [index.get(ball_oracle.mult(kind, x, g), -1) for x in elements] + [-1]
        for g in ball_oracle.generators(kind)]


class SteppedIntegers(IntegerLattice):
    """Z with generators +-1 and +-2: its Cayley graph has triangles."""

    def __init__(self):
        super().__init__(1)
        self.name = "Z(1,2)"
        self.ngens = 4

    def mult_rows(self, rows, s):
        return rows + (1, -1, 2, -2)[s]


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_a_kind_without_a_bipartite_cayley_graph_is_refused(radius):
    with pytest.raises(ValueError, match="bipartite"):
        BallDomain(SteppedIntegers(), radius)


@pytest.mark.parametrize("kind", [IntegerLattice(3), DiscreteHeisenberg(),
                                  FreeGroup(3)], ids=lambda kind: kind.name)
def test_a_ball_build_multiplies_rows_only_below_the_top_bfs_level(
        monkeypatch, kind):
    # r=4 searches levels 0..6 of its auxiliary ball: each of levels 0..5
    # is multiplied by every generator once, and nothing is multiplied
    # after the search
    calls = []

    def counting(rows, s):
        calls.append(s)
        return mult_rows(rows, s)

    mult_rows = kind.mult_rows
    monkeypatch.setattr(kind, "mult_rows", counting)
    BallDomain(kind, 4)
    assert calls == list(range(kind.ngens)) * 6


# entry spans whose digits take 1, 2, 4 and 8 bytes; widths whose keys are
# one uint64 word or a void of several words at each digit size
@pytest.mark.parametrize("span, size", [(10, 1), (1000, 2), (100_000, 4),
                                        (2**40, 8)])
@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 8, 9, 17, 40])
def test_row_keys_sort_and_find_rows_as_a_dict_does(span, size, width):
    rng = np.random.default_rng(width * 131 + size)
    rows = rng.integers(-span // 2, span - span // 2, size=(200, width))
    rows = np.concatenate([rows, rows[rng.integers(0, 200, 60)]])
    keys = groups._row_keys(rows)
    words = -(-width * size // 8)
    assert keys.dtype == (np.uint64 if words == 1 else f"V{8 * words}")
    order = np.argsort(keys, kind="stable")
    assert order.tolist() == np.lexsort(rows.T[::-1]).tolist()
    same_key = keys[order[1:]] == keys[order[:-1]]
    same_row = (rows[order[1:]] == rows[order[:-1]]).all(axis=1)
    assert same_key.tolist() == same_row.tolist()
    first = order[np.concatenate(([True], ~same_row))]
    got, inverse = groups._first_rows(rows)
    assert got.tolist() == first.tolist()
    # each row finds the first of its equal rows, as a dict of first rows
    index = {}
    for i, row in enumerate(map(tuple, rows.tolist())):
        index.setdefault(row, i)
    assert got[inverse].tolist() == [index[row]
                                     for row in map(tuple, rows.tolist())]


def test_bfs_of_a_high_rank_lattice_keeps_its_peak_memory_low():
    # the products of level 2 with the 60 generators are the largest array
    # (108,000 x 30 int64, 24.7 MiB); keying it must not hold a second
    # copy of the new products
    tracemalloc.start()
    try:
        rows, _, _, _, right = groups._bfs(IntegerLattice(30), 2, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the rows of the radius-2 ball; the right table of the radius-3 one
    assert len(rows) == 1 + 60 + 1800
    assert right.shape == (60, 1 + 60 + 1800 + 36020 + 1)
    assert peak < 45 * 2**20


@pytest.mark.parametrize("kind, radius, refused", [
    (IntegerLattice(2000), 1, "radius 1 already holds 4001 elements"),
    (FreeGroup(100000), 1, "radius 1 already holds 200001 elements"),
    (IntegerLattice(2000), 0, None)], ids=["Z2000_r1", "F100000_r1",
                                           "Z2000_r0"])
def test_a_kind_wider_than_the_cap_is_refused_before_its_bfs(kind, radius,
                                                             refused):
    # level 1 holds the identity and one neighbour per generator, so a
    # kind with too many generators is refused before they or any level
    # are built; its ball of radius 0 still builds
    tracemalloc.start()
    try:
        if refused:
            with pytest.raises(groups.BallTooLarge, match=refused):
                BallDomain(kind, radius)
        else:
            assert BallDomain(kind, radius).n == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_heisenberg_is_noncommutative():
    H = DiscreteHeisenberg()
    x, y = np.array([[1, 0, 0]]), np.array([[0, 1, 0]])
    # generator 0 is x, generator 2 is y
    assert H.mult_rows(x, 2).tolist() == [[1, 1, 1]]
    assert H.mult_rows(y, 0).tolist() == [[1, 1, 0]]
    assert not BallDomain(H, 2).is_abelian()


vectors = st.lists(st.integers(-20, 20), min_size=2, max_size=2).map(tuple)


@given(vectors, vectors)
def test_lattice_mult_is_componentwise(a, b):
    L = IntegerLattice(2)
    assert ball_oracle.mult(L, a, b) == (a[0] + b[0], a[1] + b[1])
    for s, g in enumerate(ball_oracle.generators(L)):
        assert L.mult_rows(np.array([a]), s).tolist() == \
            [list(ball_oracle.mult(L, a, g))]


triples = st.lists(st.integers(-5, 5), min_size=3, max_size=3).map(tuple)


@given(triples, triples, triples)
def test_heisenberg_mult_is_associative(u, v, w):
    H = DiscreteHeisenberg()
    mult = functools.partial(ball_oracle.mult, H)
    assert mult(mult(u, v), w) == mult(u, mult(v, w))
    assert ball_oracle.abelian_coords(H, mult(u, v)) == \
        (u[0] + v[0], u[1] + v[1])
    assert H.row_coords(np.array([mult(u, v)])).tolist() == \
        [[u[0] + v[0], u[1] + v[1]]]
    for s, g in enumerate(ball_oracle.generators(H)):
        assert H.mult_rows(np.array([u]), s).tolist() == [list(mult(u, g))]


letters = st.integers(-2, 2).filter(lambda k: k != 0)


@given(st.lists(letters, max_size=8))
def test_free_group_words_reduce(raw):
    F = FreeGroup(2)
    w, row = (), np.zeros((1, len(raw) + 1), dtype=np.int64)
    for letter in raw:
        w = ball_oracle.mult(F, w, (letter,))
        row = F.mult_rows(row, ball_oracle.generators(F).index((letter,)))
    # reduced: no adjacent letter cancels
    assert all(w[i] != -w[i + 1] for i in range(len(w) - 1))
    assert F.row_elements(row) == [w]
    assert F.row_coords(row).tolist() == \
        [[raw.count(1) - raw.count(-1), raw.count(2) - raw.count(-2)]]


@settings(max_examples=25)
@given(st.integers(1, 4), st.integers(1, 4))
def test_ball_sizes_monotone_in_radius(r1, r2):
    lo, hi = sorted((r1, r2))
    assert BallDomain(FreeGroup(2), lo).n <= BallDomain(FreeGroup(2), hi).n
