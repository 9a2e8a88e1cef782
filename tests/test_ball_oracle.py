"""Ball tables built by the column recursion along the BFS tree against the
reference build, which fills every entry with a tuple product, compared bit
for bit."""

from math import comb

import numpy as np
import pytest

import ball_oracle as oracle
from feqlab import groups
from feqlab.groups import (BALL_AUX_BYTES, BALL_ELEMENT_CAP, BallDomain,
                           BallTooLarge, DiscreteHeisenberg, FreeGroup,
                           IntegerLattice, ball_elements)

KINDS = [IntegerLattice(1), IntegerLattice(2), IntegerLattice(3),
         DiscreteHeisenberg(), FreeGroup(2), FreeGroup(3)]
# every kind at every radius up to 4, Z^2 at 8, the largest Heisenberg and
# free-group balls of the ball-growth benchmark, and high ranks: a row of
# Z^45 takes more than one int64 code even in base 3
CASES = [(kind, r) for kind in KINDS for r in range(5)] + \
    [(IntegerLattice(2), 8), (DiscreteHeisenberg(), 5), (FreeGroup(2), 5),
     (IntegerLattice(45), 1), (FreeGroup(30), 1), (IntegerLattice(5), 2),
     (FreeGroup(4), 2)]


@pytest.mark.parametrize("kind, radius", CASES,
                         ids=[f"{k.name}_r{r}" for k, r in CASES])
def test_ball_equals_the_reference_build(kind, radius):
    got, want = BallDomain(kind, radius), oracle.ball_domain(kind, radius)
    assert got.mul.dtype == want.mul.dtype == np.int64
    assert got.mul.tobytes() == want.mul.tobytes()
    assert got.inv.tobytes() == want.inv.tobytes()
    assert got.elements == want.elements
    assert got.length.tobytes() == want.length.tobytes()
    assert got.coords.tobytes() == want.coords.tobytes()
    assert (got.name, got.radius, got.n) == (want.name, want.radius, want.n)


SMALL_BLOCK_CASES = [(IntegerLattice(3), 3), (DiscreteHeisenberg(), 3),
                     (FreeGroup(3), 3)]


@pytest.mark.parametrize("kind, radius", SMALL_BLOCK_CASES,
                         ids=[f"{k.name}_r{r}" for k, r in SMALL_BLOCK_CASES])
def test_ball_built_in_small_blocks_equals_the_reference_build(
        monkeypatch, kind, radius):
    # blocks of at most 7 entries split each BFS level's columns of the
    # column recursion, the one step that reads _BALL_BLOCK_ENTRIES, into
    # many pieces
    want = oracle.ball_domain(kind, radius)
    monkeypatch.setattr(groups, "_BALL_BLOCK_ENTRIES", 7)
    got = BallDomain(kind, radius)
    assert got.mul.tobytes() == want.mul.tobytes()
    assert got.elements == want.elements
    assert got.length.tobytes() == want.length.tobytes()


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.name)
def test_ball_elements_equal_the_reference_search(kind):
    for r in range(5):
        got, want = ball_elements(kind, r), oracle.ball_elements(kind, r)
        assert got[0] == want[0]
        assert got[1].tobytes() == want[1].tobytes()


def test_over_budget_auxiliary_table_is_refused(monkeypatch):
    # Z^2 r=4 has 41 elements; right multiplication by 4 generators on the
    # radius-6 auxiliary ball (85 elements) takes 4 * 86 int64
    monkeypatch.setattr(groups, "BALL_AUX_BYTES", 8 * 4 * 86)
    BallDomain(IntegerLattice(2), 4)
    monkeypatch.setattr(groups, "BALL_AUX_BYTES", 8 * 4 * 86 - 1)
    with pytest.raises(BallTooLarge, match=r"radius-6 ball \(85 elements\)"):
        BallDomain(IntegerLattice(2), 4)
    # the element cap is checked on levels up to the radius first
    monkeypatch.setattr(groups, "BALL_AUX_BYTES", 0)
    monkeypatch.setattr(groups, "BALL_ELEMENT_CAP", 40)
    with pytest.raises(BallTooLarge, match="element cap 40"):
        BallDomain(IntegerLattice(2), 4)


def lattice_ball_size(d, r):
    return sum(2 ** k * comb(d, k) * comb(r, k) for k in range(min(d, r) + 1))


def free_ball_size(k, r):
    if k == 1:
        return 2 * r + 1
    return 1 + 2 * k * ((2 * k - 1) ** r - 1) // (2 * k - 2)


@pytest.mark.parametrize("kind, size", [(IntegerLattice, lattice_ball_size),
                                        (FreeGroup, free_ball_size)])
def test_closed_form_ball_sizes_match_the_search(kind, size):
    for d in range(1, 4):
        for r in range(5):
            assert size(d, r) == len(ball_elements(kind(d), r)[0])


@pytest.mark.parametrize("size", [lattice_ball_size, free_ball_size])
def test_no_ball_under_the_element_cap_passes_the_auxiliary_budget(size):
    # rank d has 2d generators, and a radius-1 ball has 2d + 1 elements, so
    # every rank up to the cap is covered; a larger rank leaves only r = 0,
    # whose auxiliary table holds 2d * 2 entries. From r = 1 on, the BFS and
    # the table form no more products than the n^2 of an entry-by-entry
    # build
    worst = 0
    for d in range(1, (BALL_ELEMENT_CAP - 1) // 2 + 1):
        r = 0
        while size(d, r) <= BALL_ELEMENT_CAP:
            depth = 3 * r // 2
            aux = 8 * 2 * d * (size(d, depth) + 1)
            assert aux <= BALL_AUX_BYTES, (d, r, aux)
            worst = max(worst, aux)
            if r:
                calls = 2 * d * (size(d, depth - 1) + size(d, depth))
                assert calls <= size(d, r) ** 2, (d, r, calls)
            r += 1
    assert worst > 0.99 * BALL_AUX_BYTES  # rank 1447 at r=1


def test_every_heisenberg_ball_under_the_element_cap_is_built():
    # no closed form here: build each ball until the element cap refuses one
    H, r = DiscreteHeisenberg(), 0
    while True:
        try:
            ball = BallDomain(H, r)
        except BallTooLarge as exc:
            assert "element cap" in str(exc)
            break
        assert ball.n <= BALL_ELEMENT_CAP
        r += 1
    assert r > 5
