"""The row-blocked n^2 sweeps against their dense forms.

The pair residual, the multiplicative defect (of the branch scan and of
the character check) and the morphism law check walk a domain's table in
row blocks. Each must give what the dense n x n form gives, bit for bit, whatever the block size: blocks
of 1 and 3 rows are forced by lowering groups._ROW_BLOCK_ENTRIES.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from feqlab import groups
from feqlab.feq import GroupFunction, ResidualReport, residual_wilson
from feqlab.groups import (CATALOG_NAMES, BallDomain, DiscreteHeisenberg,
                           Domain, FreeGroup, IntegerLattice,
                           build_catalog_group)
from feqlab.morphisms import (Character, Involution, ball_involution,
                              enumerate_involutions, inversion_involution,
                              multiplicative_defect, satisfies_morphism_law)

from residual_oracle import dense_report

BLOCK_ROWS = [None, 1, 3]   # None keeps the library's block size


def force_rows(monkeypatch, domain, rows):
    if rows is not None:
        monkeypatch.setattr(groups, "_ROW_BLOCK_ENTRIES", rows * domain.n)


def random_pair(domain, rng, scale=1.0):
    def values():
        return scale * (rng.normal(size=domain.n)
                        + 1j * rng.normal(size=domain.n))
    chi = Character(domain, np.exp(1j * rng.uniform(0, 2 * np.pi, domain.n)))
    return chi, GroupFunction(domain, values()), GroupFunction(domain, values())


def assert_blocked_equals_dense(monkeypatch, domain, sigma, chi, f, g):
    want = dense_report(domain, sigma, chi, f, g)
    for rows in BLOCK_ROWS:
        force_rows(monkeypatch, domain, rows)
        got = residual_wilson(domain, sigma, chi, f, g)
        # NaN != NaN, so a NaN sup is compared by isnan
        if np.isnan(want.sup) and np.isnan(got.sup):
            got = dataclasses.replace(got, sup=want.sup)
        assert got == want, rows
    return want


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_residual_matches_the_dense_form(monkeypatch, name):
    G = build_catalog_group(name)
    rng = np.random.default_rng(G.n)
    for _ in range(3):
        chi, f, g = random_pair(G, rng)
        rep = assert_blocked_equals_dense(monkeypatch, G,
                                          inversion_involution(G), chi, f, g)
        assert rep.pairs == G.n ** 2 and rep.skipped == 0


BALLS = {
    "Z1_r5": lambda: BallDomain(IntegerLattice(1), 5),
    "Z2_r4": lambda: BallDomain(IntegerLattice(2), 4),
    "H3_r3": lambda: BallDomain(DiscreteHeisenberg(), 3),
    "F2_r3": lambda: BallDomain(FreeGroup(2), 3),
}


@pytest.mark.parametrize("spec", ["id", "inv"])
@pytest.mark.parametrize("name", BALLS)
def test_ball_residual_matches_the_dense_form(monkeypatch, name, spec):
    ball = BALLS[name]()
    sigma = ball_involution(ball, spec)
    rng = np.random.default_rng(ball.n)
    for _ in range(3):
        chi, f, g = random_pair(ball, rng)
        rep = assert_blocked_equals_dense(monkeypatch, ball, sigma, chi, f, g)
        assert 0 < rep.pairs < ball.n ** 2


@pytest.mark.parametrize("name", ["S3", "Q8", "BALL"])
def test_ties_go_to_the_first_pair_in_c_order(monkeypatch, name):
    domain = BallDomain(IntegerLattice(2), 3) if name == "BALL" \
        else build_catalog_group(name)
    sigma = ball_involution(domain, "inv") if name == "BALL" \
        else inversion_involution(domain)
    rng = np.random.default_rng(7)
    for _ in range(5):
        # values in {-1, 0, 1}: the maximum is hit by many pairs
        chi = Character(domain, rng.choice([-1.0, 1.0], domain.n))
        f = GroupFunction(domain, rng.integers(-1, 2, domain.n))
        g = GroupFunction(domain, rng.integers(-1, 2, domain.n))
        assert_blocked_equals_dense(monkeypatch, domain, sigma, chi, f, g)
    # f = 1, g = 0, chi = 1: F = 2 at every pair, and every block ties
    one = GroupFunction(domain, np.ones(domain.n))
    for rows in BLOCK_ROWS:
        force_rows(monkeypatch, domain, rows)
        rep = residual_wilson(domain, sigma, Character(domain, one.values),
                              one, GroupFunction.zero(domain))
        assert (rep.sup, rep.argmax_x, rep.argmax_y) == (2.0, 0, 0)


def test_no_evaluated_pair(monkeypatch):
    # both off-diagonal products are defined, but with sigma the swap,
    # sigma(y) x is the undefined diagonal product at either pair
    cut = Domain([[-1, 0], [0, -1]], name="cut", kind=IntegerLattice(1))
    swap = Involution([1, 0], "automorphism")
    rng = np.random.default_rng(0)
    chi, f, g = random_pair(cut, rng)
    rep = assert_blocked_equals_dense(monkeypatch, cut, swap, chi, f, g)
    assert rep == ResidualReport(0.0, -1, -1, 0, 4)


def test_rows_with_no_evaluated_pair_are_skipped(monkeypatch):
    # sigma sends every y to a boundary element b, so every x with bx
    # outside the ball has no evaluated pair: whole 1-row blocks are empty
    ball = BallDomain(IntegerLattice(2), 4)
    b = ball.n - 1
    const = Involution(np.full(ball.n, b), "automorphism")
    assert (ball.mul[b] < 0).any()
    rng = np.random.default_rng(1)
    chi, f, g = random_pair(ball, rng)
    rep = assert_blocked_equals_dense(monkeypatch, ball, const, chi, f, g)
    assert rep.pairs > 0


@pytest.mark.parametrize("name", ["Z6", "S4", "BALL"])
def test_nan_from_overflow_beats_every_number(monkeypatch, name):
    domain = BallDomain(FreeGroup(2), 3) if name == "BALL" \
        else build_catalog_group(name)
    sigma = ball_involution(domain, "inv") if name == "BALL" \
        else inversion_involution(domain)
    rng = np.random.default_rng(3)
    _, f, g = random_pair(domain, rng, scale=1e200)
    # a multiplicative function of modulus 1e200, as a ball character with
    # |z| != 1 can be: chi(y) f(sigma(y) x) and 2 f(x) g(y) both overflow,
    # and their difference is inf - inf, NaN, at some pairs
    chi = Character(domain, 1e200 * np.exp(1j * rng.uniform(0, 7, domain.n)))
    f.values[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        rep = assert_blocked_equals_dense(monkeypatch, domain, sigma, chi, f, g)
    assert np.isnan(rep.sup)
    assert (rep.argmax_x, rep.argmax_y) != (0, 0)


def dense_g_multiplicative_defect(ball, g):
    mul = ball.mul
    ok = mul >= 0
    gv = np.append(g.values, 0.0)
    vals = np.abs(gv[mul] - g.values[:, None] * g.values[None, :])
    return float(vals[ok].max()) if ok.any() else 0.0


@pytest.mark.parametrize("name", BALLS)
def test_g_multiplicative_defect_matches_the_dense_form(monkeypatch, name):
    ball = BALLS[name]()
    rng = np.random.default_rng(ball.n)
    _, _, g = random_pair(ball, rng)
    _, _, huge = random_pair(ball, rng, scale=1e200)
    for func in (g, huge):
        with np.errstate(over="ignore"):
            want = dense_g_multiplicative_defect(ball, func)
            for rows in BLOCK_ROWS:
                force_rows(monkeypatch, ball, rows)
                assert multiplicative_defect(ball, func.values) == want
    # g(x) g(y) overflows
    assert not np.isfinite(want)


def dense_morphism_law(domain, table, kind):
    mul = domain.mul
    mapped = np.where(mul >= 0, table[np.maximum(mul, 0)], -1)
    law = mul[np.ix_(table, table)]
    if kind != "automorphism":
        law = law.T
    ok = (mul >= 0) & (law >= 0)
    return bool((mapped[ok] == law[ok]).all())


def law_cases():
    for name in ("S3", "Z2xZ4", "D4", "Q8", "S4"):
        G = build_catalog_group(name)
        rng = np.random.default_rng(G.n)
        tables = [s.table for kind in ("automorphism", "anti-automorphism")
                  for s in enumerate_involutions(G, kind)]
        # a random permutation fixing e: some pair breaks the law
        tables.append(np.concatenate([[0], 1 + rng.permutation(G.n - 1)]))
        yield name, G, tables
    for name, build in BALLS.items():
        ball = build()
        yield name, ball, [ball.inv, np.arange(ball.n)]


@pytest.mark.parametrize("name, domain, tables", list(law_cases()),
                         ids=[case[0] for case in law_cases()])
def test_morphism_law_matches_the_dense_form(monkeypatch, name, domain, tables):
    for table in tables:
        for kind in ("automorphism", "anti-automorphism"):
            want = dense_morphism_law(domain, table, kind)
            for rows in BLOCK_ROWS:
                force_rows(monkeypatch, domain, rows)
                assert satisfies_morphism_law(domain, table, kind) is want


@pytest.mark.parametrize("name, domain, tables", list(law_cases()),
                         ids=[case[0] for case in law_cases()])
def test_is_abelian_matches_the_dense_form(monkeypatch, name, domain, tables):
    mul = domain.mul
    want = bool((mul == mul.T)[(mul >= 0) & (mul.T >= 0)].all())
    for rows in BLOCK_ROWS:
        force_rows(monkeypatch, domain, rows)
        assert domain.is_abelian() is want


@pytest.fixture(scope="module")
def z2_r36():
    return BallDomain(IntegerLattice(2), 36)


def traced_peak_mib(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_the_sweeps_build_no_n_by_n_array(z2_r36):
    # n = 2,665: one n x n int64 table is 54 MiB, a complex128 one 108 MiB
    ball = z2_r36
    sigma = ball_involution(ball, "inv")
    chi, f, g = random_pair(ball, np.random.default_rng(0))
    assert traced_peak_mib(lambda: residual_wilson(ball, sigma, chi, f, g)) < 16
    assert traced_peak_mib(lambda: multiplicative_defect(ball, g.values)) < 16
    assert traced_peak_mib(lambda: chi.check_multiplicative()) < 16
    assert traced_peak_mib(
        lambda: satisfies_morphism_law(ball, sigma.table, "automorphism")) < 16


def test_is_abelian_holds_no_n_by_n_mask(z2_r36):
    # n = 2,665: one n x n boolean mask is 6.8 MiB
    assert z2_r36.is_abelian()
    assert traced_peak_mib(z2_r36.is_abelian) < 1
