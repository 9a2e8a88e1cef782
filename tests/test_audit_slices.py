"""The x-sliced centrality audit against the monolithic n^3 evaluation, and
the sine audits against their inline section vector.

The oracle below builds every point grid of the certificate over the whole
n x n x n window, with explicit masks for points outside the ball, and takes
one argmax, as the audits did before they were sliced. Rows must agree
exactly, witness and counts included.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from feqlab import stability
from feqlab.feq import GroupFunction
from feqlab.groups import (BallDomain, DiscreteHeisenberg, FreeGroup,
                           IntegerLattice, build_catalog_group)
from feqlab.morphisms import (ball_character, ball_involution,
                              enumerate_involutions, inversion_involution,
                              trivial_character)
from feqlab.stability import (AuditInapplicable, StabilityAuditRow, _val,
                              audit_centrality_bound,
                              audit_sine_addition_bound,
                              audit_symmetrized_sine_addition_bound)


def _chain(mul, a, b):
    """Product of index grids with outside (-1) propagation."""
    a = np.asarray(a)
    b = np.asarray(b)
    ok = (a >= 0) & (b >= 0)
    return np.where(ok, mul[np.maximum(a, 0), np.maximum(b, 0)], -1)


def _map(table, idx):
    idx = np.asarray(idx)
    return np.where(idx >= 0, table[np.maximum(idx, 0)], -1)


def oracle_row(name, bound, excess, valid, tol=stability.AUDIT_TOL):
    total = int(np.prod(valid.shape))
    evaluated = int(valid.sum())
    if evaluated == 0:
        return StabilityAuditRow(name, bound, 0.0, (), 0, total, True)
    masked = np.where(valid, excess, -np.inf)
    flat = int(np.argmax(masked))
    witness = tuple(int(i) for i in np.unravel_index(flat, valid.shape))
    worst = float(masked.flat[flat])
    return StabilityAuditRow(name, bound, worst, witness, evaluated,
                             total - evaluated, worst <= tol)


def oracle_centrality(domain, sigma, chi, f, g, delta):
    n = domain.n
    mul, st = domain.mul, sigma.table
    X = np.arange(n)[:, None, None]
    Y = np.arange(n)[None, :, None]
    Z = np.arange(n)[None, None, :]
    zy, yz = _chain(mul, Z, Y), _chain(mul, Y, Z)
    xy, xz = _chain(mul, X, Y), _chain(mul, X, Z)
    xzy = _chain(mul, xz, Y)
    xyz = _chain(mul, xy, Z)
    syx = _chain(mul, _map(st, Y), X)
    szx = _chain(mul, _map(st, Z), X)
    points = [
        zy, yz, xy, xz, xzy, xyz,
        _chain(mul, X, zy), _chain(mul, X, yz),
        syx, szx,
        _chain(mul, syx, Z), _chain(mul, szx, Y),
        _chain(mul, _map(st, Y), xz), _chain(mul, _map(st, Z), xy),
        _chain(mul, _map(st, zy), X), _chain(mul, _map(st, yz), X),
        _chain(mul, _map(st, Y), szx), _chain(mul, _map(st, Z), syx),
    ]
    valid = np.ones((n, n, n), dtype=bool)
    for p in points:
        valid &= p >= 0
    gv = np.abs(g.values)
    lhs = np.abs(_val(g.values, zy) - _val(g.values, yz)) * np.abs(f.values)[:, None, None]
    rhs = (2.0 * gv[None, None, :] + 2.0 * gv[None, :, None] + 6.0) * delta
    return oracle_row("centrality_defect", "2|g(z)|d + 2|g(y)|d + 6d",
                      lhs - rhs, valid)


def force_uneven_slices(monkeypatch, n):
    """Slice entries giving at least 3 x-slices, the last one shorter."""
    step = max(s for s in range(1, n) if n % s and -(-n // s) >= 3)
    monkeypatch.setattr(stability, "AUDIT_CHUNK_ENTRIES", step * n * n)
    sizes = [len(xs) for xs in stability._x_slices(n, 3)]
    assert len(sizes) >= 3 and sizes[-1] < sizes[0]
    return sizes


def q8_setup():
    G = build_catalog_group("Q8")
    return G, inversion_involution(G), trivial_character(G)


def ball_setup(kind, radius, sigma_spec):
    ball = BallDomain(kind, radius)
    k = len(kind.abelian_coords(ball.elements[0]))
    zs = np.exp(2j * np.pi * np.arange(1, k + 1) / 7.0)
    return ball, ball_involution(ball, sigma_spec), ball_character(ball, zs)


def scrambled_sigma_setup():
    # an involutive permutation that respects no product, on a non-abelian
    # ball: no certificate point is then implied by another one
    ball, _, chi = ball_setup(DiscreteHeisenberg(), 3, "id")
    rng = np.random.default_rng(4)
    table = np.arange(ball.n)
    ids = rng.permutation(np.arange(1, ball.n))
    half = len(ids) // 2
    table[ids[:half]], table[ids[half:2 * half]] = ids[half:2 * half], ids[:half]
    return ball, SimpleNamespace(table=table), chi


MORPHISM_SETUPS = {
    "Q8": q8_setup,
    "H3_r2": lambda: ball_setup(DiscreteHeisenberg(), 2, "inv"),
    "H3_r2_id": lambda: ball_setup(DiscreteHeisenberg(), 2, "id"),
    "F2_r2_inv": lambda: ball_setup(FreeGroup(2), 2, "inv"),
    "Z2_r6_inv": lambda: ball_setup(IntegerLattice(2), 6, "inv"),
    "Z2_r6_id": lambda: ball_setup(IntegerLattice(2), 6, "id"),
}
SETUPS = {**MORPHISM_SETUPS, "H3_r3_scrambled": scrambled_sigma_setup}


def random_pair(domain, seed):
    rng = np.random.default_rng(seed)
    f = rng.normal(size=domain.n) + 1j * rng.normal(size=domain.n)
    g = rng.normal(size=domain.n) + 1j * rng.normal(size=domain.n)
    return GroupFunction(domain, f), GroupFunction(domain, g)


@pytest.mark.parametrize("name", sorted(SETUPS))
@pytest.mark.parametrize("delta", [0.0, 0.5, 50.0])
def test_sliced_centrality_matches_the_monolithic_oracle(monkeypatch, name,
                                                         delta):
    domain, sigma, chi = SETUPS[name]()
    force_uneven_slices(monkeypatch, domain.n)
    f, g = random_pair(domain, seed=domain.n)
    got = audit_centrality_bound(domain, sigma, chi, f, g, delta)
    assert got == oracle_centrality(domain, sigma, chi, f, g, delta)
    assert got.evaluated > 0


@pytest.mark.parametrize("name", sorted(MORPHISM_SETUPS))
def test_ties_across_slices_keep_the_first_witness(monkeypatch, name):
    # f = 0 gives every x the same excess, and x = e admits every window
    # another x admits when sigma is a morphism, so the first slice must win
    domain, sigma, chi = SETUPS[name]()
    force_uneven_slices(monkeypatch, domain.n)
    _, g = random_pair(domain, seed=1)
    zero = GroupFunction(domain, np.zeros(domain.n))
    got = audit_centrality_bound(domain, sigma, chi, zero, g, 0.1)
    assert got == oracle_centrality(domain, sigma, chi, zero, g, 0.1)
    assert got.witness[0] == 0


def inline_section(f, g, a):
    """f_a(y) = f(ay) - f(a) g(y) as both sine audits computed it inline
    before they called feq.section_function."""
    mul = f.domain.mul
    fv, gv = f.values, g.values
    return SimpleNamespace(values=_val(fv, mul[a]) - fv[a] * gv)


def catalog_setup(name, kind):
    G = build_catalog_group(name)
    return G, enumerate_involutions(G, kind)[-1], trivial_character(G)


SINE_SETUPS = {
    "Q8_inv": q8_setup,
    "S3_auto": lambda: catalog_setup("S3", "automorphism"),
    "S3_anti": lambda: catalog_setup("S3", "anti-automorphism"),
    "H3_r2_inv": lambda: ball_setup(DiscreteHeisenberg(), 2, "inv"),
    "H3_r2_id": lambda: ball_setup(DiscreteHeisenberg(), 2, "id"),
    "Z2_r4_inv": lambda: ball_setup(IntegerLattice(2), 4, "inv"),
}


@pytest.mark.parametrize("name", sorted(SINE_SETUPS))
@pytest.mark.parametrize("where", ["identity", "boundary"])
def test_sine_audits_match_the_inline_section(monkeypatch, name, where):
    domain, sigma, chi = SINE_SETUPS[name]()
    # BFS order puts the last element on the sphere of the largest radius
    a = 0 if where == "identity" else domain.n - 1
    f, g = random_pair(domain, seed=5)
    rows = []
    for section in (stability.section_function, inline_section):
        monkeypatch.setattr(stability, "section_function", section)
        row = [audit_symmetrized_sine_addition_bound(domain, sigma, chi, f, g,
                                                     0.1, a=a)]
        try:
            row.append(audit_sine_addition_bound(domain, sigma, chi, f, g,
                                                 0.1, a=a))
        except AuditInapplicable:
            row.append(None)
        rows.append(row)
    assert rows[0] == rows[1]
    assert rows[0][0].evaluated > 0
    if name in ("S3_auto", "H3_r2_id", "Z2_r4_inv"):
        assert rows[0][1].evaluated > 0


def _split_rows(excess, valid, cuts):
    bounds = [0, *cuts, len(valid)]
    return [(excess[a:b], valid[a:b]) for a, b in zip(bounds, bounds[1:])]


@pytest.mark.parametrize("case", ["ties", "nan_later", "nan_first", "empty",
                                  "sparse"])
def test_slice_merge_matches_one_argmax(case):
    rng = np.random.default_rng(11)
    excess = rng.integers(-3, 2, size=(7, 4, 5)).astype(float)
    valid = rng.uniform(size=excess.shape) < 0.7
    if case == "nan_later":
        excess[5, 1, 2] = np.nan
        valid[5, 1, 2] = True
    elif case == "nan_first":
        excess[0, 0, 1] = excess[6, 3, 3] = np.nan
        valid[0, 0, 1] = valid[6, 3, 3] = True
    elif case == "empty":
        valid[:] = False
    elif case == "sparse":
        valid[:4] = False
    want = oracle_row("r", "b", excess, valid)
    got = stability._row_from_slices("r", "b", excess.shape,
                                     _split_rows(excess, valid, [2, 3, 6]))
    if np.isnan(want.max_excess):
        assert np.isnan(got.max_excess)
        got.max_excess = want.max_excess = 0.0
    assert got == want


def test_centrality_audit_peak_memory_is_bounded():
    # the monolithic grids peak at ~350 MiB here
    domain, sigma, chi = ball_setup(IntegerLattice(2), 8, "inv")
    f, g = random_pair(domain, seed=2)
    tracemalloc.start()
    try:
        row = audit_centrality_bound(domain, sigma, chi, f, g, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert row.evaluated > 0
    assert peak < 64 * 2**20
