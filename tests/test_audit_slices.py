"""The chunked audit evaluator against reference audits that see the whole
grid, and the sine audits against their inline section vector.

The evaluator gathers only the windows its certificate's pair masks allow,
as flat C-order index arrays in chunks. The references in audit_oracle
build every point over the whole grid, with explicit masks for points
outside the ball, and take one argmax. Rows must agree exactly, witness and
counts included.
"""

import dataclasses
import itertools
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from audit_oracle import (OLD_AUDITS, SECTION_AUDITS, _val, candidate_blocks,
                          centrality_valid, oracle_centrality, oracle_row,
                          program_row, row_from_slices)
from feqlab import stability
from feqlab.feq import GroupFunction
from feqlab.groups import (BallDomain, DiscreteHeisenberg, FreeGroup,
                           IntegerLattice, build_catalog_group)
from feqlab.morphisms import (ball_character, ball_involution,
                              enumerate_involutions, identity_involution,
                              inversion_involution, trivial_character)
from feqlab.stability import (AuditInapplicable, AuditTooLarge,
                              audit_centrality_bound,
                              audit_sine_addition_bound,
                              audit_symmetrized_sine_addition_bound)


@pytest.fixture(autouse=True)
def lawless_centrality(monkeypatch):
    """The centrality record without its law. These tests hold the
    evaluator to the whole-grid oracles under every sigma, the ones that
    fail the anti-automorphism law included, since its validity masks do
    not depend on the law; test_audit_certificates checks the law gate."""
    monkeypatch.setattr(stability, "CENTRALITY",
                        dataclasses.replace(stability.CENTRALITY, law=None))


def force_chunks(monkeypatch, size):
    """Chunks of `size` windows. Returns, per evaluator call, the list of
    (first x, last x) of its chunks."""
    monkeypatch.setattr(stability, "AUDIT_CHUNK_ENTRIES", size)
    calls, chunks = [], stability._chunks

    def spy(blocks, size):
        calls.append([])
        for chunk in chunks(blocks, size):
            calls[-1].append((int(chunk[0][0]), int(chunk[0][-1])))
            yield chunk

    monkeypatch.setattr(stability, "_chunks", spy)
    return calls


def cuts_inside_an_x(call):
    """Whether a chunk boundary of one call splits the windows of one x."""
    return any(a[1] == b[0] for a, b in zip(call, call[1:]))


def q8_setup():
    G = build_catalog_group("Q8")
    return G, inversion_involution(G), trivial_character(G)


def ball_setup(kind, radius, sigma_spec):
    ball = BallDomain(kind, radius)
    k = ball.coords.shape[1]
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
    calls = force_chunks(monkeypatch, 3 * domain.n + 1)
    f, g = random_pair(domain, seed=domain.n)
    got = audit_centrality_bound(domain, sigma, chi, f, g, delta)
    assert got == oracle_centrality(domain, sigma, chi, f, g, delta)
    assert got.evaluated > 0
    assert cuts_inside_an_x(calls[-1])


@pytest.mark.parametrize("name", sorted(SETUPS))
@pytest.mark.parametrize("entries", ["default", "3n+1", "7"])
def test_candidate_listing_matches_the_per_x_loop(monkeypatch, name, entries):
    # the pair masks of every audit the battery runs, listed by the
    # evaluator and by the per-x loop it replaced; 7 entries is less than
    # one row of the masks, so every block then holds one x or one (x, y)
    domain, sigma, chi = SETUPS[name]()
    n = domain.n
    size = {"default": stability.AUDIT_CHUNK_ENTRIES, "3n+1": 3 * n + 1,
            "7": 7}[entries]
    monkeypatch.setattr(stability, "AUDIT_CHUNK_ENTRIES", size)
    seen, listing = [], stability._candidate_blocks

    def spy(masks, n):
        seen.append(masks)
        return iter(())

    monkeypatch.setattr(stability, "_candidate_blocks", spy)
    f, g = random_pair(domain, seed=1)
    report = stability.run_stability_battery(domain, sigma, chi, f, g, 0.1)
    assert len(seen) == len(report.rows) >= 4
    assert [len(masks) for masks in seen].count(3) == 1  # centrality
    for masks in seen:
        got = list(listing(masks, n))
        want = list(candidate_blocks(masks, n, size))
        assert all(len(block[0]) <= max(n, size) for block in got)
        for axis in range(len(got[0])):
            a, b = (np.concatenate([block[axis] for block in blocks])
                    for blocks in (got, want))
            assert a.dtype == b.dtype == np.int32
            assert np.array_equal(a, b)


@pytest.mark.parametrize("name", sorted(SETUPS))
@pytest.mark.parametrize("spec", ["id", "inv"])
@pytest.mark.parametrize("entries", ["default", "3n+1"])
def test_compiled_rows_equal_the_per_call_program_rows(monkeypatch, name,
                                                       spec, entries):
    # the battery on each setup's domain under the identity and inversion,
    # every node aliased that _compile binds, against program_row, which
    # builds every node of the unaliased program; 3n + 1 windows drop dead
    # windows inside chunks
    domain, _, chi = SETUPS[name]()
    sigma = {"id": identity_involution, "inv": inversion_involution}[spec](
        domain)
    if entries == "3n+1":
        monkeypatch.setattr(stability, "AUDIT_CHUNK_ENTRIES", 3 * domain.n + 1)
    f, g = random_pair(domain, seed=domain.n)
    a = domain.n - 1
    got = stability.run_stability_battery(domain, sigma, chi, f, g, 0.1, a=a)
    monkeypatch.setattr(stability, "_certified_row", program_row)
    want = stability.run_stability_battery(domain, sigma, chi, f, g, 0.1, a=a)
    assert got == want
    assert len(got.rows) >= 4 and all(row.evaluated for row in got.rows)


@pytest.mark.parametrize("name", sorted(MORPHISM_SETUPS))
def test_ties_across_slices_keep_the_first_witness(monkeypatch, name):
    # f = 0 gives every x the same excess, and x = e admits every window
    # another x admits when sigma is a morphism, so the first chunk must win
    domain, sigma, chi = SETUPS[name]()
    force_chunks(monkeypatch, 3 * domain.n + 1)
    _, g = random_pair(domain, seed=1)
    zero = GroupFunction(domain, np.zeros(domain.n))
    got = audit_centrality_bound(domain, sigma, chi, zero, g, 0.1)
    assert got == oracle_centrality(domain, sigma, chi, zero, g, 0.1)
    assert got.witness[0] == 0


def ball_maps(kind, radius):
    return lambda spec: ball_setup(kind, radius, spec)


def catalog_maps(name):
    def setup(spec):
        G = build_catalog_group(name)
        involution = {"inv": inversion_involution, "id": identity_involution}
        return G, involution[spec](G), trivial_character(G)
    return setup


GATE_DOMAINS = {
    "Z2_r3": ball_maps(IntegerLattice(2), 3),
    "Z2_r8": ball_maps(IntegerLattice(2), 8),
    "H3_r2": ball_maps(DiscreteHeisenberg(), 2),
    "H3_r4": ball_maps(DiscreteHeisenberg(), 4),
    "F2_r3": ball_maps(FreeGroup(2), 3),
    # total domains: every pair mask is all-true
    "Q8": catalog_maps("Q8"),
    "S3": catalog_maps("S3"),
}
GATE = {
    **{f"{name}_{spec}": (lambda name=name, spec=spec: GATE_DOMAINS[name](spec))
       for name, spec in itertools.product(GATE_DOMAINS, ("inv", "id"))},
    "H3_r3_scrambled": scrambled_sigma_setup,
}


def _audit_row(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except AuditInapplicable as why:
        return str(why)


@pytest.mark.parametrize("name", sorted(GATE))
def test_evaluator_rows_match_the_monolithic_oracle(monkeypatch, name):
    domain, sigma, chi = GATE[name]()
    # 3n + 1 windows cut inside the candidate block of some x on every setup
    calls = force_chunks(monkeypatch, 3 * domain.n + 1)
    f, g = random_pair(domain, seed=domain.n)
    valid = centrality_valid(domain, sigma)
    for delta in (0.0, 0.1, 10.0):
        args = (domain, sigma, chi, f, g, delta)
        got = audit_centrality_bound(*args)
        assert got == oracle_centrality(*args, valid=valid), delta
        assert got.evaluated > 0
        assert cuts_inside_an_x(calls[-1])
        if name == "H3_r3_scrambled":
            continue  # the old pair lists rely on sigma being a morphism
        for fn_name, old in OLD_AUDITS.items():
            if fn_name == "audit_centrality_bound":
                continue
            sections = ([{"a": a} for a in sorted({0, 1, domain.n - 1})]
                        if fn_name in SECTION_AUDITS else [{}])
            for kw in sections:
                want = _audit_row(old, *args, **kw)
                assert _audit_row(getattr(stability, fn_name), *args,
                                  **kw) == want, (fn_name, delta, kw)


@pytest.mark.parametrize("name", ["Z2_r3_inv", "H3_r2_id", "Q8_inv"])
def test_nan_in_f_gives_the_first_nan_witness(monkeypatch, name):
    # NaN beats every number, and the first NaN in C order beats a later
    # one in another chunk
    domain, sigma, chi = GATE[name]()
    force_chunks(monkeypatch, 3 * domain.n + 1)
    _, g = random_pair(domain, seed=3)
    valid = centrality_valid(domain, sigma)
    xs = np.flatnonzero(valid.any(axis=(1, 2)))
    values = np.ones(domain.n, dtype=complex)
    values[[xs[len(xs) // 2], xs[-1]]] = np.nan
    f = SimpleNamespace(domain=domain, values=values)
    got = audit_centrality_bound(domain, sigma, chi, f, g, 0.1)
    want = oracle_centrality(domain, sigma, chi, f, g, 0.1, valid=valid)
    assert np.isnan(got.max_excess) and not got.passed
    assert got.witness[0] == xs[len(xs) // 2]
    assert repr(got) == repr(want)
    for fn_name in ("audit_mg_shift_bound", "audit_parity_bound"):
        args = (domain, sigma, chi, f, g, 0.1)
        got = getattr(stability, fn_name)(*args)
        assert repr(got) == repr(OLD_AUDITS[fn_name](*args))


@pytest.mark.parametrize("sigma_spec", ["inv", "id"])
def test_window_budget_admits_lattice2_radius16(monkeypatch, sigma_spec):
    # the estimate is read off the refusal under a zero budget, which comes
    # before any chunk is gathered
    budget = stability.AUDIT_WINDOW_BUDGET
    monkeypatch.setattr(stability, "AUDIT_WINDOW_BUDGET", 0)
    domain, sigma, chi = ball_setup(IntegerLattice(2), 16, sigma_spec)
    f, g = random_pair(domain, seed=0)
    with pytest.raises(AuditTooLarge) as refusal:
        audit_centrality_bound(domain, sigma, chi, f, g, 0.1)
    estimate = int(re.search(r"leave (\d+) candidate", str(refusal.value))[1])
    assert 0 < estimate <= budget


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


def _split(excess, valid, cuts):
    """Chunks (excess, windows) of the valid windows of a grid, cut at the
    given counts of valid windows; no chunk is empty."""
    windows = np.nonzero(valid)
    count = len(windows[0])
    bounds = [0, *[c for c in cuts if c < count], count]
    return [(excess[windows][a:b], [w[a:b] for w in windows])
            for a, b in zip(bounds, bounds[1:]) if b > a]


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
    got = [stability._row_from_chunks("r", "b", excess.size,
                                      _split(excess, valid, [3, 17, 40, 41])),
           row_from_slices("r", "b", excess.shape,
                           _split_rows(excess, valid, [2, 3, 6]))]
    assert [repr(row) for row in got] == [repr(want)] * 2


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
