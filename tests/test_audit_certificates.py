"""Each audit's certificate against its closed form, and the audits
against the hand-written point lists they replaced.

A certificate writes an audit's left-hand side as a signed sum of pair
residuals F(u, v) = f(uv) + chi(v) f(sigma(v) u) - 2 f(u) g(v) over the
windows in `stability`. The coefficients below are the proof's; the tests
check that they sum to the closed form at every evaluated window, that
sum |coeff| stays within the stated bound, and that the audits evaluate
exactly the windows whose residual points all lie in the ball.

The old_* functions of audit_oracle are the audits as they were before
their masks were derived from the certificates: each lists by hand the
points that must lie in the ball. Rows must agree exactly, witness and
counts included.
"""

import gc
import itertools
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from audit_oracle import (OLD_AUDITS, SECTION_AUDITS, centrality_valid,
                          old_sine_addition_bound, oracle_centrality,
                          pair_valid, plain_program, program_row)
from feqlab import stability
from feqlab.feq import GroupFunction
from feqlab.groups import (BallDomain, DiscreteHeisenberg, FreeGroup,
                           IntegerLattice, build_catalog_group)
from feqlab.morphisms import (ball_character, ball_involution,
                              compatible_characters, enumerate_characters,
                              enumerate_involutions, inversion_involution,
                              satisfies_morphism_law)
from feqlab.stability import AuditInapplicable


def ball_setups(kind, radius):
    ball = BallDomain(kind, radius)
    k = ball.coords.shape[1]
    chi = ball_character(ball, np.exp(2j * np.pi * np.arange(1, k + 1) / 7.0))
    return [(ball, ball_involution(ball, spec), chi) for spec in ("id", "inv")]


def catalog_setups(name):
    G = build_catalog_group(name)
    chars = enumerate_characters(G)
    out = []
    for kind in ("automorphism", "anti-automorphism"):
        for sigma in enumerate_involutions(G, kind):
            kept = compatible_characters(G, sigma, chars)
            # the first compatible chi and, if there is another, the last
            out += [(G, sigma, chi) for chi in kept[:1] + kept[1:][-1:]]
    return out


CORPUS = {
    "Z2_r2": lambda: ball_setups(IntegerLattice(2), 2),
    "Z2_r4": lambda: ball_setups(IntegerLattice(2), 4),
    "Z2_r8": lambda: ball_setups(IntegerLattice(2), 8),
    "Z1_r5": lambda: ball_setups(IntegerLattice(1), 5),
    "H3_r2": lambda: ball_setups(DiscreteHeisenberg(), 2),
    "F2_r2": lambda: ball_setups(FreeGroup(2), 2),
    **{name: (lambda name=name: catalog_setups(name))
       for name in ("Q8", "S3", "D4", "Z2xZ4", "Z4")},
}


def random_pair(domain, seed):
    rng = np.random.default_rng(seed)
    f = rng.normal(size=domain.n) + 1j * rng.normal(size=domain.n)
    g = rng.normal(size=domain.n) + 1j * rng.normal(size=domain.n)
    return GroupFunction(domain, f), GroupFunction(domain, g)


def _audit_row(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except AuditInapplicable as why:
        return str(why)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_certified_audits_give_the_rows_of_the_hand_written_lists(name):
    for domain, sigma, chi in CORPUS[name]():
        f, g = random_pair(domain, seed=domain.n)
        for fn_name, old in OLD_AUDITS.items():
            new = getattr(stability, fn_name)
            sections = ([{"a": a} for a in sorted({0, 1, domain.n - 1})]
                        if fn_name in SECTION_AUDITS else [{}])
            for delta, kw in itertools.product([0.0, 0.1, 10.0], sections):
                args = (domain, sigma, chi, f, g, delta)
                want = _audit_row(old, *args, **kw)
                assert _audit_row(new, *args, **kw) == want, (fn_name, delta, kw)


@pytest.mark.parametrize("kind", [DiscreteHeisenberg(), FreeGroup(2)],
                         ids=["H3", "F2"])
def test_centrality_outside_its_law_raises(monkeypatch, kind):
    # sigma = id is no anti-automorphism of a nonabelian ball of radius 3,
    # and inversion no automorphism; either audit raises before it builds
    # the padded tables that every gather reads
    def padded(table):
        raise AssertionError("padded tables built outside the law")

    monkeypatch.setattr(stability, "_padded", padded)
    (domain, ident, chi), (_, inv, _) = ball_setups(kind, 3)
    assert ident.is_identity
    f, g = random_pair(domain, seed=3)
    with pytest.raises(AuditInapplicable,
                       match="sigma is not an anti-homomorphism"):
        stability.audit_centrality_bound(domain, ident, chi, f, g, 0.1)
    with pytest.raises(AuditInapplicable,
                       match="sigma is not a homomorphism"):
        stability.audit_sine_addition_bound(domain, inv, chi, f, g, 0.1)


CERTS = (stability.CENTRALITY, stability.COMPANION_SHIFT, stability.PARITY,
         stability.SECTION_SINE, stability.SYMMETRIZED_SINE)


def test_each_sigma_class_compiles_to_its_node_count():
    # nodes kept (neither a leaf nor bound to one) under any other sigma,
    # then inversion and the identity on Z^d, whose letters commute, and on
    # H3, F2 and finite groups, whose letters need not
    classes = [(None, False), ("inv", True), ("id", True), ("inv", False),
               ("id", False)]
    counts = {}
    for cert, (cls, commutes) in itertools.product(CERTS, classes):
        axes, build, alias, factors, checks = stability._compile(cert, cls,
                                                                 commutes)
        kept = [k for k in build if k not in map(str.upper, axes)]
        counts.setdefault(cert.name, []).append(len(kept))
        # a bound node has the form of the node or leaf it is bound to, and
        # no two kept nodes share a form
        forms = {k: stability._normal_form(k, cls, commutes)
                 for k in plain_program(cert.windows)}
        assert all(forms[k] == forms.get(v, v) for k, v in alias.items())
        assert len({forms[k] for k in kept}) == len(kept)
        assert factors == {"a", *axes}.union(*build.values())
        # a sigma node or inverse leaf is kept only as some node's factor
        assert all(k in factors for k, ops in build.items() if len(ops) == 1)
        # each product node is checked once: by the pair mask of the only
        # letters it uses or, using all three, in the chunk pass
        products = [k for k in kept if len(build[k]) == 2]
        assert sorted(k for c in checks for k in c) == sorted(products)
        for (p, q), keys in zip(itertools.combinations(axes, 2), checks):
            assert all(set(k.lower()) & set(axes) <= {p, q} for k in keys)
        assert all(set(axes) <= set(k.lower()) for k in checks[-1])
        assert bool(checks[-1]) == (len(axes) == 3)
    assert counts == {
        "centrality_defect": [18, 9, 4, 12, 12],
        "companion_shift_defect": [9, 5, 3, 6, 6],
        "parity_defect": [18, 7, 3, 9, 9],
        "section_sine_addition_defect": [11, 8, 4, 9, 7],
        "symmetrized_sine_addition_defect": [18, 10, 4, 13, 12]}


def test_the_evaluator_reads_the_sigma_class_and_commutativity_from_the_kind(
        monkeypatch):
    seen, compile_ = [], stability._compile

    def spy(cert, sigma_class, commutes):
        seen.append((sigma_class, commutes))
        return compile_(cert, sigma_class, commutes)

    monkeypatch.setattr(stability, "_compile", spy)
    G = build_catalog_group("S3")
    other = next(s for s in enumerate_involutions(G, "anti-automorphism")
                 if not s.is_inversion)
    setups = [*ball_setups(IntegerLattice(2), 2),
              *ball_setups(DiscreteHeisenberg(), 2),
              *ball_setups(FreeGroup(2), 1),
              (G, inversion_involution(G), None), (G, other, None)]
    want = [("id", True), ("inv", True), ("id", False), ("inv", False),
            ("id", False), ("inv", False), ("inv", False), (None, False)]
    for (domain, sigma, _), classes in zip(setups, want):
        f, g = random_pair(domain, seed=1)
        seen.clear()
        stability.audit_parity_bound(domain, sigma, None, f, g, 0.1)
        # F2's ball of radius 1 has a symmetric table, yet its letters are
        # not taken to commute: the flag is the kind's
        assert seen == [classes]


def test_other_sigmas_compile_the_plain_program(monkeypatch):
    # no node is bound under a sigma that is neither inversion nor the
    # identity, and commuting letters change nothing
    for cert in CERTS:
        program = stability._compile(cert, None, False)
        assert program == stability._compile(cert, None, True)
        axes, build, alias, factors, _ = program
        assert not alias
        # every node of the windows' residuals, each built as written
        plain = plain_program(cert.windows)
        assert {k: ops for k, ops in build.items() if k in plain} == {
            k: ops for k, ops in plain.items() if len(ops) == 2 or k in factors}
        assert set(build) - set(plain) <= {c.upper() for c in axes}
    # and their rows are the unaliased program's, on every involution of
    # S3 and D4 that is neither inversion nor the identity
    checked = 0
    for name in ("S3", "D4"):
        for G, sigma, chi in catalog_setups(name):
            if sigma.is_identity or sigma.is_inversion:
                continue
            f, g = random_pair(G, seed=2)
            got = stability.run_stability_battery(G, sigma, chi, f, g, 0.1)
            with monkeypatch.context() as mp:
                mp.setattr(stability, "_certified_row", program_row)
                want = stability.run_stability_battery(G, sigma, chi, f, g,
                                                       0.1)
            assert got == want
            checked += 1
    assert checked


# table reads (products, sigma, inverses) per candidate window in the chunk
# pass, the excess's own included, for the five audits in battery order;
# None where the audit is N/A. A pair grid checks nothing there, and
# centrality only its nodes that use all three letters. A node that is no
# factor is not kept, so one the excess asks for twice (zy and yz, axy and
# ayx on Z^2) is gathered twice
CHUNK_READS = {
    ("Z2_r4", "inversion"): [8.6, 0.0, 0.0, 2.0, 3.0],
    ("Z2_r4", "identity"): [3.8, 2.0, 0.0, 2.0, 3.0],
    ("H3_r3", "inversion"): [10.2, 3.0, 0.0, None, 4.0],
    ("H3_r3", "identity"): [None, 2.0, 0.0, 2.0, 4.0],
    ("F2_r2", "inversion"): [13.1, 3.0, 0.0, None, 4.0],
    ("F2_r2", "identity"): [None, 2.0, 0.0, 2.0, 4.0],
}


def test_the_chunk_pass_reads_only_what_the_pair_masks_leave_open(
        monkeypatch):
    count = {"on": False, "reads": 0, "windows": 0}

    class Counting(np.ndarray):
        def take(self, indices, *args, **kwargs):
            count["reads"] += count["on"] * np.size(indices)
            return np.asarray(self).take(indices, *args, **kwargs)

    blocks = stability._candidate_blocks

    def spy(masks, n):
        count["on"] = True  # the pair masks are built
        for block in blocks(masks, n):
            count["windows"] += len(block[0])
            yield block

    tables = stability._tables

    def counting(domain, sigma):
        return tuple(t.view(Counting) for t in tables(domain, sigma))

    monkeypatch.setattr(stability, "_candidate_blocks", spy)
    monkeypatch.setattr(stability, "_tables", counting)
    got = {}
    for name, kind, radius in (("Z2_r4", IntegerLattice(2), 4),
                               ("H3_r3", DiscreteHeisenberg(), 3),
                               ("F2_r2", FreeGroup(2), 2)):
        for domain, sigma, chi in ball_setups(kind, radius):
            f, g = random_pair(domain, seed=1)
            reads = got[name, sigma.label] = []
            for audit in OLD_AUDITS:
                count.update(on=False, reads=0, windows=0)
                try:
                    getattr(stability, audit)(domain, sigma, chi, f, g, 0.1)
                except AuditInapplicable:
                    reads.append(None)
                    continue
                reads.append(round(count["reads"] / count["windows"], 1))
    assert got == CHUNK_READS


CONTRACT_SETUPS = {
    **{name: CORPUS[name] for name in ("Z2_r4", "Z2_r8", "F2_r2", "S3", "D4")},
    "H3_r3": lambda: ball_setups(DiscreteHeisenberg(), 3),
}


@pytest.mark.parametrize("name", sorted(CONTRACT_SETUPS))
def test_every_window_an_excess_reads_is_evaluated(monkeypatch, name):
    # a chunk drops its windows with a node outside the ball before its
    # excess reads it, so the row merge counts windows and an excess reads
    # values with no pad; checked against the dense masks of the oracle
    handed, merge = [], stability._row_from_chunks

    def spy(row_name, bound, total, chunks):
        chunks = list(chunks)
        handed.append((row_name, [windows for _, windows in chunks]))
        return merge(row_name, bound, total, chunks)

    monkeypatch.setattr(stability, "_row_from_chunks", spy)
    certs = {cert.name: cert for cert in CERTS}
    for domain, sigma, chi in CONTRACT_SETUPS[name]():
        f, g = random_pair(domain, seed=domain.n)
        for a in sorted({0, domain.n - 1}):
            handed.clear()
            report = stability.run_stability_battery(domain, sigma, chi, f, g,
                                                     0.1, a=a)
            assert [row_name for row_name, _ in handed] == [
                row.name for row in report.rows]
            for (row_name, chunks), row in zip(handed, report.rows):
                cert = certs[row_name]
                valid = (centrality_valid(domain, sigma)
                         if cert is stability.CENTRALITY
                         else pair_valid(cert, domain, sigma, a))
                assert all(len(w[0]) and valid[tuple(w)].all()
                           for w in chunks), (row_name, sigma.label, a)
                assert (sum(len(w[0]) for w in chunks) == row.evaluated
                        == np.count_nonzero(valid))


def test_an_audit_frees_its_tables_without_the_cyclic_collector(monkeypatch):
    # a lookup that reached itself through its own closure would be a
    # reference cycle, holding the tables until the collector runs
    refs, tables = [], stability._tables

    def recorded(domain, sigma):
        out = tables(domain, sigma)
        refs.extend(weakref.ref(t) for t in out)
        return out

    monkeypatch.setattr(stability, "_tables", recorded)
    gc.disable()
    try:
        for domain, sigma, chi in ball_setups(IntegerLattice(2), 3):
            f, g = random_pair(domain, seed=4)
            for audit in OLD_AUDITS:
                refs.clear()
                getattr(stability, audit)(domain, sigma, chi, f, g, 0.1)
                assert refs and all(r() is None for r in refs), audit
    finally:
        gc.enable()


def test_interleaved_audits_give_the_rows_of_fresh_calls():
    # one compiled program per (certificate, sigma class, commutativity)
    # serves balls of every size
    setups = [*ball_setups(IntegerLattice(2), 4),
              *ball_setups(DiscreteHeisenberg(), 2),
              *ball_setups(IntegerLattice(2), 2),
              *ball_setups(FreeGroup(2), 2),
              *catalog_setups("Q8")[:2]]
    runs = []
    for round_ in range(2):
        for domain, sigma, chi in setups[round_::2] + setups[1 - round_::2]:
            f, g = random_pair(domain, seed=domain.n)
            report = stability.run_stability_battery(domain, sigma, chi, f, g,
                                                     0.1, a=domain.n - 1)
            runs.append(((domain, sigma, chi, f, g), report))
    for (domain, sigma, chi, f, g), report in runs:
        stability._compile.cache_clear()
        assert report == stability.run_stability_battery(
            domain, sigma, chi, f, g, 0.1, a=domain.n - 1)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_law_aliased_rows_equal_the_whole_grid_oracles(monkeypatch, name):
    # chunks of 3n + 1 windows, so dead windows are dropped inside chunks;
    # the oracles build every node of the certificates, none aliased
    checked = 0
    for domain, sigma, chi in CORPUS[name]():
        monkeypatch.setattr(stability, "AUDIT_CHUNK_ENTRIES", 3 * domain.n + 1)
        f, g = random_pair(domain, seed=domain.n)
        args = (domain, sigma, chi, f, g, 0.1)
        if satisfies_morphism_law(domain, sigma.table, "anti-automorphism"):
            assert (stability.audit_centrality_bound(*args)
                    == oracle_centrality(*args))
            checked += 1
        if satisfies_morphism_law(domain, sigma.table, "automorphism"):
            for a in sorted({0, domain.n - 1}):
                assert (stability.audit_sine_addition_bound(*args, a=a)
                        == old_sine_addition_bound(*args, a=a))
            checked += 1
    assert checked


@pytest.mark.parametrize("name", ["Z2_r2", "Z1_r5", "H3_r2", "F2_r2"])
def test_dead_chunks_and_nan_excess_give_the_oracle_rows(monkeypatch, name):
    # one window per chunk: each candidate window that leaves the ball is a
    # chunk whose windows all die
    monkeypatch.setattr(stability, "AUDIT_CHUNK_ENTRIES", 1)
    chunks, split = [], stability._chunks

    def spy(blocks, size):
        for chunk in split(blocks, size):
            chunks.append(chunk)
            yield chunk

    monkeypatch.setattr(stability, "_chunks", spy)
    audited = 0
    for domain, sigma, chi in CORPUS[name]():
        f, g = random_pair(domain, seed=domain.n)
        valid = centrality_valid(domain, sigma)
        xs = np.flatnonzero(valid.any(axis=(1, 2)))
        values = f.values.copy()
        values[[xs[len(xs) // 2], xs[-1]]] = np.nan
        # a GroupFunction refuses NaN, and so do the sine audits' sections
        for fn in (f, SimpleNamespace(domain=domain, values=values)):
            args = (domain, sigma, chi, fn, g, 0.1)
            if satisfies_morphism_law(domain, sigma.table,
                                      "anti-automorphism"):
                chunks.clear()
                got = stability.audit_centrality_bound(*args)
                assert repr(got) == repr(oracle_centrality(*args,
                                                           valid=valid))
                assert np.isnan(got.max_excess) == (fn is not f)
                assert any(not valid[tuple(c)].any() for c in chunks)
                audited += 1
            if fn is f and satisfies_morphism_law(domain, sigma.table,
                                                  "automorphism"):
                assert (repr(stability.audit_sine_addition_bound(*args))
                        == repr(old_sine_addition_bound(*args)))
    assert audited


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_the_battery_reports_n_a_exactly_where_a_law_fails(name):
    # each law checked here, independently of the certificate records
    laws = [("centrality_defect", "anti-automorphism",
             "sigma is not an anti-homomorphism on this domain"),
            ("section_sine_addition_defect", "automorphism",
             "sigma is not a homomorphism on this domain")]
    rows = ["centrality_defect", "companion_shift_defect", "parity_defect",
            "section_sine_addition_defect",
            "symmetrized_sine_addition_defect"]
    for domain, sigma, chi in CORPUS[name]():
        f, g = random_pair(domain, seed=domain.n)
        want = [(row, why) for row, law, why in laws
                if not satisfies_morphism_law(domain, sigma.table, law)]
        report = stability.run_stability_battery(domain, sigma, chi, f, g, 0.1)
        assert report.not_applicable == want
        assert [r.name for r in report.rows] == [
            row for row in rows if row not in dict(want)]


# --- certificates ---------------------------------------------------------


def element(word, at, domain, sigma):
    """Id of a word's element, multiplied left to right: letters are read
    from `at`, a capital is an inverse and s(w) is sigma(w). -1 once a
    partial product leaves the ball."""
    out, i = domain.identity, 0
    while i < len(word):
        if word[i] == "s":
            j, depth = i + 2, 1
            while depth:
                depth += {"(": 1, ")": -1}.get(word[j], 0)
                j += 1
            inner = element(word[i + 2:j - 1], at, domain, sigma)
            el, i = (sigma.table[inner] if inner >= 0 else -1), j
        elif word[i].isupper():
            el, i = domain.inv[at[word[i].lower()]], i + 1
        else:
            el, i = at[word[i]], i + 1
        out = -1 if min(out, el) < 0 else int(domain.mul[out, el])
    return out


class Point:
    """f, g, chi, m_g and the section f_a at words, for one window."""

    def __init__(self, at, domain, sigma, chi, f, g):
        self.at, self.domain, self.sigma = at, domain, sigma
        self.fv, self.gv, self.cv = f.values, g.values, chi.values

    def el(self, word):
        e = element(word, self.at, self.domain, self.sigma)
        assert e >= 0, f"{word} leaves the ball at an evaluated window"
        return e

    def f(self, word):
        return self.fv[self.el(word)]

    def g(self, word):
        return self.gv[self.el(word)]

    def chi(self, word):
        return self.cv[self.el(word)]

    def mg(self, word):
        return 2.0 * self.g(word) ** 2 - self.g(word + word)

    def fa(self, word):
        return self.f("a" + word) - self.f("a") * self.g(word)

    def residual(self, u, v):
        """F(u, v), or None when a point of it leaves the ball."""
        tab = self.domain.mul
        eu = element(u, self.at, self.domain, self.sigma)
        ev = element(v, self.at, self.domain, self.sigma)
        if min(eu, ev) < 0:
            return None
        uv, svu = tab[eu, ev], tab[self.sigma.table[ev], eu]
        if min(uv, svu) < 0:
            return None
        return (self.fv[uv] + self.cv[ev] * self.fv[svu]
                - 2.0 * self.fv[eu] * self.gv[ev])


def _sine_coefficients(p):
    return {("a", "xy"): 0.5, ("ax", "y"): 0.5,
            ("s(y)a", "x"): -p.chi("y") / 2, ("a", "y"): -p.g("x")}


# name: (certificate record in src, audit, proof coefficients per window,
#        closed-form inner LHS, stated RHS at delta = 1)
CERTIFICATES = {
    "centrality": (
        stability.CENTRALITY, stability.audit_centrality_bound,
        lambda p: {("x", "zy"): -0.5, ("x", "yz"): 0.5, ("xz", "y"): 0.5,
                   ("xy", "z"): -0.5, ("x", "z"): p.g("y"),
                   ("x", "y"): -p.g("z"), ("s(y)x", "z"): -p.chi("y") / 2,
                   ("s(z)x", "y"): p.chi("z") / 2},
        lambda p: p.f("x") * (p.g("zy") - p.g("yz")),
        lambda p: 2 * abs(p.g("z")) + 2 * abs(p.g("y")) + 6),
    "companion_shift": (
        stability.COMPANION_SHIFT, stability.audit_mg_shift_bound,
        lambda p: {("x", "y"): -p.g("y"), ("xy", "y"): -0.5,
                   ("s(y)x", "y"): -p.chi("y") / 2, ("x", "yy"): 0.5},
        lambda p: p.mg("y") * p.f("x") - p.chi("y") * p.f("s(y)xy"),
        lambda p: abs(p.g("y")) + 1.5),
    "parity": (
        stability.PARITY, stability.audit_parity_bound,
        lambda p: {("x", "Y"): p.mg("y"), ("xY", "y"): p.g("y"),
                   ("s(y)xY", "y"): p.chi("y") / 2, ("xY", "yy"): -0.5,
                   ("s(Y)x", "y"): p.chi("Y") * p.g("y"),
                   ("s(Y)xy", "y"): p.chi("Y") / 2,
                   ("s(Y)x", "yy"): -p.chi("Y") / 2},
        lambda p: 2.0 * p.f("x") * (p.g("y") - p.mg("y") * p.g("Y")),
        lambda p: abs(p.mg("y")) + 2 * abs(p.g("y")) + 4),
    "section_sine": (
        stability.SECTION_SINE, stability.audit_sine_addition_bound,
        _sine_coefficients,
        lambda p: p.fa("xy") - p.fa("x") * p.g("y") - p.fa("y") * p.g("x"),
        lambda p: abs(p.g("x")) + 1.5),
    "symmetrized_sine": (
        stability.SYMMETRIZED_SINE,
        stability.audit_symmetrized_sine_addition_bound,
        lambda p: {**_sine_coefficients(p), ("a", "yx"): 0.5,
                   ("ay", "x"): 0.5, ("s(x)a", "y"): -p.chi("x") / 2,
                   ("a", "x"): -p.g("y")},
        lambda p: (p.fa("xy") + p.fa("yx") - 2.0 * p.fa("x") * p.g("y")
                   - 2.0 * p.fa("y") * p.g("x")),
        lambda p: abs(p.g("x")) + abs(p.g("y")) + 3),
}

IDENTITY_SETUPS = {
    "S3": lambda: catalog_setups("S3"),
    "Q8": lambda: catalog_setups("Q8"),
    "Z2_r3": lambda: ball_setups(IntegerLattice(2), 3),
}


@pytest.mark.parametrize("setup", sorted(IDENTITY_SETUPS))
@pytest.mark.parametrize("name", sorted(CERTIFICATES))
def test_certificate_sums_to_the_closed_form_within_the_stated_bound(name,
                                                                     setup):
    cert, audit, coefficients, closed_form, stated = CERTIFICATES[name]
    windows = cert.windows
    assert len(set(windows)) == len(windows)
    checked = 0
    for domain, sigma, chi in IDENTITY_SETUPS[setup]():
        if cert.law and not satisfies_morphism_law(domain, sigma.table,
                                                   cert.law):
            continue
        f, g = random_pair(domain, seed=7)
        letters = "xyz" if name == "centrality" else "xy"
        for a in sorted({0, domain.n - 1}) if "sine" in name else [0]:
            evaluated = 0
            for point in itertools.product(range(domain.n), repeat=len(letters)):
                p = Point(dict(zip(letters, point), a=a), domain, sigma, chi,
                          f, g)
                residuals = {w: p.residual(*w) for w in windows}
                if None in residuals.values():
                    continue
                evaluated += 1
                coeff = coefficients(p)
                assert set(coeff) == set(windows)
                total = sum(coeff[w] * residuals[w] for w in windows)
                assert abs(total - closed_form(p)) <= 1e-9, (point, a)
                assert sum(abs(c) for c in coeff.values()) <= stated(p) + 1e-12
            kwargs = {"a": a} if "sine" in name else {}
            assert evaluated == audit(domain, sigma, chi, f, g, 0.0,
                                      **kwargs).evaluated
            checked += evaluated
    assert checked > 0


# --- certificates at generic windows ----------------------------------------

# x, y, z three distinct generators of F3, each possibly inverted: no two
# points of a certificate coincide unless the free group forces it
GENERIC_WINDOWS = [
    {c: (sign * letter,) for c, sign, letter in zip("xyz", signs, perm)}
    for perm in itertools.permutations((1, 2, 3))
    for signs in itertools.product((1, -1), repeat=3)]
# the sigma that satisfies each law on a free group
LAW_SIGMAS = {"anti-automorphism": ("inv",), "automorphism": ("id",),
              None: ("id", "inv")}


@pytest.fixture(scope="module")
def free_ball():
    return BallDomain(FreeGroup(3), 4)


@pytest.mark.parametrize("name", sorted(CERTIFICATES))
def test_certificate_holds_at_generic_free_group_windows(name, free_ball):
    cert, _, coefficients, closed_form, stated = CERTIFICATES[name]
    windows, law = cert.windows, cert.law
    ball = free_ball
    chi = ball_character(ball, np.exp(2j * np.pi * np.arange(1, 4) / 7.0))
    f, g = random_pair(ball, seed=11)
    assert len(GENERIC_WINDOWS) == 48
    for spec in LAW_SIGMAS[law]:
        sigma = ball_involution(ball, spec)
        assert law is None or satisfies_morphism_law(ball, sigma.table, law)
        for letters in GENERIC_WINDOWS:
            at = {c: ball.elements.index(word) for c, word in letters.items()}
            # the sine sections are taken at the third generator
            p = Point({**at, "a": at["z"]}, ball, sigma, chi, f, g)
            residuals = {w: p.residual(*w) for w in windows}
            assert None not in residuals.values(), letters
            coeff = coefficients(p)
            terms = {w: coeff[w] * residuals[w] for w in windows}
            total, closed = sum(terms.values()), closed_form(p)
            scale = sum(abs(t) for t in terms.values())
            assert abs(total - closed) <= 1e-12 * scale, (spec, letters)
            assert sum(abs(c) for c in coeff.values()) <= stated(p) + 1e-12
            for w in windows:
                # with one coefficient's sign flipped the sum misses
                assert abs(total - 2.0 * terms[w] - closed) > 1e-6 * scale


def test_no_centrality_certificate_without_an_anti_automorphism():
    """Least squares over every window (u, v) built from x, y, z (three
    generators of F3), each letter at most once and possibly inverted, with
    coefficients in span{1, g(x), g(y), g(z), g(yz), g(zy)} and trivial chi,
    for the centrality left-hand side f(x) (g(zy) - g(yz)). Under inversion
    the fit is exact (the certificate); under the identity it is not, which
    is why the battery reports centrality N/A there."""
    ball = BallDomain(FreeGroup(3), 3)
    at = {c: ball.elements.index((i,)) for i, c in enumerate("xyz", 1)}
    windows = []
    for k in (1, 2, 3):
        for letters in itertools.permutations("xyz", k):
            for inverted in itertools.product((False, True), repeat=k):
                word = "".join(c.upper() if up else c
                               for c, up in zip(letters, inverted))
                windows += [(word[:cut], word[cut:]) for cut in range(k)]
    assert len(windows) == 198
    unknowns = 6 * len(windows)
    rng = np.random.default_rng(5)
    shape = (3 * unknowns // 2, ball.n)
    f = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    misfit = {}
    for spec in ("inv", "id"):
        sigma = ball_involution(ball, spec)

        def el(word):
            return element(word, at, ball, sigma)

        span = np.stack([np.ones(shape[0])] + [
            g[:, el(w)] for w in ("x", "y", "z", "yz", "zy")], axis=1)
        columns = []
        for u, v in windows:
            eu, ev = el(u), el(v)
            uv, svu = ball.mul[eu, ev], ball.mul[sigma.table[ev], eu]
            residual = f[:, uv] + f[:, svu] - 2.0 * f[:, eu] * g[:, ev]
            columns.append(span * residual[:, None])
        A = np.hstack(columns)
        lhs = f[:, el("x")] * (g[:, el("zy")] - g[:, el("yz")])
        coef, *_ = np.linalg.lstsq(A, lhs, rcond=None)
        misfit[spec] = np.linalg.norm(A @ coef - lhs) / np.linalg.norm(lhs)
    assert misfit["inv"] <= 1e-12
    assert misfit["id"] > 0.05
