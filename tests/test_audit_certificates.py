"""Each audit's certificate against its closed form, and the audits
against the hand-written point lists they replaced.

A certificate writes an audit's left-hand side as a signed sum of pair
residuals F(u, v) = f(uv) + chi(v) f(sigma(v) u) - 2 f(u) g(v) over the
windows in `stability`. The coefficients below are the proof's; the tests
check that they sum to the closed form at every evaluated window, that
sum |coeff| stays within the stated bound, and that the audits evaluate
exactly the windows whose residual points all lie in the ball.

The old_* functions are the audits as they were before their masks were
derived from the certificates: each lists by hand the points that must lie
in the ball. Rows must agree exactly, witness and counts included.
"""

import itertools

import numpy as np
import pytest

from feqlab import stability
from feqlab.feq import GroupFunction, companion_mg, section_function
from feqlab.groups import (BallDomain, DiscreteHeisenberg, FreeGroup,
                           IntegerLattice, build_catalog_group)
from feqlab.morphisms import (ball_character, ball_involution,
                              compatible_characters, enumerate_characters,
                              enumerate_involutions, satisfies_morphism_law)
from feqlab.stability import (AuditInapplicable, _padded, _row_from_slices,
                              _val, _x_slices)


def _row(name, bound, excess, valid):
    return _row_from_slices(name, bound, valid.shape, [(excess, valid)])


def old_centrality_bound(domain, sigma, chi, f, g, delta):
    """|g(zy) - g(yz)| |f(x)| <= 2|g(z)| delta + 2|g(y)| delta + 6 delta.

    Certificate: the difference is a combination of eight pair residuals at
    points built from x, y, z; windows where any of them leaves the ball are
    skipped. The n^3 grid is evaluated in slices of x, so peak memory is
    O(n^2) for any ball size.
    """
    n = domain.n
    mp, sp = _padded(domain.mul), _padded(sigma.table)
    Y = np.arange(n)[None, :, None]
    Z = np.arange(n)[None, None, :]
    # points that do not involve x: (1, n, n) grids over (y, z)
    zy, yz = mp[Z, Y], mp[Y, Z]
    sy, sz = sp[Y], sp[Z]
    szy, syz = sp[zy], sp[yz]
    yz_ok = (zy >= 0) & (yz >= 0)
    g_gap = np.abs(_val(g.values, zy) - _val(g.values, yz))
    gv = np.abs(g.values)
    rhs = (2.0 * gv[None, None, :] + 2.0 * gv[None, :, None] + 6.0) * delta
    fv = np.abs(f.values)

    def slices():
        for xs in _x_slices(n, 3):
            X = xs[:, None, None]
            xy, xz = mp[X, Y], mp[X, Z]
            syx, szx = mp[sy, X], mp[sz, X]
            valid = yz_ok & (xy >= 0) & (xz >= 0) & (syx >= 0) & (szx >= 0)
            # x(zy), x(yz), sigma(y)(xz), sigma(z)(xy) are the same elements
            # as the next four points, so they need no gather of their own
            valid &= mp[xz, Y] >= 0
            valid &= mp[xy, Z] >= 0
            valid &= mp[syx, Z] >= 0
            valid &= mp[szx, Y] >= 0
            valid &= mp[szy, X] >= 0
            valid &= mp[syz, X] >= 0
            valid &= mp[sy, szx] >= 0
            valid &= mp[sz, syx] >= 0
            yield g_gap * fv[X] - rhs, valid

    return _row_from_slices("centrality_defect", "2|g(z)|d + 2|g(y)|d + 6d",
                            (n, n, n), slices())


def old_mg_shift_bound(domain, sigma, chi, f, g, delta):
    """|m_g(y) f(x) - chi(y) f(sigma(y) x y)| <= |g(y)| delta + 1.5 delta."""
    n = domain.n
    mul = domain.mul
    mp, sp = _padded(mul), _padded(sigma.table)
    X = np.arange(n)[:, None]
    Y = np.arange(n)[None, :]
    sq = mul[np.arange(n), np.arange(n)]
    xy = mp[X, Y]
    y2 = np.broadcast_to(sq[None, :], (n, n))
    syx = mp[sp[Y], X]
    syxy = mp[syx, Y]
    points = [xy, y2, mp[xy, Y], mp[X, y2], syx, syxy, mp[sp[y2], X]]
    valid = np.ones((n, n), dtype=bool)
    for p in points:
        valid &= p >= 0
    mg = companion_mg(g)
    valid &= (sq >= 0)[None, :]
    lhs = np.abs(mg.values[None, :] * f.values[:, None]
                 - chi.values[None, :] * _val(f.values, syxy))
    rhs = (np.abs(g.values)[None, :] + 1.5) * delta
    return _row("companion_shift_defect", "|g(y)|d + 1.5d", lhs - rhs, valid)


def old_parity_bound(domain, sigma, chi, f, g, delta):
    """|2 f(x) (g(y) - m_g(y) g(y^{-1}))| <= |m_g(y)| d + 2|g(y)| d + 4d."""
    n = domain.n
    mul, inv = domain.mul, domain.inv
    mp, sp = _padded(mul), _padded(sigma.table)
    X = np.arange(n)[:, None]
    Y = np.arange(n)[None, :]
    Yi = np.broadcast_to(inv[None, :], (n, n))
    sq = mul[np.arange(n), np.arange(n)]
    y2 = np.broadcast_to(sq[None, :], (n, n))
    xy = mp[X, Y]
    xyi = mp[X, Yi]
    syix = mp[sp[Yi], X]
    points = [
        xy, xyi, y2, syix,
        mp[sp[Y], X],
        mp[syix, Y], mp[syix, y2],
        mp[sp[Y], xyi], mp[sp[y2], xyi],
        mp[xyi, y2],
    ]
    valid = np.ones((n, n), dtype=bool)
    for p in points:
        valid &= p >= 0
    mg = companion_mg(g)
    valid &= (sq >= 0)[None, :]
    gv = g.values
    lhs = np.abs(2.0 * f.values[:, None]
                 * (gv[None, :] - mg.values[None, :] * gv[inv][None, :]))
    rhs = (np.abs(mg.values)[None, :] + 2.0 * np.abs(gv)[None, :] + 4.0) * delta
    return _row("parity_defect", "|m_g(y)|d + 2|g(y)|d + 4d", lhs - rhs, valid)


def _section_grids(domain, a):
    n = domain.n
    mul = domain.mul
    X = np.arange(n)[:, None]
    Y = np.arange(n)[None, :]
    ax = np.broadcast_to(mul[a][:, None], (n, n))
    ay = np.broadcast_to(mul[a][None, :], (n, n))
    return X, Y, ax, ay


def old_sine_addition_bound(domain, sigma, chi, f, g, delta, a=0):
    """|f_a(xy) - f_a(x) g(y) - f_a(y) g(x)| <= |g(x)| delta + 1.5 delta.

    Valid when sigma is a homomorphism (its certificate cancels a
    sigma(xy) = sigma(x) sigma(y) pair); raises AuditInapplicable otherwise.
    """
    if not satisfies_morphism_law(domain, sigma.table, "automorphism"):
        raise AuditInapplicable("sigma is not a homomorphism on this domain")
    n = domain.n
    mul, st = domain.mul, sigma.table
    mp, sp = _padded(mul), _padded(st)
    X, Y, ax, ay = _section_grids(domain, a)
    xy = mp[X, Y]
    axy = mp[ax, Y]
    sya = np.broadcast_to(mul[st, a][None, :], (n, n))  # sigma(y) a
    points = [
        xy, ax, ay, axy, mp[a, xy],
        sya, mp[sya, X],
        sp[xy], mp[sp[xy], a],
        mp[sp[X], sya],
    ]
    valid = np.ones((n, n), dtype=bool)
    for p in points:
        valid &= p >= 0
    fv, gv = f.values, g.values
    section = section_function(f, g, a)
    fa = section.values
    valid &= (mul[a] >= 0)[:, None] & (mul[a] >= 0)[None, :]
    lhs = np.abs(_val(fv, axy) - fv[a] * _val(gv, xy)
                 - fa[:, None] * gv[None, :] - fa[None, :] * gv[:, None])
    rhs = (np.abs(gv)[:, None] + 1.5) * delta
    return _row("section_sine_addition_defect", "|g(x)|d + 1.5d", lhs - rhs, valid)


def old_symmetrized_sine_addition_bound(domain, sigma, chi, f, g, delta, a=0):
    """|f_a(xy) + f_a(yx) - 2 f_a(x) g(y) - 2 f_a(y) g(x)|
        <= |g(x)| d + |g(y)| d + 3d.

    The symmetrization cancels the sigma(xy) vs sigma(x)sigma(y) mismatch,
    so this holds for automorphisms and anti-automorphisms alike.
    """
    n = domain.n
    mul, st = domain.mul, sigma.table
    mp, sp = _padded(mul), _padded(st)
    X, Y, ax, ay = _section_grids(domain, a)
    xy, yx = mp[X, Y], mp[Y, X]
    axy, ayx = mp[ax, Y], mp[ay, X]
    sya = np.broadcast_to(mul[st, a][None, :], (n, n))
    sxa = np.broadcast_to(mul[st, a][:, None], (n, n))
    points = [
        xy, yx, ax, ay, axy, ayx,
        mp[a, xy], mp[a, yx],
        sya, sxa, mp[sya, X], mp[sxa, Y],
        sp[xy], sp[yx],
        mp[sp[xy], a], mp[sp[yx], a],
        mp[sp[X], sya], mp[sp[Y], sxa],
    ]
    valid = np.ones((n, n), dtype=bool)
    for p in points:
        valid &= p >= 0
    fv, gv = f.values, g.values
    section = section_function(f, g, a)
    fa = section.values
    valid &= (mul[a] >= 0)[:, None] & (mul[a] >= 0)[None, :]
    fa_xy = _val(fv, axy) - fv[a] * _val(gv, xy)
    fa_yx = _val(fv, ayx) - fv[a] * _val(gv, yx)
    lhs = np.abs(fa_xy + fa_yx - 2.0 * fa[:, None] * gv[None, :]
                 - 2.0 * fa[None, :] * gv[:, None])
    rhs = (np.abs(gv)[:, None] + np.abs(gv)[None, :] + 3.0) * delta
    return _row("symmetrized_sine_addition_defect", "|g(x)|d + |g(y)|d + 3d",
                lhs - rhs, valid)


OLD_AUDITS = {
    "audit_centrality_bound": old_centrality_bound,
    "audit_mg_shift_bound": old_mg_shift_bound,
    "audit_parity_bound": old_parity_bound,
    "audit_sine_addition_bound": old_sine_addition_bound,
    "audit_symmetrized_sine_addition_bound":
        old_symmetrized_sine_addition_bound,
}
SECTION_AUDITS = ("audit_sine_addition_bound",
                  "audit_symmetrized_sine_addition_bound")


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


# name: (windows in src, audit, sigma must be, proof coefficients per window,
#        closed-form inner LHS, stated RHS at delta = 1)
CERTIFICATES = {
    "centrality": (
        stability.CENTRALITY_WINDOWS, stability.audit_centrality_bound,
        "anti-automorphism",
        lambda p: {("x", "zy"): -0.5, ("x", "yz"): 0.5, ("xz", "y"): 0.5,
                   ("xy", "z"): -0.5, ("x", "z"): p.g("y"),
                   ("x", "y"): -p.g("z"), ("s(y)x", "z"): -p.chi("y") / 2,
                   ("s(z)x", "y"): p.chi("z") / 2},
        lambda p: p.f("x") * (p.g("zy") - p.g("yz")),
        lambda p: 2 * abs(p.g("z")) + 2 * abs(p.g("y")) + 6),
    "companion_shift": (
        stability.COMPANION_SHIFT_WINDOWS, stability.audit_mg_shift_bound,
        None,
        lambda p: {("x", "y"): -p.g("y"), ("xy", "y"): -0.5,
                   ("s(y)x", "y"): -p.chi("y") / 2, ("x", "yy"): 0.5},
        lambda p: p.mg("y") * p.f("x") - p.chi("y") * p.f("s(y)xy"),
        lambda p: abs(p.g("y")) + 1.5),
    "parity": (
        stability.PARITY_WINDOWS, stability.audit_parity_bound, None,
        lambda p: {("x", "Y"): p.mg("y"), ("xY", "y"): p.g("y"),
                   ("s(y)xY", "y"): p.chi("y") / 2, ("xY", "yy"): -0.5,
                   ("s(Y)x", "y"): p.chi("Y") * p.g("y"),
                   ("s(Y)xy", "y"): p.chi("Y") / 2,
                   ("s(Y)x", "yy"): -p.chi("Y") / 2},
        lambda p: 2.0 * p.f("x") * (p.g("y") - p.mg("y") * p.g("Y")),
        lambda p: abs(p.mg("y")) + 2 * abs(p.g("y")) + 4),
    "section_sine": (
        stability.SECTION_SINE_WINDOWS, stability.audit_sine_addition_bound,
        "automorphism", _sine_coefficients,
        lambda p: p.fa("xy") - p.fa("x") * p.g("y") - p.fa("y") * p.g("x"),
        lambda p: abs(p.g("x")) + 1.5),
    "symmetrized_sine": (
        stability.SYMMETRIZED_SINE_WINDOWS,
        stability.audit_symmetrized_sine_addition_bound, None,
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
    windows, audit, law, coefficients, closed_form, stated = CERTIFICATES[name]
    assert len(set(windows)) == len(windows)
    checked = 0
    for domain, sigma, chi in IDENTITY_SETUPS[setup]():
        if law and not satisfies_morphism_law(domain, sigma.table, law):
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
