"""Involutive morphisms, characters, multiplicative functions, additive maps.

Every character decision (multiplicativity, compatibility with sigma) reads
the complex values. Characters enumerated on finite groups also carry their
exact angles: each value is exp(2*pi*i*t) for a Fraction t, which names the
character in printed labels and dedup keys.
"""

from fractions import Fraction
from pathlib import Path

import cmath
import numpy as np

from .groups import abelianization

INVOLUTION_SEARCH_BUDGET = 2_000_000


class Involution:
    """A self-inverse morphism given by its index table.

    kind is 'automorphism' or 'anti-automorphism'; an involution can satisfy
    both laws (always so on abelian groups). label marks the two canonical
    instances 'identity' and 'inversion' when the table matches them.
    """

    def __init__(self, table, kind, label=None):
        self.table = np.asarray(table, dtype=np.int64)
        if kind not in ("automorphism", "anti-automorphism"):
            raise ValueError(f"unknown morphism kind {kind!r}")
        self.kind = kind
        self.label = label

    @property
    def is_identity(self):
        return self.label == "identity"

    @property
    def is_inversion(self):
        return self.label == "inversion"

    def __call__(self, a):
        return int(self.table[a])

    def __repr__(self):
        tag = self.label or self.kind
        return f"Involution({tag}, {list(self.table)})"


def _classify_label(domain, table):
    n = domain.n
    if (table == np.arange(n)).all():
        return "identity"
    if (table == domain.inv).all():
        return "inversion"
    return None


def is_involutive(domain, table):
    return (table[table] == np.arange(domain.n)).all()


def satisfies_morphism_law(domain, table, kind):
    """Exact law check over all pairs; skips out-of-ball products."""
    mul = domain.mul
    mapped = np.where(mul >= 0, table[np.maximum(mul, 0)], -1)
    if kind == "automorphism":
        law = mul[np.ix_(table, table)]
    else:
        law = mul[np.ix_(table, table)].T  # sigma(x y) = sigma(y) sigma(x)
    ok = (mul >= 0) & (law >= 0)
    return (mapped[ok] == law[ok]).all()


def identity_involution(domain):
    return Involution(np.arange(domain.n), "automorphism", label="identity")


def inversion_involution(domain):
    """Inversion is always an anti-automorphism; it is reported as an
    automorphism when it also is one, i.e. on abelian domains."""
    tab = domain.inv.copy()
    kind = "automorphism" if satisfies_morphism_law(domain, tab, "automorphism") \
        else "anti-automorphism"
    return Involution(tab, kind, label="inversion")


def _generating_set(G):
    """Greedy small generating set; empty for the trivial group."""
    from .groups import subgroup_closure

    gens = []
    have = {G.identity}
    for a in range(G.order):
        if a not in have:
            gens.append(a)
            have = set(subgroup_closure(G, gens))
            if len(have) == G.order:
                break
    return gens


def _extend_from_generators(G, gens, images, kind):
    """Complete a generator assignment to a full table, or return None.

    Walks products of generators; the morphism law forces every image.
    """
    table = np.full(G.order, -1, dtype=np.int64)
    table[G.identity] = G.identity
    for g, im in zip(gens, images):
        if table[g] != -1 and table[g] != im:
            return None
        table[g] = im
    frontier = [G.identity] + list(gens)
    seen = set(frontier)
    while frontier:
        x = frontier.pop()
        for g, im in zip(gens, images):
            y = G.op(x, g)
            if kind == "automorphism":
                fy = G.op(table[x], im)
            else:
                fy = G.op(im, table[x])
            if table[y] == -1:
                table[y] = fy
            elif table[y] != fy:
                return None
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    if (table == -1).any():
        return None
    return table


def enumerate_involutions(G, kind):
    """All involutive morphisms of the requested kind on a finite group.

    Generator-image search with order-preservation pruning, then exact
    filtering of the law and sigma o sigma = id.
    """
    if kind not in ("automorphism", "anti-automorphism"):
        raise ValueError(f"unknown morphism kind {kind!r}")
    gens = _generating_set(G)
    orders = [G.element_order(a) for a in range(G.order)]
    by_order = {}
    for a in range(G.order):
        by_order.setdefault(orders[a], []).append(a)

    found = {}
    budget = [INVOLUTION_SEARCH_BUDGET]

    def assign(i, images):
        if budget[0] <= 0:
            raise RuntimeError("involution search budget exceeded")
        budget[0] -= 1
        if i == len(gens):
            table = _extend_from_generators(G, gens, images, kind)
            if table is None:
                return
            if not is_involutive(G, table):
                return
            if not satisfies_morphism_law(G, table, kind):
                return
            found[tuple(table)] = table
            return
        # a morphism image must have the same element order
        for cand in by_order[orders[gens[i]]]:
            assign(i + 1, images + [cand])

    assign(0, [])
    tables = sorted(found)
    out = []
    for t in tables:
        tab = np.array(t, dtype=np.int64)
        out.append(Involution(tab, kind, label=_classify_label(G, tab)))
    # canonical instances first, rest in table order
    out.sort(key=lambda s: (not s.is_identity, not s.is_inversion, tuple(s.table)))
    return out


# --- characters -----------------------------------------------------------


def _angle_value(t):
    return cmath.exp(2j * cmath.pi * float(t))


# |chi(x) chi(sigma(x)) - 1| above this is incompatibility; on a finite
# group G an incompatible character misses 1 by at least |exp(2 pi i/|G|) - 1|
COMPAT_TOL = 1e-12


class Character:
    """A multiplicative function: the zero function, or a homomorphism into
    C*, unitary on finite groups.

    angles[i] is a Fraction t with value exp(2*pi*i*t), or None when only
    floating-point values are available (the zero function, characters read
    from a file, ball characters with free z's).
    """

    def __init__(self, domain, values, angles=None, unitary=None):
        self.domain = domain
        self.values = np.asarray(values, dtype=np.complex128)
        if len(self.values) != domain.n:
            raise ValueError("character length does not match domain")
        self.angles = angles
        if unitary is None:
            unitary = bool(np.allclose(np.abs(self.values), 1.0, atol=1e-12))
        self.unitary = unitary

    @classmethod
    def from_angles(cls, domain, angles):
        angles = [Fraction(t) % 1 for t in angles]
        values = np.array([_angle_value(t) for t in angles])
        return cls(domain, values, angles=angles, unitary=True)

    @classmethod
    def zero(cls, domain):
        return cls(domain, np.zeros(domain.n), unitary=False)

    @property
    def is_zero(self):
        # a multiplicative function that vanishes anywhere vanishes everywhere
        return bool(self.values[self.domain.identity] == 0)

    def __call__(self, a):
        return self.values[a]

    def check_multiplicative(self, tol=1e-12):
        mul = self.domain.mul
        ok = mul >= 0
        lhs = self.values[np.maximum(mul, 0)]
        rhs = self.values[:, None] * self.values[None, :]
        return bool(np.abs(lhs[ok] - rhs[ok]).max() <= tol)

    def __repr__(self):
        if self.is_zero:
            return "Character(0)"
        if self.angles is not None:
            return f"Character(angles={[str(t) for t in self.angles]})"
        return f"Character(values~{np.round(self.values, 3)})"


def enumerate_characters(G):
    """All characters of a finite group, via the abelianization.

    On the abelian quotient, characters are built by extending along a chain
    of subgroups: when a new generator g with g^r in H arrives, each existing
    character picks one of the r exact roots for its value at g.
    """
    Q, proj = abelianization(G)
    chars_q = [{Q.identity: Fraction(0)}]
    subgroup = [Q.identity]
    in_sub = {Q.identity}
    for g in range(Q.order):
        if g in in_sub:
            continue
        # smallest r >= 1 with g^r in the current subgroup
        r, p = 1, g
        while p not in in_sub:
            p = Q.op(p, g)
            r += 1
        powers = [Q.identity]
        for _ in range(r - 1):
            powers.append(Q.op(powers[-1], g))
        new_chars = []
        for phi in chars_q:
            base = phi[p]  # angle at g^r
            for j in range(r):
                ang_g = (Fraction(base) + j) / r
                ext = dict(phi)
                for t in range(1, r):
                    for h in subgroup:
                        ext[Q.op(h, powers[t])] = (phi[h] + t * ang_g) % 1
                new_chars.append(ext)
        chars_q = new_chars
        subgroup = sorted(set(Q.op(h, pw) for h in subgroup for pw in powers))
        in_sub = set(subgroup)
    if len(chars_q) != Q.order:
        raise AssertionError("character count must equal abelianization order")
    out = []
    for phi in chars_q:
        angles = [phi[proj[a]] for a in range(G.order)]
        out.append(Character.from_angles(G, angles))
    out.sort(key=lambda c: tuple(c.angles))
    return out


def trivial_character(domain):
    if domain.kind is None:
        return Character.from_angles(domain, [Fraction(0)] * domain.n)
    return Character(domain, np.ones(domain.n), unitary=True)


def compatibility_witness(domain, sigma, chi):
    """The first x with chi(x) chi(sigma(x)) != 1 and that value, or None
    when chi is compatible with sigma (chi(x sigma(x)) = 1 for every x).
    The product of values needs no product x sigma(x) inside a ball."""
    prod = chi.values * chi.values[sigma.table]
    bad = np.flatnonzero(np.abs(prod - 1.0) > COMPAT_TOL)
    if not bad.size:
        return None
    x = int(bad[0])
    return x, complex(prod[x])


def compatible_characters(domain, sigma, characters):
    """Keep the characters with chi(x * sigma(x)) = 1 for every x."""
    return [chi for chi in characters
            if compatibility_witness(domain, sigma, chi) is None]


def enumerate_multiplicative(G):
    """Zero plus all characters: a multiplicative function on a group that
    vanishes anywhere vanishes everywhere."""
    return [Character.zero(G)] + enumerate_characters(G)


# --- ball-domain morphism data -------------------------------------------


def ball_involution(ball, spec):
    """Named involutions on a ball: 'id' and 'inv'.

    'inv' is inversion: an automorphism on abelian kinds (the lattice), an
    anti-automorphism otherwise. Both preserve word length, so the tables
    are total on the ball.
    """
    if spec in ("id", "identity"):
        return identity_involution(ball)
    if spec in ("inv", "inversion", "neg"):
        return inversion_involution(ball)
    raise ValueError(f"unknown ball involution {spec!r}")


def ball_character(ball, zs):
    """chi(x) = z_1^c_1 ... z_k^c_k over the kind's abelianized coordinates.

    Unitary iff every |z_i| = 1; non-unitary values model unbounded
    multiplicative functions on the infinite group.
    """
    coords = ball.coords
    zs = [complex(z) for z in zs]
    if coords.shape[1] != len(zs):
        raise ValueError(f"expected {coords.shape[1]} base values, got {len(zs)}")
    if any(z == 0 for z in zs):
        raise ValueError("character base values must be nonzero")
    values = np.ones(ball.n, dtype=np.complex128)
    for i, z in enumerate(zs):
        values *= np.power(z, coords[:, i])
    unitary = all(abs(abs(z) - 1.0) <= 1e-12 for z in zs)
    return Character(ball, values, unitary=unitary)


class AdditiveMap:
    """a(x) = sum_i coeff_i * c_i(x) over abelianized integer coordinates.

    Finite groups only admit a = 0 (torsion): their coords have width 0, so
    the coefficient vector is empty there.
    """

    def __init__(self, domain, coefficients):
        self.domain = domain
        self.coefficients = np.asarray(coefficients, dtype=np.complex128)
        k = domain.coords.shape[1]
        if len(self.coefficients) != k:
            raise ValueError(f"expected {k} coefficients, got "
                             f"{len(self.coefficients)}")

    def values(self):
        return self.domain.coords @ self.coefficients

    def __repr__(self):
        return f"AdditiveMap({self.coefficients})"


# --- file formats ---------------------------------------------------------


def write_character(chi, path):
    lines = [f"{v.real:.17g} {v.imag:.17g}" for v in chi.values]
    Path(path).write_text("\n".join(lines) + "\n")


def read_character(path, domain):
    values = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        re, im = line.split()
        values.append(complex(float(re), float(im)))
    chi = Character(domain, values)
    if not chi.check_multiplicative(tol=1e-9):
        raise ValueError("character file does not define a multiplicative map")
    return chi
