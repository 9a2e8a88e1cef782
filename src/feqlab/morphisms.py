"""Involutive morphisms, characters, multiplicative functions, additive maps.

An involution and a character are both morphisms out of a finite group, so
each is fixed by where it sends a generating set: one generator-image search
(`_morphisms`) enumerates both, with element ids composed by the group law
for involutions and exact angles added mod 1 for characters.

Every character decision (multiplicativity, compatibility with sigma) reads
the complex values. Characters enumerated on finite groups also carry their
exact angles: each value is exp(2*pi*i*t) for a Fraction t, which names the
character in printed labels and dedup keys.
"""

import cmath
import itertools
from fractions import Fraction
from pathlib import Path

import numpy as np

from .groups import subgroup_closure

# generator assignments one involution or character search may try
MORPHISM_SEARCH_BUDGET = 2_000_000


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
    gens = []
    have = {G.identity}
    for a in range(G.order):
        if a not in have:
            gens.append(a)
            have = set(subgroup_closure(G, gens))
            if len(have) == G.order:
                break
    return gens


def _morphisms(G, candidates, compose, unit):
    """Every map out of G that sends each generator g of _generating_set(G)
    into candidates(g) and agrees with every Cayley-graph edge x -> x g:
    image(x g) = compose(image(x), image(g)), image(e) = unit. Yields the
    images as lists indexed by element id.

    The edges are walked once from the identity; each generator assignment
    then fills its map along them and is dropped at the first conflicting
    edge. A consistent map respects every product, since the generators
    reach all of G.
    """
    gens = _generating_set(G)
    edges = []
    seen = {G.identity}
    frontier = [G.identity]
    while frontier:
        x = frontier.pop()
        for i, g in enumerate(gens):
            y = G.op(x, g)
            edges.append((x, i, y))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    budget = MORPHISM_SEARCH_BUDGET
    for images in itertools.product(*(candidates(g) for g in gens)):
        budget -= 1
        if budget < 0:
            raise RuntimeError("morphism search budget exceeded")
        table = [None] * G.order
        table[G.identity] = unit
        for x, i, y in edges:
            v = compose(table[x], images[i])
            if table[y] is None:
                table[y] = v
            elif table[y] != v:
                break
        else:
            yield table


def enumerate_involutions(G, kind):
    """All involutive morphisms of the requested kind on a finite group.

    Generator-image search over images of the same element order, then
    exact filtering of the law and sigma o sigma = id.
    """
    if kind not in ("automorphism", "anti-automorphism"):
        raise ValueError(f"unknown morphism kind {kind!r}")
    orders = [G.element_order(a) for a in range(G.order)]
    by_order = {}
    for a in range(G.order):
        by_order.setdefault(orders[a], []).append(a)
    if kind == "automorphism":
        compose = G.op
    else:
        def compose(a, b):  # sigma(x g) = sigma(g) sigma(x)
            return G.op(b, a)
    out = []
    for t in _morphisms(G, lambda g: by_order[orders[g]], compose, G.identity):
        table = np.array(t, dtype=np.int64)
        if is_involutive(G, table) and satisfies_morphism_law(G, table, kind):
            out.append(Involution(table, kind, label=_classify_label(G, table)))
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
    """All characters of a finite group, sorted by their angles: the
    homomorphisms into the angles mod 1, from the generator-image search
    with angles k/r at a generator of order r."""
    def angles(g):
        r = G.element_order(g)
        return [Fraction(k, r) for k in range(r)]

    out = [Character.from_angles(G, t) for t in
           _morphisms(G, angles, lambda a, b: (a + b) % 1, Fraction(0))]
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
