"""Involutive morphisms, characters and multiplicative functions.

An involution and a character are both morphisms out of a finite group, so
each is fixed by where it sends a generating set: one generator-image search
(`_morphisms`) enumerates both, with element ids composed by the group law
for involutions and integer turns added mod the group exponent for
characters. The search assigns one generator at a time and drops a partial
assignment at its first conflicting Cayley edge; a search whose generator
assignments would exceed MORPHISM_SEARCH_BUDGET is refused before it starts.

Every character decision (multiplicativity, compatibility with sigma) reads
the complex values. Characters enumerated on finite groups also carry exact
integer turns over a period N: the value at x is exp(2*pi*i*turns[x]/N).
As the reduced fractions turns[x]/N, they name the character in dedup
keys and printed labels.
"""

import cmath
import functools
import math
from pathlib import Path

import numpy as np

# complete generator assignments one involution or character search may
# have to consider (the product of the generators' candidate counts)
MORPHISM_SEARCH_BUDGET = 2_000_000


class MorphismSearchTooLarge(ValueError):
    """The generator-image search would exceed MORPHISM_SEARCH_BUDGET."""


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
    """Exact law check over all pairs, one row block at a time; skips
    out-of-ball products."""
    mul = domain.mul
    for x0, x1 in domain.row_blocks():
        xy = mul[x0:x1]
        if kind == "automorphism":
            law = mul[np.ix_(table[x0:x1], table)]
        else:
            # sigma(x y) = sigma(y) sigma(x)
            law = mul[np.ix_(table, table[x0:x1])].T
        ok = (xy >= 0) & (law >= 0)
        if not (table[xy[ok]] == law[ok]).all():
            return False
    return True


def multiplicative_defect(domain, values):
    """max |v(xy) - v(x) v(y)| over the pairs with xy in the domain, one row
    block at a time; NaN wins, as in one max over the whole grid."""
    worst = []
    for x0, x1 in domain.row_blocks():
        xy = domain.mul[x0:x1].ravel()
        flat = np.flatnonzero(xy >= 0)
        if flat.size:
            x, y = np.divmod(flat, domain.n)
            worst.append(np.abs(values[xy[flat]]
                                - values[x0 + x] * values[y]).max())
    return float(np.max(worst)) if worst else 0.0


def identity_involution(domain):
    return Involution(np.arange(domain.n), "automorphism", label="identity")


def inversion_involution(domain):
    """Inversion is always an anti-automorphism; it is reported as an
    automorphism when it also is one, i.e. on abelian domains: with
    u = a^-1 and v = b^-1, the automorphism law (ab)^-1 = a^-1 b^-1 asks
    vu = uv wherever both products lie in the domain."""
    kind = "automorphism" if domain.is_abelian() else "anti-automorphism"
    return Involution(domain.inv.copy(), kind, label="inversion")


def _morphisms(G, candidates, law, unit):
    """Every map out of G that sends each generator g of G.edge_levels
    into candidates(g) and agrees with every Cayley-graph edge x -> x g:
    image(x g) = law[image(x)][image(g)], image(e) = unit, where law is a
    composition table as nested lists. Yields the images as lists indexed
    by element id.

    Generators are assigned one at a time; each assignment fills the map
    along the new edges of the subgroup generated so far, and a prefix is
    dropped at its first conflicting edge. A map consistent on every edge
    respects every product, since the generators reach all of G.

    Raises MorphismSearchTooLarge before the search when the product of the
    candidate counts exceeds MORPHISM_SEARCH_BUDGET. The pruned search
    tries at most the sum over prefixes of their candidate products, under
    twice that estimate when every generator has two or more candidates.
    """
    gens, levels = G.edge_levels
    choices = [list(candidates(g)) for g in gens]
    estimate = math.prod(len(c) for c in choices)
    if estimate > MORPHISM_SEARCH_BUDGET:
        raise MorphismSearchTooLarge(
            f"morphism search on {G.name} would try {estimate} generator "
            f"assignments (budget {MORPHISM_SEARCH_BUDGET})")
    table = [None] * G.order
    table[G.identity] = unit
    images = [None] * len(gens)

    def extend(i):
        if i == len(gens):
            yield list(table)
            return
        for image in choices[i]:
            images[i] = image
            filled = []
            for x, j, y in levels[i]:
                v = law[table[x]][images[j]]
                if table[y] is None:
                    table[y] = v
                    filled.append(y)
                elif table[y] != v:
                    break
            else:
                yield from extend(i + 1)
            for y in filled:
                table[y] = None

    yield from extend(0)


def enumerate_involutions(G, kind):
    """All involutive morphisms of the requested kind on a finite group.

    Generator-image search over images of the same element order, whose
    maps agree with every Cayley edge and so respect every product; of
    those, the ones with sigma o sigma = id.
    """
    if kind not in ("automorphism", "anti-automorphism"):
        raise ValueError(f"unknown morphism kind {kind!r}")
    orders = G.element_orders
    by_order = {}
    for a in range(G.order):
        by_order.setdefault(orders[a], []).append(a)
    # sigma(x g) = sigma(x) sigma(g), or sigma(g) sigma(x) for the anti kind
    law = (G.mul if kind == "automorphism" else G.mul.T).tolist()
    out = []
    for t in _morphisms(G, lambda g: by_order[orders[g]], law, G.identity):
        table = np.array(t, dtype=np.int64)
        if is_involutive(G, table):
            out.append(Involution(table, kind, label=_classify_label(G, table)))
    # canonical instances first, rest in table order
    out.sort(key=lambda s: (not s.is_identity, not s.is_inversion, tuple(s.table)))
    return out


# --- characters -----------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _unit_roots(period):
    """exp(2*pi*i*k/period) for k < period; k/period is int/int division,
    correctly rounded, so each value is bit-equal to the one computed from
    float(Fraction(k, period))."""
    return np.array([cmath.exp(2j * cmath.pi * (k / period))
                     for k in range(period)])


# |chi(x) chi(sigma(x)) - 1| above this is incompatibility; on a finite
# group G an incompatible character misses 1 by at least |exp(2 pi i/|G|) - 1|
COMPAT_TOL = 1e-12


class Character:
    """A multiplicative function: the zero function, or a homomorphism into
    C*, unitary on finite groups.

    Exact characters carry integer turns over a period N (the group
    exponent for enumerated characters): turns[x] in [0, N) and
    values[x] = exp(2*pi*i*turns[x]/N). turns and period are None when only
    floating-point values are available (the zero function, characters read
    from a file, ball characters with free z's). angle_labels() prints
    each turns[x]/N as a reduced fraction.
    """

    def __init__(self, domain, values, unitary=None, turns=None, period=None):
        self.domain = domain
        self.values = np.asarray(values, dtype=np.complex128)
        if len(self.values) != domain.n:
            raise ValueError("character length does not match domain")
        self.turns = turns
        self.period = period
        if unitary is None:
            unitary = bool(np.allclose(np.abs(self.values), 1.0, atol=1e-12))
        self.unitary = unitary

    @classmethod
    def from_turns(cls, domain, turns, period):
        turns = np.asarray(turns, dtype=np.int64) % period
        return cls(domain, _unit_roots(period)[turns], unitary=True,
                   turns=turns, period=period)

    @classmethod
    def zero(cls, domain):
        return cls(domain, np.zeros(domain.n), unitary=False)

    def angle_labels(self):
        """str(Fraction(k, N)) of each turn k, without the Fractions: k/N
        reduced by gcd(k, N), the numerator alone where that leaves N = 1."""
        d = np.gcd(self.turns, self.period)
        return [f"{k}/{p}" if p != 1 else str(k) for k, p in
                zip((self.turns // d).tolist(), (self.period // d).tolist())]

    @property
    def is_zero(self):
        # a multiplicative function that vanishes anywhere vanishes everywhere
        return bool(self.values[self.domain.identity] == 0)

    def check_multiplicative(self, tol=1e-12):
        return multiplicative_defect(self.domain, self.values) <= tol

    def __repr__(self):
        if self.is_zero:
            return "Character(0)"
        if self.turns is not None:
            return f"Character(angles={self.angle_labels()})"
        return f"Character(values~{np.round(self.values, 3)})"


def enumerate_characters(G):
    """All characters of a finite group, sorted by their turns over the
    group exponent N (the order of their Fraction angles, since every table
    shares the denominator N). The search runs once per group; its tables
    are cached on G."""
    N, tables = G.character_turns
    return [Character.from_turns(G, t, N) for t in tables]


def search_character_turns(G):
    """(N, tables): the group exponent N and, sorted, every homomorphism
    into Z/N as a turn table, from the generator-image search with turns
    k*N/r at a generator of order r."""
    orders = G.element_orders
    N = math.lcm(*orders)

    def turns(g):
        return range(0, N, N // orders[g])

    add = (np.add.outer(np.arange(N), np.arange(N)) % N).tolist()
    return N, tuple(sorted(map(tuple, _morphisms(G, turns, add, 0))))


def trivial_character(domain):
    if domain.kind is None:
        return Character.from_turns(domain, np.zeros(domain.n), 1)
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


# --- file formats ---------------------------------------------------------


def read_character(path, domain):
    values = []
    for line in Path(path).read_text(encoding="utf-8-sig").splitlines():
        line = line.strip()
        if not line:
            continue
        re, im = line.split()
        values.append(complex(float(re), float(im)))
    chi = Character(domain, values)
    if not chi.check_multiplicative(tol=1e-9):
        raise ValueError("character file does not define a multiplicative map")
    return chi
