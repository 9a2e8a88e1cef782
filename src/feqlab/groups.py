"""Finite groups as Cayley tables and balls of finitely generated infinite groups.

Every domain exposes the same indexed interface: elements are dense integer
ids with the identity at index 0, ``mul[a, b]`` gives the product id (or -1
when the product falls outside a ball window), and ``inv[a]`` the inverse id.
"""

import itertools
import math

import numpy as np

# a ball's n x n int64 multiplication table may take at most this much; the
# element cap follows from it and is enforced level by level during the BFS,
# before any table is allocated
BALL_TABLE_BYTES = 64 * 2**20
BALL_ELEMENT_CAP = math.isqrt(BALL_TABLE_BYTES // 8)

# keep n^2 residual sweeps under a second
MAX_SYMMETRIC_N = 5
MAX_DIHEDRAL_N = 8


class FiniteGroup:
    """A finite group given by its multiplication table.

    mul is an order x order array of element indices; identity is index 0.
    """

    def __init__(self, mul, name="G", check=True):
        self.mul = np.asarray(mul, dtype=np.int64)
        if self.mul.ndim != 2 or self.mul.shape[0] != self.mul.shape[1]:
            raise ValueError("multiplication table must be square")
        self.order = self.mul.shape[0]
        self.n = self.order
        self.identity = 0
        self.name = name
        self.inv = self._build_inverses()
        if check:
            self.check()

    def _build_inverses(self):
        inv = np.full(self.order, -1, dtype=np.int64)
        for a in range(self.order):
            hits = np.flatnonzero(self.mul[a] == self.identity)
            if len(hits) != 1:
                raise ValueError(f"element {a} has {len(hits)} right inverses")
            inv[a] = hits[0]
        return inv

    def check(self):
        """Assert the group axioms on the table. Exact integer checks."""
        n = self.order
        if not ((self.mul >= 0) & (self.mul < n)).all():
            raise ValueError("table entries out of range")
        if not (self.mul[0] == np.arange(n)).all() or not (self.mul[:, 0] == np.arange(n)).all():
            raise ValueError("index 0 is not a two-sided identity")
        # associativity: (ab)c == a(bc) via table composition
        ab_c = self.mul[self.mul, :]            # [a,b,c] -> (ab)c
        a_bc = self.mul[:, self.mul]            # [a,b,c] -> a(bc)
        if not (ab_c == a_bc).all():
            raise ValueError("table is not associative")
        if sorted(self.inv) != list(range(n)):
            raise ValueError("inverse map is not a bijection")

    def op(self, a, b):
        return int(self.mul[a, b])

    def inverse(self, a):
        return int(self.inv[a])

    def is_abelian(self):
        return (self.mul == self.mul.T).all()

    def element_order(self, a):
        k, x = 1, a
        while x != self.identity:
            x = self.op(x, a)
            k += 1
        return k

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"

    # --- constructors -----------------------------------------------------

    @classmethod
    def from_func(cls, elements, mult, name="G"):
        """Build from an element list and a multiplication callable.

        elements[0] must be the identity.
        """
        index = {e: i for i, e in enumerate(elements)}
        n = len(elements)
        mul = np.zeros((n, n), dtype=np.int64)
        for i, a in enumerate(elements):
            for j, b in enumerate(elements):
                mul[i, j] = index[mult(a, b)]
        return cls(mul, name=name)

    @classmethod
    def cyclic(cls, n, name=None):
        if n < 1:
            raise ValueError("cyclic group needs n >= 1")
        k = np.arange(n)
        mul = (k[:, None] + k[None, :]) % n
        return cls(mul, name=name or f"Z{n}")

    @classmethod
    def symmetric(cls, n, name=None):
        if not 1 <= n <= MAX_SYMMETRIC_N:
            raise ValueError(f"S_n supported for 1 <= n <= {MAX_SYMMETRIC_N}")
        # identity permutation comes first in lexicographic order
        perms = list(itertools.permutations(range(n)))

        def compose(p, q):  # (p*q)(i) = p(q(i))
            return tuple(p[q[i]] for i in range(n))

        return cls.from_func(perms, compose, name=name or f"S{n}")

    @classmethod
    def dihedral(cls, n, name=None):
        """D_n of order 2n: rotations r^k and reflections s r^k."""
        if not 1 <= n <= MAX_DIHEDRAL_N:
            raise ValueError(f"D_n supported for 1 <= n <= {MAX_DIHEDRAL_N}")
        elements = [(0, k) for k in range(n)] + [(1, k) for k in range(n)]

        def mult(a, b):
            # (s^i r^k)(s^j r^m) = s^(i+j) r^(((-1)^j) k + m)
            i, k = a
            j, m = b
            return ((i + j) % 2, ((k if j == 0 else -k) + m) % n)

        return cls.from_func(elements, mult, name=name or f"D{n}")

    @classmethod
    def quaternion(cls, name="Q8"):
        """Q8 = {1, -1, i, -i, j, -j, k, -k}."""
        units = ["1", "i", "j", "k"]
        table = {  # unit products, (u, v) -> (sign, unit)
            ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
            ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
            ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
            ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
        }
        elements = [(s, u) for u in units for s in (1, -1)]

        def mult(a, b):
            sa, ua = a
            sb, ub = b
            s, u = table[(ua, ub)]
            return (sa * sb * s, u)

        return cls.from_func(elements, mult, name=name)


def direct_product(G, H):
    """Componentwise product group on pairs, ordered G-major with (e,e) first."""
    nG, nH = G.order, H.order
    mulG = G.mul[:, None, :, None]
    mulH = H.mul[None, :, None, :]
    mul = (mulG * nH + mulH).reshape(nG * nH, nG * nH)
    return FiniteGroup(mul, name=f"{G.name}x{H.name}")


def build_catalog_group(spec):
    """Build a group from a short name: Zn, ZmxZn, Sn (n<=5), Dn (n<=8), Q8."""
    s = spec.strip()
    if s.upper() == "Q8":
        return FiniteGroup.quaternion()
    if "x" in s:
        left, _, right = s.partition("x")
        return direct_product(build_catalog_group(left), build_catalog_group(right))
    kind, num = s[:1].upper(), s[1:]
    if not num.isdigit():
        raise ValueError(f"unknown group spec {spec!r}")
    n = int(num)
    if kind == "Z":
        return FiniteGroup.cyclic(n)
    if kind == "S":
        return FiniteGroup.symmetric(n)
    if kind == "D":
        return FiniteGroup.dihedral(n)
    raise ValueError(f"unknown group spec {spec!r}")


CATALOG_NAMES = [
    "Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8",
    "Z2xZ2", "Z2xZ4", "Z2xZ3", "S3", "S4", "D4", "Q8",
]


def subgroup_closure(G, gens):
    """Smallest subgroup of G containing gens, as a sorted id list."""
    seen = {G.identity}
    frontier = [G.identity]
    gens = set(gens) | {G.inverse(g) for g in gens}
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = G.op(x, g)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return sorted(seen)


def commutator_subgroup(G):
    comms = {G.op(G.op(a, b), G.op(G.inverse(a), G.inverse(b)))
             for a in range(G.order) for b in range(G.order)}
    return subgroup_closure(G, comms)


def abelianization(G):
    """Quotient by the commutator subgroup.

    Returns (Q, proj) with proj[a] = index of a's coset in Q. The coset of
    the identity gets index 0; Q is abelian by construction.
    """
    N = commutator_subgroup(G)
    coset_of = {}
    reps = []
    for a in range(G.order):
        cos = frozenset(G.op(a, h) for h in N)
        if cos not in coset_of:
            coset_of[cos] = len(reps)
            reps.append(a)
    # reindex so the identity coset is 0 (it is: a=0 comes first)
    proj = np.zeros(G.order, dtype=np.int64)
    for a in range(G.order):
        cos = frozenset(G.op(a, h) for h in N)
        proj[a] = coset_of[cos]
    k = len(reps)
    mul = np.zeros((k, k), dtype=np.int64)
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            mul[i, j] = proj[G.op(a, b)]
    Q = FiniteGroup(mul, name=f"{G.name}_ab")
    if not Q.is_abelian():
        raise AssertionError("quotient by commutator subgroup must be abelian")
    return Q, proj


# --- infinite groups, seen through word-length balls ----------------------


class IntegerLattice:
    """Z^d with generators +-e_i; word length is the l1 norm."""

    def __init__(self, d):
        if d < 1:
            raise ValueError("dimension must be >= 1")
        self.d = d
        self.name = f"Z^{d}"

    def identity(self):
        return (0,) * self.d

    def generators(self):
        gens = []
        for i in range(self.d):
            e = [0] * self.d
            e[i] = 1
            gens.append(tuple(e))
            e[i] = -1
            gens.append(tuple(e))
        return gens

    def mult(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def invert(self, a):
        return tuple(-x for x in a)

    def abelian_coords(self, a):
        return a


class DiscreteHeisenberg:
    """Upper-triangular 3x3 integer matrices, coordinates (a, b, c).

    (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a*b'); generators are the two
    off-diagonal unit matrices and their inverses.
    """

    name = "H3"

    def identity(self):
        return (0, 0, 0)

    def generators(self):
        return [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]

    def mult(self, u, v):
        a, b, c = u
        ap, bp, cp = v
        return (a + ap, b + bp, c + cp + a * bp)

    def invert(self, u):
        a, b, c = u
        return (-a, -b, -c + a * b)

    def abelian_coords(self, u):
        # the center (c coordinate) is the commutator subgroup
        return (u[0], u[1])


class FreeGroup:
    """Free group on `rank` letters; elements are reduced words.

    A word is a tuple of nonzero ints in {-rank..-1, 1..rank}; negative
    means the inverse letter.
    """

    def __init__(self, rank):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.rank = rank
        self.name = f"F{rank}"

    def identity(self):
        return ()

    def generators(self):
        return [(i,) for i in range(1, self.rank + 1)] + \
               [(-i,) for i in range(1, self.rank + 1)]

    def mult(self, a, b):
        out = list(a)
        for letter in b:
            if out and out[-1] == -letter:
                out.pop()
            else:
                out.append(letter)
        return tuple(out)

    def invert(self, a):
        return tuple(-letter for letter in reversed(a))

    def abelian_coords(self, a):
        sums = [0] * self.rank
        for letter in a:
            sums[abs(letter) - 1] += 1 if letter > 0 else -1
        return tuple(sums)


class BallTooLarge(ValueError):
    """A ball has more elements than the cap allows; the message carries the
    estimated size of its multiplication table."""


class BallDomain:
    """Word-length ball of radius r in an infinite group.

    Products that leave the ball are marked -1 in mul; inverses always stay
    inside (word length is inversion-invariant), so inv is total.
    """

    def __init__(self, kind, radius, cap=BALL_ELEMENT_CAP):
        if radius < 0:
            raise ValueError("radius must be >= 0")
        self.kind = kind
        self.radius = radius
        self.elements, self.length = self._enumerate(kind, radius, cap)
        self.index = {el: i for i, el in enumerate(self.elements)}
        self.n = len(self.elements)
        self.order = self.n
        self.identity = 0
        self.name = f"{kind.name}_ball{radius}"
        self._build_tables()

    @staticmethod
    def _enumerate(kind, radius, cap):
        """BFS over generator multiplication; level-sorted for determinism."""
        gens = kind.generators()
        e = kind.identity()
        dist = {e: 0}
        levels = [[e]]
        frontier = [e]
        for r in range(1, radius + 1):
            nxt = set()
            for x in frontier:
                for g in gens:
                    y = kind.mult(x, g)
                    if y not in dist:
                        nxt.add(y)
            for y in nxt:
                dist[y] = r
            if len(dist) > cap:
                raise BallTooLarge(
                    f"ball of radius {radius} exceeds the element cap {cap}: "
                    f"radius {r} already holds {len(dist)} elements, so its "
                    f"multiplication table needs at least "
                    f"{8 * len(dist) ** 2 / 2**20:.1f} MiB "
                    f"(budget {8 * cap ** 2 / 2**20:.1f} MiB)")
            frontier = sorted(nxt)
            levels.append(frontier)
        elements = [el for level in levels for el in level]
        lengths = np.array([dist[el] for el in elements], dtype=np.int64)
        return elements, lengths

    def _build_tables(self):
        n = self.n
        self.mul = np.full((n, n), -1, dtype=np.int64)
        for i, a in enumerate(self.elements):
            for j, b in enumerate(self.elements):
                p = self.kind.mult(a, b)
                self.mul[i, j] = self.index.get(p, -1)
        self.inv = np.zeros(n, dtype=np.int64)
        for i, a in enumerate(self.elements):
            q = self.kind.invert(a)
            if q not in self.index:
                raise AssertionError("ball is not inverse-closed")
            self.inv[i] = self.index[q]

    def op(self, a, b):
        return int(self.mul[a, b])

    def inverse(self, a):
        return int(self.inv[a])

    def __repr__(self):
        return f"BallDomain({self.name}, n={self.n})"
