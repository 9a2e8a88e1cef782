"""Finite groups and word-length balls of finitely generated infinite groups,
both as one table-backed Domain type.

Every domain exposes the same indexed interface: elements are dense integer
ids with the identity at index 0, ``mul[a, b]`` gives the product id (or -1
when the product falls outside a ball window), and ``inv[a]`` the inverse id.
"""

import functools
import itertools
import math

import numpy as np

# a ball's n x n int64 multiplication table may take at most this much; the
# element cap follows from it and is enforced level by level during the BFS,
# before any table is allocated
BALL_TABLE_BYTES = 64 * 2**20
BALL_ELEMENT_CAP = math.isqrt(BALL_TABLE_BYTES // 8)
# a ball's table is built from right multiplication by each generator,
# tabulated on the auxiliary ball of radius floor(3r/2): that gens x
# (|B_{3r/2}| + 1) int64 table may take at most this much, checked level by
# level during the same BFS, after the element cap. Every ball under the
# element cap fits; the largest, lattice:1447 at r=1, needs 63.9 MiB
BALL_AUX_BYTES = 64 * 2**20
# the column recursion gathers at most this many table entries at a time
_BALL_BLOCK_ENTRIES = 2**18
# the two n x n x n int64 grids of a finite group's associativity check may
# take at most this much together; the order cap follows from it and is
# enforced by the cyclic and direct-product constructors, before any table
# is allocated
GROUP_CHECK_BYTES = 256 * 2**20
GROUP_ORDER_CAP = next(n for n in itertools.count()
                       if 16 * (n + 1) ** 3 > GROUP_CHECK_BYTES)

# keep n^2 residual sweeps under a second
MAX_SYMMETRIC_N = 5
MAX_DIHEDRAL_N = 8


class Domain:
    """A finite group (kind None; its table is checked against the group
    axioms) or a word-length ball of the infinite group `kind`, with its
    BFS-ordered `elements`, their `index`, word `length` and `radius`.
    coords[a] holds a's abelianized integer coordinates: width 0 on a finite
    group, whose only additive map is zero."""

    def __init__(self, mul, name="G", kind=None, elements=None, length=None,
                 radius=None, coords=None):
        self.mul = np.asarray(mul, dtype=np.int64)
        if self.mul.ndim != 2 or self.mul.shape[0] != self.mul.shape[1]:
            raise ValueError("multiplication table must be square")
        self.order = self.n = self.mul.shape[0]
        self.identity = 0
        self.name = name
        self.kind = kind
        self.elements = elements
        self.index = None if elements is None else \
            {el: i for i, el in enumerate(elements)}
        self.length = length
        self.radius = radius
        self.coords = np.zeros((self.n, 0), np.int64) if coords is None else coords
        self.inv = _inverses(self.mul)
        if kind is None:
            self.check()

    @functools.cached_property
    def is_total(self):
        """True when no product leaves the domain."""
        return bool((self.mul >= 0).all())

    def restrict(self, r):
        """The radius-r ball inside this one, equal to a fresh build: BFS order
        makes it a prefix, so products past the prefix leave it. At this
        ball's own radius it is this ball itself, not a copy."""
        if self.kind is None or not 0 <= r <= self.radius:
            raise ValueError(f"{self.name} has no sub-ball of radius {r}")
        if r == self.radius:
            return self
        k = int(np.searchsorted(self.length, r, side="right"))
        head = self.mul[:k, :k]
        return Domain(np.where(head < k, head, -1),
                      name=f"{self.kind.name}_ball{r}", kind=self.kind,
                      elements=self.elements[:k], length=self.length[:k],
                      radius=r, coords=self.coords[:k])

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
        """The order of a; ValueError when a power of a leaves the domain."""
        k, x = 1, a
        while x != self.identity:
            x = self.op(x, a)
            if x < 0:
                raise ValueError(
                    f"power {k + 1} of element {a} leaves {self.name}")
            k += 1
        return k

    def __repr__(self):
        return f"Domain({self.name}, n={self.n})"

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
        _check_order(n, name or f"Z{n}")
        k = np.arange(n)
        mul = (k[:, None] + k[None, :]) % n
        return cls(mul, name=name or f"Z{n}")

    @classmethod
    def symmetric(cls, n, name=None):
        if not 1 <= n <= MAX_SYMMETRIC_N:
            raise ValueError(f"S_n supported for 1 <= n <= {MAX_SYMMETRIC_N}")
        # lexicographic order, identity first; (p*q)(i) = p(q(i)) is P[p, P[q]]
        P = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
        # a permutation read as base-n digits indexes its lexicographic rank
        place = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
        rank = np.empty(n ** n, dtype=np.int64)
        rank[P @ place] = np.arange(len(P))
        return cls(rank[P[:, P] @ place], name=name or f"S{n}")

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


def _check_order(n, name):
    """Refuse a finite group whose table check would pass GROUP_CHECK_BYTES;
    the error gives the estimate."""
    if n > GROUP_ORDER_CAP:
        raise ValueError(
            f"group {name} of order {n} exceeds the order cap "
            f"{GROUP_ORDER_CAP}: checking its table needs "
            f"{16 * n ** 3 / 2**20:.1f} MiB (budget "
            f"{GROUP_CHECK_BYTES / 2**20:.1f} MiB)")


def direct_product(G, H):
    """Componentwise product group on pairs, ordered G-major with (e,e) first."""
    nG, nH = G.order, H.order
    _check_order(nG * nH, f"{G.name}x{H.name}")
    mulG = G.mul[:, None, :, None]
    mulH = H.mul[None, :, None, :]
    mul = (mulG * nH + mulH).reshape(nG * nH, nG * nH)
    return Domain(mul, name=f"{G.name}x{H.name}")


def build_catalog_group(spec):
    """Build a group from a short name: Zn, ZmxZn, Sn (n<=5), Dn (n<=8), Q8."""
    s = spec.strip()
    if s.upper() == "Q8":
        return Domain.quaternion()
    if "x" in s:
        left, _, right = s.partition("x")
        return direct_product(build_catalog_group(left), build_catalog_group(right))
    kind, num = s[:1].upper(), s[1:]
    if not num.isdigit():
        raise ValueError(f"unknown group spec {spec!r}")
    n = int(num)
    if kind == "Z":
        return Domain.cyclic(n)
    if kind == "S":
        return Domain.symmetric(n)
    if kind == "D":
        return Domain.dihedral(n)
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

    def abelian_coords(self, a):
        sums = [0] * self.rank
        for letter in a:
            sums[abs(letter) - 1] += 1 if letter > 0 else -1
        return tuple(sums)


class BallTooLarge(ValueError):
    """A ball has more elements than the cap allows; the message carries the
    estimated size of its multiplication table."""


def _inverses(mul):
    """inv[a] = the one column of row a holding the identity (a ball is
    inverse-closed, since word length is inversion-invariant)."""
    hits = mul == 0
    counts = hits.sum(axis=1)
    bad = np.flatnonzero(counts != 1)
    if bad.size:
        raise ValueError(f"element {bad[0]} has {counts[bad[0]]} right inverses")
    return hits.argmax(axis=1)


def _bfs(kind, radius, depth, cap):
    """Breadth-first search of the ball of radius `depth` >= `radius`.

    Returns its elements in BFS order (level-sorted, so each ball is a
    prefix of every larger one), their index and word lengths, and for each
    element but the identity the BFS parent id and generator index s of the
    first edge that reaches it: elements[j] = elements[parent[j]] * gens[s].
    Levels up to `radius` are held under `cap` elements; from level `radius`
    on, the right-multiplication table over the elements found so far must
    fit in BALL_AUX_BYTES. Both are checked before the next level is built."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    gens = kind.generators()
    e = kind.identity()
    elements, index, length, parent, step = [e], {e: 0}, [0], [-1], [-1]
    lo = 0
    for k in range(depth + 1):
        if k:
            nxt = {}
            for x_id in range(lo, len(elements)):
                x = elements[x_id]
                for s, g in enumerate(gens):
                    y = kind.mult(x, g)
                    if y not in index and y not in nxt:
                        nxt[y] = (x_id, s)
            lo = len(elements)
            for y in sorted(nxt):
                index[y] = len(elements)
                elements.append(y)
                length.append(k)
                parent.append(nxt[y][0])
                step.append(nxt[y][1])
        if k <= radius and len(elements) > cap:
            raise BallTooLarge(
                f"ball of radius {radius} exceeds the element cap {cap}: "
                f"radius {k} already holds {len(elements)} elements, so its "
                f"multiplication table needs at least "
                f"{8 * len(elements) ** 2 / 2**20:.1f} MiB "
                f"(budget {8 * cap ** 2 / 2**20:.1f} MiB)")
        aux = 8 * len(gens) * (len(elements) + 1)
        if k >= radius and aux > BALL_AUX_BYTES:
            raise BallTooLarge(
                f"ball of radius {radius} exceeds the auxiliary budget: "
                f"right multiplication by {len(gens)} generators on the "
                f"radius-{k} ball ({len(elements)} elements) needs at least "
                f"{aux / 2**20:.1f} MiB "
                f"(budget {BALL_AUX_BYTES / 2**20:.1f} MiB)")
    return (elements, index, np.array(length, dtype=np.int64),
            np.array(parent, dtype=np.int64), np.array(step, dtype=np.int64))


def ball_elements(kind, radius, cap=BALL_ELEMENT_CAP):
    """The elements of the radius ball in BFS order (level-sorted, so each
    ball is a prefix of every larger one) and their word lengths."""
    elements, _, length, _, _ = _bfs(kind, radius, radius, cap)
    return elements, length


# a function named like a class: the benchmark tracer wraps it by this name
def BallDomain(kind, radius, cap=BALL_ELEMENT_CAP):
    """The word-length ball of this radius in `kind`, as a Domain.

    Its table is built one BFS level of columns at a time: column j = p * s
    (BFS parent p, generator s) holds x * j = (x * p) * s, so it is right
    multiplication by s applied to column p. An entry x * p of a column at
    depth d = |p| leads back into the ball through p's BFS descendants only
    if |x * p| <= 2r - d, and |x * p| <= r + d; so every entry that matters
    lies in the auxiliary ball of radius floor(3r/2), on which right
    multiplication is tabulated once with kind.mult. A product that leaves
    the auxiliary ball becomes -1 and stays -1."""
    depth = 3 * radius // 2
    elements, index, length, parent, step = _bfs(kind, radius, depth, cap)
    n = int(np.searchsorted(length, radius, side="right"))
    gens = kind.generators()
    # right[s, x] = x * gens[s]; the last column maps -1 to -1
    right = np.full((len(gens), len(elements) + 1), -1, dtype=np.int64)
    for s, g in enumerate(gens):
        right[s, :-1] = [index.get(kind.mult(x, g), -1) for x in elements]
    del elements[n:], index
    starts = np.searchsorted(length, np.arange(radius + 2))
    mul = np.empty((n, n), dtype=np.int64)
    mul[:, 0] = np.arange(n)
    block = max(1, _BALL_BLOCK_ENTRIES // n)
    for d in range(1, radius + 1):
        for lo in range(starts[d], starts[d + 1], block):
            hi = min(lo + block, starts[d + 1])
            mul[:, lo:hi] = right[step[lo:hi], mul[:, parent[lo:hi]]]
    del right
    # the columns hold auxiliary ids; those past the ball leave it
    mul[mul >= n] = -1
    coords = np.array([kind.abelian_coords(el) for el in elements],
                      dtype=np.int64)
    return Domain(mul, name=f"{kind.name}_ball{radius}", kind=kind,
                  elements=elements, length=length[:n].copy(), radius=radius,
                  coords=coords)
