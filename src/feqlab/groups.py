"""Finite groups and word-length balls of finitely generated infinite groups,
both as one table-backed Domain type.

Every domain exposes the same indexed interface: elements are dense integer
ids with the identity at index 0, ``mul[a, b]`` gives the product id (or -1
when the product falls outside a ball window), and ``inv[a]`` the inverse id.
"""

import functools
import itertools
import math
from decimal import Decimal

import numpy as np

from .morphisms import search_character_turns

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
# an n^2 sweep over a table (the pair residual, the morphism law) reads it
# in row blocks of about this many entries
_ROW_BLOCK_ENTRIES = 2**16
# the largest finite group order: solving on a group of order n takes a
# dense n^2 x n complex128 system, 16 n^3 bytes, 256 MiB at this order.
# Enforced by the constructors before any table is allocated
GROUP_ORDER_CAP = 256

# keep n^2 residual sweeps under a second
MAX_DIHEDRAL_N = 8


class Domain:
    """A finite group (kind None; its table is checked against the group
    axioms) or a word-length ball of the infinite group `kind`, with its
    BFS-ordered `elements`, their word `length` and `radius`.
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
        """Assert the group axioms on the table. Exact integer checks; for
        associativity, Light's test: (xa)y = x(ay) for all x, y, one n x n
        comparison per generator a of edge_levels. The passing a contain e
        and are closed under products: for passing a and b, (x(ab))y =
        ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y), by a, b, a, then a at
        x = a. The walk reaches every element as a product of generators,
        so every element passes."""
        n, mul = self.order, self.mul
        if not ((mul >= 0) & (mul < n)).all():
            raise ValueError("table entries out of range")
        if not (mul[0] == np.arange(n)).all() or not (mul[:, 0] == np.arange(n)).all():
            raise ValueError("index 0 is not a two-sided identity")
        for a in self.edge_levels[0]:
            if not (mul[mul[:, a]] == mul[:, mul[a]]).all():
                raise ValueError("table is not associative")
        if sorted(self.inv) != list(range(n)):
            raise ValueError("inverse map is not a bijection")

    @functools.cached_property
    def edge_levels(self):
        """The Cayley walk of a finite group (a ball's table has -1
        entries): (gens, levels). Each generator is the least id that the
        walk from the earlier ones has not reached (none for the trivial
        group); level i lists, in walk order from <gens[:i]>, every edge
        (x, j, x g_j) with x in <gens[:i+1]>, j <= i, that no earlier level
        lists. Each edge's source is reached before it is used, so a walk
        over levels 0..i maps all of <gens[:i+1]>."""
        mul = self.mul.tolist()
        seen = {self.identity}
        gens, levels = [], []
        while len(seen) < self.order:
            i = len(gens)
            gens.append(next(a for a in range(self.order) if a not in seen))
            old = set(seen)
            frontier = sorted(old)
            edges = []
            while frontier:
                x = frontier.pop()
                for j in range(i + 1):
                    if j < i and x in old:
                        continue
                    y = mul[x][gens[j]]
                    edges.append((x, j, y))
                    if y not in seen:
                        seen.add(y)
                        frontier.append(y)
            levels.append(edges)
        return gens, levels

    @functools.cached_property
    def element_orders(self):
        """The order of each element of a finite group, by id."""
        if self.kind is not None:
            raise ValueError(f"{self.name} is a ball, not a finite group")
        ids = np.arange(self.n)
        orders = np.zeros(self.n, dtype=np.int64)
        power, k = ids, 1
        while not orders.all():
            orders[(power == self.identity) & (orders == 0)] = k
            power = self.mul[power, ids]
            k += 1
        return tuple(orders.tolist())

    @functools.cached_property
    def character_turns(self):
        """(N, tables) for a finite group: its exponent N and the sorted
        turn tables of its characters (morphisms.search_character_turns)."""
        return search_character_turns(self)

    def row_blocks(self):
        """Row ranges (x0, x1) that cover the table in order, each of about
        _ROW_BLOCK_ENTRIES entries and at least one row, so that an n^2
        sweep holds no n x n temporary."""
        rows = max(1, _ROW_BLOCK_ENTRIES // self.n)
        for x0 in range(0, self.n, rows):
            yield x0, min(x0 + rows, self.n)

    def op(self, a, b):
        return int(self.mul[a, b])

    def is_abelian(self):
        """True when x and y commute wherever both xy and yx lie in the
        domain. Each pair is compared once, with y >= x, one row block of
        that triangle at a time."""
        for x0, x1 in self.row_blocks():
            xy, yx = self.mul[x0:x1, x0:], self.mul[x0:, x0:x1].T
            # a product outside the domain is -1, so xy | yx < 0 there
            if ((xy != yx) & ((xy | yx) >= 0)).any():
                return False
        return True

    def __repr__(self):
        return f"Domain({self.name}, n={self.n})"

    # --- constructors -----------------------------------------------------

    @classmethod
    def cyclic(cls, n):
        if n < 1:
            raise ValueError("cyclic group needs n >= 1")
        _check_order(n, f"Z{n}")
        k = np.arange(n)
        mul = (k[:, None] + k[None, :]) % n
        return cls(mul, name=f"Z{n}")

    @classmethod
    def symmetric(cls, n):
        # n! > n, so a larger n is refused before n! is expanded
        if not 1 <= n <= GROUP_ORDER_CAP:
            raise ValueError(f"S_n needs 1 <= n <= {GROUP_ORDER_CAP}")
        _check_order(math.factorial(n), f"S{n}")
        # lexicographic order, identity first; (p*q)(i) = p(q(i)) is P[p, P[q]]
        P = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
        # a permutation read as base-n digits indexes its lexicographic rank
        place = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
        rank = np.empty(n ** n, dtype=np.int64)
        rank[P @ place] = np.arange(len(P))
        return cls(rank[P[:, P] @ place], name=f"S{n}")

    @classmethod
    def dihedral(cls, n):
        """D_n of order 2n: rotations r^k and reflections s r^k, the element
        s^i r^k at id i*n + k."""
        if not 1 <= n <= MAX_DIHEDRAL_N:
            raise ValueError(f"D_n supported for 1 <= n <= {MAX_DIHEDRAL_N}")
        i, k = np.divmod(np.arange(2 * n), n)
        # (s^i r^k)(s^j r^m) = s^(i+j) r^(((-1)^j) k + m)
        mul = (i[:, None] ^ i) * n + (k[:, None] * (1 - 2 * i) + k) % n
        return cls(mul, name=f"D{n}")

    @classmethod
    def quaternion(cls):
        """Q8 = {1, -1, i, -i, j, -j, k, -k}: the unit u in 1, i, j, k (0..3)
        with sign bit s at id 2u + s. Units multiply as u xor v, with the
        sign bit of the unit product uv in neg[u, v]."""
        neg = np.array([[0, 0, 0, 0],   # 1 * (1, i, j, k)
                        [0, 1, 0, 1],   # i * 1 = i, ii = -1, ij = k, ik = -j
                        [0, 1, 1, 0],   # ji = -k, jj = -1, jk = i
                        [0, 0, 1, 1]])  # ki = j, kj = -i, kk = -1
        s, u = np.arange(8) % 2, np.arange(8) // 2
        return cls(2 * (u[:, None] ^ u) + (s[:, None] ^ s ^ neg[np.ix_(u, u)]),
                   name="Q8")


def _check_order(n, name):
    """Refuse a finite group above GROUP_ORDER_CAP; the error gives the size
    of its dense solve system (exact arithmetic: n! overflows a float)."""
    if n > GROUP_ORDER_CAP:
        raise ValueError(
            f"group {name} of order {n} exceeds the order cap "
            f"{GROUP_ORDER_CAP}: solving on it needs a dense n^2 x n "
            f"complex128 system of {Decimal(16 * n ** 3) / 2**20:.6g} MiB "
            f"({16 * GROUP_ORDER_CAP ** 3 / 2**20:.6g} MiB at the cap)")


def direct_product(G, H):
    """Componentwise product group on pairs, ordered G-major with (e,e) first."""
    nG, nH = G.order, H.order
    _check_order(nG * nH, f"{G.name}x{H.name}")
    mul = G.mul[:, None, :, None] * nH + H.mul[None, :, None, :]
    return Domain(mul.reshape(nG * nH, nG * nH), name=f"{G.name}x{H.name}")


def build_catalog_group(spec):
    """Build a group from a short name: Zn, Sn, Dn (n<=8), Q8, or a product
    of them joined by x (ZmxZn; AxBxC is A x (B x C)), of order at most
    GROUP_ORDER_CAP. The error for a malformed factor names the whole spec."""
    factors = []
    for s in spec.strip().split("x"):
        s = s.strip()
        kind, num = s[:1].upper(), s[1:]
        if s.upper() == "Q8":
            factors.append(Domain.quaternion())
        elif kind in ("Z", "S", "D") and num.isdigit():
            factors.append({"Z": Domain.cyclic, "S": Domain.symmetric,
                            "D": Domain.dihedral}[kind](int(num)))
        else:
            raise ValueError(f"unknown group spec {spec!r}")
    group = factors.pop()
    while factors:
        group = direct_product(factors.pop(), group)
    return group


CATALOG_NAMES = [
    "Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8",
    "Z2xZ2", "Z2xZ4", "Z2xZ3", "S3", "S4", "D4", "Q8",
]


# --- infinite groups, seen through word-length balls ----------------------


class IntegerLattice:
    """Z^d with generators +-e_i; word length is the l1 norm. As an int64
    row (mult_rows), an element is its coordinates."""

    commutative = True  # the one kind whose letters commute (stability)

    def __init__(self, d):
        if d < 1:
            raise ValueError("dimension must be >= 1")
        self.d = d
        self.name = f"Z^{d}"
        self.ngens = 2 * d

    def row_width(self, depth):
        return self.d

    def mult_rows(self, rows, s):
        """Each coordinate row times generator s: e_(s // 2) for even s,
        its inverse for odd s."""
        out = rows.copy()
        out[:, s // 2] += 1 - 2 * (s % 2)
        return out

    def row_elements(self, rows):
        return list(map(tuple, rows.tolist()))

    def row_coords(self, rows):
        """The abelianized coordinates of each row: the row itself."""
        return rows


class DiscreteHeisenberg:
    """Upper-triangular 3x3 integer matrices, coordinates (a, b, c).

    (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a*b'); generators are the two
    off-diagonal unit matrices and their inverses. As an int64 row
    (mult_rows), an element is (a, b, c).
    """

    name = "H3"
    ngens = 4
    # (a', b') of each generator: x, x^-1, y, y^-1 (c' = 0)
    steps = ((1, 0), (-1, 0), (0, 1), (0, -1))

    def row_width(self, depth):
        return 3

    def mult_rows(self, rows, s):
        """Each (a, b, c) row times generator s, (a', b', 0) with
        (a', b') = steps[s]: (a + a', b + b', c + a * b')."""
        ap, bp = self.steps[s]
        out = rows.copy()
        out[:, 0] += ap
        out[:, 1] += bp
        out[:, 2] += rows[:, 0] * bp
        return out

    def row_elements(self, rows):
        return list(map(tuple, rows.tolist()))

    def row_coords(self, rows):
        """(a, b) of each (a, b, c) row, in a new array: the center (c
        coordinate) is the commutator subgroup."""
        return rows[:, :2].copy()


class FreeGroup:
    """Free group on `rank` letters; elements are reduced words.

    A word is a tuple of nonzero ints in {-rank..-1, 1..rank}; negative
    means the inverse letter. As an int64 row (mult_rows), a word is its
    letters followed by zeros.
    """

    def __init__(self, rank):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.rank = rank
        self.name = f"F{rank}"
        self.ngens = 2 * rank

    def row_width(self, depth):
        # a word of the depth ball with one more letter appended
        return depth + 1

    def mult_rows(self, rows, s):
        """Each word times generator s (the letter s + 1 for s < rank,
        else the inverse of letter s + 1 - rank), as zero-padded rows with
        room for one more letter: the product drops the last letter when it
        is the inverse of the new one, else appends the new one."""
        letter = s + 1 if s < self.rank else self.rank - s - 1
        length = np.count_nonzero(rows, axis=1)
        last = np.maximum(length - 1, 0)
        at = np.arange(len(rows))
        cancel = (length > 0) & (rows[at, last] == -letter)
        out = rows.copy()
        out[at, np.where(cancel, last, length)] = np.where(cancel, 0, letter)
        return out

    def row_elements(self, rows):
        return [tuple(filter(None, word)) for word in rows.tolist()]

    def row_coords(self, rows):
        """The exponent sum of each letter in each word row."""
        sums = np.zeros((len(rows), self.rank), dtype=np.int64)
        at, pos = np.nonzero(rows)
        letters = rows[at, pos]
        np.add.at(sums, (at, np.abs(letters) - 1), np.sign(letters))
        return sums


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


def _row_keys(rows):
    """Keys of int64 rows that sort as the rows do, lexicographically.

    A key is the bytes of a row's digits entry - lo, lo its column's
    minimum: big-endian in the narrowest unsigned width that holds every
    digit, zero-padded to whole 8-byte words, and read as one uint64 when
    they fill one word, else as one void, which compares bytewise."""
    lo = rows.min(axis=0)
    digit = np.min_scalar_type((rows.max(axis=0) - lo).view(np.uint64).max())
    digit = digit.newbyteorder(">")
    words = -(-rows.shape[1] * digit.itemsize // 8)
    out = np.zeros((len(rows), 8 * words // digit.itemsize), dtype=digit)
    # a buffered cast, so no int64 copy of the rows is made
    np.subtract(rows, lo, out=out[:, :rows.shape[1]], casting="unsafe")
    if words == 1:
        return out.view(">u8")[:, 0].astype(np.uint64)
    return out.view(f"V{8 * words}")[:, 0]


def _first_rows(rows):
    """Index of the first of each set of equal rows, in the order of the
    rows (lexicographic): np.unique sorts stably; and each row's set."""
    return np.unique(_row_keys(rows), return_index=True,
                     return_inverse=True)[1:]


def _next_level(kind, known, count, ngens):
    """The BFS level after the `known` levels, which end at id count - 1:
    its rows in tuple order, for each the least edge id
    parent id * ngens + generator index that reaches it, and the id of
    each product of the last known level, ids[s, i] = last[i] * gens[s].
    The generators are closed under inverses, so a product of the last
    known level lies in a known level or in the next one.

    The known rows, then the products of the last level with every
    generator in edge id order, are keyed together in one array: a set of
    equal rows whose first is a product is new, that first has the least
    edge id, and the new sets take ids from count on in key order."""
    last, at = known[-1], sum(len(rows) for rows in known)
    rows = np.empty((at + len(last) * ngens, last.shape[1]), dtype=np.int64)
    np.concatenate(known, out=rows[:at])
    for s in range(ngens):
        rows[at + s::ngens] = kind.mult_rows(last, s)
    first, inverse = _first_rows(rows)
    new = first >= at
    ids = first + (count - at)
    ids[new] = np.arange(count, count + np.count_nonzero(new))
    first = first[new]
    return (rows[first], first - at + (count - len(last)) * ngens,
            ids[inverse[at:]].reshape(len(last), ngens).T)


def _inverse_generators(kind, first_level, gen_ids):
    """flip[s] = the index of gens[s]^-1, given BFS level 1 (gens[s] is row
    gen_ids[s] - 1). Raises ValueError unless the generators' coordinates
    are distinct (so are the generators, none the identity, as level 1
    has a row for each) and sum to +-1: then, row_coords being a
    homomorphism to Z^k, every word length has the parity of the
    coordinate sum, so the Cayley graph is bipartite; and negation, which
    maps the generators' coordinates onto themselves, reverses their
    lexicographic order."""
    coords = kind.row_coords(first_level)
    keys = _row_keys(coords)[gen_ids - 1]
    # stable, as in np.unique: the default sort pages in 0.4 MB of kernels
    order = np.argsort(keys, kind="stable")
    if (keys[order[1:]] == keys[order[:-1]]).any() \
            or (np.abs(coords.sum(axis=1)) != 1).any():
        raise ValueError(f"{kind.name}: the generators' coordinates must be "
                         f"distinct and sum to +-1 (a bipartite Cayley graph)")
    # the generator at place i of the order is inverse to the one at -1 - i
    return order[::-1][np.argsort(order, kind="stable")]


def _bfs(kind, radius, depth):
    """Breadth-first search of the ball of radius `depth` >= `radius`.

    Returns the elements of the radius-`radius` ball as the int64 rows of
    `kind.mult_rows` (the identity is the zero row) in BFS order
    (level-sorted, so each ball is a prefix of every larger one), their
    word lengths, for each element but the identity the BFS parent id and
    generator index s of the first edge that reaches it (rows[j] =
    rows[parent[j]] * gens[s]), and right[s, x] = x * gens[s] on the
    `depth` ball, -1 outside it, with one more column mapping -1 to -1.
    Levels up to `radius` are held under BALL_ELEMENT_CAP elements; from
    level `radius` on, the right-multiplication table over the elements
    found so far must fit in BALL_AUX_BYTES. Both are checked before the
    next level is built, and level 1, the identity's kind.ngens neighbours,
    before any level is: a kind too wide for the cap is refused before its
    generators or rows are built.

    Level k comes from the products of level k - 1 with every generator
    (_next_level): those not in level k - 2 or k - 1 are new, and of equal
    new products the one with the least (parent id, generator) is kept;
    their ids fill right below the top level. The Cayley graph is bipartite
    (_inverse_generators), so x * s for x on the top level is outside the
    ball or is the y of the level below with y * s^-1 = x."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    ngens, cap = kind.ngens, BALL_ELEMENT_CAP

    def over_cap(k, count):
        return BallTooLarge(
            f"ball of radius {radius} exceeds the element cap {cap}: "
            f"radius {k} already holds {count} elements, so its "
            f"multiplication table needs at least "
            f"{8 * count ** 2 / 2**20:.1f} MiB "
            f"(budget {8 * cap ** 2 / 2**20:.1f} MiB)")

    if radius and 1 + ngens > cap:
        raise over_cap(1, 1 + ngens)
    levels = [np.zeros((1, kind.row_width(depth)), dtype=np.int64)]
    parent, step, ids = [np.array([-1])], [np.array([-1])], []
    count = 1
    for k in range(depth + 1):
        if k:
            rows, edge, products = _next_level(kind, levels[-2:], count, ngens)
            levels.append(rows)
            parent.append(edge // ngens)
            step.append(edge % ngens)
            ids.append(products)
            count += len(rows)
        if k <= radius and count > cap:
            raise over_cap(k, count)
        aux = 8 * ngens * (count + 1)
        if k >= radius and aux > BALL_AUX_BYTES:
            raise BallTooLarge(
                f"ball of radius {radius} exceeds the auxiliary budget: "
                f"right multiplication by {ngens} generators on the "
                f"radius-{k} ball ({count} elements) needs at least "
                f"{aux / 2**20:.1f} MiB "
                f"(budget {BALL_AUX_BYTES / 2**20:.1f} MiB)")
    right = np.full((ngens, count + 1), -1, dtype=np.int64)
    if depth:
        top = count - len(levels[-1])
        np.concatenate(ids, axis=1, out=right[:, :top])
        flip = _inverse_generators(kind, levels[1], right[:, 0])
        below = top - len(levels[-2])
        right[flip[:, None], right[:, below:top]] = np.arange(below, top)
    del levels[radius + 1:], parent[radius + 1:], step[radius + 1:]
    length = np.repeat(np.arange(radius + 1), [len(v) for v in levels])
    return (np.concatenate(levels), length, np.concatenate(parent),
            np.concatenate(step), right)


# a function named like a class: the benchmark tracer wraps it by this name
def BallDomain(kind, radius):
    """The word-length ball of this radius in `kind`, as a Domain.

    Its table is built one BFS level of columns at a time: column j = p * s
    (BFS parent p, generator s) holds x * j = (x * p) * s, so it is right
    multiplication by s applied to column p. An entry x * p of a column at
    depth d = |p| leads back into the ball through p's BFS descendants only
    if |x * p| <= 2r - d, and |x * p| <= r + d; so every entry that matters
    lies in the auxiliary ball of radius floor(3r/2), whose right
    multiplication table the BFS of that ball fills (_bfs). A product that
    leaves the auxiliary ball becomes -1 and stays -1."""
    depth = 3 * radius // 2
    rows, length, parent, step, right = _bfs(kind, radius, depth)
    n = len(rows)
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
    return Domain(mul, name=f"{kind.name}_ball{radius}", kind=kind,
                  elements=kind.row_elements(rows), length=length,
                  radius=radius, coords=kind.row_coords(rows))
