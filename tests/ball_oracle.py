"""Reference build of a word-length ball, by the algorithm the library used
before its column recursion: a breadth-first search to the ball's radius,
then one tuple product per entry of the n x n multiplication table. The
tuple arithmetic of each kind (identity, generators, mult, abelian_coords)
lives here only, as the reference the library's int64 rows are compared
with. Tests compare the library's balls with these, bit for bit.
"""

import numpy as np

from feqlab.groups import DiscreteHeisenberg, Domain, IntegerLattice


def identity(kind):
    if isinstance(kind, IntegerLattice):
        return (0,) * kind.d
    if isinstance(kind, DiscreteHeisenberg):
        return (0, 0, 0)
    return ()


def generators(kind):
    """The kind's generators as element tuples, generator s at index s of
    its mult_rows: +-e_i of Z^d, x, x^-1, y, y^-1 of H3, and the letters,
    then their inverses, of a free group."""
    if isinstance(kind, IntegerLattice):
        return [tuple(sign * (j == i) for j in range(kind.d))
                for i in range(kind.d) for sign in (1, -1)]
    if isinstance(kind, DiscreteHeisenberg):
        return [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]
    return [(i,) for i in range(1, kind.rank + 1)] + \
           [(-i,) for i in range(1, kind.rank + 1)]


def mult(kind, a, b):
    """The product of two element tuples: coordinate vectors of Z^d, (a, b, c)
    of H3 with (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a*b'), reduced words of
    a free group."""
    if isinstance(kind, IntegerLattice):
        return tuple(x + y for x, y in zip(a, b))
    if isinstance(kind, DiscreteHeisenberg):
        (x, y, z), (xp, yp, zp) = a, b
        return (x + xp, y + yp, z + zp + x * yp)
    out = list(a)
    for letter in b:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def abelian_coords(kind, a):
    """The abelianized integer coordinates of an element tuple."""
    if isinstance(kind, IntegerLattice):
        return a
    if isinstance(kind, DiscreteHeisenberg):
        # the center (c coordinate) is the commutator subgroup
        return a[:2]
    sums = [0] * kind.rank
    for letter in a:
        sums[abs(letter) - 1] += 1 if letter > 0 else -1
    return tuple(sums)


def ball_elements(kind, radius):
    """The elements of the radius ball in BFS order and their word lengths."""
    gens = generators(kind)
    e = identity(kind)
    dist = {e: 0}
    levels = [[e]]
    frontier = [e]
    for r in range(1, radius + 1):
        nxt = set()
        for x in frontier:
            for g in gens:
                y = mult(kind, x, g)
                if y not in dist:
                    nxt.add(y)
        for y in nxt:
            dist[y] = r
        frontier = sorted(nxt)
        levels.append(frontier)
    elements = [el for level in levels for el in level]
    lengths = np.array([dist[el] for el in elements], dtype=np.int64)
    return elements, lengths


def ball_domain(kind, radius):
    """The radius ball as a Domain, its table filled entry by entry."""
    elements, length = ball_elements(kind, radius)
    index = {el: i for i, el in enumerate(elements)}
    n = len(elements)
    mul = np.full((n, n), -1, dtype=np.int64)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            mul[i, j] = index.get(mult(kind, a, b), -1)
    coords = np.array([abelian_coords(kind, el) for el in elements],
                      dtype=np.int64)
    return Domain(mul, name=f"{kind.name}_ball{radius}", kind=kind,
                  elements=elements, length=length, radius=radius,
                  coords=coords)
