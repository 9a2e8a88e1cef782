"""Reference build of a word-length ball, by the algorithm the library used
before its column recursion: a breadth-first search to the ball's radius,
then one kind.mult call per entry of the n x n multiplication table. Tests
compare the library's balls with these, bit for bit.
"""

import numpy as np

from feqlab.groups import Domain


def ball_elements(kind, radius):
    """The elements of the radius ball in BFS order and their word lengths."""
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
            mul[i, j] = index.get(kind.mult(a, b), -1)
    coords = np.array([kind.abelian_coords(el) for el in elements],
                      dtype=np.int64)
    return Domain(mul, name=f"{kind.name}_ball{radius}", kind=kind,
                  elements=elements, length=length, radius=radius,
                  coords=coords)
