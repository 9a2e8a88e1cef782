"""Reference enumerations of involutions and characters, by the algorithms
the library used before its one generator-image search, and the Fraction
arithmetic it used before integer turns.

Subgroups come from a closure search, and the greedy generating set adds
the least element its generators do not yet reach.

Characters come from the abelianization: the quotient by the commutator
subgroup, whose characters are extended along a chain of subgroups.
Involutions come from a search that walks the Cayley graph afresh for each
generator assignment. fraction_angles reads a character's Fraction angles
off its integer turns. The twisted companion's angles, the candidate-g dedup
keys and their labels come from Fraction angles added mod 1. Tests compare
the library's output with these, bit for bit.

write_character writes the file that morphisms.read_character reads: one
value per line, its real and imaginary parts to 17 significant digits.
"""

import cmath
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from feqlab.groups import Domain
from feqlab.morphisms import (Character, Involution, _classify_label,
                              is_involutive, satisfies_morphism_law)

from group_oracle import element_order


def subgroup_closure(G, gens):
    """Smallest subgroup of G containing gens, as a sorted id list."""
    seen = {G.identity}
    frontier = [G.identity]
    gens = set(gens) | {int(G.inv[g]) for g in gens}
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = G.op(x, g)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return sorted(seen)


def generating_set(G):
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


def character_from_angles(G, angles):
    """The character with these Fraction angles, as integer turns over the
    lcm of their reduced denominators."""
    angles = [Fraction(t) % 1 for t in angles]
    period = math.lcm(*(t.denominator for t in angles))
    return Character.from_turns(
        G, [t.numerator * (period // t.denominator) for t in angles], period)


def commutator_subgroup(G):
    comms = {G.op(G.op(a, b), G.op(G.inv[a], G.inv[b]))
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
    proj = np.zeros(G.order, dtype=np.int64)
    for a in range(G.order):
        cos = frozenset(G.op(a, h) for h in N)
        if cos not in coset_of:
            coset_of[cos] = len(reps)
            reps.append(a)
        proj[a] = coset_of[cos]
    k = len(reps)
    mul = np.zeros((k, k), dtype=np.int64)
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            mul[i, j] = proj[G.op(a, b)]
    Q = Domain(mul, name=f"{G.name}_ab")
    if not Q.is_abelian():
        raise AssertionError("quotient by commutator subgroup must be abelian")
    return Q, proj


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
        out.append(character_from_angles(G, angles))
    out.sort(key=lambda c: tuple(fraction_angles(c)))
    return out


def _extend_from_generators(G, gens, images, kind):
    """Complete a generator assignment to a full table, or return None."""
    table = np.full(G.order, -1, dtype=np.int64)
    table[G.identity] = G.identity
    for g, im in zip(gens, images):
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
    """All involutive morphisms of the kind, canonical instances first."""
    gens = generating_set(G)
    orders = [element_order(G, a) for a in range(G.order)]
    by_order = {}
    for a in range(G.order):
        by_order.setdefault(orders[a], []).append(a)
    found = {}

    def assign(i, images):
        if i == len(gens):
            table = _extend_from_generators(G, gens, images, kind)
            if table is not None and is_involutive(G, table) and \
                    satisfies_morphism_law(G, table, kind):
                found[tuple(table)] = table
            return
        for cand in by_order[orders[gens[i]]]:
            assign(i + 1, images + [cand])

    assign(0, [])
    out = []
    for t in sorted(found):
        tab = np.array(t, dtype=np.int64)
        out.append(Involution(tab, kind, label=_classify_label(G, tab)))
    out.sort(key=lambda s: (not s.is_identity, not s.is_inversion, tuple(s.table)))
    return out


# --- Fraction angles -------------------------------------------------------


def fraction_angles(chi):
    """The Fraction angles turns[x]/N of a character with integer turns;
    None for one without."""
    if chi.turns is None:
        return None
    return [Fraction(k, chi.period) for k in chi.turns.tolist()]


def angle_values(angles):
    """exp(2*pi*i*t) for each Fraction t, through float(t)."""
    return np.array([cmath.exp(2j * cmath.pi * float(Fraction(t) % 1))
                     for t in angles])


def twisted_companion(m, chi, sigma):
    """(values, angles) of M = chi * (m o sigma); the angles are Fractions
    added mod 1, or None unless both m and chi have exact angles."""
    vals = chi.values * m.values[sigma.table]
    ang = None
    m_ang, chi_ang = fraction_angles(m), fraction_angles(chi)
    if m_ang is not None and chi_ang is not None:
        ang = [(chi_ang[a] + m_ang[sigma.table[a]]) % 1
               for a in range(m.domain.n)]
    return vals, ang


def angle_key(values, angles):
    if not values.any():
        return "zero"
    if angles is not None:
        return tuple(angles)
    return tuple(np.round(values, 9))


def key_label(key):
    """Readable form of a dedup key: zero|(0,1/4,1/2,3/4)-style."""
    parts = []
    for part in sorted(key, key=str):
        if isinstance(part, str):
            parts.append(part)
        else:
            parts.append("(" + ",".join(str(t) for t in part) + ")")
    return "|".join(parts)


def candidate_groups(multiplicative, companions):
    """The dedup of candidate_gs on Fraction keys: (key, [m, ...]) in first
    seen order, m grouped by the unordered pair of the angle tuples of m
    and of its twisted companion, given as twisted_companion returns it."""
    groups = {}
    for m, (M_values, M_angles) in zip(multiplicative, companions):
        key = frozenset((angle_key(m.values, fraction_angles(m)),
                         angle_key(M_values, M_angles)))
        groups.setdefault(key, []).append(m)
    return list(groups.items())


def write_character(chi, path):
    lines = [f"{v.real:.17g} {v.imag:.17g}" for v in chi.values]
    Path(path).write_text("\n".join(lines) + "\n")
