"""Reference completeness rows, in the per-vector form the library used
before it took each nullspace from the R factor of its system and fitted a
g's targets in one stacked call: the thin SVD of the whole n^2 x n system,
the family vectors regrouped from each g's generating characters, one
np.linalg.lstsq per target and np.linalg.matrix_rank. Tests compare the
library's CompletenessRow with these, field for field and bit for bit.
"""

import numpy as np

from feqlab.families import dalembert_family, twisted_companion
from feqlab.feq import GroupFunction, residual_wilson, zero_tolerance
from feqlab.morphisms import enumerate_multiplicative
from feqlab.solver import (GUARD_BAND, SVD_KERNEL_CUTOFF, _angle_key,
                           _key_label, wilson_system_matrix)


def span_distance(vectors, target):
    """sup-norm residual of the best linear fit of target by the vectors,
    after normalizing target to unit sup norm."""
    t = np.asarray(target, dtype=np.complex128)
    scale = np.abs(t).max()
    if scale == 0:
        return 0.0
    t = t / scale
    if not vectors:
        return float(np.abs(t).max())
    A = np.stack([np.asarray(v, dtype=np.complex128) for v in vectors], axis=1)
    coef, *_ = np.linalg.lstsq(A, t, rcond=None)
    return float(np.abs(A @ coef - t).max())


def generating_characters(G, sigma, chi):
    """(key, [m, ...]) for every candidate g, in first-seen order: the
    multiplicative m grouped by the unordered pair of the angle keys of m
    and of its twisted companion."""
    groups = {}
    for m in enumerate_multiplicative(G):
        M = twisted_companion(m, chi, sigma)
        groups.setdefault(frozenset((_angle_key(m), _angle_key(M))),
                          []).append(m)
    return list(groups.items())


def family_span_for_g(G, sigma, chi, ms):
    """Family f-vectors available over a fixed g: the span of every
    generating m and its twisted companion."""
    seen = {}
    for m in ms:
        for cand in (m, twisted_companion(m, chi, sigma)):
            key = _angle_key(cand)
            if key != "zero" and key not in seen:
                seen[key] = cand.values
    return list(seen.values())


def thin_svd_nullspace(G, sigma, chi, g):
    """The nullspace basis values and the ambiguity flag of g's system,
    from the thin SVD of the whole system."""
    A = wilson_system_matrix(G, sigma, chi, g)
    _, s, vh = np.linalg.svd(A, full_matrices=False)
    small = s <= SVD_KERNEL_CUTOFF
    near_low = small & (s > SVD_KERNEL_CUTOFF / GUARD_BAND)
    near_high = (~small) & (s < SVD_KERNEL_CUTOFF * GUARD_BAND)
    return ([vh[i].conj() for i in np.flatnonzero(small)],
            bool(near_low.any() and near_high.any()))


def completeness_rows(G, sigma, chi, tol=1e-9):
    """(g_label, solver_dim, family_dim, max_mismatch, ambiguous, passed,
    g values, basis values) of every candidate g, each g made from its
    first generating m."""
    rows = []
    zero_tol = zero_tolerance(G)
    for key, ms in generating_characters(G, sigma, chi):
        g = dalembert_family(ms[0], chi, sigma)
        basis_vals, ambiguous = [], False
        if g.values.any():
            basis_vals, ambiguous = thin_svd_nullspace(G, sigma, chi, g)
        fam = family_span_for_g(G, sigma, chi, ms)
        fam_rank = np.linalg.matrix_rank(np.stack(fam, axis=1), tol=1e-8) if fam else 0
        worst = 0.0
        for b in basis_vals:
            worst = max(worst, span_distance(fam, b))
        for v in fam:
            rep = residual_wilson(G, sigma, chi, GroupFunction(G, v), g)
            if rep.sup > zero_tol:
                worst = max(worst, rep.sup)
            worst = max(worst, span_distance(basis_vals, v))
        rows.append((_key_label(key), len(basis_vals), int(fam_rank), worst,
                     ambiguous, len(basis_vals) == fam_rank and worst <= tol,
                     g.values, basis_vals))
    return rows
