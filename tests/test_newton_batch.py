"""The stacked Newton search against the per-start sequential search.

The oracle below runs damped Gauss-Newton one start at a time, with one
np.linalg.lstsq call per step, as the search did before its starts were
stacked. Results must agree exactly: the same solution vectors, bit for bit
and in the same order, the same convergence count, flag and hits.
"""

import numpy as np
import pytest

from feqlab import solver
from feqlab.feq import GroupFunction
from feqlab.groups import CATALOG_NAMES, build_catalog_group
from feqlab.morphisms import (compatible_characters, enumerate_characters,
                              enumerate_involutions)
from feqlab.solver import _lstsq_stack, brute_force_dalembert


def oracle_polish(v0, base, mul_idx, shift_idx, chi_vals, max_iter=60):
    n = v0.shape[0]
    rows = np.arange(n * n)
    xs, ys = rows // n, rows % n
    e0 = np.zeros(n, dtype=np.complex128)
    e0[0] = 1.0

    def res_vec(v):
        r = (v[mul_idx].reshape(-1)
             + chi_vals[ys] * v[shift_idx].reshape(-1)
             - 2.0 * v[xs] * v[ys])
        return np.concatenate([r, [v[0] - 1.0]])

    def jac(v):
        J = base.copy()
        np.add.at(J, (rows, xs), -2.0 * v[ys])
        np.add.at(J, (rows, ys), -2.0 * v[xs])
        return np.vstack([J, e0[None, :]])

    v = v0.copy()
    v[0] = 1.0
    F = res_vec(v)
    norm = np.linalg.norm(F)
    for _ in range(max_iter):
        if np.abs(F).max() <= 1e-13:
            return v, True
        step, *_ = np.linalg.lstsq(jac(v), -F, rcond=None)
        t = 1.0
        while t > 1e-7:
            cand = v + t * step
            Fc = res_vec(cand)
            nc = np.linalg.norm(Fc)
            if nc < norm * (1.0 - 1e-4 * t) or nc < 1e-13:
                v, F, norm = cand, Fc, nc
                break
            t /= 2.0
        else:
            return v, bool(np.abs(F).max() <= 1e-13)
    return v, bool(np.abs(F).max() <= 1e-13)


def oracle_brute_force(G, sigma, chi, n_starts, seed):
    n = G.order
    mul_idx = G.mul
    shift_idx = G.mul[sigma.table].T
    rows = np.arange(n * n)
    ys = rows % n
    base = np.zeros((n * n, n), dtype=np.complex128)
    np.add.at(base, (rows, mul_idx.reshape(-1)), 1.0)
    np.add.at(base, (rows, shift_idx.reshape(-1)), chi.values[ys])
    starts = solver._disk_starts(np.random.default_rng(seed), n_starts, n)
    solutions = [GroupFunction.zero(G)]
    landed = []
    for start in starts:
        v, ok = oracle_polish(start.astype(np.complex128), base, mul_idx,
                              shift_idx, chi.values)
        if not ok:
            continue
        landed.append(v)
        if all(np.abs(v - s.values).max() >= 1e-6 for s in solutions):
            solutions.append(GroupFunction(G, v))
    hits = [0] * len(solutions)
    for v in landed:
        hits[next(k for k, s in enumerate(solutions)
                  if np.abs(v - s.values).max() < 1e-6)] += 1
    return solutions, len(landed), len(landed) <= n_starts // 2, hits


def _combos_upto_6():
    for name in CATALOG_NAMES:
        G = build_catalog_group(name)
        if G.order > 6:
            continue
        chars = enumerate_characters(G)
        for sigma in enumerate_involutions(G, "automorphism"):
            kept = {id(c) for c in compatible_characters(G, sigma, chars)}
            for chi in chars:
                if id(chi) in kept:
                    yield G, sigma, chi


def _assert_equals_the_oracle(seed):
    n_starts = 40
    combos = 0
    for G, sigma, chi in _combos_upto_6():
        res = brute_force_dalembert(G, sigma, chi, n_starts=n_starts, seed=seed)
        sols, n_conv, flagged, hits = oracle_brute_force(G, sigma, chi,
                                                         n_starts, seed)
        case = (G.name, sigma.label, seed)
        assert [s.values.tobytes() for s in res.solutions] == \
            [s.values.tobytes() for s in sols], case
        assert (res.n_converged, res.flagged, res.hits) == \
            (n_conv, flagged, hits), case
        combos += 1
    assert combos == 53


@pytest.mark.parametrize("seed", [0, 5])
def test_batched_search_equals_the_sequential_oracle(monkeypatch, seed):
    # 7 starts a block at order 6, 11 at order 5, 22 at order 4: the last
    # block of each is short
    monkeypatch.setattr(solver, "NEWTON_BLOCK_BYTES", 7 * 37 * 6 * 16 + 100)
    _assert_equals_the_oracle(seed)


@pytest.mark.parametrize("budget", [1, None], ids=["one-start", "default"])
def test_batched_search_equals_the_oracle_at_other_block_sizes(monkeypatch,
                                                               budget):
    # one start a block runs every line search one step length per call; the
    # default budget puts all 40 starts in one block
    if budget is not None:
        monkeypatch.setattr(solver, "NEWTON_BLOCK_BYTES", budget)
    _assert_equals_the_oracle(0)


def _spy_line_searches(monkeypatch):
    """Record, for every line search, the block's row count, the iterates
    and steps it started from, the positions it returned as exhausted and
    the rows of each residual call it made."""
    searches = []
    inside = []
    real_residuals = solver._SelfPairedSystem.residuals
    real_search = solver._line_search

    def residuals(self, V):
        if inside:
            inside[-1].append(V.copy())
        return real_residuals(self, V)

    def line_search(system, V, F, norm, active, step):
        X, S = V[active].copy(), step.copy()
        inside.append([])
        try:
            out = real_search(system, V, F, norm, active, step)
        finally:
            calls = inside.pop()
        searches.append((len(V), X, S, out.copy(), calls))
        return out

    monkeypatch.setattr(solver._SelfPairedSystem, "residuals", residuals)
    monkeypatch.setattr(solver, "_line_search", line_search)
    return searches


def test_line_search_stacks_step_lengths_within_the_block(monkeypatch):
    searches = _spy_line_searches(monkeypatch)
    for G, sigma, chi in _combos_upto_6():
        if G.name == "S3":
            # 73 starts a block at order 6, the last block of 54
            brute_force_dalembert(G, sigma, chi, n_starts=200, seed=0)
    assert searches
    # memory bound: no residual call evaluates more rows than the block has
    assert all(len(c) <= rows for rows, _, _, _, calls in searches
               for c in calls)
    # some start tries exactly t = 1, 1/2, ..., 2^-23 and then gives up
    floors, spans = [], []
    for _, X, S, out, calls in searches:
        tried = np.concatenate(calls)
        for i in out:
            levels = [k for k in range(30)
                      if (tried == X[i] + 2.0 ** -k * S[i]).all(axis=1).any()]
            floors.append(levels == list(range(24)))
        if out.size:
            spans.append(len(calls))
    assert any(floors)
    # such a step stacks its 23 smaller t's, but splits them over several
    # calls after the t = 1 call
    assert any(2 < n < 24 for n in spans)


def test_lstsq_stack_matches_single_lstsq_bit_for_bit():
    rng = np.random.default_rng(3)
    B, m, n = 6, 37, 6
    J = rng.normal(size=(B, m, n)) + 1j * rng.normal(size=(B, m, n))
    r = rng.normal(size=(B, m)) + 1j * rng.normal(size=(B, m))
    J[1, :, 2] = J[1, :, 4]          # rank deficient: two equal columns
    J[2, :, 1:] = 0.0                # rank one
    J[3] = J[3].real                 # real entries in complex storage
    x = _lstsq_stack(J, r)
    assert x.shape == (B, n)
    for i in range(B):
        want = np.linalg.lstsq(J[i], r[i], rcond=None)[0]
        assert x[i].tobytes() == want.tobytes(), i


def test_lstsq_stack_raises_like_lstsq():
    J = np.ones((2, 5, 3), dtype=np.complex128)
    J[1, 0, 0] = np.nan
    r = np.ones((2, 5), dtype=np.complex128)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.lstsq(J[1], r[1], rcond=None)
    with pytest.raises(np.linalg.LinAlgError):
        _lstsq_stack(J, r)


def test_kept_solutions_do_not_view_the_iterate_block():
    G = build_catalog_group("S3")
    sigma = enumerate_involutions(G, "automorphism")[0]
    chi = enumerate_characters(G)[0]
    res = brute_force_dalembert(G, sigma, chi, n_starts=40, seed=0)
    assert len(res.solutions) > 1
    assert all(s.values.base is None for s in res.solutions)
