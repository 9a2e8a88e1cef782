"""Nullspace solver, completeness cross-check, Newton recovery, audits."""

import numpy as np
import pytest

from feqlab.families import canned_half_trace
from feqlab.feq import GroupFunction, residual_wilson
from feqlab.groups import (CATALOG_NAMES, BallDomain, IntegerLattice,
                           build_catalog_group)
from feqlab.morphisms import (
    compatible_characters,
    enumerate_characters,
    enumerate_involutions,
    enumerate_multiplicative,
    identity_involution,
    inversion_involution,
    trivial_character,
)
from feqlab.solver import (
    SVD_KERNEL_CUTOFF,
    BruteForceResult,
    brute_force_dalembert,
    candidate_gs,
    completeness_check,
    function_sets_equal,
    solve_f_given_g,
    span_distances,
    theorem22_audit,
    wilson_system_matrix,
)
from feqlab.stability import AuditInapplicable

import completeness_oracle as oracle


def test_system_matrix_matches_hand_computation():
    Z2 = build_catalog_group("Z2")
    A = wilson_system_matrix(Z2, identity_involution(Z2), trivial_character(Z2),
                             GroupFunction(Z2, [1.0, 1.0]))
    expected = np.array([[0, 0], [-2, 2], [0, 0], [2, -2]], dtype=complex)
    assert np.array_equal(A, expected)


def add_at_system_matrix(domain, sigma, chi, g):
    """The pair system's matrix as np.add.at accumulates it, term by term."""
    n, mul = domain.n, domain.mul
    A = np.zeros((n * n, n), dtype=np.complex128)
    rows = np.arange(n * n)
    xs, ys = rows // n, rows % n
    np.add.at(A, (rows, mul[xs, ys]), 1.0)
    np.add.at(A, (rows, mul[sigma.table[ys], xs]), chi.values[ys])
    np.add.at(A, (rows, xs), -2.0 * g.values[ys])
    return A


def test_system_matrix_is_bitwise_the_add_at_accumulation():
    # every catalog (sigma, compatible chi) at g = 0, the Newton search's
    # linear part, and at each candidate g of an automorphism; then the
    # benchmark's n = 32 solve, Z4xZ8 under inversion with its first chi
    combos = [(G, kind, sigma, chi) for G in map(build_catalog_group,
                                                 CATALOG_NAMES)
              for kind in ("automorphism", "anti-automorphism")
              for sigma in enumerate_involutions(G, kind)
              for chi in compatible_characters(G, sigma,
                                               enumerate_characters(G))]
    big = build_catalog_group("Z4xZ8")
    combos.append((big, "automorphism", inversion_involution(big),
                   enumerate_characters(big)[0]))
    systems = 0
    for G, kind, sigma, chi in combos:
        gs = [GroupFunction.zero(G)]
        if kind == "automorphism":
            gs += [g for _, g, _ms in candidate_gs(G, sigma, chi)]
        for g in gs:
            got = wilson_system_matrix(G, sigma, chi, g)
            want = add_at_system_matrix(G, sigma, chi, g)
            assert got.tobytes() == want.tobytes(), G.name
            systems += 1
    assert systems > 1000


def test_system_matrix_needs_total_table():
    ball = BallDomain(IntegerLattice(1), 2)
    with pytest.raises(ValueError):
        wilson_system_matrix(ball, identity_involution(ball),
                             trivial_character(ball),
                             GroupFunction(ball, np.ones(ball.n)))


def test_solve_f_given_g_dimensions_on_z2():
    Z2 = build_catalog_group("Z2")
    sigma = identity_involution(Z2)
    chi = trivial_character(Z2)

    res = solve_f_given_g(Z2, sigma, chi, GroupFunction(Z2, [1.0, 1.0]))
    assert len(res.basis) == 1 and not res.ambiguous
    v = res.basis[0].values
    assert abs(v[0] - v[1]) <= 1e-12  # constants

    res = solve_f_given_g(Z2, sigma, chi, GroupFunction(Z2, [1.0, -1.0]))
    assert len(res.basis) == 1
    v = res.basis[0].values
    assert abs(v[0] + v[1]) <= 1e-12  # sign multiples

    res = solve_f_given_g(Z2, sigma, chi, GroupFunction.zero(Z2))
    assert len(res.basis) == 0


def test_solver_basis_vectors_are_exact_solutions():
    S3 = build_catalog_group("S3")
    sigma = identity_involution(S3)
    chi = trivial_character(S3)
    for _, g, _ms in candidate_gs(S3, sigma, chi):
        res = solve_f_given_g(S3, sigma, chi, g)
        for b in res.basis:
            assert residual_wilson(S3, sigma, chi, b, g).sup <= 1e-9


def test_candidate_gs_merge_twisted_partners():
    Z4 = build_catalog_group("Z4")
    out = candidate_gs(Z4, inversion_involution(Z4), trivial_character(Z4))
    assert len(out) == 4
    merged = [fam for _, _, fam in out if len(fam) == 2]
    assert len(merged) == 1  # i^k and i^{-k} share one g


def test_span_distance_basics():
    # normalized sup, and 0 for a zero target, with no vectors
    assert span_distances([], [np.zeros(3), np.array([0, 2.0, 1.0])]) == \
        [0.0, 1.0]
    basis = [np.array([1.0, 1j, -1.0]), np.array([1.0, 0, 1.0])]
    combo = 2.0 * basis[0] - 1j * basis[1]
    inside, zero = span_distances(basis, [combo, np.zeros(3)])
    assert inside <= 1e-12 and zero == 0.0
    assert span_distances([np.array([1.0, 0, 0])],
                          [np.array([0, 0, 1.0])])[0] >= 0.9


def _automorphism_combos(G, chis_per_sigma=None):
    """Every automorphism sigma with its compatible chi's, or with the
    first chis_per_sigma of them."""
    chars = enumerate_characters(G)
    for sigma in enumerate_involutions(G, "automorphism"):
        for chi in compatible_characters(G, sigma, chars)[:chis_per_sigma]:
            yield sigma, chi


def test_thin_svd_matches_the_full_svd_bit_for_bit():
    # the full SVD up to order 16; the thin one on S4 and Z4xZ8, whose
    # tall systems (576 x 24, 1024 x 32) have the largest Q and U
    compared = 0
    for name in CATALOG_NAMES + ["Z4xZ8"]:
        G = build_catalog_group(name)
        full = G.order <= 16
        if not full and name not in ("S4", "Z4xZ8"):
            continue
        # Z4xZ8's 48 sigma with one chi each, of its 448 combos
        for sigma, chi in _automorphism_combos(G, 1 if name == "Z4xZ8" else None):
            for _, g, _fam in candidate_gs(G, sigma, chi):
                res = solve_f_given_g(G, sigma, chi, g)
                A = wilson_system_matrix(G, sigma, chi, g)
                _, s, vh = np.linalg.svd(A, full_matrices=full)
                assert np.array_equal(res.singular_values, s), name
                kernel = np.flatnonzero(s <= SVD_KERNEL_CUTOFF)
                assert len(res.basis) == len(kernel)
                for b, i in zip(res.basis, kernel):
                    assert np.array_equal(b.values, vh[i].conj()), name
                compared += 1
    assert compared > 1500


@pytest.mark.parametrize("name", CATALOG_NAMES + ["Z4xZ8"])
def test_completeness_rows_match_the_per_vector_oracle(name):
    G = build_catalog_group(name)
    for sigma, chi in _automorphism_combos(G):
        got = completeness_check(G, sigma, chi).rows
        want = oracle.completeness_rows(G, sigma, chi)
        assert len(got) == len(want)
        for row, (label, solver_dim, family_dim, mismatch, ambiguous,
                  passed, g, basis) in zip(got, want):
            assert (row.g_label, row.solver_dim, row.family_dim,
                    row.ambiguous, row.passed) == \
                (label, solver_dim, family_dim, ambiguous, passed)
            assert row.max_mismatch.hex() == mismatch.hex()
            assert row.g.values.tobytes() == g.tobytes()
            assert [b.values.tobytes() for b in row.basis] == \
                [b.tobytes() for b in basis]


def test_completeness_frozen_run_on_z4():
    Z4 = build_catalog_group("Z4")
    rep = completeness_check(Z4, inversion_involution(Z4), trivial_character(Z4))
    assert rep.passed and not rep.any_ambiguous
    assert len(rep.rows) == 4
    assert sum(r.solver_dim for r in rep.rows) == 4
    assert [r.solver_dim for r in rep.rows] == [r.family_dim for r in rep.rows]
    head = rep.table().splitlines()
    assert head[0] == "group sigma chi n_g sum_f_dim match"
    assert head[1] == "Z4 inversion trivial 4 4 PASS"


def test_completeness_labels_name_the_generating_characters():
    Z4 = build_catalog_group("Z4")
    rep = completeness_check(Z4, inversion_involution(Z4), trivial_character(Z4))
    labels = [r.g_label for r in rep.rows]
    assert "zero" in labels
    assert "(0,1/4,1/2,3/4)|(0,3/4,1/2,1/4)" in labels


def test_injected_non_solution_is_caught():
    # negative control: a corrupted family vector is neither inside the
    # nullspace span nor residual-free, so completeness machinery must flag it
    Z4 = build_catalog_group("Z4")
    sigma = inversion_involution(Z4)
    chi = trivial_character(Z4)
    key, g, fam = candidate_gs(Z4, sigma, chi)[2]
    res = solve_f_given_g(Z4, sigma, chi, g)
    corrupt = fam[0] + np.array([0, 0.2, 0, 0])
    rep = residual_wilson(Z4, sigma, chi, GroupFunction(Z4, corrupt), g)
    assert rep.sup > 0.1
    assert 0 <= rep.argmax_x < 4 and 0 <= rep.argmax_y < 4
    assert span_distances([b.values for b in res.basis], [corrupt])[0] > 1e-3


# --- formula-free Newton recovery -----------------------------------------


def test_brute_force_on_z2_finds_exactly_three_solutions():
    Z2 = build_catalog_group("Z2")
    res = brute_force_dalembert(Z2, identity_involution(Z2), trivial_character(Z2))
    assert isinstance(res, BruteForceResult)
    assert res.n_starts == 200 and res.n_converged == 200 and not res.flagged
    expected = [GroupFunction.zero(Z2),
                GroupFunction(Z2, [1.0, 1.0]),
                GroupFunction(Z2, [1.0, -1.0])]
    assert function_sets_equal(res.solutions, expected)


def test_brute_force_matches_formula_candidates_on_z4():
    Z4 = build_catalog_group("Z4")
    sigma = inversion_involution(Z4)
    chi = trivial_character(Z4)
    res = brute_force_dalembert(Z4, sigma, chi)
    formula = [GroupFunction.zero(Z4)] + \
        [g for _, g, _ms in candidate_gs(Z4, sigma, chi)
         if np.abs(g.values).max() > 0]
    assert function_sets_equal(res.solutions, formula)
    assert not res.flagged


def test_brute_force_is_deterministic():
    Z3 = build_catalog_group("Z3")
    sigma = identity_involution(Z3)
    chi = trivial_character(Z3)
    a = brute_force_dalembert(Z3, sigma, chi, seed=0)
    b = brute_force_dalembert(Z3, sigma, chi, seed=0)
    assert len(a.solutions) == len(b.solutions) == 4
    for x, y in zip(a.solutions, b.solutions):
        assert np.array_equal(x.values, y.values)
    assert a.n_converged == b.n_converged == 175


def test_brute_force_flags_low_convergence_honestly():
    # Z5 has badly conditioned basins; under half the starts converge, and
    # the result says so instead of hiding it
    Z5 = build_catalog_group("Z5")
    res = brute_force_dalembert(Z5, identity_involution(Z5), trivial_character(Z5))
    assert res.n_converged == 96
    assert res.flagged
    assert len(res.solutions) == 6  # zero plus the five characters


@pytest.mark.parametrize("name", ["Z2", "Z5", "S3"])
def test_brute_force_counts_hits_per_solution(name):
    G = build_catalog_group(name)
    res = brute_force_dalembert(G, identity_involution(G), trivial_character(G))
    assert len(res.hits) == len(res.solutions)
    assert sum(res.hits) == res.n_converged
    # f(e) is pinned to 1, so no start can land on f = 0
    assert res.hits[0] == 0
    assert all(h > 0 for h in res.hits[1:])


def test_brute_force_rejects_large_groups():
    S4 = build_catalog_group("S4")
    with pytest.raises(ValueError):
        brute_force_dalembert(S4, identity_involution(S4), trivial_character(S4))


def test_function_sets_equal_detects_extras():
    Z2 = build_catalog_group("Z2")
    a = [GroupFunction.zero(Z2)]
    b = [GroupFunction.zero(Z2), GroupFunction(Z2, [1.0, 1.0])]
    assert not function_sets_equal(a, b)
    assert function_sets_equal(b, list(reversed(b)))


# --- structure audit ------------------------------------------------------

AUDIT_ROW_NAMES = [
    "g_at_identity_is_one",
    "g_is_central",
    "g_equals_chi_g_sigma",
    "g_equals_mg_times_g_inv",
    "mg_is_multiplicative",
    "shifted_f_is_mg_eigenfunction",
    "g_solves_dalembert_with_mg",
    "f_solves_wilson_with_mg",
    "even_part_is_f_at_e_times_g",
    "odd_part_satisfies_symmetrized_sine_addition",
    "inversion_gives_sign_valued_chi_mg",
]


def test_audit_passes_on_the_quaternion_half_trace_pair():
    Q8 = build_catalog_group("Q8")
    sigma = inversion_involution(Q8)
    chi = trivial_character(Q8)
    g = canned_half_trace(Q8)
    res = solve_f_given_g(Q8, sigma, chi, g)
    assert len(res.basis) == 1
    report = theorem22_audit(Q8, sigma, chi, res.basis[0], g)
    assert report.passed
    assert [r.name for r in report.rows] == AUDIT_ROW_NAMES
    assert report.skipped == []
    assert max(r.max_violation for r in report.rows) <= 1e-12
    assert "PASS" in report.table()


def test_audit_applies_on_abelian_groups_with_any_involution():
    # on an abelian domain every automorphism is also an anti-automorphism
    Z4 = build_catalog_group("Z4")
    sigma = inversion_involution(Z4)
    chi = trivial_character(Z4)
    _, g, _ms = candidate_gs(Z4, sigma, chi)[1]
    res = solve_f_given_g(Z4, sigma, chi, g)
    report = theorem22_audit(Z4, sigma, chi, res.basis[0], g)
    assert report.passed


def test_audit_skips_the_sign_row_away_from_inversion():
    Z4 = build_catalog_group("Z4")
    sigma = identity_involution(Z4)
    chi = trivial_character(Z4)
    _, g, _ms = candidate_gs(Z4, sigma, chi)[1]
    res = solve_f_given_g(Z4, sigma, chi, g)
    report = theorem22_audit(Z4, sigma, chi, res.basis[0], g)
    assert ("inversion_gives_sign_valued_chi_mg",
            "sigma is not inversion") in report.skipped


def test_audit_not_applicable_cases():
    Q8 = build_catalog_group("Q8")
    chi = trivial_character(Q8)
    inv = inversion_involution(Q8)
    with pytest.raises(AuditInapplicable):
        theorem22_audit(Q8, inv, chi, GroupFunction.zero(Q8),
                        canned_half_trace(Q8))
    S3 = build_catalog_group("S3")
    f = GroupFunction(S3, np.ones(6))
    with pytest.raises(AuditInapplicable):
        # identity is not an anti-automorphism on a nonabelian group
        theorem22_audit(S3, identity_involution(S3), trivial_character(S3), f, f)
    ball = BallDomain(IntegerLattice(1), 2)
    fb = GroupFunction(ball, np.ones(ball.n))
    with pytest.raises(AuditInapplicable):
        theorem22_audit(ball, identity_involution(ball),
                        trivial_character(ball), fb, fb)


def test_audit_fails_with_witness_on_a_corrupted_pair():
    Q8 = build_catalog_group("Q8")
    sigma = inversion_involution(Q8)
    chi = trivial_character(Q8)
    g = canned_half_trace(Q8)
    f = solve_f_given_g(Q8, sigma, chi, g).basis[0]
    rng = np.random.default_rng(5)
    noisy_g = GroupFunction(Q8, g.values + 0.05 * rng.normal(size=8))
    report = theorem22_audit(Q8, sigma, chi, f, noisy_g)
    assert not report.passed
    failing = [r for r in report.rows if not r.passed]
    assert failing
    for row in failing:
        assert row.max_violation > 1e-10
        assert all(0 <= i < 8 for i in row.witness)


def test_newton_search_under_anti_automorphisms_finds_the_mixed_family():
    # the paper proves only properties of the solutions when sigma is an
    # anti-automorphism; on S3, Q8 and D4 the formula-free search finds the
    # mixed family (m + chi m o sigma) / 2, plus the half trace of the 2-dim
    # irreducible representation wherever that solves the equation
    combos = with_half = 0
    for name in ("S3", "Q8", "D4"):
        G = build_catalog_group(name)
        ms, half = enumerate_multiplicative(G), canned_half_trace(G)
        chars = enumerate_characters(G)
        for sigma in enumerate_involutions(G, "anti-automorphism"):
            for chi in compatible_characters(G, sigma, chars):
                expected = []
                for cand in [GroupFunction(G, (m.values + chi.values
                                               * m.values[sigma.table]) / 2)
                             for m in ms] + [half]:
                    if cand is half and residual_wilson(
                            G, sigma, chi, half, half).sup > 1e-12:
                        continue
                    if all(np.abs(cand.values - e.values).max() >= 1e-6
                           for e in expected):
                        expected.append(cand)
                        with_half += cand is half
                found = brute_force_dalembert(G, sigma, chi, n_starts=200,
                                              seed=0)
                assert function_sets_equal(found.solutions, expected,
                                           tol=1e-6), (name, sigma.table, chi)
                combos += 1
    assert (combos, with_half) == (56, 9)
