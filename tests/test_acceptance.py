"""End-to-end acceptance gate.

One timed criterion per test, printing a single ``CRITERION n [...]: PASS``
or ``FAIL`` line (visible under ``pytest -s``; the verbose test listing
mirrors the same verdicts). Criterion failures raise, so a FAIL line is
always accompanied by a failing test.
"""

import time

import numpy as np

from feqlab.families import (SolutionPair, canned_half_trace, family_case_ii,
                             family_case_iv, generate_family_pairs)
from feqlab.feq import GroupFunction, residual_wilson
from feqlab.groups import (CATALOG_NAMES, BallDomain, IntegerLattice,
                           build_catalog_group)
from feqlab.morphisms import (AdditiveMap, ball_character, ball_involution,
                              compatible_characters,
                              enumerate_characters, enumerate_involutions,
                              enumerate_multiplicative, inversion_involution,
                              trivial_character)
from feqlab.solver import (brute_force_dalembert, candidate_gs,
                           completeness_check, function_sets_equal,
                           solve_f_given_g, span_distance, theorem22_audit)
from feqlab.stability import (PerturbationConfig, bounded_noise_candidate,
                              dichotomy_experiment, perturb,
                              run_stability_battery)


class _Gate:
    """Times a criterion body and prints its one-line verdict."""

    def __init__(self, number, label, budget_s=None):
        self.number = number
        self.label = label
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        on_time = self.budget_s is None or elapsed < self.budget_s
        verdict = "PASS" if exc_type is None and on_time else "FAIL"
        print(f"CRITERION {self.number} [{self.label}]: {verdict} "
              f"({elapsed:.2f} s)")
        if exc_type is None and not on_time:
            raise AssertionError(
                f"criterion {self.number} took {elapsed:.2f} s; "
                f"budget is {self.budget_s} s")
        return False


def _catalog_upto(max_order):
    for name in CATALOG_NAMES:
        G = build_catalog_group(name)
        if G.order <= max_order:
            yield G


def _sigma_chi_combos(G):
    chars = enumerate_characters(G)
    for sigma in enumerate_involutions(G, "automorphism"):
        for chi in compatible_characters(G, sigma, chars):
            yield sigma, chi


def test_criterion_1_every_family_pair_is_an_exact_solution():
    with _Gate(1, "family soundness, exhaustive catalog sweep", 10.0):
        pairs = combos = 0
        for G in _catalog_upto(8):
            ms = enumerate_multiplicative(G)
            for sigma, chi in _sigma_chi_combos(G):
                combos += 1
                for pair in generate_family_pairs(G, sigma, chi, ms):
                    rep = residual_wilson(G, sigma, chi, pair.f, pair.g)
                    assert rep.sup <= 1e-12, \
                        (G.name, sigma.label, pair.family_tag, rep.sup)
                    pairs += 1
        # exhaustiveness: the sweep size itself is part of the contract
        assert combos == 153
        assert pairs == 24400


def test_criterion_2_families_span_the_full_solution_space():
    with _Gate(2, "solver/family completeness on six groups", 30.0):
        combos = 0
        for name in ("Z2", "Z3", "Z4", "Z2xZ2", "Z6", "S3"):
            G = build_catalog_group(name)
            for sigma, chi in _sigma_chi_combos(G):
                report = completeness_check(G, sigma, chi, tol=1e-9)
                assert report.rows, (name, sigma.label)
                assert report.passed, report.table()
                assert not report.any_ambiguous
                combos += 1
        assert combos == 38


def test_criterion_3_newton_search_recovers_the_mixed_family_only():
    with _Gate(3, "formula-free search finds no extra solutions", 60.0):
        runs = 0
        for G in _catalog_upto(6):
            ms = enumerate_multiplicative(G)
            for sigma, chi in _sigma_chi_combos(G):
                found = brute_force_dalembert(G, sigma, chi, n_starts=200,
                                              seed=0)
                expected = []
                for m in ms:
                    vals = (m.values + chi.values * m.values[sigma.table]) / 2.0
                    cand = GroupFunction(G, vals)
                    if all(np.abs(cand.values - e.values).max() >= 1e-6
                           for e in expected):
                        expected.append(cand)
                assert function_sets_equal(found.solutions, expected,
                                           tol=1e-6), \
                    (G.name, sigma.label, len(found.solutions), len(expected))
                runs += 1
        assert runs == 53


def _audit_pairs(G, sigma, chi):
    gs = [g for _, g, _ in candidate_gs(G, sigma, chi)]
    half = canned_half_trace(G)
    if half is not None:
        gs.append(half)
    for g in gs:
        for f in solve_f_given_g(G, sigma, chi, g).basis:
            if np.abs(f.values).max() > 0:
                yield f, g


def test_criterion_4_exact_pairs_pass_the_property_audit():
    with _Gate(4, "property audit of exact pairs, inversion trio", 10.0):
        audited = 0
        for name in ("S3", "D4", "Q8"):
            G = build_catalog_group(name)
            sigma = inversion_involution(G)
            for chi in compatible_characters(G, sigma,
                                             enumerate_characters(G)):
                for f, g in _audit_pairs(G, sigma, chi):
                    rep = theorem22_audit(G, sigma, chi, f, g, tol=1e-10)
                    assert rep.rows
                    assert rep.passed, (name, rep.table())
                    audited += 1
        assert audited == 46


def _q8_exact_pair():
    G = build_catalog_group("Q8")
    sigma = inversion_involution(G)
    chi = trivial_character(G)
    g = canned_half_trace(G)
    f = solve_f_given_g(G, sigma, chi, g).basis[0]
    return G, sigma, chi, SolutionPair(f, g, "External", sigma=sigma, chi=chi)


def _lattice_exact_pair():
    ball = BallDomain(IntegerLattice(2), 6)
    sigma = ball_involution(ball, "inv")
    chi = ball_character(ball, [1.0, 1.0])
    m = ball_character(ball, [1.0, 1.0])
    pair = family_case_iv(m, chi, sigma, AdditiveMap(ball, [1.0, 0.0]), 1.0)
    return ball, sigma, chi, pair


def test_criterion_5_proof_constants_hold_for_perturbed_pairs():
    with _Gate(5, "inequality audits at the measured residual", 60.0):
        for build in (_q8_exact_pair, _lattice_exact_pair):
            dom, sigma, chi, pair = build()
            for eps in (1e-1, 1e-2, 1e-3):
                for seed in (1, 2, 3):
                    pp = perturb(pair, PerturbationConfig(epsilon=eps,
                                                          seed=seed))
                    rep = run_stability_battery(dom, sigma, chi, pp.f, pp.g,
                                                pp.measured_delta)
                    tag = (build.__name__, eps, seed)
                    assert rep.passed, (tag, rep.table())
                    # zero violating windows, not merely small excess
                    for row in rep.rows:
                        assert row.passed, (tag, row.name)
                        assert row.evaluated > 0
                    if sigma.kind == "anti-automorphism":
                        # sine-addition audit needs sigma to preserve
                        # products; reported untested, never silently passed
                        assert rep.not_applicable == [
                            ("section_sine_addition_defect",
                             "sigma is not a homomorphism on this domain")]
                        assert len(rep.rows) == 4
                    else:
                        assert rep.not_applicable == []
                        assert len(rep.rows) == 5


def test_criterion_6_growth_dichotomy_report_is_exact_and_deterministic():
    with _Gate(6, "bounded-or-exact dichotomy on lattice balls", 10.0):
        radii = [4, 8, 12, 16]
        rep = dichotomy_experiment(IntegerLattice(1), radii,
                                   lambda el: 2.0 ** el[0])
        assert [r.radius for r in rep.growth_rows] == radii
        for row in rep.growth_rows:
            assert row.delta == 0.0
            assert row.dist_to_family == 0.0
            assert row.branch_label == "growing"

        noisy = bounded_noise_candidate(IntegerLattice(1), 16, seed=7,
                                        epsilon=0.01)
        rep_b = dichotomy_experiment(IntegerLattice(1), radii, noisy)
        assert all(r.branch_label == "bounded" for r in rep_b.growth_rows)

        again = dichotomy_experiment(
            IntegerLattice(1), radii,
            bounded_noise_candidate(IntegerLattice(1), 16, seed=7,
                                    epsilon=0.01))
        assert again.csv() == rep_b.csv()


def test_criterion_7_injected_non_solutions_are_caught_with_witnesses():
    with _Gate(7, "negative controls produce concrete witnesses"):
        # family/completeness control: bump one exact f off the solution set
        Z4 = build_catalog_group("Z4")
        sigma = inversion_involution(Z4)
        chi = trivial_character(Z4)
        m = enumerate_characters(Z4)[1]
        good = family_case_ii(m, chi, sigma, 2.0)
        bad = good.f.values.copy()
        bad[1] += 0.5
        rep = residual_wilson(Z4, sigma, chi, GroupFunction(Z4, bad), good.g)
        assert rep.sup > 0.1
        assert (0 <= rep.argmax_x < 4) and (0 <= rep.argmax_y < 4)
        basis = solve_f_given_g(Z4, sigma, chi, good.g).basis
        assert span_distance([b.values for b in basis], bad) > 1e-3

        # audit control: corrupted companion g names a failing check
        G, s_q8, c_q8, pair = _q8_exact_pair()
        g_bad = pair.g.values.copy()
        g_bad[2] += 0.3
        audit = theorem22_audit(G, s_q8, c_q8, pair.f,
                                GroupFunction(G, g_bad), tol=1e-10)
        failing = [r for r in audit.rows if not r.passed]
        assert failing
        for row in failing:
            assert row.max_violation > 1e-10
            assert all(isinstance(i, int) for i in row.witness)

        # stability control: an understated residual flips named audits
        pp = perturb(pair, PerturbationConfig(epsilon=1e-2, seed=1))
        lying = run_stability_battery(G, s_q8, c_q8, pp.f, pp.g,
                                      pp.measured_delta / 1000.0)
        assert not lying.passed
        failed_names = {r.name for r in lying.rows if not r.passed}
        assert "companion_shift_defect" in failed_names
        assert "parity_defect" in failed_names
        for row in lying.rows:
            if not row.passed:
                assert row.max_excess > 0
                assert row.witness

        # search control: an extra "solution" breaks set equality both ways
        Z2 = build_catalog_group("Z2")
        s_id, chi2 = next(iter(_sigma_chi_combos(Z2)))
        found = brute_force_dalembert(Z2, s_id, chi2, n_starts=200,
                                      seed=0).solutions
        expected = []
        for m2 in enumerate_multiplicative(Z2):
            vals = (m2.values + chi2.values * m2.values[s_id.table]) / 2.0
            expected.append(GroupFunction(Z2, vals))
        assert function_sets_equal(found, expected, tol=1e-6)
        fake = GroupFunction(Z2, [0.5, 0.5])
        assert not function_sets_equal(found + [fake], expected, tol=1e-6)
        assert not function_sets_equal(found[:-1], expected, tol=1e-6)
