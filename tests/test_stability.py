"""Perturbation machinery, inequality audits, dichotomy and branch scans."""

import cmath
import math

import numpy as np
import pytest

from feqlab import stability
from feqlab.families import SolutionPair, canned_half_trace
from feqlab.feq import (GroupFunction, residual_symmetrized_cauchy,
                        residual_wilson)
from feqlab.groups import BallDomain, DiscreteHeisenberg, FreeGroup, \
    IntegerLattice, build_catalog_group
from feqlab.morphisms import (
    ball_character,
    ball_involution,
    enumerate_characters,
    inversion_involution,
    multiplicative_defect,
    trivial_character,
)
from feqlab.solver import solve_f_given_g
from feqlab.stability import (
    AuditInapplicable,
    PerturbationConfig,
    audit_centrality_bound,
    audit_mg_shift_bound,
    audit_parity_bound,
    audit_sine_addition_bound,
    audit_symmetrized_sine_addition_bound,
    bounded_noise_candidate,
    classify_growth,
    dichotomy_experiment,
    multiplicative_distance,
    perturb,
    run_stability_battery,
    theorem37_case_scan,
)

from family_oracle import family_case_ii
from residual_oracle import dense_residual


def z4_pair():
    Z4 = build_catalog_group("Z4")
    sigma = inversion_involution(Z4)
    chi = enumerate_characters(Z4)[1]
    m = chi
    return Z4, sigma, chi, family_case_ii(m, chi, sigma, 2.0)


def q8_pair():
    Q8 = build_catalog_group("Q8")
    sigma = inversion_involution(Q8)
    chi = trivial_character(Q8)
    g = canned_half_trace(Q8)
    f = solve_f_given_g(Q8, sigma, chi, g).basis[0]
    return Q8, sigma, chi, SolutionPair(f, g, "External", sigma=sigma, chi=chi)


def test_perturbation_config_validation():
    with pytest.raises(ValueError):
        PerturbationConfig(epsilon=-0.1)
    with pytest.raises(ValueError):
        PerturbationConfig(epsilon=0.1, shape="gaussian")
    with pytest.raises(ValueError):
        PerturbationConfig(epsilon=0.1, target="h")
    for eps in (math.nan, math.inf):
        with pytest.raises(ValueError):
            PerturbationConfig(epsilon=eps)
    with pytest.raises(ValueError):
        PerturbationConfig(epsilon=0.1, seed=-1)


def test_zero_epsilon_leaves_the_pair_exact():
    _, _, _, pair = z4_pair()
    result = perturb(pair, PerturbationConfig(epsilon=0.0))
    # roundoff of the exact pair, not an honest perturbation residual
    assert result.measured_delta <= 1e-12
    assert np.array_equal(result.f.values, pair.f.values)


def test_f_only_perturbation_obeys_the_tighter_bound():
    _, _, _, pair = z4_pair()
    eps = 0.01
    result = perturb(pair, PerturbationConfig(epsilon=eps, target="f", seed=3))
    assert 0 < result.measured_delta <= eps * (2 + 2 * pair.g.sup()) + 1e-12


def test_perturbation_is_deterministic_in_the_seed():
    _, _, _, pair = z4_pair()
    cfg = PerturbationConfig(epsilon=0.05, seed=11)
    a = perturb(pair, cfg)
    b = perturb(pair, cfg)
    assert np.array_equal(a.f.values, b.f.values)
    assert a.measured_delta == b.measured_delta


def test_character_phase_noise_has_exact_modulus():
    _, _, _, pair = z4_pair()
    eps = 0.02
    result = perturb(pair, PerturbationConfig(epsilon=eps, seed=1,
                                              shape="character-phase", target="f"))
    assert np.allclose(np.abs(result.f.values - pair.f.values), eps)


def test_single_point_bump_localizes_the_residual():
    Z4, sigma, chi, pair = z4_pair()
    cfg = PerturbationConfig(epsilon=0.5, seed=0, shape="single-point",
                             target="f", point=2)
    result = perturb(pair, cfg)
    assert result.measured_delta > 0
    resid, _ = dense_residual(Z4, sigma, chi, result.f, result.g)
    st = sigma.table
    for x in range(4):
        for y in range(4):
            if resid[x, y] > 1e-12:
                # every hot pair must read the bumped point somewhere
                assert Z4.op(x, y) == 2 or Z4.op(st[y], x) == 2 or x == 2


def test_measured_delta_is_linear_in_epsilon():
    _, _, _, pair = z4_pair()
    slopes = []
    for eps in (1e-1, 1e-2, 1e-3):
        r = perturb(pair, PerturbationConfig(epsilon=eps, seed=0))
        slopes.append(r.measured_delta / eps)
    assert max(slopes) / min(slopes) <= 1.2


def test_perturbed_delta_never_exceeds_the_triangle_bound():
    _, _, _, pair = z4_pair()
    for seed in range(5):
        eps = 0.1
        result = perturb(pair, PerturbationConfig(epsilon=eps, seed=seed))
        bound = (2 + 2 * pair.g.sup() + 2 * pair.f.sup() + 2 * eps) * eps
        assert result.measured_delta <= bound + 1e-12


# --- inequality audits ----------------------------------------------------


def test_exact_pair_audits_have_no_excess():
    Z4, sigma, chi, pair = z4_pair()
    report = run_stability_battery(Z4, sigma, chi, pair.f, pair.g, 0.0)
    assert report.passed and report.not_applicable == []
    names = [r.name for r in report.rows]
    assert names == ["centrality_defect", "companion_shift_defect",
                     "parity_defect", "section_sine_addition_defect",
                     "symmetrized_sine_addition_defect"]
    for row in report.rows:
        assert row.max_excess <= 1e-9
        assert row.skipped == 0


def test_perturbed_pair_passes_at_measured_delta():
    Z4, sigma, chi, pair = z4_pair()
    for seed in (1, 2):
        result = perturb(pair, PerturbationConfig(epsilon=0.1, seed=seed))
        report = run_stability_battery(Z4, sigma, chi, result.f, result.g,
                                       result.measured_delta)
        assert report.passed


def test_understated_delta_fails_with_witnesses():
    Z4, sigma, chi, pair = z4_pair()
    result = perturb(pair, PerturbationConfig(epsilon=0.1, seed=1))
    report = run_stability_battery(Z4, sigma, chi, result.f, result.g,
                                   result.measured_delta / 1000.0)
    assert not report.passed
    failed = {r.name for r in report.rows if not r.passed}
    assert "companion_shift_defect" in failed
    assert "parity_defect" in failed
    for r in report.rows:
        if not r.passed:
            assert r.max_excess > 0
            assert len(r.witness) in (2, 3)
    assert "FAIL" in report.table()


def test_sine_addition_audit_requires_a_homomorphism():
    Q8, sigma, chi, pair = q8_pair()
    with pytest.raises(AuditInapplicable):
        audit_sine_addition_bound(Q8, sigma, chi, pair.f, pair.g, 0.0)
    # the symmetrized form absorbs the anti-automorphism mismatch
    row = audit_symmetrized_sine_addition_bound(Q8, sigma, chi, pair.f,
                                                pair.g, 0.0)
    assert row.passed and row.max_excess <= 1e-9


def test_battery_reports_inapplicable_rows_instead_of_hiding_them():
    Q8, sigma, chi, pair = q8_pair()
    result = perturb(pair, PerturbationConfig(epsilon=1e-2, seed=2))
    report = run_stability_battery(Q8, sigma, chi, result.f, result.g,
                                   result.measured_delta)
    assert report.passed
    assert report.not_applicable == [
        ("section_sine_addition_defect",
         "sigma is not a homomorphism on this domain")]
    assert [r.name for r in report.rows] == [
        "centrality_defect", "companion_shift_defect", "parity_defect",
        "symmetrized_sine_addition_defect"]
    assert "N/A" in report.table()


def test_ball_audits_skip_only_open_windows():
    ball = BallDomain(IntegerLattice(2), 4)
    sigma = ball_involution(ball, "inv")
    chi = ball_character(ball, [1.0, 1.0])
    one = GroupFunction(ball, np.ones(ball.n))
    delta = residual_wilson(ball, sigma, chi, one, one).sup
    assert delta == 0.0
    for fn in (audit_centrality_bound, audit_mg_shift_bound, audit_parity_bound,
               audit_sine_addition_bound, audit_symmetrized_sine_addition_bound):
        row = fn(ball, sigma, chi, one, one, delta)
        assert row.passed
        assert row.evaluated > 0
        assert row.skipped > 0  # the window leaves the ball for outer points
        assert row.evaluated + row.skipped in (ball.n ** 2, ball.n ** 3)


# --- dichotomy ------------------------------------------------------------


def test_classify_growth_edge_cases():
    assert classify_growth([0.0, 0.0, 0.0]) == "bounded"
    assert classify_growth([2.0]) == "inconclusive"
    assert classify_growth([1.0, 2.0, 4.0]) == "growing"
    assert classify_growth([1.0, 1.05, 1.04]) == "bounded"
    assert classify_growth([1.0, 2.0, 2.1]) == "inconclusive"
    assert classify_growth([0.0, 1.0, 2.0]) == "growing"  # 0 -> positive jump


def test_multiplicative_distance_units():
    ball = BallDomain(IntegerLattice(1), 8)
    char = ball_character(ball, [2.0])
    assert multiplicative_distance(ball, GroupFunction(ball, char.values)) == 0.0
    assert multiplicative_distance(ball, GroupFunction.zero(ball)) == 0.0
    bumped = char.values.copy()
    bumped[ball.elements.index((3,))] += 0.25
    d = multiplicative_distance(ball, GroupFunction(ball, bumped))
    assert 0.2 <= d <= 0.26


def test_exact_exponential_dichotomy_is_exactly_zero():
    rep = dichotomy_experiment(IntegerLattice(1), [4, 8, 12, 16],
                               lambda el: 2.0 ** el[0])
    assert rep.measured_delta == 0.0
    for row in rep.growth_rows:
        assert row.delta == 0.0
        assert row.dist_to_family == 0.0
        assert row.branch_label == "growing"
    assert rep.csv().startswith("radius,sup_f,sup_g,delta,dist_to_family,branch_label")


def test_an_exact_character_past_the_float_square_is_near_the_family():
    # |m|^2 of 1.7^x on Z^1 r=700 passes the float range though m is finite
    (row,) = dichotomy_experiment(IntegerLattice(1), [700],
                                  lambda el: 1.7 ** el[0]).growth_rows
    assert math.isfinite(row.sup_f)
    assert row.dist_to_family <= 1e-9 * row.sup_f


def test_bounded_noise_lands_on_the_bounded_branch():
    provider = bounded_noise_candidate(IntegerLattice(1), 16, seed=7, epsilon=0.01)
    rep = dichotomy_experiment(IntegerLattice(1), [4, 8, 12, 16], provider)
    for row in rep.growth_rows:
        assert row.branch_label == "bounded"
        assert row.sup_f <= 1.02
        assert row.delta <= 0.1


def test_bounded_noise_provider_is_restriction_consistent():
    provider = bounded_noise_candidate(IntegerLattice(2), 4, seed=1, epsilon=0.5)
    small = BallDomain(IntegerLattice(2), 2)
    large = BallDomain(IntegerLattice(2), 4)
    for el in small.elements:
        assert provider(el) == provider(el)
    vals_small = [provider(el) for el in small.elements]
    vals_large = [provider(el) for el in large.elements[:small.n]]
    assert vals_small == vals_large


def test_noisy_exponential_stays_near_the_multiplicative_family():
    eps = 1e-3
    ball16 = BallDomain(IntegerLattice(1), 16)
    rng = np.random.default_rng(3)
    phases = np.exp(2j * np.pi * rng.uniform(size=ball16.n))
    noise = {el: 1.0 + eps * phases[i] for i, el in enumerate(ball16.elements)}
    rep = dichotomy_experiment(IntegerLattice(1), [4, 8, 12, 16],
                               lambda el: (2.0 ** el[0]) * noise[el])
    pure = {el: 2.0 ** el[0] for el in ball16.elements}
    for row in rep.growth_rows:
        assert row.branch_label == "growing"
        # by construction f sits within eps of the exact exponential
        ball = BallDomain(IntegerLattice(1), row.radius)
        f = np.array([(2.0 ** el[0]) * noise[el] for el in ball.elements])
        m = np.array([pure[el] for el in ball.elements])
        assert np.abs(f - m).max() <= eps * row.sup_f / (1 - eps)
        # the generator-ratio estimate is a near-tight upper bound
        assert row.dist_to_family <= 2 * eps * row.sup_f


def test_dichotomy_output_is_deterministic():
    args = (IntegerLattice(1), [4, 8], bounded_noise_candidate(
        IntegerLattice(1), 8, seed=9, epsilon=0.05))
    assert dichotomy_experiment(*args).csv() == dichotomy_experiment(*args).csv()


# --- branch scan ----------------------------------------------------------


def test_scan_zero_f_is_branch_one():
    rec = theorem37_case_scan(IntegerLattice(2), [2, 4, 8],
                              lambda el: 0.0, lambda el: 1.0)
    assert rec.branch == "i"
    assert all(t[1] == 0 for t in rec.radii_table)


def test_scan_bounded_pair_is_branch_two():
    provider = bounded_noise_candidate(IntegerLattice(1), 16, seed=4, epsilon=0.01)
    rec = theorem37_case_scan(IntegerLattice(1), [4, 8, 16], provider, provider)
    assert rec.branch == "ii"


def test_scan_additive_over_constant_g_is_branch_three():
    rec = theorem37_case_scan(IntegerLattice(1), [2, 4, 8, 16],
                              lambda el: el[0], lambda el: 1.0,
                              sigma_spec="inv")
    assert rec.branch == "iii"
    coef = rec.details["additive_fit_coefficients"]
    assert np.isclose(abs(coef[0]), 1.0)
    assert abs(rec.details["additive_fit_intercept"]) <= 1e-9
    assert rec.details["additive_fit_residual"] <= 1e-9
    assert rec.details["g_multiplicative_defect"] <= 1e-12
    assert rec.details["g_sigma_symmetry_defect"] <= 1e-12


def test_scan_mixed_pair_recovers_its_base_at_the_element_one():
    # f = 2^x and g = (2^x + w^x 2^-x)/2 solve the pair equation on Z^1 with
    # sigma = inv and chi(x) = w^x; the base is read off g(1) and chi(1), and
    # g(-1) = g(1)/w would give a base that does not fit g
    w = cmath.exp(0.7j)

    def g(el):
        return (2.0 ** el[0] + w ** el[0] * 2.0 ** -el[0]) / 2

    rec = theorem37_case_scan(IntegerLattice(1), [4, 8, 16],
                              lambda el: 2.0 ** el[0], g,
                              sigma_spec="inv", chi_zs=[w])
    assert (rec.branch, rec.sub_branch) == ("iv", "3")
    assert min(abs(rec.details["recovered_base"] - z) for z in (2.0, w / 2)) < 1e-9


def test_scan_shifted_additive_recovers_the_intercept():
    rec = theorem37_case_scan(IntegerLattice(2), [4, 12, 36],
                              lambda el: el[1] + 5.0, lambda el: 1.0,
                              sigma_spec="inv")
    assert rec.branch == "iii"
    coef = rec.details["additive_fit_coefficients"]
    assert np.isclose(abs(coef[0]), 0.0, atol=1e-9)
    assert np.isclose(abs(coef[1]), 1.0)
    assert np.isclose(rec.details["additive_fit_intercept"], 5.0)


def test_scan_ambiguous_growth_is_labeled_inconclusive():
    # sup grows like r + 5; between radii 2,4,8,16 the ratios straddle the
    # growth and flatness cutoffs, so no branch may be guessed
    rec = theorem37_case_scan(IntegerLattice(1), [2, 4, 8, 16],
                              lambda el: el[0] + 5.0, lambda el: 1.0,
                              sigma_spec="inv")
    assert rec.branch == "inconclusive"
    assert rec.details["f_growth"] == "inconclusive"


def test_scan_proportional_growing_pair():
    cosh = lambda el: (2.0 ** el[0] + 2.0 ** (-el[0])) / 2.0
    rec = theorem37_case_scan(IntegerLattice(1), [2, 4, 6],
                              lambda el: 3.0 * cosh(el), cosh, sigma_spec="inv")
    assert (rec.branch, rec.sub_branch) == ("iv", "1")
    assert np.isclose(rec.details["proportionality"], 3.0)


def test_scan_recovers_the_two_character_mixture():
    cosh = lambda el: (2.0 ** el[0] + 2.0 ** (-el[0])) / 2.0
    mix = lambda el: 2.0 * (2.0 ** el[0]) - 1.0 * (2.0 ** (-el[0]))
    rec = theorem37_case_scan(IntegerLattice(1), [2, 4, 6], mix, cosh,
                              sigma_spec="inv")
    assert (rec.branch, rec.sub_branch) == ("iv", "3")
    assert rec.details["recovered_base"] in (2.0 + 0j, 0.5 + 0j)
    coeffs = sorted(rec.details["f_coefficients"], key=abs)
    assert np.allclose(coeffs, [-1.0, 2.0], atol=1e-6)
    assert rec.details["g_fit_residual"] <= 1e-9
    assert rec.details["f_fit_residual"] <= 1e-6


def test_scan_radii_table_is_recorded():
    rec = theorem37_case_scan(IntegerLattice(1), [2, 4],
                              lambda el: 0.0, lambda el: 1.0)
    assert [t[0] for t in rec.radii_table] == [2, 4]
    assert all(len(t) == 4 for t in rec.radii_table)


# --- the largest ball, restricted, against a fresh ball per radius --------


def _dichotomy_per_radius(kind, radii, f_provider, g_provider=None,
                          preset="SymmetrizedCauchy", sigma_spec="id",
                          chi_zs=None):
    """dichotomy_experiment as it was before restriction: a fresh ball for
    every radius and the providers evaluated on each one. Its
    SymmetrizedCauchy preset keeps the second residual path that the
    default sigma = id, chi = 1, g = f replaced."""
    rows, sups_f = [], []
    for r in sorted(radii):
        ball = BallDomain(kind, r)
        f = GroupFunction(ball, [f_provider(el) for el in ball.elements])
        g = f if g_provider is None else \
            GroupFunction(ball, [g_provider(el) for el in ball.elements])
        if preset == "SymmetrizedCauchy":
            delta = residual_symmetrized_cauchy(ball, f).sup
        else:
            sigma = ball_involution(ball, sigma_spec)
            k = ball.coords.shape[1]
            chi = ball_character(ball, chi_zs if chi_zs else [1.0] * k)
            delta = residual_wilson(ball, sigma, chi, f, g).sup
        dist = multiplicative_distance(ball, f)
        rows.append(stability.DichotomyRow(r, f.sup(), g.sup(), delta, dist, ""))
        sups_f.append(f.sup())
    label = classify_growth(sups_f)
    for row in rows:
        row.branch_label = label
    delta_max = max((row.delta for row in rows), default=0.0)
    return stability.StabilityReport(measured_delta=delta_max, growth_rows=rows)


def _scan_per_radius(kind, radii, f_provider, g_provider, sigma_spec="inv",
                     chi_zs=None, tol=1e-8):
    """theorem37_case_scan as it was before restriction: a fresh ball for
    every radius, the branch checks on the last one built."""
    ScanRecord = stability.ScanRecord
    table = []
    last = None
    for r in sorted(radii):
        ball = BallDomain(kind, r)
        f = GroupFunction(ball, [f_provider(el) for el in ball.elements])
        g = GroupFunction(ball, [g_provider(el) for el in ball.elements])
        sigma = ball_involution(ball, sigma_spec)
        k = ball.coords.shape[1]
        chi = ball_character(ball, chi_zs if chi_zs else [1.0] * k)
        delta = residual_wilson(ball, sigma, chi, f, g).sup
        table.append((r, f.sup(), g.sup(), delta))
        last = (ball, f, g, sigma, chi)
    ball, f, g, sigma, chi = last
    f_growth = classify_growth([t[1] for t in table])
    g_growth = classify_growth([t[2] for t in table])
    if all(t[1] == 0 for t in table):
        return ScanRecord("i", "", {"note": "f = 0, g arbitrary"}, table)
    if "inconclusive" in (f_growth, g_growth):
        return ScanRecord("inconclusive", "",
                          {"f_growth": f_growth, "g_growth": g_growth}, table)
    if f_growth == "bounded":
        return ScanRecord("ii", "", {"f_growth": f_growth,
                                     "g_growth": g_growth}, table)
    details = {"f_growth": f_growth, "g_growth": g_growth}
    if g_growth == "bounded":
        details["g_multiplicative_defect"] = \
            multiplicative_defect(ball, g.values)
        sym = np.abs(g.values - chi.values * g.values[sigma.table]).max()
        details["g_sigma_symmetry_defect"] = float(sym)
        coef, intercept, resid = stability._additive_fit(ball, f.values / g.values)
        details["additive_fit_coefficients"] = list(coef)
        details["additive_fit_intercept"] = intercept
        details["additive_fit_residual"] = resid
        return ScanRecord("iii", "", details, table)
    fe, ge = f.values[0], g.values[0]
    if ge != 0 and np.abs(f.values - (fe / ge) * g.values).max() <= tol * max(1.0, f.sup()):
        details["proportionality"] = fe / ge
        return ScanRecord("iv", "1", details, table)
    if (np.abs(g.values) > 0).all():
        h = f.values / g.values
        coef, intercept, resid = stability._additive_fit(ball, h)
        scale = max(1.0, float(np.abs(h).max()))
        if resid <= tol * scale and abs(intercept) <= tol * scale:
            a_vals = ball.coords @ coef
            odd = float(np.abs(a_vals[sigma.table] + a_vals).max())
            details["additive_fit_coefficients"] = list(coef)
            details["a_sigma_antisymmetry_defect"] = odd
            if odd <= tol * scale:
                return ScanRecord("iv", "2", details, table)
    rec = stability._recover_mixed_form(ball, f, g, sigma, chi, tol)
    if rec is not None:
        details.update(rec)
        return ScanRecord("iv", "3", details, table)
    return ScanRecord("iv", "unclassified", details, table)


GROWTH_KINDS = [IntegerLattice(2), DiscreteHeisenberg(), FreeGroup(2)]


@pytest.mark.parametrize("kind", GROWTH_KINDS, ids=lambda kind: kind.name)
def test_dichotomy_on_the_restricted_ball_matches_fresh_balls(kind):
    radii = [1, 2, 3]
    f = bounded_noise_candidate(kind, 3, seed=11, epsilon=0.02)
    g = bounded_noise_candidate(kind, 3, seed=12, epsilon=0.02)
    for args, kwargs in [((f, g), {"sigma_spec": "inv"}), ((f,), {})]:
        new = dichotomy_experiment(kind, radii, *args, **kwargs)
        assert new == _dichotomy_per_radius(kind, radii, *args,
                                            preset="WilsonVariant", **kwargs)
        assert [row.radius for row in new.growth_rows] == radii


def _bits(report):
    """Every number of a dichotomy report as its float64 bytes."""
    floats = [report.measured_delta]
    for row in report.growth_rows:
        floats += [row.sup_f, row.sup_g, row.delta, row.dist_to_family]
    labels = [(row.radius, row.branch_label) for row in report.growth_rows]
    return np.array(floats, dtype=np.float64).tobytes(), labels


@pytest.mark.parametrize("kind", GROWTH_KINDS, ids=lambda kind: kind.name)
def test_default_dichotomy_is_the_symmetrized_cauchy_path_bit_for_bit(kind):
    # sigma = id, chi = 1 and g = f make the pair residual the symmetrized
    # Cauchy residual that the oracle's SymmetrizedCauchy preset evaluates
    radii = [1, 2, 3]
    f = bounded_noise_candidate(kind, 3, seed=11, epsilon=0.02)
    want = _dichotomy_per_radius(kind, radii, f)
    assert all(row.delta > 0 for row in want.growth_rows)
    assert _bits(dichotomy_experiment(kind, radii, f)) == _bits(want)


def test_dichotomy_on_an_exponential_matches_fresh_balls():
    radii = [2, 5, 9]
    kind = IntegerLattice(1)
    exp = lambda el: 1.7 ** el[0]
    new = dichotomy_experiment(kind, radii, exp, sigma_spec="inv",
                               chi_zs=[1j])
    assert new == _dichotomy_per_radius(kind, radii, exp, preset="WilsonVariant",
                                        sigma_spec="inv", chi_zs=[1j])
    assert new.growth_rows[0].branch_label == "growing"


@pytest.mark.parametrize("kind", GROWTH_KINDS, ids=lambda kind: kind.name)
def test_scan_on_the_restricted_ball_matches_fresh_balls(kind):
    radii = [1, 2, 3]
    f = bounded_noise_candidate(kind, 3, seed=21, epsilon=0.01)
    g = bounded_noise_candidate(kind, 3, seed=22, epsilon=0.01)
    for sigma_spec in ("inv", "id"):
        rec = theorem37_case_scan(kind, radii, f, g, sigma_spec=sigma_spec)
        assert rec == _scan_per_radius(kind, radii, f, g, sigma_spec=sigma_spec)
        assert rec.branch == "ii"


@pytest.mark.parametrize("kind, radii, f, g, branch", [
    (IntegerLattice(2), [1, 3, 9],
     lambda el: (0.7 * el[0] - 1.3 * el[1] + 0.4) * 1j ** el[0], lambda el: 1j ** el[0],
     ("iii", "")),
    (IntegerLattice(1), [2, 4, 6],
     lambda el: 2.0 * 2.0 ** el[0] - 2.0 ** (-el[0]),
     lambda el: (2.0 ** el[0] + 2.0 ** (-el[0])) / 2.0, ("iv", "3")),
], ids=["additive", "mixture"])
def test_scan_branch_details_match_fresh_balls(kind, radii, f, g, branch):
    rec = theorem37_case_scan(kind, radii, f, g, sigma_spec="inv")
    assert rec == _scan_per_radius(kind, radii, f, g, sigma_spec="inv")
    assert (rec.branch, rec.sub_branch) == branch


@pytest.mark.parametrize("kind, radii, pair", [
    (DiscreteHeisenberg(), [1, 2, 3], None),
    (IntegerLattice(2), [2, 6, 18], None),
    (IntegerLattice(1), [2, 4, 6],
     (lambda el: 2.0 * 2.0 ** el[0] - 2.0 ** (-el[0]),
      lambda el: (2.0 ** el[0] + 2.0 ** (-el[0])) / 2.0)),
], ids=["H3-noise", "Z2-noise", "Z1-mixture"])
def test_scan_on_a_built_ball_matches_the_kind_form(monkeypatch, kind, radii,
                                                    pair):
    f, g = pair or [bounded_noise_candidate(kind, radii[-1], seed=seed,
                                            epsilon=0.02) for seed in (41, 42)]
    want = theorem37_case_scan(kind, radii, f, g)
    ball = BallDomain(kind, radii[-1])
    fv, gv = (np.array([p(el) for el in ball.elements]) for p in (f, g))

    def no_build(*args):
        raise AssertionError("the ball form builds no ball")

    monkeypatch.setattr(stability, "BallDomain", no_build)
    assert theorem37_case_scan(ball, radii, fv, gv) == want


def test_growth_experiments_build_only_the_largest_ball(monkeypatch):
    built = []

    def counting(kind, radius):
        built.append(radius)
        return BallDomain(kind, radius)

    monkeypatch.setattr(stability, "BallDomain", counting)
    kind = IntegerLattice(2)
    f = bounded_noise_candidate(kind, 4, seed=3, epsilon=0.01)
    dichotomy_experiment(kind, [4, 1, 2], f)
    theorem37_case_scan(kind, [2, 4, 3], f, f)
    assert built == [4, 4]


@pytest.mark.parametrize("kind", GROWTH_KINDS, ids=lambda kind: kind.name)
@pytest.mark.parametrize("with_g, kwargs", [
    (False, {}), (True, {}),
    (True, {"sigma_spec": "inv"}), (True, {"sigma_spec": "id"})],
    ids=["cauchy", "cauchy-g", "wilson-inv", "wilson-id"])
def test_dichotomy_on_a_built_ball_matches_the_kind_form(monkeypatch, kind,
                                                         with_g, kwargs):
    f = bounded_noise_candidate(kind, 3, seed=31, epsilon=0.02)
    g = bounded_noise_candidate(kind, 3, seed=32, epsilon=0.02) if with_g \
        else None
    want = dichotomy_experiment(kind, [1, 3, 2], f, g, **kwargs)
    ball = BallDomain(kind, 3)
    fv = np.array([f(el) for el in ball.elements])
    gv = np.array([g(el) for el in ball.elements]) if with_g else None

    def no_build(*args):
        raise AssertionError("the ball form builds no ball")

    monkeypatch.setattr(stability, "BallDomain", no_build)
    got = dichotomy_experiment(ball, [2, 1, 3], fv, gv, **kwargs)
    assert got == want
    assert [row.radius for row in got.growth_rows] == [1, 2, 3]
