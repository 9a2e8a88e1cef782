"""End-to-end CLI behavior: subcommands, config files, exit codes, output
determinism. Everything runs in-process through main(argv)."""

import functools

import numpy as np
import pytest

from feqlab import cli, groups, morphisms, solver, stability
from feqlab.cli import (
    EXIT_AMBIGUOUS,
    EXIT_BADCONFIG,
    EXIT_MISMATCH,
    EXIT_OK,
    main,
)
from feqlab.feq import GroupFunction, read_function, write_function
from feqlab.groups import BALL_ELEMENT_CAP, GROUP_ORDER_CAP, build_catalog_group
from feqlab.morphisms import enumerate_characters, inversion_involution, \
    trivial_character
from feqlab.families import SolutionPair, canned_half_trace
from feqlab.solver import candidate_gs, completeness_check, solve_f_given_g
from feqlab.stability import PerturbationConfig, perturb
from morphism_oracle import write_character


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_lists_groups_and_ball_domains(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == EXIT_OK
    for name in ("Z1", "Z8", "Z2xZ2", "Z2xZ4", "S3", "S4", "D4", "Q8"):
        assert name in out
    assert "lattice:<d>" in out and "heisenberg" in out


def test_catalog_morphism_and_character_counts(capsys):
    code, out, _ = run(capsys, "catalog", "--group", "S3", "--morphisms")
    assert code == EXIT_OK
    assert "involutive automorphisms 4" in out
    assert "involutive anti-automorphisms 4" in out

    code, out, _ = run(capsys, "catalog", "--group", "Q8", "--characters")
    assert code == EXIT_OK
    assert "characters 4" in out
    assert out.count("chi:") == 4


def test_catalog_unknown_group_is_a_config_error(capsys):
    # a malformed factor of a product spec is reported with the whole spec
    for spec in ("E8", "x", "ZxZ"):
        code, out, err = run(capsys, "catalog", "--group", spec)
        assert code == EXIT_BADCONFIG
        assert out == ""
        assert err == f"error: unknown group spec {spec!r}\n"


def test_solve_passes_on_z4_with_inversion(capsys):
    code, out, _ = run(capsys, "solve", "--group", "Z4", "--sigma", "inv",
                       "--chi", "1")
    assert code == EXIT_OK
    assert "PASS" in out


def test_solve_passes_on_s3_with_identity(capsys):
    code, out, _ = run(capsys, "solve", "--group", "S3", "--sigma", "id",
                       "--chi", "0")
    assert code == EXIT_OK
    assert "PASS" in out


def test_solve_rejects_incompatible_chi_with_witness(capsys):
    code, _, err = run(capsys, "solve", "--group", "Z4", "--sigma", "id",
                       "--chi", "1")
    assert code == EXIT_BADCONFIG
    assert "incompatible" in err
    assert "at element 1" in err


def test_solve_rejects_anti_automorphism_sigma(capsys):
    code, _, err = run(capsys, "solve", "--group", "Q8", "--sigma", "inv")
    assert code == EXIT_BADCONFIG
    assert "automorphism" in err


def test_solve_writes_solution_files(capsys, tmp_path):
    out_dir = tmp_path / "sols"
    code, _, _ = run(capsys, "solve", "--group", "Z4", "--sigma", "inv",
                     "--chi", "0", "--out-dir", str(out_dir))
    assert code == EXIT_OK
    assert (out_dir / "completeness.txt").exists()
    g_files = sorted(out_dir.glob("g_*.txt"))
    assert len(g_files) == 4
    f_files = sorted(out_dir.glob("f_*.txt"))
    assert len(f_files) == 4  # one basis vector per nonzero-g entry here
    Z4 = build_catalog_group("Z4")
    g0 = read_function(Z4, g_files[0])
    assert np.all(g0.values == 0)  # m = 0 candidate comes first


def test_solve_out_dir_reuses_the_completeness_bases(capsys, tmp_path,
                                                     monkeypatch):
    G = build_catalog_group("Z2xZ4")
    sigma = inversion_involution(G)
    chi = enumerate_characters(G)[0]
    # the files as written by solving every candidate afresh
    want = {"completeness.txt":
            completeness_check(G, sigma, chi, tol=1e-9).table().encode()}
    for k, (_, g, _ms) in enumerate(candidate_gs(G, sigma, chi)):
        write_function(g, tmp_path / "g.txt")
        want[f"g_{k:03d}.txt"] = (tmp_path / "g.txt").read_bytes()
        for j, b in enumerate(solve_f_given_g(G, sigma, chi, g).basis):
            write_function(b, tmp_path / "f.txt")
            want[f"f_{k:03d}_{j:02d}.txt"] = (tmp_path / "f.txt").read_bytes()

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_f_given_g(*args, **kwargs)

    monkeypatch.setattr(solver, "solve_f_given_g", counted)
    monkeypatch.setattr(cli, "solve_f_given_g", counted)
    out_dir = tmp_path / "sols"
    code, _, _ = run(capsys, "solve", "--group", "Z2xZ4", "--sigma", "inv",
                     "--chi", "0", "--out-dir", str(out_dir))
    assert code == EXIT_OK
    # every candidate but g = 0, which forces f = 0 with no solve
    n_candidates = len(candidate_gs(G, sigma, chi))
    assert len(calls) == n_candidates - 1
    assert n_candidates == sum(name.startswith("g_") for name in want)
    got = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert got == want


def test_solve_on_s5_fits_in_memory(capsys):
    # the full SVD would allocate a 14400 x 14400 complex U per candidate
    code, out, _ = run(capsys, "solve", "--group", "S5", "--sigma", "id")
    assert code == EXIT_OK
    assert out.splitlines()[1].startswith("S5 ")


def test_solve_output_is_byte_identical_across_runs(capsys):
    a = run(capsys, "solve", "--group", "Z4", "--sigma", "inv", "--chi", "1")
    b = run(capsys, "solve", "--group", "Z4", "--sigma", "inv", "--chi", "1")
    assert a == b


def test_config_file_supplies_flags(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# completeness run\ngroup = Z4\nsigma = inv\nchi = 1\n")
    code, out, _ = run(capsys, "solve", "--config", str(cfg))
    assert code == EXIT_OK
    direct = run(capsys, "solve", "--group", "Z4", "--sigma", "inv", "--chi", "1")
    assert out == direct[1]


def test_explicit_flags_beat_the_config_file(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("group = Z4\nsigma = inv\nchi = 1\n")
    _, with_flag, _ = run(capsys, "solve", "--config", str(cfg), "--chi", "0")
    _, direct, _ = run(capsys, "solve", "--group", "Z4", "--sigma", "inv",
                       "--chi", "0")
    assert with_flag == direct
    assert "trivial" in with_flag


def test_config_file_with_a_byte_order_mark_supplies_flags(capsys, tmp_path):
    cfg = tmp_path / "bom.cfg"
    cfg.write_text("group = Z4\nsigma = inv\nchi = 1\n", encoding="utf-8-sig")
    code, out, _ = run(capsys, "solve", "--config", str(cfg))
    assert code == EXIT_OK
    assert out == run(capsys, "solve", "--group", "Z4", "--sigma", "inv",
                      "--chi", "1")[1]


def test_unknown_config_key_is_rejected(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("grup = Z4\n")
    code, _, err = run(capsys, "solve", "--config", str(cfg))
    assert code == EXIT_BADCONFIG
    assert "grup" in err


def test_config_file_turns_on_off_flags(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("group = S3\nmorphisms = true\ncharacters = false\n")
    code, out, _ = run(capsys, "catalog", "--config", str(cfg))
    assert code == EXIT_OK
    assert out == run(capsys, "catalog", "--group", "S3", "--morphisms")[1]
    # a flag passed on the command line stays on
    cfg.write_text("group = S3\nmorphisms = false\n")
    _, out, _ = run(capsys, "catalog", "--config", str(cfg), "--morphisms")
    assert "involutive automorphisms 4" in out


@pytest.mark.parametrize("argv, text, message", [
    (["catalog"], "group = S3\nmorphisms = yes\n", "true or false"),
    (["catalog"], "group = S3\ncharacters =\n", "true or false"),
    (["solve"], "group = Z4\nfunc = x\n", "unknown config key 'func'"),
    (["solve"], "group = Z4\ncommand = catalog\n",
     "unknown config key 'command'"),
    (["solve"], "group = Z4\nconfig = other.cfg\n",
     "unknown config key 'config'"),
], ids=["bad-bool", "empty-bool", "func", "command", "config"])
def test_config_keys_that_set_no_flag_are_rejected(capsys, tmp_path, argv,
                                                    text, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert code == EXIT_BADCONFIG
    assert out == ""
    assert message in err

def test_malformed_config_line_is_rejected(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("group Z4\n")
    code, _, err = run(capsys, "solve", "--config", str(cfg))
    assert code == EXIT_BADCONFIG
    assert "key = value" in err


def test_missing_config_file_is_rejected(capsys, tmp_path):
    code, _, err = run(capsys, "solve", "--config", str(tmp_path / "nope.cfg"))
    assert code == EXIT_BADCONFIG


def test_config_file_that_is_not_utf8_is_rejected(capsys, tmp_path):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"\xffgroup = Z4\n")
    code, out, err = run(capsys, "solve", "--config", str(cfg))
    assert code == EXIT_BADCONFIG
    assert out == ""
    assert "cannot read config file: 'utf-8' codec can't decode" in err


def test_unknown_subcommand_exits_with_config_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == EXIT_BADCONFIG


def test_chi_index_out_of_range(capsys):
    code, _, err = run(capsys, "solve", "--group", "Z4", "--sigma", "inv",
                       "--chi", "7")
    assert code == EXIT_BADCONFIG
    assert "out of range" in err


def test_chi_file_round_trips_through_solve(capsys, tmp_path):
    Z4 = build_catalog_group("Z4")
    path = tmp_path / "chi.txt"
    write_character(enumerate_characters(Z4)[1], path)
    code, out, _ = run(capsys, "solve", "--group", "Z4", "--sigma", "inv",
                       "--chi-file", str(path))
    assert code == EXIT_OK
    assert "PASS" in out


@pytest.mark.parametrize("chi_from", ["flag", "config"])
def test_chi_and_chi_file_together_are_refused(capsys, tmp_path, chi_from):
    Z4 = build_catalog_group("Z4")
    path = tmp_path / "chi.txt"
    write_character(enumerate_characters(Z4)[1], path)
    argv = ["solve", "--group", "Z4", "--sigma", "inv", "--chi-file", str(path)]
    if chi_from == "flag":
        argv += ["--chi", "3"]
    else:
        cfg = tmp_path / "solve.cfg"
        cfg.write_text("chi = 3\n")
        argv += ["--config", str(cfg)]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_BADCONFIG
    assert out == ""
    assert "--chi and --chi-file both name the character; pass one" in err


def test_audit_passes_on_q8_and_names_the_half_trace(capsys):
    code, out, _ = run(capsys, "audit", "--group", "Q8", "--sigma", "inv",
                       "--chi", "0")
    assert code == EXIT_OK
    assert "half-trace:f0" in out
    assert "FAIL" not in out


def test_audit_with_explicit_function_files(capsys, tmp_path):
    Q8 = build_catalog_group("Q8")
    g = canned_half_trace(Q8)
    f = solve_f_given_g(Q8, inversion_involution(Q8),
                        trivial_character(Q8), g).basis[0]
    f_path, g_path = tmp_path / "f.txt", tmp_path / "g.txt"
    write_function(f, f_path)
    write_function(g, g_path)
    code, out, _ = run(capsys, "audit", "--group", "Q8", "--sigma", "inv",
                       "--chi", "0", "--f", str(f_path), "--g", str(g_path))
    assert code == EXIT_OK
    assert "pair file: PASS" in out


def test_audit_requires_both_function_files(capsys, tmp_path):
    f_path = tmp_path / "f.txt"
    write_function(GroupFunction.zero(build_catalog_group("Q8")), f_path)
    code, _, err = run(capsys, "audit", "--group", "Q8", "--sigma", "inv",
                       "--chi", "0", "--f", str(f_path))
    assert code == EXIT_BADCONFIG
    assert "together" in err


def test_audit_fails_on_a_non_solution_pair(capsys, tmp_path):
    Q8 = build_catalog_group("Q8")
    g = canned_half_trace(Q8)
    bad = GroupFunction(Q8, g.values + 0.1)
    f_path, g_path = tmp_path / "f.txt", tmp_path / "g.txt"
    write_function(bad, f_path)
    write_function(bad, g_path)
    code, out, _ = run(capsys, "audit", "--group", "Q8", "--sigma", "inv",
                       "--chi", "0", "--f", str(f_path), "--g", str(g_path))
    assert code == EXIT_MISMATCH
    assert "FAIL" in out


def test_audit_zero_f_is_not_applicable(capsys, tmp_path):
    Q8 = build_catalog_group("Q8")
    f_path, g_path = tmp_path / "f.txt", tmp_path / "g.txt"
    write_function(GroupFunction.zero(Q8), f_path)
    write_function(canned_half_trace(Q8), g_path)
    code, _, err = run(capsys, "audit", "--group", "Q8", "--sigma", "inv",
                       "--chi", "0", "--f", str(f_path), "--g", str(g_path))
    assert code == EXIT_BADCONFIG
    assert "not applicable" in err


def test_audit_writes_the_report_file(capsys, tmp_path):
    out_path = tmp_path / "report.txt"
    code, out, _ = run(capsys, "audit", "--group", "Q8", "--sigma", "inv",
                       "--chi", "0", "--out", str(out_path))
    assert code == EXIT_OK
    assert out_path.read_text() == out


def test_perturb_on_a_finite_group(capsys):
    code, out, _ = run(capsys, "perturb", "--group", "Z4", "--sigma", "inv",
                       "--chi", "1", "--epsilon", "0.01")
    assert code == EXIT_OK
    assert out.startswith("measured_delta ")
    again = run(capsys, "perturb", "--group", "Z4", "--sigma", "inv",
                "--chi", "1", "--epsilon", "0.01")
    assert again[1] == out  # default seed is fixed


def test_perturb_solves_only_the_first_exact_pair(capsys, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_f_given_g(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_f_given_g", counted)
    code, out, _ = run(capsys, "perturb", "--group", "Z2xZ4", "--sigma", "inv",
                       "--chi", "0", "--epsilon", "1e-2")
    assert code == EXIT_OK
    # the stdout recorded when all 7 candidate g's were solved
    assert out == "measured_delta 0.038503536164702493\n"
    assert len(calls) == 1


def test_perturb_on_a_lattice_ball_writes_files(capsys, tmp_path):
    prefix = str(tmp_path / "run")
    code, out, _ = run(capsys, "perturb", "--domain", "lattice:2",
                       "--radius", "3", "--epsilon", "0.001",
                       "--out-prefix", prefix)
    assert code == EXIT_OK
    assert (tmp_path / "run_f.txt").exists()
    assert (tmp_path / "run_g.txt").exists()
    delta = float(out.split()[1])
    assert 0 < delta < 0.02


def test_perturb_requires_epsilon(capsys):
    code, _, err = run(capsys, "perturb", "--group", "Z4", "--sigma", "inv")
    assert code == EXIT_BADCONFIG
    assert "epsilon" in err


PERTURB_Z4 = ("perturb", "--group", "Z4", "--sigma", "inv", "--epsilon", "0.01")
STABILITY_Z2 = ("stability", "--domain", "lattice:2", "--radii", "2",
                "--epsilon", "0.01")


@pytest.mark.parametrize("argv, message", [
    (PERTURB_Z4 + ("--shape", "nope"), "unknown shape 'nope'"),
    (PERTURB_Z4 + ("--target", "x"), "unknown target 'x'"),
    (PERTURB_Z4 + ("--epsilon", "-1"), "epsilon must be finite and >= 0"),
    (PERTURB_Z4 + ("--epsilon", "nan"), "epsilon must be finite and >= 0"),
    (PERTURB_Z4 + ("--seed", "-1"), "seed must be >= 0"),
    (PERTURB_Z4 + ("--shape", "single-point", "--point", "99"), "0..3"),
    (STABILITY_Z2 + ("--point", "999"), "0..12"),
    (STABILITY_Z2 + ("--shape", "single-point", "--point", "-1"), "0..12"),
    # f g past the float range overflows the measured residual; at 1e100 the
    # residual is finite and the parity audit's bound |m_g(y)| delta
    # overflows (it printed nan), and with g alone perturbed the residual
    # stays finite while the centrality bound's |g(y)| delta overflows
    (STABILITY_Z2 + ("--epsilon", "1e160"), "leaves the float range"),
    (STABILITY_Z2 + ("--epsilon", "1e100"), "leaves the float range"),
    (STABILITY_Z2 + ("--epsilon", "1e160", "--target", "g"),
     "leaves the float range"),
    (PERTURB_Z4 + ("--epsilon", "1e200"), "leaves the float range"),
], ids=["shape", "target", "negative-epsilon", "nan-epsilon", "negative-seed",
        "point-past-the-group", "point-past-the-ball", "negative-point",
        "overflowing-residual", "overflowing-parity-bound",
        "overflowing-centrality-bound", "overflowing-group-residual"])
def test_bad_perturbation_flags_are_config_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_BADCONFIG
    assert out == ""
    assert message in err and "Traceback" not in err


def test_perturb_passes_shape_target_and_point_to_the_library(capsys):
    code, out, _ = run(capsys, *PERTURB_Z4, "--shape", "single-point",
                       "--target", "g", "--point", "2")
    assert code == EXIT_OK
    Z4 = build_catalog_group("Z4")
    sigma, chi = inversion_involution(Z4), enumerate_characters(Z4)[0]
    _, f, g = next(cli._exact_pairs_for_audit(Z4, sigma, chi))
    pair = SolutionPair(f, g, "External", sigma=sigma, chi=chi)
    config = PerturbationConfig(epsilon=0.01, seed=42, shape="single-point",
                                target="g", point=2)
    delta = perturb(pair, config).measured_delta
    assert out == f"measured_delta {delta:.17g}\n"
    default = PerturbationConfig(epsilon=0.01, seed=42)
    assert delta != perturb(pair, default).measured_delta


def test_stability_run_passes_and_emits_csv(capsys):
    code, out, _ = run(capsys, "stability", "--domain", "lattice:2",
                       "--radii", "1,2,3", "--epsilon", "0.01")
    assert code == EXIT_OK
    assert "measured_delta " in out
    assert "radius,sup_f,sup_g,delta,dist_to_family,branch_label" in out
    assert "N/A" not in out  # sigma = inv is a homomorphism on the lattice


def test_stability_output_is_byte_identical(capsys, tmp_path):
    argv = ("stability", "--domain", "lattice:2", "--radii", "1,2,3",
            "--epsilon", "0.01", "--seed", "5")
    a = run(capsys, *argv)
    b = run(capsys, *argv)
    assert a == b
    csv_path = tmp_path / "out.csv"
    code, _, _ = run(capsys, *argv, "--csv-out", str(csv_path))
    assert code == EXIT_OK
    first = csv_path.read_bytes()
    run(capsys, *argv, "--csv-out", str(csv_path))
    assert csv_path.read_bytes() == first


@pytest.mark.parametrize("domain, radii", [
    ("lattice:2", "4,8,12"), ("heisenberg", "1,2,3"), ("free:2", "1,2,3")])
def test_stability_builds_one_ball_for_the_audits_and_the_growth_rows(
        capsys, monkeypatch, domain, radii):
    built, handed = [], []

    def counting(*args):
        built.append(groups.BallDomain(*args))
        return built[-1]

    def recording(space, radii, f_values, g_values, **kwargs):
        handed.append((space, f_values, g_values))
        return dichotomy(space, radii, f_values, g_values, **kwargs)

    dichotomy = cli.dichotomy_experiment
    monkeypatch.setattr(cli, "BallDomain", counting)
    monkeypatch.setattr(stability, "BallDomain", counting)
    monkeypatch.setattr(cli, "dichotomy_experiment", recording)
    code, _, _ = run(capsys, "stability", "--domain", domain, "--radii", radii)
    assert code == EXIT_OK
    assert [ball.radius for ball in built] == [int(radii.split(",")[-1])]
    [(space, f_values, g_values)] = handed
    assert space is built[0]
    assert f_values.shape == g_values.shape == (space.n,)


CENTRALITY_NA = ("centrality_defect - - - - - "
                 "N/A[sigma is not an anti-homomorphism on this domain]")


@pytest.mark.parametrize("domain, radii", [
    ("heisenberg", "1,2,3"), ("free:2", "1,2"), ("lattice:2", "1,2,3")])
def test_stability_runs_centrality_only_under_an_anti_automorphism(
        capsys, domain, radii):
    # inversion is an anti-automorphism of every group, the identity only
    # of an abelian one (a lattice)
    for sigma in ("id", "inv"):
        code, out, _ = run(capsys, "stability", "--domain", domain,
                           "--radii", radii, "--sigma", sigma)
        assert code == EXIT_OK
        rows = [line for line in out.splitlines()
                if line.startswith("centrality_defect")]
        if sigma == "id" and domain != "lattice:2":
            assert rows == [CENTRALITY_NA]
        else:
            assert len(rows) == 1 and rows[0].endswith(" PASS")
            assert rows[0].startswith("centrality_defect [2|g(z)|d")


def test_stability_rejects_non_unitary_chi(capsys):
    code, _, err = run(capsys, "stability", "--domain", "lattice:1",
                       "--radii", "2,4", "--chi-z", "2", "--epsilon", "0.01")
    assert code == EXIT_BADCONFIG
    assert "unitary" in err


def test_stability_rejects_bad_radii(capsys):
    code, _, err = run(capsys, "stability", "--domain", "lattice:2",
                       "--radii", "0,2", "--epsilon", "0.01")
    assert code == EXIT_BADCONFIG
    assert "radii" in err
    code, _, _ = run(capsys, "stability", "--domain", "lattice:2",
                     "--radii", "a,b", "--epsilon", "0.01")
    assert code == EXIT_BADCONFIG


@pytest.mark.parametrize("a", ["-2", "13"])
def test_stability_rejects_a_base_point_outside_the_ball(capsys, a):
    code, out, err = run(capsys, "stability", "--domain", "lattice:2",
                         "--radii", "2", "--a", a, "--epsilon", "0.01")
    assert code == EXIT_BADCONFIG
    assert out == "" and "0..12" in err


def test_stability_unknown_domain(capsys):
    code, _, err = run(capsys, "stability", "--domain", "tree:3",
                       "--epsilon", "0.01")
    assert code == EXIT_BADCONFIG
    assert "tree:3" in err


@pytest.mark.parametrize("argv, message", [
    (("perturb", "--domain", "lattice:2", "--radius", "-1", "--epsilon", "1e-2"),
     "--radius must be >= 0"),
    (("perturb", "--domain", "lattice:0", "--epsilon", "1e-2"),
     "dimension must be >= 1"),
    (("stability", "--domain", "free:0"), "rank must be >= 1"),
    (("stability", "--domain", "lattice:x"), "bad ball domain 'lattice:x'"),
    (("perturb", "--group", "S3", "--sigma", "auto:x", "--epsilon", "1e-2"),
     "bad sigma selector 'auto:x'"),
    (("solve", "--group", "S3", "--sigma", "anti:x"),
     "bad sigma selector 'anti:x'"),
    (("stability", "--domain", "lattice:2", "--sigma", "conj"),
     "unknown ball involution 'conj'"),
    (("stability", "--domain", "lattice:1", "--radii", "2", "--chi-z", "0"),
     "character base values must be nonzero"),
    (("perturb", "--domain", "lattice:1", "--radius", "3", "--chi-z", "inf",
      "--epsilon", "1e-2"), "--chi-z values must be finite"),
    (("perturb", "--domain", "lattice:1", "--radius", "3", "--chi-z", "nan",
      "--epsilon", "1e-2"), "--chi-z values must be finite"),
    (("perturb", "--domain", "lattice:1", "--radius", "3", "--chi-z", "1e300",
      "--epsilon", "1e-2"), "--chi-z values overflow on the ball of radius 3"),
    (("perturb", "--domain", "lattice:1", "--radius", "3", "--chi", "2",
      "--epsilon", "0.01"), "--chi does not apply to a ball domain"),
    (("perturb", "--domain", "lattice:1", "--radius", "3", "--group", "Z4",
      "--epsilon", "0.01"), "--group does not apply to a ball domain"),
    (("perturb", "--domain", "heisenberg", "--chi-file", "chi.txt",
      "--epsilon", "0.01"), "--chi-file does not apply to a ball domain"),
    (("perturb", "--group", "Z4", "--epsilon", "0.01", "--radius", "3",
      "--chi-z", "2"), "--radius does not apply to a finite group"),
    (("perturb", "--domain", "Z4", "--chi-z", "2", "--epsilon", "0.01"),
     "--chi-z does not apply to a finite group"),
    (("perturb", "--group", "Z4", "--domain", "S3", "--epsilon", "0.01"),
     "--group Z4 and --domain S3 both name the domain"),
], ids=["negative-radius", "lattice-dimension-0", "free-rank-0",
        "lattice-dimension-x", "auto-index-x", "anti-index-x", "ball-sigma",
        "zero-chi-base", "inf-chi-base", "nan-chi-base", "overflowing-chi-base",
        "chi-on-a-ball", "group-on-a-ball", "chi-file-on-a-ball",
        "radius-on-a-group", "chi-z-on-a-group", "group-and-domain"])
def test_bad_ball_and_sigma_specs_are_config_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_BADCONFIG
    assert out == ""
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("stability", "--domain", "lattice:2", "--radii", "300"),
    ("perturb", "--domain", "free:2", "--radius", "40", "--epsilon", "0.01"),
])
def test_over_budget_ball_exits_with_the_estimate(capsys, argv):
    # the BFS stops at the element cap, before any table is allocated
    code, out, err = run(capsys, *argv)
    assert code == EXIT_BADCONFIG
    assert out == ""
    assert f"element cap {BALL_ELEMENT_CAP}" in err
    assert "MiB" in err and "Traceback" not in err


@pytest.mark.parametrize("cap, radii", [(BALL_ELEMENT_CAP, [2, 4]), (10, [1])])
def test_default_radii_past_the_element_cap_are_dropped(capsys, monkeypatch,
                                                        cap, radii):
    # free:3 holds 4,687 elements at radius 5 and 31 at radius 2
    monkeypatch.setattr(groups, "BALL_ELEMENT_CAP", cap)
    code, out, _ = run(capsys, "stability", "--domain", "free:3")
    assert code == EXIT_OK
    growth = out.split("\nradius,sup_f,")[1].splitlines()[1:]
    assert [int(row.split(",")[0]) for row in growth] == radii
    code, out, err = run(capsys, "stability", "--domain", "free:3",
                         "--radii", "2,4,6,8")
    assert code == EXIT_BADCONFIG
    assert out == "" and f"element cap {cap}" in err


def test_over_budget_auxiliary_table_exits_with_the_estimate(capsys,
                                                             monkeypatch):
    # lattice:2 r=8 (145 elements) multiplies on the radius-12 auxiliary
    # ball; a 4 KiB budget already refuses the 145 elements at radius 8
    monkeypatch.setattr(groups, "BALL_AUX_BYTES", 4096)
    code, out, err = run(capsys, "stability", "--domain", "lattice:2",
                         "--radii", "2,8")
    assert code == EXIT_BADCONFIG
    assert out == ""
    assert "auxiliary budget" in err and "radius-8 ball (145 elements)" in err
    assert "MiB" in err and "Traceback" not in err


def test_over_budget_audit_exits_with_the_estimate(capsys, monkeypatch):
    # the centrality pair masks of lattice:2 r=8 leave 345,329 candidate
    # windows; the budget is checked before any of them is gathered
    monkeypatch.setattr(stability, "AUDIT_WINDOW_BUDGET", 100_000)
    code, out, err = run(capsys, "stability", "--domain", "lattice:2",
                         "--radii", "2,8")
    assert code == EXIT_BADCONFIG
    assert out == ""
    assert "centrality_defect audit on 145 elements" in err
    assert "345329 candidate windows" in err and "budget 100000" in err
    assert "Traceback" not in err


def test_over_budget_morphism_search_exits_with_the_estimate(capsys,
                                                             monkeypatch):
    # S4's involution search would assign 9 candidates to each of its three
    # generators; the budget is checked before any of them is tried
    monkeypatch.setattr(morphisms, "MORPHISM_SEARCH_BUDGET", 700)
    code, out, err = run(capsys, "solve", "--group", "S4", "--sigma",
                         "auto:1", "--chi", "0")
    assert code == EXIT_BADCONFIG
    assert out == ""
    assert "morphism search on S4 would try 729 generator assignments" in err
    assert "budget 700" in err and "Traceback" not in err


def test_z2_to_the_fifth_morphisms_exit_with_the_estimate(capsys):
    code, out, err = run(capsys, "catalog", "--group", "Z2xZ2xZ2xZ2xZ2",
                         "--morphisms")
    assert code == EXIT_BADCONFIG
    assert out == "group Z2xZ2xZ2xZ2xZ2 order 32\n"
    assert "would try 28629151 generator assignments" in err
    assert "Traceback" not in err


def test_over_cap_group_exits_with_the_estimate(capsys):
    # the order is checked before the group's table is allocated
    code, out, err = run(capsys, "catalog", "--group", "Z1000")
    assert code == EXIT_BADCONFIG
    assert out == ""
    assert f"order cap {GROUP_ORDER_CAP}" in err
    assert "MiB" in err and "Traceback" not in err


@pytest.mark.parametrize("spec, order", [("Z2xZ4", 8), ("S4", 24)])
def test_group_over_a_lowered_cap_exits_with_the_estimate(capsys, monkeypatch,
                                                          spec, order):
    # the direct-product path and the factorial path of the order cap
    monkeypatch.setattr(groups, "GROUP_ORDER_CAP", 7)
    code, out, err = run(capsys, "catalog", "--group", spec)
    assert code == EXIT_BADCONFIG
    assert out == ""
    assert f"group {spec} of order {order} exceeds the order cap 7" in err
    mib = f"{16 * order ** 3 / 2**20:.6g}"
    assert f"complex128 system of {mib} MiB" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, group", [
    (("solve", "--group", "S3", "--sigma", "auto:1"), "S3"),
    (("audit", "--group", "S3", "--sigma", "anti:1"), "S3"),
    (("catalog", "--group", "S5", "--morphisms", "--characters"), "S5"),
], ids=["solve", "audit", "catalog"])
def test_each_call_walks_its_group_once(capsys, monkeypatch, argv, group):
    # the table check and every morphism search read one cached walk
    walked = []
    walk = groups.Domain.edge_levels.func

    def counted(G):
        walked.append(G.name)
        return walk(G)

    prop = functools.cached_property(counted)
    prop.__set_name__(groups.Domain, "edge_levels")
    monkeypatch.setattr(groups.Domain, "edge_levels", prop)
    code, _, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert walked == [group]


@pytest.mark.parametrize("argv", [
    ("solve", "--group", "Z2xZ4", "--sigma", "inv"),
    ("audit", "--group", "S3", "--sigma", "inv"),
], ids=["solve", "audit"])
def test_each_call_searches_the_characters_once(capsys, monkeypatch, argv):
    # the chi selector and the candidate g's read one cached search; id and
    # inv need no involution search, so each generator-image search counted
    # here is a character search
    searched = []
    search = morphisms._morphisms

    def counted(G, *rest):
        searched.append(G.name)
        return search(G, *rest)

    monkeypatch.setattr(morphisms, "_morphisms", counted)
    code, _, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert searched == [argv[2]]


@pytest.mark.parametrize("argv, message", [
    (("solve", "--group", "Z2", "--out-dir", "{file}"), "File exists"),
    (("audit", "--group", "S3", "--sigma", "inv", "--out", "{missing}/x.txt"),
     "No such file or directory"),
    (("stability", "--domain", "lattice:1", "--radii", "2",
      "--csv-out", "{missing}/x.csv"), "No such file or directory"),
    (("perturb", "--group", "Z4", "--epsilon", "0.01",
      "--out-prefix", "{missing}/p"), "No such file or directory"),
], ids=["solve-out-dir-is-a-file", "audit-out-in-missing-dir",
        "stability-csv-in-missing-dir", "perturb-prefix-in-missing-dir"])
def test_unwritable_outputs_are_config_errors(capsys, tmp_path, argv, message):
    # stdout may already hold the report; the exit code must still say 4
    file = tmp_path / "file.txt"
    file.write_text("")
    paths = {"file": str(file), "missing": str(tmp_path / "missing")}
    code, _, err = run(capsys, *(a.format(**paths) for a in argv))
    assert code == EXIT_BADCONFIG
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("solve", "--group", "Z4", "--tol", "nan"),
    ("solve", "--group", "Z4", "--tol", "-1"),
    ("solve", "--group", "Z4", "--tol", "inf"),
    ("audit", "--group", "S3", "--sigma", "inv", "--tol", "nan"),
    ("audit", "--group", "S3", "--sigma", "inv", "--tol", "inf"),
], ids=["solve-nan", "solve-negative", "solve-inf", "audit-nan", "audit-inf"])
def test_a_tolerance_that_is_not_finite_and_non_negative_is_refused(capsys,
                                                                    argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_BADCONFIG
    assert out == ""
    assert "--tol must be finite and >= 0" in err and "Traceback" not in err


def test_tol_is_a_solve_and_audit_flag_only(capsys):
    for sub in ("solve", "audit"):
        code, _, _ = run(capsys, sub, "--group", "Z2", "--tol", "1e-9")
        assert code == EXIT_OK
    with pytest.raises(SystemExit) as exc:
        main([*PERTURB_Z4, "--tol", "1e-9"])
    assert exc.value.code == EXIT_BADCONFIG


def test_exit_codes_are_distinct():
    assert len({EXIT_OK, EXIT_MISMATCH, EXIT_AMBIGUOUS, EXIT_BADCONFIG}) == 4
