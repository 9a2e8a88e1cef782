"""The feqlab benchmark workloads, each a list of cases made from a seed.

A case is one call into feqlab with its inputs fixed, plus the check of its
result. A case id spells out every input of the call, so a digest stored
for an id applies to any run that makes that case, whatever its seed.

Why each workload exists (the layer it loads, and the one it bypasses):

* catalog-solve: ``feqlab solve`` on every (sigma, chi) combo of the
  catalog, one n = 32 system and the exact-pair audits, all through the
  in-process CLI. The nullspace SVD dominates; the 185 small calls measure
  per-call overhead. The Newton search is never reached.
* newton-search: the formula-free Newton search on the 53 combos of groups
  of order <= 6, checked by set equality against the closed form. The only
  workload that runs the Newton layer; it runs no SVD nullspace.
* ball-audit: ``feqlab stability`` on lattice, Heisenberg and free-group
  balls. The n^3 inequality audits dominate time and memory; the ball
  build is a small share.
* ball-growth: the dichotomy experiment and the branch scan on growing
  balls. The n^2 ball table build dominates; no audit runs.
"""

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass

import numpy as np

from feqlab import cli, solver, stability
from feqlab.feq import GroupFunction
from feqlab.groups import (CATALOG_NAMES, DiscreteHeisenberg, FreeGroup,
                           IntegerLattice, build_catalog_group)
from feqlab.morphisms import (compatible_characters, enumerate_characters,
                              enumerate_involutions, enumerate_multiplicative,
                              inversion_involution)

DEFAULT_SEED = 0
NEWTON_STARTS = 200


class CheckFailed(Exception):
    """A case returned a wrong exit code, verdict or output."""


@dataclass
class Outcome:
    code: object        # exit code, or "exception"
    text: str           # stdout of a CLI call, or the rendered result
    value: object = None


@dataclass
class Case:
    id: str
    run: object         # () -> Outcome; the timed program call
    check: object       # Outcome -> None; raises CheckFailed
    argv: list = None   # CLI arguments when the case is a cli.main call


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def _num(v):
    if isinstance(v, (list, tuple)):
        return " ".join(_num(x) for x in v)
    if isinstance(v, (complex, np.complexfloating)):
        return f"{v.real:.17g}{v.imag:+.17g}j"
    if isinstance(v, (float, np.floating)):
        return f"{v:.17g}"
    return str(v)


def _expect(cond, why):
    if not cond:
        raise CheckFailed(why)


def _exit_ok(out):
    _expect(out.code == 0, f"exit code {out.code}")


# --- CLI cases ------------------------------------------------------------


def _cli_case(argv, check):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            # looked up at call time, so a traced pass calls the wrapper
            code = cli.main(argv)
        return Outcome(code, buf.getvalue())
    return Case(" ".join(argv), run, check, argv)


def _check_solve(out):
    _exit_ok(out)
    lines = out.text.splitlines()
    _expect(len(lines) >= 2 and lines[1].split()[-1:] == ["PASS"],
            "completeness verdict is not PASS")
    _expect("AMBIGUOUS" not in out.text, "a row is flagged AMBIGUOUS")


def _check_audit(out):
    _exit_ok(out)
    verdicts = [line for line in out.text.splitlines()
                if line.startswith("pair ")]
    _expect(verdicts, "no audited pair")
    _expect(all(line.endswith(": PASS") for line in verdicts),
            "an audited pair does not PASS")


def _solve_argvs(names):
    for name in names:
        G = build_catalog_group(name)
        chars = enumerate_characters(G)
        for k, sigma in enumerate(enumerate_involutions(G, "automorphism")):
            kept = {id(c) for c in compatible_characters(G, sigma, chars)}
            for ci, chi in enumerate(chars):
                if id(chi) in kept:
                    yield ["solve", "--group", name, "--sigma", f"auto:{k}",
                           "--chi", str(ci)]


def _audit_argvs(names):
    for name in names:
        G = build_catalog_group(name)
        sigma = inversion_involution(G)
        chars = enumerate_characters(G)
        kept = {id(c) for c in compatible_characters(G, sigma, chars)}
        for ci, chi in enumerate(chars):
            if id(chi) in kept:
                yield ["audit", "--group", name, "--sigma", "inv",
                       "--chi", str(ci)]


def catalog_solve(seed, size):
    if size == "full":
        names = CATALOG_NAMES
        large = [["solve", "--group", "Z4xZ8", "--sigma", "inv", "--chi", "0"]]
        audited = ("S3", "D4", "Q8", "S4")
    else:
        names = [n for n in CATALOG_NAMES if build_catalog_group(n).order <= 4]
        large, audited = [], ("S3",)
    cases = [_cli_case(a, _check_solve) for a in [*_solve_argvs(names), *large]]
    cases += [_cli_case(a, _check_audit) for a in _audit_argvs(audited)]
    random.Random(seed).shuffle(cases)
    return cases


def _stability_table(text):
    """(audit rows, csv rows) of `feqlab stability` stdout; N/A rows are
    left out, since an inapplicable audit is reported, not run."""
    lines = text.splitlines()
    _expect(lines and lines[0].startswith("measured_delta "),
            "no measured_delta line")
    _expect(len(lines) > 1 and lines[1].startswith("check "),
            "no audit table")
    csv_at = next((i for i, line in enumerate(lines)
                   if line.startswith("radius,")), None)
    _expect(csv_at is not None, "no growth CSV")
    rows = [line.split() for line in lines[2:csv_at] if "N/A[" not in line]
    return rows, [line.split(",") for line in lines[csv_at + 1:]]


def _check_stability(radii):
    def check(out):
        _exit_ok(out)
        rows, csv = _stability_table(out.text)
        _expect(rows, "no audit rows")
        for tok in rows:
            _expect(tok[-1] == "PASS", f"audit {tok[0]} does not PASS")
            _expect(int(tok[-3]) > 0, f"audit {tok[0]} evaluated no window")
        _expect([int(r[0]) for r in csv] == radii, "growth rows miss a radius")
        _expect(len({r[-1] for r in csv}) == 1, "growth rows disagree on label")
        _expect(csv[0][-1] in ("growing", "bounded", "inconclusive"),
                f"unknown growth label {csv[0][-1]!r}")
    return check


def ball_audit(seed, size):
    if size == "full":
        domains = [("lattice:2", [2, 4, 6, 8]), ("heisenberg", [1, 2, 3, 4]),
                   ("free:2", [1, 2, 3])]
        per_domain = 3
    else:
        domains = [("lattice:2", [2, 4]), ("heisenberg", [1, 2]),
                   ("free:2", [1, 2])]
        per_domain = 1
    cases = []
    for domain, radii in domains:
        for k in range(per_domain):
            argv = ["stability", "--domain", domain,
                    "--radii", ",".join(map(str, radii)),
                    "--seed", str(per_domain * seed + k + 1)]
            cases.append(_cli_case(argv, _check_stability(radii)))
    return cases


# --- API cases ------------------------------------------------------------


def _closed_form_set(G, sigma, chi):
    """The mixed-character solutions (m + chi m o sigma)/2, deduplicated."""
    expected = []
    for m in enumerate_multiplicative(G):
        cand = GroupFunction(G, (m.values + chi.values * m.values[sigma.table]) / 2.0)
        if all(np.abs(cand.values - e.values).max() >= 1e-6 for e in expected):
            expected.append(cand)
    return expected


def _newton_case(name, G, k, sigma, ci, chi, seed):
    def run():
        res = solver.brute_force_dalembert(G, sigma, chi,
                                           n_starts=NEWTON_STARTS, seed=seed)
        lines = [f"starts {res.n_starts} converged {res.n_converged} "
                 f"flagged {res.flagged} solutions {len(res.solutions)}"]
        lines += [_num(list(s.values)) for s in res.solutions]
        return Outcome(0, "\n".join(lines) + "\n", res)

    def check(out):
        _exit_ok(out)
        expected = _closed_form_set(G, sigma, chi)
        _expect(solver.function_sets_equal(out.value.solutions, expected,
                                           tol=1e-6),
                f"found {len(out.value.solutions)} solutions, closed form "
                f"has {len(expected)}")

    return Case(f"newton {name} auto:{k} chi:{ci} starts={NEWTON_STARTS} "
                f"seed={seed}", run, check)


def newton_search(seed, size):
    max_order = 6 if size == "full" else 3
    cases = []
    for name in CATALOG_NAMES:
        G = build_catalog_group(name)
        if G.order > max_order:
            continue
        chars = enumerate_characters(G)
        for k, sigma in enumerate(enumerate_involutions(G, "automorphism")):
            kept = {id(c) for c in compatible_characters(G, sigma, chars)}
            for ci, chi in enumerate(chars):
                if id(chi) in kept:
                    cases.append(_newton_case(name, G, k, sigma, ci, chi, seed))
    return cases


def _dichotomy_case(case_id, kind, radii, make_f, label, exact):
    def run():
        rep = stability.dichotomy_experiment(kind, radii, make_f())
        return Outcome(0, rep.csv(), rep)

    def check(out):
        _exit_ok(out)
        rows = out.value.growth_rows
        _expect([r.radius for r in rows] == radii, "growth rows miss a radius")
        _expect(all(r.branch_label == label for r in rows),
                f"growth label is not {label}")
        if exact:
            _expect(all(r.dist_to_family <= 1e-9 * r.sup_f for r in rows),
                    "exact exponential is off the multiplicative family")

    return Case(case_id, run, check)


def _scan_case(case_id, kind, radii, make_fg, branch):
    def run():
        f, g = make_fg()
        rec = stability.theorem37_case_scan(kind, radii, f, g, sigma_spec="inv")
        lines = [f"branch {rec.branch} {rec.sub_branch}".rstrip()]
        lines += [_num(list(row)) for row in rec.radii_table]
        lines += [f"{k} {_num(rec.details[k])}" for k in sorted(rec.details)]
        return Outcome(0, "\n".join(lines) + "\n", rec)

    def check(out):
        _exit_ok(out)
        _expect(out.value.branch == branch,
                f"branch {out.value.branch!r}, expected {branch!r}")

    return Case(case_id, run, check)


def _noise(kind, radius, seed, eps):
    return stability.bounded_noise_candidate(kind, radius, seed=seed, epsilon=eps)


def ball_growth(seed, size):
    rng = np.random.default_rng(seed)
    full = size == "full"
    z2, z1 = IntegerLattice(2), IntegerLattice(1)
    cases = []

    noise_radii = [6, 12, 18] if full else [2, 4, 6]
    nseed, eps = int(rng.integers(2**31)), float(rng.uniform(0.005, 0.02))
    cases.append(_dichotomy_case(
        f"dichotomy Z^2 r={noise_radii} noise seed={nseed} eps={eps!r}", z2,
        noise_radii, lambda: _noise(z2, noise_radii[-1], nseed, eps),
        "bounded", False))

    base = float(rng.uniform(1.6, 3.0))
    cases.append(_dichotomy_case(
        f"dichotomy Z^1 r=[4, 8, 12, 16] exp base={base!r}", z1,
        [4, 8, 12, 16],
        lambda: (lambda el: base ** el[0]), "growing", True))

    # f = (additive + c0) * g with g a unitary character: f grows linearly
    # and g stays bounded, so the scan must land on branch iii; radii grow
    # threefold so every sup ratio clears the growth cutoff
    scan_radii = [2, 6, 18] if full else [1, 3, 9]
    c1, c2 = rng.uniform(0.5, 2.0, size=2) * rng.choice([-1.0, 1.0], size=2)
    c0 = float(rng.uniform(-1.0, 1.0))
    z_1, z_2 = np.exp(2j * np.pi * rng.uniform(size=2))

    def additive_pair():
        def g(el):
            return z_1 ** el[0] * z_2 ** el[1]
        return (lambda el: (c1 * el[0] + c2 * el[1] + c0) * g(el)), g

    cases.append(_scan_case(
        f"scan Z^2 r={scan_radii} additive c={_num([c1, c2, c0])} "
        f"z={_num([z_1, z_2])}", z2, scan_radii, additive_pair, "iii"))

    radii = [2, 3, 4, 5] if full else [1, 2, 3]
    for kind in (DiscreteHeisenberg(), FreeGroup(2)):
        seeds = [int(s) for s in rng.integers(2**31, size=2)]
        epss = [float(e) for e in rng.uniform(0.005, 0.02, size=2)]
        cases.append(_scan_case(
            f"scan {kind.name} r={radii} noise seeds={seeds} eps={epss!r}",
            kind, radii,
            lambda kind=kind, seeds=seeds, epss=epss: (
                _noise(kind, radii[-1], seeds[0], epss[0]),
                _noise(kind, radii[-1], seeds[1], epss[1])),
            "ii"))
    return cases


BUILDERS = {"catalog-solve": catalog_solve, "newton-search": newton_search,
            "ball-audit": ball_audit, "ball-growth": ball_growth}


def make_cases(workload, seed, size):
    return BUILDERS[workload](seed, size)
