"""Command-line front end: group catalog, solver/completeness runs,
exact-pair audits, perturbation, and ball-family stability experiments.

Conventions shared by all subcommands:

* a flat ``key = value`` config file (``--config``) can supply any flag,
  an on/off flag as ``true`` or ``false``; explicitly passed flags win;
* floating-point output is printed with 17 significant digits, and the same
  config plus seed yields byte-identical output;
* exit codes: 0 pass, 2 check mismatch/failure, 3 flagged numerical
  ambiguity, 4 invalid configuration, including a ball radius whose tables
  would exceed the memory budget, a group order over the order cap, an audit
  whose candidate windows would exceed the window budget, a morphism search
  whose generator assignments would exceed the search budget (the estimate
  goes to stderr), a perturbation whose residual or audit arithmetic leaves
  the float range, a --tol that is not finite and >= 0, and an output file
  that cannot be written.
"""

import argparse
import cmath
import contextlib
import functools
import math
import os
import sys

import numpy as np

from .families import (FamilyConstructionError, SolutionPair,
                       canned_half_trace, family_case_iv)
from .feq import (read_function, residual_wilson, write_function,
                  zero_tolerance)
from .groups import (CATALOG_NAMES, BallDomain, BallTooLarge,
                     DiscreteHeisenberg, FreeGroup, IntegerLattice,
                     build_catalog_group)
from .morphisms import (MorphismSearchTooLarge, ball_character,
                        ball_involution, enumerate_characters,
                        enumerate_involutions, identity_involution,
                        inversion_involution, read_character)
from .morphisms import compatibility_witness as _compat_witness
from .solver import (candidate_gs, completeness_check, solve_f_given_g,
                     theorem22_audit)
from .stability import (AuditInapplicable, AuditTooLarge, PerturbationConfig,
                        _fmt, dichotomy_experiment, perturb,
                        run_stability_battery)

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_AMBIGUOUS = 3
EXIT_BADCONFIG = 4

DEFAULT_RADII = {"lattice:1": "4,8,12,16", "lattice:2": "2,4,6,8",
                 "heisenberg": "1,2,3", "free:2": "1,2,3"}


class CliError(Exception):
    """Invalid configuration; maps to exit code 4."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_BADCONFIG)


def _fmt_c(z):
    z = complex(z)
    return f"{z.real:.17g}{z.imag:+.17g}j"


def _load_config(path):
    table = {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise CliError(f"{path}:{lineno}: expected key = value")
                key, _, value = line.partition("=")
                table[key.strip().replace("-", "_")] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read config file: {exc}") from None
    return table


def _merge_config(args):
    """Fill flags left unset on the command line from the config file:
    a flag with a value where it is None, an on/off flag (False unless
    passed) from true or false. Flags keep priority."""
    if not getattr(args, "config", None):
        return
    table = _load_config(args.config)
    known = vars(args)
    for key, value in table.items():
        if key not in known or key in ("command", "func", "config"):
            raise CliError(f"unknown config key {key!r}")
        if isinstance(known[key], bool):
            if value not in ("true", "false"):
                raise CliError(f"config key {key!r} takes true or false, "
                               f"not {value!r}")
            setattr(args, key, known[key] or value == "true")
        elif known[key] is None:
            setattr(args, key, value)


def _get(args, key, default=None, cast=str):
    raw = getattr(args, key, None)
    if raw is None:
        return default
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad value for --{key.replace('_', '-')}: {exc}") from None


def _tolerance(args, default):
    tol = _get(args, "tol", default, float)
    if not 0 <= tol < math.inf:
        raise CliError("--tol must be finite and >= 0")
    return tol


@contextlib.contextmanager
def _finite_arithmetic():
    """Float overflow or an invalid operation (inf - inf, 0 * inf) in the
    perturbation, its measured residual or the audits is a configuration
    error: that perturbation leaves the float range, and the run would
    print inf or nan."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise CliError(f"the perturbed pair's arithmetic leaves the float "
                       f"range ({exc}); lower --epsilon") from None


def _resolve_group(spec):
    if spec is None:
        raise CliError("--group is required")
    try:
        return build_catalog_group(spec)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _resolve_sigma(G, spec):
    spec = spec or "id"
    if spec in ("id", "identity"):
        return identity_involution(G)
    if spec in ("inv", "inversion"):
        return inversion_involution(G)
    for prefix, kind in (("auto:", "automorphism"), ("anti:", "anti-automorphism")):
        if spec.startswith(prefix):
            try:
                idx = int(spec[len(prefix):])
            except ValueError as exc:
                raise CliError(f"bad sigma selector {spec!r}: {exc}") from None
            found = enumerate_involutions(G, kind)
            if not 0 <= idx < len(found):
                raise CliError(f"{kind} index {idx} out of range "
                               f"(found {len(found)})")
            return found[idx]
    raise CliError(f"unknown sigma selector {spec!r}")


def _resolve_chi(G, sigma, args):
    path = getattr(args, "chi_file", None)
    if path:
        if getattr(args, "chi", None) is not None:
            raise CliError("--chi and --chi-file both name the character; "
                           "pass one")
        try:
            chi = read_character(path, G)
        except (OSError, ValueError) as exc:
            raise CliError(f"bad character file: {exc}") from None
    else:
        chars = enumerate_characters(G)
        idx = _get(args, "chi", 0, int)
        if not 0 <= idx < len(chars):
            raise CliError(f"character index {idx} out of range "
                           f"(group has {len(chars)})")
        chi = chars[idx]
    witness = _compat_witness(G, sigma, chi)
    if witness is not None:
        x, val = witness
        raise CliError(
            f"chi is incompatible with sigma: chi(x sigma(x)) = {_fmt_c(val)} "
            f"!= 1 at element {x}")
    return chi


# --- subcommands ----------------------------------------------------------


def cmd_catalog(args):
    group = getattr(args, "group", None)
    if group is None:
        print("supported groups:")
        for name in CATALOG_NAMES:
            print(f"  {name} order {build_catalog_group(name).order}")
        print("ball domains: lattice:<d>, heisenberg, free:<rank>")
        return EXIT_OK
    G = _resolve_group(group)
    print(f"group {G.name} order {G.order}")
    if getattr(args, "morphisms", False):
        for kind in ("automorphism", "anti-automorphism"):
            found = enumerate_involutions(G, kind)
            print(f"involutive {kind}s {len(found)}")
            for i, s in enumerate(found):
                label = s.label or "-"
                print(f"  {kind[:4]}:{i} {label} " +
                      " ".join(str(v) for v in s.table))
    if getattr(args, "characters", False):
        chars = enumerate_characters(G)
        print(f"characters {len(chars)}")
        for i, chi in enumerate(chars):
            print(f"  chi:{i} angles {' '.join(chi.angle_labels())}")
    return EXIT_OK


def cmd_solve(args):
    G = _resolve_group(args.group)
    sigma = _resolve_sigma(G, args.sigma)
    if sigma.kind != "automorphism":
        raise CliError("completeness solving needs an automorphism sigma")
    chi = _resolve_chi(G, sigma, args)
    tol = _tolerance(args, 1e-9)
    report = completeness_check(G, sigma, chi, tol=tol)
    sys.stdout.write(report.table())
    for row in report.rows:
        print(f"  g {row.g_label} solver_dim {row.solver_dim} "
              f"family_dim {row.family_dim} mismatch {_fmt(row.max_mismatch)}"
              + (" AMBIGUOUS" if row.ambiguous else ""))
    out_dir = getattr(args, "out_dir", None)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "completeness.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(report.table())
        for k, row in enumerate(report.rows):
            write_function(row.g, os.path.join(out_dir, f"g_{k:03d}.txt"))
            for j, b in enumerate(row.basis):
                write_function(b, os.path.join(out_dir, f"f_{k:03d}_{j:02d}.txt"))
    if report.any_ambiguous:
        return EXIT_AMBIGUOUS
    if not report.passed:
        return EXIT_MISMATCH
    return EXIT_OK


def _exact_pairs_for_audit(G, sigma, chi):
    """Yield (label, f, g) for every solver-found pair with f != 0, plus the
    canned half-trace candidate when the group has one. Each g's nullspace
    is solved only when its pairs are asked for."""
    tol = zero_tolerance(G)
    gs = [(f"g{k}", g) for k, (_, g, _m) in enumerate(candidate_gs(G, sigma, chi))]
    half = canned_half_trace(G)
    if half is not None:
        rep = residual_wilson(G, sigma, chi, half, half)
        if rep.sup <= tol and not any(
                np.abs(g.values - half.values).max() <= 1e-9 for _, g in gs):
            gs.append(("half-trace", half))
    for label, g in gs:
        if not g.values.any():
            continue    # y = e gives 2 f(x) = 2 f(x) g(e), so g = 0 forces f = 0
        res = solve_f_given_g(G, sigma, chi, g)
        for j, f in enumerate(res.basis):
            rep = residual_wilson(G, sigma, chi, f, g)
            if rep.sup <= tol:
                yield (f"{label}:f{j}", f, g)


def cmd_audit(args):
    G = _resolve_group(args.group)
    sigma = _resolve_sigma(G, args.sigma)
    chi = _resolve_chi(G, sigma, args)
    tol = _tolerance(args, 1e-10)
    f_path, g_path = getattr(args, "f", None), getattr(args, "g", None)
    if (f_path is None) != (g_path is None):
        raise CliError("--f and --g must be given together")
    if f_path:
        try:
            pairs = [("file", read_function(G, f_path), read_function(G, g_path))]
        except (OSError, ValueError) as exc:
            raise CliError(f"bad function file: {exc}") from None
    else:
        pairs = list(_exact_pairs_for_audit(G, sigma, chi))
    if not pairs:
        print("no exact pairs with f != 0 found")
        return EXIT_OK
    all_pass = True
    out_lines = []
    for label, f, g in pairs:
        try:
            report = theorem22_audit(G, sigma, chi, f, g, tol=tol)
        except AuditInapplicable as why:
            raise CliError(f"audit not applicable: {why}") from None
        out_lines.append(f"pair {label}: "
                         f"{'PASS' if report.passed else 'FAIL'}")
        out_lines.append(report.table().rstrip("\n"))
        all_pass &= report.passed
    text = "\n".join(out_lines) + "\n"
    sys.stdout.write(text)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK if all_pass else EXIT_MISMATCH


def _ball_kind(spec):
    spec = spec or "lattice:2"
    try:
        if spec.startswith("lattice:"):
            return IntegerLattice(int(spec.split(":", 1)[1])), spec
        if spec == "heisenberg":
            return DiscreteHeisenberg(), spec
        if spec.startswith("free:"):
            return FreeGroup(int(spec.split(":", 1)[1])), spec
    except ValueError as exc:
        raise CliError(f"bad ball domain {spec!r}: {exc}") from None
    raise CliError(f"unknown ball domain {spec!r}")


def _parse_radii(args, domain_key):
    raw = getattr(args, "radii", None) or DEFAULT_RADII.get(domain_key, "2,4,6,8")
    try:
        radii = sorted({int(tok) for tok in raw.split(",") if tok.strip()})
    except ValueError as exc:
        raise CliError(f"bad --radii: {exc}") from None
    if not radii or radii[0] < 1:
        raise CliError("radii must be positive integers")
    return radii


def _parse_zs(args, k):
    raw = getattr(args, "chi_z", None)
    if raw is None:
        return [1.0 + 0.0j] * k
    try:
        zs = [complex(tok) for tok in raw.split(",")]
    except ValueError as exc:
        raise CliError(f"bad --chi-z: {exc}") from None
    if len(zs) != k:
        raise CliError(f"--chi-z needs {k} comma-separated values")
    if not all(cmath.isfinite(z) for z in zs):
        raise CliError("--chi-z values must be finite")
    return zs


def _ball_maps(ball, sigma_spec, args):
    """sigma, chi and the chi bases on a ball from --sigma and --chi-z; a bad
    spec, or a chi whose powers overflow on the ball, is a configuration
    error."""
    zs = _parse_zs(args, ball.coords.shape[1])
    try:
        sigma = ball_involution(ball, sigma_spec or "inv")
        with np.errstate(over="ignore", invalid="ignore"):
            chi = ball_character(ball, zs)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if not np.isfinite(chi.values).all():
        raise CliError(f"--chi-z values overflow on the ball of radius "
                       f"{ball.radius}")
    return sigma, chi, zs


def _ball_exact_pair(ball, sigma, chi, zs):
    """A mixed-character exact pair on the ball: m with m = chi m o sigma
    (square roots of the chi bases under inversion), f = (a + 1) m with the
    first coordinate as the additive map a when sigma is inversion, f = m
    otherwise."""
    if sigma.is_inversion:
        m = ball_character(ball, [np.sqrt(complex(z)) for z in zs])
        a_values = ball.coords[:, 0]
    elif sigma.is_identity:
        if any(complex(z) != 1.0 + 0.0j for z in zs):
            raise CliError("sigma = id admits this pair only for trivial chi")
        m = ball_character(ball, [1.0] * len(zs))
        a_values = None
    else:
        raise CliError("no canned exact pair for this sigma")
    try:
        return family_case_iv(m, chi, sigma, a_values, 1.0)
    except FamilyConstructionError as exc:
        raise CliError(str(exc)) from None


def _perturbation_config(args, domain, default_epsilon=None):
    """The PerturbationConfig the flags ask for; --epsilon falls back to
    default_epsilon (required when that is None) and --point must name an
    element of the domain."""
    eps = _get(args, "epsilon", default_epsilon, float)
    if eps is None:
        raise CliError("--epsilon is required")
    try:
        config = PerturbationConfig(
            epsilon=eps,
            seed=_get(args, "seed", 42, int),
            shape=_get(args, "shape", "uniform-disk"),
            target=_get(args, "target", "both"),
            point=_get(args, "point", 0, int),
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if not 0 <= config.point < domain.n:
        raise CliError(f"--point must be an element id in 0..{domain.n - 1}")
    return config


def _reject_flags(args, flags, where):
    """A flag that the chosen domain would silently ignore is an error."""
    for flag in flags:
        if getattr(args, flag[2:].replace("-", "_"), None) is not None:
            raise CliError(f"{flag} does not apply to {where}")


def cmd_perturb(args):
    domain_spec = getattr(args, "domain", None)
    if domain_spec and (domain_spec.startswith(("lattice:", "free:"))
                        or domain_spec == "heisenberg"):
        _reject_flags(args, ("--group", "--chi", "--chi-file"), "a ball domain")
        kind, _ = _ball_kind(domain_spec)
        radius = _get(args, "radius", 4, int)
        if radius < 0:
            raise CliError("--radius must be >= 0")
        ball = BallDomain(kind, radius)
        config = _perturbation_config(args, ball)
        sigma, chi, zs = _ball_maps(ball, getattr(args, "sigma", None), args)
        pair = _ball_exact_pair(ball, sigma, chi, zs)
    else:
        _reject_flags(args, ("--radius", "--chi-z"), "a finite group")
        group = getattr(args, "group", None)
        if group is not None and domain_spec:
            raise CliError(f"--group {group} and --domain {domain_spec} "
                           f"both name the domain; pass one")
        G = _resolve_group(group or domain_spec)
        config = _perturbation_config(args, G)
        sigma = _resolve_sigma(G, getattr(args, "sigma", None))
        chi = _resolve_chi(G, sigma, args)
        first = next(_exact_pairs_for_audit(G, sigma, chi), None)
        if first is None:
            raise CliError("no exact pair with f != 0 available to perturb")
        _, f, g = first
        pair = SolutionPair(f, g, "External", sigma=sigma, chi=chi)
    with _finite_arithmetic():
        result = perturb(pair, config)
    print(f"measured_delta {_fmt(result.measured_delta)}")
    prefix = getattr(args, "out_prefix", None)
    if prefix:
        write_function(result.f, prefix + "_f.txt")
        write_function(result.g, prefix + "_g.txt")
    return EXIT_OK


def cmd_stability(args):
    kind, key = _ball_kind(getattr(args, "domain", None))
    radii = _parse_radii(args, key)
    while True:
        try:
            max_ball = BallDomain(kind, radii[-1])
            break
        except BallTooLarge:
            # default radii past the element cap are dropped, down to [1]
            if getattr(args, "radii", None) or radii == [1]:
                raise
            radii = radii[:-1] or [1]
    sigma_spec = getattr(args, "sigma", None) or "inv"
    sigma, chi, zs = _ball_maps(max_ball, sigma_spec, args)
    if not chi.unitary:
        raise CliError("stability audits need a unitary chi (|z| = 1)")
    pair = _ball_exact_pair(max_ball, sigma, chi, zs)
    config = _perturbation_config(args, max_ball, default_epsilon=1e-2)
    a = _get(args, "a", max_ball.identity, int)
    if not 0 <= a < max_ball.n:
        raise CliError(f"--a must be an element id in 0..{max_ball.n - 1}")
    with _finite_arithmetic():
        result = perturb(pair, config)
        report = run_stability_battery(max_ball, sigma, chi, result.f,
                                       result.g, result.measured_delta, a=a)
    print(f"measured_delta {_fmt(result.measured_delta)}")
    sys.stdout.write(report.table())
    scan = dichotomy_experiment(max_ball, radii, result.f.values,
                                result.g.values, sigma_spec=sigma_spec,
                                chi_zs=zs)
    report.growth_rows = scan.growth_rows
    csv_text = report.csv()
    out = getattr(args, "csv_out", None)
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK if report.passed else EXIT_MISMATCH


# --- parser wiring --------------------------------------------------------


def _add_common(p):
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--group", help="catalog group name, e.g. Z4, S3, Q8")
    p.add_argument("--sigma", help="id, inv, auto:K, or anti:K")
    p.add_argument("--chi", help="character index (enumeration order)")
    p.add_argument("--chi-file", dest="chi_file", help="explicit character file")


@functools.lru_cache(maxsize=1)
def build_parser():
    """The argument parser, built once per process; parse_args keeps no
    state between calls, so repeated in-process main() calls share it."""
    parser = _Parser(prog="feqlab",
                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list groups, involutions, characters")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--group")
    p.add_argument("--morphisms", action="store_true")
    p.add_argument("--characters", action="store_true")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("solve", help="nullspace solver + completeness check")
    _add_common(p)
    p.add_argument("--tol", help="tolerance override")
    p.add_argument("--out-dir", dest="out_dir", help="write solution files here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("audit", help="exact-pair structure audit")
    _add_common(p)
    p.add_argument("--tol", help="tolerance override")
    p.add_argument("--f", help="f function file (with --g)")
    p.add_argument("--g", help="g function file (with --f)")
    p.add_argument("--out", help="write the audit table here")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("perturb", help="perturb an exact pair, report delta")
    _add_common(p)
    p.add_argument("--domain", help="lattice:<d>, heisenberg, free:<k>, or group")
    p.add_argument("--radius", help="ball radius (ball domains)")
    p.add_argument("--chi-z", dest="chi_z", help="comma list of character bases")
    p.add_argument("--epsilon")
    p.add_argument("--seed")
    p.add_argument("--shape")
    p.add_argument("--target")
    p.add_argument("--point")
    p.add_argument("--out-prefix", dest="out_prefix")
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("stability",
                       help="perturb + inequality audits + dichotomy CSV")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--domain", help="lattice:<d>, heisenberg, free:<k>")
    p.add_argument("--radii", help="comma list, e.g. 2,4,6,8")
    p.add_argument("--sigma", help="id or inv")
    p.add_argument("--chi-z", dest="chi_z", help="comma list of character bases")
    p.add_argument("--epsilon")
    p.add_argument("--seed")
    p.add_argument("--shape")
    p.add_argument("--target")
    p.add_argument("--point")
    p.add_argument("--a", help="base point id for the section audits")
    p.add_argument("--csv-out", dest="csv_out")
    p.set_defaults(func=cmd_stability)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_config(args)
        return args.func(args)
    except (CliError, FamilyConstructionError, BallTooLarge, AuditTooLarge,
            MorphismSearchTooLarge, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BADCONFIG


if __name__ == "__main__":
    sys.exit(main())
