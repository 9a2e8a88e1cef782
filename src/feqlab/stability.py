"""Quantitative stability checks: perturbations, delta-inequality audits,
and the bounded-or-exact dichotomy experiments on growing balls.

Each inequality audit is stated with its certificate: the pair-residual
windows F(u, v) whose signed sum is its left-hand side, so the stated bound
holds wherever every point of those residuals exists. One evaluator derives
the validity mask from the windows: on a ball, a window (pair or triple) is
skipped exactly when a point of its certificate's residuals leaves the
ball. Skipped windows are counted and reported.
"""

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .feq import (GroupFunction, companion_mg, residual_symmetrized_cauchy,
                  residual_wilson, section_function)
from .groups import BallDomain, IntegerLattice, ball_elements
from .morphisms import ball_character, ball_involution, satisfies_morphism_law

AUDIT_TOL = 1e-9
# entries per x-slice of the n^3 audit grids (~2 MB per int64 grid)
AUDIT_CHUNK_ENTRIES = 1 << 18

PERTURBATION_SHAPES = ("uniform-disk", "single-point", "character-phase")
PERTURBATION_TARGETS = ("f", "g", "both")


@dataclass
class PerturbationConfig:
    epsilon: float
    seed: int = 0
    shape: str = "uniform-disk"
    target: str = "both"
    point: int = 0  # bump location for single-point; identity by default

    def __post_init__(self):
        if not 0 <= self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.shape not in PERTURBATION_SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}")
        if self.target not in PERTURBATION_TARGETS:
            raise ValueError(f"unknown target {self.target!r}")


@dataclass
class PerturbedPair:
    f: GroupFunction
    g: GroupFunction
    measured_delta: float
    config: PerturbationConfig


def _noise(config, rng, n):
    eps = config.epsilon
    if config.shape == "uniform-disk":
        r = eps * np.sqrt(rng.uniform(size=n))
        return r * np.exp(2j * np.pi * rng.uniform(size=n))
    if config.shape == "single-point":
        vec = np.zeros(n, dtype=np.complex128)
        vec[config.point] = eps
        return vec
    # character-phase: modulus exactly eps everywhere
    return eps * np.exp(2j * np.pi * rng.uniform(size=n))


def perturb(pair, config):
    """Add bounded noise to an exact pair; returns the pair and measured delta.

    The measured residual always satisfies the triangle bound
    (2 + 2 sup|g| + 2 sup|f| + 2 eps) * eps; asserted here.
    """
    domain = pair.f.domain
    rng = np.random.default_rng(config.seed)
    fv, gv = pair.f.values.copy(), pair.g.values.copy()
    if config.target in ("f", "both"):
        fv = fv + _noise(config, rng, domain.n)
    if config.target in ("g", "both"):
        gv = gv + _noise(config, rng, domain.n)
    f2, g2 = GroupFunction(domain, fv), GroupFunction(domain, gv)
    rep = residual_wilson(domain, pair.sigma, pair.chi, f2, g2)
    bound = (2.0 + 2.0 * pair.g.sup() + 2.0 * pair.f.sup()
             + 2.0 * config.epsilon) * config.epsilon
    if rep.sup > bound + 1e-12:
        raise AssertionError(
            f"measured delta {rep.sup:.3e} exceeds the triangle bound {bound:.3e}")
    return PerturbedPair(f2, g2, rep.sup, config)


# --- inequality audits ----------------------------------------------------


@dataclass
class StabilityAuditRow:
    name: str
    bound: str
    max_excess: float        # max over windows of LHS - RHS; <= 0 is ideal
    witness: tuple
    evaluated: int
    skipped: int
    passed: bool


@dataclass
class StabilityReport:
    measured_delta: float
    rows: list = field(default_factory=list)
    not_applicable: list = field(default_factory=list)
    growth_rows: list = field(default_factory=list)

    @property
    def passed(self):
        return all(r.passed for r in self.rows)

    def table(self):
        out = ["check bound max_excess witness evaluated skipped verdict"]
        for r in self.rows:
            w = ",".join(str(i) for i in r.witness) if r.witness else "-"
            out.append(f"{r.name} [{r.bound}] {r.max_excess:.17g} ({w}) "
                       f"{r.evaluated} {r.skipped} {'PASS' if r.passed else 'FAIL'}")
        for name, why in self.not_applicable:
            out.append(f"{name} - - - - - N/A[{why}]")
        return "\n".join(out) + "\n"

    def csv(self):
        lines = ["radius,sup_f,sup_g,delta,dist_to_family,branch_label"]
        for r in self.growth_rows:
            lines.append(",".join([str(r.radius), _fmt(r.sup_f), _fmt(r.sup_g),
                                   _fmt(r.delta), _fmt(r.dist_to_family),
                                   r.branch_label]))
        return "\n".join(lines) + "\n"


class AuditInapplicable(ValueError):
    """The audited inequality's hypotheses do not cover this domain/sigma."""


def _padded(table):
    """The index table with a -1 appended along each axis. Indexing it with
    -1 (outside the ball) lands on the pad, so -1 propagates through
    products and sigma without masking; indices must lie in [-1, n)."""
    return np.pad(table, [(0, 1)] * table.ndim, constant_values=-1)


def _val(values, idx):
    return np.where(idx >= 0, values[np.maximum(idx, 0)], 0.0)


def _x_slices(n, ndim):
    """Consecutive x-ranges of an n^ndim grid, each about
    AUDIT_CHUNK_ENTRIES entries (at least one x per slice)."""
    step = max(1, AUDIT_CHUNK_ENTRIES // n ** (ndim - 1))
    for x0 in range(0, n, step):
        yield np.arange(x0, min(x0 + step, n))


def _row_from_slices(name, bound, shape, slices, tol=AUDIT_TOL):
    """Audit row of a grid of this shape, given as consecutive slices
    (excess, valid) along its first axis.

    Gives what one argmax over the whole grid gives: the first C-order
    witness wins ties (a later slice must be strictly larger) and NaN beats
    any number, as in np.argmax.
    """
    evaluated = offset = 0
    worst, flat = None, None
    for excess, valid in slices:
        count = int(valid.sum())
        if count:
            masked = np.where(valid, excess, -np.inf)
            i = int(np.argmax(masked))
            v = masked.flat[i]
            if flat is None or v > worst or (np.isnan(v) and not np.isnan(worst)):
                worst, flat = v, offset + i
        evaluated += count
        offset += valid.size
    total = int(np.prod(shape))
    if evaluated == 0:
        return StabilityAuditRow(name, bound, 0.0, (), 0, total, True)
    witness = tuple(int(i) for i in np.unravel_index(flat, shape))
    worst = float(worst)
    return StabilityAuditRow(name, bound, worst, witness, evaluated,
                             total - evaluated, worst <= tol)


# Each audit's certificate: the pair-residual windows (u, v) whose signed sum
# is its left-hand side. Words use the letters x, y, z, a, a capital for an
# inverse (Y = y^-1) and s(w) for sigma(w); w, and so v, holds no s. The
# first window to reach a node fixes how it is built, which matters for
# speed only: (xz)y gathers faster from the small grid xz than x(zy) does.
CENTRALITY_WINDOWS = (("s(y)x", "z"), ("s(z)x", "y"), ("xz", "y"), ("xy", "z"),
                      ("x", "zy"), ("x", "yz"), ("x", "z"), ("x", "y"))
COMPANION_SHIFT_WINDOWS = (("x", "y"), ("xy", "y"), ("s(y)x", "y"),
                           ("x", "yy"))
PARITY_WINDOWS = (("x", "Y"), ("xY", "y"), ("s(y)xY", "y"), ("xY", "yy"),
                  ("s(Y)x", "y"), ("s(Y)xy", "y"), ("s(Y)x", "yy"))
SECTION_SINE_WINDOWS = (("a", "xy"), ("ax", "y"), ("s(y)a", "x"), ("a", "y"))
SYMMETRIZED_SINE_WINDOWS = SECTION_SINE_WINDOWS + (
    ("a", "yx"), ("ay", "x"), ("s(x)a", "y"), ("a", "x"))


def _program(windows):
    """Every node of the windows' residuals F(u, v), in evaluation order:
    the prefixes of u and v, u v, sigma(v) and sigma(v) u. A node is keyed by
    its word written flat, so (xz)y and x(zy) are one node, and maps to the
    keys it is built from: one for sigma, two for a product."""
    steps = {}

    def node(word):
        fs = re.findall(r"s\(\w+\)|\w", word)
        for f in fs:
            if f.startswith("s("):
                node(f[2:-1])
                steps.setdefault(f, (f[2:-1],))
        for i in range(1, len(fs)):
            steps.setdefault("".join(fs[:i + 1]), ("".join(fs[:i]), fs[i]))

    for u, v in windows:
        node(u)
        node(f"s({v})")
        steps.setdefault(u + v, (u, v))
        steps.setdefault(f"s({v}){u}", (f"s({v})", u))
    return steps


def _certified_row(name, bound, domain, sigma, windows, excess, a=0):
    """Audit row over the (x, y[, z]) grid of a certificate's windows.

    A window is evaluated exactly when every product node of its residuals
    lies in the ball (is >= 0 in the padded table); for any grouping of a
    word that is when the element itself lies in it, since every factor is
    a node too. excess(node) gives LHS - RHS on one x-slice, where
    node(word) is the index grid of a node on that slice. Nodes without x
    are built once; only nodes that are factors of another node are kept.
    """
    n = domain.n
    mp, sp = _padded(domain.mul), _padded(sigma.table)
    steps = _program(windows)
    factors = {k for ops in steps.values() for k in ops}
    axes = [c for c in "xyz" if any(c in (u + v).lower() for u, v in windows)]
    ndim = len(axes)
    env = {"a": a}
    for i, c in enumerate(axes[1:], 1):
        grid = np.arange(n).reshape([n if j == i else 1 for j in range(ndim)])
        env[c], env[c.upper()] = grid, domain.inv[grid]

    def gather(env, key):
        ops = [env[k] for k in steps[key]]
        return sp[ops[0]] if len(ops) == 1 else mp[ops[0], ops[1]]

    def run(keys, env, valid):
        for key in keys:
            grid = gather(env, key)
            if len(steps[key]) == 2:
                valid &= grid >= 0
            if key in factors:
                env[key] = grid
            del grid  # free before the next gather allocates

    with_x = [k for k in steps if "x" in k.lower()]
    base = np.ones((1,) + (n,) * (ndim - 1), dtype=bool)
    run([k for k in steps if k not in with_x], env, base)

    def slices():
        for xs in _x_slices(n, ndim):
            X = xs.reshape([-1] + [1] * (ndim - 1))
            local = dict(env, x=X, X=domain.inv[X])
            valid = np.empty((len(xs),) + base.shape[1:], dtype=bool)
            valid[...] = base
            run(with_x, local, valid)

            def node(key):
                return local[key] if key in local else gather(local, key)

            yield excess(node), valid

    return _row_from_slices(name, bound, (n,) * ndim, slices())


def audit_centrality_bound(domain, sigma, chi, f, g, delta):
    """|g(zy) - g(yz)| |f(x)| <= 2|g(z)| delta + 2|g(y)| delta + 6 delta.

    Certificate: when sigma is an anti-automorphism, f(x) (g(zy) - g(yz))
    is a combination of the eight residuals of CENTRALITY_WINDOWS. The n^3
    grid is evaluated in slices of x, so peak memory is O(n^2) for any ball
    size.
    """
    gv = g.values
    g_yz = _val(gv, domain.mul)
    g_gap = np.abs(g_yz.T - g_yz)[None]  # [., y, z] -> |g(zy) - g(yz)|
    rhs = (2.0 * np.abs(gv)[None, None, :] + 2.0 * np.abs(gv)[None, :, None]
           + 6.0) * delta
    fv = np.abs(f.values)
    return _certified_row("centrality_defect", "2|g(z)|d + 2|g(y)|d + 6d",
                          domain, sigma, CENTRALITY_WINDOWS,
                          lambda node: g_gap * fv[node("x")] - rhs)


def audit_mg_shift_bound(domain, sigma, chi, f, g, delta):
    """|m_g(y) f(x) - chi(y) f(sigma(y) x y)| <= |g(y)| delta + 1.5 delta."""
    mg = companion_mg(g).values[None, :]
    rhs = (np.abs(g.values)[None, :] + 1.5) * delta

    def excess(node):
        lhs = np.abs(mg * f.values[node("x")]
                     - chi.values[None, :] * _val(f.values, node("s(y)xy")))
        return lhs - rhs

    return _certified_row("companion_shift_defect", "|g(y)|d + 1.5d", domain,
                          sigma, COMPANION_SHIFT_WINDOWS, excess)


def audit_parity_bound(domain, sigma, chi, f, g, delta):
    """|2 f(x) (g(y) - m_g(y) g(y^{-1}))| <= |m_g(y)| d + 2|g(y)| d + 4d."""
    mg = companion_mg(g).values
    gv = g.values
    gap = (gv - mg * gv[domain.inv])[None, :]
    rhs = (np.abs(mg)[None, :] + 2.0 * np.abs(gv)[None, :] + 4.0) * delta
    return _certified_row(
        "parity_defect", "|m_g(y)|d + 2|g(y)|d + 4d", domain, sigma,
        PARITY_WINDOWS,
        lambda node: np.abs(2.0 * f.values[node("x")] * gap) - rhs)


def audit_sine_addition_bound(domain, sigma, chi, f, g, delta, a=0):
    """|f_a(xy) - f_a(x) g(y) - f_a(y) g(x)| <= |g(x)| delta + 1.5 delta.

    Valid when sigma is a homomorphism (its certificate cancels a
    sigma(xy) = sigma(x) sigma(y) pair); raises AuditInapplicable otherwise.
    """
    if not satisfies_morphism_law(domain, sigma.table, "automorphism"):
        raise AuditInapplicable("sigma is not a homomorphism on this domain")
    fv, gv = f.values, g.values
    fa = section_function(f, g, a).values

    def excess(node):
        X = node("x")
        lhs = np.abs(_val(fv, node("axy")) - fv[a] * _val(gv, node("xy"))
                     - fa[X] * gv[None, :] - fa[None, :] * gv[X])
        return lhs - (np.abs(gv)[X] + 1.5) * delta

    return _certified_row("section_sine_addition_defect", "|g(x)|d + 1.5d",
                          domain, sigma, SECTION_SINE_WINDOWS, excess, a)


def audit_symmetrized_sine_addition_bound(domain, sigma, chi, f, g, delta, a=0):
    """|f_a(xy) + f_a(yx) - 2 f_a(x) g(y) - 2 f_a(y) g(x)|
        <= |g(x)| d + |g(y)| d + 3d.

    The symmetrization cancels the sigma(xy) vs sigma(x)sigma(y) mismatch,
    so this holds for automorphisms and anti-automorphisms alike.
    """
    fv, gv = f.values, g.values
    fa = section_function(f, g, a).values

    def excess(node):
        X = node("x")
        fa_xy = _val(fv, node("axy")) - fv[a] * _val(gv, node("xy"))
        fa_yx = _val(fv, node("ayx")) - fv[a] * _val(gv, node("yx"))
        lhs = np.abs(fa_xy + fa_yx - 2.0 * fa[X] * gv[None, :]
                     - 2.0 * fa[None, :] * gv[X])
        return lhs - (np.abs(gv)[X] + np.abs(gv)[None, :] + 3.0) * delta

    return _certified_row("symmetrized_sine_addition_defect",
                          "|g(x)|d + |g(y)|d + 3d", domain, sigma,
                          SYMMETRIZED_SINE_WINDOWS, excess, a)


def run_stability_battery(domain, sigma, chi, f, g, delta, a=0):
    """The four proof-constant audits plus the symmetrized variant.
    Inapplicable audits are reported, not run."""
    report = StabilityReport(measured_delta=delta)
    report.rows.append(audit_centrality_bound(domain, sigma, chi, f, g, delta))
    report.rows.append(audit_mg_shift_bound(domain, sigma, chi, f, g, delta))
    report.rows.append(audit_parity_bound(domain, sigma, chi, f, g, delta))
    try:
        report.rows.append(
            audit_sine_addition_bound(domain, sigma, chi, f, g, delta, a=a))
    except AuditInapplicable as why:
        report.not_applicable.append(("section_sine_addition_defect", str(why)))
    report.rows.append(
        audit_symmetrized_sine_addition_bound(domain, sigma, chi, f, g, delta, a=a))
    return report


# --- dichotomy experiments on growing balls -------------------------------

GROW_FACTOR = 1.5
FLAT_FACTOR = 1.1


def classify_growth(sups):
    """growing / bounded / inconclusive from consecutive sup ratios."""
    if all(s == 0 for s in sups):
        return "bounded"
    if len(sups) < 2:
        return "inconclusive"
    # a 0 -> positive step is unbounded growth; positive -> 0 is collapse
    pairs = list(zip(sups, sups[1:]))
    ratios = [b / a if a > 0 else math.inf for a, b in pairs]
    if all(r >= GROW_FACTOR for r in ratios):
        return "growing"
    if all(r <= FLAT_FACTOR for r in ratios):
        return "bounded"
    return "inconclusive"


def _fmt(x):
    return f"{x:.17g}"


@dataclass
class DichotomyRow:
    radius: int
    sup_f: float
    sup_g: float
    delta: float
    dist_to_family: float
    branch_label: str


def multiplicative_distance(ball, f):
    """sup-norm distance, after optimal scaling, from f to the nearest
    candidate multiplicative function.

    Candidates: the zero function and the coordinate characters read off from
    the value ratios at the generators. Exact multiplicative input gives
    exactly zero.
    """
    fv = f.values
    best = float(np.abs(fv).max())  # distance to the zero function
    fe = fv[ball.identity]
    if fe != 0:
        # z_i is read off at the first generator with coordinates e_i
        k = ball.coords.shape[1]
        at = {}
        for gen in reversed(ball.kind.generators()):
            at[tuple(ball.kind.abelian_coords(gen))] = ball.index.get(gen)
        ids = [at.get(tuple(int(j == i) for j in range(k))) for i in range(k)]
        zs = None if None in ids else [fv[i] / fe for i in ids]
        if zs and all(z != 0 for z in zs):
            m = ball_character(ball, zs).values
            denom = np.vdot(m, m)
            lam = np.vdot(m, fv) / denom
            best = min(best, float(np.abs(fv - lam * m).max()))
    return best


def _provided(ball, provider):
    """A provider's values on the ball's elements, as one complex vector."""
    return np.asarray([provider(el) for el in ball.elements],
                      dtype=np.complex128)


def dichotomy_experiment(kind, radii, f_provider, g_provider=None,
                         preset="SymmetrizedCauchy", sigma_spec="id",
                         chi_zs=None):
    """Per-radius sup, measured residual, and distance to the multiplicative
    family; the growth label across radii exhibits the bounded-or-exact
    dichotomy."""
    radii = sorted(radii)
    rows = []
    sups_f = []
    largest = BallDomain(kind, radii[-1])
    fv = _provided(largest, f_provider)
    gv = fv if g_provider is None else _provided(largest, g_provider)
    for r in radii:
        ball = largest.restrict(r)
        f = GroupFunction(ball, fv[:ball.n])
        g = f if g_provider is None else GroupFunction(ball, gv[:ball.n])
        if preset == "SymmetrizedCauchy":
            delta = residual_symmetrized_cauchy(ball, f).sup
        else:
            sigma = ball_involution(ball, sigma_spec)
            chi = ball_character(ball, chi_zs or [1.0] * ball.coords.shape[1])
            delta = residual_wilson(ball, sigma, chi, f, g).sup
        dist = multiplicative_distance(ball, f)
        rows.append(DichotomyRow(r, f.sup(), g.sup(), delta, dist, ""))
        sups_f.append(f.sup())
    label = classify_growth(sups_f)
    for row in rows:
        row.branch_label = label
    delta_max = max((row.delta for row in rows), default=0.0)
    return StabilityReport(measured_delta=delta_max, growth_rows=rows)


def bounded_noise_candidate(kind, max_radius, seed, epsilon):
    """A deterministic bounded function: 1 + epsilon * unit phases, fixed
    once on the largest ball so smaller radii see restrictions of it."""
    elements, _ = ball_elements(kind, max_radius)
    rng = np.random.default_rng(seed)
    phases = np.exp(2j * np.pi * rng.uniform(size=len(elements)))
    table = {el: 1.0 + epsilon * phases[i] for i, el in enumerate(elements)}

    def provider(el):
        return table[el]

    return provider


# --- branch scan for pairs on ball families -------------------------------


@dataclass
class ScanRecord:
    branch: str
    sub_branch: str
    details: dict
    radii_table: list  # (radius, sup_f, sup_g, delta)


def _g_multiplicative_defect(ball, g):
    mul = ball.mul
    ok = mul >= 0
    vals = np.abs(_val(g.values, mul) - g.values[:, None] * g.values[None, :])
    return float(vals[ok].max()) if ok.any() else 0.0


def _additive_fit(ball, h_values):
    """Least-squares fit of h by an additive form over the abelianized
    coordinates plus a constant."""
    coords = ball.coords.astype(np.float64)
    A = np.hstack([coords, np.ones((ball.n, 1))])
    coef, *_ = np.linalg.lstsq(A, h_values, rcond=None)
    resid = float(np.abs(A @ coef - h_values).max())
    k = coords.shape[1]
    return np.asarray(coef[:k]), complex(coef[k]), resid


def theorem37_case_scan(kind, radii, f_provider, g_provider, sigma_spec="inv",
                        chi_zs=None, tol=1e-8):
    """Label an approximate pair on a growing ball family with its structure
    branch.

    Branches: f = 0; both bounded; f growing with g bounded (g must then be
    multiplicative and sigma-symmetric, and an additive fit makes f - a g
    bounded); both growing (proportional to g, additive-times-g, or the
    mixed two-character form). Ambiguous growth is labeled inconclusive.
    """
    radii = sorted(radii)
    table = []
    largest = BallDomain(kind, radii[-1])
    fv, gv = _provided(largest, f_provider), _provided(largest, g_provider)
    # the last pass, on the largest ball itself, leaves the pair that the
    # branch checks below examine
    for r in radii:
        ball = largest.restrict(r)
        f, g = GroupFunction(ball, fv[:ball.n]), GroupFunction(ball, gv[:ball.n])
        sigma = ball_involution(ball, sigma_spec)
        chi = ball_character(ball, chi_zs or [1.0] * ball.coords.shape[1])
        delta = residual_wilson(ball, sigma, chi, f, g).sup
        table.append((r, f.sup(), g.sup(), delta))
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
        details["g_multiplicative_defect"] = _g_multiplicative_defect(ball, g)
        sym = np.abs(g.values - chi.values * g.values[sigma.table]).max()
        details["g_sigma_symmetry_defect"] = float(sym)
        h = f.values / g.values
        coef, intercept, resid = _additive_fit(ball, h)
        details["additive_fit_coefficients"] = list(coef)
        details["additive_fit_intercept"] = intercept
        details["additive_fit_residual"] = resid
        return ScanRecord("iii", "", details, table)

    # both growing: try the three structured sub-branches in order
    fe, ge = f.values[0], g.values[0]
    if ge != 0 and np.abs(f.values - (fe / ge) * g.values).max() <= tol * max(1.0, f.sup()):
        details["proportionality"] = fe / ge
        return ScanRecord("iv", "1", details, table)
    nonzero = np.abs(g.values) > 0
    if nonzero.all():
        h = f.values / g.values
        coef, intercept, resid = _additive_fit(ball, h)
        scale = max(1.0, float(np.abs(h).max()))
        if resid <= tol * scale and abs(intercept) <= tol * scale:
            a_vals = ball.coords @ coef
            odd = float(np.abs(a_vals[sigma.table] + a_vals).max())
            details["additive_fit_coefficients"] = list(coef)
            details["a_sigma_antisymmetry_defect"] = odd
            if odd <= tol * scale:
                return ScanRecord("iv", "2", details, table)
    rec = _recover_mixed_form(ball, f, g, sigma, chi, tol)
    if rec is not None:
        details.update(rec)
        return ScanRecord("iv", "3", details, table)
    return ScanRecord("iv", "unclassified", details, table)


def _recover_mixed_form(ball, f, g, sigma, chi, tol):
    """Try g = (m + chi m o sigma)/2 with a coordinate character m(x) = z^x.

    On Z^1, 2 g(1) = m(1) + chi(1) m(sigma(1)) pins z: with sigma(x) = -x
    it is the quadratic z^2 - 2g(1) z + w = 0 (w = chi(1)); with sigma = id
    it is linear."""
    if not isinstance(ball.kind, IntegerLattice) or ball.kind.d != 1:
        return None
    i1 = ball.index.get((1,))
    if i1 is None:
        return None
    two_g = complex(2.0 * g.values[i1])
    w = complex(chi.values[i1])
    if np.array_equal(sigma.table, ball.inv):
        disc = np.sqrt(two_g * two_g - 4.0 * w)
        candidates = [(two_g + disc) / 2.0, (two_g - disc) / 2.0]
    elif sigma.is_identity:
        if two_g == 0 or w == -1.0:
            return None
        candidates = [two_g / (1.0 + w)]
    else:
        return None
    for z in candidates:
        if z == 0:
            continue
        m = ball_character(ball, [z]).values
        partner = chi.values * m[sigma.table]
        g_fit = np.abs((m + partner) / 2.0 - g.values).max()
        if g_fit > tol * max(1.0, g.sup()):
            continue
        A = np.stack([m, partner], axis=1)
        coef, *_ = np.linalg.lstsq(A, f.values, rcond=None)
        f_fit = np.abs(A @ coef - f.values).max()
        if f_fit <= tol * max(1.0, f.sup()):
            return {"recovered_base": complex(z),
                    "g_fit_residual": float(g_fit),
                    "f_fit_residual": float(f_fit),
                    "f_coefficients": [complex(c) for c in coef]}
    return None
