"""Quantitative stability checks: perturbations, delta-inequality audits,
and the bounded-or-exact dichotomy experiments on growing balls.

Each inequality audit follows the proof that produced it: the left-hand side
at a point is an explicit combination of pair residuals F(.,.) at derived
points, so the stated bound holds wherever all of those points exist. On a
ball, a window (pair or triple) is evaluated only when its full point set
stays inside; skipped windows are counted and reported.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .feq import (GroupFunction, companion_mg, residual_symmetrized_cauchy,
                  residual_wilson, section_function)
from .groups import BallDomain, IntegerLattice
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


def _row(name, bound, excess, valid, tol=AUDIT_TOL):
    return _row_from_slices(name, bound, valid.shape, [(excess, valid)], tol)


def _x_slices(n):
    """Consecutive x-ranges of an n x n x n grid, each about
    AUDIT_CHUNK_ENTRIES entries (at least one x per slice)."""
    step = max(1, AUDIT_CHUNK_ENTRIES // (n * n))
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


def audit_centrality_bound(domain, sigma, chi, f, g, delta):
    """|g(zy) - g(yz)| |f(x)| <= 2|g(z)| delta + 2|g(y)| delta + 6 delta.

    Certificate: the difference is a combination of eight pair residuals at
    points built from x, y, z; windows where any of them leaves the ball are
    skipped. The n^3 grid is evaluated in slices of x, so peak memory is
    O(n^2) for any ball size.
    """
    n = domain.n
    mp, sp = _padded(domain.mul), _padded(sigma.table)
    Y = np.arange(n)[None, :, None]
    Z = np.arange(n)[None, None, :]
    # points that do not involve x: (1, n, n) grids over (y, z)
    zy, yz = mp[Z, Y], mp[Y, Z]
    sy, sz = sp[Y], sp[Z]
    szy, syz = sp[zy], sp[yz]
    yz_ok = (zy >= 0) & (yz >= 0)
    g_gap = np.abs(_val(g.values, zy) - _val(g.values, yz))
    gv = np.abs(g.values)
    rhs = (2.0 * gv[None, None, :] + 2.0 * gv[None, :, None] + 6.0) * delta
    fv = np.abs(f.values)

    def slices():
        for xs in _x_slices(n):
            X = xs[:, None, None]
            xy, xz = mp[X, Y], mp[X, Z]
            syx, szx = mp[sy, X], mp[sz, X]
            valid = yz_ok & (xy >= 0) & (xz >= 0) & (syx >= 0) & (szx >= 0)
            # x(zy), x(yz), sigma(y)(xz), sigma(z)(xy) are the same elements
            # as the next four points, so they need no gather of their own
            valid &= mp[xz, Y] >= 0
            valid &= mp[xy, Z] >= 0
            valid &= mp[syx, Z] >= 0
            valid &= mp[szx, Y] >= 0
            valid &= mp[szy, X] >= 0
            valid &= mp[syz, X] >= 0
            valid &= mp[sy, szx] >= 0
            valid &= mp[sz, syx] >= 0
            yield g_gap * fv[X] - rhs, valid

    return _row_from_slices("centrality_defect", "2|g(z)|d + 2|g(y)|d + 6d",
                            (n, n, n), slices())


def audit_mg_shift_bound(domain, sigma, chi, f, g, delta):
    """|m_g(y) f(x) - chi(y) f(sigma(y) x y)| <= |g(y)| delta + 1.5 delta."""
    n = domain.n
    mul = domain.mul
    mp, sp = _padded(mul), _padded(sigma.table)
    X = np.arange(n)[:, None]
    Y = np.arange(n)[None, :]
    sq = mul[np.arange(n), np.arange(n)]
    xy = mp[X, Y]
    y2 = np.broadcast_to(sq[None, :], (n, n))
    syx = mp[sp[Y], X]
    syxy = mp[syx, Y]
    points = [xy, y2, mp[xy, Y], mp[X, y2], syx, syxy, mp[sp[y2], X]]
    valid = np.ones((n, n), dtype=bool)
    for p in points:
        valid &= p >= 0
    mg = companion_mg(g)
    valid &= mg.defined[None, :]
    lhs = np.abs(mg.values[None, :] * f.values[:, None]
                 - chi.values[None, :] * _val(f.values, syxy))
    rhs = (np.abs(g.values)[None, :] + 1.5) * delta
    return _row("companion_shift_defect", "|g(y)|d + 1.5d", lhs - rhs, valid)


def audit_parity_bound(domain, sigma, chi, f, g, delta):
    """|2 f(x) (g(y) - m_g(y) g(y^{-1}))| <= |m_g(y)| d + 2|g(y)| d + 4d."""
    n = domain.n
    mul, inv = domain.mul, domain.inv
    mp, sp = _padded(mul), _padded(sigma.table)
    X = np.arange(n)[:, None]
    Y = np.arange(n)[None, :]
    Yi = np.broadcast_to(inv[None, :], (n, n))
    sq = mul[np.arange(n), np.arange(n)]
    y2 = np.broadcast_to(sq[None, :], (n, n))
    xy = mp[X, Y]
    xyi = mp[X, Yi]
    syix = mp[sp[Yi], X]
    points = [
        xy, xyi, y2, syix,
        mp[sp[Y], X],
        mp[syix, Y], mp[syix, y2],
        mp[sp[Y], xyi], mp[sp[y2], xyi],
        mp[xyi, y2],
    ]
    valid = np.ones((n, n), dtype=bool)
    for p in points:
        valid &= p >= 0
    mg = companion_mg(g)
    valid &= mg.defined[None, :]
    gv = g.values
    lhs = np.abs(2.0 * f.values[:, None]
                 * (gv[None, :] - mg.values[None, :] * gv[inv][None, :]))
    rhs = (np.abs(mg.values)[None, :] + 2.0 * np.abs(gv)[None, :] + 4.0) * delta
    return _row("parity_defect", "|m_g(y)|d + 2|g(y)|d + 4d", lhs - rhs, valid)


def _section_grids(domain, a):
    n = domain.n
    mul = domain.mul
    X = np.arange(n)[:, None]
    Y = np.arange(n)[None, :]
    ax = np.broadcast_to(mul[a][:, None], (n, n))
    ay = np.broadcast_to(mul[a][None, :], (n, n))
    return X, Y, ax, ay


def audit_sine_addition_bound(domain, sigma, chi, f, g, delta, a=0):
    """|f_a(xy) - f_a(x) g(y) - f_a(y) g(x)| <= |g(x)| delta + 1.5 delta.

    Valid when sigma is a homomorphism (its certificate cancels a
    sigma(xy) = sigma(x) sigma(y) pair); raises AuditInapplicable otherwise.
    """
    if not satisfies_morphism_law(domain, sigma.table, "automorphism"):
        raise AuditInapplicable("sigma is not a homomorphism on this domain")
    n = domain.n
    mul, st = domain.mul, sigma.table
    mp, sp = _padded(mul), _padded(st)
    X, Y, ax, ay = _section_grids(domain, a)
    xy = mp[X, Y]
    axy = mp[ax, Y]
    sya = np.broadcast_to(mul[st, a][None, :], (n, n))  # sigma(y) a
    points = [
        xy, ax, ay, axy, mp[a, xy],
        sya, mp[sya, X],
        sp[xy], mp[sp[xy], a],
        mp[sp[X], sya],
    ]
    valid = np.ones((n, n), dtype=bool)
    for p in points:
        valid &= p >= 0
    fv, gv = f.values, g.values
    section = section_function(f, g, a)
    fa = section.values
    valid &= section.defined[:, None] & section.defined[None, :]
    lhs = np.abs(_val(fv, axy) - fv[a] * _val(gv, xy)
                 - fa[:, None] * gv[None, :] - fa[None, :] * gv[:, None])
    rhs = (np.abs(gv)[:, None] + 1.5) * delta
    return _row("section_sine_addition_defect", "|g(x)|d + 1.5d", lhs - rhs, valid)


def audit_symmetrized_sine_addition_bound(domain, sigma, chi, f, g, delta, a=0):
    """|f_a(xy) + f_a(yx) - 2 f_a(x) g(y) - 2 f_a(y) g(x)|
        <= |g(x)| d + |g(y)| d + 3d.

    The symmetrization cancels the sigma(xy) vs sigma(x)sigma(y) mismatch,
    so this holds for automorphisms and anti-automorphisms alike.
    """
    n = domain.n
    mul, st = domain.mul, sigma.table
    mp, sp = _padded(mul), _padded(st)
    X, Y, ax, ay = _section_grids(domain, a)
    xy, yx = mp[X, Y], mp[Y, X]
    axy, ayx = mp[ax, Y], mp[ay, X]
    sya = np.broadcast_to(mul[st, a][None, :], (n, n))
    sxa = np.broadcast_to(mul[st, a][:, None], (n, n))
    points = [
        xy, yx, ax, ay, axy, ayx,
        mp[a, xy], mp[a, yx],
        sya, sxa, mp[sya, X], mp[sxa, Y],
        sp[xy], sp[yx],
        mp[sp[xy], a], mp[sp[yx], a],
        mp[sp[X], sya], mp[sp[Y], sxa],
    ]
    valid = np.ones((n, n), dtype=bool)
    for p in points:
        valid &= p >= 0
    fv, gv = f.values, g.values
    section = section_function(f, g, a)
    fa = section.values
    valid &= section.defined[:, None] & section.defined[None, :]
    fa_xy = _val(fv, axy) - fv[a] * _val(gv, xy)
    fa_yx = _val(fv, ayx) - fv[a] * _val(gv, yx)
    lhs = np.abs(fa_xy + fa_yx - 2.0 * fa[:, None] * gv[None, :]
                 - 2.0 * fa[None, :] * gv[:, None])
    rhs = (np.abs(gv)[:, None] + np.abs(gv)[None, :] + 3.0) * delta
    return _row("symmetrized_sine_addition_defect", "|g(x)|d + |g(y)|d + 3d",
                lhs - rhs, valid)


def audit_scaled_residual_chain(domain, sigma, chi, f, g, delta):
    """2|g(z)| |F(x,y)| <= 6 delta + 2|g(y)| delta, as in the closing chain.

    The chain borrows exact centrality of g, so unlike the other rows this
    one can fail for pairs whose |g| spread exceeds 3; it is reported
    honestly either way. Total tables only.
    """
    if (domain.mul < 0).any():
        raise AuditInapplicable("chain audit needs a total multiplication table")
    from .feq import residual_matrix_wilson
    resid, _ = residual_matrix_wilson(domain, sigma, chi, f, g)
    n = domain.n
    gv = np.abs(g.values)
    rhs = (6.0 + 2.0 * gv[None, :, None]) * delta

    def slices():
        for xs in _x_slices(n):
            lhs = 2.0 * gv[None, None, :] * resid[xs, :, None]
            yield lhs - rhs, np.ones(lhs.shape, dtype=bool)

    return _row_from_slices("scaled_residual_chain", "6d + 2|g(y)|d",
                            (n, n, n), slices())


def run_stability_battery(domain, sigma, chi, f, g, delta, a=0,
                          include_chain=False):
    """The four proof-constant audits (plus the symmetrized variant; plus the
    closing chain on request). Inapplicable audits are reported, not run."""
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
    if include_chain:
        try:
            report.rows.append(
                audit_scaled_residual_chain(domain, sigma, chi, f, g, delta))
        except AuditInapplicable as why:
            report.not_applicable.append(("scaled_residual_chain", str(why)))
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
        gens = ball.kind.generators()
        k = len(ball.kind.abelian_coords(ball.elements[0]))
        zs = []
        for i in range(k):
            coordvec = [0] * k
            coordvec[i] = 1
            gen = None
            for cand in gens:
                if list(ball.kind.abelian_coords(cand)) == coordvec:
                    gen = cand
                    break
            if gen is None or gen not in ball.index:
                zs = None
                break
            z = fv[ball.index[gen]] / fe
            if z == 0:
                zs = None
                break
            zs.append(z)
        if zs:
            m = ball_character(ball, zs).values
            denom = np.vdot(m, m)
            lam = np.vdot(m, fv) / denom
            best = min(best, float(np.abs(fv - lam * m).max()))
    return best


def dichotomy_experiment(kind, radii, f_provider, g_provider=None,
                         preset="SymmetrizedCauchy", sigma_spec="id",
                         chi_zs=None):
    """Per-radius sup, measured residual, and distance to the multiplicative
    family; the growth label across radii exhibits the bounded-or-exact
    dichotomy."""
    radii = sorted(radii)
    rows = []
    sups_f = []
    for r in radii:
        ball = BallDomain(kind, r)
        f = GroupFunction(ball, [f_provider(el) for el in ball.elements])
        g = f if g_provider is None else \
            GroupFunction(ball, [g_provider(el) for el in ball.elements])
        if preset == "SymmetrizedCauchy":
            delta = residual_symmetrized_cauchy(ball, f).sup
        else:
            sigma = ball_involution(ball, sigma_spec)
            chi = ball_character(ball, chi_zs) if chi_zs else \
                ball_character(ball, [1.0] * len(ball.kind.abelian_coords(ball.elements[0])))
            delta = residual_wilson(ball, sigma, chi, f, g).sup
        dist = multiplicative_distance(ball, f)
        rows.append(DichotomyRow(r, f.sup(), g.sup(), delta, dist, ""))
        sups_f.append(f.sup())
    label = classify_growth(sups_f)
    for row in rows:
        row.branch_label = label
    delta_max = max((row.delta for row in rows), default=0.0)
    return StabilityReport(measured_delta=delta_max, growth_rows=rows)


def bounded_noise_candidate(kind, max_radius, seed, epsilon, base=1.0):
    """A deterministic bounded function: base + epsilon * unit phases, fixed
    once on the largest ball so smaller radii see restrictions of it."""
    ball = BallDomain(kind, max_radius)
    rng = np.random.default_rng(seed)
    phases = np.exp(2j * np.pi * rng.uniform(size=ball.n))
    table = {el: base + epsilon * phases[i] for i, el in enumerate(ball.elements)}

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


def _additive_fit(ball, h_values, with_intercept=True):
    """Least-squares fit of h by an additive form over the abelianized
    coordinates (plus an optional constant)."""
    coords = np.array([ball.kind.abelian_coords(el) for el in ball.elements],
                      dtype=np.float64)
    cols = [coords]
    if with_intercept:
        cols.append(np.ones((ball.n, 1)))
    A = np.hstack(cols)
    coef, *_ = np.linalg.lstsq(A, h_values, rcond=None)
    resid = float(np.abs(A @ coef - h_values).max())
    k = coords.shape[1]
    intercept = complex(coef[k]) if with_intercept else 0.0
    return np.asarray(coef[:k]), intercept, resid


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
    last = None
    for r in radii:
        ball = BallDomain(kind, r)
        f = GroupFunction(ball, [f_provider(el) for el in ball.elements])
        g = GroupFunction(ball, [g_provider(el) for el in ball.elements])
        sigma = ball_involution(ball, sigma_spec)
        k = len(ball.kind.abelian_coords(ball.elements[0]))
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
            a_vals = np.array([ball.kind.abelian_coords(el) for el in
                               ball.elements]) @ coef
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
