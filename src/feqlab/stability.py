"""Quantitative stability checks: perturbations, delta-inequality audits,
and the bounded-or-exact dichotomy experiments on growing balls.

Each inequality audit is stated with its certificate: the pair-residual
windows F(u, v) whose signed sum is its left-hand side, so the stated bound
holds wherever every point of those residuals exists. Two certificates also
carry a law on sigma; where sigma fails it, the audit raises
AuditInapplicable instead of returning a row. One evaluator derives
the validity mask from the windows: on a ball, a window (pair or triple) is
skipped exactly when a point of its certificate's residuals leaves the
ball. Skipped windows are counted and reported.

The evaluator gathers only candidate windows. The certificate's points in
two of the letters x, y, z (xy, s(z)x, zy, ...) give n x n pair masks, and
a window is a candidate when every pair mask allows it. Candidates are
gathered in chunks of AUDIT_CHUNK_ENTRIES, so peak memory is O(n^2) (the
padded tables and the pair masks) plus a few MiB. A chunk checks only the
points that use all three letters, dropping the windows they put outside
the ball once those are half of it and the rest after its last check;
any other point is gathered when the excess asks for it, in the ball. Each
certificate is compiled once per sigma class (inversion, the identity, any
other) and per kind whose letters commute or not, and a point that is the
same element as an earlier one or a leaf is never gathered. Table reads per
candidate window in a chunk, the excess's own included: centrality 8.6 on
Z^2 r=4 under inversion and 3.8 under the identity, 10.2 on H3 r=3 and 13.1
on F2 r=2 under inversion; parity none; the companion shift at most 3 and
both sine audits 2 to 4. An audit whose pair masks allow more than
AUDIT_WINDOW_BUDGET windows raises AuditTooLarge before gathering any; the
CLI exits 4 with the estimate.
"""

import functools
import itertools
import math
import re
from dataclasses import dataclass, field

import numpy as np

# residual_symmetrized_cauchy is unused here: the benchmark tracer wraps it
from .feq import (GroupFunction, companion_mg, replaces_max,
                  residual_symmetrized_cauchy, residual_wilson,
                  section_function)
from .groups import BallDomain, Domain, IntegerLattice, ball_elements
from .morphisms import (ball_character, ball_involution, multiplicative_defect,
                        satisfies_morphism_law)

AUDIT_TOL = 1e-9
# windows per gathered chunk of an audit (64 KiB per int32 node array)
AUDIT_CHUNK_ENTRIES = 1 << 14
# most candidate windows one audit may gather, as its pair masks estimate
# them (~40 ns each on 2 vCPU: lattice:2 r=24 under sigma = inv needs 1.9e8)
AUDIT_WINDOW_BUDGET = 300_000_000

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
    return PerturbedPair(f2, g2, rep.sup)


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


class AuditTooLarge(ValueError):
    """An audit's candidate windows exceed AUDIT_WINDOW_BUDGET; the message
    carries the estimate."""


def _padded(table):
    """The index table as int32 with a -1 appended along each axis. Indexing
    it with -1 (outside the ball) lands on the pad, so -1 propagates through
    products and sigma without masking; indices must lie in [-1, n)."""
    out = np.full([s + 1 for s in table.shape], -1, dtype=np.int32)
    out[tuple(slice(s) for s in table.shape)] = table
    return out


def _tables(domain, sigma):
    """The flat padded product table, where u * (n + 1) + v lands on the pad
    whenever u or v is -1, the padded sigma table and the inverses, as int32
    (the element cap keeps (n + 1)^2 far below 2^31)."""
    return (_padded(domain.mul).ravel(), _padded(sigma.table),
            domain.inv.astype(np.int32))


def _row_from_chunks(name, bound, total, chunks):
    """Audit row of a grid of `total` windows, given as chunks (excess,
    windows) of evaluated windows only, in C order of the grid: `windows`
    holds one index array per axis. A window in no chunk is skipped.

    Gives what one argmax over the evaluated windows gives: the first
    C-order witness wins ties (a later chunk must be strictly larger) and
    NaN beats any number, as in np.argmax.
    """
    evaluated = 0
    worst, witness = None, ()
    for excess, windows in chunks:
        if len(excess):
            i = int(np.argmax(excess))
            if replaces_max(excess[i], worst):
                worst, witness = excess[i], tuple(int(w[i]) for w in windows)
        evaluated += len(excess)
    if evaluated == 0:
        return StabilityAuditRow(name, bound, 0.0, (), 0, total, True)
    worst = float(worst)
    return StabilityAuditRow(name, bound, worst, witness, evaluated,
                             total - evaluated, worst <= AUDIT_TOL)


def _candidate_blocks(masks, n):
    """Blocks of windows, in C order, that every pair mask allows: the
    (x, y) of masks = [xy], or, from masks = [xy, xz, yz], the (x, y, z)
    with (x, y), (x, z) and (y, z) allowed. Row blocks of xy give the (x, y)
    pairs; each run of AUDIT_CHUNK_ENTRIES // n pairs ANDs its rows of xz
    and yz to give their z. A block is one index array per axis, of at most
    max(n, AUDIT_CHUNK_ENTRIES) windows."""
    rows = max(1, AUDIT_CHUNK_ENTRIES // n)
    for x0 in range(0, n, rows):
        # flatnonzero and one division: 2-d nonzero and np.divmod are slower
        xs, ys = _divmod(np.flatnonzero(masks[0][x0:x0 + rows]), n)
        xs += x0
        if len(masks) == 1:
            yield [xs, ys]
            continue
        for p0 in range(0, len(xs), rows):
            px, py = xs[p0:p0 + rows], ys[p0:p0 + rows]
            both = masks[1].take(px, axis=0) & masks[2].take(py, axis=0)
            pair, zs = _divmod(np.flatnonzero(both), n)
            yield [px.take(pair), py.take(pair), zs]


def _divmod(flat, n):
    """(flat // n, flat % n) as int32, for 0 <= flat < 2^31."""
    flat = flat.astype(np.int32)
    q = flat // n
    return q, flat - q * n


def _chunks(blocks, size):
    """The blocks' windows regrouped into chunks of exactly `size` windows,
    the last one shorter; a cut may fall inside a block."""
    held, count = [], 0
    for block in blocks:
        while len(block[0]):
            take = size - count
            held.append([b[:take] for b in block])
            count += len(held[-1][0])
            block = [b[take:] for b in block]
            if count == size:
                yield [np.concatenate(parts) for parts in zip(*held)]
                held, count = [], 0
    if count:
        yield [np.concatenate(parts) for parts in zip(*held)]


@dataclass(frozen=True)
class Certificate:
    """An audit's row name, stated bound, the pair-residual windows (u, v)
    whose signed sum is its left-hand side, and the law sigma must satisfy
    for that (None: any sigma). Words use the letters x, y, z, a, a capital
    for an inverse (Y = y^-1) and s(w) for sigma(w); w, and so v, holds no
    s. The first window to reach a node fixes how it is built; any grouping
    gives the same element."""
    name: str
    bound: str
    windows: tuple
    law: str | None = None


CENTRALITY = Certificate(
    "centrality_defect", "2|g(z)|d + 2|g(y)|d + 6d",
    (("s(y)x", "z"), ("s(z)x", "y"), ("xz", "y"), ("xy", "z"), ("x", "zy"),
     ("x", "yz"), ("x", "z"), ("x", "y")), "anti-automorphism")
COMPANION_SHIFT = Certificate(
    "companion_shift_defect", "|g(y)|d + 1.5d",
    (("x", "y"), ("xy", "y"), ("s(y)x", "y"), ("x", "yy")))
PARITY = Certificate(
    "parity_defect", "|m_g(y)|d + 2|g(y)|d + 4d",
    (("x", "Y"), ("xY", "y"), ("s(y)xY", "y"), ("xY", "yy"), ("s(Y)x", "y"),
     ("s(Y)xy", "y"), ("s(Y)x", "yy")))
SECTION_SINE = Certificate(
    "section_sine_addition_defect", "|g(x)|d + 1.5d",
    (("a", "xy"), ("ax", "y"), ("s(y)a", "x"), ("a", "y")), "automorphism")
SYMMETRIZED_SINE = Certificate(
    "symmetrized_sine_addition_defect", "|g(x)|d + |g(y)|d + 3d",
    SECTION_SINE.windows + (("a", "yx"), ("ay", "x"), ("s(x)a", "y"),
                            ("a", "x")))


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


def _normal_form(word, sigma_class, commutes):
    """A node word written so that two nodes with one form are one element.
    Under inversion or the identity, each s(w) is w^-1 or w, adjacent
    inverse letters cancel and, where the kind's letters commute, letters
    are sorted. Under any other sigma (class None) the word is its form."""
    if not sigma_class:
        return word
    flat = re.sub(r"s\((\w+)\)", lambda s: s[1][::-1].swapcase()
                  if sigma_class == "inv" else s[1], word)
    out = []
    # sorting aliases xy and yx: lattice:2 r<=8 audits ran ~30% slower without
    for c in sorted(flat, key=str.lower) if commutes else flat:
        if out and out[-1] == c.swapcase():
            out.pop()
        else:
            out.append(c)
    return "".join(out)


@functools.lru_cache(maxsize=None)
def _compile(cert, sigma_class, commutes):
    """cert's program for a sigma that is inversion ("inv"), the identity
    ("id") or any other (None), on a kind whose letters commute or not;
    built once for each. A node of _program(cert.windows) whose _normal_form
    is an earlier node's or a leaf's is bound to it (alias) and never
    gathered: where that one lies in the ball, so does the same element,
    since inversion and the identity map a ball onto itself. Every product
    node of another form is checked, so validity is unchanged.

    Returns (axes, build, alias, factors, checks): build maps each product
    node to its two factors, and each sigma node and inverse leaf (Y) that
    a node is built from to its one; factors are the leaves and every node
    some node is built from; checks hold the product nodes, in evaluation
    order, for each pair of axes those whose words use no other axis, then
    those left, which use all three (none on a pair grid)."""
    axes = [c for c in "xyz"
            if any(c in (u + v).lower() for u, v in cert.windows)]
    build = {c.upper(): (c,) for c in axes}
    seen = {c: c for c in ["a", *axes, *build]}
    alias = {}
    for key, ops in _program(cert.windows).items():
        form = _normal_form(key, sigma_class, commutes)
        if form in seen:
            alias[key] = seen[form]
        else:
            seen[form] = key
            build[key] = tuple(alias.get(k, k) for k in ops)
    used = {k for ops in build.values() for k in ops}
    build = {k: ops for k, ops in build.items() if len(ops) == 2 or k in used}
    factors = {"a", *axes}.union(*build.values())
    products = [k for k, ops in build.items() if len(ops) == 2]
    # no factor of a node uses a letter its word does not use
    checks = [[k for k in products
               if not (set(axes) - {p, q}) & set(k.lower())]
              for p, q in itertools.combinations(axes, 2)]
    checks.append([k for k in products if not any(k in c for c in checks)])
    return axes, build, alias, factors, checks


def _certified_row(cert, domain, sigma, excess, a=0):
    """Audit row over the (x, y[, z]) grid of a certificate's windows.

    A window is evaluated exactly when every product node of its residuals
    lies in the ball (is >= 0 in the padded table); for any grouping of a
    word that is when the element itself lies in it, since every factor is
    a node too. The program is _compile's for sigma's class (its table
    against the inverses and the identity) and the kind's commutativity.
    Each pair of axes gives one n x n mask of the nodes that use only its
    letters, built in row blocks of about AUDIT_CHUNK_ENTRIES entries. The
    windows every pair mask allows (_candidate_blocks) go out as flat
    C-order index arrays in chunks of AUDIT_CHUNK_ENTRIES windows, where
    only the nodes that use all three letters are checked: the pair masks
    already put every other node of a candidate in the ball. A chunk drops
    the windows that left the ball once they are half of it and after its
    last check, from every node array in one index that keeps C order (the
    axes only, after the last), and is skipped when none is left. So
    excess(node) gives LHS - RHS on a chunk of evaluated windows, where
    node(word) is the index array of a node, or of the node it is bound to,
    in the ball, gathered when asked for (only factors are kept). Every call
    pads its own tables with _tables, after the law check.

    Raises AuditInapplicable first when sigma fails the certificate's law
    on the domain: there the windows do not sum to the left-hand side, so
    no row would be a verdict. Raises AuditTooLarge before any chunk is
    gathered when the pair masks allow more than AUDIT_WINDOW_BUDGET
    windows: sum over x of |Y_x| |Z_x| on a triple grid, of |Y_x| on a pair
    grid.
    """
    if cert.law and not satisfies_morphism_law(domain, sigma.table, cert.law):
        what = ("an anti-homomorphism" if cert.law == "anti-automorphism"
                else "a homomorphism")
        raise AuditInapplicable(f"sigma is not {what} on this domain")
    n, m = domain.n, domain.n + 1
    sigma_class = ("inv" if np.array_equal(sigma.table, domain.inv) else
                   "id" if np.array_equal(sigma.table, np.arange(n)) else None)
    axes, build, alias, factors, checks = _compile(
        cert, sigma_class, getattr(domain.kind, "commutative", False))
    mp, sp, inv = _tables(domain, sigma)

    def node(env, word):
        """word's index array on env's windows, gathered with every factor
        env lacks; factors are kept in env, and only word can be no factor.
        A worklist, not recursion: a closure that calls itself is a
        reference cycle, which would hold the tables and each chunk's arrays
        until the cyclic collector runs."""
        word = alias.get(word, word)
        todo = [word]
        while todo:
            key = todo.pop()
            if key in env:
                continue
            ops = build[key]
            missing = [k for k in ops if k not in env]
            if missing:
                todo += [key, *missing]
                continue
            grid = (mp.take(env[ops[0]] * m + env[ops[1]]) if len(ops) == 2
                    else (inv if key.isupper() else sp).take(env[ops[0]]))
            if key not in factors:
                return grid
            env[key] = grid
        return env[word]

    def pair_mask(p, q, keys):
        mask = np.ones((n, n), dtype=bool)
        rows = max(1, AUDIT_CHUNK_ENTRIES // n)
        ids = np.arange(n, dtype=np.int32)
        for p0 in range(0, n, rows):
            env = {"a": a, q: ids[None], p: ids[p0:p0 + rows, None]}
            for key in keys:
                mask[p0:p0 + rows] &= node(env, key) >= 0
        return mask

    masks = [pair_mask(p, q, keys) for (p, q), keys
             in zip(itertools.combinations(axes, 2), checks)]
    work = masks[0].sum(axis=1)
    if len(masks) == 3:
        work = work * masks[1].sum(axis=1)
    work = int(work.sum())
    if work > AUDIT_WINDOW_BUDGET:
        raise AuditTooLarge(
            f"the {cert.name} audit on {n} elements exceeds the window "
            f"budget: its certificate's pair masks leave {work} candidate "
            f"windows to gather (budget {AUDIT_WINDOW_BUDGET})")

    def chunks():
        for window in _chunks(_candidate_blocks(masks, n),
                              AUDIT_CHUNK_ENTRIES):
            env, valid = dict(zip(axes, window), a=a), True
            for key in checks[-1]:
                valid = valid & (node(env, key) >= 0)
                count, last = np.count_nonzero(valid), key == checks[-1][-1]
                # dropping at half spares later gathers (heisenberg r=8: 2-8%)
                if 2 * count <= len(valid) or (last and count < len(valid)):
                    if not count:
                        break
                    # after the last check the excess gathers any factor anew
                    live, valid = np.flatnonzero(valid), True
                    env = {k: e.take(live) if isinstance(e, np.ndarray) else e
                           for k, e in env.items()
                           if not last or k in axes or k == "a"}
            else:
                yield (excess(lambda word: node(env, word)),
                       [env[c] for c in axes])

    return _row_from_chunks(cert.name, cert.bound, n ** len(axes), chunks())


def audit_centrality_bound(domain, sigma, chi, f, g, delta):
    """|g(zy) - g(yz)| |f(x)| <= 2|g(z)| delta + 2|g(y)| delta + 6 delta.

    Certificate: when sigma is an anti-automorphism, f(x) (g(zy) - g(yz))
    is a combination of the eight residuals of CENTRALITY.windows; with no
    law it is not, and the audit raises AuditInapplicable (CENTRALITY.law).
    Only the windows its pair masks allow are gathered, in chunks, so peak
    memory is O(n^2) plus a few MiB for any ball size.
    """
    gv, ag, fv = g.values, np.abs(g.values), np.abs(f.values)

    def excess(node):
        Y, Z = node("y"), node("z")
        gap = np.abs(gv.take(node("zy")) - gv.take(node("yz")))
        return (gap * fv.take(node("x"))
                - (2.0 * ag.take(Z) + 2.0 * ag.take(Y) + 6.0) * delta)

    return _certified_row(CENTRALITY, domain, sigma, excess)


def audit_mg_shift_bound(domain, sigma, chi, f, g, delta):
    """|m_g(y) f(x) - chi(y) f(sigma(y) x y)| <= |g(y)| delta + 1.5 delta."""
    mg = companion_mg(g).values
    rhs = (np.abs(g.values) + 1.5) * delta

    def excess(node):
        Y = node("y")
        lhs = np.abs(mg.take(Y) * f.values.take(node("x"))
                     - chi.values.take(Y) * f.values.take(node("s(y)xy")))
        return lhs - rhs.take(Y)

    return _certified_row(COMPANION_SHIFT, domain, sigma, excess)


def audit_parity_bound(domain, sigma, chi, f, g, delta):
    """|2 f(x) (g(y) - m_g(y) g(y^{-1}))| <= |m_g(y)| d + 2|g(y)| d + 4d."""
    mg = companion_mg(g).values
    gv = g.values
    gap = gv - mg * gv[domain.inv]
    rhs = (np.abs(mg) + 2.0 * np.abs(gv) + 4.0) * delta

    def excess(node):
        Y = node("y")
        return (np.abs(2.0 * f.values.take(node("x")) * gap.take(Y))
                - rhs.take(Y))

    return _certified_row(PARITY, domain, sigma, excess)


def audit_sine_addition_bound(domain, sigma, chi, f, g, delta, a=0):
    """|f_a(xy) - f_a(x) g(y) - f_a(y) g(x)| <= |g(x)| delta + 1.5 delta.

    Valid when sigma is a homomorphism (its certificate cancels a
    sigma(xy) = sigma(x) sigma(y) pair); raises AuditInapplicable otherwise
    (SECTION_SINE.law).
    """
    fv, gv = f.values, g.values
    fa = section_function(f, g, a).values

    def excess(node):
        X, Y = node("x"), node("y")
        lhs = np.abs(fv[node("axy")] - fv[a] * gv[node("xy")]
                     - fa[X] * gv[Y] - fa[Y] * gv[X])
        return lhs - (np.abs(gv)[X] + 1.5) * delta

    return _certified_row(SECTION_SINE, domain, sigma, excess, a)


def audit_symmetrized_sine_addition_bound(domain, sigma, chi, f, g, delta,
                                          a=0):
    """|f_a(xy) + f_a(yx) - 2 f_a(x) g(y) - 2 f_a(y) g(x)|
        <= |g(x)| d + |g(y)| d + 3d.

    The symmetrization cancels the sigma(xy) vs sigma(x)sigma(y) mismatch,
    so this holds for automorphisms and anti-automorphisms alike.
    """
    fv, gv = f.values, g.values
    fa = section_function(f, g, a).values

    def excess(node):
        X, Y = node("x"), node("y")
        fa_xy = fv[node("axy")] - fv[a] * gv[node("xy")]
        fa_yx = fv[node("ayx")] - fv[a] * gv[node("yx")]
        lhs = np.abs(fa_xy + fa_yx - 2.0 * fa[X] * gv[Y]
                     - 2.0 * fa[Y] * gv[X])
        return lhs - (np.abs(gv)[X] + np.abs(gv)[Y] + 3.0) * delta

    return _certified_row(SYMMETRIZED_SINE, domain, sigma, excess, a)


def run_stability_battery(domain, sigma, chi, f, g, delta, a=0):
    """The four proof-constant audits plus the symmetrized variant, in this
    order, each on tables it pads itself. An audit whose certificate's law
    sigma fails raises AuditInapplicable before it gathers anything, and is
    reported N/A."""
    report = StabilityReport(measured_delta=delta)
    for cert, audit, kw in (
            (CENTRALITY, audit_centrality_bound, {}),
            (COMPANION_SHIFT, audit_mg_shift_bound, {}),
            (PARITY, audit_parity_bound, {}),
            (SECTION_SINE, audit_sine_addition_bound, {"a": a}),
            (SYMMETRIZED_SINE, audit_symmetrized_sine_addition_bound,
             {"a": a})):
        try:
            report.rows.append(audit(domain, sigma, chi, f, g, delta, **kw))
        except AuditInapplicable as why:
            report.not_applicable.append((cert.name, str(why)))
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
        # z_i is read off at the generator with coordinates e_i, found among
        # the elements of word length 1
        gens = np.flatnonzero(ball.length == 1)
        unit = np.eye(ball.coords.shape[1], dtype=np.int64)
        hits = (ball.coords[gens] == unit[:, None]).all(axis=2)
        zs = None if not hits.any(axis=1).all() else \
            [fv[i] / fe for i in gens[hits.argmax(axis=1)]]
        if zs and all(z != 0 for z in zs):
            m = ball_character(ball, zs).values
            # a power of two keeps every bit and |m|^2 within range
            m *= 2.0 ** -np.frexp(np.abs(m).max())[1]
            denom = np.vdot(m, m)
            lam = np.vdot(m, fv) / denom
            best = min(best, float(np.abs(fv - lam * m).max()))
    return best


def _growing_pairs(space, radii, f_values, g_values=None, sigma_spec="id",
                   chi_zs=None):
    """(radius, ball, f, g, sigma, chi, delta) for each radius in increasing
    order, on the restrictions of one ball: `space` itself, with value
    vectors in BFS order, or the largest ball of the kind `space`, read
    through element providers. g is f where g_values is None; sigma is the
    named ball involution, chi the coordinate character of chi_zs (1 by
    default) and delta the sup of the pair residual of (f, g)."""
    radii = sorted(radii)
    largest = space
    if not isinstance(space, Domain):
        largest = BallDomain(space, radii[-1])
        f_values, g_values = [
            None if p is None else np.asarray(
                [p(el) for el in largest.elements], dtype=np.complex128)
            for p in (f_values, g_values)]
    for r in radii:
        ball = largest.restrict(r)
        f = GroupFunction(ball, f_values[:ball.n])
        g = f if g_values is None else GroupFunction(ball, g_values[:ball.n])
        sigma = ball_involution(ball, sigma_spec)
        chi = ball_character(ball, chi_zs or [1.0] * ball.coords.shape[1])
        yield (r, ball, f, g, sigma, chi,
               residual_wilson(ball, sigma, chi, f, g).sup)


def dichotomy_experiment(space, radii, f_values, g_values=None,
                         sigma_spec="id", chi_zs=None):
    """Per-radius sup, measured residual, and distance to the multiplicative
    family; the growth label across radii exhibits the bounded-or-exact
    dichotomy. `space` is the ball of the largest radius with value
    vectors on it, or a ball kind with element providers
    (_growing_pairs). By default (sigma = id, chi = 1, g = f) the residual
    is the symmetrized Cauchy one, |f(xy) + f(yx) - 2 f(x) f(y)|."""
    rows = []
    for r, ball, f, g, _, _, delta in _growing_pairs(
            space, radii, f_values, g_values, sigma_spec, chi_zs):
        dist = multiplicative_distance(ball, f)
        rows.append(DichotomyRow(r, f.sup(), g.sup(), delta, dist, ""))
    label = classify_growth([row.sup_f for row in rows])
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


def _additive_fit(ball, h_values):
    """Least-squares fit of h by an additive form over the abelianized
    coordinates plus a constant."""
    coords = ball.coords.astype(np.float64)
    A = np.hstack([coords, np.ones((ball.n, 1))])
    coef, *_ = np.linalg.lstsq(A, h_values, rcond=None)
    resid = float(np.abs(A @ coef - h_values).max())
    k = coords.shape[1]
    return np.asarray(coef[:k]), complex(coef[k]), resid


def theorem37_case_scan(space, radii, f_values, g_values, sigma_spec="inv",
                        chi_zs=None, tol=1e-8):
    """Label an approximate pair with its structure branch on the balls of
    `space`: a built ball with value vectors, or a kind with providers.

    Branches: f = 0; both bounded; f growing with g bounded (g must then be
    multiplicative and sigma-symmetric, and an additive fit makes f - a g
    bounded); both growing (proportional to g, additive-times-g, or the
    mixed two-character form). Ambiguous growth is labeled inconclusive.
    """
    table = []
    # the last pass, on the largest ball itself, leaves the pair that the
    # branch checks below examine
    for r, ball, f, g, sigma, chi, delta in _growing_pairs(
            space, radii, f_values, g_values, sigma_spec, chi_zs):
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
        details["g_multiplicative_defect"] = multiplicative_defect(
            ball, g.values)
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
    i1 = int(np.argmax(ball.coords[:, 0] == 1))  # on Z^1, coords[x] = x
    if ball.coords[i1, 0] != 1:
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
