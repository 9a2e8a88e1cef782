"""Reference audits, as the library computed them before its evaluator
gathered only candidate windows. Tests compare the library's audit rows
with these, witness and counts included.

* oracle_row is one argmax over a whole grid; row_from_slices merges
  consecutive x-slices of a grid (x_slices) into the same row.
* oracle_centrality builds all eighteen points of the centrality
  certificate over the whole n x n x n grid, with explicit masks for points
  outside the ball, and takes one argmax.
* The old_* audits list by hand the points that must lie in the ball, as
  the audits did before their masks were derived from the certificates.
  old_centrality_bound is evaluated in x-slices; the pair audits are one
  n x n grid each.
* pair_valid is the dense mask of the windows a two-letter certificate
  evaluates, as centrality_valid is centrality's.
* candidate_blocks lists the windows an evaluator's pair masks allow, one
  x at a time, as the evaluator did before it listed (x, y) pairs in
  blocks.
* plain_program and program_row are the evaluator as it was before each
  certificate was compiled once per sigma class: the program is parsed
  from the words on every call, and program_row builds every node of
  plain_program(cert.windows) on every candidate window. Set on the module
  as stability._certified_row, it runs the library's own audits.
"""

import itertools
import re

import numpy as np

from feqlab import stability
from feqlab.feq import companion_mg, section_function
from feqlab.morphisms import satisfies_morphism_law
from feqlab.stability import AUDIT_TOL, AuditInapplicable, StabilityAuditRow


def _padded(table):
    """The index table with a -1 appended along each axis."""
    return np.pad(table, [(0, 1)] * table.ndim, constant_values=-1)


def _val(values, idx):
    """values at the ids idx, and 0 where an id is -1 (outside the ball)."""
    return np.append(values, 0.0).take(idx)


def x_slices(n, ndim, entries=1 << 18):
    """Consecutive x-ranges of an n^ndim grid, each about `entries` entries
    (at least one x per slice)."""
    step = max(1, entries // n ** (ndim - 1))
    for x0 in range(0, n, step):
        yield np.arange(x0, min(x0 + step, n))


def row_from_slices(name, bound, shape, slices, tol=AUDIT_TOL):
    """Audit row of a grid of this shape, given as consecutive slices
    (excess, valid) along its first axis: the first C-order witness wins
    ties (a later slice must be strictly larger) and NaN beats any number,
    as in np.argmax."""
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


def candidate_blocks(masks, n, entries):
    """Blocks of windows, in C order, that every pair mask allows: the
    (x, y) of masks = [xy] in row blocks of about `entries` entries, or,
    from masks = [xy, xz, yz], for each x the (y, z) in Y_x x Z_x that the
    (y, z) mask allows, in runs of y of about `entries` windows."""
    if len(masks) == 1:
        rows = max(1, entries // n)
        for x0 in range(0, n, rows):
            xs, ys = np.nonzero(masks[0][x0:x0 + rows])
            yield [(xs + x0).astype(np.int32), ys.astype(np.int32)]
        return
    xy, xz, yz = masks
    for x in range(n):
        ys = np.flatnonzero(xy[x]).astype(np.int32)
        zs = np.flatnonzero(xz[x]).astype(np.int32)
        step = max(1, entries // max(1, len(zs)))
        for y0 in range(0, len(ys), step):
            yi, zi = np.nonzero(yz[np.ix_(ys[y0:y0 + step], zs)])
            yield [np.full(len(yi), x, dtype=np.int32), ys[y0 + yi], zs[zi]]


def oracle_row(name, bound, excess, valid, tol=AUDIT_TOL):
    total = int(np.prod(valid.shape))
    evaluated = int(valid.sum())
    if evaluated == 0:
        return StabilityAuditRow(name, bound, 0.0, (), 0, total, True)
    masked = np.where(valid, excess, -np.inf)
    flat = int(np.argmax(masked))
    witness = tuple(int(i) for i in np.unravel_index(flat, valid.shape))
    worst = float(masked.flat[flat])
    return StabilityAuditRow(name, bound, worst, witness, evaluated,
                             total - evaluated, worst <= tol)


def _chain(mul, a, b):
    """Product of index grids with outside (-1) propagation."""
    a = np.asarray(a)
    b = np.asarray(b)
    ok = (a >= 0) & (b >= 0)
    return np.where(ok, mul[np.maximum(a, 0), np.maximum(b, 0)], -1)


def _map(table, idx):
    idx = np.asarray(idx)
    return np.where(idx >= 0, table[np.maximum(idx, 0)], -1)


def centrality_valid(domain, sigma):
    """The n x n x n mask of windows whose eighteen centrality points all
    lie in the ball. Each full grid is dropped once it is folded in."""
    n = domain.n
    mul, st = domain.mul, sigma.table
    X = np.arange(n)[:, None, None]
    Y = np.arange(n)[None, :, None]
    Z = np.arange(n)[None, None, :]
    zy, yz = _chain(mul, Z, Y), _chain(mul, Y, Z)
    xy, xz = _chain(mul, X, Y), _chain(mul, X, Z)
    syx = _chain(mul, _map(st, Y), X)
    szx = _chain(mul, _map(st, Z), X)
    points = [
        lambda: zy, lambda: yz, lambda: xy, lambda: xz,
        lambda: _chain(mul, xz, Y), lambda: _chain(mul, xy, Z),
        lambda: _chain(mul, X, zy), lambda: _chain(mul, X, yz),
        lambda: syx, lambda: szx,
        lambda: _chain(mul, syx, Z), lambda: _chain(mul, szx, Y),
        lambda: _chain(mul, _map(st, Y), xz),
        lambda: _chain(mul, _map(st, Z), xy),
        lambda: _chain(mul, _map(st, zy), X),
        lambda: _chain(mul, _map(st, yz), X),
        lambda: _chain(mul, _map(st, Y), szx),
        lambda: _chain(mul, _map(st, Z), syx),
    ]
    valid = np.ones((n, n, n), dtype=bool)
    for point in points:
        valid &= point() >= 0
    return valid


def oracle_centrality(domain, sigma, chi, f, g, delta, valid=None):
    """The centrality row from one argmax over the whole grid; `valid`, if
    given, is centrality_valid(domain, sigma)."""
    if valid is None:
        valid = centrality_valid(domain, sigma)
    mul = domain.mul
    n = domain.n
    Y = np.arange(n)[:, None]
    Z = np.arange(n)[None, :]
    gap = np.abs(_val(g.values, _chain(mul, Z, Y))
                 - _val(g.values, _chain(mul, Y, Z)))
    gv = np.abs(g.values)
    lhs = gap[None] * np.abs(f.values)[:, None, None]
    rhs = (2.0 * gv[None, None, :] + 2.0 * gv[None, :, None] + 6.0) * delta
    return oracle_row("centrality_defect", "2|g(z)|d + 2|g(y)|d + 6d",
                      lhs - rhs, valid)


def old_centrality_bound(domain, sigma, chi, f, g, delta):
    """|g(zy) - g(yz)| |f(x)| <= 2|g(z)| delta + 2|g(y)| delta + 6 delta.

    Certificate: when sigma is an anti-automorphism, the difference is a
    combination of eight pair residuals at points built from x, y, z;
    windows where any of them leaves the ball are skipped. Raises
    AuditInapplicable for any other sigma. The n^3 grid is evaluated in
    slices of x, so peak memory is O(n^2) for any ball size.
    """
    if not satisfies_morphism_law(domain, sigma.table, "anti-automorphism"):
        raise AuditInapplicable("sigma is not an anti-homomorphism on this "
                                "domain")
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
        for xs in x_slices(n, 3):
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

    return row_from_slices("centrality_defect", "2|g(z)|d + 2|g(y)|d + 6d",
                            (n, n, n), slices())


def old_mg_shift_bound(domain, sigma, chi, f, g, delta):
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
    valid &= (sq >= 0)[None, :]
    lhs = np.abs(mg.values[None, :] * f.values[:, None]
                 - chi.values[None, :] * _val(f.values, syxy))
    rhs = (np.abs(g.values)[None, :] + 1.5) * delta
    return oracle_row("companion_shift_defect", "|g(y)|d + 1.5d", lhs - rhs, valid)


def old_parity_bound(domain, sigma, chi, f, g, delta):
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
    valid &= (sq >= 0)[None, :]
    gv = g.values
    lhs = np.abs(2.0 * f.values[:, None]
                 * (gv[None, :] - mg.values[None, :] * gv[inv][None, :]))
    rhs = (np.abs(mg.values)[None, :] + 2.0 * np.abs(gv)[None, :] + 4.0) * delta
    return oracle_row("parity_defect", "|m_g(y)|d + 2|g(y)|d + 4d", lhs - rhs, valid)


def _section_grids(domain, a):
    n = domain.n
    mul = domain.mul
    X = np.arange(n)[:, None]
    Y = np.arange(n)[None, :]
    ax = np.broadcast_to(mul[a][:, None], (n, n))
    ay = np.broadcast_to(mul[a][None, :], (n, n))
    return X, Y, ax, ay


def old_sine_addition_bound(domain, sigma, chi, f, g, delta, a=0):
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
    valid &= (mul[a] >= 0)[:, None] & (mul[a] >= 0)[None, :]
    lhs = np.abs(_val(fv, axy) - fv[a] * _val(gv, xy)
                 - fa[:, None] * gv[None, :] - fa[None, :] * gv[:, None])
    rhs = (np.abs(gv)[:, None] + 1.5) * delta
    return oracle_row("section_sine_addition_defect", "|g(x)|d + 1.5d", lhs - rhs, valid)


def old_symmetrized_sine_addition_bound(domain, sigma, chi, f, g, delta, a=0):
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
    valid &= (mul[a] >= 0)[:, None] & (mul[a] >= 0)[None, :]
    fa_xy = _val(fv, axy) - fv[a] * _val(gv, xy)
    fa_yx = _val(fv, ayx) - fv[a] * _val(gv, yx)
    lhs = np.abs(fa_xy + fa_yx - 2.0 * fa[:, None] * gv[None, :]
                 - 2.0 * fa[None, :] * gv[:, None])
    rhs = (np.abs(gv)[:, None] + np.abs(gv)[None, :] + 3.0) * delta
    return oracle_row("symmetrized_sine_addition_defect", "|g(x)|d + |g(y)|d + 3d",
                lhs - rhs, valid)


OLD_AUDITS = {
    "audit_centrality_bound": old_centrality_bound,
    "audit_mg_shift_bound": old_mg_shift_bound,
    "audit_parity_bound": old_parity_bound,
    "audit_sine_addition_bound": old_sine_addition_bound,
    "audit_symmetrized_sine_addition_bound":
        old_symmetrized_sine_addition_bound,
}
SECTION_AUDITS = ("audit_sine_addition_bound",
                  "audit_symmetrized_sine_addition_bound")




def plain_program(windows):
    """Every node of the windows' residuals F(u, v), in evaluation order,
    keyed by its word written flat and mapped to the keys it is built from,
    none aliased."""
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


def pair_valid(cert, domain, sigma, a=0):
    """The n x n mask of the (x, y) windows of a two-letter certificate
    whose every node of plain_program(cert.windows) lies in the ball; a
    three-letter one's is centrality_valid."""
    n = domain.n
    X, Y = np.arange(n)[:, None], np.arange(n)[None, :]
    env = {"a": a, "x": X, "y": Y, "X": domain.inv[X], "Y": domain.inv[Y]}
    valid = np.ones((n, n), dtype=bool)
    for key, ops in plain_program(cert.windows).items():
        if len(ops) == 1:
            env[key] = _map(sigma.table, env[ops[0]])
        else:
            env[key] = _chain(domain.mul, env[ops[0]], env[ops[1]])
            valid &= env[key] >= 0
    return valid


def program_row(cert, domain, sigma, excess, a=0):
    """The audit row of stability._certified_row, from every node of
    plain_program(cert.windows) built on every window the pair masks allow,
    with the library's candidate listing, chunks and row merge; each chunk
    hands its excess only the windows whose nodes all lie in the ball. It
    pads its own tables."""
    if cert.law and not satisfies_morphism_law(domain, sigma.table, cert.law):
        what = ("an anti-homomorphism" if cert.law == "anti-automorphism"
                else "a homomorphism")
        raise AuditInapplicable(f"sigma is not {what} on this domain")
    n, m = domain.n, domain.n + 1
    mp = _padded(domain.mul).astype(np.int32).ravel()
    sp = _padded(sigma.table).astype(np.int32)
    inv = domain.inv.astype(np.int32)
    steps = plain_program(cert.windows)
    axes = [c for c in "xyz"
            if any(c in (u + v).lower() for u, v in cert.windows)]

    def leaves(grids):
        env = {"a": a}
        for c, grid in grids.items():
            env[c] = grid
            env[c.upper()] = inv[grid]
        return env

    def run(keys, env, valid):
        for key in keys:
            ops = [env[k] for k in steps[key]]
            if len(ops) == 1:
                env[key] = sp.take(ops[0])
            else:
                env[key] = mp.take(ops[0] * m + ops[1])
                valid &= env[key] >= 0

    def pair_mask(p, q):
        others = set(axes) - {p, q}
        keys = [k for k in steps if not others & set(k.lower())]
        mask = np.ones((n, n), dtype=bool)
        for x in range(n):
            grids = {p: np.array([[x]], dtype=np.int32),
                     q: np.arange(n, dtype=np.int32)[None]}
            run(keys, leaves(grids), mask[x:x + 1])
        return mask

    masks = [pair_mask(p, q) for p, q in itertools.combinations(axes, 2)]

    def chunks():
        blocks = stability._candidate_blocks(masks, n)
        for window in stability._chunks(blocks, stability.AUDIT_CHUNK_ENTRIES):
            env = leaves(dict(zip(axes, window)))
            valid = np.ones(len(window[0]), dtype=bool)
            run(steps, env, valid)
            live = np.flatnonzero(valid)
            env = {k: e.take(live) if isinstance(e, np.ndarray) else e
                   for k, e in env.items()}
            yield excess(env.__getitem__), [w.take(live) for w in window]

    return stability._row_from_chunks(cert.name, cert.bound, n ** len(axes),
                                      chunks())
