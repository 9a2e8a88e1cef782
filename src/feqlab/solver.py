"""Formula-independent solution recovery and classification cross-checks.

For fixed g the pair equation is linear in f, so the full f-space is the
nullspace of an n^2 x n system. Candidate g's need no blind search: whenever
f != 0, g must solve the self-paired specialization, whose solutions are the
mixed-character functions (m + chi m o sigma)/2. Completeness is then a
dimension-and-span comparison between that nullspace and the family
formulas, and a multistart Newton solver recovers the self-paired solution
set without using the formula at all.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .families import dalembert_family, twisted_companion
from .feq import (GroupFunction, companion_mg, parity_parts, residual_wilson,
                  zero_tolerance)
from .morphisms import enumerate_multiplicative, satisfies_morphism_law
from .stability import AuditInapplicable

SVD_KERNEL_CUTOFF = 1e-10
GUARD_BAND = 10.0


# byte budget of one stacked Jacobian block in the Newton search
NEWTON_BLOCK_BYTES = 2**18

# the stacked least-squares gufunc behind np.linalg.lstsq (numpy 1.x names
# the tall-matrix variant lstsq_n)
_LSTSQ_GUFUNC = getattr(_umath_linalg, "lstsq", None) or _umath_linalg.lstsq_n


@dataclass
class SolveResult:
    basis: list
    singular_values: np.ndarray
    ambiguous: bool


def wilson_system_matrix(domain, sigma, chi, g):
    """The n^2 x n matrix A with A f = 0 iff f solves the pair equation."""
    n = domain.n
    mul = domain.mul
    if not domain.is_total:
        raise ValueError("linear solve needs a total multiplication table")
    A = np.zeros((n * n, n), dtype=np.complex128)
    rows = np.arange(n * n)
    xs, ys = rows // n, rows % n
    # each term puts one entry in every row, so no index repeats within a
    # term; where two terms share a column, they add in this order
    A[rows, mul[xs, ys]] += 1.0
    A[rows, mul[sigma.table[ys], xs]] += chi.values[ys]
    A[rows, xs] += -2.0 * g.values[ys]
    return A


def solve_f_given_g(domain, sigma, chi, g):
    """Orthonormal basis of {f : pair residual 0} for this g, via SVD.

    Flags (instead of silently resolving) the case where singular values sit
    on both sides of SVD_KERNEL_CUTOFF within a factor of GUARD_BAND. The
    thin SVD gives the same s and vh as the full one without the n^2 x n^2 U.
    """
    A = wilson_system_matrix(domain, sigma, chi, g)
    _, s, vh = np.linalg.svd(A, full_matrices=False)
    small = s <= SVD_KERNEL_CUTOFF
    near_low = small & (s > SVD_KERNEL_CUTOFF / GUARD_BAND)
    near_high = (~small) & (s < SVD_KERNEL_CUTOFF * GUARD_BAND)
    ambiguous = bool(near_low.any() and near_high.any())
    basis = [GroupFunction(domain, vh[i].conj()) for i in np.flatnonzero(small)]
    return SolveResult(basis, s, ambiguous)


def _angle_key(m):
    """The dedup key of m: "zero", the reduced angle labels of an exact
    character as "(0,1/4,1/2,3/4)", equal exactly when the angles are, or
    the rounded values of any other one."""
    if m.is_zero:
        return "zero"
    if m.turns is not None:
        return "(" + ",".join(m.angle_labels()) + ")"
    return tuple(np.round(m.values, 9))


def _key_label(key):
    """Readable form of a dedup key: zero|(0,1/4,1/2,3/4)-style, its parts
    sorted by str()."""
    return "|".join(part if isinstance(part, str)
                    else "(" + ",".join(str(t) for t in part) + ")"
                    for part in sorted(key, key=str))


def candidate_gs(G, sigma, chi):
    """Self-paired-solution candidates for g, deduplicated.

    m and its twisted companion produce the same g; the dedup key is the
    unordered pair of their angle keys. The candidates keep the order in
    which their keys first appear.
    """
    seen = {}
    for m in enumerate_multiplicative(G):
        M = twisted_companion(m, chi, sigma)
        key = frozenset((_angle_key(m), _angle_key(M)))
        if key in seen:
            seen[key][1].append(m)
        else:
            seen[key] = (dalembert_family(m, chi, sigma), [m])
    return [(key, g, ms) for key, (g, ms) in seen.items()]


def span_distance(vectors, target):
    """sup-norm residual of the best linear fit of target by the vectors,
    after normalizing target to unit sup norm."""
    t = np.asarray(target, dtype=np.complex128)
    scale = np.abs(t).max()
    if scale == 0:
        return 0.0
    t = t / scale
    if not vectors:
        return float(np.abs(t).max())
    A = np.stack([np.asarray(v, dtype=np.complex128) for v in vectors], axis=1)
    coef, *_ = np.linalg.lstsq(A, t, rcond=None)
    return float(np.abs(A @ coef - t).max())


@dataclass
class CompletenessRow:
    g_label: str
    solver_dim: int
    family_dim: int
    max_mismatch: float
    ambiguous: bool
    passed: bool
    g: GroupFunction            # the candidate g this row checked
    basis: list                 # its nullspace basis, as solved


@dataclass
class CompletenessReport:
    group: str
    sigma_label: str
    chi_label: str
    rows: list = field(default_factory=list)

    @property
    def passed(self):
        return all(r.passed for r in self.rows)

    @property
    def any_ambiguous(self):
        return any(r.ambiguous for r in self.rows)

    def table(self):
        """Fixed-format text table: group, sigma, chi, #g, sum f_dim, match?"""
        n_g = len(self.rows)
        total = sum(r.solver_dim for r in self.rows)
        verdict = "PASS" if self.passed else "MISMATCH"
        head = "group sigma chi n_g sum_f_dim match"
        line = f"{self.group} {self.sigma_label} {self.chi_label} {n_g} {total} {verdict}"
        return head + "\n" + line + "\n"


def family_span_for_g(G, sigma, chi, ms):
    """Family f-vectors available over a fixed g: the span of every
    generating m and its twisted companion."""
    seen = {}
    for m in ms:
        for cand in (m, twisted_companion(m, chi, sigma)):
            key = _angle_key(cand)
            if key != "zero" and key not in seen:
                seen[key] = cand.values
    return list(seen.values())


def completeness_check(G, sigma, chi, tol=1e-9):
    """Dimension and span match between the nullspace solver and the
    family formulas, for every candidate g."""
    report = CompletenessReport(G.name, sigma.label or sigma.kind,
                                _chi_label(chi))
    zero_tol = zero_tolerance(G)
    for key, g, ms in candidate_gs(G, sigma, chi):
        # y = e gives 2 f(x) = 2 f(x) g(e), so g = 0 forces f = 0
        basis, ambiguous = [], False
        if g.values.any():
            res = solve_f_given_g(G, sigma, chi, g)
            basis, ambiguous = res.basis, res.ambiguous
        fam = family_span_for_g(G, sigma, chi, ms)
        fam_rank = np.linalg.matrix_rank(np.stack(fam, axis=1), tol=1e-8) if fam else 0
        worst = 0.0
        # every solver vector must be a family combination
        basis_vals = [b.values for b in basis]
        for b in basis_vals:
            worst = max(worst, span_distance(fam, b))
        # every family vector must be an exact solution inside the nullspace
        for v in fam:
            rep = residual_wilson(G, sigma, chi, GroupFunction(G, v), g)
            if rep.sup > zero_tol:
                worst = max(worst, rep.sup)
            worst = max(worst, span_distance(basis_vals, v))
        row = CompletenessRow(
            g_label=_key_label(key), solver_dim=len(basis),
            family_dim=int(fam_rank), max_mismatch=worst,
            ambiguous=ambiguous,
            passed=(len(basis) == fam_rank and worst <= tol),
            g=g, basis=basis)
        report.rows.append(row)
    return report


def _chi_label(chi):
    if chi.turns is not None:
        if not chi.turns.any():
            return "trivial"
        return "(" + ",".join(chi.angle_labels()) + ")"
    return "numeric"


# --- formula-free recovery of the self-paired solutions -------------------


@dataclass
class BruteForceResult:
    solutions: list
    n_starts: int
    n_converged: int
    flagged: bool
    hits: list                  # converged starts that landed on each solution


def _disk_starts(rng, count, n):
    r = 2.0 * np.sqrt(rng.uniform(size=(count, n)))
    theta = 2.0 * np.pi * rng.uniform(size=(count, n))
    return r * np.exp(1j * theta)


def _raise_lstsq_error(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq_stack(J, r):
    """np.linalg.lstsq(J[i], r[i], rcond=None)[0] for every i, in one call.

    np.linalg.lstsq refuses stacked input; its gufunc (one zgelsd per item)
    takes it, so each item's solution is the same bits as the single call.
    """
    m, n = J.shape[-2:]
    rcond = np.finfo(np.float64).eps * max(n, m)
    with np.errstate(call=_raise_lstsq_error, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        x, _, _, _ = _LSTSQ_GUFUNC(J, r[..., None], rcond,
                                   signature="DDd->Ddid")
    return x[..., 0]


class _SelfPairedSystem:
    """Residual and Jacobian of the self-paired equation with f(e) pinned to 1,
    for a stack of iterates v of shape (B, n).

    Row x*n + y of the residual is f(xy) + chi(y) f(sigma(y) x) - 2 f(x) f(y);
    the last row is f(e) - 1. The system is holomorphic in f, so the complex
    Jacobian is exact.
    """

    def __init__(self, G, sigma, chi):
        n = G.order
        rows = np.arange(n * n)
        self.rows = rows
        self.xs, self.ys = rows // n, rows % n
        self.mul_flat = G.mul.reshape(-1)
        self.shift_flat = G.mul[sigma.table].T.reshape(-1)  # sigma(y) x
        self.chi_ys = chi.values[self.ys]
        # the linear part: the pair system's matrix at g = 0
        base = np.zeros((n * n + 1, n), dtype=np.complex128)
        base[:-1] = wilson_system_matrix(G, sigma, chi, GroupFunction.zero(G))
        base[-1, 0] = 1.0
        self.base = base

    def residuals(self, V):
        R = np.empty((V.shape[0], len(self.base)), dtype=np.complex128)
        R[:, :-1] = (V[:, self.mul_flat] + self.chi_ys * V[:, self.shift_flat]
                     - 2.0 * V[:, self.xs] * V[:, self.ys])
        R[:, -1] = V[:, 0] - 1.0
        return R

    def jacobians(self, V, out):
        """Fill out[:len(V)] with the Jacobians at V; return that view."""
        J = out[:V.shape[0]]
        J[...] = self.base
        # two separate adds, in this order, as on the diagonal x = y both
        # land on the same entry
        J[:, self.rows, self.xs] += -2.0 * V[:, self.ys]
        J[:, self.rows, self.ys] += -2.0 * V[:, self.xs]
        return J


def _norms(F):
    """Row norms of a complex stack, bit for bit as np.linalg.norm per row."""
    return np.sqrt(np.vecdot(F.real, F.real) + np.vecdot(F.imag, F.imag))


def _converged(F):
    return np.abs(F).max(axis=1) <= 1e-13


# the line search's step lengths: t = 1 halved while t > 1e-7, down to 2^-23
_STEP_LENGTHS = np.array([2.0 ** -k for k in range(24)])


def _line_search(system, V, F, norm, active, step):
    """Damped line search of one Newton step for the starts V[active].

    Start j = active[i] moves to V[j] + t*step[i] at the first t in 1, 1/2,
    ..., 2^-23 (every halving above 1e-7) whose residual norm is below
    norm[j] * (1 - 1e-4 t) or below 1e-13; V, F and norm are updated in
    place. t = 1 is tried for all starts in one residual call. The smaller
    t's are tried for the starts still pending, as many t's per stacked call
    as keep it within len(V) rows, so the stack never outgrows the block.
    Each start gets the same candidate and test at each t as a loop that
    halves t per rejection. Returns the positions in active whose search
    ran out.
    """
    n = V.shape[1]
    # the pending starts: positions in active, indices into V, and their
    # iterates, steps and norms, all unchanged until a start is accepted
    pos = np.arange(active.size)
    idx, X, S, N = active, V[active], step, norm[active]
    k, width = 0, 1
    while idx.size and k < _STEP_LENGTHS.size:
        ts = _STEP_LENGTHS[k:k + width]
        cand = X + ts[:, None, None] * S
        Fc = system.residuals(cand.reshape(-1, n)).reshape(ts.size, idx.size, -1)
        nc = _norms(Fc)
        accept = (nc < N * (1.0 - 1e-4 * ts[:, None])) | (nc < 1e-13)
        k += ts.size
        hit = accept.any(axis=0)
        cols = np.flatnonzero(hit)
        if cols.size:
            first = accept[:, cols].argmax(axis=0)
            took = idx[cols]
            V[took], F[took], norm[took] = (cand[first, cols], Fc[first, cols],
                                            nc[first, cols])
            keep = ~hit
            pos, idx, X, S, N = pos[keep], idx[keep], X[keep], S[keep], N[keep]
        width = V.shape[0] // max(1, idx.size)
    return pos


def _newton_polish(system, V):
    """Damped Gauss-Newton from every row of V at once; V is updated in place.

    Each start follows its own sequential run exactly: it leaves the active
    set when its residual is below 1e-13, when its line search runs out
    (no t > 1e-7 is accepted, see _line_search) or after 60 steps.
    Each step is one stacked least-squares call and one stacked line search.
    Returns the per-start convergence flags.
    """
    V[:, 0] = 1.0
    F = system.residuals(V)
    norm = _norms(F)
    ok = np.zeros(V.shape[0], dtype=bool)
    active = np.arange(V.shape[0])
    J_buf = np.empty((V.shape[0],) + system.base.shape, dtype=np.complex128)
    for _ in range(60):
        done = _converged(F[active])
        ok[active[done]] = True
        active = active[~done]
        if not active.size:
            return ok
        step = _lstsq_stack(system.jacobians(V[active], J_buf), -F[active])
        out = _line_search(system, V, F, norm, active, step)
        # an exhausted line search ends that start's run here
        ran_out = active[out]
        ok[ran_out] = _converged(F[ran_out])
        active = np.delete(active, out)
    ok[active] = _converged(F[active])
    return ok


def brute_force_dalembert(G, sigma, chi, n_starts=200, seed=0):
    """All solutions of the self-paired equation, found without the formula.

    f(e) is forced into {0, 1} (set x = y = e), and f(e) = 0 forces f = 0,
    so the search fixes f(e) = 1 and multistarts damped Newton from complex
    points uniform in the radius-2 disk. The starts run as stacked batches
    whose Jacobians fit NEWTON_BLOCK_BYTES. Results are deduplicated at 1e-6
    in start order.
    """
    if G.order > 8:
        raise ValueError("brute force is for groups of order <= 8")
    system = _SelfPairedSystem(G, sigma, chi)
    rng = np.random.default_rng(seed)
    starts = _disk_starts(rng, n_starts, G.order)
    block = max(1, NEWTON_BLOCK_BYTES // system.base.nbytes)

    solutions = [GroupFunction.zero(G)]
    kept = np.zeros((1, G.order), dtype=np.complex128)    # their values, stacked
    hits = [0]
    n_conv = 0
    for lo in range(0, n_starts, block):
        V = starts[lo:lo + block].copy()
        ok = _newton_polish(system, V)
        n_conv += int(ok.sum())
        for v in V[ok]:
            near = np.abs(v - kept).max(axis=1) < 1e-6
            k = near.argmax()            # the first match in solution order
            if near[k]:
                hits[k] += 1
            else:
                kept = np.vstack([kept, v])
                # a copy, so the kept solution does not pin the block's rows
                solutions.append(GroupFunction(G, v.copy()))
                hits.append(1)
    flagged = n_conv <= n_starts // 2
    return BruteForceResult(solutions, n_starts, n_conv, flagged, hits)


def function_sets_equal(set_a, set_b, tol=1e-6):
    """Set equality of function lists under max-norm distance matching."""
    def covered(src, dst):
        return all(any(np.abs(a.values - b.values).max() < tol for b in dst)
                   for a in src)
    return covered(set_a, set_b) and covered(set_b, set_a)


# --- audit of the anti-automorphism solution properties -------------------


@dataclass
class AuditRow:
    name: str
    max_violation: float
    witness: tuple
    passed: bool


@dataclass
class AuditReport:
    rows: list
    skipped: list = field(default_factory=list)

    @property
    def passed(self):
        return all(r.passed for r in self.rows)

    def table(self):
        out = ["check max_violation witness verdict"]
        for r in self.rows:
            w = ",".join(str(i) for i in r.witness)
            out.append(f"{r.name} {r.max_violation:.17g} ({w}) "
                       f"{'PASS' if r.passed else 'FAIL'}")
        for name, why in self.skipped:
            out.append(f"{name} - - SKIPPED[{why}]")
        return "\n".join(out) + "\n"


def _max_witness(arr):
    idx = int(np.argmax(arr))
    return float(arr.flat[idx]), np.unravel_index(idx, arr.shape)


def theorem22_audit(domain, sigma, chi, f, g, tol=1e-10):
    """Property checklist for exact solutions with an anti-automorphism.

    Raises AuditInapplicable, the exception of every audit that does not
    apply, unless the table is total, f != 0 (the properties say nothing
    otherwise) and sigma satisfies the anti-automorphism law.
    """
    if not domain.is_total:
        raise AuditInapplicable("audit needs a total multiplication table")
    if np.abs(f.values).max() == 0:
        raise AuditInapplicable("audit does not apply to f = 0")
    # the law is what matters; on abelian domains every automorphism counts
    if not satisfies_morphism_law(domain, sigma.table, "anti-automorphism"):
        raise AuditInapplicable("audit is for anti-automorphism sigma")
    n = domain.n
    mul, inv = domain.mul, domain.inv
    fv, gv, cv = f.values, g.values, chi.values
    mg = companion_mg(g).values
    rows = []

    def add(name, value_matrix):
        v, w = _max_witness(value_matrix)
        rows.append(AuditRow(name, v, tuple(int(i) for i in w), v <= tol))

    add("g_at_identity_is_one", np.abs(gv[:1] - 1.0))
    add("g_is_central", np.abs(gv[mul] - gv[mul.T]))
    add("g_equals_chi_g_sigma", np.abs(gv - cv * gv[sigma.table]))
    add("g_equals_mg_times_g_inv", np.abs(gv - mg * gv[inv]))
    add("mg_is_multiplicative", np.abs(mg[mul] - mg[:, None] * mg[None, :]))
    shift = mul[np.maximum(mul[sigma.table].T, 0), np.arange(n)[None, :]]
    add("shifted_f_is_mg_eigenfunction",
        np.abs(cv[None, :] * fv[shift] - mg[None, :] * fv[:, None]))
    xyinv = mul[:, inv]
    add("g_solves_dalembert_with_mg",
        np.abs(gv[mul] + mg[None, :] * gv[xyinv] - 2.0 * gv[:, None] * gv[None, :]))
    add("f_solves_wilson_with_mg",
        np.abs(fv[mul] + mg[None, :] * fv[xyinv] - 2.0 * fv[:, None] * gv[None, :]))
    fe, fo = parity_parts(f, sigma, chi)
    add("even_part_is_f_at_e_times_g", np.abs(fe.values - f.at_identity() * gv))
    fov = fo.values
    add("odd_part_satisfies_symmetrized_sine_addition",
        np.abs(fov[mul] + fov[mul.T]
               - 2.0 * fov[:, None] * gv[None, :] - 2.0 * fov[None, :] * gv[:, None]))
    skipped = []
    if (sigma.table == inv).all():
        signs = cv[inv] * mg
        add("inversion_gives_sign_valued_chi_mg",
            np.minimum(np.abs(signs - 1.0), np.abs(signs + 1.0)))
    else:
        skipped.append(("inversion_gives_sign_valued_chi_mg",
                        "sigma is not inversion"))
    return AuditReport(rows, skipped)
