"""Formula-independent solution recovery and classification cross-checks.

For fixed g the pair equation is linear in f, so the full f-space is the
nullspace of an n^2 x n system. Candidate g's need no blind search: whenever
f != 0, g must solve the self-paired specialization, whose solutions are the
mixed-character functions (m + chi m o sigma)/2. Completeness is then a
dimension-and-span comparison between that nullspace and the family
formulas, and a multistart Newton solver recovers the self-paired solution
set without using the formula at all.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .families import dalembert_family, twisted_companion
from .feq import (GroupFunction, companion_mg, parity_parts, residual_wilson,
                  zero_tolerance)
from .morphisms import enumerate_multiplicative, satisfies_morphism_law

SVD_KERNEL_CUTOFF = 1e-10
GUARD_BAND = 10.0


def thread_count():
    """Worker cap from FEQLAB_THREADS; defaults to 1 (deterministic enough
    either way, workers are pure and reduced in submission order)."""
    raw = os.environ.get("FEQLAB_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


class NumericalAmbiguity(RuntimeError):
    """Singular values straddle the kernel cutoff within the guard band."""


@dataclass
class SolveResult:
    basis: list
    singular_values: np.ndarray
    ambiguous: bool

    @property
    def f_dim(self):
        return len(self.basis)


def wilson_system_matrix(domain, sigma, chi, g):
    """The n^2 x n matrix A with A f = 0 iff f solves the pair equation."""
    n = domain.n
    mul = domain.mul
    if (mul < 0).any():
        raise ValueError("linear solve needs a total multiplication table")
    A = np.zeros((n * n, n), dtype=np.complex128)
    rows = np.arange(n * n)
    xs, ys = rows // n, rows % n
    np.add.at(A, (rows, mul[xs, ys]), 1.0)
    np.add.at(A, (rows, mul[sigma.table[ys], xs]), chi.values[ys])
    np.add.at(A, (rows, xs), -2.0 * g.values[ys])
    return A


def solve_f_given_g(domain, sigma, chi, g, cutoff=SVD_KERNEL_CUTOFF):
    """Orthonormal basis of {f : pair residual 0} for this g, via SVD.

    Flags (instead of silently resolving) the case where singular values sit
    on both sides of the cutoff within a factor of GUARD_BAND. The thin SVD
    gives the same s and vh as the full one without the n^2 x n^2 U.
    """
    A = wilson_system_matrix(domain, sigma, chi, g)
    _, s, vh = np.linalg.svd(A, full_matrices=False)
    small = s <= cutoff
    near_low = small & (s > cutoff / GUARD_BAND)
    near_high = (~small) & (s < cutoff * GUARD_BAND)
    ambiguous = bool(near_low.any() and near_high.any())
    basis = [GroupFunction(domain, vh[i].conj()) for i in np.flatnonzero(small)]
    return SolveResult(basis, s, ambiguous)


@dataclass
class SolutionEntry:
    g: GroupFunction
    m_angle_keys: list          # angle tuples of the m's that generate this g
    f_basis: list
    f_dim: int
    ambiguous: bool


@dataclass
class SolutionSet:
    domain: object
    entries: list
    # (g arbitrary, f = 0) is always a solution; recorded once, symbolically
    zero_f_note: str = "f = 0 solves the equation for every g"

    @property
    def any_ambiguous(self):
        return any(e.ambiguous for e in self.entries)


def _angle_key(m):
    if m.is_zero:
        return "zero"
    if m.angles is not None:
        return tuple(m.angles)
    return tuple(np.round(m.values, 9))


def _key_label(key):
    """Readable form of a dedup key: zero|(0,1/4,1/2,3/4)-style."""
    parts = []
    for part in sorted(key, key=str):
        if isinstance(part, str):
            parts.append(part)
        else:
            parts.append("(" + ",".join(str(t) for t in part) + ")")
    return "|".join(parts)


def candidate_gs(G, sigma, chi):
    """Self-paired-solution candidates for g, deduplicated.

    m and its twisted companion produce the same g; the dedup key is the
    unordered pair of their exact angle tuples.
    """
    seen = {}
    order = []
    for m in enumerate_multiplicative(G):
        M = twisted_companion(m, chi, sigma)
        key = frozenset((_angle_key(m), _angle_key(M)))
        if key not in seen:
            g = dalembert_family(m, chi, sigma)
            seen[key] = (g, [m])
            order.append(key)
        else:
            seen[key][1].append(m)
    return [(key, *seen[key]) for key in order]


def enumerate_solutions(G, sigma, chi):
    """Solve the pair equation for every candidate g."""
    entries = []
    for _, g, ms in candidate_gs(G, sigma, chi):
        res = solve_f_given_g(G, sigma, chi, g)
        entries.append(SolutionEntry(
            g=g,
            m_angle_keys=[_angle_key(m) for m in ms],
            f_basis=res.basis,
            f_dim=res.f_dim,
            ambiguous=res.ambiguous,
        ))
    return SolutionSet(G, entries)


def span_distance(vectors, target, tol_scale=True):
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
        res = solve_f_given_g(G, sigma, chi, g)
        fam = family_span_for_g(G, sigma, chi, ms)
        fam_rank = np.linalg.matrix_rank(np.stack(fam, axis=1), tol=1e-8) if fam else 0
        worst = 0.0
        # every solver vector must be a family combination
        basis_vals = [b.values for b in res.basis]
        for b in basis_vals:
            worst = max(worst, span_distance(fam, b))
        # every family vector must be an exact solution inside the nullspace
        for v in fam:
            rep = residual_wilson(G, sigma, chi, GroupFunction(G, v), g)
            if rep.sup > zero_tol:
                worst = max(worst, rep.sup)
            worst = max(worst, span_distance(basis_vals, v))
        row = CompletenessRow(
            g_label=_key_label(key), solver_dim=res.f_dim,
            family_dim=int(fam_rank), max_mismatch=worst,
            ambiguous=res.ambiguous,
            passed=(res.f_dim == fam_rank and worst <= tol),
            g=g, basis=res.basis)
        report.rows.append(row)
    return report


def _chi_label(chi):
    if getattr(chi, "angles", None) is not None:
        if all(t == 0 for t in chi.angles):
            return "trivial"
        return "(" + ",".join(str(t) for t in chi.angles) + ")"
    return "numeric"


# --- formula-free recovery of the self-paired solutions -------------------


@dataclass
class BruteForceResult:
    solutions: list
    n_starts: int
    n_converged: int
    flagged: bool


def _disk_starts(rng, count, n, radius=2.0):
    r = radius * np.sqrt(rng.uniform(size=(count, n)))
    theta = 2.0 * np.pi * rng.uniform(size=(count, n))
    return r * np.exp(1j * theta)


def _newton_polish(v0, base, mul_idx, shift_idx, chi_vals, max_iter=60):
    """Damped Gauss-Newton on the self-paired residual with f(e) pinned to 1.

    The system is holomorphic in f, so the complex Jacobian is exact.
    """
    n = v0.shape[0]
    rows = np.arange(n * n)
    xs, ys = rows // n, rows % n
    e0 = np.zeros(n, dtype=np.complex128)
    e0[0] = 1.0

    def res_vec(v):
        r = (v[mul_idx].reshape(-1)
             + chi_vals[ys] * v[shift_idx].reshape(-1)
             - 2.0 * v[xs] * v[ys])
        return np.concatenate([r, [v[0] - 1.0]])

    def jac(v):
        J = base.copy()
        np.add.at(J, (rows, xs), -2.0 * v[ys])
        np.add.at(J, (rows, ys), -2.0 * v[xs])
        return np.vstack([J, e0[None, :]])

    v = v0.copy()
    v[0] = 1.0
    F = res_vec(v)
    norm = np.linalg.norm(F)
    for _ in range(max_iter):
        if np.abs(F).max() <= 1e-13:
            return v, True
        step, *_ = np.linalg.lstsq(jac(v), -F, rcond=None)
        t = 1.0
        while t > 1e-7:
            cand = v + t * step
            Fc = res_vec(cand)
            nc = np.linalg.norm(Fc)
            if nc < norm * (1.0 - 1e-4 * t) or nc < 1e-13:
                v, F, norm = cand, Fc, nc
                break
            t /= 2.0
        else:
            return v, bool(np.abs(F).max() <= 1e-13)
    return v, bool(np.abs(F).max() <= 1e-13)


def brute_force_dalembert(G, sigma, chi, n_starts=200, seed=0):
    """All solutions of the self-paired equation, found without the formula.

    f(e) is forced into {0, 1} (set x = y = e), and f(e) = 0 forces f = 0,
    so the search fixes f(e) = 1 and multistarts damped Newton from complex
    points uniform in the radius-2 disk. Results are deduplicated at 1e-6.
    """
    if G.order > 8:
        raise ValueError("brute force is for groups of order <= 8")
    n = G.order
    mul_idx = G.mul
    shift_idx = G.mul[sigma.table].T  # [x, y] -> sigma(y) x
    rows = np.arange(n * n)
    xs, ys = rows // n, rows % n
    base = np.zeros((n * n, n), dtype=np.complex128)
    np.add.at(base, (rows, mul_idx.reshape(-1)), 1.0)
    np.add.at(base, (rows, shift_idx.reshape(-1)), chi.values[ys])

    rng = np.random.default_rng(seed)
    starts = _disk_starts(rng, n_starts, n)

    def run(start):
        return _newton_polish(start.astype(np.complex128), base, mul_idx,
                              shift_idx, chi.values)

    workers = thread_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, starts))
    else:
        results = [run(s) for s in starts]

    solutions = [GroupFunction.zero(G)]
    n_conv = 0
    for v, ok in results:
        if not ok:
            continue
        n_conv += 1
        if all(np.abs(v - s.values).max() >= 1e-6 for s in solutions):
            solutions.append(GroupFunction(G, v))
    flagged = n_conv <= n_starts // 2
    return BruteForceResult(solutions, n_starts, n_conv, flagged)


def function_sets_equal(set_a, set_b, tol=1e-6):
    """Set equality of function lists under max-norm distance matching."""
    def covered(src, dst):
        return all(any(np.abs(a.values - b.values).max() < tol for b in dst)
                   for a in src)
    return covered(set_a, set_b) and covered(set_b, set_a)


# --- audit of the anti-automorphism solution properties -------------------


class AuditNotApplicable(ValueError):
    pass


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

    Requires f != 0 (the properties say nothing otherwise) and a total
    multiplication table.
    """
    if (domain.mul < 0).any():
        raise AuditNotApplicable("audit needs a total multiplication table")
    if np.abs(f.values).max() == 0:
        raise AuditNotApplicable("audit does not apply to f = 0")
    # the law is what matters; on abelian domains every automorphism counts
    if not satisfies_morphism_law(domain, sigma.table, "anti-automorphism"):
        raise AuditNotApplicable("audit is for anti-automorphism sigma")
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
    if sigma.is_inversion or (sigma.table == inv).all():
        signs = cv[inv] * mg
        add("inversion_gives_sign_valued_chi_mg",
            np.minimum(np.abs(signs - 1.0), np.abs(signs + 1.0)))
    else:
        skipped.append(("inversion_gives_sign_valued_chi_mg",
                        "sigma is not inversion"))
    return AuditReport(rows, skipped)
