"""Closed-form solution families for the pair equation and its g = f case.

All constructors re-verify the residual at build time; a nonzero residual
means a violated precondition and raises instead of returning a bad pair.

For the two-character family (CaseIII) the second character is the twisted
companion M = chi * (m o sigma). Writing f as a combination of m and M (not
m o sigma alone) is what makes the family exact for every compatible chi and
span the full solution space of its g; see the decisions ledger for the
completeness counterexamples behind this choice.
"""

import numpy as np

from .feq import (GroupFunction, residual_dalembert, residual_wilson,
                  zero_tolerance)
from .morphisms import Character

# c and f(e) samples used by exhaustive family sweeps; the families are
# linear in f for fixed g, so a small sample set already spans everything
PARAM_SAMPLES = (1, 2, 1j, 1 + 1j, 0)
NONZERO_PARAM_SAMPLES = (1, 2, 1j, 1 + 1j)

FAMILY_TAGS = ("CaseI", "CaseII", "CaseIII", "CaseIV", "DAlembert", "External")


class FamilyConstructionError(ValueError):
    """A family precondition failed (reported with a witness element)."""


class SolutionPair:
    """An (f, g) pair tagged with the family that produced it, verified
    against the pair equation for sigma and chi when built."""

    def __init__(self, f, g, family_tag, sigma, chi, parameters=None):
        if family_tag not in FAMILY_TAGS:
            raise ValueError(f"unknown family tag {family_tag!r}")
        self.f = f
        self.g = g
        self.family_tag = family_tag
        self.parameters = dict(parameters or {})
        self.sigma = sigma
        self.chi = chi
        rep = residual_wilson(f.domain, sigma, chi, f, g)
        if rep.sup > zero_tolerance(f.domain):
            raise FamilyConstructionError(
                f"{family_tag} pair has residual {rep.sup:.3e} at "
                f"({rep.argmax_x},{rep.argmax_y}); a precondition is violated")
        self.residual_sup = rep.sup

    def __repr__(self):
        return f"SolutionPair({self.family_tag}, params={self.parameters})"


def _mixed_g(m, chi, sigma):
    """g = (m + chi * m o sigma) / 2 as a GroupFunction."""
    ms = m.values[sigma.table]
    return GroupFunction(m.domain, (m.values + chi.values * ms) / 2.0)


def twisted_companion(m, chi, sigma):
    """M = chi * (m o sigma), the partner character of m in the mixed family."""
    vals = chi.values * m.values[sigma.table]
    ang = None
    if m.angles is not None and chi.angles is not None:
        ang = [(chi.angles[a] + m.angles[sigma(a)]) % 1 for a in range(m.domain.n)]
    return Character(m.domain, vals, angles=ang,
                     unitary=m.unitary and chi.unitary)


def family_case_i(domain, g_values, sigma, chi):
    """f = 0, g arbitrary."""
    g = GroupFunction(domain, g_values)
    return SolutionPair(GroupFunction.zero(domain), g, "CaseI",
                        sigma=sigma, chi=chi)


def family_case_ii(m, chi, sigma, f_at_e):
    """g = (m + chi m o sigma)/2, f = f(e) g."""
    g = _mixed_g(m, chi, sigma)
    f = complex(f_at_e) * g
    return SolutionPair(f, g, "CaseII",
                        parameters={"f_at_e": complex(f_at_e)},
                        sigma=sigma, chi=chi)


def case_iii_balance_condition(m, chi, sigma):
    """Pointwise check of (chi - 1) m = (chi - 1) m o sigma.

    Returns (holds, witness). The condition is reported for diagnostics; the
    twisted family below is exact whether or not it holds.
    """
    lhs = (chi.values - 1.0) * m.values
    rhs = (chi.values - 1.0) * m.values[sigma.table]
    bad = np.abs(lhs - rhs) > 1e-12
    if bad.any():
        return False, int(np.flatnonzero(bad)[0])
    return True, None


def family_case_iii(m, chi, sigma, c, f_at_e):
    """g = (m + chi m o sigma)/2, f = (c + f(e)/2) m - (c - f(e)/2) chi (m o sigma)."""
    c = complex(c)
    if c == 0:
        raise FamilyConstructionError("CaseIII requires c != 0")
    fe = complex(f_at_e)
    M = twisted_companion(m, chi, sigma)
    g = _mixed_g(m, chi, sigma)
    f_vals = (c + fe / 2.0) * m.values - (c - fe / 2.0) * M.values
    f = GroupFunction(m.domain, f_vals)
    holds, witness = case_iii_balance_condition(m, chi, sigma)
    return SolutionPair(f, g, "CaseIII",
                        parameters={"c": c, "f_at_e": fe,
                                    "balance_condition_holds": holds,
                                    "balance_condition_witness": witness},
                        sigma=sigma, chi=chi)


def family_case_iv(m, chi, sigma, additive, f_at_e):
    """g = m, f = (a + f(e)) m; needs m = chi m o sigma and m (a o sigma + a) = 0."""
    fe = complex(f_at_e)
    sym = chi.values * m.values[sigma.table]
    bad = np.abs(m.values - sym) > 1e-12
    if bad.any():
        raise FamilyConstructionError(
            f"CaseIV requires m = chi * m o sigma; fails at element "
            f"{int(np.flatnonzero(bad)[0])}")
    if additive is None:
        a_vals = np.zeros(m.domain.n, dtype=np.complex128)
    else:
        a_vals = additive.values()
    combo = m.values * (a_vals[sigma.table] + a_vals)
    bad = np.abs(combo) > 1e-12
    if bad.any():
        raise FamilyConstructionError(
            f"CaseIV requires m * (a o sigma + a) = 0; fails at element "
            f"{int(np.flatnonzero(bad)[0])}")
    g = GroupFunction(m.domain, m.values.copy())
    f = GroupFunction(m.domain, (a_vals + fe) * m.values)
    coeffs = [] if additive is None else list(additive.coefficients)
    return SolutionPair(f, g, "CaseIV",
                        parameters={"f_at_e": fe, "additive_coefficients": coeffs},
                        sigma=sigma, chi=chi)


def dalembert_family(m, chi, sigma):
    """f = (m + chi m o sigma)/2 solves the g = f specialization; m = 0 gives f = 0."""
    f = _mixed_g(m, chi, sigma)
    tol = zero_tolerance(m.domain)
    rep = residual_dalembert(m.domain, sigma, chi, f)
    if rep.sup > tol:
        raise FamilyConstructionError(
            f"self-paired family residual {rep.sup:.3e}; sigma/chi incompatible")
    return f


def half_trace_candidate(domain, class_values):
    """Wrap externally supplied values (e.g. half the trace of a 2-dim
    representation) as a candidate g. No residual guarantee."""
    values = np.asarray(list(class_values), dtype=np.complex128)
    if values.shape != (domain.n,):
        raise ValueError(f"expected {domain.n} values, got {values.shape[0]}")
    return GroupFunction(domain, values)


def canned_half_trace(G):
    """The classic 2-dim-representation half trace on S3, D4 or Q8; None
    for groups without one.

    Value 1 at the identity; on S3 the 3-cycles get -1/2; on D4 and Q8 the
    unique central square of an order-4 element gets -1; everything else 0.
    """
    if G.kind is not None:
        raise ValueError("finite groups only")
    orders = [G.element_order(a) for a in range(G.order)]
    vals = np.zeros(G.order, dtype=np.complex128)
    vals[G.identity] = 1.0
    if G.order == 6 and 3 in orders and not G.is_abelian():  # S3 pattern
        for a in range(G.order):
            if orders[a] == 3:
                vals[a] = -0.5
        return half_trace_candidate(G, vals)
    if G.order == 8 and not G.is_abelian():
        # D4 / Q8 pattern: the unique central square of an order-4 element
        squares = {G.op(a, a) for a in range(G.order) if orders[a] == 4}
        squares.discard(G.identity)
        if len(squares) != 1:
            return None
        vals[squares.pop()] = -1.0
        return half_trace_candidate(G, vals)
    return None


def generate_family_pairs(G, sigma, chi, multiplicative):
    """All family pairs over the fixed parameter samples.

    CaseII with every f(e) sample, CaseIII with every nonzero c and every
    f(e). CaseIV on finite groups collapses into CaseII (only a = 0 is
    additive), so it is not re-emitted here.
    """
    pairs = []
    for m in multiplicative:
        for fe in PARAM_SAMPLES:
            pairs.append(family_case_ii(m, chi, sigma, fe))
        for c in NONZERO_PARAM_SAMPLES:
            for fe in PARAM_SAMPLES:
                pairs.append(family_case_iii(m, chi, sigma, c, fe))
    return pairs
