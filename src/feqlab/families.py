"""The solution families that the solver and the CLI build pairs from.

SolutionPair re-verifies the residual when it is built; a nonzero residual
means a violated precondition and raises instead of returning a bad pair.
The mixed family has g = (m + M)/2 and f in the span of m and M, where
M = chi * (m o sigma) is the twisted companion of m (not m o sigma alone):
that span is exact for every compatible chi, and solver.completeness_check
checks that it is the whole f-space of each such g.
"""

import math

import numpy as np

from .feq import GroupFunction, residual_wilson, zero_tolerance
from .morphisms import Character

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
    turns = period = None
    if m.turns is not None and chi.turns is not None:
        period = math.lcm(m.period, chi.period)
        turns = (chi.turns * (period // chi.period)
                 + m.turns[sigma.table] * (period // m.period)) % period
    return Character(m.domain, vals, unitary=m.unitary and chi.unitary,
                     turns=turns, period=period)


def family_case_iv(m, chi, sigma, a_values, f_at_e):
    """g = m, f = (a + f(e)) m for the additive map a with values a_values
    (None for a = 0); needs m = chi m o sigma and m (a o sigma + a) = 0."""
    fe = complex(f_at_e)
    sym = chi.values * m.values[sigma.table]
    bad = np.abs(m.values - sym) > 1e-12
    if bad.any():
        raise FamilyConstructionError(
            f"CaseIV requires m = chi * m o sigma; fails at element "
            f"{int(np.flatnonzero(bad)[0])}")
    a_vals = np.zeros(m.domain.n) if a_values is None else a_values
    combo = m.values * (a_vals[sigma.table] + a_vals)
    bad = np.abs(combo) > 1e-12
    if bad.any():
        raise FamilyConstructionError(
            f"CaseIV requires m * (a o sigma + a) = 0; fails at element "
            f"{int(np.flatnonzero(bad)[0])}")
    g = GroupFunction(m.domain, m.values.copy())
    f = GroupFunction(m.domain, (a_vals + fe) * m.values)
    return SolutionPair(f, g, "CaseIV", parameters={"f_at_e": fe},
                        sigma=sigma, chi=chi)


def dalembert_family(m, chi, sigma):
    """f = (m + chi m o sigma)/2 solves the g = f specialization; m = 0 gives f = 0."""
    f = _mixed_g(m, chi, sigma)
    tol = zero_tolerance(m.domain)
    rep = residual_wilson(m.domain, sigma, chi, f, f)
    if rep.sup > tol:
        raise FamilyConstructionError(
            f"self-paired family residual {rep.sup:.3e}; sigma/chi incompatible")
    return f


def canned_half_trace(G):
    """The classic 2-dim-representation half trace on S3, D4 or Q8; None
    for groups without one.

    Value 1 at the identity; on S3 the 3-cycles get -1/2; on D4 and Q8 the
    unique central square of an order-4 element gets -1; everything else 0.
    """
    if G.kind is not None:
        raise ValueError("finite groups only")
    orders = G.element_orders
    vals = np.zeros(G.order, dtype=np.complex128)
    vals[G.identity] = 1.0
    if G.order == 6 and 3 in orders and not G.is_abelian():  # S3 pattern
        for a in range(G.order):
            if orders[a] == 3:
                vals[a] = -0.5
        return GroupFunction(G, vals)
    if G.order == 8 and not G.is_abelian():
        # D4 / Q8 pattern: the unique central square of an order-4 element
        squares = {G.op(a, a) for a in range(G.order) if orders[a] == 4}
        squares.discard(G.identity)
        if len(squares) != 1:
            return None
        vals[squares.pop()] = -1.0
        return GroupFunction(G, vals)
    return None

