"""The parameterized family constructors of Cases I-III and the sweep over
their parameter samples, which the acceptance gate and the family tests
build exact pairs from.

For the two-character family (CaseIII) the second character is the twisted
companion M = chi * (m o sigma). Writing f as a combination of m and M (not
m o sigma alone) is what makes the family exact for every compatible chi and
span the full solution space of its g, as solver.completeness_check checks.
Every pair is a SolutionPair, so its residual is verified when it is built.
"""

from feqlab.families import (FamilyConstructionError, SolutionPair,
                             _mixed_g, twisted_companion)
from feqlab.feq import GroupFunction

# c and f(e) samples used by exhaustive family sweeps; the families are
# linear in f for fixed g, so a small sample set already spans everything
PARAM_SAMPLES = (1, 2, 1j, 1 + 1j, 0)
NONZERO_PARAM_SAMPLES = (1, 2, 1j, 1 + 1j)


def family_case_i(domain, g_values, sigma, chi):
    """f = 0, g arbitrary."""
    g = GroupFunction(domain, g_values)
    return SolutionPair(GroupFunction.zero(domain), g, "CaseI",
                        sigma=sigma, chi=chi)


def family_case_ii(m, chi, sigma, f_at_e):
    """g = (m + chi m o sigma)/2, f = f(e) g."""
    fe = complex(f_at_e)
    g = _mixed_g(m, chi, sigma)
    f = GroupFunction(g.domain, fe * g.values)
    return SolutionPair(f, g, "CaseII", parameters={"f_at_e": fe},
                        sigma=sigma, chi=chi)


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
    return SolutionPair(f, g, "CaseIII", parameters={"c": c, "f_at_e": fe},
                        sigma=sigma, chi=chi)


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
