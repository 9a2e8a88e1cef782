"""Residual evaluators for the functional equations and derived quantities.

The central object is the pair residual
    F(x, y) = f(xy) + chi(y) f(sigma(y) x) - 2 f(x) g(y)
evaluated over all pairs of a domain. On ball domains a pair is evaluated
only when every product it needs stays inside the ball; such skips are
counted, never silently dropped.

F is evaluated one block of x-rows at a time (Domain.row_blocks), and in a
block with a product outside the ball only at the in-ball pairs, so no
n x n temporary is built. The block maxima combine as one argmax over the
whole grid would: ties go to the first pair in C order, and NaN beats any
number.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .morphisms import identity_involution, trivial_character

# "residual is zero" tolerances; larger sweeps accumulate more rounding
ZERO_TOL_FINITE = 1e-12
ZERO_TOL_BALL = 1e-9


def zero_tolerance(domain):
    return ZERO_TOL_FINITE if domain.kind is None else ZERO_TOL_BALL


class GroupFunction:
    """A finite complex-valued function on a domain, stored densely by
    element id.

    Derived functions that need a product outside a ball (x -> g(x^2),
    y -> f(ay)) hold 0 there; an audit that reads them takes its validity
    mask from its certificate, not from the function.
    """

    def __init__(self, domain, values):
        self.domain = domain
        self.values = np.asarray(values, dtype=np.complex128)
        if self.values.shape != (domain.n,):
            raise ValueError("value vector length must match domain size")
        if not np.isfinite(self.values).all():
            raise ValueError("function values must be finite")

    @classmethod
    def zero(cls, domain):
        return cls(domain, np.zeros(domain.n))

    def sup(self):
        return float(np.abs(self.values).max())

    def at_identity(self):
        return complex(self.values[self.domain.identity])

    def __repr__(self):
        return f"GroupFunction({np.round(self.values, 4)})"


def write_function(f, path):
    lines = [str(f.domain.n)]
    lines += [f"{v.real:.17g} {v.imag:.17g}" for v in f.values]
    Path(path).write_text("\n".join(lines) + "\n")


def read_function(domain, path):
    raw = Path(path).read_text(encoding="utf-8-sig").split("\n")
    n = int(raw[0].strip())
    if n != domain.n:
        raise ValueError(f"function file is for size {n}, domain has {domain.n}")
    values = []
    for line in raw[1:]:
        line = line.strip()
        if not line:
            continue
        re, im = line.split()
        values.append(complex(float(re), float(im)))
    return GroupFunction(domain, values)


@dataclass
class ResidualReport:
    sup: float
    argmax_x: int
    argmax_y: int
    pairs: int
    skipped: int


def _check_domains(domain, *funcs):
    for f in funcs:
        if f is not None and f.domain is not domain:
            raise ValueError("all functions must live on the same domain")


def replaces_max(v, worst):
    """Whether a later block's maximum v replaces the running maximum worst
    (None before the first block), so that blocks in C order combine as
    one np.argmax over the whole grid: a tie keeps the earlier witness, and
    NaN beats any number."""
    return (worst is None or v > worst
            or (np.isnan(v) and not np.isnan(worst)))


def residual_wilson(domain, sigma, chi, f, g):
    """sup |F(x, y)| over the evaluated pairs, its first witness in C order,
    and the counts of evaluated and skipped pairs."""
    _check_domains(domain, f, g)
    n, mul, st = domain.n, domain.mul, sigma.table
    fv, gv, cv = f.values, g.values, chi.values
    pairs, worst, at = 0, None, -1
    for x0, x1 in domain.row_blocks():
        xy = mul[x0:x1]
        syx = mul[st, x0:x1].T  # [x, y] -> sigma(y) * x
        valid = (xy >= 0) & (syx >= 0)
        if valid.all():
            # the operands keep one ndim: numpy rounds a complex product
            # of a size-1 2-d and a 1-d operand without its fused multiply-add
            resid = np.abs(fv[xy] + cv[None, :] * fv[syx]
                           - (2.0 * fv[x0:x1, None]) * gv[None, :])
            flat = None
        else:
            flat = np.flatnonzero(valid)
            if not flat.size:
                continue
            x, y = np.divmod(flat, n)
            resid = np.abs(fv[xy.ravel()[flat]] + cv[y] * fv[syx.ravel()[flat]]
                           - (2.0 * fv[x0 + x]) * gv[y])
        i = int(np.argmax(resid))
        v = resid.flat[i]
        pairs += resid.size
        if replaces_max(v, worst):
            worst, at = v, x0 * n + (i if flat is None else int(flat[i]))
    if pairs == 0:
        return ResidualReport(0.0, -1, -1, 0, n * n)
    return ResidualReport(float(worst), at // n, at % n, pairs, n * n - pairs)


def residual_symmetrized_cauchy(domain, f):
    """|f(xy) + f(yx) - 2 f(x) f(y)| over pairs with both products inside:
    the pair residual with g = f, sigma = id and chi = 1."""
    return residual_wilson(domain, identity_involution(domain),
                           trivial_character(domain), f, f)


def companion_mg(g):
    """m_g(x) = 2 g(x)^2 - g(x^2); 0 where x^2 leaves a ball."""
    domain = g.domain
    sq = domain.mul[np.arange(domain.n), np.arange(domain.n)]
    vals = np.where(sq >= 0, 2.0 * g.values ** 2 - g.values[np.maximum(sq, 0)], 0.0)
    return GroupFunction(domain, vals)


def section_function(f, g, a):
    """f_a(y) = f(a y) - f(a) g(y); 0 where a*y leaves a ball."""
    _check_domains(f.domain, f, g)
    domain = f.domain
    ay = domain.mul[a]
    vals = np.where(ay >= 0, f.values[np.maximum(ay, 0)] - f.values[a] * g.values, 0.0)
    return GroupFunction(domain, vals)


def parity_parts(f, sigma, chi):
    """Even and odd parts relative to chi * (f o sigma). f_e + f_o = f."""
    twisted = chi.values * f.values[sigma.table]
    fe = GroupFunction(f.domain, (f.values + twisted) / 2.0)
    fo = GroupFunction(f.domain, (f.values - twisted) / 2.0)
    return fe, fo
