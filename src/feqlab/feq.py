"""Residual evaluators for the functional equations and derived quantities.

The central object is the pair residual
    F(x, y) = f(xy) + chi(y) f(sigma(y) x) - 2 f(x) g(y)
evaluated over all pairs of a domain. On ball domains a pair is evaluated
only when every product it needs stays inside the ball; such skips are
counted, never silently dropped.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .groups import FiniteGroup

# "residual is zero" tolerances; larger sweeps accumulate more rounding
ZERO_TOL_FINITE = 1e-12
ZERO_TOL_BALL = 1e-9


def zero_tolerance(domain):
    return ZERO_TOL_FINITE if isinstance(domain, FiniteGroup) else ZERO_TOL_BALL


class GroupFunction:
    """A complex-valued function on a domain, stored densely by element id.

    `defined` marks where the value is meaningful; it is all-True except for
    derived functions (like x -> g(x^2)) on balls, where a needed product
    may fall outside the window.
    """

    def __init__(self, domain, values, defined=None):
        self.domain = domain
        self.values = np.asarray(values, dtype=np.complex128)
        if self.values.shape != (domain.n,):
            raise ValueError("value vector length must match domain size")
        if defined is None:
            defined = np.ones(domain.n, dtype=bool)
        self.defined = np.asarray(defined, dtype=bool)
        if not np.isfinite(self.values[self.defined]).all():
            raise ValueError("function values must be finite where defined")

    @classmethod
    def zero(cls, domain):
        return cls(domain, np.zeros(domain.n))

    @classmethod
    def from_values(cls, domain, values):
        return cls(domain, np.asarray(values, dtype=np.complex128))

    def sup(self):
        if not self.defined.any():
            return 0.0
        return float(np.abs(self.values[self.defined]).max())

    def at_identity(self):
        return complex(self.values[self.domain.identity])

    def __add__(self, other):
        return GroupFunction(self.domain, self.values + other.values,
                             self.defined & other.defined)

    def __sub__(self, other):
        return GroupFunction(self.domain, self.values - other.values,
                             self.defined & other.defined)

    def __mul__(self, scalar):
        return GroupFunction(self.domain, self.values * scalar, self.defined)

    __rmul__ = __mul__

    def __repr__(self):
        return f"GroupFunction({np.round(self.values, 4)})"


def write_function(f, path):
    lines = [str(f.domain.n)]
    lines += [f"{v.real:.17g} {v.imag:.17g}" for v in f.values]
    Path(path).write_text("\n".join(lines) + "\n")


def read_function(domain, path):
    raw = Path(path).read_text().split("\n")
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
    return GroupFunction.from_values(domain, values)


@dataclass
class ResidualReport:
    sup: float
    argmax_x: int
    argmax_y: int
    pairs: int
    skipped: int


def _report(resid, valid):
    n = valid.shape[0]
    pairs = int(valid.sum())
    if pairs == 0:
        return ResidualReport(0.0, -1, -1, 0, n * n)
    masked = np.where(valid, resid, -1.0)
    flat = int(np.argmax(masked))
    return ResidualReport(float(masked.flat[flat]), flat // n, flat % n,
                          pairs, n * n - pairs)


def _check_domains(domain, *funcs):
    for f in funcs:
        if f is not None and f.domain is not domain:
            raise ValueError("all functions must live on the same domain")


def residual_matrix_wilson(domain, sigma, chi, f, g):
    """Pointwise |F(x, y)| and the validity mask of evaluated pairs."""
    _check_domains(domain, f, g)
    mul = domain.mul
    xy = mul
    syx = mul[sigma.table].T  # [x, y] -> sigma(y) * x
    valid = (xy >= 0) & (syx >= 0)
    fv, gv, cv = f.values, g.values, chi.values
    lhs = fv[np.maximum(xy, 0)] + cv[None, :] * fv[np.maximum(syx, 0)]
    resid = np.abs(lhs - 2.0 * fv[:, None] * gv[None, :])
    return resid, valid


def residual_wilson(domain, sigma, chi, f, g):
    resid, valid = residual_matrix_wilson(domain, sigma, chi, f, g)
    return _report(resid, valid)


def residual_dalembert(domain, sigma, chi, f):
    return residual_wilson(domain, sigma, chi, f, f)


def residual_symmetrized_cauchy(domain, f):
    """|f(xy) + f(yx) - 2 f(x) f(y)| over pairs with both products inside."""
    _check_domains(domain, f)
    mul = domain.mul
    xy, yx = mul, mul.T
    valid = (xy >= 0) & (yx >= 0)
    fv = f.values
    resid = np.abs(fv[np.maximum(xy, 0)] + fv[np.maximum(yx, 0)]
                   - 2.0 * fv[:, None] * fv[None, :])
    return _report(resid, valid)


def companion_mg(g):
    """m_g(x) = 2 g(x)^2 - g(x^2); undefined where x^2 leaves a ball."""
    domain = g.domain
    sq = domain.mul[np.arange(domain.n), np.arange(domain.n)]
    defined = (sq >= 0) & g.defined
    vals = np.where(defined, 2.0 * g.values ** 2 - g.values[np.maximum(sq, 0)], 0.0)
    return GroupFunction(domain, vals, defined)


def section_function(f, g, a):
    """f_a(y) = f(a y) - f(a) g(y); undefined where a*y leaves a ball."""
    _check_domains(f.domain, f, g)
    domain = f.domain
    ay = domain.mul[a]
    defined = (ay >= 0) & g.defined
    vals = np.where(defined, f.values[np.maximum(ay, 0)] - f.values[a] * g.values, 0.0)
    return GroupFunction(domain, vals, defined)


def parity_parts(f, sigma, chi):
    """Even and odd parts relative to chi * (f o sigma). f_e + f_o = f."""
    twisted = chi.values * f.values[sigma.table]
    fe = GroupFunction(f.domain, (f.values + twisted) / 2.0, f.defined)
    fo = GroupFunction(f.domain, (f.values - twisted) / 2.0, f.defined)
    return fe, fo
