"""Reference pair residual, in the dense form the library used before it
evaluated F in row blocks: the full n x n |F(x, y)| and its validity mask,
then one masked argmax over the whole grid. Tests compare the library's
ResidualReport with dense_report, field for field.
"""

import numpy as np

from feqlab.feq import ResidualReport


def dense_residual(domain, sigma, chi, f, g):
    """Pointwise |F(x, y)| and the validity mask of evaluated pairs."""
    mul = domain.mul
    xy = mul
    syx = mul[sigma.table].T  # [x, y] -> sigma(y) * x
    valid = (xy >= 0) & (syx >= 0)
    fv, gv, cv = f.values, g.values, chi.values
    lhs = fv[np.maximum(xy, 0)] + cv[None, :] * fv[np.maximum(syx, 0)]
    resid = np.abs(lhs - 2.0 * fv[:, None] * gv[None, :])
    return resid, valid


def report(resid, valid):
    """The report of one masked argmax over the whole grid."""
    n = valid.shape[0]
    pairs = int(valid.sum())
    if pairs == 0:
        return ResidualReport(0.0, -1, -1, 0, n * n)
    masked = np.where(valid, resid, -1.0)
    flat = int(np.argmax(masked))
    return ResidualReport(float(masked.flat[flat]), flat // n, flat % n,
                          pairs, n * n - pairs)


def dense_report(domain, sigma, chi, f, g):
    return report(*dense_residual(domain, sigma, chi, f, g))
