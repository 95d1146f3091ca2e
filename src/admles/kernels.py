"""Stable elementwise kernels shared by the symbol, diagnostic and
inequality code.

Every public function takes float64 arrays (any shape, 0-d included) and
returns arrays of the same shape, vectorized in numpy.  The point of these
kernels is numerical stability, not speed: all of them hit regimes
(x -> 0, huge exponents, symbols underflowing to 0) where the textbook
formulas lose every significant digit, so they are written in expm1/log1p
form with series branches near the switch points.
"""

import numpy as np

__all__ = [
    "ratio_power",
    "compl_power",
    "exp_limit_terms",
    "deconv_from_g",
    "y_minus_log1p",
    "HAS_NUMBA",
]

# No compiled kernel path exists; perfbench's environment record reads this.
HAS_NUMBA = False

# Below this, y - log1p(y) is evaluated by series; direct subtraction loses
# ~ 2e-16/y relative accuracy.
_SERIES_CUT = 1e-2
# Above this, expm1(n*f) overflows and the difference is formed directly.
_EXPM1_CUT = 500.0
# Below this, the geometric closed form switches to an explicit term sum.
_G_SERIES_CUT = 1e-8


def ratio_power(x, e):
    """(x/(1+x))**e elementwise for x >= 0, e > 0."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    pos = x > 0.0
    # 1/x overflows to inf for subnormal x; the result then saturates to
    # its limit 0, so the overflow is not an error.
    with np.errstate(over="ignore"):
        out[pos] = np.exp(-e * np.log1p(1.0 / x[pos]))
    return out


def compl_power(x, a, m):
    """(1-(1+x)**(-m))**a elementwise for x >= 0, a, m >= 1."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    pos = x > 0.0
    q = -np.expm1(-m * np.log1p(x[pos]))  # 1 - (1+x)^(-m), in (0, 1]
    q = np.minimum(q, 1.0)
    out[pos] = np.exp(a * np.log(q))
    return out


def y_minus_log1p(y):
    """y - log1p(y) >= 0 elementwise, accurate for all y >= 0."""
    y = np.asarray(y, dtype=np.float64)
    small = y < _SERIES_CUT
    out = np.empty_like(y)
    ys = y[small]
    # y^2 (1/2 - y/3 + y^2/4 - ...) truncated after the y^8/10 term; the
    # next term is < 2e-15 relative at the cut.
    acc = np.full_like(ys, 1.0 / 10.0)
    for c in (-1.0 / 9.0, 1.0 / 8.0, -1.0 / 7.0, 1.0 / 6.0,
              -1.0 / 5.0, 1.0 / 4.0, -1.0 / 3.0, 1.0 / 2.0):
        acc = acc * ys + c
    out[small] = ys * ys * acc
    yb = y[~small]
    out[~small] = yb - np.log1p(yb)
    return out


def exp_limit_terms(x, n):
    """Elementwise ((1+x/n)**(-n), (1+x/n)**(-n) - exp(-x)) for x >= 0,
    n >= 1; the difference is nonnegative and cancellation-free."""
    x = np.asarray(x, dtype=np.float64)
    y = x / n
    f = y_minus_log1p(y)  # so (1+y)^(-n) = e^(-x) e^(n f)
    pw = np.exp(-n * np.log1p(y))
    nf = n * f
    # Past the cut e^(n f) is astronomically larger than 1: there is no
    # cancellation in the direct difference (exp(-x) typically underflows
    # to 0 there).
    with np.errstate(over="ignore"):
        diff = np.where(
            nf > _EXPM1_CUT,
            pw - np.exp(-x),
            np.exp(-x) * np.expm1(np.minimum(nf, _EXPM1_CUT)),
        )
    zero = x <= 0.0
    pw = np.where(zero, 1.0, pw)
    diff = np.where(zero, 0.0, diff)
    return pw, diff


def deconv_from_g(g, order):
    """Van Cittert symbol (1-(1-g)**(order+1))/g elementwise for g in (0,1],
    with an explicit geometric sum below g=1e-8."""
    g = np.asarray(g, dtype=np.float64)
    if order == 0:
        # identity operator; the closed form would cost an ulp here
        return np.ones_like(g)
    with np.errstate(divide="ignore", invalid="ignore"):
        closed = -np.expm1((order + 1.0) * np.log1p(-g)) / g
    closed = np.where(g >= 1.0, 1.0, closed)
    small = g < _G_SERIES_CUT
    if np.any(small):
        # Explicit geometric sum; every term is ~1 so the sum is exact to
        # rounding while the closed form would divide two tiny numbers.
        gs = g[small]
        base = 1.0 - gs
        acc = np.ones_like(gs)
        term = np.ones_like(gs)
        for _ in range(order):
            term = term * base
            acc = acc + term
        closed[small] = acc
    return closed
