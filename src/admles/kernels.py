"""Stable elementwise kernels shared by the symbol, diagnostic and
inequality code.

Every public function takes float64 arrays (any shape, 0-d included) and
returns arrays of the same shape, vectorized in numpy.  The exponents of
compl_power and exp_limit_terms may also be arrays, broadcast against x: an
exponent column against an x row evaluates one row per exponent.  The point of these
kernels is numerical stability, not speed: all of them hit regimes
(x -> 0, huge exponents, symbols underflowing to 0) where the textbook
formulas lose every significant digit, so they are written in expm1/log1p
form.  Only y_minus_log1p keeps a series branch, below its cut.

The power kernels are the composition of two stages, so a caller that
evaluates many outer exponents on one x grid runs the first stage once:
compl_power is power_of_log(*log_compl(x, m), a), ratio_power is
power_of_log(*log_ratio(x), e), and exp_limit_terms is
exp_limit_at(exp_limit_base(x), n).  The staged calls give the bits of the
one-shot calls.
"""

import numpy as np

__all__ = [
    "ratio_power",
    "compl_power",
    "log_ratio",
    "log_compl",
    "power_of_log",
    "log1mexp",
    "exp_limit_terms",
    "exp_limit_base",
    "exp_limit_at",
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


def ratio_power(x, e):
    """(x/(1+x))**e elementwise for x >= 0, e > 0."""
    return power_of_log(*log_ratio(x), e)


def log_ratio(x):
    """The e-independent stage of ratio_power: (log(x/(1+x)), x > 0), the
    log as -log1p(1/x).

    1/x is inf at x = 0 and overflows for subnormal x, so the log is -inf
    there and the power takes its limit 0; neither is an error.  x < 0 and
    NaN give values that the mask drops.
    """
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return -np.log1p(1.0 / x), x > 0.0


def compl_power(x, a, m):
    """(1-(1+x)**(-m))**a elementwise for x >= 0, a, m >= 1."""
    return power_of_log(*log_compl(x, m), a)


def log_compl(x, m):
    """The a-independent stage of compl_power: (log(1-(1+x)**(-m)), x > 0).

    At x = 0 the log is -inf; x < 0 and NaN give values that the mask
    drops.
    """
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -np.expm1(-m * np.log1p(x))  # 1 - (1+x)^(-m), in [0, 1]
        return np.log(np.minimum(q, 1.0)), x > 0.0


def power_of_log(log_base, mask, e):
    """exp(e * log_base) where mask, 0 elsewhere: the exponent stage of
    ratio_power and compl_power."""
    # e * -inf is NaN for e = 0 where the base is 0, as in the one-stage
    # formulas, and a masked entry may hold any value, which can overflow
    # (log_ratio is positive for x < -1); neither is an error.
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(mask, np.exp(e * log_base), 0.0)


def log1mexp(phi):
    """log(1 - exp(-phi)) elementwise for phi >= 0, -inf at 0: the form
    log(-expm1(-phi)) up to ln 2 and log1p(-exp(-phi)) beyond, so neither
    cancels (Maechler 2012, "Accurately computing log(1 - exp(-|a|))")."""
    phi = np.asarray(phi, dtype=np.float64)
    with np.errstate(divide="ignore"):
        return np.where(phi <= np.log(2.0), np.log(-np.expm1(-phi)),
                        np.log1p(-np.exp(-phi)))


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
    return exp_limit_at(exp_limit_base(x), n)


def exp_limit_base(x):
    """The n-independent stage of exp_limit_terms: (x, exp(-x), x <= 0)."""
    x = np.asarray(x, dtype=np.float64)
    return x, np.exp(-x), x <= 0.0


def exp_limit_at(base, n):
    """exp_limit_terms at n from exp_limit_base(x)."""
    x, ex, zero = base
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
            pw - ex,
            ex * np.expm1(np.minimum(nf, _EXPM1_CUT)),
        )
    pw = np.where(zero, 1.0, pw)
    diff = np.where(zero, 0.0, diff)
    return pw, diff


def deconv_from_g(g, order):
    """Van Cittert symbol sum_{j=0}^{order} (1-g)**j elementwise for g in
    [0, 1]: the closed form -expm1((order+1) log1p(-g))/g, which keeps its
    digits for every g > 0, and its limit order + 1 at g = 0.

    order is an integer >= 0 or an array of them broadcast against g (an
    order column against a g row gives one row per order); each element
    has the bits of the call with its own scalar order.
    """
    g = np.asarray(g, dtype=np.float64)
    order = np.asarray(order)
    with np.errstate(divide="ignore", invalid="ignore"):
        closed = -np.expm1((order + 1.0) * np.log1p(-g)) / g
    # Order 0 is the identity operator; the closed form would cost an ulp
    # there.
    closed = np.where((g >= 1.0) | (order == 0), 1.0, closed)
    return np.where(g == 0.0, order + 1.0, closed)


def _scalar_map(fn, x):
    """fn(x) for a scalar x; for an array, fn of each value as a Python
    float, in x's shape, so that each element has the bits of the scalar
    call (numpy's array math need not: its x ** 2 is a multiply)."""
    if np.ndim(x) == 0:
        return fn(x)
    x = np.asarray(x, dtype=np.float64)
    return np.fromiter(map(fn, x.ravel().tolist()), np.float64,
                       x.size).reshape(x.shape)
