"""Scalar-kernel accuracy tests against 50-digit mpmath references.

Each kernel has an independent high-precision oracle defined here before any
comparison with the package implementation.  The oracles take the exact
binary value of every float argument (mpmath.mpf(float(x))), so a kernel is
judged on its own rounding.  Branch-crossover inputs (series cut, expm1
cut) are pinned explicitly so a future change to the cutoffs cannot
silently regress one side, and so are the tiny g of deconv_from_g, where
its closed form would cancel if it were not written in expm1/log1p form.
"""

import warnings

import mpmath
import numpy as np
import pytest

from admles import kernels

mpmath.mp.dps = 50

# Per kernel, the tightest relative tolerance its pinned and random cases
# meet, rounded up; the largest error measured (numpy 2.4, glibc libm) is
# in the comment.  The conditioning of the functions sets them: a power or
# exponential with an argument of size A turns the argument's rounding
# into a relative error of about A * 1.1e-16.
RTOL = {
    "ratio_power": 4e-14,      # 3.75e-14, random (x, e) with e up to 128
    "compl_power": 2e-14,      # 1.50e-14, random
    "y_minus_log1p": 1.5e-14,  # 1.23e-14, pinned y = 1.01e-2 past the cut
    "exp_limit_terms": 5e-14,  # 4.77e-14, pinned (1e4, 100), both terms
    "deconv_from_g": 3e-16,    # 2.37e-16, pinned
}


# ---------------------------------------------------------------------------
# mpmath oracles (frozen before looking at implementation output)
# ---------------------------------------------------------------------------


def ref_ratio_power(x, e):
    if x == 0:
        return mpmath.mpf(0)
    x = mpmath.mpf(float(x))
    return (x / (1 + x)) ** mpmath.mpf(float(e))


def ref_compl_power(x, a, m):
    if x == 0:
        return mpmath.mpf(0)
    x = mpmath.mpf(float(x))
    m = mpmath.mpf(float(m))
    a = mpmath.mpf(float(a))
    return (1 - (1 + x) ** (-m)) ** a


def ref_y_minus_log1p(y):
    y = mpmath.mpf(float(y))
    return y - mpmath.log1p(y)


def ref_exp_limit_terms(x, n):
    x = mpmath.mpf(float(x))
    n = mpmath.mpf(float(n))
    pw = (1 + x / n) ** (-n)
    return pw, pw - mpmath.exp(-x)


def ref_deconv_from_g(g, order):
    # explicit truncated geometric sum, the definition rather than the
    # closed form the implementation uses
    g = mpmath.mpf(float(g))
    return sum((1 - g) ** j for j in range(order + 1))


def close(value, ref, rtol):
    ref = mpmath.mpf(ref)
    if abs(ref) < mpmath.mpf("1e-290"):
        # below (or near) the subnormal floor; underflow to zero is correct
        return abs(float(value)) <= 1e-290
    return abs(mpmath.mpf(float(value)) - ref) <= rtol * abs(ref)


# ---------------------------------------------------------------------------
# pinned branch-crossover inputs
# ---------------------------------------------------------------------------

# series cut for y - log1p(y) sits at 1e-2; straddle it
Y_VALUES = [0.0, 1e-18, 1e-15, 1e-9, 1e-4, 9.9e-3, 1e-2, 1.01e-2, 0.5, 10.0, 1e6]

# with n = 1 the direct-difference branch of exp_limit_terms switches on
# near x ~ 506; straddle that too
EXP_LIMIT_CASES = [
    (0.0, 1.0),
    (1.0, 1.0),
    (24.0, 100.0),
    (495.0, 1.0),
    (505.0, 1.0),
    (510.0, 1.0),
    (520.0, 1.0),
    (1e4, 100.0),
    (3.0, 7.0),
    (1e-8, 2.0),
]

# g from tiny, where 1 - (1-g)^(N+1) cancels, through 1e-8 to the perfect
# inverse g = 1
G_VALUES = [1e-12, 9.9e-9, 1e-8, 1.1e-8, 1e-6, 1e-3, 0.25, 0.5, 0.999, 1.0]
ORDERS = [0, 1, 2, 3, 8, 32]


@pytest.mark.parametrize("y", Y_VALUES)
def test_y_minus_log1p_pinned(y):
    assert close(kernels.y_minus_log1p(y), ref_y_minus_log1p(y),
                 RTOL["y_minus_log1p"])


@pytest.mark.parametrize("x,n", EXP_LIMIT_CASES)
def test_exp_limit_terms_pinned(x, n):
    pw_ref, diff_ref = ref_exp_limit_terms(x, n)
    pw, diff = kernels.exp_limit_terms(x, n)
    assert close(pw, pw_ref, RTOL["exp_limit_terms"])
    # diff can be ~1e-200 against pw ~1; judge it relative to its own scale,
    # with an absolute floor tied to pw's last ulp
    diff_ref_f = float(diff_ref)
    assert abs(float(diff) - diff_ref_f) <= max(
        RTOL["exp_limit_terms"] * abs(diff_ref_f), 1e-18 * float(pw_ref)
    )


@pytest.mark.parametrize("g", G_VALUES)
@pytest.mark.parametrize("order", ORDERS)
def test_deconv_from_g_pinned(g, order):
    assert close(kernels.deconv_from_g(g, order), ref_deconv_from_g(g, order),
                 RTOL["deconv_from_g"])


def test_deconv_from_g_at_one():
    # g = 1 means a perfect filter inverse: one term survives
    for order in ORDERS:
        assert float(kernels.deconv_from_g(1.0, order)) == 1.0


# ---------------------------------------------------------------------------
# fixed-seed random sweeps, 20 tuples per kernel
# ---------------------------------------------------------------------------


def _log_uniform(rng, lo, hi, size):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size))


def test_ratio_power_random():
    rng = np.random.default_rng(101)
    x = _log_uniform(rng, 1e-10, 1e10, 20)
    e = _log_uniform(rng, 0.5, 128.0, 20)
    for xi, ei in zip(x, e):
        assert close(kernels.ratio_power(xi, ei), ref_ratio_power(xi, ei),
                     RTOL["ratio_power"])


def test_compl_power_random():
    rng = np.random.default_rng(102)
    x = _log_uniform(rng, 1e-10, 1e10, 20)
    a = _log_uniform(rng, 1.0, 64.0, 20)
    m = _log_uniform(rng, 0.75, 32.0, 20)
    for xi, ai, mi in zip(x, a, m):
        assert close(kernels.compl_power(xi, ai, mi),
                     ref_compl_power(xi, ai, mi), RTOL["compl_power"])


def test_y_minus_log1p_random():
    rng = np.random.default_rng(103)
    for yi in _log_uniform(rng, 1e-16, 1e8, 20):
        assert close(kernels.y_minus_log1p(yi), ref_y_minus_log1p(yi),
                     RTOL["y_minus_log1p"])


def test_exp_limit_terms_random():
    rng = np.random.default_rng(104)
    x = _log_uniform(rng, 1e-6, 1e3, 20)
    n = np.round(_log_uniform(rng, 1.0, 1e4, 20))
    for xi, ni in zip(x, n):
        pw_ref, diff_ref = ref_exp_limit_terms(xi, ni)
        pw, diff = kernels.exp_limit_terms(xi, ni)
        assert close(pw, pw_ref, RTOL["exp_limit_terms"])
        assert abs(float(diff) - float(diff_ref)) <= max(
            RTOL["exp_limit_terms"] * abs(float(diff_ref)),
            1e-18 * float(pw_ref)
        )


def test_deconv_from_g_random():
    rng = np.random.default_rng(105)
    g = _log_uniform(rng, 1e-12, 1.0, 20)
    orders = rng.integers(0, 33, 20)
    for gi, oi in zip(g, orders):
        assert close(kernels.deconv_from_g(gi, int(oi)),
                     ref_deconv_from_g(gi, int(oi)), RTOL["deconv_from_g"])


def ref_deconv_small_g(g, order):
    # the definition expanded in powers of g: sum_j (1-g)^j
    # = sum_i C(order+1, i+1) (-g)^i, a fast series while order * g < 1
    g = mpmath.mpf(float(g))
    term = total = mpmath.mpf(order + 1)
    for i in range(1, order + 1):
        term *= -g * (order + 1 - i) / (i + 1)
        total += term
        if abs(term) < mpmath.mpf("1e-40") * total:
            break
    return total


def test_deconv_from_g_tiny_g_against_mpmath():
    # where 1 - (1-g)^(N+1) cancels: the closed form in expm1/log1p form
    # keeps its digits from the smallest subnormal up, at any order
    g = np.concatenate([[5e-324, 1e-320, 3e-310, 2.2250738585072014e-308],
                        np.logspace(-300.0, -7.0, 40)])
    orders = np.array([1, 8, 32, 1000, 10 ** 6])
    table = kernels.deconv_from_g(g, orders[:, None])
    for row, order in zip(table.tolist(), orders.tolist()):
        for gi, got in zip(g.tolist(), row):
            assert close(got, ref_deconv_small_g(gi, order), 5e-16), \
                (gi, order)


def test_log1mexp_matches_mpmath_across_the_switch():
    # both sides of ln 2, where the two forms hand over, and the ends
    ln2 = float(np.log(2.0))
    phi = np.concatenate([np.logspace(-300, 2.8, 400),
                          [np.nextafter(ln2, 0.0), ln2,
                           np.nextafter(ln2, 1.0), 30.0, 700.0]])
    got = kernels.log1mexp(phi)
    for pi, gi in zip(phi.tolist(), got.tolist()):
        # phi runs from 1e-300 and exp(-phi) down to 1e-274: the plain
        # difference 1 - exp(-phi) keeps 20 digits at this precision
        with mpmath.workdps(320):
            ref = mpmath.log(1 - mpmath.exp(-mpmath.mpf(pi)))
        assert close(gi, ref, rtol=4e-16), pi
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert float(kernels.log1mexp(0.0)) == -np.inf
        assert float(kernels.log1mexp(1e4)) == 0.0


# ---------------------------------------------------------------------------
# public entry points accept both scalar and array input
# ---------------------------------------------------------------------------


def test_scalar_and_array_agree():
    xs = [1e-9, 1e-2, 1.0, 1e4]
    arr = np.asarray(kernels.ratio_power(np.array(xs), 3.0))
    for xi, ai in zip(xs, arr):
        assert float(kernels.ratio_power(xi, 3.0)) == ai
    arr = np.asarray(kernels.deconv_from_g(np.array(xs) / 2e4, 5))
    for xi, ai in zip(xs, arr):
        assert float(kernels.deconv_from_g(xi / 2e4, 5)) == ai


def test_zero_edges():
    assert float(kernels.ratio_power(0.0, 2.0)) == 0.0
    # subnormal x: 1/x overflows, the value saturates to 0 without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (5e-324, 1e-310):
            assert float(kernels.ratio_power(x, 2.0)) == 0.0
    assert float(kernels.compl_power(0.0, 3.0, 2.0)) == 0.0
    assert float(kernels.y_minus_log1p(0.0)) == 0.0
    pw, diff = kernels.exp_limit_terms(0.0, 5.0)
    assert float(pw) == 1.0 and float(diff) == 0.0


def test_negative_x_is_masked_to_zero_without_warnings():
    # outside the domain x >= 0 the powers are 0; for x < -1 the masked
    # log is positive and its power overflows, which must not warn
    xs = np.array([-1.0001, -2.0, -1e300, -0.5, -5e-324, np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(kernels.ratio_power(xs, 100.0) == 0.0)
        assert np.all(kernels.compl_power(xs, 100.0, 3.0) == 0.0)
        assert float(kernels.ratio_power(-1.0001, 100.0)) == 0.0


def test_deconv_from_g_order_column_matches_scalar_calls():
    # g from the smallest subnormal up to 1; the column holds order 0,
    # whose row must stay exactly 1
    g = np.array([5e-324, 1e-300, 1e-12, 3e-9, 9.99e-9, 1e-8, 2e-8, 1e-4,
                  0.3, 0.999999, 1.0])
    orders = np.array([0, 1, 2, 3, 5, 8, 16, 32, 100])
    table = kernels.deconv_from_g(g, orders[:, None])
    assert table.shape == (len(orders), len(g))
    assert np.all(table[0] == 1.0)
    for row, order in zip(table, orders.tolist()):
        want = np.asarray(kernels.deconv_from_g(g, order))
        assert row.tobytes() == want.tobytes(), order
        for gi, got in zip(g.tolist(), row.tolist()):
            assert np.float64(kernels.deconv_from_g(gi, order)).tobytes() \
                == np.float64(got).tobytes(), (gi, order)
