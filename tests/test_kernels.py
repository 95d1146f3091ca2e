"""Scalar-kernel accuracy tests against 50-digit mpmath references.

Each kernel has an independent high-precision oracle defined here before any
comparison with the package implementation.  Branch-crossover inputs (series
cut, expm1 cut, geometric-sum cut) are pinned explicitly so a future change
to the cutoffs cannot silently regress one side.
"""

import warnings

import mpmath
import numpy as np
import pytest

from admles import kernels

mpmath.mp.dps = 50

RTOL = 5e-14


# ---------------------------------------------------------------------------
# mpmath oracles (frozen before looking at implementation output)
# ---------------------------------------------------------------------------


def ref_ratio_power(x, e):
    if x == 0:
        return mpmath.mpf(0)
    x = mpmath.mpf(repr(float(x)))
    return (x / (1 + x)) ** mpmath.mpf(repr(float(e)))


def ref_compl_power(x, a, m):
    if x == 0:
        return mpmath.mpf(0)
    x = mpmath.mpf(repr(float(x)))
    m = mpmath.mpf(repr(float(m)))
    a = mpmath.mpf(repr(float(a)))
    return (1 - (1 + x) ** (-m)) ** a


def ref_y_minus_log1p(y):
    y = mpmath.mpf(repr(float(y)))
    return y - mpmath.log1p(y)


def ref_exp_limit_terms(x, n):
    x = mpmath.mpf(repr(float(x)))
    n = mpmath.mpf(repr(float(n)))
    pw = (1 + x / n) ** (-n)
    return pw, pw - mpmath.exp(-x)


def ref_deconv_from_g(g, order):
    # explicit truncated geometric sum, the definition rather than the
    # closed form the implementation uses
    g = mpmath.mpf(repr(float(g)))
    return sum((1 - g) ** j for j in range(order + 1))


def close(value, ref, rtol=RTOL):
    ref = mpmath.mpf(ref)
    if abs(ref) < mpmath.mpf("1e-290"):
        # below (or near) the subnormal floor; underflow to zero is correct
        return abs(float(value)) <= 1e-290
    return abs(mpmath.mpf(repr(float(value))) - ref) <= rtol * abs(ref)


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

# geometric-sum cut for the deconvolution kernel sits at g = 1e-8
G_VALUES = [1e-12, 9.9e-9, 1e-8, 1.1e-8, 1e-6, 1e-3, 0.25, 0.5, 0.999, 1.0]
ORDERS = [0, 1, 2, 3, 8, 32]


@pytest.mark.parametrize("y", Y_VALUES)
def test_y_minus_log1p_pinned(y):
    assert close(kernels.y_minus_log1p(y), ref_y_minus_log1p(y))


@pytest.mark.parametrize("x,n", EXP_LIMIT_CASES)
def test_exp_limit_terms_pinned(x, n):
    pw_ref, diff_ref = ref_exp_limit_terms(x, n)
    pw, diff = kernels.exp_limit_terms(x, n)
    assert close(pw, pw_ref)
    # diff can be ~1e-200 against pw ~1; judge it relative to its own scale,
    # with an absolute floor tied to pw's last ulp
    diff_ref_f = float(diff_ref)
    assert abs(float(diff) - diff_ref_f) <= max(
        RTOL * abs(diff_ref_f), 1e-18 * float(pw_ref)
    )


@pytest.mark.parametrize("g", G_VALUES)
@pytest.mark.parametrize("order", ORDERS)
def test_deconv_from_g_pinned(g, order):
    assert close(kernels.deconv_from_g(g, order), ref_deconv_from_g(g, order))


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
        assert close(kernels.ratio_power(xi, ei), ref_ratio_power(xi, ei))


def test_compl_power_random():
    rng = np.random.default_rng(102)
    x = _log_uniform(rng, 1e-10, 1e10, 20)
    a = _log_uniform(rng, 1.0, 64.0, 20)
    m = _log_uniform(rng, 0.75, 32.0, 20)
    for xi, ai, mi in zip(x, a, m):
        assert close(kernels.compl_power(xi, ai, mi), ref_compl_power(xi, ai, mi))


def test_y_minus_log1p_random():
    rng = np.random.default_rng(103)
    for yi in _log_uniform(rng, 1e-16, 1e8, 20):
        assert close(kernels.y_minus_log1p(yi), ref_y_minus_log1p(yi))


def test_exp_limit_terms_random():
    rng = np.random.default_rng(104)
    x = _log_uniform(rng, 1e-6, 1e3, 20)
    n = np.round(_log_uniform(rng, 1.0, 1e4, 20))
    for xi, ni in zip(x, n):
        pw_ref, diff_ref = ref_exp_limit_terms(xi, ni)
        pw, diff = kernels.exp_limit_terms(xi, ni)
        assert close(pw, pw_ref)
        assert abs(float(diff) - float(diff_ref)) <= max(
            RTOL * abs(float(diff_ref)), 1e-18 * float(pw_ref)
        )


def test_deconv_from_g_random():
    rng = np.random.default_rng(105)
    g = _log_uniform(rng, 1e-12, 1.0, 20)
    orders = rng.integers(0, 33, 20)
    for gi, oi in zip(g, orders):
        assert close(kernels.deconv_from_g(gi, int(oi)), ref_deconv_from_g(gi, int(oi)))


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
