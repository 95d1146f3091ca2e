"""Deconvolution symbol tests: closed form vs the literal truncated series,
range/saturation structure, and the survived-fraction identity."""

import math
import struct
from collections import namedtuple

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admles import cli
from admles.deconvolution import (
    DeconvOp,
    apply_deconv,
    check_properties,
    deconv_symbol,
    property_reports,
    recovery_symbol,
)
from admles.filters import (
    Gaussian,
    GaussianApprox,
    Helmholtz,
    HelmholtzPower,
    apply_filter,
    complement_power,
    filter_symbol,
    inverse_symbol,
    _helmholtz_x,
)
from admles.spectral import WaveLattice, random_solenoidal, sobolev_norm

H11 = Helmholtz(alpha=1.0, p=1.0)


def series_sum(spec, order, k2):
    """The defining truncated Neumann series, summed term by term."""
    g = np.asarray(filter_symbol(spec, np.asarray(k2, dtype=float)))
    total = np.zeros_like(g)
    term = np.ones_like(g)
    for _ in range(order + 1):
        total = total + term
        term = term * (1.0 - g)
    return total


def test_order_zero_is_identity():
    op = DeconvOp(H11, 0)
    k2 = np.concatenate([[0.0], np.logspace(-3, 14, 60)])
    assert np.array_equal(np.asarray(deconv_symbol(op, k2)), np.ones_like(k2))


def test_pinned_value_three_halves():
    # G = 1/2 at |k| = 1, so order 1 gives 1 + 1/2 = 3/2
    assert deconv_symbol(DeconvOp(H11, 1), 1.0) == pytest.approx(1.5, rel=1e-15)


def test_symbol_one_at_zero_mode():
    for order in (0, 1, 5, 32):
        assert deconv_symbol(DeconvOp(H11, order), 0.0) == 1.0


def test_saturation_at_large_wavenumber():
    for order in (1, 4, 16, 32):
        d = deconv_symbol(DeconvOp(H11, order), 1e12)
        assert abs(d - (order + 1)) <= 1e-6 * (order + 1)


@pytest.mark.parametrize("order", [0, 1, 2, 3, 8, 17, 32])
def test_closed_form_matches_series(order):
    rng = np.random.default_rng(31)
    k2 = np.exp(rng.uniform(np.log(1e-3), np.log(1e8), 64))
    for spec in (H11, Helmholtz(alpha=0.2, p=2.0), Gaussian(alpha=0.8),
                 HelmholtzPower(mu=0.5, m=3)):
        got = np.asarray(deconv_symbol(DeconvOp(spec, order), k2))
        want = series_sum(spec, order, k2)
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_nondecreasing_in_order():
    k2 = np.logspace(-3, 10, 80)
    prev = np.asarray(deconv_symbol(DeconvOp(H11, 0), k2))
    for order in range(1, 33):
        cur = np.asarray(deconv_symbol(DeconvOp(H11, order), k2))
        assert np.all(cur >= prev * (1 - 1e-14))
        prev = cur


def test_order_validation():
    with pytest.raises(ValueError):
        DeconvOp(H11, -1)


@pytest.mark.parametrize("order", [2.5, math.nan, True, False, 1.0, "1"])
def test_order_must_be_an_integer(order):
    # a float, NaN or boolean order used to be accepted, and deconv_symbol
    # then gave a value that is no van Cittert symbol
    with pytest.raises(ValueError,
                       match="^order must be >= 0 and an integer, got "):
        DeconvOp(H11, order)


def test_order_accepts_numpy_integers():
    k2 = np.array([0.0, 0.5, 40.0])
    assert np.array_equal(deconv_symbol(DeconvOp(H11, np.int64(3)), k2),
                          deconv_symbol(DeconvOp(H11, 3), k2))


# ---------------------------------------------------------------------------
# recovery symbol (fraction of a mode surviving filter + deconvolution)
# ---------------------------------------------------------------------------


def test_recovery_pinned_values():
    assert recovery_symbol(DeconvOp(H11, 0), 0.0) == 1.0
    assert recovery_symbol(DeconvOp(H11, 0), 1.0) == pytest.approx(0.5, rel=1e-15)
    assert recovery_symbol(DeconvOp(H11, 1), 1.0) == pytest.approx(0.75, rel=1e-15)


def test_recovery_equals_product_of_symbols():
    k2 = np.concatenate([[0.0], np.logspace(-4, 12, 300)])
    for spec in (H11, Helmholtz(alpha=0.3, p=0.75), Helmholtz(alpha=2.0, p=4.0)):
        for order in (0, 1, 3, 16):
            op = DeconvOp(spec, order)
            rho = np.asarray(recovery_symbol(op, k2))
            prod = np.asarray(deconv_symbol(op, k2)) * np.asarray(
                filter_symbol(spec, k2))
            assert np.array_equal(rho, prod)
            # and the defect form 1 - (1-G)^(N+1), to roundoff
            diff = 1.0 - complement_power(spec, k2, order + 1.0)
            assert float(np.max(np.abs(rho - diff))) <= 1e-13
            assert np.all(rho >= 0.0) and np.all(rho <= 1.0)
            # strictly positive wherever (x/(1+x))^(N+1) has not rounded
            # up to 1 (it does once x approaches 1/ulp)
            with np.errstate(divide="ignore"):
                x = np.where(k2 > 0, (spec.alpha ** 2 * k2) ** spec.p, 0.0)
            assert np.all(rho[x < 1e12] > 0.0)


def test_recovery_equals_product_for_every_family():
    # 1 - (1-G)^(N+1) = D_N G holds for every filter, not only for the
    # Helmholtz form 1 - (x/(1+x))^(N+1)
    k2 = np.concatenate([[0.0], np.logspace(-4, 12, 300)])
    for spec in (Gaussian(alpha=1.0), GaussianApprox(alpha=1.0, m=2),
                 HelmholtzPower(mu=1.0, m=2), H11):
        for order in (0, 1, 3, 16, 100):
            op = DeconvOp(spec, order)
            rho = np.asarray(recovery_symbol(op, k2))
            prod = np.asarray(deconv_symbol(op, k2)) * np.asarray(
                filter_symbol(spec, k2))
            assert np.array_equal(rho, prod)
            # and the defect form 1 - (1-G)^(N+1), to roundoff
            diff = 1.0 - complement_power(spec, k2, order + 1.0)
            assert float(np.max(np.abs(rho - diff))) <= 1e-13
            assert np.all(rho >= 0.0) and np.all(rho <= 1.0)
            assert rho[0] == 1.0
    # at alpha^2 k2 / 24 = 1 the Gaussian symbol is 1/e
    got = recovery_symbol(DeconvOp(Gaussian(alpha=1.0), 1), 24.0)
    assert type(got) is float
    assert got == pytest.approx(1.0 - (1.0 - math.exp(-1.0)) ** 2,
                                rel=1e-15)


def _rho_oracle(g, order):
    """1 - (1-G)^(order+1) at 50 digits from an mpmath G."""
    with mpmath.workdps(50):
        return -mpmath.expm1((order + 1) * mpmath.log1p(-g))


@pytest.mark.parametrize("spec", [H11, Helmholtz(alpha=0.7, p=2.0),
                                  Gaussian(alpha=1.0)],
                         ids=["helmholtz1", "helmholtz2", "gaussian"])
def test_recovery_keeps_its_digits_as_g_vanishes(spec):
    # where G -> 0 the difference 1 - (1-G)^(N+1) cancels; the product
    # D_N G keeps its relative digits.  The oracle's G is exact at the
    # float argument the filter forms (alpha^2 k2, or alpha^2 k2 / 24).
    if isinstance(spec, Gaussian):
        k2 = np.logspace(-4.0, math.log10(24.0 * 740.0), 120)
        args = spec.alpha ** 2 * k2 / 24.0
        exact = [mpmath.exp(-mpmath.mpf(a)) for a in args.tolist()]
    else:
        k2 = np.logspace(-4.0, 12.0, 120)
        args = spec.alpha ** 2 * k2
        exact = [1 / (1 + mpmath.mpf(a) ** spec.p) for a in args.tolist()]
    for order in (0, 1, 4, 8, 32):
        rho = np.asarray(recovery_symbol(DeconvOp(spec, order), k2))
        for ki, gi, ri in zip(k2.tolist(), exact, rho.tolist()):
            want = _rho_oracle(gi, order)
            if want < 1e-300:  # underflow to zero is correct
                assert ri <= 1e-300, (ki, order)
                continue
            assert abs(mpmath.mpf(ri) - want) <= 2e-15 * want, \
                (ki, order, ri)


# ---------------------------------------------------------------------------
# operator behaviour on fields
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    order=st.integers(min_value=0, max_value=32),
    alpha=st.floats(min_value=0.05, max_value=4.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_deconv_operator_norm_window(order, alpha, seed):
    lat = WaveLattice(8)
    f = random_solenoidal(lat, decay=1.0, seed=seed)
    op = DeconvOp(Helmholtz(alpha=alpha, p=1.0), order)
    base = sobolev_norm(f, 1.0)
    out = sobolev_norm(apply_deconv(op, f), 1.0)
    assert base * (1 - 1e-12) <= out <= (order + 1) * base * (1 + 1e-12)


def test_deconv_of_filtered_never_amplifies():
    # D_N G has symbol <= 1, so the composition is a contraction
    lat = WaveLattice(16)
    f = random_solenoidal(lat, decay=1.0, seed=77)
    for order in (0, 1, 4, 32):
        op = DeconvOp(H11, order)
        out = apply_deconv(op, apply_filter(H11, f))
        for s in (0.0, 1.0):
            assert sobolev_norm(out, s) <= sobolev_norm(f, s) * (1 + 1e-13)


# ---------------------------------------------------------------------------
# structured property report
# ---------------------------------------------------------------------------


def test_check_properties_passes():
    op = DeconvOp(Helmholtz(alpha=0.1, p=1.0), 8)
    grid = np.logspace(-2, 14, 100)
    report = check_properties(op, grid)
    assert report.passed
    assert all(r.passed for r in report_rows(report))
    assert list(report.columns) == ["property", "k2", "lhs", "rhs", "pass"]
    names = {r.property for r in report_rows(report)}
    assert names == {"range_low", "range_high", "below_inverse", "saturation"}
    # three pointwise rows per grid point plus the single saturation row
    assert len(report_rows(report)) == 3 * 100 + 1
    assert report.tail_deviation < 1e-6


def test_check_properties_no_saturation_row_on_small_grid():
    report = check_properties(DeconvOp(H11, 2), [0.1, 1.0, 10.0])
    assert {r.property for r in report_rows(report)} == {
        "range_low", "range_high", "below_inverse"}
    assert report.passed


def test_check_properties_sorts_grid():
    report = check_properties(DeconvOp(H11, 1), [10.0, 0.1, 1.0])
    ks = [r.k2 for r in report_rows(report) if r.property == "range_low"]
    assert ks == sorted(ks)


def test_check_properties_rejects_bad_input():
    with pytest.raises(ValueError, match="empty"):
        check_properties(DeconvOp(H11, 1), [])
    with pytest.raises(TypeError):
        check_properties(DeconvOp(Gaussian(alpha=1.0), 1), [1.0])


def test_below_inverse_row_uses_inverse_symbol():
    spec = Helmholtz(alpha=0.5, p=1.5)
    report = check_properties(DeconvOp(spec, 5), [4.0])
    row = [r for r in report_rows(report)
           if r.property == "below_inverse"][0]
    assert row.rhs == pytest.approx(inverse_symbol(spec, 4.0), rel=1e-15)
    assert row.lhs <= row.rhs


# One row of a property table, its columns in CSV order.
Row = namedtuple("Row", "property k2 lhs rhs passed")


def report_rows(report):
    """The rows of a report's columns, as Python values."""
    return [Row(*row) for row in zip(*(col.tolist()
                                       for col in report.columns.values()))]


def eager_property_rows(op, k2_grid):
    """The property rows built point by point, one Row at a time: the
    reference for the array form of check_properties."""
    k2 = np.sort(np.asarray(list(k2_grid), dtype=np.float64))
    d = np.asarray(deconv_symbol(op, k2))
    a = np.asarray(inverse_symbol(op.spec, k2))
    top = float(op.order + 1)
    tol = 1e-12
    rows = []
    for k2i, di, ai in zip(k2, d, a):
        rows.append(Row("range_low", float(k2i), 1.0, float(di),
                        di >= 1.0 - tol))
        rows.append(Row("range_high", float(k2i), float(di), top,
                        di <= top * (1.0 + tol)))
        rows.append(Row("below_inverse", float(k2i), float(di), float(ai),
                        di <= ai * (1.0 + tol)))
    if k2[-1] > 1e12:
        gap = abs(float(d[-1]) - top)
        rows.append(Row("saturation", float(k2[-1]), gap, 1e-6 * top,
                        gap <= 1e-6 * top))
    return rows


# the grid, filters and orders of `admles verify`
VERIFY_K2 = np.logspace(-2.0, 14.0, 33)
VERIFY_OPS = [DeconvOp(Helmholtz(alpha=alpha, p=p), order)
              for p in (0.75, 1.0, 2.0, 4.0) for alpha in (0.1, 1.0)
              for order in (0, 1, 2, 4, 8, 16, 32)]


def test_check_properties_rows_match_eager_build():
    for op in VERIFY_OPS + [DeconvOp(H11, 3)]:
        for grid in (VERIFY_K2, [10.0, 0.0, 0.5]):
            report = check_properties(op, grid)
            expected = eager_property_rows(op, grid)
            rows = report_rows(report)
            assert rows == expected, op
            assert len(report.columns["pass"]) == len(expected)
            assert report.passed == all(r.passed for r in expected)
            for got, want in zip(rows, expected):
                for field in ("k2", "lhs", "rhs"):
                    assert struct.pack("<d", getattr(got, field)) == \
                        struct.pack("<d", getattr(want, field))


@pytest.mark.parametrize("bad", [math.nan, -1.0, -math.inf])
def test_check_properties_rejects_nan_and_negative_k2(bad):
    # (alpha^2 k2)^p is taken as 0 for k2 <= 0 or NaN, so such a grid
    # point would pass every check without being a wavenumber
    for spec in (Helmholtz(alpha=1.0, p=0.75), H11):
        with pytest.raises(ValueError, match=f"got {bad!r}"):
            check_properties(DeconvOp(spec, 2), [bad, 1.0])


def test_property_report_arrays_are_read_only():
    # the report is frozen, and the reports of one filter share the
    # arrays their columns are rows of, so no column may change
    for grid in ([0.1, 1.0], VERIFY_K2):
        report = check_properties(DeconvOp(H11, 2), grid)
        for arr in report.columns.values():
            with pytest.raises(ValueError, match="read-only"):
                arr[..., 0] = 0


def eager_tail_deviation(op, k2_grid):
    """The relative deviation of D_hat from (order+1)(1+x)/x at the largest
    grid point, from one scalar symbol evaluation."""
    k2_max = float(max(k2_grid))
    x = float(_helmholtz_x(op.spec, k2_max))
    top = float(op.order + 1)
    return abs(float(deconv_symbol(op, k2_max)) / (top * (1.0 + x) / x)
               - 1.0)


VERIFY_ORDERS = (0, 1, 2, 4, 8, 16, 32)


def test_property_reports_match_one_order_at_a_time():
    # one evaluation per filter for all orders gives, order by order, the
    # report of the eager one-order build
    for spec in sorted({op.spec for op in VERIFY_OPS}, key=repr):
        for grid in (VERIFY_K2, [10.0, 0.0, 0.5]):
            reports = property_reports(spec, VERIFY_ORDERS, grid)
            assert len(reports) == len(VERIFY_ORDERS)
            for order, report in zip(VERIFY_ORDERS, reports):
                op = DeconvOp(spec, order)
                expected = eager_property_rows(op, grid)
                rows = report_rows(report)
                assert report.op == op
                assert rows == expected, op
                assert len(report.columns["pass"]) == len(expected)
                assert report.passed == all(r.passed for r in expected)
                failing = [dict(zip(report.columns, r))
                           for r in expected if not r.passed]
                assert cli._first_failure(report.columns, "pass") == \
                    (failing[0] if failing else None)
                for got, want in zip(rows, expected):
                    for field in ("k2", "lhs", "rhs"):
                        assert struct.pack("<d", getattr(got, field)) == \
                            struct.pack("<d", getattr(want, field))
                tail = eager_tail_deviation(op, grid)
                assert struct.pack("<d", report.tail_deviation) == \
                    struct.pack("<d", tail), op


def test_property_reports_refusals():
    with pytest.raises(ValueError, match="order must be >= 0"):
        property_reports(H11, (0, -1), [1.0])
    with pytest.raises(TypeError, match="Helmholtz"):
        property_reports(Gaussian(alpha=1.0), (0, 1), [1.0])
    with pytest.raises(ValueError, match="empty"):
        property_reports(H11, (0, 1), [])
    with pytest.raises(ValueError, match="got nan"):
        property_reports(H11, (0, 1), [1.0, math.nan])
