"""Scalar-inequality verifier tests: pinned examples, property sweeps,
and the sweep bookkeeping itself."""

import dataclasses
import itertools
import math
import struct

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admles import inequalities
from admles.inequalities import (
    NAMES,
    GridSpec,
    IneqCase,
    check_exp_limit,
    check_highpass_power,
    check_highpass_power_sq,
    check_highpass_ratio,
    default_grid,
    sweep,
)

mpmath.mp.dps = 50


# ---------------------------------------------------------------------------
# pinned example values
# ---------------------------------------------------------------------------


def test_highpass_power_pinned():
    case = check_highpass_power(1.0, 4.0, 1.0)
    assert case.lhs == pytest.approx(0.0625, rel=1e-14)
    assert case.rhs == pytest.approx(0.25, rel=1e-14)
    assert case.passed and case.margin > 0.0


def test_highpass_power_sq_pinned():
    case = check_highpass_power_sq(1.0, 1.0, 1.0)
    assert case.lhs == pytest.approx(0.5, rel=1e-14)
    assert case.rhs == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)
    assert case.passed


def test_highpass_ratio_pinned():
    case = check_highpass_ratio(1.0, 2.0)
    assert case.lhs == pytest.approx(0.25, rel=1e-14)
    assert case.rhs == pytest.approx(0.5, rel=1e-14)
    assert case.passed and case.side_ok


def test_exp_limit_pinned():
    case = check_exp_limit(1.0, 1.0)
    assert case.lhs == pytest.approx(0.5 - math.exp(-1.0), rel=1e-12)
    assert case.lhs == pytest.approx(0.132121, abs=1e-6)
    assert case.rhs == 2.0
    assert case.passed
    tight = check_exp_limit(24.0, 100.0)
    assert tight.rhs == pytest.approx(0.02)
    assert tight.passed


def test_zero_x_cases():
    assert check_highpass_power(0.0, 2.0, 3.0).lhs == 0.0
    assert check_highpass_ratio(0.0, 2.0).lhs == 0.0
    assert check_exp_limit(0.0, 5.0).lhs == 0.0


def test_domain_errors():
    with pytest.raises(ValueError):
        check_highpass_power(-1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        check_highpass_power(1.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        check_highpass_power_sq(1.0, 1.0, 0.9)
    with pytest.raises(ValueError):
        check_highpass_ratio(1.0, 0.0)
    with pytest.raises(ValueError):
        check_exp_limit(1.0, 0.5)


def test_substitution_identity():
    # substituting x -> x^2, a -> 2a turns the square-argument family into
    # the square of the plain one; the two code paths share the kernel so
    # agreement is a few ulp
    for x in (0.3, 1.0, 7.5, 120.0):
        for a, m in ((1.0, 1.0), (2.0, 4.0), (16.0, 2.0)):
            plain = check_highpass_power(x * x, 2.0 * a, m).lhs
            squared = check_highpass_power_sq(x, a, m).lhs ** 2
            assert plain == pytest.approx(squared, rel=5e-15)


def test_exp_limit_monotone_in_n():
    # the power approximant descends toward the exponential from above
    for x in (0.5, 1.0, 24.0):
        diffs = [check_exp_limit(x, n).lhs for n in (1.0, 2.0, 4.0, 16.0,
                                                     256.0)]
        assert all(b < a for a, b in zip(diffs, diffs[1:]))


def test_mpmath_spot_margins():
    # independent high-precision margin signs for awkward corners
    checks = [
        (check_highpass_power, (1e-6, 1024.0, 1024.0),
         lambda x, a, m: (1 - (1 + x) ** -m) ** a - m * x / a ** (1 / m)),
        (check_highpass_power_sq, (3.0, 512.0, 1.5),
         lambda x, a, m: (1 - (1 + x ** 2) ** -m) ** a
         - mpmath.sqrt(m) * x / (2 * a) ** (1 / (2 * m))),
        (check_highpass_ratio, (0.9, 1.0),
         lambda x, a: (x ** 2 / (1 + x ** 2)) ** a - x / mpmath.sqrt(2 * a)),
    ]
    for check, params, ref in checks:
        case = check(*params)
        margin_ref = -ref(*[mpmath.mpf(repr(v)) for v in params])
        assert margin_ref > 0
        assert case.margin == pytest.approx(float(margin_ref), rel=1e-9)


# ---------------------------------------------------------------------------
# hypothesis property sweeps over the stated domains
# ---------------------------------------------------------------------------

x_strategy = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
exp_strategy = st.floats(min_value=1.0, max_value=1024.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(x=x_strategy, a=exp_strategy, m=exp_strategy)
def test_highpass_power_property(x, a, m):
    assert check_highpass_power(x, a, m).passed


@settings(max_examples=200, deadline=None)
@given(x=x_strategy, a=exp_strategy, m=exp_strategy)
def test_highpass_power_sq_property(x, a, m):
    assert check_highpass_power_sq(x, a, m).passed


@settings(max_examples=200, deadline=None)
@given(x=x_strategy, a=exp_strategy)
def test_highpass_ratio_property(x, a):
    case = check_highpass_ratio(x, a)
    assert case.passed and case.side_ok


@settings(max_examples=200, deadline=None)
@given(x=x_strategy, n=exp_strategy)
def test_exp_limit_property(x, n):
    case = check_exp_limit(x, n)
    assert case.passed and case.side_ok


# ---------------------------------------------------------------------------
# sweep bookkeeping
# ---------------------------------------------------------------------------


def test_default_grid_sizes():
    # every default sweep must clear 1e5 evaluated tuples
    for name in NAMES:
        grid = default_grid(name)
        per_x = len(grid.exps) ** (2 if name.startswith("highpass_power") else 1)
        total = per_x * len(grid.x_values())
        assert total > 100_000, name
        dense = default_grid(name, dense=True)
        assert dense.x_points == 10 * grid.x_points
    with pytest.raises(ValueError, match="unknown inequality"):
        default_grid("nope")


@pytest.mark.parametrize("name", NAMES)
def test_small_sweep_passes(name):
    grid = GridSpec(x_points=150)
    result = sweep(name, grid=grid)
    assert result.passed
    assert result.failures == ()
    exps = len(grid.exps)
    expected = (exps ** 2 if name.startswith("highpass_power") else exps) * 151
    assert result.n_cases == expected
    assert result.min_margin >= -1e-12
    # the materialized worst case really is a case of this family
    assert result.worst.name == name
    assert result.worst.passed


def test_sweep_errors():
    with pytest.raises(ValueError, match="unknown inequality"):
        sweep("nope")
    with pytest.raises(ValueError, match="empty grid"):
        sweep("exp_limit", grid=GridSpec(x_points=5, exps=()))


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("grid", [
    GridSpec(x_points=200, exps=(1.0, 0.999)),  # an exponent below 1
    GridSpec(x_points=4, x_hi=math.inf),  # NaN x values
], ids=["exponent_below_1", "x_nan"])
def test_sweep_rejects_grid_outside_domain(name, grid):
    # a sweep's verdict must not cover tuples the scalar check rejects
    with pytest.raises(ValueError,
                       match=r"outside the domain.*GridSpec\(x_points="):
        sweep(name, grid=grid)


@pytest.mark.parametrize("grid, bound", [
    (GridSpec(x_points=4, x_lo=0.0), "x_lo"),
    (GridSpec(x_points=4, x_lo=-1.0), "x_lo"),
    (GridSpec(x_points=4, x_hi=0.0), "x_hi"),
], ids=["x_lo_zero", "x_lo_negative", "x_hi_zero"])
def test_sweep_rejects_bound_without_log(grid, bound):
    # the log-spaced x values need x_lo, x_hi > 0; the error names the
    # bound and the grid rather than a bare math domain error
    with pytest.raises(ValueError,
                       match=rf"{bound} = .* must be > 0.*GridSpec\(x_points="):
        sweep("exp_limit", grid=grid)


@pytest.mark.parametrize("name, n_cases, min_margin, worst_params", [
    ("highpass_power", 115344, 0.0, (0.0, 1.0, 1.0)),
    ("highpass_power_sq", 115344, 0.0, (0.0, 1.0, 1.0)),
    ("highpass_ratio", 115212, 0.0, (0.0, 1.0)),
    ("exp_limit", 115212, 0.0016888846618185313,
     (1.9982798925672296, 1024.0)),
])
def test_default_sweeps_pinned(name, n_cases, min_margin, worst_params):
    result = sweep(name)
    assert result.passed
    assert result.n_cases == n_cases
    assert result.min_margin == pytest.approx(min_margin, rel=1e-12)
    assert result.worst.params == worst_params


def _bits(v):
    return struct.pack("<d", v)


@pytest.mark.parametrize("name, include_zero, min_margin, worst_params", [
    ("highpass_power", True, "0x0.0p+0", (0.0, 1.0, 1.0)),
    ("highpass_power_sq", True, "0x0.0p+0", (0.0, 1.0, 1.0)),
    ("highpass_ratio", True, "0x0.0p+0", (0.0, 1.0)),
    ("exp_limit", True, "0x1.babb218e916bcp-10",
     (1.9982798925672296, 1024.0)),
    # without x = 0, where three families have margin 0
    ("highpass_power", False, "0x1.1979859f00000p-40", (1e-06, 1.0, 1.0)),
    ("highpass_power_sq", False, "0x1.7ba0041886990p-26",
     (1e-06, 1024.0, 1.0)),
    ("highpass_ratio", False, "0x1.7ba0041886990p-26", (1e-06, 1024.0)),
    ("exp_limit", False, "0x1.babb218e916bcp-10",
     (1.9982798925672296, 1024.0)),
])
def test_default_sweeps_pinned_exactly(name, include_zero, min_margin,
                                       worst_params):
    # the values the unstaged evaluators gave, bit for bit
    grid = dataclasses.replace(default_grid(name), include_zero=include_zero)
    result = sweep(name, grid=grid)
    assert _bits(result.min_margin) == _bits(float.fromhex(min_margin))
    assert result.worst.params == worst_params


@settings(max_examples=60, deadline=None)
@given(xs=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                   max_size=6),
       exps=st.lists(st.floats(min_value=1.0, max_value=1024.0), min_size=1,
                     max_size=4))
def test_staged_sweep_matches_scalar_check(xs, exps):
    # every tuple of the sweep's staged evaluation has the lhs, rhs and
    # side condition of the scalar check, bit for bit
    x = np.array(xs)
    for name in NAMES:
        fam = inequalities._FAMILIES[name]
        blocks = list(inequalities._staged(fam, x, exps))
        assert [c for combos, *_ in blocks for c in combos] == list(
            itertools.product(exps, repeat=len(fam.exps)))
        for combos, *terms in blocks:
            lhs, rhs, side_ok = (np.broadcast_to(v, (len(combos), len(xs)))
                                 for v in terms)
            for j, combo in enumerate(combos):
                for i, xi in enumerate(xs):
                    case = inequalities._check(name, xi, *combo)
                    assert _bits(lhs[j, i]) == _bits(case.lhs), (name, xi)
                    assert _bits(rhs[j, i]) == _bits(case.rhs), (name, xi)
                    assert bool(side_ok[j, i]) == case.side_ok, (name, xi)


SMALL_GRID = GridSpec(x_points=24, x_lo=1e-3, x_hi=1e3)


def scalar_sweep(result):
    """n_cases, the smallest relative margin and its params, from the scalar
    path: SweepResult.cases(), one case at a time in itertools.product
    order, the first smallest margin winning."""
    n, best, params = 0, math.inf, None
    for case in result.cases():
        n += 1
        rel = case.margin / max(1.0, case.rhs)
        if rel < best:
            best, params = rel, case.params
    return n, best, params


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("grid", [
    SMALL_GRID, GridSpec(x_points=24, x_lo=1e-3, x_hi=1e3, include_zero=False),
], ids=["with_zero", "without_zero"])
def test_sweep_matches_scalar_path(name, grid):
    result = sweep(name, grid=grid)
    n, best, params = scalar_sweep(result)
    assert result.n_cases == n
    assert struct.pack("<d", result.min_margin) == struct.pack("<d", best)
    assert result.worst.params == params


@pytest.mark.parametrize("name", ["highpass_power_sq", "exp_limit"])
def test_sweep_failures_keep_product_order(monkeypatch, name):
    fam = inequalities._FAMILIES[name]
    exp_names = fam.exps

    def prep(x, *inner):
        return x, inner, fam.prep(x, *inner)

    def failing(state, outer):
        # lhs past rhs wherever x > 1 and the last exponent is 4 or 64
        x, inner, stage = state
        exps = (outer, *inner)
        lhs, rhs, side_ok = fam.terms(stage, outer)
        bad = (np.asarray(x) > 1.0) & np.isin(exps[-1], (4.0, 64.0))
        return np.where(bad, rhs + 1.0, lhs), rhs, side_ok

    monkeypatch.setitem(inequalities._FAMILIES, name,
                        fam._replace(prep=prep, terms=failing))
    result = sweep(name, grid=SMALL_GRID)
    xs = SMALL_GRID.x_values().tolist()
    expected = [
        (x, *combo)
        for combo in itertools.product(SMALL_GRID.exps,
                                       repeat=len(exp_names))
        for x in xs if x > 1.0 and combo[-1] in (4.0, 64.0)
    ]
    assert not result.passed
    assert [c.params for c in result.failures] == expected
    assert all(not c.passed for c in result.failures)


def test_sweep_cases_regenerate():
    grid = GridSpec(x_points=10)
    result = sweep("highpass_ratio", grid=grid)
    cases = list(result.cases())
    assert len(cases) == result.n_cases
    assert all(isinstance(c, IneqCase) and c.passed for c in cases)
    xs = {c.params[0] for c in cases}
    assert 0.0 in xs


def test_case_margin_and_failure_shape():
    case = IneqCase("demo", (1.0,), lhs=2.0, rhs=1.0)
    assert case.margin == -1.0
    assert not case.passed
    ok_but_wrong_side = IneqCase("demo", (1.0,), lhs=0.0, rhs=1.0,
                                 side_ok=False)
    assert not ok_but_wrong_side.passed
