"""Exact arithmetic helpers against high-precision mpmath references."""

from fractions import Fraction
from math import isqrt

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dichroma.errors import InvalidParameter
from dichroma.exactmath import (
    ceil_sqrt,
    compare_to_ln_cubed,
    e7_bounds,
    floor_div_e7,
    geq_sqrt,
    ln_bounds,
)


def test_e7_bounds_sandwich_tightens() -> None:
    with mpmath.workdps(200):
        truth = mpmath.e**7
        for bits in (16, 48, 128, 256):
            lo, hi = e7_bounds(bits)
            scaled = truth * (1 << bits)
            assert mpmath.mpf(lo) <= scaled <= mpmath.mpf(hi)
            assert hi - lo <= 1 << 8  # slack stays bounded as bits grow


def test_ln_bounds_against_mpmath() -> None:
    with mpmath.workdps(200):
        for x in (Fraction(2), Fraction(3), Fraction(10), Fraction(7, 3), Fraction(1790939)):
            lo, hi = ln_bounds(x, 96)
            truth = mpmath.log(mpmath.mpf(x.numerator) / x.denominator)
            scaled = truth * (1 << 96)
            assert mpmath.mpf(lo) <= scaled <= mpmath.mpf(hi)


def test_floor_div_e7_reference_values() -> None:
    with mpmath.workdps(120):
        e7 = mpmath.e**7
        for num, den in [(1, 1), (10966, 1), (12345678, 13), (4 * 10**9, 7)]:
            expect = int(mpmath.floor(num / (den * e7)))
            assert floor_div_e7(num, den) == expect
    assert floor_div_e7(0, 5) == 0


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**12), st.integers(1, 10**6))
def test_floor_div_e7_matches_mpmath(num: int, den: int) -> None:
    with mpmath.workdps(80):
        expect = int(mpmath.floor(num / (den * mpmath.e**7)))
    assert floor_div_e7(num, den) == expect


def test_floor_div_e7_rejects_bad_input() -> None:
    with pytest.raises(InvalidParameter):
        floor_div_e7(-1, 1)
    with pytest.raises(InvalidParameter):
        floor_div_e7(1, 0)


def test_compare_to_ln_cubed() -> None:
    with mpmath.workdps(120):
        for x in (2, 3, 20, 599, 1790938, 1790939):
            cube = mpmath.log(x) ** 3
            for q in (Fraction(1, 3), Fraction(2984), Fraction(2985)):
                as_mpf = mpmath.mpf(q.numerator) / q.denominator
                expect = 1 if as_mpf > cube else -1
                assert compare_to_ln_cubed(q, x) == expect


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**12))
def test_ceil_sqrt(n: int) -> None:
    r = ceil_sqrt(n)
    assert r * r >= n
    assert r == 0 or (r - 1) * (r - 1) < n


@settings(max_examples=200, deadline=None)
@given(
    st.fractions(min_value=0, max_value=1000),
    st.fractions(min_value=0, max_value=1000),
)
def test_sqrt_comparisons(value: Fraction, radicand: Fraction) -> None:
    assert geq_sqrt(value, radicand) == (value * value >= radicand)


def test_sqrt_helpers_reject_negative_radicand() -> None:
    with pytest.raises(InvalidParameter):
        geq_sqrt(Fraction(1), Fraction(-1))


def test_ceil_sqrt_perfect_squares() -> None:
    for t in range(0, 2000, 37):
        assert ceil_sqrt(t * t) == t
        if t:
            assert ceil_sqrt(t * t + 1) == t + 1
    assert ceil_sqrt(10**18) == isqrt(10**18)
