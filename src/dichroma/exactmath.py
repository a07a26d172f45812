"""Exact comparisons against e^7, natural logarithms, and square roots.

Everything here returns certified answers: transcendental quantities are
sandwiched between integer fixed-point bounds (value*2^bits) that are refined
until the comparison or rounding in question is decided.  Square-root
comparisons avoid radicals entirely by squaring once the sign condition is
known.  No floats are involved anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import InvalidParameter


def exact_fraction(value, name: str) -> Fraction:
    """value as a Fraction; a float is refused, since its binary expansion
    would silently stand in for the rational the caller meant."""
    if isinstance(value, float):
        raise InvalidParameter(f"{name} must be exact, not a float")
    return Fraction(value)


# -- fixed-point bounds for e^7 and ln ----------------------------------


def e7_bounds(bits: int) -> tuple[int, int]:
    """Integers (lo, hi) with lo/2^bits <= e^7 <= hi/2^bits.

    Partial sums of sum 7^i/i! with a geometric tail bound: for N >= 14 the
    tail after term N is at most twice the next term.
    """
    scale = 1 << (bits + 16)
    total = 0
    term = scale  # 7^0/0! at working scale
    i = 0
    while True:
        total += term
        i += 1
        term = term * 7 // i
        if term == 0 or i > 200:
            # the 200-term cap bounds accumulated floor losses below the
            # guard bits; it allows roughly 700 bits of absolute precision
            break
    # tail after the last added term is < 2 * (next term + 1)
    tail = 2 * (term + 1) + i  # +i absorbs the floor losses, one per division
    lo = (total) >> 16
    hi = (total + tail >> 16) + 1
    return lo, hi


def _atanh_bounds(num: int, den: int, bits: int) -> tuple[int, int]:
    """Fixed-point bounds for atanh(num/den) with 0 < num/den <= 1/3."""
    scale = 1 << (bits + 16)
    z = scale * num // den
    zsq_num, zsq_den = num * num, den * den
    total = 0
    term = z
    j = 0
    losses = 0
    while term > 0:
        total += term // (2 * j + 1)
        losses += 1
        term = term * zsq_num // zsq_den
        j += 1
        if j > 4 * bits:
            break
    # geometric tail: remaining sum < term/(1 - z^2) <= term * 9/8 for z <= 1/3;
    # 5j + 2 dominates the accumulated floor losses at working scale
    tail = term * 9 // 8 + 4 * j + losses + 2
    return total >> 16, ((total + tail) >> 16) + 1


def ln_bounds(x: Fraction, bits: int) -> tuple[int, int]:
    """Integers (lo, hi) with lo/2^bits <= ln(x) <= hi/2^bits, for x >= 1.

    Scales x into [1, 2) by powers of two, then ln x = k ln 2 + ln m with the
    atanh series ln m = 2 atanh((m-1)/(m+1)), whose argument is <= 1/3.
    """
    if x < 1:
        raise InvalidParameter("ln_bounds expects x >= 1")
    k = 0
    m = Fraction(x)
    while m >= 2:
        m /= 2
        k += 1
    ln2_lo, ln2_hi = _atanh_bounds(1, 3, bits)  # ln 2 = 2 atanh(1/3)
    ln2_lo, ln2_hi = 2 * ln2_lo, 2 * ln2_hi
    d = m - 1
    if d == 0:
        m_lo = m_hi = 0
    else:
        z = d / (m + 1)
        m_lo, m_hi = _atanh_bounds(z.numerator, z.denominator, bits)
        m_lo, m_hi = 2 * m_lo, 2 * m_hi
    return k * ln2_lo + m_lo, k * ln2_hi + m_hi


# -- derived exact operations -------------------------------------------


def floor_div_e7(numerator: int, denominator: int) -> int:
    """floor(numerator / (denominator * e^7)) for positive integers, exactly.

    The value is irrational unless numerator == 0, so refining the sandwich
    always terminates.
    """
    if numerator < 0 or denominator <= 0:
        raise InvalidParameter("floor_div_e7 expects numerator >= 0, denominator > 0")
    if numerator == 0:
        return 0
    bits = 32
    while True:
        lo, hi = e7_bounds(bits)
        # e7 in [lo, hi]/2^bits, so the ratio lies between the two floors below
        f_lo = (numerator << bits) // (denominator * hi)
        f_hi = (numerator << bits) // (denominator * lo)
        if f_lo == f_hi:
            return f_lo
        bits *= 2
        if bits > 1 << 16:
            raise InvalidParameter("sandwich failed to converge")


def compare_to_ln_cubed(q: Fraction, x: int) -> int:
    """Sign of q - ln(x)^3 for integer x >= 2, exactly (-1, 0 impossible, +1)."""
    if x < 2:
        raise InvalidParameter("need x >= 2")
    bits = 48
    while True:
        lo, hi = ln_bounds(Fraction(x), bits)
        lo = max(lo, 0)
        cube_lo = Fraction(lo**3, 1 << (3 * bits))
        cube_hi = Fraction(hi**3, 1 << (3 * bits))
        if q > cube_hi:
            return 1
        if q < cube_lo:
            return -1
        bits *= 2
        if bits > 1 << 16:
            raise InvalidParameter("sandwich failed to converge")


def ceil_sqrt(n: int) -> int:
    """Smallest integer t with t^2 >= n (n >= 0)."""
    if n < 0:
        raise InvalidParameter("ceil_sqrt of a negative number")
    s = isqrt(n)
    return s if s * s == n else s + 1


def geq_sqrt(value: Fraction, radicand: Fraction) -> bool:
    """Decide value >= sqrt(radicand) without radicals (radicand >= 0)."""
    if radicand < 0:
        raise InvalidParameter("negative radicand")
    if value < 0:
        return False
    return value * value >= radicand
