"""Exact rational helpers: parsing, roots, and powers.

Everything here works over `fractions.Fraction`.  Roots are taken only when
they are exact in the rationals; otherwise the caller receives None and is
expected to fall back to floats explicitly.  No silent precision loss.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import ConfigError


def as_fraction(value: object, field: str = "value") -> Fraction:
    """Parse a JSON-ish value into an exact Fraction.

    Accepts int, Fraction, or a string like "3/4" or "2".  Floats are
    rejected: configs must be exact.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ConfigError(f"{field}: expected a rational, got a bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{field}: cannot parse {value!r} as a rational") from exc
    raise ConfigError(f"{field}: expected a rational string, got {type(value).__name__}")


def int_nthroot(n: int, k: int) -> int | None:
    """Exact k-th root of a nonnegative integer, or None if n is not a
    perfect k-th power."""
    if n < 0 or k < 1:
        raise ValueError("int_nthroot needs n >= 0 and k >= 1")
    if n in (0, 1) or k == 1:
        return n
    if k >= n.bit_length():
        return None  # 1 < root < 2, as 2 ** k > n
    if k == 2:
        r = math.isqrt(n)
    else:
        # integer Newton from 2**ceil(bits/k), which is above the root; the
        # iterates fall monotonically to floor(n ** (1/k))
        r = 1 << -(-n.bit_length() // k)
        while True:
            s = ((k - 1) * r + n // r ** (k - 1)) // k
            if s >= r:
                break
            r = s
    return r if r**k == n else None


def fraction_root(q: Fraction, k: int) -> Fraction | None:
    """Exact k-th root of a nonnegative rational, or None."""
    if q < 0:
        raise ValueError("fraction_root needs q >= 0")
    num = int_nthroot(q.numerator, k)
    if num is None:
        return None
    den = int_nthroot(q.denominator, k)
    if den is None:
        return None
    return Fraction(num, den)


def fraction_pow(q: Fraction, expo: Fraction) -> Fraction | None:
    """q**expo as an exact Fraction, or None when the root is irrational.

    q must be positive.  expo may be negative.
    """
    if q <= 0:
        raise ValueError("fraction_pow needs q > 0")
    if expo < 0:
        base = fraction_pow(q, -expo)
        return None if base is None else 1 / base
    a, b = expo.numerator, expo.denominator
    powered = q**a
    if b == 1:
        return powered
    return fraction_root(powered, b)


def log_fraction(q: Fraction | float) -> float:
    """Natural log of a positive rational, even where float(q) is out of range.

    A Fraction whose float would overflow, or lose digits below the normal
    range, is taken as log(numerator) - log(denominator), which math.log
    computes for big ints from their leading bits and bit count.
    """
    try:
        f = float(q)
        if f >= sys.float_info.min or not isinstance(q, Fraction):
            return math.log(f)
    except OverflowError:
        pass
    return math.log(q.numerator) - math.log(q.denominator)


def log_ratio(q: Fraction) -> float:
    """log q, by log1p(q - 1) between 1/2 and 2, where log(float(q)) loses digits."""
    return math.log1p(float(q - 1)) if Fraction(1, 2) < q < 2 else log_fraction(q)


def pow_maybe_exact(q: Fraction, expo: Fraction) -> Fraction | float:
    """q**expo, exact when possible, float otherwise.  q must be positive."""
    exact = fraction_pow(q, expo)
    if exact is not None:
        return exact
    return math.exp(float(expo) * log_fraction(q))


def abs_pow(value: Fraction | float | complex, expo: Fraction) -> Fraction | float:
    """|value|**expo, exact when both inputs permit it.

    Zero maps to zero (expo > 0 assumed there).
    """
    if isinstance(value, Fraction):
        if value == 0:
            return Fraction(0)
        return pow_maybe_exact(abs(value), expo)
    v = abs(value)
    if v == 0.0:
        return 0.0
    return v ** float(expo)
