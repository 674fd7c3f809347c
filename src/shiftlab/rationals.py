"""Exact rational helpers: parsing, roots, powers and log crossings.

Everything here works over `fractions.Fraction`.  Roots are taken only when
they are exact in the rationals; otherwise the caller receives None and is
expected to fall back to floats explicitly.  No silent precision loss.
``LogGap`` decides d + ln(k * r**m) <= 0 exactly without building r**m.
"""

from __future__ import annotations

import decimal
import math
import sys
from decimal import Decimal
from fractions import Fraction

from .errors import ConfigError


def as_fraction(value: object, field: str = "value") -> Fraction:
    """Parse a JSON-ish value into an exact Fraction.

    Accepts int, Fraction, or a string like "3/4" or "2".  Floats are
    rejected: configs must be exact.  Plain ASCII "[-]digits[/digits]" is
    read with int(); every other string goes to Fraction(str), unless its
    decimal exponent e has |e| >= the int-string digit limit, as 10**|e|
    would pass that limit and take Fraction(str) seconds to build.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ConfigError(f"{field}: expected a rational, got a bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        try:
            if value.isascii() and num.removeprefix("-").isdigit() and (den.isdigit() or not slash):
                return Fraction(int(num), int(den or 1))
            _, e, exponent = value.lower().rpartition("e")
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            if e and limit and abs(int(exponent)) >= limit:
                raise ConfigError(f"{field}: the exponent of {value!r} passes the {limit}-digit limit")
            return Fraction(value)
        except ConfigError:
            raise
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
    # gcd(a, b) = 1, so q**a is a perfect b-th power exactly when q is: root first
    a, b = expo.numerator, expo.denominator
    root = q if b == 1 else fraction_root(q, b)
    return None if root is None else root**a


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


# -- crossings of d + ln(k * r**m) ------------------------------------------


def _float_log(q: Fraction) -> float:
    """ln q within 11u * |ln q| + 2**-1073, u = 2**-53.  Between 1/2 and 2, log1p of
    float(q - 1), off by u * |q - 1| <= 1.45u * |ln q| (or 2**-1075, subnormal),
    which log1p at most doubles, adding 2u.  Else q * 2**-e (e the difference of the
    bit lengths) is in (1/2, 2): its float costs 2.4u, and e * ln 2 <= 2|ln q| 3u."""
    n, d = q.numerator, q.denominator
    if d < 2 * n and n < 2 * d:
        return math.log1p((n - d) / d)  # int / int is correctly rounded
    e = n.bit_length() - d.bit_length()
    return math.log(n / (d << e) if e >= 0 else (n << -e) / d) + e * math.log(2)


class LogGap:
    """g(m) = d + ln(k * r**m) for rationals k, r > 0 and d; float logs are
    taken once, unless d is past the float range."""

    def __init__(self, k: Fraction, r: Fraction, d: Fraction = Fraction(0)) -> None:
        self.k, self.r, self.d = k, r, d
        finite = d.numerator.bit_length() < d.denominator.bit_length() + 1000
        self._floats = (float(d), _float_log(k), _float_log(r)) if finite else None
        self._decimal_terms: dict[int, tuple[Decimal, Decimal, Decimal, Decimal]] = {}

    def _decimals(self) -> tuple[Decimal, Decimal, Decimal, Decimal]:
        """d + ln k, ln r and their sizes |d| + ln num + ln den of k, and of r, at the context's precision."""
        prec = decimal.getcontext().prec
        if prec not in self._decimal_terms:
            k_num, k_den, r_num, r_den = (Decimal(n).ln() for q in (self.k, self.r) for n in q.as_integer_ratio())
            d = Decimal(self.d.numerator) / self.d.denominator
            self._decimal_terms[prec] = d + (k_num - k_den), r_num - r_den, abs(d) + k_num + k_den, r_num + r_den
        return self._decimal_terms[prec]

    def sign(self, m: int) -> int:
        """Sign of g(m), m >= 0.  Float logs decide where |g| exceeds 2**-40
        of its terms' sizes plus 2**-1070 per term, far above their errors.
        Then a tie k * r**m = 1 (possible only for d = 0, as e**d is
        irrational otherwise) gives 0: in lowest terms it needs num(k) =
        den(r)**m and den(k) = num(r)**m, which bit lengths rule out before
        any power is built.  Else decimal logs decide, their precision P
        doubled until |g| exceeds 10**(2 - P) times the sizes (_decimals),
        five times g's error, as each step rounds within 10**(1 - P) / 2."""
        k, r = self.k, self.r
        if self._floats is not None and m.bit_length() < 1000:
            f_d, f_k, f_r = self._floats
            g = f_d + f_k + m * f_r
            if abs(g) > 2.0**-40 * (abs(f_d) + abs(f_k) + m * abs(f_r)) + (m + 2) * 2.0**-1070:
                return 1 if g > 0 else -1
        if self.d == 0 and all(m * (b.bit_length() - 1) < a.bit_length() <= max(m * b.bit_length(), 1) and a == b**m
                               for a, b in ((k.numerator, r.denominator), (k.denominator, r.numerator))):
            return 0
        prec = max([(m.bit_length() + r.denominator.bit_length()) // 3 + 10, *self._decimal_terms])
        while True:
            with decimal.localcontext() as ctx:
                ctx.prec = prec
                g0, ln_r, size0, size_r = self._decimals()
                g = g0 + m * ln_r
                if abs(g) > (size0 + m * size_r).scaleb(2 - prec):
                    return 1 if g > 0 else -1
            prec *= 2

    def least_crossing(self) -> int:
        """Least m >= 0 with g(m) <= 0, for r < 1: ceil(-(d + ln k) / ln r)
        from float logs where below 2**50, else from decimal logs precise
        enough to keep it within about 1, then moved by exact signs."""
        f_d, f_k, f_r = self._floats or (0.0, 0.0, 0.0)
        q = (f_d + f_k) / -f_r if f_r < 0 else math.inf
        if abs(q) < 2**50:
            m = max(0, math.ceil(q))
        else:
            k, r, d = self.k, self.r, self.d
            size = abs(d.numerator) // d.denominator + k.numerator.bit_length() + k.denominator.bit_length()
            with decimal.localcontext() as ctx:
                ctx.prec = (2 * r.denominator.bit_length() + size.bit_length()) // 3 + 10
                g0, ln_r, _, _ = self._decimals()
                m = max(0, int((g0 / -ln_r).to_integral_value(decimal.ROUND_CEILING)))
        while self.sign(m) > 0:
            m += 1
        while m > 0 and self.sign(m - 1) <= 0:
            m -= 1
        return m
