"""Exact rational helpers: parsing, roots, powers and log crossings.

Everything here works over `fractions.Fraction`.  Roots are taken only when
they are exact in the rationals; otherwise the caller receives None and is
expected to fall back to floats explicitly.  No silent precision loss.
``LogGap`` decides ln(k * r**m) <= 0 exactly: certified floats, else fixed point.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from fractions import Fraction

from .errors import ConfigError


def plain_pair(text: str) -> tuple[int, int]:
    """Read a plain ASCII "[-]digits[/digits]" string with int() as a reduced
    (numerator, denominator) pair.  Any other value raises (AttributeError,
    ValueError or ZeroDivisionError), for ``as_fraction`` to read or name its fault."""
    num, slash, den = text.partition("/")
    if not (text.isascii() and num.removeprefix("-").isdigit() and (den.isdigit() or not slash)):
        raise ValueError(f"not a plain rational: {text!r}")
    n, d = int(num), int(den or 1)
    g = math.gcd(n, d) if d else 0  # a zero denominator raises ZeroDivisionError below
    return n // g, d // g


def as_fraction(value: object, field: str = "value") -> Fraction:
    """Parse a JSON-ish value into an exact Fraction.

    Accepts int, Fraction, or a string like "3/4" or "2".  Floats are
    rejected: configs must be exact.  Any string plain_pair cannot read goes
    to Fraction(str), unless its decimal exponent e has |e| >= the int-string
    digit limit, as 10**|e| would pass that limit and take seconds to build.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ConfigError(f"{field}: expected a rational, got a bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(*plain_pair(value))
        except (ValueError, ZeroDivisionError):
            pass  # the general parse below reads the value or names its fault
        try:
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


RESIDUE_BITS = 4096  # operands past this many bits meet the residue test before a root is taken


@functools.lru_cache(maxsize=16)
def _residue_primes(k: int) -> tuple[int, tuple[int, ...]]:
    """The 16 least primes l = 1 (mod k), k >= 2, and their product."""
    primes = tuple(itertools.islice((l for l in itertools.count(k + 1, k)
                                     if all(l % d for d in range(2, math.isqrt(l) + 1))), 16))
    return math.prod(primes), primes


def int_nthroot(n: int, k: int) -> int | None:
    """Exact k-th root of a nonnegative integer, or None if n is not a
    perfect k-th power.  Past RESIDUE_BITS, n is first tested as a k-th
    power residue mod 16 primes l = 1 (mod k) (Cohen, GTM 138, section 1.7):
    a k-th power is 0 mod l or has n**((l - 1) / k) = 1 mod l, and a residue
    test costs a remainder where a root of a million bits takes seconds."""
    if n < 0 or k < 1:
        raise ValueError("int_nthroot needs n >= 0 and k >= 1")
    if n in (0, 1) or k == 1:
        return n
    if k >= (bits := n.bit_length()):
        return None  # 1 < root < 2, as 2 ** k > n
    if bits > RESIDUE_BITS:
        modulus, primes = _residue_primes(k)
        if any(pow(r % l, (l - 1) // k, l) > 1 for r in [n % modulus] for l in primes):
            return None
    if k == 2:
        r = math.isqrt(n)
    else:
        # integer Newton from a start at or above the root, whence the iterates fall
        # monotonically to floor(n ** (1/k)): 2 ** (log2(n) / k), within a relative
        # 2**-20 of the root, raised by that margin and 2, in floats to 53 bits only
        e = math.log2(n) / k
        shift = max(0, int(e) - 52)
        r = int(2 ** (e - shift) * (1 + 2.0**-20)) + 2 << shift
        while True:
            s = ((k - 1) * r + n // r ** (k - 1)) // k
            if s >= r:
                break
            r = s
    return r if r**k == n else None


def fraction_root(q: Fraction, k: int) -> Fraction | None:
    """Exact k-th root of a nonnegative rational, or None.  The denominator is rooted
    first, so a long non-power one fails int_nthroot's residue test before the numerator is rooted."""
    if q.numerator < 0:
        raise ValueError("fraction_root needs q >= 0")
    den = int_nthroot(q.denominator, k)
    num = None if den is None else int_nthroot(q.numerator, k)
    return None if num is None else Fraction(num, den)


def fraction_pow(q: Fraction, expo: Fraction) -> Fraction | None:
    """q**expo as an exact Fraction, or None when the root is irrational.

    q must be positive.  expo may be negative.
    """
    if q.numerator <= 0:
        raise ValueError("fraction_pow needs q > 0")
    if expo.numerator < 0:
        base = fraction_pow(q, -expo)
        return None if base is None else 1 / base
    # gcd(a, b) = 1, so q**a is a perfect b-th power exactly when q is: root first (a = 1: no power)
    a, b = expo.numerator, expo.denominator
    root = q if b == 1 else fraction_root(q, b)
    return root if root is None or a == 1 else root**a


def log_fraction(q: Fraction | float) -> float:
    """Natural log of a positive rational, even where float(q) is out of range.

    A Fraction whose float would overflow, or lose digits below the normal
    range, is taken as log(numerator) - log(denominator), which math.log
    computes for big ints from their leading bits and bit count.
    """
    if isinstance(q, float):
        return math.log(q)
    try:
        if (f := q.numerator / q.denominator) >= sys.float_info.min:
            return math.log(f)  # the correctly rounded float(q), where it is normal
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


# -- crossings of ln(k * r**m) ----------------------------------------------


def _float_log(q: Fraction, d: int = 1) -> float:
    """ln q within 11u * |ln q| + 2**-1073, u = 2**-53, for q, or q / d where q is an int.
    Between 1/2 and 2, log1p of float(q - 1), off by u * |q - 1| <= 1.45u * |ln q| (or
    2**-1075, subnormal), which log1p at most doubles, adding 2u.  Else |ln q| >= ln 2:
    if n / d is normal, its rounding moves the log by 1.01u <= 1.46u |ln q| and log's
    last bit adds 2.01u |ln q|; if not, q * 2**-e (e the difference of the bit lengths)
    is in (1/2, 2): its float costs 2.4u, and e * ln 2 <= 2|ln q| 3u."""
    n, d = q.numerator, q.denominator * d
    if d < 2 * n and n < 2 * d:
        return math.log1p((n - d) / d)  # int / int is correctly rounded
    e = n.bit_length() - d.bit_length()
    if -1000 < e < 1000:  # 2**-1000 < q < 2**1000
        return math.log(n / d)
    return math.log(n / (d << e) if e >= 0 else (n << -e) / d) + e * math.log(2)


@functools.lru_cache(maxsize=64)
def _atanh_ln(y: int, w: int, s: int) -> int:
    """2**w ln(y / 2**w) for y / 2**w in [1/2, 2], within 2**(s + bitlen(w) + 2) for
    w >= s + 6 (_ln_fixed); memoised, so 2**w ln 2 is taken once per (w, s)."""
    one = 1 << w
    for _ in range(s):
        y = math.isqrt(y << w)
    a = (abs(y - one) << w) // (y + one)
    a2, p, total, k = a * a >> w, a, 0, 1
    while p:
        total += p // k
        p, k = p * a2 >> w, k + 2
    return total << (s + 1) if y >= one else -(total << (s + 1))


def _ln_fixed(q: Fraction, bits: int) -> int:
    """An integer L with |L - 2**bits ln q| < 1, for a rational q > 0 and bits >= 0.

    With q = 2**e x, e the difference of the bit lengths of num(q) and den(q), x is
    in (1/2, 2).  Work in integers scaled by W = 2**w, u = 1/W, w = bits + g:
    1. _atanh_ln takes s square roots y_(j+1) = isqrt(y_j W) from y_0 = floor(x W).
       Every y_j >= W/2, so y_0 and each root lose under 2u of ln; root j's loss
       counts 2**j times, so ln x - 2**s ln(y_s u) is in [0, 2**(s+2) u), and
       z = (y_s - W) / (y_s + W) = tanh(ln(y_s u) / 2) has |z| < 2**-(s+1) as w >= s + 4.
    2. a = floor(|z| W) u is within u below |z|, where atanh' < 4/3.  Its odd powers
       p_(k+1) = floor(p_k floor(a**2 W)) u stay within e_k < 2u below a**(2k+1), as
       e_(k+1) < e_k / 4 + 3u/2, so each term floor(p_k W / (2k+1)) u is within 2u below
       a**(2k+1) / (2k+1).  The sum stops at the first p_K = 0: a**(2K+1) < 2u leaves a
       tail under 3u, and p_k < 2**-(s+1)(2k+1) gives K <= w / (2s+2) + 1/2.  So the sum
       S is within (2K+5)u of atanh |z|, and 2**(s+1) S, signed as z, is within
       2**(s+1) (2K+7) u <= 2**(s + bitlen(w) + 2) u of ln x, as w >= 6.
    3. 2**w ln 2 is steps 1-2 on y_0 = 2W, within the same bound.
    So L0 = 2**(s+1) S W + e (2**w ln 2) is within (1 + |e|) 2**(s + bitlen(w) + 2) <=
    2**(g-1) of W ln q for g = s + bitlen(e) + 3 + bitlen(w), as w = h + bitlen(h +
    bitlen h) has bitlen(w) = w - h.  Rounding L0 / 2**g adds at most 1/2.  s ~ sqrt(bits)
    / 4 roots balance their cost against the K products of the series.
    """
    n, d = q.numerator, q.denominator
    e, s = n.bit_length() - d.bit_length(), math.isqrt(bits) // 4 + 1
    h = bits + s + abs(e).bit_length() + 3
    w = h + (h + h.bit_length()).bit_length()
    y = (n << (w - e)) // d if w >= e else n // (d << (e - w))
    total = _atanh_ln(y, w, s) + (e and e * _atanh_ln(2 << w, w, s))
    return (total + (1 << (w - bits - 1))) >> (w - bits)


def _coprime_base(numbers: list[int]) -> list[int]:
    """Pairwise coprime integers > 1 of which each number is a product.  Trading n and
    b with g = gcd > 1 for g, n / g and b / g shrinks the product held, so it ends."""
    base, pool = [], [n for n in numbers if n > 1]
    while pool:
        n = pool.pop()
        for i, b in enumerate(base):
            if (g := math.gcd(n, b)) > 1:
                del base[i]
                pool += [x for x in (g, n // g, b // g) if x > 1]
                break
        else:
            base.append(n)
    return base


def _valuation(q: Fraction, b: int) -> int:
    """The exponent of b > 1 in a rational q > 0: of its numerator less of its denominator."""
    v = 0
    for n, sign in ((q.numerator, 1), (q.denominator, -1)):
        while n % b == 0:
            n, v = n // b, v + sign
    return v


class LogGap:
    """g(m) = ln(k * r**m) for rationals k, r > 0, decided in certified float logs
    (_float_log) where they fix the sign, else in integer fixed-point logs
    (_ln_fixed).  k is a rational or, where a power of it is too large to build,
    pairs (q, e) of rationals q > 0 and e with k = prod q**e.  A base may repeat: its
    exponents are summed, and one whose sum is 0 drops out before any log or tie test."""

    def __init__(self, k: Fraction | tuple[tuple[Fraction, Fraction], ...], r: Fraction) -> None:
        exponents: dict[Fraction, Fraction] = {}
        for q, e in ((k, 1),) if isinstance(k, Fraction) else k:
            exponents[q] = exponents.get(q, 0) + e
        self.terms = tuple((q, e) for q, e in exponents.items() if e)
        self.r = r
        # the units of error of 2**b ln k (_head), plus one for ln r
        self.slack = sum(math.ceil(abs(e)) + 1 for _, e in self.terms) + 1
        self._logs: dict[Fraction, tuple[int, int]] = {}
        self._b = 64 + self.slack.bit_length()
        try:  # sign's float tier: F = fsum of E l(q) over k's terms, l(r), and F's bound B_k, inf past the floats
            pairs = [(float(e), _float_log(q)) for q, e in self.terms]
            size, tiny = sum(abs(e * x) for e, x in pairs), sum(abs(e) + abs(x) + 1 for e, x in pairs)
            self._floats = math.fsum(e * x for e, x in pairs), _float_log(r), 2.0**-48 * size + 2.0**-1070 * tiny
        except (OverflowError, ValueError):
            self._floats = 0.0, 0.0, math.inf

    def _ln(self, q: Fraction, b: int) -> int:
        """2**b ln q within 1: the most precise log taken yet, rounded to b bits (1/2 + 1/2)."""
        top, value = self._logs.get(q, (-1, 0))
        if top < b:
            top, value = self._logs[q] = b, _ln_fixed(q, b)
        return (value + (1 << (top - b) >> 1)) >> (top - b)

    def _head(self, b: int) -> int:
        """2**b ln k within slack - 1: floor(e L) is within |e| + 1 of e 2**b ln q."""
        self._b = max(self._b, b)
        return sum(math.floor(e * self._ln(q, b)) for q, e in self.terms)

    @functools.cached_property
    def _exponents(self) -> list[tuple[Fraction, int]]:
        """Per element of a coprime base of every numerator and denominator,
        the exponents of k and of r in it."""
        base = _coprime_base([n for q, _ in (*self.terms, (self.r, 1)) for n in (q.numerator, q.denominator)])
        return [(sum(e * _valuation(q, b) for q, e in self.terms), _valuation(self.r, b)) for b in base]

    def sign(self, m: int) -> int:
        """Sign of g(m), m >= 0.  First in floats, u = 2**-53: E = float(e) is within u|E|
        + 2**-1075 of e (m alike), l = _float_log(q) within 11u|ln q| + 2**-1073, and the
        product P = E l rounds within u|P| + 2**-1075, so each term is within 13.02u|P| +
        2**-1071 (|E| + |l| + 1) of e ln q.  fsum and the last sum add u S each, so f is
        within 15.1u S + 2**-1071 T of g(m), S = sum |P| and T = sum (|E| + |l| + 1); B =
        2**-48 S + 2**-1070 T, at 32u, covers that and B's own roundings, so g has f's
        sign where |f| > B.  Else, with t = bitlen(m), G = 2**t 2**b ln k + m 2**(b + t)
        ln r is within slack 2**t of 2**(b + t) g(m), so G's sign is g's once |G| >=
        slack 2**t: ln k needs about the bits of g, ln r t more.  b starts at the
        largest b taken so far and doubles.  Where G does not decide, a tie g(m) = 0
        is tested: every exponent of k * r**m over a coprime base is 0."""
        head, log_r, bound = self._floats
        if m.bit_length() < 1000 and abs(f := head + (tail := m * log_r)) > \
                bound + 2.0**-48 * abs(tail) + 2.0**-1070 * (m + abs(log_r) + 1):
            return 1 if f > 0 else -1
        t, b = m.bit_length(), self._b
        while True:
            g = (self._head(b) << t) + (m * self._ln(self.r, b + t) if m else 0)
            if abs(g) >= self.slack << t:
                return 1 if g > 0 else -1
            if all(a + m * c == 0 for a, c in self._exponents):
                return 0
            b *= 2

    def least_crossing(self) -> int:
        """Least m >= 0 with g(m) <= 0, for r < 1: ceil(X) for X = -ln k / -ln r when
        X > 0.  With D = -l(r) > 2**-1000 (sign's floats), |D + ln r| < 12u |ln r|, so
        X' = F / D is within 1.001 B_k / D + 13.01u |X'| + 2**-1070 of X: where B_k / D
        + 2**-48 |X'| < 0.2, X' is within a quarter step.  Else, with D =
        bitlen(den r), -ln r >= 1 / den r > 2**-D, and Z an integer bound on |ln k|,
        X < Z 2**D; ln k at b_k = D + bitlen(slack) + 6 bits and ln r at b_r = 2D +
        64 bits (more only where bitlen(Z slack) passes 50, so ln r's bits and
        _atanh_ln's memo do not move with k) put the estimate within one step, as
        each error over -ln r adds at most 2**-5 to X.  Exact signs walk either
        estimate onto the answer."""
        if self.r.numerator >= self.r.denominator:
            raise ValueError(f"least_crossing needs r < 1, got r = {self.r}")
        head, log_r, bound = self._floats
        if -log_r > 2.0**-1000 and bound / -log_r + 2.0**-48 * abs(x := head / -log_r) < 0.2:
            m = max(0, math.ceil(x))
        else:
            z = 1 + math.ceil(sum(abs(e) * (q.numerator.bit_length() + q.denominator.bit_length())
                                  for q, e in self.terms))
            big = self.r.denominator.bit_length()
            b_k, b_r = big + self.slack.bit_length() + 6, 2 * big + 64 + max(0, (z * self.slack).bit_length() - 50)
            m = max(0, math.ceil(Fraction(self._head(b_k), 1 << b_k) / Fraction(-self._ln(self.r, b_r), 1 << b_r)))
        while self.sign(m) > 0:
            m += 1
        while m > 0 and self.sign(m - 1) <= 0:
            m -= 1
        return m
