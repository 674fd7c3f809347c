import decimal
import math
import random
import signal
import sys
import time
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction
from itertools import count

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftlab import BILATERAL, WeightSequence, rationals, weight_product
from shiftlab.errors import ConfigError
from shiftlab.rationals import (
    RESIDUE_BITS,
    LogGap,
    _float_log,
    _ln_fixed,
    abs_pow,
    as_fraction,
    fraction_pow,
    fraction_root,
    int_nthroot,
    log_fraction,
    plain_pair,
    pow_maybe_exact,
)


def test_as_fraction_accepts_strings_ints_fractions():
    assert as_fraction("3/4") == Fraction(3, 4)
    assert as_fraction("2") == 2
    assert as_fraction(5) == 5
    assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)


@pytest.mark.parametrize("bad", [2.0, True, None, [1], "1/0", "abc"])
def test_as_fraction_rejects_inexact_or_malformed(bad):
    with pytest.raises(ConfigError):
        as_fraction(bad, "field")


def _small_exponent(text):
    """At most three exponent digits: Fraction("1e99999999") builds 10**99999999."""
    return sum(c.isdigit() for c in text.partition("e")[2]) <= 3


@settings(max_examples=500, deadline=None)
@example(text="1" * 4301)
@example(text="-" + "9" * 5000 + "/7")
@example(text="3/" + "2" * 4301)
@example(text="1/-2")
@example(text="-6/4")
@example(text="0/0")
@example(text="٣/٤")
@given(text=st.text(alphabet="0123456789-/+_. \te\u0663\u00b2", max_size=12).filter(_small_exponent))
def test_as_fraction_reads_strings_as_fraction_does(text):
    # plain_pair's int() path for plain ASCII [-]digits[/digits] strings
    # gives Fraction(str)'s numerator and denominator, or raises; as_fraction
    # reads every string as Fraction(str) does, and names the field where
    # that raises
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises((ValueError, ZeroDivisionError)):
            plain_pair(text)
        with pytest.raises(ConfigError) as info:
            as_fraction(text, "mu[0][0]")
        assert str(info.value) == f"mu[0][0]: cannot parse {text!r} as a rational"
    else:
        got = as_fraction(text, "mu[0][0]")
        assert type(got) is Fraction and (got.numerator, got.denominator) == (want.numerator, want.denominator)
        try:
            pair = plain_pair(text)
        except ValueError:
            assert not (text.isascii() and text.lstrip("-").replace("/", "", 1).isdigit())
        else:
            assert type(pair) is tuple and all(type(n) is int for n in pair)
            assert pair == want.as_integer_ratio()


def _fraction_or_message(text: str, field: str) -> Fraction | str:
    """What as_fraction gave for a string when every string went to
    Fraction(str): the value, or the message of its ConfigError."""
    _, e, exponent = text.lower().rpartition("e")
    limit = sys.get_int_max_str_digits()
    try:
        if e and limit and abs(int(exponent)) >= limit:
            return f"{field}: the exponent of {text!r} passes the {limit}-digit limit"
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return f"{field}: cannot parse {text!r} as a rational"


@settings(max_examples=500, deadline=None)
@example(text="1/0")
@example(text="-0")
@example(text="+3")
@example(text=" 1")
@example(text="1_0")
@example(text="\u0663")
@example(text="1e5")
@example(text="1e4300")
@example(text="2E-4301")
@example(text="1" * 4301)
@example(text="-" + "7" * 4301 + "/3")
@example(text="3/" + "2" * 4301)
@given(text=st.text(alphabet="0123456789-+/_. \teE\u0663", max_size=12).filter(lambda t: _small_exponent(t.lower())))
def test_as_fraction_reads_p_and_the_tails_as_fraction_does(text):
    # p and the two tails read a plain string through plain_pair, and any
    # other string as before: the same value, or the same message
    want = _fraction_or_message(text, "p")
    if isinstance(want, str):
        with pytest.raises(ConfigError) as info:
            as_fraction(text, "p")
        assert str(info.value) == want
    else:
        got = as_fraction(text, "p")
        assert type(got) is Fraction and (got.numerator, got.denominator) == (want.numerator, want.denominator)


def test_format_round_trips():
    for q in [Fraction(3, 4), Fraction(-7, 2), Fraction(5)]:
        assert as_fraction(str(q)) == q


def test_int_nthroot():
    assert int_nthroot(0, 3) == 0
    assert int_nthroot(1, 9) == 1
    assert int_nthroot(8, 3) == 2
    assert int_nthroot(2**60, 5) == 2**12
    assert int_nthroot(10, 2) is None
    assert int_nthroot(3**40 + 1, 4) is None
    # exact integer iteration from a float start: no walk, no float overflow
    r70, r80 = 2**70 - 35, 2**80 - 3
    assert int_nthroot(r70**3, 3) == r70
    assert int_nthroot(r80**3, 3) == r80
    assert int_nthroot(r80**3 + 1, 3) is None
    assert int_nthroot(r80**2, 2) == r80
    assert int_nthroot(r80**2 - 1, 2) is None
    assert int_nthroot(2**1500, 3) == 2**500
    assert int_nthroot(2**1500 + 1, 5) is None
    assert fraction_pow(Fraction(1, 2**700), Fraction(2, 3)) is None
    assert fraction_pow(Fraction(1, 2**699), Fraction(2, 3)) == Fraction(1, 2**466)
    with pytest.raises(ValueError):
        int_nthroot(-1, 2)


# per index k, root bit lengths: the float range's edge at 2**52 and 2**53,
# and roots past 2**1024 where the power stays under about 110,000 bits
_ROOT_BITS = {k: (2, 40, 52, 53, 54, 60, 200) + (() if k > 97 else (1030, 1100))
              for k in (3, 4, 5, 7, 10, 31, 97, 1000)}
_ROOT_BITS[9111] = (2, 20, 60)


@pytest.mark.parametrize("k", sorted(_ROOT_BITS))
def test_int_nthroot_finds_roots_and_only_roots(k):
    # x**k has the root x, and x**k - 1 and x**k + 1 lie strictly between two
    # consecutive k-th powers, so they have none; x near 2**52.6 at k = 31 is
    # where a float start raised by 2 alone, with no shift, lies below the root
    rng = random.Random(k)
    roots = [rng.getrandbits(b) | 1 << (b - 1) for b in _ROOT_BITS[k] for _ in range(1 if k > 1000 else 3)]
    roots += [2**52 - 1, 2**52, 2**52 + 1, 2**53 - 1, 2**53, 2**53 + 1, 7_012_532_710_746_230]
    for x in roots:
        n = x**k
        assert int_nthroot(n, k) == x
        assert int_nthroot(n - 1, k) is None and int_nthroot(n + 1, k) is None


def test_int_nthroot_of_a_high_power_takes_few_newton_steps():
    # from a start up to twice the root Newton shrinks it by only (k - 1) / k
    # a step, about k ln 2 full-size powers; from within 2**-20 of it, a few
    x = 2**50 + 12345
    n = x**9111
    start = time.perf_counter()
    with undecided_after(2):
        assert int_nthroot(n, 9111) == x
        assert int_nthroot(n + 1, 9111) is None
    assert time.perf_counter() - start < 2


def test_int_nthroot_with_an_index_past_the_bit_length():
    # 2 ** k > n leaves no integer root between 1 and 2: answered at once
    assert int_nthroot(2**64 + 1, 10**400) is None
    assert int_nthroot(2**64, 65) is None
    assert int_nthroot(2**64, 64) == 2
    assert int_nthroot(3, 2) is None


def test_a_non_square_past_the_residue_gate_takes_no_isqrt(monkeypatch):
    # x**2 / (x**2 + 1), both past RESIDUE_BITS: the denominator is rooted
    # first and fails the residue test, where rooting both took two isqrt
    sizes, isqrt = [], math.isqrt
    monkeypatch.setattr(math, "isqrt", lambda n: sizes.append(n.bit_length()) or isqrt(n))
    x = 3**3000 + 2
    q = Fraction(x * x, x * x + 1)
    assert q.denominator.bit_length() > RESIDUE_BITS
    assert pow_maybe_exact(q, Fraction(1, 2)) == math.exp(log_fraction(q) / 2)
    assert [b for b in sizes if b > RESIDUE_BITS] == []


@settings(max_examples=60, deadline=None)
@given(k=st.sampled_from((2, 3, 4, 5, 7)), x=st.integers(2**2100, 2**2200),
       factor=st.sampled_from((1, 3, 7 * 11, 2 * 3 * 5 * 7 * 11 * 13)))
def test_the_residue_test_keeps_every_power(k, x, factor):
    # powers past RESIDUE_BITS, some divisible by the test's primes (a zero
    # residue), keep their roots; the next integer has none
    n = (x * factor) ** k
    assert n.bit_length() > RESIDUE_BITS
    assert int_nthroot(n, k) == x * factor
    assert int_nthroot(n + 1, k) is None


def test_the_root_path_refuses_a_sign_by_message():
    # the sign tests read the numerator's sign; the messages are pinned
    for q in (Fraction(0), Fraction(-4), Fraction(-1, 10**30)):
        for expo in (Fraction(1, 2), Fraction(-1, 2), Fraction(2)):
            with pytest.raises(ValueError, match=r"^fraction_pow needs q > 0$"):
                fraction_pow(q, expo)
            with pytest.raises(ValueError, match=r"^fraction_pow needs q > 0$"):
                pow_maybe_exact(q, expo)
    for q in (Fraction(-4), Fraction(-1, 10**30)):
        with pytest.raises(ValueError, match=r"^fraction_root needs q >= 0$"):
            fraction_root(q, 2)
    assert fraction_root(Fraction(0), 3) == 0
    assert fraction_pow(Fraction(9, 4), Fraction(-3, 2)) == Fraction(8, 27)


def test_fraction_root_and_pow_exact_cases():
    assert fraction_root(Fraction(4, 9), 2) == Fraction(2, 3)
    assert fraction_root(Fraction(10), 2) is None
    assert fraction_pow(Fraction(8, 27), Fraction(2, 3)) == Fraction(4, 9)
    assert fraction_pow(Fraction(4), Fraction(-1, 2)) == Fraction(1, 2)
    assert fraction_pow(Fraction(2), Fraction(1, 2)) is None
    assert fraction_pow(Fraction(2), Fraction(1000000, 1000001)) is None
    assert fraction_pow(Fraction(2**1001, 3**1001), Fraction(1000, 1001)) == Fraction(2**1000, 3**1000)
    with pytest.raises(ValueError):
        fraction_pow(Fraction(0), Fraction(1, 2))


@settings(max_examples=300, deadline=None)
@given(base=st.fractions(min_value=Fraction(1, 10**6), max_value=10**6), root=st.integers(1, 6),
       power=st.integers(1, 7), expo=st.fractions(min_value=-6, max_value=6, max_denominator=6))
def test_fraction_pow_takes_the_root_first_with_the_same_answers(base, root, power, expo):
    # q**(a/b), gcd(a, b) = 1, is rational exactly when q**(1/b) is
    for q in (base, base**root):
        for e in (expo, Fraction(power, root)):
            if e == 0:
                continue
            a, b = abs(e.numerator), e.denominator
            want = fraction_root(q**a, b)
            if want is not None and e < 0:
                want = 1 / want
            assert fraction_pow(q, e) == want


def test_pow_maybe_exact_float_fallback():
    v = pow_maybe_exact(Fraction(2), Fraction(1, 2))
    assert isinstance(v, float)
    assert v == pytest.approx(math.sqrt(2))
    assert pow_maybe_exact(Fraction(9, 4), Fraction(1, 2)) == Fraction(3, 2)
    # float(q) underflows to 0.0 or overflows, the root does not
    tiny = pow_maybe_exact(Fraction(2, 3) ** 2000, Fraction(2, 3))
    assert tiny == pytest.approx(math.exp(2000 * 2 / 3 * math.log(2 / 3)))
    huge = pow_maybe_exact(Fraction(3, 2) ** 5000, Fraction(1, 7))
    assert huge == pytest.approx(math.exp(5000 / 7 * math.log(3 / 2)))


def test_log_fraction_takes_the_pair_below_the_normal_range():
    # q = 8805.75 * 2**-1074, whose float is the subnormal 8806 * 2**-1074:
    # its log is off by 3e-5, the pair's logs are not
    q = Fraction(35223, 2**1076)
    assert log_fraction(q) == math.log(35223) - math.log(2**1076) != math.log(float(q))
    assert log_fraction(float(q)) == math.log(float(q))


def _outcome(run):
    try:
        return run().hex()
    except ArithmeticError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None)
@given(
    base=st.builds(Fraction, st.integers(1, 40), st.integers(1, 40)),
    power=st.integers(-3000, 3000),
    exact=st.booleans(),
    p=st.sampled_from(["1", "3/2", "2", "3", "5/3", "7/2", "9111/9110"]),
)
def test_float_root_is_the_float_of_pow_maybe_exact(base, power, exact, p):
    """The orbit's float memo roots a block's reduced pair as its exact
    product's float, bit for bit, errors in type and text: q a perfect power
    of p's numerator or not, normal, subnormal, 0.0 and past the float range
    as an exact power and through the log."""
    expo = 1 / Fraction(p)
    q = base ** (int(power / expo.denominator) * expo.denominator if exact else power)
    w = WeightSequence(p=Fraction(p), side=BILATERAL, lo=0, hi=0, wp={0: q})
    assert _outcome(lambda: w._floats(0, 0)) == _outcome(lambda: float(weight_product(w, 0, 0)))


def test_abs_pow_handles_sign_zero_and_complex():
    assert abs_pow(Fraction(-2, 3), Fraction(2)) == Fraction(4, 9)
    assert abs_pow(Fraction(0), Fraction(3, 2)) == 0
    assert abs_pow(complex(3, 4), Fraction(2)) == pytest.approx(25.0)
    assert abs_pow(-1.5, Fraction(1)) == pytest.approx(1.5)
    assert abs_pow(0.0, Fraction(3, 2)) == 0.0


# -- LogGap: the sign and least crossing of ln(k * r**m) ---------------------


@contextmanager
def undecided_after(seconds: float):
    """Fail, instead of hanging, where a search never decides."""
    def expire(signum, frame):
        raise TimeoutError(f"no decision within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def decimal_ln(q: Fraction) -> Decimal:
    return Decimal(q.numerator).ln() - Decimal(q.denominator).ln()


def decimal_gap(k: Fraction, r: Fraction, m: int, digits: int) -> Decimal:
    """ln(k * r**m) in decimals at ``digits`` digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        return decimal_ln(k) + m * decimal_ln(r)


smooth = st.builds(lambda a, b, c: Fraction(2) ** a * Fraction(3) ** b * Fraction(5) ** c,
                   st.integers(-12, 12), st.integers(-8, 8), st.integers(-5, 5))
nudges = st.one_of(
    st.just(Fraction(1)),  # an exact tie
    st.builds(lambda e, s: 1 + Fraction(s, 10**e), st.integers(10, 200), st.sampled_from([-1, 1])),
    smooth,
)


@st.composite
def gaps(draw):
    """(k, r, m) with r and k products of powers of 2, 3 and 5: k is r**-m
    times 1 (an exact tie), 1 +- 10**-e (a near tie, past the floats and
    the first decimal precision for e >= 20) or another such product."""
    r, m = draw(smooth), draw(st.integers(0, 40))
    return r ** -m * draw(nudges), r, m


TIE = (Fraction(3, 2) ** 7, Fraction(2, 3), 7)
NEAR_TIE = (Fraction(3, 2) ** 7 * (1 - Fraction(1, 10**60)), Fraction(2, 3), 7)


@settings(max_examples=300, deadline=None)
@given(gaps())
@example(TIE)
@example(NEAR_TIE)
@example((Fraction(1), Fraction(1), 0))
def test_log_gap_sign_matches_exact_rationals(case):
    k, r, m = case
    exact = k * r**m - 1
    with undecided_after(5):
        assert LogGap(k, r).sign(m) == (exact > 0) - (exact < 0)


@settings(max_examples=200, deadline=None)
@given(gaps().filter(lambda case: case[1] < 1))
@example(TIE)
@example(NEAR_TIE)
def test_least_crossing_matches_a_linear_scan(case):
    k, r, _ = case
    x, expected = k, 0
    while x > 1:
        x, expected = x * r, expected + 1
    with undecided_after(5):
        assert LogGap(k, r).least_crossing() == expected


@settings(max_examples=20, deadline=None)
@given(digits=st.integers(16, 300), k=st.fractions(min_value=2, max_value=10**30), offset=st.integers(-2, 2))
@example(digits=400, k=Fraction(10**6), offset=0)
def test_least_crossing_far_out_matches_decimals(digits, k, offset):
    # r = 1 - 10**-digits puts the crossing near 10**digits; the reference
    # takes the logs at twice the digits that needs
    r = 1 - Fraction(1, 10**digits)
    prec = 4 * digits + 60
    with decimal.localcontext() as ctx:
        ctx.prec = prec
        crossing = decimal_ln(k) / -decimal_ln(r)
        expected = int(crossing.to_integral_value(decimal.ROUND_CEILING))
    gap = LogGap(k, r)
    assert gap.least_crossing() == expected
    m = expected + offset
    assert gap.sign(m) == (1 if decimal_gap(k, r, m, prec) > 0 else -1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(smooth, st.integers(-6, 6)), min_size=1, max_size=3), smooth, st.integers(0, 12),
       st.sampled_from([Fraction(1), 1 + Fraction(1, 10**40), 1 - Fraction(1, 10**40)]))
def test_log_gap_sign_of_a_product_of_powers_matches_exact_rationals(terms, r, m, nudge):
    # k given as pairs (q, e), k = prod q**e, here times the last factor that
    # would make k * r**m = 1 (an exact tie across different bases) and a nudge
    exact = math.prod((q**e for q, e in terms), start=Fraction(1)) * r**m
    terms = [*terms, (1 / exact, Fraction(1)), (nudge, Fraction(1))]
    with undecided_after(5):
        assert LogGap(tuple(terms), r).sign(m) == (nudge > 1) - (nudge < 1)


@pytest.mark.parametrize("e", [1, 3, 10**6 + 1, 10**400])
def test_least_crossing_with_a_huge_rational_power_in_k(e):
    # k = 2 * (1/3)**-(e/2): the least m with 2 * 3**(e/2) * (1/2)**m <= 1 is
    # ceil(1 + e/2 * log2(3)), never a tie, as 3**(e/2) is no power of 2
    with undecided_after(5):
        m = LogGap(((Fraction(2), 1), (Fraction(1, 3), Fraction(-e, 2))), Fraction(1, 2)).least_crossing()
    with decimal.localcontext() as ctx:
        ctx.prec = len(str(e)) + 40
        expected = 1 + Decimal(e) / 2 * Decimal(3).ln() / Decimal(2).ln()
        assert m == int(expected.to_integral_value(decimal.ROUND_CEILING))


@pytest.mark.parametrize("r", [Fraction(3, 2), Fraction(1), 1 + Fraction(1, 10**400)])
def test_least_crossing_needs_r_below_one(r):
    # k * r**m never falls to 1 from k = 2 where r >= 1
    with undecided_after(5), pytest.raises(ValueError, match="r < 1"):
        LogGap(Fraction(2), r).least_crossing()


NEAR_ONE = [1 + Fraction(1, 10**400), 1 - Fraction(1, 10**400)]  # l(r) underflows to 0


@st.composite
def tier_cases(draw):
    """(k, r, m) for LogGap: exact ties across bases and nudges of 1 +- 10**-40;
    r within 10**-400 of 1; exponents and m past the float range; crossings
    past 2**50 and at r = 1 - 10**-20, where a float start is many steps off."""
    kind = draw(st.sampled_from(["tie", "near_one", "huge", "far"]))
    r = draw(smooth)
    if kind == "tie":
        terms = draw(st.lists(st.tuples(smooth, st.integers(-6, 6)), min_size=1, max_size=3))
        m = draw(st.integers(0, 12))
        exact = math.prod((q**e for q, e in terms), start=Fraction(1)) * r**m
        nudge = draw(st.sampled_from([Fraction(1), 1 + Fraction(1, 10**40), 1 - Fraction(1, 10**40)]))
        return (*terms, (1 / exact, 1), (nudge, 1)), r, m
    if kind == "near_one":
        return ((draw(smooth), 1),), draw(st.sampled_from(NEAR_ONE)), draw(st.integers(0, 2**1100))
    if kind == "huge":
        e = draw(st.sampled_from([10**300, 10**400, Fraction(-(10**400), 3)]))
        q = draw(st.sampled_from([Fraction(3, 2), 1 + Fraction(1, 10**300), 1 - Fraction(1, 10**320)]))
        return ((q, e), (draw(smooth), 1)), r, draw(st.sampled_from([0, 7, 2**1000 + 1, 10**400]))
    e = draw(st.integers(2**50, 2**70))
    return ((Fraction(3), e), (draw(smooth), 1)), draw(st.sampled_from([Fraction(1, 2), Fraction(2, 3),
                                                                          1 - Fraction(1, 10**20)])), e


def no_float_log(q, d=1):
    raise OverflowError("the float tier is off")


@settings(max_examples=300, deadline=None)
@given(tier_cases())
@example((((Fraction(2), 1), (Fraction(3), -1), (Fraction(3, 2), 1)), Fraction(1, 2), 0))
def test_log_gap_float_tier_matches_the_fixed_point_path(case):
    # the same signs and least crossing with the float tier switched off
    terms, r, m = case
    answers = []
    for tier in (True, False):
        with pytest.MonkeyPatch.context() as patch, undecided_after(20):
            if not tier:
                patch.setattr(rationals, "_float_log", no_float_log)
            gap = LogGap(terms, r)
            answers.append((gap.sign(m), gap.sign(m + 1), gap.least_crossing() if r < 1 else None))
    assert answers[0] == answers[1]


@pytest.mark.parametrize("digits", [3, 1500])
@pytest.mark.parametrize("pair, sign", [(Fraction(7, 5), 1), (Fraction(5, 7), -1), (Fraction(1), 0)])
def test_a_repeated_tail_base_cancels_before_the_tie_test(monkeypatch, digits, pair, sign):
    # a ratio of two tail-extended masses, pair * 5/8 * t**805 / t**2, over
    # another, 5/8 * t**803: the tail's powers cancel, so the sign is pair's,
    # and a tie (pair = 1) goes to the exact test, whose coprime base holds
    # the window quotients' numbers and not the tail's
    t, seen, real = 1 - Fraction(1, 10**digits), [], rationals._coprime_base
    monkeypatch.setattr(rationals, "_coprime_base", lambda numbers: seen.extend(numbers) or real(numbers))
    terms = ((pair * Fraction(5, 8), 1), (t, 805), (t, -2), (Fraction(8, 5), 1), (t, -803))
    with undecided_after(5):
        assert LogGap(terms, Fraction(1)).sign(0) == sign
    assert (sign == 0) == bool(seen)
    assert t.numerator not in seen and t.denominator not in seen


def test_coprime_base_splits_shared_factors():
    base = rationals._coprime_base([12, 18, 2**72, 4722366482869645, 1])
    assert all(math.gcd(a, b) == 1 for i, a in enumerate(base) for b in base[i + 1:])
    for n in (12, 18, 2**72, 4722366482869645):
        rest = Fraction(n)
        for b in base:
            rest /= b ** rationals._valuation(rest, b)
        assert rest == 1


@settings(max_examples=300, deadline=None)
@given(st.fractions(min_value=Fraction(1, 10**400), max_value=10**400).filter(lambda q: q > 0))
@example(Fraction(10**400 - 1, 10**400))
@example(Fraction(2**1100 + 1, 2**1100))
@example(Fraction(1, 3**700))
@example(Fraction(2**53 + 1, 3))  # n and d at 2**53 +- 1, where int / int rounds
@example(Fraction(7, 2**53 - 1))
@example(Fraction(2**53 - 1, 2**54 + 1))
@example(Fraction(2**1022 + 1))  # near 2**+-1022 and the fast path's ends, e = +-999 and +-1000
@example(Fraction(1, 2**1022 - 1))
@example(Fraction(2**999 + 1, 3))
@example(Fraction(3, 2**1000 + 1))
@example(Fraction(2**1000 - 1))
@example(Fraction(2**61 + 1, 2**60))  # just outside [1/2, 2], and on its ends
@example(Fraction(2**60 - 1, 2**61))
@example(Fraction(2))
@example(Fraction(1, 2))
def test_float_log_is_within_its_bound(q):
    # 11u |ln q| + 2**-1073, u = 2**-53, as the _float_log docstring derives;
    # |q - 1| >= 1 / den, so the reference loses fewer digits than den has
    exact = decimal_gap(q, Fraction(1), 0, 60 + q.denominator.bit_length() // 3)
    error = abs(Decimal(_float_log(q)) - exact)
    assert error <= Decimal(11 * 2.0**-53) * abs(exact) + Decimal(2.0**-1073)


# -- _ln_fixed: integer fixed-point logs against decimal ----------------------


def reference_ln(q: Fraction, bits: int) -> Decimal:
    """2**bits * ln q from decimal logs at twice the digits its units need."""
    with decimal.localcontext() as ctx:
        ctx.prec = 2 * (bits * 30103 // 100000 + 16)
        return decimal_ln(q) * 2**bits


def assert_within_one_unit(q: Fraction, bits: int) -> None:
    got = _ln_fixed(q, bits)
    assert abs(got - reference_ln(q, bits)) < 1, (q, bits, got)


precisions = st.integers(0, 1500)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 10**4).flatmap(lambda b: st.integers(2 ** (b - 1), 2**b - 1)), bits=precisions,
       invert=st.booleans())
@example(n=1, bits=0, invert=False)
@example(n=3**6000, bits=1500, invert=True)
def test_ln_fixed_on_integers_up_to_10_to_the_4_bits(n, bits, invert):
    assert_within_one_unit(Fraction(1, n) if invert else Fraction(n), bits)


@settings(max_examples=100, deadline=None)
@given(e=st.integers(2, 10**4), offset=st.integers(-3, 3), bits=precisions, invert=st.booleans())
@example(e=2, offset=-3, bits=0, invert=False)
@example(e=10**4, offset=-1, bits=1500, invert=False)
def test_ln_fixed_next_to_powers_of_two(e, offset, bits, invert):
    n = 2**e + offset
    assert_within_one_unit(Fraction(1, n) if invert else Fraction(n), bits)


@settings(max_examples=100, deadline=None)
@given(k=st.integers(1, 450), step=st.integers(-9, 9).filter(bool), bits=precisions)
@example(k=450, step=-1, bits=1500)
def test_ln_fixed_within_10_to_the_minus_k_of_1(k, step, bits):
    assert_within_one_unit(1 + Fraction(step, 10**k), bits)


def test_ln_fixed_guard_bits_cover_the_series_bound_in_full(monkeypatch):
    # _atanh_ln may be off by up to 2**(s + bitlen(w) + 2) units.  A stand-in
    # off by just under that, upward, for ln x and ln 2 alike, puts L0 just
    # under 2**(g-1) above its target when 1 + e is a power of two: so one
    # guard bit fewer could leave _ln_fixed a whole unit off
    def worst_case(y: int, w: int, s: int) -> int:
        with decimal.localcontext() as ctx:
            ctx.prec = 2 * (w * 30103 // 100000 + 16)
            exact = (Decimal(y).ln() - Decimal(2**w).ln()) * 2**w
        return int(exact.to_integral_value(decimal.ROUND_FLOOR)) + 2 ** (s + w.bit_length() + 2) - 1

    monkeypatch.setattr(rationals, "_atanh_ln", worst_case)
    for e in (1, 3, 7, 15, 31, 63):
        for bits in range(40, 640, 50):
            assert_within_one_unit(2**e * Fraction(7, 5), bits)
