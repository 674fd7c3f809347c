import math
from fractions import Fraction

import pytest

from shiftlab.errors import ConfigError
from shiftlab.rationals import (
    abs_pow,
    as_fraction,
    fraction_pow,
    fraction_root,
    int_nthroot,
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
    # exact integer iteration: no float seed, no walk, no float overflow
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


def test_int_nthroot_with_an_index_past_the_bit_length():
    # 2 ** k > n leaves no integer root between 1 and 2: answered at once
    assert int_nthroot(2**64 + 1, 10**400) is None
    assert int_nthroot(2**64, 65) is None
    assert int_nthroot(2**64, 64) == 2
    assert int_nthroot(3, 2) is None


def test_fraction_root_and_pow_exact_cases():
    assert fraction_root(Fraction(4, 9), 2) == Fraction(2, 3)
    assert fraction_root(Fraction(10), 2) is None
    assert fraction_pow(Fraction(8, 27), Fraction(2, 3)) == Fraction(4, 9)
    assert fraction_pow(Fraction(4), Fraction(-1, 2)) == Fraction(1, 2)
    assert fraction_pow(Fraction(2), Fraction(1, 2)) is None
    with pytest.raises(ValueError):
        fraction_pow(Fraction(0), Fraction(1, 2))


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


def test_abs_pow_handles_sign_zero_and_complex():
    assert abs_pow(Fraction(-2, 3), Fraction(2)) == Fraction(4, 9)
    assert abs_pow(Fraction(0), Fraction(3, 2)) == 0
    assert abs_pow(complex(3, 4), Fraction(2)) == pytest.approx(25.0)
    assert abs_pow(-1.5, Fraction(1)) == pytest.approx(1.5)
