from fractions import Fraction
from time import perf_counter

import pytest

from codiff.fields import PRIME_BOUND, QQ, PrimeField, is_prime


def test_rationals_exact():
    assert QQ(1) / 3 + QQ(2) / 3 == 1
    assert QQ.parse("-7/3") == Fraction(-7, 3)
    assert QQ.render(Fraction(3, 2)) == "3/2"


def test_prime_field_arithmetic():
    f5 = PrimeField(5)
    a = f5(7)
    assert a == 2
    assert a + 4 == 1
    assert a * 3 == 1
    assert a / 3 == 4  # 2 * 3^{-1} = 2 * 2
    assert -a == 3
    assert f5.parse("1/2") == 3  # inverse of 2 mod 5
    assert f5.render(f5(-1)) == "4"


def test_non_prime_rejected():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)
    assert is_prime(2) and is_prime(97) and not is_prime(91)


def _trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(10 ** 5) if is_prime(n)] == \
        [n for n in range(10 ** 5) if _trial_division(n)]


def test_large_primes_are_decided_quickly():
    start = perf_counter()
    assert is_prime(2 ** 61 - 1) and is_prime(10 ** 14 + 31)
    assert PrimeField(2 ** 61 - 1).p == 2 ** 61 - 1
    assert not is_prime((10 ** 6 + 3) * (2 ** 61 - 1))
    assert perf_counter() - start < 0.5


def test_strong_pseudoprimes_are_rejected():
    # 3215031751 = 151 * 751 * 28351 is a strong pseudoprime to the bases
    # 2, 3, 5 and 7; 3825123056546413051 to every prime base up to 23
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)


def test_primality_refused_at_the_bound():
    for n in (PRIME_BOUND, PRIME_BOUND + 2, 2 ** 127 - 1):
        with pytest.raises(ValueError, match="only below %d" % PRIME_BOUND):
            is_prime(n)
        with pytest.raises(ValueError, match="only below %d" % PRIME_BOUND):
            PrimeField(n)


def test_mixed_field_elements_refuse():
    a = PrimeField(5)(1)
    b = PrimeField(7)(1)
    with pytest.raises(ValueError):
        a + b


def test_int_mixing():
    f5 = PrimeField(5)
    assert 2 * f5(3) == 1
    assert 1 - f5(3) == 3
    assert bool(f5(5)) is False


def test_field_equality():
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert QQ == QQ and QQ != PrimeField(5)
