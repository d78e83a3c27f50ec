import random
import time
from fractions import Fraction

import pytest

from skewsmooth.errors import BadCharacteristicError
from skewsmooth.scalars import (_MR_LIMIT, QQ, FpElement, PrimeField, _is_prime,
                                field_from_name)


def test_rational_coercion_is_canonical():
    x = QQ.coerce("6/4")
    assert x == Fraction(3, 2)
    assert x.denominator == 2


def test_rational_field_inverse_exact():
    a = Fraction(7, 3)
    assert a * (1 / a) == 1


def test_prime_field_arithmetic():
    F = PrimeField(7)
    a, b = F.coerce(3), F.coerce(5)
    assert a + b == F.coerce(1)
    assert a * b == F.coerce(1)
    assert (a / b) * b == a
    assert a ** 0 == F.one
    assert a ** -1 == F.one / a
    assert 1 - a == F.coerce(-2)


def test_prime_field_coerces_fractions():
    F = PrimeField(11)
    assert F.coerce(Fraction(1, 2)) == F.coerce(6)
    with pytest.raises(ZeroDivisionError):
        F.coerce(Fraction(1, 11))


def test_characteristic_two_and_three_rejected():
    for p in (2, 3):
        with pytest.raises(BadCharacteristicError):
            PrimeField(p)
    with pytest.raises(BadCharacteristicError):
        PrimeField(9)


def test_field_from_name():
    assert field_from_name("Q") is QQ or field_from_name("Q") == QQ
    assert field_from_name("Fp:7").p == 7
    with pytest.raises(BadCharacteristicError):
        field_from_name("Fp:3")
    with pytest.raises(BadCharacteristicError):
        field_from_name("R")


def test_fp_element_zero_is_falsy():
    assert not FpElement(0, 7)
    assert FpElement(3, 7)


def test_fp_element_splits_as_residue_over_one():
    x = PrimeField(7).coerce(Fraction(-1, 2))
    assert (x.numerator, x.denominator) == (x.value, 1) == (3, 1)


def _trial_division(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division_below_2e5():
    assert [n for n in range(200_000) if _is_prime(n)] == \
        [n for n in range(200_000) if _trial_division(n)]


def test_is_prime_rejects_pseudoprimes():
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
                  321197185, 5394826801, 232250619601, 9746347772161]
    # strong pseudoprimes to the bases 2, 3, 5, 7; to 2..37; to 2..37 (psi_12)
    strong = [3215031751, 3825123056546413051, 318665857834031151167461]
    for n in carmichael + strong:
        assert not _is_prime(n), n


def test_is_prime_large_primes():
    # the last one is the largest prime below the exact range
    for p in (2**31 - 1, 2**61 - 1, 1000000000000000003, 3317044064679887385961813):
        assert _is_prime(p), p
    assert not _is_prime(1000003 * 1000000000000000003)


def test_is_prime_matches_sympy_on_random_large_odd_numbers():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randrange(10**12, _MR_LIMIT) | 1
        assert _is_prime(n) == sympy.isprime(n), n


def test_modulus_beyond_the_exact_range_is_rejected():
    with pytest.raises(BadCharacteristicError, match="too large"):
        PrimeField(_MR_LIMIT)
    with pytest.raises(BadCharacteristicError, match="too large"):
        field_from_name(f"Fp:{2**127 - 1}")


def test_huge_prime_header_is_fast():
    start = time.perf_counter()
    field = field_from_name("Fp:1000000000000000003")
    assert time.perf_counter() - start < 1.0
    assert field.p == 1000000000000000003
