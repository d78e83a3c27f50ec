import copy
import operator
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewsmooth.diffusion import _split
from skewsmooth.errors import BadCharacteristicError
from skewsmooth.scalars import (_MR_LIMIT, _MR_SMALL_LIMIT, QQ, FpElement, PrimeField,
                                _is_prime, field_from_name)


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


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([QQ] + [PrimeField(p) for p in (7, 2146146913)]),
       st.integers(-10 ** 30, 10 ** 30), st.integers(-10 ** 30, 10 ** 30))
def test_ratio_matches_coercing_the_fraction(field, num, den):
    if den == 0 or (field.char and den % field.char == 0):
        with pytest.raises(ZeroDivisionError):
            field.ratio(num, den)
        return
    got, want = field.ratio(num, den), field.coerce(Fraction(num, den))
    assert type(got) is type(want) and got == want
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


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


# 2146146913 is a prime of the benchmark's top bucket and 10^18 + 3 lies above
# the three-base bound of _is_prime
PRIMES = [5, 7, 101, 2146146913, 2 ** 31 - 1, 1000000000000000003]


class TestFpElementContract:
    """The residue class against integer arithmetic mod p."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(PRIMES), st.integers(-10 ** 12, 10 ** 12),
           st.integers(-10 ** 12, 10 ** 12), st.integers(0, 12))
    def test_arithmetic_matches_integers_mod_p(self, p, a, b, e):
        F = PrimeField(p)
        x, y = F.coerce(a), F.coerce(b)
        assert (x.value, x.p) == (a % p, p)
        for got, want in ((x + y, a + b), (x + b, a + b), (a + y, a + b),
                          (x - y, a - b), (x - b, a - b), (a - y, a - b),
                          (x * y, a * b), (x * b, a * b), (a * y, a * b),
                          (-x, -a), (x ** e, pow(a, e, p))):
            assert type(got) is FpElement and (got.value, got.p) == (want % p, p)
        if b % p:
            inv = pow(b, -1, p)
            for got in (x / y, x / b):
                assert (got.value, got.p) == (a * inv % p, p)
            assert (y ** -e).value == pow(inv, e, p)
        else:
            for divide in (lambda: x / y, lambda: x / b, lambda: y ** -1):
                with pytest.raises(ZeroDivisionError):
                    divide()
        if a % p:
            assert (b / x).value == b * pow(a, -1, p) % p

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(PRIMES), st.integers(-10 ** 6, 10 ** 6))
    def test_equality_and_hash(self, p, a):
        v = a % p
        x = FpElement(v, p)
        assert x == a and a == x and x == a + 3 * p and x != a + 1
        assert x == PrimeField(p).coerce(a) and x != FpElement(v, 11 if p != 11 else 13)
        assert hash(x) == hash((v, p))
        assert bool(x) == (v != 0)

    @pytest.mark.parametrize("value", [10, 3, -4, -11, 7 * 10 ** 20 + 3])
    def test_public_constructor_reduces_the_value(self, value):
        x = FpElement(value, 7)
        assert x.value == 3
        assert x == FpElement(3, 7) and x == 3 and 3 == x
        assert hash(x) == hash(FpElement(3, 7)) == hash(PrimeField(7).coerce(value))

    def test_immutable(self):
        x = PrimeField(7).coerce(3)
        for name in ("value", "p", "other"):
            with pytest.raises(AttributeError):
                setattr(x, name, 1)
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert (x.value, x.p) == (3, 7)
        with pytest.raises(AttributeError):
            x.__dict__

    def test_foreign_operands_raise_type_error(self):
        x = PrimeField(7).coerce(3)
        for op in (lambda: Fraction(1, 2) / x, lambda: 1.5 / x, lambda: x / 1.5,
                   lambda: x + 1.5, lambda: 1.5 - x, lambda: x * "2"):
            with pytest.raises(TypeError):
                op()

    def test_mixing_primes_raises(self):
        x, y = PrimeField(5).coerce(2), PrimeField(7).coerce(2)
        for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y):
            with pytest.raises(ValueError):
                op()
        with pytest.raises(ValueError):
            PrimeField(5).coerce(y)

    # bool is an int subclass that the ``cls is int`` fast paths skip, so it
    # and a float take the fallback of each operator
    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                    lambda x, other: other - x],
                             ids=["add", "sub", "mul", "rsub"])
    def test_mixed_operands_take_the_fallback(self, op):
        x = PrimeField(7).coerce(3)
        for flag in (False, True):
            got, want = op(x, flag), op(x, int(flag))
            assert type(got) is FpElement and (got.value, got.p) == (want.value, want.p)
        with pytest.raises(TypeError):
            op(x, 1.5)
        with pytest.raises(ValueError, match="^cannot mix residues for different primes$"):
            op(x, PrimeField(5).coerce(2))

    def test_equality_with_mixed_operands(self):
        x = PrimeField(7).coerce(1)
        assert operator.eq(x, True) and operator.ne(x, False)
        assert operator.eq(x, 1.0) is False and operator.eq(1.0, x) is False

    def test_copy_and_pickle(self):
        F = PrimeField(2 ** 31 - 1)
        for x in (F.zero, F.one, F.coerce(-5), F.coerce(Fraction(2, 3))):
            for got in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
                assert type(got) is FpElement and got == x and hash(got) == hash(x)
                assert (got.value, got.p) == (x.value, x.p)

    def test_split_runs_on_residues(self):
        F = PrimeField(101)
        u, v, bd = _split(F.coerce(Fraction(1, 2)), F.coerce(7))
        assert (u, v, bd) == (51, 7, 1)

    def test_field_constants_are_fixed(self):
        F = PrimeField(13)
        assert F.zero is F.zero and F.one is F.one
        assert (F.zero.value, F.one.value) == (0, 1)
        assert QQ.zero is QQ.zero and QQ.one is QQ.one
        assert (QQ.zero, QQ.one) == (Fraction(0), Fraction(1))


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
    # the least strong pseudoprime to the bases 2, 7 and 61
    assert _MR_SMALL_LIMIT == 4759123141 == 48781 * 97561
    strong.append(_MR_SMALL_LIMIT)
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


def test_is_prime_accepts_the_small_primes_and_the_base_61():
    # 61 is a Miller-Rabin base below 2^32, where it is 0 mod the modulus
    primes = [n for n in range(200) if _trial_division(n)]
    assert 61 in primes and len(primes) == 46
    assert all(_is_prime(n) for n in primes)
    assert [n for n in range(200) if _is_prime(n)] == primes


def test_is_prime_matches_sympy_below_the_three_base_bound():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(7)
    odd = [rng.randrange(200_001, _MR_SMALL_LIMIT, 2) for _ in range(2000)]
    around = range(_MR_SMALL_LIMIT - 300, _MR_SMALL_LIMIT + 300)
    for n in odd + list(around):
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
