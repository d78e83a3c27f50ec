import sys
from fractions import Fraction as F

import pytest

from skewsmooth.catalog import from_display
from skewsmooth.diffusion import DiffusionType
from skewsmooth.dsl import MAX_GENERATORS, emit, parse
from skewsmooth.errors import (BadCharacteristicError, DuplicatePairError,
                               PresentationSyntaxError, ZeroQuadCoeffError)
from skewsmooth.scalars import QQ

REFERENCE3 = """\
name: reference_three_gen
kind: skew
field: Q
n: 3
x1*x2 - 5*x2*x1 = 0
x1*x3 - 1/3*x3*x1 = -7/3
x2*x3 - 2*x3*x2 = 0
"""


def test_parse_reference_instance():
    alg = parse(REFERENCE3)
    assert alg.kind == "skew" and alg.n == 3
    pres = alg.payload
    assert pres == from_display(QQ, 2, 3, 5, mu={0: 7}, names=("x1", "x2", "x3"))


def test_empty_body_is_commutative():
    alg = parse("kind: skew\nn: 2\n")
    pres = alg.payload
    assert pres.normal_form((2, 1)) == pres.mono((1, 1))


def test_unspecified_pairs_default():
    alg = parse("kind: skew\nn: 3\nx1*x2 - 2*x2*x1 = 0\n")
    assert alg.payload.a(1, 3) == 1 and alg.payload.a(2, 3) == 1


def test_comments_and_blank_lines():
    text = "# header comment\n\nname: t\nkind: skew\nn: 2\n# body comment\nx1*x2 - 2*x2*x1 = x1 # trailing\n"
    alg = parse(text)
    assert alg.payload.b(1, 2) == 1


def test_malformed_scalar_zero_denominator():
    with pytest.raises(PresentationSyntaxError) as err:
        parse("kind: skew\nn: 2\nx1*x2 - 1/0*x2*x1 = 0\n")
    assert err.value.line == 3


def test_denominator_divisible_by_the_characteristic():
    with pytest.raises(PresentationSyntaxError) as err:
        parse("kind: skew\nfield: Fp:7\nn: 2\nx1*x2 - 2*x2*x1 = x1 + 3/14\n")
    assert err.value.line == 4 and err.value.column == 24
    assert "divisible by the characteristic 7" in str(err.value)
    assert "zero denominator" not in str(err.value)
    with pytest.raises(PresentationSyntaxError) as err:
        parse("kind: diffusion1\nfield: Fp:7\nn: 2\nx 1 = 1/7\n")
    assert err.value.line == 4
    assert "'1/7' has a denominator divisible by the characteristic 7" in str(err.value)


DIVISIBLE = "divisible by the characteristic 7"
DANGLING = "right-hand side ends in a dangling sign"
LONG = "1" * 5000
TOO_LONG = f"scalar has more than {sys.get_int_max_str_digits()} digits"


COLUMN_CASES = [
    ("skew", "x1*x2 - 1/7*x2*x1 = 0", 9, DIVISIBLE),
    ("skew", "  x1*x2 - 1/7*x2*x1 = 0", 11, DIVISIBLE),
    ("skew", "x1*x2 - -1/7*x2*x1 = 0", 9, DIVISIBLE),
    ("skew", "  x1 * x2 -  -1/7 * x2*x1 = 0", 14, DIVISIBLE),
    ("skew", "x1*x2 - 2*x2*x1 = x1 + 3/14", 24, DIVISIBLE),
    ("skew", "x1*x2 - 2*x2*x1 = 3/14", 19, DIVISIBLE),
    ("skew", "x1*x2 - 2*x2*x1 = x1 -  x5", 25, "generator x5 out of range"),
    ("skew", "   x1*x2 - 2*x2*x1 = 3/14", 22, DIVISIBLE),
    ("skew", "\tx1*x2 - 2*x2*x1 = x1\t+\t3/14", 25, DIVISIBLE),
    ("skew", "x1*x2 - 2*x2*x1 = x1 + 1 0*x 1 0", 24, "generator x10 out of range"),
    ("skew", "x1*x2 - 2*x2*x1 = x1 +  3 ? x 1\t- 1", 25, "bad term '3 ? x 1'"),
    ("skew", "x1*x2 - 2*x2*x1 = x1 +", 22, DANGLING),
    ("skew", "x1*x2 - 2*x2*x1 = x1 - 1 -", 26, DANGLING),
    ("skew", "x1*x2 - 2*x2*x1 = x1+\t- ", 23, DANGLING),
    ("skew", f"x1*x2 - {LONG}*x2*x1 = 0", 9, TOO_LONG),
    ("skew", f"x1*x2 - 2*x2*x1 = x1 - {LONG}", 24, TOO_LONG),
    ("skew", f"x1*x2 - 2*x2*x1 = 1/{LONG}*x2", 19, TOO_LONG),
    ("diffusion1", "lambda 1 2 = 1/7", 14, DIVISIBLE),
    ("diffusion1", "x 1 = 3/14", 7, DIVISIBLE),
    ("diffusion1", "  lambda 1 2 = 1/7", 16, DIVISIBLE),
    ("diffusion1", "\tx 1 =\t3/14", 8, DIVISIBLE),
    ("diffusion1", f"lambda 1 2 = {LONG}", 14, TOO_LONG),
]


@pytest.mark.parametrize("kind, line, column, message", COLUMN_CASES,
                         ids=[f"{line[:40]}-{column}" for _, line, column, _ in COLUMN_CASES])
def test_quad_coefficient_error_points_at_the_scalar(kind, line, column, message):
    with pytest.raises(PresentationSyntaxError) as err:
        parse(f"kind: {kind}\nfield: Fp:7\nn: 2\n{line}\n")
    assert (err.value.line, err.value.column) == (4, column)
    assert str(err.value).endswith(message)


@pytest.mark.parametrize("n", [0, -1, MAX_GENERATORS + 1])
def test_generator_count_out_of_range(n):
    with pytest.raises(PresentationSyntaxError) as err:
        parse(f"kind: skew\nfield: Q\nn: {n}\n")
    assert (err.value.line, err.value.column) == (3, 1)
    assert f"between 1 and {MAX_GENERATORS}" in str(err.value)


def test_generator_count_at_the_bound():
    assert parse(f"kind: skew\nn: {MAX_GENERATORS}\n").payload.n == MAX_GENERATORS


def test_zero_quad_coefficient():
    with pytest.raises(ZeroQuadCoeffError):
        parse("kind: skew\nn: 2\nx1*x2 - 0*x2*x1 = 0\n")


def test_duplicate_pair():
    with pytest.raises(DuplicatePairError):
        parse("kind: skew\nn: 2\nx1*x2 - 2*x2*x1 = 0\nx1*x2 - 3*x2*x1 = 0\n")


def test_characteristic_two_rejected():
    with pytest.raises(BadCharacteristicError):
        parse("kind: skew\nfield: Fp:2\nn: 2\n")


def test_prime_field_round_trip():
    text = "kind: skew\nfield: Fp:7\nn: 2\nx1*x2 - 3*x2*x1 = x1 + 2\n"
    alg = parse(text)
    assert alg.field.p == 7
    again = parse(emit(alg))
    assert again.payload == alg.payload


def test_bad_relation_orientation():
    with pytest.raises(PresentationSyntaxError):
        parse("kind: skew\nn: 2\nx2*x1 - 2*x1*x2 = 0\n")


def test_error_carries_position():
    with pytest.raises(PresentationSyntaxError) as err:
        parse("kind: skew\nn: 2\nx1*x2 - 2*x2*x1 = x1 + ??\n")
    assert err.value.line == 3 and err.value.column > 1


def test_round_trip_skew():
    alg = parse(REFERENCE3)
    text = emit(alg)
    again = parse(text)
    assert again.payload == alg.payload
    assert again.name == alg.name
    assert emit(again) == text


DIFF1 = """\
name: diff
kind: diffusion1
field: Q
n: 3
lambda 1 2 = 2
lambda 2 1 = 1
lambda 1 3 = 3
lambda 3 1 = 5
lambda 2 3 = 4
lambda 3 2 = 1
x 1 = 1/2
"""


def test_parse_diffusion1():
    alg = parse(DIFF1)
    dp = alg.payload
    assert dp.dtype is DiffusionType.TYPE1
    assert dp.lam(2, 1) == 1 and dp.lam(3, 2) == 1
    assert dp.x == (F(1, 2), F(0), F(0))


def test_round_trip_diffusion():
    alg = parse(DIFF1)
    again = parse(emit(alg))
    assert again.payload == alg.payload


def test_diffusion_defaults():
    alg = parse("kind: diffusion1\nn: 2\n")
    dp = alg.payload
    assert dp.lam(1, 2) == 1 and dp.lam(2, 1) == 0 and dp.x == (F(0), F(0))


def test_diffusion2_has_no_x_lines():
    with pytest.raises(PresentationSyntaxError):
        parse("kind: diffusion2\nn: 2\nx 1 = 3\n")


def test_diffusion2_round_trip():
    text = "kind: diffusion2\nn: 2\nlambda 1 2 = 2\nlambda 2 1 = 3\n"
    alg = parse(text)
    assert alg.payload.dtype is DiffusionType.TYPE2
    again = parse(emit(alg))
    assert again.payload == alg.payload


def test_presentation_helper():
    alg = parse(DIFF1)
    pres = alg.presentation()
    assert pres.n == 3
    alg2 = parse(REFERENCE3)
    assert alg2.presentation() is alg2.payload
