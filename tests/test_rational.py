"""``scalars.Rational`` against plain ``fractions.Fraction``.

``Rational`` reimplements ``Fraction``'s arithmetic on ``Fraction``'s private
``_numerator``/``_denominator`` slots.  The oracle property below pins every
overridden operator to ``Fraction``'s own result, so a change to those slots
in a later Python shows here first.  The closure tests follow Q values along
the engine's real paths: a silent fall back to plain ``Fraction`` would stay
correct and only be slow.
"""

import copy
import operator
import pickle
import random
import sys
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewsmooth.algebra import Presentation
from skewsmooth.calculus import CalculusContext, kernel_of_d_bounded
from skewsmooth.diffusion import verify_commutation
from skewsmooth.dsl import parse
from skewsmooth.scalars import QQ, Rational
from skewsmooth.smoothness import decide

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=40)
# (kind, value): one rational value, as a Rational, a plain Fraction or an int
operands = st.tuples(st.sampled_from(["Rational", "Fraction", "int"]), fractions)
with_zeros = st.one_of(st.tuples(st.sampled_from(["Rational", "Fraction", "int"]),
                                 st.just(Fraction(0))), operands)


def _make(kind, value: Fraction):
    if kind == "Rational":
        return Rational(value)
    return Fraction(value) if kind == "Fraction" else round(value)


def _plain(x):
    """x with a Rational replaced by the equal plain Fraction."""
    return Fraction(x) if type(x) is Rational else x


def _outcome(fn, *args):
    """(value, str, repr, hash, bool) of ``fn(*args)``, or the type and text
    of the ``ZeroDivisionError`` it raised."""
    try:
        got = fn(*args)
    except ZeroDivisionError as exc:
        return "ZeroDivisionError", str(exc)
    return got, str(got), repr(got), hash(got), bool(got)


@settings(max_examples=400, deadline=None)
@given(fractions, with_zeros, st.booleans())
@example(Fraction(3, 4), ("int", Fraction(0)), True)
@example(Fraction(-3, 2), ("Rational", Fraction(0)), True)
@example(Fraction(0), ("int", Fraction(5)), False)
@example(Fraction(0), ("Fraction", Fraction(-7, 3)), False)
@example(Fraction(1, 2), ("Rational", Fraction(-1, 2)), True)
def test_binary_operators_match_fraction(value, other, rational_on_left):
    args = (Rational(value), _make(*other))
    if not rational_on_left:
        args = args[::-1]
    plain = tuple(_plain(x) for x in args)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        got = _outcome(op, *args)
        assert got == _outcome(op, *plain)
        if got[0] != "ZeroDivisionError":
            assert type(op(*args)) is Rational
    for cmp in (operator.eq, operator.ne, operator.lt, operator.le, operator.gt,
                operator.ge):
        assert cmp(*args) is cmp(*plain)


@settings(max_examples=300, deadline=None)
@given(with_zeros, st.integers(min_value=-6, max_value=6),
       st.sampled_from(["Rational", "Fraction", "int"]))
@example(("Rational", Fraction(0)), -2, "int")
@example(("Rational", Fraction(0)), -1, "Rational")
@example(("Rational", Fraction(0)), 0, "int")
@example(("int", Fraction(0)), -3, "Rational")
@example(("Rational", Fraction(-2, 3)), -3, "Fraction")
def test_powers_match_fraction(base, exponent, exponent_kind):
    x, e = _make(*base), _make(exponent_kind, Fraction(exponent))
    if Rational not in (type(x), type(e)):
        x = Rational(x)
    got = _outcome(operator.pow, x, e)
    assert got == _outcome(operator.pow, _plain(x), _plain(e))
    # an int to a nonnegative integral power stays an int, as with Fraction
    if got[0] != "ZeroDivisionError":
        want = int if type(x) is int and exponent >= 0 else Rational
        assert type(x ** e) is want


@settings(max_examples=200, deadline=None)
@given(fractions)
def test_unary_operations_copies_and_pickles_match_fraction(value):
    x, fx = Rational(value), Fraction(value)
    assert _outcome(operator.neg, x) == _outcome(operator.neg, fx)
    assert type(-x) is Rational
    assert (x == fx, fx == x, x != fx, x == value.numerator) == \
        (True, True, False, value.denominator == 1)
    assert (str(x), repr(x), hash(x), bool(x)) == (str(fx), repr(fx), hash(fx), bool(fx))
    assert isinstance(x, Fraction)
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(twin) is Rational and twin == x and hash(twin) == hash(x)


@pytest.mark.parametrize("other", [0.5, -2.25, 1j + 0.5, True, False])
def test_other_operands_get_fractions_own_results(other):
    x, fx = Rational(3, 4), Fraction(3, 4)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv, operator.pow):
        for args, fargs in (((x, other), (fx, other)), ((other, x), (other, fx))):
            got = _outcome(op, *args)
            assert got == _outcome(op, *fargs)
            if got[0] != "ZeroDivisionError":
                assert type(op(*args)) is type(op(*fargs))
    assert (x == other) is (fx == other)


@pytest.mark.parametrize("digits", [599, 600, 601, 1201, 4301, 12000])
def test_str_past_the_digit_limit_is_fractions_text(digits):
    # str() of an int refuses more than sys.get_int_max_str_digits() digits;
    # Rational's str chunks such a numerator or denominator instead
    rng = random.Random(digits)
    num = -rng.randrange(10 ** (digits - 1), 10 ** digits)
    den = 3 ** (digits * 2)
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        got = [str(Rational(num, 1)), str(Rational(num, den)), str(Rational(10 ** digits))]
        sys.set_int_max_str_digits(0)
        want = [str(Fraction(num, 1)), str(Fraction(num, den)), str(10 ** digits)]
    finally:
        sys.set_int_max_str_digits(old)
    assert got == want


def test_repr_past_the_digit_limit_prints_every_digit():
    # 5002 digits, past the default limit of 4300 that str() of an int keeps
    assert repr(QQ.ratio(10 ** 5000 + 1, 7)) == f"Fraction(1{'0' * 4999}1, 7)"
    assert repr(QQ.ratio(-7, 10 ** 5000 + 1)) == f"Fraction(-7, 1{'0' * 4999}1)"


def test_fraction_powers_to_fractional_exponents_are_floats():
    half = Rational(1, 2)
    assert (Rational(4) ** half, 4 ** half) == (Fraction(4) ** Fraction(1, 2),
                                                4 ** Fraction(1, 2))
    assert type(Rational(4) ** half) is float


def test_coercion_and_draws_are_rational():
    rng = random.Random(5)
    for value in (QQ.zero, QQ.one, QQ.coerce(3), QQ.coerce(Fraction(-6, 4)),
                  QQ.coerce("5/10"), QQ.coerce(True), QQ.random(rng),
                  QQ.random_nonzero(rng)):
        assert type(value) is Rational
    assert QQ.coerce(Fraction(-6, 4)) == Fraction(-3, 2)
    assert QQ.coerce(True) == 1 and QQ.coerce("5/10") == Fraction(1, 2)
    with pytest.raises(TypeError):
        QQ.coerce(0.5)
    # a draw is the reduced Fraction of the same two integers
    rng, twin = random.Random(7), random.Random(7)
    for height in (1, 2, 6, 9) * 50:
        got = QQ.random(rng, height)
        want = Fraction(twin.randint(-height, height), twin.randint(1, height))
        assert type(got) is Rational and (got, str(got)) == (want, str(want))


# ---------------------------------------------------------------------------
# closure over the engine's paths

SHIFTED_PLANE = """\
kind: skew
field: Q
n: 2
x1*x2 - 3*x2*x1 = 3*x1 + 1*x2 + 2
"""

# class 2b at beta = 3, b = 7: certified with slopes 1/3 and shifts -1, 1
CLASS_2B = """\
kind: skew
field: Q
n: 3
x1*x2 - 1*x2*x1 = x1
x1*x3 - 1/3*x3*x1 = -7/3
x2*x3 - 1*x3*x2 = x3
"""

# class 2d at beta = -1, b = 3: certified, with a large bounded kernel of d
TORSION_2D = """\
kind: skew
field: Q
n: 3
x1*x3 - -1*x3*x1 = 3
"""


def _assert_rational(values):
    values = list(values)
    assert values
    assert all(type(c) is Rational for c in values), \
        {type(c).__name__ for c in values}


@pytest.mark.parametrize("text", [SHIFTED_PLANE, CLASS_2B, TORSION_2D])
def test_decide_witnesses_are_rational(text):
    pres = parse(text).payload
    verdict = decide(pres)
    assert verdict.is_smooth_sufficient
    for nu in verdict.witness:
        _assert_rational(nu.slopes + nu.shifts)


def test_products_and_normal_forms_are_rational():
    pres = parse(CLASS_2B).payload
    _assert_rational(pres.normal_form((3, 3, 2, 1, 2, 1)).terms.values())
    p = pres.poly({(1, 0, 1): 2, (0, 1, 0): Fraction(-1, 3), (0, 0, 0): 5})
    q = pres.poly({(0, 2, 1): Fraction(7, 2), (1, 0, 0): -4})
    _assert_rational(pres.multiply(p, q).terms.values())
    _assert_rational(pres.multiply(q, p).terms.values())
    shifted = parse(SHIFTED_PLANE).payload
    _assert_rational(shifted.normal_form((2, 2, 1, 1)).terms.values())
    built = Presentation.skew(QQ, 2, {(1, 2): (3, {1: 3, 2: 1}, 2)})
    _assert_rational(built.normal_form((2, 2, 1, 1)).terms.values())


def test_bounded_kernel_vectors_are_rational():
    pres = parse(TORSION_2D).payload
    ctx = CalculusContext(pres, decide(pres).witness)
    kernel = kernel_of_d_bounded(ctx, 6)
    assert len(kernel) > 1
    _assert_rational(c for vec in kernel for c in vec.terms.values())


def test_commutation_normal_forms_are_rational():
    forms = []
    original = Presentation.normal_form

    def recording(self, word):
        forms.append(original(self, word))
        return forms[-1]

    with patch.object(Presentation, "normal_form", recording):
        verify_commutation(3, samples=4, seed=2)
    _assert_rational(c for form in forms for c in form.terms.values())
