"""Hypothesis fuzzing of the ``.alg`` parser.

Whatever the text, ``dsl.parse`` either returns or raises a ``SkewSmoothError``
(the CLI's one-line input error); an error in a relation line points at the
column of the offending token; and ``parse(emit(x)) == x`` on generated
presentations of every kind over Q and F_p.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewsmooth.algebra import Presentation
from skewsmooth.diffusion import DiffusionPresentation, DiffusionType
from skewsmooth.dsl import AlgebraFile, emit, parse
from skewsmooth.errors import PresentationSyntaxError, SkewSmoothError
from skewsmooth.scalars import QQ, PrimeField

FIELDS = (QQ, PrimeField(5), PrimeField(7), PrimeField(101), PrimeField(2**31 - 1))


def parse_or_input_error(text: str) -> None:
    try:
        parse(text)
    except SkewSmoothError:
        pass


# -- fragments of headers and bodies, valid and not -----------------------------

_numbers = st.one_of(
    st.integers(-3, 25).map(str),
    st.integers().map(str),
    st.sampled_from(["1" * 5000, "0" * 12 + "1", "9" * 30 + "/" + "7" * 30]),
    st.sampled_from(["", "0", "-0", "007", "1/0", "3/14", "-1/7", "1/", "/2", "x", "١٢"]))
_scalars = st.one_of(_numbers, st.tuples(_numbers, _numbers).map("/".join))
_fields = st.sampled_from(["Q", "Fp:5", "Fp:7", "Fp:2", "Fp:9", "Fp:", "Fp:-7", "Fp:x",
                           "Fp:1000000000000000003", "Fp:" + "9" * 40, "R", ""])
_kinds = st.sampled_from(["skew", "diffusion1", "diffusion2", "lie", ""])


def _relation(i, j, a, rhs):
    return f"x{i}*x{j} - {a}*x{j}*x{i} = {rhs}"


_rhs = st.lists(st.one_of(_scalars, _numbers.map(lambda g: f"x{g}"),
                          st.tuples(_scalars, _numbers).map(lambda t: f"{t[0]}*x{t[1]}")),
                max_size=4).flatmap(
    lambda terms: st.lists(st.sampled_from([" + ", " - ", "-", "+", " "]),
                           min_size=len(terms), max_size=len(terms)).map(
        lambda signs: "".join(s + t for s, t in zip(signs, terms))))

_fragments = st.one_of(
    _kinds.map(lambda k: f"kind: {k}"),
    _fields.map(lambda f: f"field: {f}"),
    _numbers.map(lambda n: f"n: {n}"),
    st.text(max_size=12).map(lambda t: f"name: {t}"),
    st.builds(_relation, _numbers, _numbers, _scalars, _rhs),
    st.builds(lambda i, j, v: f"lambda {i} {j} = {v}", _numbers, _numbers, _scalars),
    st.builds(lambda i, v: f"x {i} = {v}", _numbers, _scalars),
    st.sampled_from(["# comment", "", "   ", "=", "x1*x2", "lambda", "x1*x2 - x2*x1 ="]),
    st.text(max_size=20),
)


@settings(max_examples=400, deadline=None)
@given(st.text(max_size=200))
def test_arbitrary_text_raises_only_input_errors(text):
    parse_or_input_error(text)


# a valid header first, so that the body fragments get parsed
_headers = st.sampled_from([[], ["n: 2"], ["kind: diffusion1", "n: 3"],
                            ["kind: diffusion2", "field: Fp:7", "n: 3"]])


_LONG = "1" * 5000


@settings(max_examples=600, deadline=None)
@example(["n: 2"], [f"x{_LONG}*x2 - 2*x2*x{_LONG} = 0"], [""] * 11)
@example(["n: 2"], [f"x1*x2 - 2*x2*x1 = 3*x{_LONG}"], [""] * 11)
@example(["kind: diffusion1", "n: 3"], [f"lambda {_LONG} 1 = 2"], [""] * 11)
@example(["kind: diffusion1", "n: 3"], [f"x {_LONG} = 1"], [""] * 11)
@given(_headers, st.lists(_fragments, max_size=8),
       st.lists(st.sampled_from(["", "  ", "\t", " # tail"]), min_size=11, max_size=11))
def test_fragment_mixes_raise_only_input_errors(header, lines, pads):
    parse_or_input_error("\n".join(pad + line for pad, line in zip(pads, header + lines)))


# -- error columns ---------------------------------------------------------------

_GOOD_TERMS = ["x1", "2*x2", "3", "1/2*x1", "x2", "10"]
# each is an input error at its first character under field Fp:7 and n: 2
_BAD_TERMS = ["?", "3/14", "1/0", "x9", "2*x0", "x1?x", "1" * 5000]
_BAD_QUADS = ["3/14", "1/0", "-1/7", "1" * 5000]
_blanks = st.sampled_from(["", " ", "  ", "\t", " \t "])


@st.composite
def lines_with_a_bad_token(draw):
    """A relation line with random spacing, and the offset of its bad token."""
    def spaced(token):
        # spaces may sit anywhere inside a token
        return "".join(ch + draw(st.sampled_from(["", "", " "])) for ch in token)

    line = draw(st.sampled_from(["", "  ", "\t"]))
    where = draw(st.sampled_from(["quad", "term", "sign"]))
    quad = draw(st.sampled_from(_BAD_QUADS)) if where == "quad" else spaced("2")
    line += spaced("x1*x2-")
    bad_at = len(line)
    line += quad + spaced("*x2*x1") + " = " + draw(st.sampled_from(["", "-", "+ "]))
    terms = [spaced(t) for t in draw(st.lists(st.sampled_from(_GOOD_TERMS),
                                              min_size=1 if where == "sign" else 0,
                                              max_size=3))]
    if where == "term":
        terms.insert(draw(st.integers(0, len(terms))), draw(st.sampled_from(_BAD_TERMS)))
    for idx, term in enumerate(terms):
        if idx:
            line += draw(_blanks) + draw(st.sampled_from(["+", "-", "--", "+-"])) + draw(_blanks)
        if term in _BAD_TERMS:
            bad_at = len(line)
        line += term
    if where == "sign":
        line += draw(_blanks) + draw(st.sampled_from(["", "+ ", "-\t"]))
        bad_at = len(line)
        line += draw(st.sampled_from(["+", "-"]))
    elif where == "quad" and not terms:
        line += "0"
    return line, bad_at


@settings(max_examples=400, deadline=None)
@example(("x1*x2 - 2*x2*x1 = x1 +", 21))
@example(("  x1 *x2- 2*x2*x1 = x1 - 1 0*x 1\t-", 33))
@given(lines_with_a_bad_token())
def test_error_column_is_the_bad_tokens_first_character(case):
    line, bad_at = case
    try:
        parse(f"kind: skew\nfield: Fp:7\nn: 2\n{line}\n")
    except PresentationSyntaxError as err:
        assert (err.line, err.column) == (4, bad_at + 1), str(err)[:200]
    else:
        raise AssertionError(f"{line!r} parsed")


# -- round trips --------------------------------------------------------------

# a name is one header value: no comment sign, no line break, no surrounding blanks
_names = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"),
                               blacklist_characters="#"),
                 min_size=1, max_size=12).filter(lambda s: s == s.strip())


@st.composite
def _elements(draw, field, nonzero=False):
    num = draw(st.integers(-30, 30).filter(lambda v: v or not nonzero))
    if field is QQ:
        return Fraction(num, draw(st.integers(1, 12)))
    value = field.coerce(num)
    return value if value or not nonzero else field.one


@st.composite
def skew_files(draw):
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 5))
    relations = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if draw(st.booleans()):
                tail = {g: draw(_elements(field))
                        for g in draw(st.sets(st.integers(1, n), max_size=3))}
                relations[(i, j)] = (draw(_elements(field, nonzero=True)), tail,
                                     draw(_elements(field)))
    pres = Presentation.skew(field, n, relations)
    return AlgebraFile(draw(_names), "skew", field, n, pres)


@st.composite
def diffusion_files(draw):
    field = draw(st.sampled_from(FIELDS))
    kind, dtype = draw(st.sampled_from([("diffusion1", DiffusionType.TYPE1),
                                        ("diffusion2", DiffusionType.TYPE2)]))
    n = draw(st.integers(1, 4))
    lambdas = {(i, j): draw(_elements(field, nonzero=i < j))
               for i in range(1, n + 1) for j in range(1, n + 1) if i != j}
    xs = tuple(draw(_elements(field)) for _ in range(n)) \
        if dtype is DiffusionType.TYPE1 else ()
    return AlgebraFile(draw(_names), kind, field, n,
                       DiffusionPresentation(n, dtype, lambdas, xs, field))


@settings(max_examples=300, deadline=None)
@given(st.one_of(skew_files(), diffusion_files()))
def test_parse_inverts_emit(alg):
    text = emit(alg)
    assert parse(text) == alg
    assert emit(parse(text)) == text
