"""Line-oriented text format for presentations.

Header lines (``key: value``) give the name, kind (skew, diffusion1,
diffusion2), field (``Q`` or ``Fp:<prime>``), and generator count ``n``.

The skew body lists relations, one pair per line, in the fixed shape

    x<i>*x<j> - <scalar>*x<j>*x<i> = <linear expression>

with i < j; unspecified pairs default to coefficient 1 with no tail.  Spaces
may sit anywhere in it; the right-hand side must not end in a sign.  The
diffusion body lists coefficient assignments ``lambda <i> <j> = <scalar>``
and, for kind diffusion1, ``x <i> = <scalar>``; unspecified forward lambdas
default to 1, reverse lambdas and x parameters to 0.

Scalars are integers or ``p/q`` fractions.  ``#`` starts a comment.
The header's ``n`` is at most ``MAX_GENERATORS``.
"""

from __future__ import annotations

import re
import sys
from typing import NamedTuple

from .algebra import Presentation, _signed_sum
from .diffusion import DiffusionPresentation, DiffusionType, encode_presentation
from .errors import DuplicatePairError, PresentationSyntaxError, ZeroQuadCoeffError
from .scalars import QQ, field_from_name

__all__ = ["AlgebraFile", "parse", "emit", "parse_file", "MAX_GENERATORS"]

# The presentation holds all C(n, 2) pair rules and the checks run over pairs
# and triples; at this bound `smooth` takes about 1 s (README, "File format").
MAX_GENERATORS = 20

_SCALAR_RE = r"-?\d+(?:/\d+)?"
# a longer index is out of range anyway, and int() refuses over 4300 digits
_INDEX_RE = r"\d{1,9}"
_REL_LHS_RE = re.compile(
    rf"^x(?P<i>{_INDEX_RE})\*x(?P<j>{_INDEX_RE})-(?:(?P<a>{_SCALAR_RE})\*)?"
    rf"x(?P<j2>{_INDEX_RE})\*x(?P<i2>{_INDEX_RE})$")
_LAMBDA_RE = re.compile(
    rf"^lambda\s+(?P<i>{_INDEX_RE})\s+(?P<j>{_INDEX_RE})\s*=\s*(?P<v>{_SCALAR_RE})$")
_X_RE = re.compile(rf"^x\s+(?P<i>{_INDEX_RE})\s*=\s*(?P<v>{_SCALAR_RE})$")
_HEADER_RE = re.compile(r"^(?P<key>name|kind|field|n)\s*:\s*(?P<value>\S.*?)\s*$")
_TERM_RE = re.compile(
    rf"^(?:(?P<coeff>{_SCALAR_RE})(?:\*x(?P<gen1>{_INDEX_RE}))?|x(?P<gen2>{_INDEX_RE}))$")
# one term of a right-hand side with the run of signs before it
_SIGNED_TERM_RE = re.compile(r"(?P<signs>[-+\s]*)(?P<term>[^-+\s][^-+]*)")


class AlgebraFile(NamedTuple):
    name: str
    kind: str                      # skew | diffusion1 | diffusion2
    field: object
    n: int
    payload: object                # Presentation or DiffusionPresentation

    def presentation(self) -> Presentation:
        """The payload as a rewriting-engine presentation."""
        if self.kind == "skew":
            return self.payload
        return encode_presentation(self.payload)


def _parse_scalar(text: str, line: int, col: int, field):
    num, _, den = text.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError:
        # ``text`` has the shape of _SCALAR_RE, so only int()'s digit limit is left
        raise PresentationSyntaxError(
            f"scalar has more than {sys.get_int_max_str_digits()} digits", line, col)
    if not den:
        raise PresentationSyntaxError(f"scalar {text!r} has zero denominator", line, col)
    try:
        return field.ratio(num, den)
    except ZeroDivisionError:
        raise PresentationSyntaxError(
            f"scalar {text!r} has a denominator divisible by the characteristic {field.char}",
            line, col)


def _index(line: str, pos: int) -> int:
    """The index in ``line`` of ``line.replace(" ", "")[pos]``, or ``len(line)``."""
    kept = [k for k, ch in enumerate(line) if ch != " "]
    return kept[pos] if pos < len(kept) else len(line)


def _parse_linear(line: str, text: str, start: int, field, n: int):
    """The +/- separated scalars and scalar multiples of x<g> in ``text[start:]``,
    ``line`` with its spaces taken out; a term's sign is the parity of the
    ``-`` signs before it.  Errors are raised as in ``_parse_relation``."""
    tail: dict = {}
    const = field.zero
    end = start
    for t in _SIGNED_TERM_RE.finditer(text, start):
        end = t.end()
        pos = t.start("term")
        term = t.group("term").rstrip()
        m = _TERM_RE.match(term)
        if not m:
            quoted = line[_index(line, pos):_index(line, pos + len(term) - 1) + 1]
            raise PresentationSyntaxError(f"bad term {quoted!r}", 0, pos)
        gen = m.group("gen1") or m.group("gen2")
        coeff = field.one if m.group("coeff") is None \
            else _parse_scalar(m.group("coeff"), 0, pos, field)
        if t.group("signs").count("-") % 2:
            coeff = -coeff
        if gen is None:
            const = const + coeff
        else:
            g = int(gen)
            if not 1 <= g <= n:
                raise PresentationSyntaxError(f"generator x{g} out of range", 0, pos)
            tail[g] = tail.get(g, field.zero) + coeff
    if end == start:
        raise PresentationSyntaxError("empty right-hand side", 0, start)
    if text[-1] in "+-":
        raise PresentationSyntaxError("right-hand side ends in a dangling sign", 0, len(text) - 1)
    return tail, const


def _parse_relation(line: str, lineno: int, field, n: int, relations: dict) -> None:
    """Add the relation on one skew body line, matched with its spaces taken
    out, to ``relations``.  Input errors carry line 0 and their position in
    that compact text; ``parse`` maps it to a column with ``_index``."""
    text = line.replace(" ", "")
    lhs, eq, _ = text.partition("=")
    if not eq:
        raise PresentationSyntaxError(f"bad relation line {line!r}", 0, 0)
    m = _REL_LHS_RE.match(lhs)
    if not m:
        raise PresentationSyntaxError(
            f"bad relation left-hand side {line.split('=', 1)[0].strip()!r}", 0, 0)
    i, j = int(m.group("i")), int(m.group("j"))
    if not (1 <= i < j <= n):
        raise PresentationSyntaxError(f"pair ({i}, {j}) must satisfy 1 <= i < j <= n", 0, 0)
    if int(m.group("j2")) != j or int(m.group("i2")) != i:
        raise PresentationSyntaxError(
            "the quadratic term must repeat the pair in swapped order", 0, 0)
    if (i, j) in relations:
        raise DuplicatePairError(f"pair ({i}, {j}) defined twice", 0, 0)
    a = field.one if m.group("a") is None \
        else _parse_scalar(m.group("a"), 0, m.start("a"), field)
    if not a:
        raise ZeroQuadCoeffError(
            f"line {lineno}: quadratic coefficient of pair ({i}, {j}) is zero")
    tail, const = _parse_linear(line, text, len(lhs) + 1, field, n)
    relations[(i, j)] = (a, tail, const)


def parse(text: str) -> AlgebraFile:
    """Parse an algebra file; errors carry 1-based line and column."""
    name = "unnamed"
    kind = "skew"
    field = QQ
    n = None
    body: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _HEADER_RE.match(line)
        if m and not body:
            key, value = m.group("key"), m.group("value")
            if key == "name":
                name = value
            elif key == "kind":
                if value not in ("skew", "diffusion1", "diffusion2"):
                    raise PresentationSyntaxError(f"unknown kind {value!r}", lineno, 1)
                kind = value
            elif key == "field":
                field = field_from_name(value)
            else:
                try:
                    n = int(value)
                except ValueError:
                    raise PresentationSyntaxError(f"bad generator count {value!r}", lineno, 1)
                if not 1 <= n <= MAX_GENERATORS:
                    raise PresentationSyntaxError(
                        f"generator count must be between 1 and {MAX_GENERATORS}", lineno, 1)
            continue
        body.append((lineno, line, len(raw) - len(raw.lstrip()) + 1))
    if n is None:
        raise PresentationSyntaxError("missing 'n:' header", 1, 1)

    if kind == "skew":
        relations: dict = {}
        for lineno, line, col in body:
            try:
                _parse_relation(line, lineno, field, n, relations)
            except PresentationSyntaxError as exc:
                raise type(exc)(str(exc), lineno, col + _index(line, exc.column)) from None
        return AlgebraFile(name, kind, field, n, Presentation.skew(field, n, relations))

    lambdas: dict = {}
    xs: dict = {}
    for lineno, line, col in body:
        m = _LAMBDA_RE.match(line)
        if m:
            i, j = int(m.group("i")), int(m.group("j"))
            if i == j or not (1 <= i <= n and 1 <= j <= n):
                raise PresentationSyntaxError(f"bad lambda indices ({i}, {j})", lineno, col)
            if (i, j) in lambdas:
                raise DuplicatePairError(f"lambda {i} {j} defined twice", lineno, col)
            lambdas[(i, j)] = _parse_scalar(m.group("v"), lineno, col + m.start("v"), field)
            continue
        m = _X_RE.match(line)
        if m:
            if kind != "diffusion1":
                raise PresentationSyntaxError(
                    "x parameters are scalars only for kind diffusion1", lineno, col)
            i = int(m.group("i"))
            if not 1 <= i <= n:
                raise PresentationSyntaxError(f"x index {i} out of range", lineno, col)
            if i in xs:
                raise DuplicatePairError(f"x {i} defined twice", lineno, col)
            xs[i] = _parse_scalar(m.group("v"), lineno, col + m.start("v"), field)
            continue
        raise PresentationSyntaxError(f"bad coefficient line {line!r}", lineno, col)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            lambdas.setdefault((i, j), field.one)
    dtype = DiffusionType.TYPE1 if kind == "diffusion1" else DiffusionType.TYPE2
    x = tuple(xs.get(i, field.zero) for i in range(1, n + 1)) \
        if dtype is DiffusionType.TYPE1 else ()
    payload = DiffusionPresentation(n, dtype, lambdas, x, field)
    return AlgebraFile(name, kind, field, n, payload)


def parse_file(path: str) -> AlgebraFile:
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def _linear_text(tail: dict, const) -> str:
    """The right-hand side; ``tail`` maps generators to nonzero coefficients."""
    bits = []
    for g, c in sorted(tail.items()):
        bits.append(f"x{g}" if c == 1 else f"{c}*x{g}")
    if const:
        bits.append(str(const))
    return _signed_sum(bits)


def emit(alg: AlgebraFile) -> str:
    """Canonical text; parse(emit(parse(t))) equals parse(t)."""
    lines = [f"name: {alg.name}", f"kind: {alg.kind}", f"field: {alg.field.name}",
             f"n: {alg.n}"]
    if alg.kind == "skew":
        pres: Presentation = alg.payload
        for (i, j) in sorted(pres.pairs):
            rule = pres.pairs[(i, j)]
            vec, const = pres.tail_vector(i, j)
            tail = {g: vec[g - 1] for g in range(1, pres.n + 1) if vec[g - 1]}
            if rule.quad == pres.field.one and not tail and not const:
                continue
            lines.append(f"x{i}*x{j} - {rule.quad}*x{j}*x{i} = "
                         + _linear_text(tail, const))
    else:
        dp: DiffusionPresentation = alg.payload
        for i in range(1, dp.n + 1):
            for j in range(1, dp.n + 1):
                if i == j:
                    continue
                v = dp.lam(i, j)
                default = dp.field.one if i < j else dp.field.zero
                if v != default:
                    lines.append(f"lambda {i} {j} = {v}")
        if dp.dtype is DiffusionType.TYPE1:
            for i, v in enumerate(dp.x, start=1):
                if v:
                    lines.append(f"x {i} = {v}")
    return "\n".join(lines) + "\n"
