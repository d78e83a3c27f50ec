"""Line-oriented text format for presentations.

Header lines (``key: value``) give the name, kind (skew, diffusion1,
diffusion2), field (``Q`` or ``Fp:<prime>``), and generator count ``n``.

The skew body lists relations, one pair per line, in the fixed shape

    x<i>*x<j> - <scalar>*x<j>*x<i> = <linear expression>

with i < j; unspecified pairs default to coefficient 1 with no tail.  The
diffusion body lists coefficient assignments ``lambda <i> <j> = <scalar>``
and, for kind diffusion1, ``x <i> = <scalar>``; unspecified forward lambdas
default to 1, reverse lambdas and x parameters to 0.

Scalars are integers or ``p/q`` fractions.  ``#`` starts a comment.
The header's ``n`` is at most ``MAX_GENERATORS``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Presentation
from .diffusion import DiffusionPresentation, DiffusionType, encode_presentation
from .errors import (BadCharacteristicError, DuplicatePairError,
                     PresentationSyntaxError, ZeroQuadCoeffError)
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


@dataclass(frozen=True)
class AlgebraFile:
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
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise PresentationSyntaxError(f"scalar {text!r} has zero denominator", line, col)
    except ValueError:
        raise PresentationSyntaxError(f"bad scalar {text!r}", line, col)
    try:
        return field.coerce(value)
    except ZeroDivisionError:
        raise PresentationSyntaxError(
            f"scalar {text!r} has a denominator divisible by the characteristic {field.char}",
            line, col)


def _parse_linear(rhs: str, line: int, col: int, field, n: int):
    """A +/- separated combination of scalars and scalar multiples of x<g>."""
    tail: dict = {}
    const = field.zero
    text = rhs.strip()
    if not text:
        raise PresentationSyntaxError("empty right-hand side", line, col)
    sign = 1
    # split into signed terms while tracking the column of each
    chunks = []
    current = ""
    current_start = 0
    for idx, ch in enumerate(text):
        if ch in "+-" and current.strip():
            chunks.append((sign, current.strip(), current_start))
            sign = 1 if ch == "+" else -1
            current = ""
            current_start = idx + 1
        elif ch in "+-" and not current.strip():
            if ch == "-":
                sign = -sign
            current_start = idx + 1
        else:
            current += ch
    if current.strip():
        chunks.append((sign, current.strip(), current_start))
    if not chunks:
        raise PresentationSyntaxError("empty right-hand side", line, col)
    for sgn, chunk, start in chunks:
        m = _TERM_RE.match(chunk.replace(" ", ""))
        if not m:
            raise PresentationSyntaxError(f"bad term {chunk!r}", line, col + start)
        gen = m.group("gen1") or m.group("gen2")
        coeff = field.one if m.group("coeff") is None \
            else _parse_scalar(m.group("coeff"), line, col + start, field)
        if sgn < 0:
            coeff = -coeff
        if gen is None:
            const = const + coeff
        else:
            g = int(gen)
            if not 1 <= g <= n:
                raise PresentationSyntaxError(f"generator x{g} out of range", line, col + start)
            tail[g] = tail.get(g, field.zero) + coeff
    return tail, const


def parse(text: str) -> AlgebraFile:
    """Parse an algebra file; errors carry 1-based line and column."""
    name = "unnamed"
    kind = "skew"
    field = QQ
    n = None
    body: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        m = _HEADER_RE.match(stripped.strip())
        if m and not body:
            key, value = m.group("key"), m.group("value")
            if key == "name":
                name = value
            elif key == "kind":
                if value not in ("skew", "diffusion1", "diffusion2"):
                    raise PresentationSyntaxError(f"unknown kind {value!r}", lineno, 1)
                kind = value
            elif key == "field":
                try:
                    field = field_from_name(value)
                except BadCharacteristicError:
                    raise
            else:
                try:
                    n = int(value)
                except ValueError:
                    raise PresentationSyntaxError(f"bad generator count {value!r}", lineno, 1)
                if not 1 <= n <= MAX_GENERATORS:
                    raise PresentationSyntaxError(
                        f"generator count must be between 1 and {MAX_GENERATORS}", lineno, 1)
            continue
        body.append((lineno, stripped.strip(), len(raw) - len(raw.lstrip()) + 1))
    if n is None:
        raise PresentationSyntaxError("missing 'n:' header", 1, 1)

    if kind == "skew":
        relations: dict = {}
        for lineno, line, col in body:
            if "=" not in line:
                raise PresentationSyntaxError(f"bad relation line {line!r}", lineno, col)
            lhs, rhs = line.split("=", 1)
            rhs_col = col + len(lhs) + 1
            m = _REL_LHS_RE.match(lhs.replace(" ", ""))
            if not m:
                raise PresentationSyntaxError(f"bad relation left-hand side {lhs.strip()!r}",
                                              lineno, col)
            i, j = int(m.group("i")), int(m.group("j"))
            if not (1 <= i < j <= n):
                raise PresentationSyntaxError(
                    f"pair ({i}, {j}) must satisfy 1 <= i < j <= n", lineno, col)
            if int(m.group("j2")) != j or int(m.group("i2")) != i:
                raise PresentationSyntaxError(
                    "the quadratic term must repeat the pair in swapped order", lineno, col)
            if (i, j) in relations:
                raise DuplicatePairError(f"pair ({i}, {j}) defined twice", lineno, col)
            if m.group("a") is None:
                a = field.one
            else:
                # the column of the scalar's first character, spaces included
                a_col = col + [k for k, ch in enumerate(lhs) if ch != " "][m.start("a")]
                a = _parse_scalar(m.group("a"), lineno, a_col, field)
            if not a:
                raise ZeroQuadCoeffError(
                    f"line {lineno}: quadratic coefficient of pair ({i}, {j}) is zero")
            tail, const = _parse_linear(rhs, lineno, rhs_col, field, n)
            relations[(i, j)] = (a, tail, const)
        payload = Presentation.skew(field, n, relations)
        return AlgebraFile(name, kind, field, n, payload)

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
            lambdas[(i, j)] = _parse_scalar(m.group("v"), lineno, col, field)
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
            xs[i] = _parse_scalar(m.group("v"), lineno, col, field)
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


def _linear_text(tail: dict, const, n: int) -> str:
    bits = []
    for g in sorted(tail):
        c = tail[g]
        if not c:
            continue
        bits.append(f"x{g}" if c == 1 else f"{c}*x{g}")
    if const:
        bits.append(str(const))
    if not bits:
        return "0"
    text = bits[0]
    for b in bits[1:]:
        text += f" + {b}" if not b.startswith("-") else f" - {b[1:]}"
    return text


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
                         + _linear_text(tail, const, pres.n))
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
