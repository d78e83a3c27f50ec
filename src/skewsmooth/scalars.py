"""Exact coefficient fields: arbitrary-precision rationals and prime fields F_p.

Rationals are ``Rational`` values, a ``fractions.Fraction`` subclass (canonical
lowest terms, positive denominator) whose arithmetic with ``Rational``,
``Fraction`` and ``int`` operands works on the two integers directly.
Prime-field elements are immutable wrappers around a reduced residue, with
the same direct arithmetic on ``FpElement`` and ``int`` operands; an inverse
is one ``pow(v, -1, p)`` (extended Euclid), not a Fermat power.  Both kinds
support ``+ - * / **`` and mix freely with Python ints, so field-generic code
can use integer literals in formulas.  A field's ``ratio(num, den)`` builds
the element num/den from two ints in one step.

A modulus is accepted only when it is proven prime: deterministic
Miller-Rabin on bases proven exact below a bound, three bases for every
modulus below 2^32.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from .errors import BadCharacteristicError
from .frozen import Frozen

__all__ = ["QQ", "RationalField", "Rational", "PrimeField", "FpElement",
           "field_from_name"]


# Miller-Rabin decides primality exactly on a fixed base set below the least
# strong pseudoprime to all of its bases: bases 2, 7 and 61 below 4,759,123,141
# (Jaeschke, Math. Comp. 61, 1993), which covers every 31-bit prime, and the
# first 13 prime bases below _MR_LIMIT (Sorenson & Webster, Math. Comp. 86,
# 2017).
_MR_SMALL_BASES = (2, 7, 61)
_MR_SMALL_LIMIT = 4759123141
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin.  Moduli from ``_MR_LIMIT`` on are rejected
    with ``BadCharacteristicError``: no fixed base set is proven exact there."""
    if p >= _MR_LIMIT:
        raise BadCharacteristicError(
            f"modulus {p} is too large: primality is only decided exactly below "
            f"{_MR_LIMIT} (deterministic Miller-Rabin on the first 13 prime bases)")
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_SMALL_BASES if p < _MR_SMALL_LIMIT else _MR_BASES:
        # a multiple of p says nothing; after the trial division that is
        # only the base 61 at p = 61
        if a % p == 0:
            continue
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class FpElement(Frozen):
    """A residue modulo a prime, normalized to 0..p-1.

    Immutable: assigning an attribute raises.  Results of arithmetic are
    built by ``_fp`` from already reduced residues; a residue for the same
    prime or an ``int`` operand is read directly, and division multiplies by
    the inverse ``pow(v, -1, p)``.
    """

    __slots__ = _fields = ("value", "p")

    def __init__(self, value: int, p: int):
        _set_value(self, value % p)
        _set_p(self, p)

    # The (numerator, denominator) split of ``Fraction``: integer code that
    # reads it, such as ``diffusion.pq_p``, runs unchanged over Q and F_p.
    @property
    def numerator(self) -> int:
        return self.value

    @property
    def denominator(self) -> int:
        return 1

    def _lift(self, other) -> "FpElement":
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise ValueError("cannot mix residues for different primes")
            return other
        if isinstance(other, int):
            return _fp(other % self.p, self.p)
        return NotImplemented

    # Operands other than a same-prime residue or an int go through
    # ``_lift``, which refuses a residue for another prime.
    def __add__(self, other):
        p = self.p
        cls = other.__class__
        if cls is FpElement and other.p == p:
            return _fp((self.value + other.value) % p, p)
        if cls is int:
            return _fp((self.value + other) % p, p)
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return _fp((self.value + other.value) % p, p)

    __radd__ = __add__

    def __neg__(self):
        return _fp(-self.value % self.p, self.p)

    def __sub__(self, other):
        p = self.p
        cls = other.__class__
        if cls is FpElement and other.p == p:
            return _fp((self.value - other.value) % p, p)
        if cls is int:
            return _fp((self.value - other) % p, p)
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return _fp((self.value - other.value) % p, p)

    def __rsub__(self, other):
        p = self.p
        if other.__class__ is int:
            return _fp((other - self.value) % p, p)
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return _fp((other.value - self.value) % p, p)

    def __mul__(self, other):
        p = self.p
        cls = other.__class__
        if cls is FpElement and other.p == p:
            return _fp(self.value * other.value % p, p)
        if cls is int:
            return _fp(self.value * other % p, p)
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return _fp(self.value * other.value % p, p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        p = self.p
        if other.__class__ is not FpElement or other.p != p:
            other = self._lift(other)
            if other is NotImplemented:
                return NotImplemented
        if not other.value:
            raise ZeroDivisionError("division by zero residue")
        return _fp(self.value * pow(other.value, -1, p) % p, p)

    def __rtruediv__(self, other):
        lifted = self._lift(other)
        if lifted is NotImplemented:
            return NotImplemented
        return lifted / self

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return _fp(pow(self.value, exponent, self.p), self.p)

    def inverse(self) -> "FpElement":
        if self.value == 0:
            raise ZeroDivisionError("zero residue has no inverse")
        return _fp(pow(self.value, -1, self.p), self.p)

    def __bool__(self) -> bool:
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __repr__(self):
        return str(self.value)


_set_value = FpElement.value.__set__
_set_p = FpElement.p.__set__
_new = object.__new__


def _fp(value: int, p: int) -> FpElement:
    """An ``FpElement`` for a residue already reduced modulo p."""
    x = _new(FpElement)
    _set_value(x, value)
    _set_p(x, p)
    return x


class Rational(Fraction):
    """A ``Fraction`` whose arithmetic skips ``Fraction``'s operator dispatch.

    ``+ - * / **``, negation, ``==`` and truth read ``Fraction``'s own
    ``_numerator``/``_denominator`` slots when the other operand is a
    ``Rational``, a plain ``Fraction`` or an ``int``, and build the reduced
    result with ``_q``.  Any other operand (``bool``, ``float``,
    ``complex``, another ``Fraction`` subclass) and a zero divisor go to
    ``Fraction``'s own operator, so those results and errors are
    ``Fraction``'s.  ``hash``, ordering, pickling and the repr text
    ``Fraction(n, d)`` are ``Fraction``'s as well.  ``str`` and ``repr`` give
    ``Fraction``'s text, also for a numerator or denominator past the
    interpreter's int-to-str digit limit, where ``Fraction``'s raise.
    """

    __slots__ = ()

    def __repr__(self):
        return f"Fraction({_long_str(self._numerator)}, {_long_str(self._denominator)})"

    def __str__(self):
        n, d = self._numerator, self._denominator
        try:
            return str(n) if d == 1 else f"{n}/{d}"
        except ValueError:      # past the digit limit
            return _long_str(n) if d == 1 else f"{_long_str(n)}/{_long_str(d)}"

    def __add__(a, b):
        cls = b.__class__
        if cls is Rational or cls is Fraction:
            return _sum(a._numerator, a._denominator, b._numerator, b._denominator)
        if cls is int:
            return _sum(a._numerator, a._denominator, b, 1)
        return Fraction.__add__(a, b)

    # exact sums and products commute, and for bool, float and complex
    # operands Fraction's forward operators give its reflected results, so
    # one method serves both orders
    __radd__ = __add__

    def __sub__(a, b):
        cls = b.__class__
        if cls is Rational or cls is Fraction:
            return _sum(a._numerator, a._denominator, -b._numerator, b._denominator)
        if cls is int:
            return _sum(a._numerator, a._denominator, -b, 1)
        return Fraction.__sub__(a, b)

    def __rsub__(b, a):
        cls = a.__class__
        if cls is int:
            return _sum(a, 1, -b._numerator, b._denominator)
        if cls is Fraction:
            return _sum(a._numerator, a._denominator, -b._numerator, b._denominator)
        return Fraction.__rsub__(b, a)

    def __mul__(a, b):
        cls = b.__class__
        if cls is Rational or cls is Fraction:
            return _prod(a._numerator, a._denominator, b._numerator, b._denominator)
        if cls is int:
            return _prod(a._numerator, a._denominator, b, 1)
        return Fraction.__mul__(a, b)

    __rmul__ = __mul__

    def __truediv__(a, b):
        cls = b.__class__
        if cls is Rational or cls is Fraction:
            nb, db = b._numerator, b._denominator
        elif cls is int:
            nb, db = b, 1
        else:
            return Fraction.__truediv__(a, b)
        if nb > 0:
            return _prod(a._numerator, a._denominator, db, nb)
        if nb < 0:
            return _prod(a._numerator, a._denominator, -db, -nb)
        return Fraction.__truediv__(a, b)

    def __rtruediv__(b, a):
        cls = a.__class__
        if cls is int:
            na, da = a, 1
        elif cls is Fraction:
            na, da = a._numerator, a._denominator
        else:
            return Fraction.__rtruediv__(b, a)
        nb = b._numerator
        if nb > 0:
            return _prod(na, da, b._denominator, nb)
        if nb < 0:
            return _prod(na, da, -b._denominator, -nb)
        return Fraction.__rtruediv__(b, a)

    def __pow__(a, b):
        cls = b.__class__
        if cls is not int:
            if (cls is not Rational and cls is not Fraction) or b._denominator != 1:
                return Fraction.__pow__(a, b)
            b = b._numerator
        na, da = a._numerator, a._denominator
        if b >= 0:
            return _q(na ** b, da ** b)
        if not na:
            return Fraction.__pow__(a, b)
        if na < 0:
            na, da = -na, -da
        return _q(da ** -b, na ** -b)

    def __rpow__(b, a):
        cls = a.__class__
        if cls is int:
            if b._denominator == 1 and b._numerator >= 0:
                return a ** b._numerator
            return _q(a, 1) ** b
        if cls is Fraction:
            return _q(a._numerator, a._denominator) ** b
        return Fraction.__rpow__(b, a)

    def __neg__(a):
        return _q(-a._numerator, a._denominator)

    def __eq__(a, b):
        cls = b.__class__
        if cls is Rational or cls is Fraction:
            return a._numerator == b._numerator and a._denominator == b._denominator
        if cls is int:
            return a._numerator == b and a._denominator == 1
        return Fraction.__eq__(a, b)

    # defining __eq__ clears the inherited hash
    __hash__ = Fraction.__hash__

    def __bool__(a):
        return a._numerator != 0


# str() refuses an int of more than sys.get_int_max_str_digits() digits, a
# limit that cannot be set below 640; chunks of 600 digits print under any
# setting, without changing the process-wide limit
_CHUNK_DIGITS = 600
_CHUNK = 10 ** _CHUNK_DIGITS


def _long_str(i: int) -> str:
    """The decimal text of i, built from 600-digit chunks divided off by
    ``divmod``: the same text as ``str(i)`` where that has no limit."""
    sign, i = ("-", -i) if i < 0 else ("", i)
    chunks = []
    while i >= _CHUNK:
        i, low = divmod(i, _CHUNK)
        chunks.append(f"{low:0{_CHUNK_DIGITS}d}")
    chunks.append(str(i))
    return sign + "".join(reversed(chunks))


def _q(n: int, d: int) -> Rational:
    """A ``Rational`` for a pair already in lowest terms with ``d > 0``."""
    x = _new(Rational)
    x._numerator = n
    x._denominator = d
    return x


def _sum(na: int, da: int, nb: int, db: int) -> Rational:
    """na/da + nb/db for pairs in lowest terms, reduced with the gcd of the
    denominators only (Knuth, TAOCP vol. 2, 4.5.1), as ``Fraction`` does."""
    if db == 1:
        return _q(na + nb * da, da)
    if da == 1:
        return _q(na * db + nb, db)
    g = gcd(da, db)
    if g == 1:
        return _q(na * db + nb * da, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _q(t, s * db)
    return _q(t // g2, s * (db // g2))


def _prod(na: int, da: int, nb: int, db: int) -> Rational:
    """(na/da) * (nb/db) for pairs in lowest terms with positive denominators:
    cancelling across the two pairs leaves the product reduced."""
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _q(na * nb, da * db)


class RationalField:
    """The rationals; elements are ``Rational`` instances."""

    char = 0
    name = "Q"

    zero = _q(0, 1)
    one = _q(1, 1)

    def coerce(self, value) -> Rational:
        if value.__class__ is Rational:
            return value
        if isinstance(value, (int, Fraction)):
            return _q(value.numerator, value.denominator)
        if isinstance(value, str):
            return Rational(value)
        raise TypeError(f"cannot coerce {value!r} into Q")

    def ratio(self, num: int, den: int) -> Rational:
        """num/den in lowest terms; ``ZeroDivisionError`` if den is 0."""
        if den == 1:
            return _q(num, 1)
        if not den:
            raise ZeroDivisionError("zero denominator")
        g = gcd(num, den)
        if den < 0:
            g = -g
        return _q(num // g, den // g)

    def random(self, rng: random.Random, height: int = 9) -> Rational:
        num, den = rng.randint(-height, height), rng.randint(1, height)
        g = gcd(num, den)
        return _q(num // g, den // g)

    def random_nonzero(self, rng: random.Random, height: int = 9) -> Rational:
        while True:
            x = self.random(rng, height)
            if x:
                return x

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The prime field F_p for a prime p >= 5.

    Characteristics 2 and 3 are rejected: several sign-sensitive identities in
    the solver implicitly divide by 2 or distinguish +/-.
    """

    def __init__(self, p: int):
        if not _is_prime(p):
            raise BadCharacteristicError(f"{p} is not prime")
        if p in (2, 3):
            raise BadCharacteristicError(f"characteristic {p} is not supported")
        self.p = p
        self.char = p
        self.name = f"Fp:{p}"
        self.zero = _fp(0, p)
        self.one = _fp(1, p)

    def coerce(self, value) -> FpElement:
        if isinstance(value, FpElement):
            if value.p != self.p:
                raise ValueError("residue for a different prime")
            return value
        if isinstance(value, int):
            return _fp(value % self.p, self.p)
        if isinstance(value, Fraction):
            return self.ratio(value.numerator, value.denominator)
        if isinstance(value, str):
            return self.coerce(Fraction(value))
        raise TypeError(f"cannot coerce {value!r} into F_{self.p}")

    def ratio(self, num: int, den: int) -> FpElement:
        """The residue of num/den; ``ZeroDivisionError`` if p divides den."""
        p = self.p
        if den == 1:
            return _fp(num % p, p)
        den %= p
        if not den:
            raise ZeroDivisionError("denominator divisible by the characteristic")
        return _fp(num * pow(den, -1, p) % p, p)

    def random(self, rng: random.Random, height: int = 0) -> FpElement:
        return _fp(rng.randrange(self.p), self.p)

    def random_nonzero(self, rng: random.Random, height: int = 0) -> FpElement:
        return _fp(rng.randrange(1, self.p), self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


def field_from_name(name: str):
    """Resolve a field header value: ``Q`` or ``Fp:<prime>``."""
    if name == "Q":
        return QQ
    if name.startswith("Fp:"):
        try:
            p = int(name[3:])
        except ValueError as exc:
            raise BadCharacteristicError(f"bad prime in field name {name!r}") from exc
        return PrimeField(p)
    raise BadCharacteristicError(f"unknown field {name!r}")
