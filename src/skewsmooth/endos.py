"""Diagonal-affine algebra endomorphisms x_j -> slope_j x_j + shift_j.

These extend multiplicatively/additively to polynomials on the free side;
whether they descend to the quotient algebra is the separate, checked
property ``respects_relations``.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import NamedTuple

from .algebra import NcPoly, Presentation, _poly
from .errors import IndexRangeError, MismatchedArityError, ZeroSlopeError
from .frozen import Frozen
from .linalg import add_into

__all__ = [
    "AffineEndo",
    "identity_endo",
    "apply_endo",
    "compose",
    "commute",
    "noncommuting_pairs",
    "invert",
    "RelationCheck",
    "RelationReport",
    "respects_relations",
]


class AffineEndo(Frozen):
    """Generator-wise affine map; all slopes must be nonzero.

    Immutable: assigning an attribute raises.  Equality, hash and repr read
    the slopes and shifts only, not the ``power_image`` memo ``_powers``.
    """

    __slots__ = ("slopes", "shifts", "_powers")
    _fields = ("slopes", "shifts")

    def __init__(self, slopes: tuple, shifts: tuple):
        slopes, shifts = tuple(slopes), tuple(shifts)
        if len(slopes) != len(shifts):
            raise MismatchedArityError("slope/shift length mismatch")
        if any(not s for s in slopes):
            raise ZeroSlopeError("affine endomorphism with zero slope is not invertible")
        self._assign(slopes, shifts)
        object.__setattr__(self, "_powers", {})  # (g, power) -> power_image(g, power)

    @property
    def n(self) -> int:
        return len(self.slopes)

    def image_poly(self, pres: Presentation, g: int) -> NcPoly:
        p = pres.gen(g).scale(self.slopes[g - 1])
        if self.shifts[g - 1]:
            p = p + pres.scalar(self.shifts[g - 1])
        return p

    def power_image(self, g: int, power: int) -> dict:
        """(slope_g x_g + shift_g)^power as exponent -> coefficient, memoised
        on the endomorphism; the returned map is shared, so callers only
        read it.  A generator outside 1..n or a negative power raises."""
        key = (g, power)
        got = self._powers.get(key)
        if got is None:
            if not 1 <= g <= self.n or power < 0:
                raise IndexRangeError(f"no power image (x_{g})^{power} for n = {self.n}")
            got = self._powers[key] = _univariate_image(
                self.slopes[g - 1], self.shifts[g - 1], power)
        return got


def identity_endo(field, n: int) -> AffineEndo:
    return AffineEndo((field.one,) * n, (field.zero,) * n)


def _univariate_image(slope, shift, power: int):
    """(slope*x + shift)^power as a map exponent -> coefficient, without the
    binomial terms that vanish in positive characteristic."""
    if not shift:
        return {power: slope ** power}
    image = {t: comb(power, t) * slope ** t * shift ** (power - t)
             for t in range(power + 1)}
    return {t: c for t, c in image.items() if c}


def apply_endo(endo: AffineEndo, p: NcPoly, pres: Presentation) -> NcPoly:
    """Algebra-map expansion of each monomial, renormalized to PBW form.

    Images of distinct generators involve distinct generators, so the expanded
    words are already normal-ordered and no rewriting is needed, and the
    products of the per-generator images never collide.  A constant term is
    its own image.
    """
    if endo.n != pres.n:
        raise MismatchedArityError("endomorphism arity differs from presentation")
    unit = (0,) * pres.n
    out: dict = {}
    for m, c in p.terms.items():
        image = {unit: c}
        if m != unit:
            for g, power in enumerate(m):
                if power:
                    uni = endo.power_image(g + 1, power)
                    image = {e[:g] + (t,) + e[g + 1:]: coeff * u
                             for e, coeff in image.items() for t, u in uni.items()}
        add_into(out, image)
    # a product of nonzero scalars is nonzero and add_into drops what cancels,
    # so ``out`` holds no zero coefficient and needs no filtering copy
    return _poly(out)


def compose(e1: AffineEndo, e2: AffineEndo) -> AffineEndo:
    """Composite with slope e1.a*e2.a and shift e1.a*e2.b + e1.b.

    Operationally this is "substitute e2's formula into e1's"; applied to
    polynomials it equals apply(e2, apply(e1, .)).  For pairwise-commuting
    families, which is the only regime the calculus uses, the order is
    immaterial.
    """
    if e1.n != e2.n:
        raise MismatchedArityError("cannot compose endomorphisms of different arity")
    slopes = tuple(a1 * a2 for a1, a2 in zip(e1.slopes, e2.slopes))
    shifts = tuple(a1 * b2 + b1 for a1, b1, b2 in zip(e1.slopes, e1.shifts, e2.shifts))
    return AffineEndo(slopes, shifts)


def _shift_defect(a1, b1, a2, b2):
    """Shift of compose(e1, e2) minus that of compose(e2, e1) on a generator
    that e1 and e2 send to a1 x + b1 and a2 x + b2; the slopes agree."""
    return b2 * (a1 - 1) - b1 * (a2 - 1)


def commute(e1: AffineEndo, e2: AffineEndo) -> bool:
    """True iff compose(e1, e2) == compose(e2, e1): no generator has a
    nonzero ``_shift_defect``."""
    if e1.n != e2.n:
        raise MismatchedArityError("cannot compose endomorphisms of different arity")
    return not any(map(_shift_defect, e1.slopes, e1.shifts, e2.slopes, e2.shifts))


def noncommuting_pairs(family):
    """The pairs (i, j), i < j from 1, of twists in ``family`` that do not commute."""
    return ((i, j) for (i, e1), (j, e2) in combinations(enumerate(family, 1), 2)
            if not commute(e1, e2))


def invert(endo: AffineEndo) -> AffineEndo:
    slopes = tuple(1 / a for a in endo.slopes)
    shifts = tuple(-(b / a) for a, b in zip(endo.slopes, endo.shifts))
    return AffineEndo(slopes, shifts)


class RelationCheck(NamedTuple):
    pair: tuple
    passed: bool
    residue: NcPoly


class RelationReport(NamedTuple):
    checks: tuple

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]


def respects_relations(endo: AffineEndo, pres: Presentation) -> RelationReport:
    """Per relation, the normal form of endo(LHS - RHS); PASS iff all zero.
    Each term's normal form is added into one residue map."""
    if endo.n != pres.n:
        raise MismatchedArityError(f"cannot check a {endo.n}-generator endomorphism "
                                   f"against a {pres.n}-generator presentation")
    checks = []
    images = {g: endo.image_poly(pres, g) for g in range(1, pres.n + 1)}
    for (i, j) in sorted(pres.pairs):
        rule = pres.pairs[(i, j)]
        residue: dict = {}
        add_into(residue, pres.multiply(images[i], images[j]).terms)
        # add_into takes nonzero factors; a zero quad (descending order) or
        # tail coefficient adds nothing
        if rule.quad:
            add_into(residue, pres.multiply(images[j], images[i]).terms, -rule.quad)
        for coeff, word in rule.tail:
            if coeff:
                image = images[word[0]] if len(word) == 1 else \
                    pres.product(*(images[g] for g in word))
                add_into(residue, image.terms, -coeff)
        checks.append(RelationCheck((i, j), not residue, _poly(residue)))
    return RelationReport(tuple(checks))
