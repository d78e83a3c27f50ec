"""Graded differential calculus generated by a commuting twist family.

Degree-k forms are free right modules on increasing index words dx_S with
polynomial coefficients on the right.  The left action twists coefficients
through the family (a dx_i = dx_i nu_i(a)); the wedge sorts basis words with
the scalar rule dx_j ^ dx_i = -(1/a_ij) dx_i ^ dx_j for i < j and kills
repeated letters; the derivation acts on coefficients through the generator-
wise ladder sums and extends to higher degree with constant basis words.
"""

from __future__ import annotations

import random
from functools import cached_property
from itertools import combinations, combinations_with_replacement
from operator import sub
from typing import NamedTuple

from . import linalg
from .algebra import NcPoly, Ordering, Presentation, _poly
from .endos import AffineEndo, apply_endo, compose, identity_endo, invert, noncommuting_pairs
from .errors import IndexRangeError, MismatchedArityError, NonDiagonalTailError
from .frozen import Frozen

__all__ = [
    "CalculusContext",
    "DiffForm",
    "kernel_of_d_bounded",
    "kernel_is_scalars",
    "d_squared_failures",
    "complementary_pairs",
    "IntegralFormCoefficients",
    "integral_form_coefficients",
    "IntegrabilityReport",
    "verify_integrability",
    "random_form",
]


class DiffForm(Frozen):
    """Degree-k form: map from strictly increasing k-index words to right
    coefficients; zero components are never stored.  Immutable: assigning
    an attribute raises."""

    __slots__ = _fields = ("degree", "components")

    def __init__(self, degree: int, components: dict):
        components = {s: p for s, p in components.items() if p}
        for s in components:
            if len(s) != degree or list(s) != sorted(set(s)):
                raise MismatchedArityError(f"bad index word {s} for degree {degree}")
        self._assign(degree, components)

    @classmethod
    def _trusted(cls, degree: int, components: dict) -> "DiffForm":
        """The form on ``components`` as given, without the check or the copy
        of the public constructor: for the builders below, whose words are
        increasing of length ``degree`` and whose values are never zero."""
        form = object.__new__(cls)
        # Two slot sets, not ``_assign``: this is the hottest constructor, and
        # the call and loop of ``_assign`` cost about 0.5 % of a calculus job.
        object.__setattr__(form, "degree", degree)
        object.__setattr__(form, "components", components)
        return form

    def __bool__(self) -> bool:
        return bool(self.components)

    __hash__ = None  # the components are a dict

    def __add__(self, other: "DiffForm") -> "DiffForm":
        if self.degree != other.degree:
            raise MismatchedArityError("cannot add forms of different degree")
        out = dict(self.components)
        linalg.add_into(out, other.components)
        return DiffForm._trusted(self.degree, out)

    def __neg__(self) -> "DiffForm":
        return DiffForm._trusted(self.degree, {s: -p for s, p in self.components.items()})

    def __sub__(self, other: "DiffForm") -> "DiffForm":
        return self + (-other)


class CalculusContext:
    """A presentation together with one twist per generator.

    The family must commute pairwise; that makes composite twists along index
    sets order-independent and the volume twist well-defined.
    """

    def __init__(self, pres: Presentation, nus):
        if pres.ordering is not Ordering.ASCENDING:
            raise NonDiagonalTailError("the calculus uses ascending presentations")
        nus = tuple(nus)
        if len(nus) != pres.n:
            raise MismatchedArityError("need exactly one twist per generator")
        for i, j in noncommuting_pairs(nus):
            raise MismatchedArityError(f"twists for x_{i} and x_{j} do not commute")
        self.pres = pres
        self.nus = nus
        # a single index is its own twist, which shares that twist's
        # power_image memo with ladder, partial and left_act
        self._composite_cache: dict = {(k,): nu for k, nu in enumerate(nus, 1)}
        self._composite_cache[()] = identity_endo(pres.field, pres.n)
        self._ladders = [[{}] for _ in nus]  # _ladders[i - 1][a] = L_i(a)
        self._sort_cache: dict = {}      # basis word -> basis_sort(word)
        self._monomial_cache: dict = {}  # degree bound -> _monomials(bound)

    @property
    def n(self) -> int:
        return self.pres.n

    def composite(self, indices) -> AffineEndo:
        """The twists of the index set composed in increasing order, cached
        per set: the composite without the largest index k, then ``nus[k - 1]``.
        An index outside 1..n raises."""
        cache = self._composite_cache
        if indices.__class__ is tuple:      # a cached key; a list is unhashable
            got = cache.get(indices)
            if got is not None:
                return got
        key = tuple(sorted(indices))
        got = cache.get(key)
        if got is None:
            if not 1 <= key[0] <= key[-1] <= self.n:
                raise IndexRangeError(f"no composite twist for {key} at n = {self.n}")
            got = cache[key] = compose(self.composite(key[:-1]), self.nus[key[-1] - 1])
        return got

    @property
    def nu_omega(self) -> AffineEndo:
        return self.composite(range(1, self.n + 1))

    @cached_property
    def nu_omega_inverse(self) -> AffineEndo:
        return invert(self.nu_omega)

    @cached_property
    def integral_forms(self) -> "IntegralFormCoefficients":
        return integral_form_coefficients(self)

    # -- form builders -------------------------------------------------------

    def zero_form(self, degree: int) -> DiffForm:
        return DiffForm(degree, {})

    def dx(self, i: int) -> DiffForm:
        if not 1 <= i <= self.n:
            raise IndexRangeError(f"no differential dx_{i} for n = {self.n}")
        return DiffForm(1, {(i,): self.pres.one()})

    def volume_form(self) -> DiffForm:
        return DiffForm(self.n, {tuple(range(1, self.n + 1)): self.pres.one()})

    def pi_omega(self, f: DiffForm) -> NcPoly:
        if f.degree != self.n:
            raise MismatchedArityError("coefficient extraction needs a top form")
        # dx_1 ^ ... ^ dx_n is the only basis word of a top form
        for coeff in f.components.values():
            return coeff
        return NcPoly()

    # -- module structure ----------------------------------------------------

    def right_mul(self, f: DiffForm, p: NcPoly) -> DiffForm:
        out = {}
        for s, q in f.components.items():
            product = self.pres.multiply(q, p)
            if product:
                out[s] = product
        return DiffForm._trusted(f.degree, out)

    def left_act(self, a: NcPoly, f: DiffForm) -> DiffForm:
        """a . (dx_S q) = dx_S . nu_S(a) q with nu_S the composite twist."""
        out = {}
        for s, q in f.components.items():
            product = self.pres.multiply(apply_endo(self.composite(s), a, self.pres), q)
            if product:
                out[s] = product
        return DiffForm._trusted(f.degree, out)

    def basis_sort(self, word):
        """Sort a basis word into increasing order.  The scalar is the product
        of -(1/a_ij) over the inverted pairs, i < j with dx_j before dx_i;
        None for repeated letters.  Cached per word."""
        word = tuple(word)
        if word in self._sort_cache:
            return self._sort_cache[word]
        factor = self.pres.field.one
        for s, u in enumerate(word):
            for v in word[s + 1:]:
                if u > v:
                    factor = -(factor / self.pres.a(v, u))
                elif u == v:
                    self._sort_cache[word] = None
                    return None
        got = self._sort_cache[word] = (factor, tuple(sorted(word)))
        return got

    def _monomials(self, max_degree: int) -> tuple:
        """The exponent vectors of total degree <= bound in (degree, exponents)
        order, built once per bound; a bound below 1 raises."""
        got = self._monomial_cache.get(max_degree)
        if got is None:
            if max_degree < 1:
                raise MismatchedArityError("the degree bound must be at least 1")
            got = self._monomial_cache[max_degree] = tuple(_monomials_up_to(self.n, max_degree))
        return got

    def wedge(self, f: DiffForm, g: DiffForm) -> DiffForm:
        out: dict = {}
        for s, p in f.components.items():
            for t, q in g.components.items():
                sorted_basis = self.basis_sort(s + t)
                if sorted_basis is None:
                    continue
                factor, idx = sorted_basis
                moved = apply_endo(self.composite(t), p, self.pres)
                coeff = self.pres.multiply(moved, q.scale(factor))
                if coeff:
                    linalg.add_into(out, {idx: coeff})
        return DiffForm._trusted(f.degree + g.degree, out)

    # -- the derivation ------------------------------------------------------

    def ladder(self, i: int, power: int) -> dict:
        """L_i(power) = sum_{j=1}^{power} nu_i(x_i)^(j-1) x_i^(power-j) as
        exponent -> coeff.  The list of L_i(a) grows to ``power`` by
        L_i(a) = x_i L_i(a-1) + nu_i(x_i)^(a-1), O(a) field operations each,
        and every sum is built once per context."""
        if not 1 <= i <= self.n or power < 0:
            raise IndexRangeError(f"no ladder sum L_{i}({power}) for n = {self.n}")
        sums = self._ladders[i - 1]
        while len(sums) <= power:
            total = {e + 1: c for e, c in sums[-1].items()}
            linalg.add_into(total, self.nus[i - 1].power_image(i, len(sums) - 1))
            sums.append(total)
        return sums[power]

    def partial(self, i: int, p: NcPoly) -> NcPoly:
        """Coefficient of dx_i in d(p).  Per monomial x^e of p (d is linear over
        the field) it is the twisted prefix nu_i(x^{e<i}), the ladder sum
        L_i(e_i) and the plain tail x^{e>i}; the three live on disjoint
        generators, so no products collide."""
        out: dict = {}
        for m, c in p.terms.items():
            li = m[i - 1]
            if not li:
                continue
            ladder = self.ladder(i, li)
            suffix = m[i:]
            prefix = apply_endo(self.nus[i - 1],
                                self.pres.mono(m[:i - 1] + (0,) * (self.n - i + 1)), self.pres)
            linalg.add_into(out, {e[:i - 1] + (t,) + suffix: v * w
                                  for e, v in prefix.terms.items()
                                  for t, w in ladder.items()}, c)
        return _poly(out)

    def d(self, f) -> DiffForm:
        """The derivation; degree k -> k+1, with d(dx_S) = 0 on basis words.
        A polynomial is taken as a 0-form."""
        if isinstance(f, NcPoly):
            f = DiffForm(0, {(): f})
        sign = self.pres.field.one if f.degree % 2 == 0 else -self.pres.field.one
        out: dict = {}
        for s, p in f.components.items():
            for i in range(1, self.n + 1):
                q = self.partial(i, p)
                if not q:
                    continue
                sorted_basis = self.basis_sort(s + (i,))
                if sorted_basis is None:
                    continue
                factor, idx = sorted_basis
                linalg.add_into(out, {idx: q.scale(factor * sign)})
        return DiffForm._trusted(f.degree + 1, out)


def _monomials_up_to(n: int, max_degree: int) -> list:
    """The exponent vectors of total degree <= bound in (degree, exponents)
    order by stars and bars: per degree, bars c_1 <= ... <= c_(n-1) in
    lexicographic order give x^(c_1, c_2 - c_1, ..., degree - c_(n-1))."""
    if not n:      # no generator: the one monomial is 1
        return [()]
    return [tuple(map(sub, bars + (degree,), (0,) + bars))
            for degree in range(max_degree + 1)
            for bars in combinations_with_replacement(range(degree + 1), n - 1)]


def kernel_of_d_bounded(ctx: CalculusContext, max_degree: int):
    """Exact kernel basis of d on the polynomials of total degree <= bound.

    partial_k(x^e) = nu_k(x^{e<k}) L_k(e_k) x^{e>k} on disjoint generators,
    with nu_k invertible, so ker partial_k = K[x_<k] (x) N_k (x) K[x_>k], N_k
    the null space of x_k^m -> L_k(m); hence ker d = N_1 (x) ... (x) N_n.
    N_k is one univariate elimination on x_k^0 .. x_k^bound, and each of its
    reduced basis vectors is one at its top exponent, its free column.  The
    products whose tops t sum to at most the bound span the bounded kernel;
    each is one at x^t and zero at every other such monomial, so it is the
    reduced null vector of d itself, listed in (degree, exponents) order of x^t.
    """
    field = ctx.pres.field
    factors = []    # per generator: top exponent -> null vector {exponent: coeff}
    for k in range(1, ctx.n + 1):
        rows = [{} for _ in range(max_degree)]    # row r: coefficient of x_k^r
        for m in range(1, max_degree + 1):
            for r, c in ctx.ladder(k, m).items():
                rows[r][m] = c
        null = linalg.sparse_nullspace(field, rows, max_degree + 1)
        factors.append({max(vec): vec for vec in null})
    basis = []
    for top in ctx._monomials(max_degree):     # a bound below 1 raises here
        if all(t in factor for t, factor in zip(top, factors)):
            terms = {(): field.one}
            for t, factor in zip(top, factors):
                terms = {e + (s,): c * v for e, c in terms.items()
                         for s, v in factor[t].items()}
            basis.append(_poly(terms))
    return basis


def d_squared_failures(ctx: CalculusContext, max_degree: int) -> list:
    """The monomials of total degree <= bound whose d(d(m)) is not zero, in
    (degree, exponents) order.

    On a 1-form, d(dx_j q) = sum_{i != j} s_ji dx_{ij} partial_i(q), where
    s_ji is the degree-1 sign times the scalar of sorting (j, i).  The factors
    of partial_i(x^e) = nu_i(x^{e<i}) L_i(e_i) x^{e>i} live on disjoint
    generators and the twists commute, so for i < j the dx_i ^ dx_j
    coefficient of d(d(x^e)) is

        nu_i nu_j(x^{e<i}) U_ij(e_i) nu_j(x^{i<g<j}) L_j(e_j) x^{e>j},
        U_ij(a) = s_ji partial_i(nu_j(x_i^a)) + s_ij nu_j(L_i(a)),

    with L_i = ``ladder(i, .)``, s_ji = 1/a_ij and s_ij = -1.  With sigma_ji
    the slope of nu_j on x_i,

        U_ij(a) = kappa_ij nu_j(L_i(a)),  kappa_ij = sigma_ji / a_ij - 1,

    since partial_i nu_j = sigma_ji nu_j partial_i on K[x_i] (README,
    "Command line").  Twists have nonzero slopes and are invertible, so the
    coefficient vanishes exactly when kappa_ij = 0, L_i(e_i) = 0 or
    L_j(e_j) = 0: one slope test per pair (sigma_ji != a_ij) and the nonzero
    ladders decide d^2, and no form or matrix is built.  A family that
    ``decide`` certifies has sigma_ji = a_ij, so the list is empty.
    """
    powers = range(1, max_degree + 1)
    live = [{b for b in powers if ctx.ladder(j, b)} for j in range(1, ctx.n + 1)]
    # (i - 1, j - 1) with kappa_ij != 0, that is sigma_ji != a_ij, and both
    # ladder sets nonempty
    pairs = [(i - 1, j - 1) for i, j in combinations(range(1, ctx.n + 1), 2)
             if ctx.nus[j - 1].slopes[i - 1] != ctx.pres.a(i, j)
             and live[i - 1] and live[j - 1]]
    return [m for m in ctx._monomials(max_degree)   # a bound below 1 raises here
            if any(m[i] in live[i] and m[j] in live[j] for i, j in pairs)]


def kernel_is_scalars(basis, n: int) -> bool:
    """A kernel basis from ``kernel_of_d_bounded`` spans exactly the scalars."""
    return len(basis) == 1 and set(basis[0].terms) == {(0,) * n}


# -- integral-form coefficients -------------------------------------------------

class ClosedFormCheck(NamedTuple):
    degree: int
    subset: tuple
    closed_a: object
    closed_abar: object
    product_normalizes: bool
    matches_constructive: bool


class IntegralFormCoefficients(NamedTuple):
    """Scalars A[(k, S)] and Abar[(k, T)] such that the barred complement form
    wedge the unbarred form recovers the volume form at every level, and
    those forms: ``pairs[k]`` holds (barred(n - k, C), unbarred(k, S)) for
    each k-subset S with complement C, in ``complementary_pairs`` order."""

    a: dict
    abar: dict
    closed_form_checks: tuple
    pairs: dict


def _closed_form_products(ctx: CalculusContext, subset, complement):
    """The two-branch closed-form double products with their stated index
    ranges.  With C the complement:

    - S containing 1: A = prod_{u in C} prod_{t<u} -a_tu and
      Abar = prod_{s<t in C} -(1/a_st);
    - otherwise: A = prod_{s<t in S} -(1/a_st) and
      Abar = prod_{u in S} prod_{u<t<=max C} -a_ut.

    Every inner product is a ``basis_sort`` scalar: for increasing X,
    prod_{s<t in X} -(1/a_st) is that of X reversed, prod_{t<u} -a_tu one
    over that of (u, 1, ..., u-1) and prod_{u<t<=m} -a_ut one over that of
    (u+1, ..., m, u).
    """
    one, sort = ctx.pres.field.one, ctx.basis_sort
    if subset[:1] == (1,):
        a_cf = one
        for u in complement:
            a_cf = a_cf / sort((u,) + tuple(range(1, u)))[0]
        return a_cf, sort(complement[::-1])[0]
    abar_cf = one
    for u in subset:
        abar_cf = abar_cf / sort(tuple(range(u + 1, complement[-1] + 1)) + (u,))[0]
    return sort(subset[::-1])[0], abar_cf


def complementary_pairs(n: int, k: int):
    """Each k-subset of 1..n in lexicographic order, with its complement."""
    for subset in combinations(range(1, n + 1), k):
        yield subset, tuple(g for g in range(1, n + 1) if g not in subset)


def integral_form_coefficients(ctx: CalculusContext) -> IntegralFormCoefficients:
    """Constructive normalization: coefficient one on the lower half of the
    level range, the complementary partner forced by wedge-sorting so that
    barred(n-k, complement) ^ unbarred(k, S) is exactly the volume form.

    One signed sort per index set S: with s the scalar of sorting
    complement + S, one of A[(k, S)] and Abar[(n-k, complement)] is 1 and the
    other 1/s (A when 2k > n).  The closed-form double products are evaluated
    as a cross-check only; mismatches are recorded, never patched in.
    """
    one = ctx.pres.field.one
    n = ctx.n
    a: dict = {}
    abar: dict = {}
    checks = []
    pairs: dict = {}
    for k in range(1, n):
        level = []
        for subset, complement in complementary_pairs(n, k):
            sign, _ = ctx.basis_sort(complement + subset)
            a_s, abar_c = (one, one / sign) if 2 * k <= n else (one / sign, one)
            a[(k, subset)], abar[(n - k, complement)] = a_s, abar_c
            a_cf, abar_cf = _closed_form_products(ctx, subset, complement)
            checks.append(ClosedFormCheck(
                k, subset, a_cf, abar_cf, a_cf * abar_cf * sign == one,
                a_cf == a_s and abar_cf == abar_c))
            # nonzero scalars on increasing index sets: the forms pass the check
            level.append((DiffForm._trusted(n - k, {complement: ctx.pres.scalar(abar_c)}),
                          DiffForm._trusted(k, {subset: ctx.pres.scalar(a_s)})))
        pairs[k] = tuple(level)
    return IntegralFormCoefficients(a, abar, tuple(checks), pairs)


class IntegrabilityReport(NamedTuple):
    max_degree: int
    samples: int
    failures: tuple

    @property
    def all_pass(self) -> bool:
        return not self.failures


def random_form(ctx: CalculusContext, degree: int, coeff_degree: int,
                rng: random.Random) -> DiffForm:
    """Up to two components, each a sum of up to two random terms of degree
    at most ``coeff_degree``."""
    field = ctx.pres.field
    components: dict = {}
    subsets = list(combinations(range(1, ctx.n + 1), degree))
    for subset in rng.sample(subsets, k=min(2, len(subsets))):
        poly: dict = {}
        for _ in range(2):
            exps = [0] * ctx.n
            budget = rng.randint(0, coeff_degree)
            for _ in range(budget):
                exps[rng.randrange(ctx.n)] += 1
            c = field.random(rng, 5)
            if c:
                poly[tuple(exps)] = poly.get(tuple(exps), field.zero) + c
        p = NcPoly(poly)
        if p:
            components[subset] = p
    return DiffForm._trusted(degree, components)


def verify_integrability(ctx: CalculusContext, max_degree: int, samples: int,
                         seed: int = 0) -> IntegrabilityReport:
    """Both reconstruction identities for every middle degree on random forms:

        w' = sum_S unbarred_S^k . pi(barred^(n-k) ^ w')
        w' = sum_T nu_omega^{-1}(pi(w' ^ unbarred^(n-k))) . barred_T^k

    evaluated exactly; failures carry (degree, sample, side).
    """
    # with no sample nothing is checked, yet the report would pass
    if max_degree < 0 or samples < 1:
        raise IndexRangeError(f"the integrability checks need max_degree >= 0 and "
                              f"samples >= 1, not {max_degree} and {samples}")
    pairs = ctx.integral_forms.pairs
    rng = random.Random(seed)
    n = ctx.n
    failures = []
    for k in range(1, n):
        for s in range(samples):
            w = random_form(ctx, k, max_degree, rng)
            lhs: dict = {}
            for bar, unb in pairs[k]:
                coeff = ctx.pi_omega(ctx.wedge(bar, w))
                linalg.add_into(lhs, ctx.right_mul(unb, coeff).components)
            if lhs != w.components:
                failures.append((k, s, "right-coefficient side"))
            lhs = {}
            # pairs[n - k] holds (barred(k, T), unbarred(n - k, C)) per T
            for bar, unb in pairs[n - k]:
                coeff = ctx.pi_omega(ctx.wedge(w, unb))
                moved = apply_endo(ctx.nu_omega_inverse, coeff, ctx.pres)
                linalg.add_into(lhs, ctx.left_act(moved, bar).components)
            if lhs != w.components:
                failures.append((k, s, "left-coefficient side"))
    return IntegrabilityReport(max_degree, samples, tuple(failures))
