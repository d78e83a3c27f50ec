"""The "monomial x generator" fold against the independent leftmost oracle,
on PBW and non-PBW presentations, deep words and a low recursion limit."""

import random
import sys
from fractions import Fraction as F
from itertools import combinations_with_replacement

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from skewsmooth.algebra import NcPoly, Ordering, PairRule, Presentation
from skewsmooth.catalog import diffusion_class_instances, three_dim_class
from skewsmooth.diffusion import DiffusionPresentation, DiffusionType, encode_presentation
from skewsmooth.scalars import QQ, PrimeField

from helpers import (naive_normal_form, naive_product, random_nonzero_rational, random_poly,
                     random_rational, random_skew_presentation, random_word)

F_MERSENNE = PrimeField(2 ** 31 - 1)


def random_diffusion(rng: random.Random, dtype: DiffusionType) -> Presentation:
    lambdas = {}
    for i in range(1, 4):
        for j in range(1, 4):
            if i < j:
                lambdas[(i, j)] = random_nonzero_rational(rng, 4)
            elif i > j and rng.random() < 0.7:
                lambdas[(i, j)] = random_rational(rng, 4)
    xs = tuple(random_rational(rng, 3) for _ in range(3)) \
        if dtype is DiffusionType.TYPE1 else ()
    return encode_presentation(DiffusionPresentation(3, dtype, lambdas, xs))


def type2_family(label: str, idx: int) -> Presentation:
    dp = diffusion_class_instances(label)[idx]
    return encode_presentation(DiffusionPresentation(3, DiffusionType.TYPE2, dp.lambdas))


# Presentations that fail the diamond condition: leftmost rewriting is then
# one choice among several, and the fold must make exactly that choice.  The
# type-2 members of the families other than A_I and A_II, except C_II #0 and
# D #1, whose coefficients also satisfy A_II and A_I.
NON_PBW = [lambda: three_dim_class("5e", a=1), lambda: three_dim_class("5e", a=7)] + [
    (lambda label=label, idx=idx: type2_family(label, idx))
    for label in ("B_I", "B_II", "B_III", "B_IV", "C_I", "C_II", "D") for idx in range(3)
    if (label, idx) not in (("C_II", 0), ("D", 1))]


def build(kind: str, rng: random.Random) -> Presentation:
    if kind == "skew":
        return random_skew_presentation(rng, rng.randint(2, 4))
    if kind == "type1":
        return random_diffusion(rng, DiffusionType.TYPE1)
    if kind == "type2":
        return random_diffusion(rng, DiffusionType.TYPE2)
    return NON_PBW[rng.randrange(len(NON_PBW))]()


def lead(pres: Presentation) -> int:
    """The first non-central letter of a normal word."""
    noncentral = [g for g in range(1, pres.n + 1) if g not in pres.central]
    return min(noncentral) if pres.ordering is Ordering.ASCENDING else max(noncentral)


def before(ordering: Ordering, u: int, v: int) -> bool:
    """Whether letter u comes strictly before letter v in a normal word."""
    return u < v if ordering is Ordering.ASCENDING else u > v


def floor(pres: Presentation, g: int) -> int:
    """The furthest letter a rewrite of m . x_g can produce, by the closure
    itself: start at g and move to the furthest non-central tail letter of
    the pairs with both letters at or after the current floor, until no tail
    letter is further."""
    f = g
    while True:
        reached = [t for (i, j), rule in pres.pairs.items()
                   if not before(pres.ordering, i, f) and not before(pres.ordering, j, f)
                   for _, word in rule.tail for t in word
                   if t not in pres.central and before(pres.ordering, t, f)]
        if not reached:
            return f
        f = min(reached) if pres.ordering is Ordering.ASCENDING else max(reached)


def assert_cores_drop_floor_and_central(pres: Presentation):
    floors = {g: floor(pres, g) for g in range(1, pres.n + 1) if g not in pres.central}
    for core, g in pres._memo:
        dropped = [h for h in range(1, pres.n + 1)
                   if h in pres.central or not before(pres.ordering, floors[g], h)]
        assert all(core[h - 1] == 0 for h in dropped), (core, g, floors[g])


def floored_presentation(rng: random.Random) -> Presentation:
    """A random presentation in either order, with central generators, whose
    tail letters mostly stay at or after the earlier letter of their pair, so
    that floors often sit after the lead; one pair in five may reach
    anywhere, which moves floors back along chains of pairs.  Tails may carry
    a constant and a degree-two word with a central letter; most draws are
    not PBW."""
    ordering = rng.choice(list(Ordering))
    ascending = ordering is Ordering.ASCENDING
    n = rng.randint(2, 5)
    central = set(rng.sample(range(1, n + 1), rng.randint(0, n - 2)))
    noncentral = [g for g in range(1, n + 1) if g not in central]
    pairs = {}
    for a in noncentral:
        for b in noncentral:
            if a >= b:
                continue
            first = a if ascending else b
            letters = [t for t in noncentral if t == first or before(ordering, first, t)]
            if rng.random() < 0.2:
                letters = noncentral
            tail = []
            for t in rng.sample(letters, rng.randint(0, len(letters))):
                tail.append((random_nonzero_rational(rng, 3), (t,)))
            if central and rng.random() < 0.4:
                word = sorted((rng.choice(sorted(central)), rng.choice(letters)),
                              reverse=not ascending)
                tail.append((random_nonzero_rational(rng, 3), tuple(word)))
            if rng.random() < 0.4:
                tail.append((random_nonzero_rational(rng, 3), ()))
            quad = random_nonzero_rational(rng, 4) if ascending or rng.random() < 0.8 \
                else QQ.zero
            pairs[(a, b)] = PairRule(quad, tuple(tail))
    return Presentation(QQ, n, ordering, pairs, central=central)


def test_non_pbw_cases_fail_the_diamond():
    for make in NON_PBW:
        assert not make().check_pbw_overlaps().all_pass


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["skew", "type1", "type2", "non-pbw"]),
       st.integers(min_value=0, max_value=2 ** 30))
def test_normal_form_and_multiply_match_the_oracle(kind, seed):
    rng = random.Random(seed)
    pres = build(kind, rng)
    for _ in range(3):
        word = random_word(rng, pres.n, 6)
        assert pres.normal_form(word).terms == naive_normal_form(pres, word)
    # words that begin with a power of the lead generator, so that the
    # monomials folded into carry a nonzero lead exponent
    for _ in range(2):
        word = (lead(pres),) * rng.randint(1, 3) + random_word(rng, pres.n, 5)
        assert pres.normal_form(word).terms == naive_normal_form(pres, word)
    terms = [(random_rational(rng, 3), random_word(rng, pres.n, 4)) for _ in range(3)]
    combined = NcPoly.zero()
    for c, w in terms:
        combined = combined + pres.normal_form(w).scale(c)
    assert combined.terms == naive_normal_form(pres, terms)
    p = random_poly(pres, rng, max_degree=3)
    q = random_poly(pres, rng, max_degree=3)
    assert pres.multiply(p, q).terms == naive_product(pres, p, q)
    assert_cores_drop_floor_and_central(pres)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 30))
def test_floored_presentations_match_the_oracle(seed):
    rng = random.Random(seed)
    pres = floored_presentation(rng)
    first = lead(pres)
    for _ in range(3):
        word = random_word(rng, pres.n, 6)
        assert pres.normal_form(word).terms == naive_normal_form(pres, word)
    # a power of the lead, which every core leaves out, then a word to rewrite
    word = (first,) * rng.randint(1, 2) + (rng.randint(1, pres.n),) + random_word(rng, pres.n, 4)
    assert pres.normal_form(word).terms == naive_normal_form(pres, word)
    p = random_poly(pres, rng, max_degree=3)
    q = random_poly(pres, rng, max_degree=3)
    assert pres.multiply(p, q).terms == naive_product(pres, p, q)
    assert_cores_drop_floor_and_central(pres)


def test_floored_draws_cover_what_the_oracle_test_needs():
    draws = [floored_presentation(random.Random(seed)) for seed in range(40)]
    assert {p.ordering for p in draws} == set(Ordering)
    assert any(p.central and not p.check_pbw_overlaps().all_pass for p in draws)
    assert any(p.check_pbw_overlaps().all_pass for p in draws)
    floors = [(p, g, floor(p, g)) for p in draws
              for g in range(1, p.n + 1) if g not in p.central]
    # floors after the lead, and floors moved back from their generator
    assert any(f != lead(p) for p, g, f in floors)
    assert any(f != g for p, g, f in floors)


def monomials_up_to(n: int, degree: int):
    for d in range(degree + 1):
        for gens in combinations_with_replacement(range(n), d):
            exps = [0] * n
            for g in gens:
                exps[g] += 1
            yield tuple(exps)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kind", ["skew", "type1", "type2", "non-pbw"])
def test_multiply_shares_prefixes_exactly(kind, seed):
    # q holds every monomial of degree <= 3, the constant one included, so
    # most words of q share a prefix with an earlier one
    rng = random.Random(seed)
    pres = build(kind, rng)
    q = pres.poly({m: random_nonzero_rational(rng, 5) for m in monomials_up_to(pres.n, 3)})
    p = random_poly(pres, rng, max_degree=3)
    assert pres.multiply(p, q).terms == naive_product(pres, p, q)
    # a one-term q is folded whole, without the sort and the stack
    single = pres.poly(dict([max(q.terms.items())]))
    assert pres.multiply(p, single).terms == naive_product(pres, p, single)
    assert pres.multiply(p, NcPoly.zero()) == NcPoly.zero()
    assert pres.multiply(NcPoly.zero(), q) == NcPoly.zero()


def test_deep_word_closed_form():
    # tail-free, quad coefficients 2, 3, 5: each of the 3 * 30^2 swaps of
    # x3^30 x2^30 x1^30 divides by one of them
    for field in (QQ, F_MERSENNE):
        pres = Presentation.skew(field, 3, {(1, 2): (2, {}, 0), (1, 3): (3, {}, 0),
                                            (2, 3): (5, {}, 0)})
        form = pres.normal_form((3,) * 30 + (2,) * 30 + (1,) * 30)
        assert form == pres.mono((30, 30, 30), field.coerce(F(1, 30)) ** 900)


def test_deep_word_needs_no_recursion():
    pres = three_dim_class("2b", beta=2, b=1)
    word = (3,) * 20 + (2,) * 20 + (1,) * 20
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        form = pres.normal_form(word)
    finally:
        sys.setrecursionlimit(limit)
    # x3 x1 = beta x1 x3 + ...: each of the 20^2 swaps of x3 past x1 gives beta
    assert form.terms[(20, 20, 20)] == 2 ** 400
    assert form.degree() == 60


def test_memo_keys_leave_out_every_letter_up_to_the_floor():
    # tail-free ASCENDING presentation: the floor of each generator is itself
    pres = Presentation.skew(QQ, 3, {(1, 2): (2, {}, 0), (1, 3): (3, {}, 0),
                                     (2, 3): (5, {}, 0)})
    assert [floor(pres, g) for g in (1, 2, 3)] == [1, 2, 3]
    pres.normal_form((3,) * 20 + (2,) * 20 + (1,) * 20)
    assert_cores_drop_floor_and_central(pres)
    assert len(pres._memo) == 60


def test_memo_keys_with_every_floor_at_the_lead():
    # every pair tail carries x1, so every floor is the lead x1: a core
    # leaves out the exponent of x1 alone
    pres = Presentation.skew(QQ, 3, {(1, 2): (2, {1: 1}, 0), (1, 3): (3, {1: 2}, 0),
                                     (2, 3): (5, {1: 3}, 0)})
    # x3 comes last, so m . x3 is normal and takes no core
    assert [floor(pres, g) for g in (1, 2)] == [1, 1]
    pres.normal_form((3,) * 6 + (2,) * 6 + (1,) * 6)
    assert_cores_drop_floor_and_central(pres)
    assert any(core[1] for core, _ in pres._memo)
    assert len(pres._memo) == 84


def test_memo_is_reused_across_calls():
    pres = three_dim_class("2b", beta=2, b=1)
    word = (3,) * 6 + (2,) * 6 + (1,) * 6
    first = pres.normal_form(word)
    size = len(pres._memo)
    assert size > 0
    assert pres.normal_form(word) == first and len(pres._memo) == size


@pytest.mark.parametrize("kind", ["skew", "type2"])
def test_normal_form_shares_no_memo_entry(kind):
    pres = build(kind, random.Random(5))
    words = [(), (1,), (2, 1), (pres.n,) * 3 + (1,) * 3]
    expected = [naive_normal_form(pres, w) for w in words]
    for word, want in zip(words, expected):
        got = pres.normal_form(word)
        assert got.terms == want
        assert all(got.terms is not entry for entry in pres._memo.values())
        got.terms.clear()       # a shared entry would corrupt the next call
    for word, want in zip(words, expected):
        assert pres.normal_form(word).terms == want


def test_class_5e_discrepancy_is_minus_a_x1():
    for a in (1, 7, F(2, 3)):
        pres = three_dim_class("5e", a=a)
        failures = pres.check_pbw_overlaps().failures()
        assert len(failures) == 1
        assert failures[0].discrepancy == pres.mono((1, 0, 0), -a)
