import ast
import pathlib
import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewsmooth
from skewsmooth.algebra import (NcPoly, Ordering, PairRule, Presentation,
                                degree_truncation, relabel)
from skewsmooth.catalog import from_display
from skewsmooth.errors import MismatchedArityError
from skewsmooth.scalars import QQ, PrimeField

from helpers import (naive_normal_form, naive_tail_vector, random_poly,
                     random_skew_presentation, random_word)


def two_gen(a, b=0, c=0, e=0):
    return Presentation.skew(QQ, 2, {(1, 2): (a, {1: b, 2: c}, e)})


class TestNormalForm:
    def test_commutative_swap(self):
        pres = two_gen(1)
        assert pres.normal_form((2, 1)) == pres.mono((1, 1))

    def test_single_rewrite_with_coefficient(self):
        pres = two_gen(2)
        assert pres.normal_form((2, 1)) == pres.mono((1, 1), F(1, 2))

    def test_tailed_word_matches_oracle(self):
        pres = two_gen(3, b=1, c=2, e=5)
        word = (2, 2, 1)
        expected = naive_normal_form(pres, word)
        assert pres.normal_form(word).terms == expected

    def test_arity_mismatch(self):
        pres = two_gen(1)
        with pytest.raises(MismatchedArityError):
            pres.normal_form((1, 3))

    def test_idempotent_on_normal_words(self):
        pres = two_gen(3, b=1, e=5)
        p = pres.normal_form((2, 1, 2))
        rebuilt = NcPoly.zero()
        for m, c in p.terms.items():
            rebuilt = rebuilt + pres.normal_form(pres.monomial_word(m)).scale(c)
        assert rebuilt == p


class TestMultiply:
    def test_ordered_product(self):
        pres = two_gen(1)
        assert pres.multiply(pres.gen(1), pres.gen(2)) == pres.mono((1, 1))

    def test_swap_product(self):
        pres = two_gen(2)
        assert pres.multiply(pres.gen(2), pres.gen(1)) == pres.mono((1, 1), F(1, 2))

    def test_affine_example(self):
        pres = two_gen(3, e=5)
        p = pres.gen(2) + pres.one()
        got = pres.multiply(p, pres.gen(1))
        expected = pres.poly({(1, 1): F(1, 3), (0, 0): F(-5, 3), (1, 0): 1})
        assert got == expected

    def test_one_is_neutral(self):
        rng = random.Random(5)
        pres = random_skew_presentation(rng, 3)
        p = random_poly(pres, rng)
        assert pres.multiply(pres.one(), p) == p
        assert pres.multiply(p, pres.one()) == p

    @pytest.mark.parametrize("bad", [(1, 0, 1, 5), (1, 0), (0, -1, 2)])
    def test_arity_mismatch_in_either_factor(self, bad):
        pres = from_display(QQ, 2, 3, 5)
        wrong = NcPoly({bad: F(1)})
        with pytest.raises(MismatchedArityError):
            pres.multiply(pres.gen(1), wrong)
        with pytest.raises(MismatchedArityError):
            pres.multiply(wrong, pres.gen(1))
        with pytest.raises(MismatchedArityError):
            pres.poly({bad: 1})


class TestOverlaps:
    def test_commutative_all_pass(self):
        pres = Presentation.commutative(QQ, 4)
        report = pres.check_pbw_overlaps()
        assert report.all_pass
        assert len(report.checks) == 4

    def test_two_generators_trivial(self):
        assert two_gen(2).check_pbw_overlaps().checks == ()

    def test_quasi_commutative_instance_passes(self):
        # distinct coefficients, homogeneous relations
        pres = from_display(QQ, 2, 3, 5)
        assert pres.check_pbw_overlaps().all_pass

    def test_constant_with_mismatched_coefficients_fails(self):
        # yz - 2zy = 0, zx - 3xz = 7, xy - 5yx = 0: the two reduction paths of
        # z y x differ by (1/alpha - 1/gamma) * 7 * y, so this is not a PBW
        # presentation even though every pair rule is invertible.
        pres = from_display(QQ, 2, 3, 5, mu={0: 7})
        report = pres.check_pbw_overlaps()
        assert not report.all_pass
        disc = report.checks[0].discrepancy
        assert disc == pres.poly({(0, 1, 0): (F(1, 2) - F(1, 5)) * 7})

    def test_adversarial_tail_fails_with_oracle_confirmation(self):
        pres = from_display(QQ, 2, 3, 5)
        broken = Presentation.skew(QQ, 3, {
            (1, 2): (5, {}, 0),
            (1, 3): (F(1, 3), {2: 1}, 0),     # tail on the third generator y
            (2, 3): (2, {}, 0),
        })
        report = broken.check_pbw_overlaps()
        assert not report.all_pass
        check = report.checks[0]
        # oracle: reduce both first steps of z y x independently
        word = (3, 2, 1)
        left_first = []
        rule = broken.pairs[(2, 3)]
        left_first.append((QQ.one / rule.quad, (2, 3, 1)))
        right_first = []
        rule2 = broken.pairs[(1, 2)]
        right_first.append((QQ.one / rule2.quad, (3, 1, 2)))
        pa = naive_normal_form(broken, left_first)
        pb = naive_normal_form(broken, right_first)
        diff = dict(pa)
        for m, c in pb.items():
            s = diff.get(m, F(0)) - c
            if s:
                diff[m] = s
            else:
                diff.pop(m, None)
        assert check.discrepancy.terms == diff
        assert diff  # nonzero

    def test_pbw_holds_when_quad_coefficients_match(self):
        # same shape as the failing case but with alpha = gamma
        pres = from_display(QQ, 2, 3, 2, mu={0: 7})
        assert pres.check_pbw_overlaps().all_pass


class TestTruncation:
    def test_drops_high_degree(self):
        pres = two_gen(1)
        p = pres.poly({(2, 0): 1, (0, 1): 1})
        assert degree_truncation(p, 1) == pres.mono((0, 1))

    def test_noop_when_degree_small(self):
        pres = two_gen(1)
        p = pres.poly({(1, 1): 3, (0, 0): -4})
        assert degree_truncation(p, 2) == p

    def test_mixed(self):
        pres = Presentation.commutative(QQ, 3)
        p = pres.poly({(1, 1, 1): 3, (1, 0, 0): 1, (0, 0, 0): -4})
        assert degree_truncation(p, 2) == pres.poly({(1, 0, 0): 1, (0, 0, 0): -4})

    def test_zero_degree_is_minus_one(self):
        assert NcPoly.zero().degree() == -1


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 30), st.integers(min_value=2, max_value=4),
       st.integers(min_value=0, max_value=6))
def test_normal_form_idempotence(seed, n, word_len):
    rng = random.Random(seed)
    pres = random_skew_presentation(rng, n)
    word = tuple(rng.randint(1, n) for _ in range(word_len))
    p = pres.normal_form(word)
    rebuilt = NcPoly.zero()
    for m, c in p.terms.items():
        rebuilt = rebuilt + pres.normal_form(pres.monomial_word(m)).scale(c)
    assert rebuilt == p


def test_oracle_equivalence_bulk():
    rng = random.Random(20240)
    for _ in range(120):
        pres = random_skew_presentation(rng, 3)
        word = random_word(rng, 3, 5)
        assert pres.normal_form(word).terms == naive_normal_form(pres, word)


def test_associativity_on_pbw_presentations():
    rng = random.Random(7)
    pres = from_display(QQ, 2, 3, 5)           # homogeneous, PBW
    assert pres.check_pbw_overlaps().all_pass
    for _ in range(25):
        p = random_poly(pres, rng)
        q = random_poly(pres, rng)
        r = random_poly(pres, rng)
        assert pres.multiply(pres.multiply(p, q), r) == pres.multiply(p, pres.multiply(q, r))


def test_central_generators_commute():
    rng = random.Random(9)
    pres = Presentation(QQ, 3, Ordering.DESCENDING, {}, central={3})
    for _ in range(20):
        p = random_poly(pres, rng)
        g = pres.gen(3)
        assert pres.multiply(g, p) == pres.multiply(p, g)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 30), st.integers(min_value=2, max_value=4),
       st.sampled_from(list(Ordering)))
def test_every_relation_reads_in_either_orientation(seed, n, ordering):
    """Pair (j, i) reads as the stored relation of (i, j) solved for x_j x_i
    by hand, x_j x_i - (1/a) x_i x_j = -tail/a; a presentation built from
    those reversed relations is the same one, and so is a relabelling
    undone, which moves each relation with its letters."""
    rng = random.Random(seed)
    pres = random_skew_presentation(rng, n)     # nonzero quads, linear tails
    if ordering is Ordering.DESCENDING:
        pres = Presentation(QQ, n, ordering, pres.pairs)
    reversed_rules, reversed_spag = {}, {}
    for i, j in combinations(range(1, n + 1), 2):
        inv = 1 / pres.pairs[(i, j)].quad
        vec, e = naive_tail_vector(pres, i, j)
        back = [-(v * inv) for v in vec]
        assert pres.a(j, i) == inv
        assert (pres.b(j, i), pres.c(j, i), pres.e(j, i)) == (back[j - 1], back[i - 1], -(e * inv))
        assert pres.tail_vector(j, i) == (back, -(e * inv))
        reversed_rules[(j, i)] = PairRule(inv, tuple(
            (-(c * inv), word) for c, word in pres.pairs[(i, j)].tail))
        reversed_spag[(j, i)] = (inv, dict(enumerate(back, start=1)), -(e * inv))
    assert Presentation(QQ, n, ordering, reversed_rules) == pres
    if ordering is Ordering.ASCENDING:
        assert Presentation.skew(QQ, n, reversed_spag) == pres
    perm = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
    moved = relabel(pres, perm, ordering)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                vec, e = pres.tail_vector(i, j)
                assert moved.a(perm[i], perm[j]) == pres.a(i, j)
                assert moved.tail_vector(perm[i], perm[j]) == \
                    ([vec[g - 1] for g in sorted(perm, key=perm.get)], e)
    assert relabel(moved, {v: g for g, v in perm.items()}, ordering) == pres


def test_relabel_reverses_convention():
    # a descending quasi-commutative presentation relabelled to ascending
    pres = Presentation(QQ, 3, Ordering.DESCENDING, {
        (1, 2): PairRule(F(1, 2), ()),
        (1, 3): PairRule(F(3, 5), ()),
        (2, 3): PairRule(F(4, 1), ()),
    })
    flipped = relabel(pres, {1: 3, 2: 2, 3: 1}, Ordering.ASCENDING)
    assert flipped.a(1, 2) == F(1, 4)
    assert flipped.a(1, 3) == F(5, 3)
    assert flipped.a(2, 3) == F(2, 1)


def test_scale_by_a_multiple_of_p_stores_no_zero():
    """Over F_5 the plain int 5 is zero, so scaling by it, or by 10, gives
    the zero polynomial; an int that p does not divide scales as the field
    element would."""
    x1 = Presentation.commutative(PrimeField(5), 2).gen(1)
    for c in (5, 10, -5):
        scaled = x1.scale(c)
        assert not scaled and scaled == x1.scale(0) and scaled.degree() == -1
    assert x1.scale(7) == x1.scale(PrimeField(5).coerce(2))
    assert x1.scale(7).terms == {(1, 0): PrimeField(5).coerce(2)}


def test_relabel_moves_generator_names():
    pres = Presentation.skew(QQ, 3, {(1, 2): (2, {1: 1}, 0), (2, 3): (3, {}, 5)},
                             names=("x", "y", "z"))
    moved = relabel(pres, {1: 2, 2: 3, 3: 1}, Ordering.ASCENDING)
    assert moved.names == ("z", "x", "y")
    # y x, now the word (3, 2), prints as before
    assert moved.format_poly(moved.normal_form((3, 2))) == \
        pres.format_poly(pres.normal_form((2, 1))) == "-1/2*x + 1/2*x*y"


class _PolynomialFills(ast.NodeVisitor):
    """The scopes, as dotted names, that call ``NcPoly.__new__`` or
    ``__new__(NcPoly)``, or assign an attribute ``terms``."""

    def __init__(self, module: str):
        self.scope, self.sites = [module], set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Attribute(self, node):
        if (node.attr == "terms" and isinstance(node.ctx, ast.Store)
                or node.attr == "__new__" and isinstance(node.value, ast.Name)
                and node.value.id == "NcPoly"):
            self.sites.add(".".join(self.scope))
        self.generic_visit(node)

    def visit_Call(self, node):
        func, args = node.func, node.args
        if (isinstance(func, ast.Attribute) and func.attr in ("__new__", "__setattr__")
                or isinstance(func, ast.Name) and func.id == "setattr"):
            if any(isinstance(a, ast.Name) and a.id == "NcPoly"
                   or isinstance(a, ast.Constant) and a.value == "terms" for a in args):
                self.sites.add(".".join(self.scope))
        self.generic_visit(node)


def test_only_the_builder_fills_a_polynomial():
    """A polynomial's term map is set in two places: the checking
    constructor and the builder ``algebra._poly`` for zero-free maps."""
    sites = set()
    for path in sorted(pathlib.Path(skewsmooth.__file__).parent.glob("*.py")):
        visitor = _PolynomialFills(path.stem)
        visitor.visit(ast.parse(path.read_text()))
        sites |= visitor.sites
    assert sites == {"algebra.NcPoly.__init__", "algebra._poly"}
