import random
from fractions import Fraction as F

import pytest

from skewsmooth.algebra import CheckReport, Ordering, PairRule, Presentation
from skewsmooth.catalog import from_display, three_dim_class
from skewsmooth.endos import (AffineEndo, _univariate_image, apply_endo, commute, compose,
                              identity_endo, invert, noncommuting_pairs, respects_relations)
from skewsmooth.errors import ZeroSlopeError
from skewsmooth.scalars import QQ, PrimeField

from helpers import (random_nonzero_rational, random_poly, random_rational,
                     random_skew_presentation)


def endo(*pairs):
    return AffineEndo(tuple(F(a) for a, _ in pairs), tuple(F(b) for _, b in pairs))


class TestApply:
    def test_identity(self):
        rng = random.Random(1)
        pres = random_skew_presentation(rng, 3)
        p = random_poly(pres, rng)
        assert apply_endo(identity_endo(QQ, 3), p, pres) == p

    def test_tabulated_scaling(self):
        # nu_y on x scales by gamma = 5
        pres = from_display(QQ, 2, 3, 5)
        nu_y = endo((5, 0), (1, 0), (F(1, 2), 0))
        assert apply_endo(nu_y, pres.gen(1), pres) == pres.mono((1, 0, 0), 5)

    def test_binomial_expansion(self):
        pres = Presentation.commutative(QQ, 1)
        e = endo((2, 3))
        got = apply_endo(e, pres.mono((2,)), pres)
        assert got == pres.poly({(2,): 4, (1,): 12, (0,): 9})

    def test_fixes_scalars(self):
        pres = Presentation.commutative(QQ, 2)
        e = endo((2, 1), (3, 5))
        assert apply_endo(e, pres.scalar(F(7, 2)), pres) == pres.scalar(F(7, 2))


class TestApplyInCharacteristicP:
    def test_frobenius_leaves_two_terms(self):
        field = PrimeField(5)
        pres = Presentation.commutative(field, 1)
        got = apply_endo(AffineEndo((field.one,), (field.one,)), pres.mono((5,)), pres)
        assert got.terms == {(5,): field.one, (0,): field.one}
        assert _univariate_image(field.one, field.one, 5) == {5: field.one, 0: field.one}

    def test_seventh_powers(self):
        field = PrimeField(7)
        pres = Presentation.commutative(field, 2)
        rng = random.Random(5)
        for _ in range(20):
            s, t = field.random_nonzero(rng), field.random_nonzero(rng)
            b, c = field.random(rng), field.random(rng)
            got = apply_endo(AffineEndo((s, t), (b, c)), pres.mono((7, 7)), pres)
            want = pres.poly({(7, 7): s ** 7 * t ** 7, (7, 0): s ** 7 * c ** 7,
                              (0, 7): b ** 7 * t ** 7, (0, 0): b ** 7 * c ** 7})
            assert got == want
            assert all(got.terms.values())
            uni = _univariate_image(s, b, 7)
            assert uni == ({7: s ** 7, 0: b ** 7} if b else {7: s ** 7})


class TestCompose:
    def test_identity_neutral(self):
        e = endo((2, 3), (F(1, 2), -1))
        assert compose(identity_endo(QQ, 2), e) == e

    def test_pinned_formula(self):
        e1 = endo((2, 0))
        e2 = endo((1, 1))
        assert compose(e1, e2) == endo((2, 2))

    def test_reference_family_commutes(self):
        # (alpha, beta, gamma, a, d) = (2, 3, 5, 0, 0)
        nu_x = endo((F(1, 3), 0), (F(1, 5), 0), (3, 0))
        nu_y = endo((5, 0), (1, 0), (F(1, 2), 0))
        assert compose(nu_x, nu_y) == compose(nu_y, nu_x)

    def test_compose_then_apply(self):
        rng = random.Random(3)
        pres = Presentation.commutative(QQ, 2)
        for _ in range(15):
            e1 = AffineEndo((QQ.random_nonzero(rng), QQ.random_nonzero(rng)),
                            (QQ.random(rng), QQ.random(rng)))
            e2 = AffineEndo((QQ.random_nonzero(rng), QQ.random_nonzero(rng)),
                            (QQ.random(rng), QQ.random(rng)))
            p = random_poly(pres, rng)
            assert apply_endo(compose(e1, e2), p, pres) == \
                apply_endo(e2, apply_endo(e1, p, pres), pres)


class TestCommute:
    def test_shift_incompatibility(self):
        assert not commute(endo((1, 1)), endo((2, 0)))

    def test_scaling_pair(self):
        assert commute(endo((2, 0)), endo((3, 0)))

    def test_matching_shifts(self):
        # b2 (a1 - 1) == b1 (a2 - 1)
        assert commute(endo((3, 2)), endo((5, 4)))

    def test_noncommuting_pairs_of_a_family(self):
        # x -> 2x and x -> 3x commute; no other pair does
        family = [endo((2, 0)), endo((3, 0)), endo((1, 1)), endo((3, 2))]
        assert list(noncommuting_pairs(family)) == [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        assert list(noncommuting_pairs(family[:2])) == []


def test_invert_roundtrip():
    rng = random.Random(11)
    for _ in range(20):
        e = AffineEndo((QQ.random_nonzero(rng), QQ.random_nonzero(rng)),
                       (QQ.random(rng), QQ.random(rng)))
        assert compose(e, invert(e)) == identity_endo(QQ, 2)
        assert compose(invert(e), e) == identity_endo(QQ, 2)


def test_zero_slope_rejected():
    with pytest.raises(ZeroSlopeError):
        AffineEndo((F(0),), (F(1),))


class TestRespectsRelations:
    def test_identity_passes_everywhere(self):
        rng = random.Random(2)
        pres = random_skew_presentation(rng, 3)
        assert respects_relations(identity_endo(QQ, 3), pres).all_pass

    def test_reference_twist_passes(self):
        # case with d = a = 0, alpha=2, beta=3, gamma=5, b=7 needs alpha=gamma
        # for a full family, but nu_x alone respects all three relations.
        pres = from_display(QQ, 2, 3, 5, mu={0: 7})
        nu_x = endo((F(1, 3), 0), (F(1, 5), 0), (3, 0))
        assert respects_relations(nu_x, pres).all_pass

    def test_forced_family_fails_on_5e(self):
        # yz - zy = z (a = 1), zx - xz = x, xy - yx = 0: the forced images
        # nu_x(z) = z + 1, nu_x(y) = y break the (y, z) relation exactly by a.
        pres = three_dim_class("5e", a=1)
        nu_x = AffineEndo((F(1), F(1), F(1)), (F(0), F(0), F(1)))
        report = respects_relations(nu_x, pres)
        assert not report.all_pass
        assert [f.pair for f in report.failures()] == [(2, 3)]
        assert report.failures()[0].residue == pres.scalar(-1)

    def test_residue_is_the_term_by_term_difference(self):
        """A descending presentation with a zero quad coefficient, a zero tail
        coefficient, a constant and a degree-two tail word through a central
        generator: each residue is endo(x_i x_j - quad x_j x_i - tail), summed
        with polynomial arithmetic, and stores no zero coefficient."""
        pres = Presentation(QQ, 4, Ordering.DESCENDING, {
            (1, 2): PairRule(QQ.zero, ((QQ.coerce(2), (2,)), (QQ.zero, (4, 1)),
                                       (QQ.coerce(-3), ()))),
            (1, 3): PairRule(QQ.coerce(2), ((QQ.one, (4, 3)),))}, central={4})
        rng = random.Random(7)
        for _ in range(20):
            nu = AffineEndo(tuple(random_nonzero_rational(rng) for _ in range(4)),
                            tuple(random_rational(rng) for _ in range(4)))
            images = {g: nu.image_poly(pres, g) for g in range(1, 5)}
            for check in respects_relations(nu, pres).checks:
                i, j = check.pair
                rule = pres.pairs[(i, j)]
                expected = pres.multiply(images[i], images[j]) - \
                    pres.multiply(images[j], images[i]).scale(rule.quad)
                for coeff, word in rule.tail:
                    expected = expected - pres.product(*(images[g] for g in word)).scale(coeff)
                assert check.residue == expected and all(check.residue.terms.values())
                assert check.passed is (not expected)

    def test_overlap_and_relation_checks_share_one_report_type(self):
        """Both per-item checks return ``algebra.CheckReport``, whose verdict
        and failures read each item's ``passed``."""
        pres = three_dim_class("5e", a=1)
        nu_x = AffineEndo((F(1), F(1), F(1)), (F(0), F(0), F(1)))
        overlaps, relations = pres.check_pbw_overlaps(), respects_relations(nu_x, pres)
        assert type(overlaps) is type(relations) is CheckReport
        for report in (overlaps, relations):
            assert not report.all_pass
            assert report.failures() == [c for c in report.checks if not c.passed] != []
        assert CheckReport(()).all_pass and CheckReport(()).failures() == []

    def test_algebra_map_property(self):
        pres = from_display(QQ, 2, 3, 5)
        nu_z = endo((F(1, 3), 0), (2, 0), (3, 0))
        assert respects_relations(nu_z, pres).all_pass
        rng = random.Random(4)
        for _ in range(15):
            p = random_poly(pres, rng)
            q = random_poly(pres, rng)
            assert apply_endo(nu_z, pres.multiply(p, q), pres) == \
                pres.multiply(apply_endo(nu_z, p, pres), apply_endo(nu_z, q, pres))
