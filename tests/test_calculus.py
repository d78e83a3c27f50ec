import random
from fractions import Fraction as F
from functools import reduce
from itertools import combinations
from math import comb
from unittest.mock import patch

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from skewsmooth import calculus
from skewsmooth.algebra import NcPoly, Presentation
from skewsmooth.calculus import (CalculusContext, DiffForm, d_squared_failures,
                                 integral_form_coefficients, kernel_is_scalars,
                                 kernel_of_d_bounded, random_form, verify_integrability,
                                 ClosedFormCheck, _monomials_up_to, complementary_pairs)
from skewsmooth.catalog import from_display, three_dim_class, three_dim_grid
from skewsmooth.endos import AffineEndo, apply_endo, commute, compose, identity_endo
from skewsmooth.errors import IndexRangeError, MismatchedArityError
from skewsmooth.scalars import QQ, PrimeField
from skewsmooth.smoothness import SolutionStatus, Verdict, decide, forced_nu

from helpers import (bad_index_words, naive_basis_sort, naive_closed_form_products,
                     naive_kernel, naive_ladder, naive_wedge, random_nonzero_rational,
                     random_poly, u_ij_by_definition)


def reference_context(alpha=2, beta=3, gamma=5):
    pres = from_display(QQ, alpha, beta, gamma)
    verdict = decide(pres)
    assert verdict.verdict is Verdict.SMOOTH_SUFFICIENT
    return CalculusContext(pres, verdict.witness)


def smooth_contexts(field=QQ):
    out = []
    for entry in three_dim_grid(field):
        verdict = decide(entry.presentation)
        if verdict.verdict is Verdict.SMOOTH_SUFFICIENT:
            out.append((entry, CalculusContext(entry.presentation, verdict.witness)))
    return out


def shifted_plane(field):
    """x1 x2 - x2 x1 = x1 + x2 with its witness twists x1 -> x1 + 1 and
    x2 -> x2 - 1."""
    pres = Presentation.skew(field, 2, {(1, 2): (1, {1: 1, 2: 1}, 0)})
    verdict = decide(pres)
    assert verdict.verdict is Verdict.SMOOTH_SUFFICIENT
    return CalculusContext(pres, verdict.witness)


def quasi_commutative_context(rng, n):
    relations = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            relations[(i, j)] = (random_nonzero_rational(rng, 4), {}, 0)
    pres = Presentation.skew(QQ, n, relations)
    verdict = decide(pres)
    assert verdict.verdict is Verdict.SMOOTH_SUFFICIENT
    return CalculusContext(pres, verdict.witness)


class TestLeftAct:
    def test_scalars_scale(self):
        ctx = reference_context()
        f = DiffForm(1, {(1,): ctx.pres.gen(2), (3,): ctx.pres.one()})
        got = ctx.left_act(ctx.pres.scalar(F(7, 2)), f)
        assert got == DiffForm(1, {(1,): ctx.pres.gen(2).scale(F(7, 2)),
                                   (3,): ctx.pres.scalar(F(7, 2))})

    def test_twist_through_dz(self):
        # x . dz = dz . (x / beta) with beta = 3
        ctx = reference_context()
        got = ctx.left_act(ctx.pres.gen(1), ctx.dx(3))
        assert got == DiffForm(1, {(3,): ctx.pres.mono((1, 0, 0), F(1, 3))})

    def test_twist_through_dy(self):
        # x . dy = dy . (gamma x) with gamma = 5
        ctx = reference_context()
        got = ctx.left_act(ctx.pres.gen(1), ctx.dx(2))
        assert got == DiffForm(1, {(2,): ctx.pres.mono((1, 0, 0), 5)})

    def test_action_is_multiplicative(self):
        ctx = reference_context()
        rng = random.Random(3)
        for _ in range(10):
            a = random_poly(ctx.pres, rng, 2)
            b = random_poly(ctx.pres, rng, 2)
            f = random_form(ctx, 1, 2, rng)
            assert ctx.left_act(ctx.pres.multiply(a, b), f) == \
                ctx.left_act(a, ctx.left_act(b, f))


class TestWedge:
    def test_square_zero(self):
        ctx = reference_context()
        assert not ctx.wedge(ctx.dx(1), ctx.dx(1))

    def test_transposition_rule(self):
        # dy ^ dx = -(1/gamma) dx ^ dy with gamma = 5
        ctx = reference_context()
        assert ctx.wedge(ctx.dx(2), ctx.dx(1)) == \
            DiffForm(2, {(1, 2): ctx.pres.scalar(F(-1, 5))})

    def test_coefficient_transport(self):
        # (dx . y) ^ dz equals dx ^ (y . dz) after moving y through the z twist
        ctx = reference_context()
        lhs = ctx.wedge(ctx.right_mul(ctx.dx(1), ctx.pres.gen(2)), ctx.dx(3))
        rhs = ctx.wedge(ctx.dx(1), ctx.left_act(ctx.pres.gen(2), ctx.dx(3)))
        assert lhs == rhs
        # direct expansion: y moves through nu_z as alpha*y (a = 0 here)
        assert lhs == DiffForm(2, {(1, 3): ctx.pres.mono((0, 1, 0), 2)})

    def test_associativity(self):
        ctx = reference_context()
        rng = random.Random(8)
        for _ in range(8):
            f = random_form(ctx, 1, 2, rng)
            g = random_form(ctx, 1, 2, rng)
            h = random_form(ctx, 1, 1, rng)
            assert ctx.wedge(ctx.wedge(f, g), h) == ctx.wedge(f, ctx.wedge(g, h))

    def test_top_power_vanishes(self):
        ctx = reference_context()
        w = ctx.volume_form()
        assert not ctx.wedge(w, ctx.dx(1))

    def test_full_wedges_are_volume_multiples(self):
        ctx = reference_context()
        import itertools
        for perm in itertools.permutations((1, 2, 3)):
            form = ctx.dx(perm[0])
            for g in perm[1:]:
                form = ctx.wedge(form, ctx.dx(g))
            assert set(form.components) <= {(1, 2, 3)}
            assert form.components  # nonzero scalar multiple


class TestDifferential:
    def test_generator(self):
        ctx = reference_context()
        assert ctx.d(ctx.pres.gen(1)) == DiffForm(1, {(1,): ctx.pres.one()})

    def test_commutative_square(self):
        rng = random.Random(1)
        pres = Presentation.commutative(QQ, 2)
        ctx = CalculusContext(pres, [identity_endo(QQ, 2)] * 2)
        got = ctx.d(pres.mono((2, 0)))
        assert got == DiffForm(1, {(1,): pres.mono((1, 0), 2)})

    def test_geometric_ladder(self):
        # x -> 2x twist: d(w^3) = dw . (1 + 2w + 4w^2) w^... = dw . 7 w^2
        pres = Presentation.commutative(QQ, 1)
        ctx = CalculusContext(pres, [AffineEndo((F(2),), (F(0),))])
        got = ctx.d(pres.mono((3,)))
        assert got == DiffForm(1, {(1,): pres.mono((2,), 7)})

    def test_volume_twist(self):
        ctx = reference_context()
        rng = random.Random(4)
        omega = ctx.volume_form()
        for _ in range(10):
            a = random_poly(ctx.pres, rng, 3)
            lhs = ctx.left_act(a, omega)
            rhs = ctx.right_mul(omega, apply_endo(ctx.nu_omega, a, ctx.pres))
            assert lhs == rhs

    def test_pi_omega_inverts_right_multiplication(self):
        ctx = reference_context()
        rng = random.Random(6)
        omega = ctx.volume_form()
        for _ in range(10):
            a = random_poly(ctx.pres, rng, 3)
            assert ctx.pi_omega(ctx.right_mul(omega, a)) == a


class TestDSquaredAndLeibniz:
    def test_d_squared_zero_all_smooth_instances(self):
        for entry, ctx in smooth_contexts():
            for m in _monomials_up_to(3, 5):
                assert not ctx.d(ctx.d(ctx.pres.mono(m))), (entry.label, m)

    def test_graded_leibniz(self):
        ctx = reference_context()
        rng = random.Random(12)
        for _ in range(30):
            deg_f = rng.choice((0, 1, 2))
            deg_g = rng.choice((0, 1))
            f = random_form(ctx, deg_f, 3, rng)
            g = random_form(ctx, deg_g, 3, rng)
            lhs = ctx.d(ctx.wedge(f, g))
            sign = QQ.one if deg_f % 2 == 0 else -QQ.one
            rhs = ctx.wedge(ctx.d(f), g) + \
                DiffForm(deg_f + deg_g + 1,
                         {s: p.scale(sign)
                          for s, p in ctx.wedge(f, ctx.d(g)).components.items()})
            assert lhs == rhs


def leibniz_oracle(ctx, m):
    """d of the monomial m from the Leibniz rule alone: for its word
    w_1 ... w_k, d(w) = sum_t dx_{w_t} nu_{w_t}(w_1 ... w_{t-1}) w_{t+1} ... w_k,
    built with gen, multiply and apply_endo only."""
    pres = ctx.pres
    word = pres.monomial_word(m)
    components: dict = {}
    for t, g in enumerate(word):
        prefix = pres.product(*(pres.gen(h) for h in word[:t]))
        suffix = pres.product(*(pres.gen(h) for h in word[t + 1:]))
        term = pres.multiply(apply_endo(ctx.nus[g - 1], prefix, pres), suffix)
        components[(g,)] = components.get((g,), NcPoly.zero()) + term
    return DiffForm(1, components)


class TestLeibnizOracle:
    """d against the Leibniz rule, with no use of d on either side."""

    def test_every_smooth_catalog_instance(self):
        for entry, ctx in smooth_contexts():
            for m in _monomials_up_to(3, 5):
                assert ctx.d(ctx.pres.mono(m)) == leibniz_oracle(ctx, m), (entry.label, m)

    def test_shifted_twists_in_characteristic_five(self):
        field = PrimeField(5)
        ctx = shifted_plane(field)
        pres = ctx.pres
        assert ctx.nus[0].shifts == (field.one, -field.one)
        for m in _monomials_up_to(2, 7):
            if sum(m) >= 5:
                assert ctx.d(pres.mono(m)) == leibniz_oracle(ctx, m), m
        # the ladder of x1^5 is (x1 + 1)^5 - x1^5 = 1: every binomial vanishes mod 5
        assert ctx.d(pres.mono((5, 0))) == DiffForm(1, {(1,): pres.one()})


def d_squared_loop(ctx, max_degree):
    """The monomials with d(d(m)) != 0, by building both forms."""
    return [m for m in _monomials_up_to(ctx.n, max_degree)
            if ctx.d(ctx.d(ctx.pres.mono(m)))]


ORACLE_MONOMIALS = 200


@st.composite
def parametric_contexts(draw):
    """A presentation with diagonal tails (n = 2..5, over Q, F_5, F_7 or
    F_101) and a commuting twist family.  Half the time the presentation is
    sufficiently smooth with at least one PARAMETRIC generator system, whose
    twist is a random member of that system's solution set instead of the
    witness; linear tails make those twists shifted, and they keep d^2 = 0.
    Otherwise the twists are random and mostly break d^2 = 0: per generator,
    every twist either scales it (slopes of finite order such as -1 make
    ladders vanish) or shifts it."""
    field = draw(st.sampled_from([QQ, PrimeField(5), PrimeField(7), PrimeField(101)]))
    n = draw(st.integers(2, 5))
    small = st.sampled_from([0, 0, 1, -1, 2, 3])
    relations = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if draw(st.booleans()):
                relations[(i, j)] = (draw(st.sampled_from([1, 1, 2, -1, 3])),
                                     {i: draw(small), j: draw(small)}, draw(small))
    pres = Presentation.skew(field, n, relations)
    if draw(st.booleans()):
        nonzero = st.sampled_from([1, -1, 2, 3, 4])
        scales = [draw(st.booleans()) for _ in range(n)]
        nus = [AffineEndo(tuple(field.coerce(draw(nonzero)) if scale else field.one
                                for scale in scales),
                          tuple(field.zero if scale else field.coerce(draw(nonzero))
                                for scale in scales))
               for _ in range(n)]
        return CalculusContext(pres, nus)
    verdict = decide(pres)
    assume(verdict.verdict is Verdict.SMOOTH_SUFFICIENT)
    assume(any(s.status is SolutionStatus.PARAMETRIC for s in verdict.solutions))
    nus = list(verdict.witness)
    for s in verdict.solutions:
        if s.status is SolutionStatus.PARAMETRIC:
            (u, v), (du, dv) = s.solution_set.particular, s.solution_set.homogeneous[0]
            t = field.coerce(draw(st.integers(-3, 3)))
            assume(u + t * du)
            nus[s.k - 1] = forced_nu(pres, s.k, u + t * du, v + t * dv)
    assume(all(commute(a, b) for a in nus for b in nus))
    return CalculusContext(pres, nus)


@st.composite
def parametric_contexts_and_degrees(draw):
    """A context from ``parametric_contexts`` and a degree bound up to 2p + 1
    (11 over F_5, 15 over F_7, Q and F_101), lowered until at most
    ``ORACLE_MONOMIALS`` monomials remain for the form-building oracle."""
    ctx = draw(parametric_contexts())
    p = getattr(ctx.pres.field, "p", 7)
    max_degree = draw(st.integers(1, 2 * min(p, 7) + 1))
    while comb(max_degree + ctx.n, ctx.n) > ORACLE_MONOMIALS:
        max_degree -= 1
    return ctx, max_degree


def vanishing_factors(ctx, max_degree):
    """Event labels for the two ways a dx_i ^ dx_j coefficient of d^2 can
    vanish, read off built forms: L_j(b) = 0 when d(x_j^b) = 0 (from
    [p]_1 = 0 when nu_j has slope 1 on x_j, else from the slope's order), and
    U_ij(a) = 0 when d(d(x_i^a x_j)) has no dx_i ^ dx_j part (L_j(1) = 1)."""
    pres, n = ctx.pres, ctx.n

    def power(i, a, j=None):
        return pres.mono(tuple(a if g == i else int(g == j) for g in range(1, n + 1)))

    labels = set()
    for i, j in combinations(range(1, n + 1), 2):
        dead = [b for b in range(1, max_degree) if not ctx.d(power(j, b))]
        for a in range(1, max_degree):
            u_zero = (i, j) not in ctx.d(ctx.d(power(i, a, j))).components
            if u_zero:
                labels.add("U_ij(a) = 0")
            elif any(a + b <= max_degree for b in dead):
                cause = "[p]_1" if ctx.nus[j - 1].slopes[j - 1] == pres.field.one else "torsion"
                labels.add(f"L_j(b) = 0 ({cause}) hides U_ij(a) != 0")
    return labels


def ladder_killed_by_the_characteristic():
    """The commutative plane over F_5 with nu_1 = (2 x1, x2), nu_2 = (3 x1, x2):
    L_2(5) = 5 x2^4 = 0, while U_12(1) != 0, so at D = 6 only [5]_1 = 0 keeps
    x1 x2^5 off the list of d^2 failures; and L_1(4) = (1 + 2 + 4 + 3) x1^3 = 0
    (2 has order 4 mod 5) keeps x1^4 x2 off it although kappa_12 = 2."""
    field = PrimeField(5)
    nus = [AffineEndo((field.coerce(slope), field.one), (field.zero,) * 2) for slope in (2, 3)]
    return CalculusContext(Presentation.commutative(field, 2), nus), 6


class TestDSquaredFailures:
    """The d^2 check on univariate factors against building d(d(m))."""

    @pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["Q", "F101"])
    def test_every_smooth_catalog_instance(self, field):
        contexts = smooth_contexts(field)
        assert contexts
        for entry, ctx in contexts:
            assert d_squared_failures(ctx, 6) == d_squared_loop(ctx, 6) == [], entry.label

    def test_identity_twists_on_the_grid(self):
        failing = 0
        for entry in three_dim_grid():
            pres = entry.presentation
            ctx = CalculusContext(pres, [identity_endo(pres.field, 3)] * 3)
            got = d_squared_failures(ctx, 4)
            assert got == d_squared_loop(ctx, 4), entry.label
            failing += bool(got)
        assert failing == 31

    @settings(max_examples=200, deadline=None)
    @given(parametric_contexts_and_degrees())
    @example(ladder_killed_by_the_characteristic())
    def test_random_parametric_twists(self, drawn):
        ctx, max_degree = drawn
        got = d_squared_failures(ctx, max_degree)
        event(f"d^2 != 0: {bool(got)}")
        for label in sorted(vanishing_factors(ctx, max_degree)):
            event(label)
        assert got == d_squared_loop(ctx, max_degree)

    @settings(max_examples=150, deadline=None)
    @given(parametric_contexts(), st.data())
    def test_u_ij_is_kappa_times_the_twisted_ladder(self, ctx, data):
        """The lemma behind ``d_squared_failures``: U_ij(a), evaluated by its
        definition, is kappa_ij nu_j(L_i(a)) with kappa_ij = sigma_ji / a_ij - 1
        and sigma_ji the slope of nu_j on x_i, for every pair and a <= D."""
        pres, n = ctx.pres, ctx.n
        max_degree = data.draw(st.integers(1, 2 * min(getattr(pres.field, "p", 7), 7) + 1))
        for i, j in combinations(range(1, n + 1), 2):
            nu_j = ctx.nus[j - 1]
            kappa = nu_j.slopes[i - 1] / pres.a(i, j) - pres.field.one
            event(f"kappa_ij = 0: {not kappa}")
            for a in range(max_degree + 1):
                ladder = pres.poly({tuple(t if g == i else 0 for g in range(1, n + 1)): c
                                    for t, c in naive_ladder(ctx, i, a).items()})
                expected = apply_endo(nu_j, ladder, pres).scale(kappa)
                assert u_ij_by_definition(ctx, i, j, a) == \
                    {m[i - 1]: c for m, c in expected.terms.items()}, (i, j, a)

    @pytest.mark.parametrize("field, certified", [(QQ, 23), (PrimeField(101), 23),
                                                  (PrimeField(7), 25)],
                             ids=["Q", "F101", "F7"])
    def test_certified_families_have_kappa_zero(self, field, certified):
        """The corollary: ``decide`` forces nu_j(x_i) to have slope a_ij for
        i < j, so every kappa_ij of a witness family is zero and d^2 = 0 in
        every degree."""
        contexts = smooth_contexts(field)
        assert len(contexts) == certified
        for entry, ctx in contexts:
            for i, j in combinations(range(1, ctx.n + 1), 2):
                kappa = ctx.nus[j - 1].slopes[i - 1] / ctx.pres.a(i, j) - field.one
                assert kappa == field.zero, (entry.label, i, j)
            assert d_squared_failures(ctx, 8) == [], entry.label

    def test_bound_below_one_is_rejected(self):
        ctx = reference_context()
        for check in (d_squared_failures, kernel_of_d_bounded):
            with pytest.raises(MismatchedArityError, match="at least 1"):
                check(ctx, 0)


LADDER_TWISTS = [(1, 0), (2, 0), (-1, 0), (F(-3, 2), 0),
                 (1, 1), (1, -1), (2, 3), (F(2, 3), F(-1, 4))]


class TestLadderBuiltUp:
    """L_i(a) = x_i L_i(a-1) + nu_i(x_i)^(a-1) from the cached L_i(a-1)
    equals the from-scratch sum, for diagonal and shifted twists."""

    @pytest.mark.parametrize("field", [QQ, PrimeField(5), PrimeField(101)],
                             ids=["Q", "F5", "F101"])
    @pytest.mark.parametrize("slope, shift", LADDER_TWISTS)
    def test_matches_naive_ladder(self, field, slope, shift):
        pres = Presentation.commutative(field, 1)
        ctx = CalculusContext(pres, [AffineEndo((field.coerce(slope),),
                                                (field.coerce(shift),))])
        powers = list(range(31))
        random.Random(7).shuffle(powers)     # build up from varied cached points
        for a in powers:
            assert ctx.ladder(1, a) == naive_ladder(ctx, 1, a), a

    @pytest.mark.parametrize("i, power", [(1, -1), (0, 3), (3, 2)])
    def test_out_of_range(self, i, power):
        with pytest.raises(IndexRangeError):
            shifted_plane(QQ).ladder(i, power)

    @pytest.mark.parametrize("field", [QQ, PrimeField(5), PrimeField(101)],
                             ids=["Q", "F5", "F101"])
    def test_shifted_plane(self, field):
        ctx = shifted_plane(field)
        for i in (1, 2):
            for a in (30, 7, 0, 12):
                assert ctx.ladder(i, a) == naive_ladder(ctx, i, a), (i, a)


class TestOneFactorPerKey:
    """The kernel and the d^2 check read each ladder sum L_i(a) from the one
    built per (i, a), and neither twists a polynomial: both run on univariate
    factors."""

    @settings(max_examples=60, deadline=None)
    @given(parametric_contexts_and_degrees())
    def test_each_ladder_once_and_no_twists(self, drawn):
        ctx, max_degree = drawn
        twists = []

        def counting_twist(endo, p, pres):
            twists.append(p)
            return apply_endo(endo, p, pres)

        with patch.object(calculus, "apply_endo", counting_twist):
            kernel_of_d_bounded(ctx, max_degree)
            d_squared_failures(ctx, max_degree)
        assert twists == []
        for i in range(1, ctx.n + 1):
            for a in range(max_degree + 1):     # a rebuilt sum is a new dict
                assert ctx.ladder(i, a) is ctx.ladder(i, a), (i, a)


KERNEL_MONOMIALS = 300


@st.composite
def kernel_contexts_and_degrees(draw):
    """A context and a degree bound for the kernel oracle.  Either a context
    from ``parametric_contexts`` or the commutative presentation with
    n = 1..5 over Q, F_5, F_7 or F_101 whose twists act on each generator
    either as x -> q (x - c) + c around one centre c per generator, or as
    x -> x + s; so they commute.  The slopes q are 1, -1, p - 1 and 2, 3, 10,
    36 read in the field (roots of unity of orders 2, 3 and 6 over F_7, 2 and
    4 over F_5, 2, 4 and 5 over F_101).  The bound goes up to 2p + 1 (11 over F_5, 15
    over F_7, Q and F_101), lowered until at most ``KERNEL_MONOMIALS``
    monomials remain."""
    if draw(st.booleans()):
        ctx = draw(parametric_contexts())
    else:
        field = draw(st.sampled_from([QQ, PrimeField(5), PrimeField(7), PrimeField(101)]))
        n = draw(st.integers(1, 5))
        p = getattr(field, "p", 7)
        slopes = [q for q in (field.coerce(v) for v in (1, -1, p - 1, 2, 3, 10, 36)) if q]
        small = st.sampled_from([field.coerce(v) for v in (0, 1, -1, 2, 3)])
        centre = st.sampled_from([field.coerce(v) for v in (0, 0, 0, 1, -1, 2)])
        centres = [draw(centre) if draw(st.booleans()) else None for _ in range(n)]
        nus = []
        for _ in range(n):
            scaled = [(draw(st.sampled_from(slopes)), c) for c in centres]
            nus.append(AffineEndo(
                tuple(field.one if c is None else q for q, c in scaled),
                tuple(draw(small) if c is None else c * (field.one - q) for q, c in scaled)))
        ctx = CalculusContext(Presentation.commutative(field, n), nus)
    p = getattr(ctx.pres.field, "p", 7)
    max_degree = draw(st.integers(1, 2 * min(p, 7) + 1))
    while comb(max_degree + ctx.n, ctx.n) > KERNEL_MONOMIALS:
        max_degree -= 1
    return ctx, max_degree


class TestKernelOracle:
    """The kernel as a product of per-generator ladder kernels against
    eliminating the whole matrix of d built from forms."""

    @settings(max_examples=200, deadline=None)
    @given(kernel_contexts_and_degrees())
    @example((shifted_plane(PrimeField(5)), 12))
    def test_matches_the_whole_matrix(self, drawn):
        ctx, max_degree = drawn
        got = kernel_of_d_bounded(ctx, max_degree)
        event(f"kernel dimension {'1' if len(got) == 1 else '> 1'}")
        shifted = any(nu.shifts[k] for k, nu in enumerate(ctx.nus))
        event("shifted ladders" if shifted else "diagonal ladders")
        assert got == naive_kernel(ctx, max_degree)


class TestDifferentialCache:
    def test_cached_d_matches_a_fresh_context(self):
        rng = random.Random(8)
        for entry, ctx in smooth_contexts():
            for _ in range(6):
                p = random_poly(ctx.pres, rng, max_degree=4, terms=4)
                fresh = CalculusContext(ctx.pres, ctx.nus)
                assert ctx.d(p) == fresh.d(p)
                assert ctx.d(ctx.d(p)) == CalculusContext(ctx.pres, ctx.nus).d(fresh.d(p))


class TestKernel:
    def test_commutative_kernel_is_scalars(self):
        pres = Presentation.commutative(QQ, 2)
        ctx = CalculusContext(pres, [identity_endo(QQ, 2)] * 2)
        basis = kernel_of_d_bounded(ctx, 4)
        assert len(basis) == 1 and set(basis[0].terms) == {(0, 0)}

    def test_reference_instance_connected(self):
        ctx = reference_context()
        assert kernel_is_scalars(kernel_of_d_bounded(ctx, 4), ctx.n)

    def test_class_2b_at_degree_12_is_scalars(self):
        # 455 monomials; three univariate eliminations on 12 x 13 entries
        pres = three_dim_class("2b", beta=3, b=7)
        ctx = CalculusContext(pres, decide(pres).witness)
        basis = kernel_of_d_bounded(ctx, 12)
        assert basis == [pres.one()]

    def test_torsion_twist_blows_up_kernel(self):
        # x -> -x: d(x^2) = dx (x - x) = 0, so even monomials join the kernel
        pres = Presentation.commutative(QQ, 1)
        ctx = CalculusContext(pres, [AffineEndo((F(-1),), (F(0),))])
        basis = kernel_of_d_bounded(ctx, 4)
        got = sorted(m for p in basis for m in p.terms)
        assert got == [(0,), (2,), (4,)]
        assert not kernel_is_scalars(kernel_of_d_bounded(ctx, 4), ctx.n)
        # independent oracle: dense rational null space via sympy
        sympy = pytest.importorskip("sympy")
        cols = _monomials_up_to(1, 4)
        rows = []
        for degree_out in range(4):
            row = []
            for m in cols:
                img = ctx.d(pres.mono(m)).components.get((1,), NcPoly.zero())
                row.append(sympy.Rational(img.terms.get((degree_out,), F(0))))
            rows.append(row)
        null = sympy.Matrix(rows).nullspace()
        assert len(null) == len(basis)


class TestIntegralForms:
    def test_tabulated_level_two_values(self):
        ctx = reference_context(alpha=2, beta=3, gamma=5)
        co = integral_form_coefficients(ctx)
        assert co.a[(2, (2, 3))] == 1
        assert co.a[(2, (1, 3))] == -5            # -gamma
        assert co.a[(2, (1, 2))] == F(2, 3)       # alpha / beta
        assert co.abar[(2, (2, 3))] == F(5, 3)    # gamma / beta
        assert co.abar[(2, (1, 3))] == -2         # -alpha
        assert co.abar[(2, (1, 2))] == 1
        assert all(co.a[(1, (i,))] == 1 and co.abar[(1, (i,))] == 1 for i in (1, 2, 3))

    def test_commutative_signs(self):
        pres = Presentation.commutative(QQ, 3)
        ctx = CalculusContext(pres, [identity_endo(QQ, 3)] * 3)
        co = integral_form_coefficients(ctx)
        for value in list(co.a.values()) + list(co.abar.values()):
            assert value in (QQ.one, -QQ.one)

    def test_normalization_identity(self):
        rng = random.Random(33)
        for n in (3, 4):
            for _ in range(5):
                ctx = quasi_commutative_context(rng, n)
                co = integral_form_coefficients(ctx)
                omega = ctx.volume_form()
                for level in co.pairs.values():
                    for bar, unb in level:
                        assert ctx.wedge(bar, unb) == omega, (n, unb)

    def test_pairs_hold_each_subset_once_with_its_complement(self):
        """pairs[k] lists every k-subset S once, in lexicographic order, as
        (Abar on the complement, A on S), and each pair wedges to omega."""
        rng = random.Random(34)
        contexts = [reference_context()] + [quasi_commutative_context(rng, n)
                                            for n in (2, 3, 4, 5)]
        for ctx in contexts:
            n, one = ctx.n, ctx.pres.one()
            co = integral_form_coefficients(ctx)
            omega = ctx.volume_form()
            assert list(co.pairs) == list(range(1, n))
            for k, level in co.pairs.items():
                subsets = list(combinations(range(1, n + 1), k))
                assert len(level) == len(subsets) == comb(n, k)
                for subset, (bar, unb) in zip(subsets, level):
                    complement = tuple(sorted(set(range(1, n + 1)) - set(subset)))
                    assert (bar.degree, unb.degree) == (n - k, k)
                    assert bar.components == {complement: one.scale(
                        co.abar[(n - k, complement)])}
                    assert unb.components == {subset: one.scale(co.a[(k, subset)])}
                    assert ctx.wedge(bar, unb) == omega, (n, subset)

    def test_closed_form_crosscheck_is_recorded(self):
        ctx = reference_context()
        co = integral_form_coefficients(ctx)
        by_key = {(c.degree, c.subset): c for c in co.closed_form_checks}
        # the level-2 subsets containing generator 1 follow the first branch
        # and agree with the constructive table
        assert by_key[(2, (1, 3))].matches_constructive
        assert by_key[(2, (1, 2))].matches_constructive
        # the printed product branches misfire on edge injections; recorded
        assert not by_key[(1, (1,))].matches_constructive
        assert not by_key[(2, (2, 3))].product_normalizes


@st.composite
def quasi_commutative_presentations(draw, max_n=6):
    """x_i x_j = a_ij x_j x_i with random nonzero a_ij (n = 2..max_n), over Q
    or F_7."""
    field = draw(st.sampled_from([QQ, PrimeField(7)]))
    n = draw(st.integers(2, max_n))
    quads = st.sampled_from([1, -1, 2, 3, -2, 5, F(1, 2), F(-3, 4), F(5, 3)])
    relations = {(i, j): (draw(quads), {}, 0)
                 for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    return Presentation.skew(field, n, relations)


def identity_context(pres):
    return CalculusContext(pres, [identity_endo(pres.field, pres.n)] * pres.n)


class TestBasisSort:
    @settings(max_examples=200, deadline=None)
    @given(quasi_commutative_presentations(), st.data())
    def test_matches_the_bubble_sort(self, pres, data):
        ctx = identity_context(pres)
        letters = st.integers(1, pres.n)
        with_repeats = data.draw(st.lists(letters, max_size=pres.n + 2))
        distinct = data.draw(st.permutations(range(1, pres.n + 1)))
        distinct = distinct[:data.draw(st.integers(0, pres.n))]
        for word in (with_repeats, distinct):
            assert ctx.basis_sort(word) == naive_basis_sort(pres, word), word
        assert ctx.basis_sort(distinct) is not None


@st.composite
def commuting_affine_contexts(draw):
    """A commutative presentation with n = 1..5 random commuting twists over
    Q: per generator, every twist either scales it or shifts it."""
    n = draw(st.integers(1, 5))
    nonzero = st.sampled_from([1, -1, 2, 3, F(1, 2), F(-2, 5)])
    scales = [draw(st.booleans()) for _ in range(n)]
    nus = []
    for _ in range(n):
        slopes = tuple(QQ.coerce(draw(nonzero)) if scale else QQ.one for scale in scales)
        shifts = tuple(QQ.zero if scale else QQ.coerce(draw(nonzero)) for scale in scales)
        nus.append(AffineEndo(slopes, shifts))
    return CalculusContext(Presentation.commutative(QQ, n), nus)


class TestComposite:
    @settings(max_examples=100, deadline=None)
    @given(commuting_affine_contexts(), st.data())
    def test_left_fold_in_any_request_order(self, ctx, data):
        index_sets = [s for k in range(ctx.n + 1)
                      for s in combinations(range(1, ctx.n + 1), k)]
        for s in data.draw(st.permutations(index_sets)):
            asked = data.draw(st.permutations(s))
            expected = reduce(compose, [ctx.nus[i - 1] for i in s],
                              identity_endo(QQ, ctx.n))
            # a list, and a tuple in any order, which is looked up before sorting
            assert ctx.composite(asked) == ctx.composite(tuple(asked)) == expected, s
        assert ctx.nu_omega == ctx.composite(range(ctx.n, 0, -1))

    @pytest.mark.parametrize("field", [QQ, PrimeField(2146146913)])
    def test_one_index_is_the_twist_itself(self, field):
        for _, ctx in smooth_contexts(field):
            for k, nu in enumerate(ctx.nus, 1):
                got = ctx.composite([k])
                assert got is nu
                composed = compose(identity_endo(field, ctx.n), nu)
                assert got == composed and hash(got) == hash(composed)
                assert repr(got) == repr(composed)


def two_sort_table(ctx):
    """The coefficient table as built with two bubble sorts per index set:
    A from sorting complement + S, Abar from sorting S + complement; the
    closed-form products multiplied out factor by factor."""
    pres, n, one = ctx.pres, ctx.n, ctx.pres.field.one
    a, abar, checks = {}, {}, []
    for k in range(1, n):
        for subset in combinations(range(1, n + 1), k):
            complement = tuple(g for g in range(1, n + 1) if g not in subset)
            factor, _ = naive_basis_sort(pres, complement + subset)
            a[(k, subset)] = one if 2 * k <= n else one / factor
            rev_factor, _ = naive_basis_sort(pres, subset + complement)
            abar[(k, subset)] = one if 2 * k < n else one / rev_factor
    for k in range(1, n):
        for subset in combinations(range(1, n + 1), k):
            complement = tuple(g for g in range(1, n + 1) if g not in subset)
            factor, _ = naive_basis_sort(pres, complement + subset)
            a_cf, abar_cf = naive_closed_form_products(pres, subset, complement)
            checks.append(ClosedFormCheck(
                k, subset, a_cf, abar_cf, a_cf * abar_cf * factor == one,
                a_cf == a[(k, subset)] and abar_cf == abar[(n - k, complement)]))
    return a, abar, tuple(checks)


class TestOneSortPerIndexSet:
    """The table sorts complement + S once per index set S; the closed-form
    cross-check reads its own sort scalars and is compared with the products
    multiplied out factor by factor."""

    @settings(max_examples=60, deadline=None)
    @given(quasi_commutative_presentations())
    def test_table_matches_two_sorts(self, pres):
        ctx = identity_context(pres)
        calls = []
        sort = ctx.basis_sort

        def counting(word):
            calls.append(word)
            return sort(word)

        closed = calculus._closed_form_products

        def uncounted(ctx, subset, complement):
            before = len(calls)
            got = closed(ctx, subset, complement)
            del calls[before:]
            return got

        ctx.basis_sort = counting
        with patch.object(calculus, "_closed_form_products", uncounted):
            co = integral_form_coefficients(ctx)
        assert (co.a, co.abar, co.closed_form_checks) == two_sort_table(ctx)
        # basis_sort is the one writer of the memo, the cross-check's sorts
        # of reversed sets included, and stores what the bubble sort gives
        for word, got in ctx._sort_cache.items():
            assert got == naive_basis_sort(pres, word), word
        assert calls == [complement + subset for k in range(1, pres.n)
                         for subset, complement in complementary_pairs(pres.n, k)]
        assert len(calls) == 2 ** pres.n - 2


class TestUncheckedBuilders:
    """``+``, ``-``, ``wedge``, ``left_act``, ``right_mul``, ``d``,
    ``random_form`` and the barred and unbarred forms of the integral-form
    table build their forms without the public constructor's check; what
    they build passes it, and ``wedge`` equals the product taken term by
    term, constant components included."""

    @settings(max_examples=120, deadline=None)
    @given(parametric_contexts(), st.data())
    def test_builders_keep_the_form_invariant(self, ctx, data):
        rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
        field, n = ctx.pres.field, ctx.n

        def form(degree):
            w = random_form(ctx, degree, 2, rng)
            if data.draw(st.booleans()):     # constant components
                w = DiffForm(degree, {s: ctx.pres.scalar(field.random(rng, 5))
                                      for s in w.components})
            return w

        k = data.draw(st.integers(0, n))
        f, g = form(k), form(k)
        h = form(data.draw(st.integers(0, n - k)))
        built = [f + g, f - g, f - f, -f, ctx.wedge(f, h), ctx.wedge(h, f),
                 ctx.left_act(random_poly(ctx.pres, rng, 2), f), ctx.left_act(NcPoly.zero(), f),
                 ctx.right_mul(f, random_poly(ctx.pres, rng, 2)), ctx.right_mul(f, NcPoly.zero())]
        if k < n:
            built.append(ctx.d(f))
        built.append(random_form(ctx, k, 2, rng))
        co = integral_form_coefficients(ctx)
        built += [form for level in co.pairs.values() for pair in level for form in pair]
        for result in built:
            assert bad_index_words(result) == []
            assert DiffForm(result.degree, dict(result.components)) == result
        assert ctx.wedge(f, h) == naive_wedge(ctx, f, h)
        assert ctx.wedge(h, f) == naive_wedge(ctx, h, f)

    def test_the_check_still_guards_the_public_constructor(self):
        with pytest.raises(MismatchedArityError):
            DiffForm(2, {(2, 1): NcPoly({(0, 0): F(1)})})
        assert bad_index_words(DiffForm._trusted(2, {(2, 1): NcPoly({(0, 0): F(1)}),
                                                    (1, 2): NcPoly.zero()})) == \
            [((2, 1), NcPoly({(0, 0): F(1)})), ((1, 2), NcPoly.zero())]
        # the table's forms are built unchecked, yet the check accepts them
        ctx = reference_context()
        co = integral_form_coefficients(ctx)
        for level in co.pairs.values():
            for form in (f for pair in level for f in pair):
                assert bad_index_words(form) == []
                assert DiffForm(form.degree, dict(form.components)) == form


class TestIntegrability:
    def test_basis_forms_reproduce(self):
        ctx = reference_context()
        co = integral_form_coefficients(ctx)
        for k in (1, 2):
            for subset in combinations(range(1, 4), k):
                w = DiffForm(k, {subset: ctx.pres.one()})
                lhs = ctx.zero_form(k)
                for bar, unb in co.pairs[k]:
                    lhs = lhs + ctx.right_mul(unb, ctx.pi_omega(ctx.wedge(bar, w)))
                assert lhs == w

    def test_both_sides_wedge_the_tables_own_pairs(self):
        """Degree k's right side wedges each barred form of pairs[k] on the
        left of the sample, its left side each unbarred form of pairs[n - k]
        on the right, in table order: the very objects the table holds."""
        ctx = reference_context()
        pairs = ctx.integral_forms.pairs
        calls = []
        wedge = ctx.wedge

        def recording(f, g):
            calls.append((f, g))
            return wedge(f, g)

        ctx.wedge = recording
        samples, n = 2, ctx.n
        assert verify_integrability(ctx, 1, samples, seed=3).all_pass
        expected = [side for k in range(1, n) for _ in range(samples) for side in
                    [(0, bar) for bar, _ in pairs[k]] + [(1, unb) for _, unb in pairs[n - k]]]
        assert len(calls) == len(expected) == samples * 2 * (2 ** n - 2)
        for call, (position, form) in zip(calls, expected):
            assert call[position] is form

    def test_zero_form(self):
        ctx = reference_context()
        report = verify_integrability(ctx, 0, 1, seed=5)
        assert report.all_pass

    def test_random_forms_on_reference_instance(self):
        ctx = reference_context()
        report = verify_integrability(ctx, 2, 6, seed=9)
        assert report.all_pass, report.failures

    def test_all_smooth_instances(self):
        for entry, ctx in smooth_contexts()[:6]:
            report = verify_integrability(ctx, 2, 3, seed=2)
            assert report.all_pass, (entry.label, report.failures)

    def test_four_generator_reconstruction(self):
        rng = random.Random(21)
        ctx = quasi_commutative_context(rng, 4)
        report = verify_integrability(ctx, 2, 4, seed=13)
        assert report.all_pass, report.failures


class TestShiftedDiagonalTwists:
    """x y - y x = x + y forces the twists x -> x + 1 and y -> y - 1, so the
    derivation runs through the full binomial ladder instead of the geometric
    shortcut."""

    def build(self):
        ctx = shifted_plane(QQ)
        assert ctx.nus[0].shifts == (F(1), F(-1))
        return ctx

    def test_ladder_with_shift(self):
        ctx = self.build()
        got = ctx.d(ctx.pres.mono((2, 0)))
        # sum of (x+1)^(j-1) x^(2-j) for j = 1, 2 is 2x + 1
        assert got == DiffForm(1, {(1,): ctx.pres.poly({(1, 0): 2, (0, 0): 1})})

    def test_d_squared_and_connectedness(self):
        ctx = self.build()
        for m in _monomials_up_to(2, 6):
            assert not ctx.d(ctx.d(ctx.pres.mono(m)))
        assert kernel_is_scalars(kernel_of_d_bounded(ctx, 5), ctx.n)

    def test_leibniz_and_integrability(self):
        ctx = self.build()
        rng = random.Random(2)
        for _ in range(25):
            deg_f = rng.choice((0, 1))
            f = random_form(ctx, deg_f, 3, rng)
            g = random_form(ctx, rng.choice((0, 1)), 3, rng)
            sign = QQ.one if deg_f % 2 == 0 else -QQ.one
            rhs = ctx.wedge(ctx.d(f), g) + DiffForm(
                f.degree + g.degree + 1,
                {s: p.scale(sign) for s, p in ctx.wedge(f, ctx.d(g)).components.items()})
            assert ctx.d(ctx.wedge(f, g)) == rhs
        assert verify_integrability(ctx, 3, 8, seed=3).all_pass
