"""Acceptance criteria, one test per criterion, each printing a PASS line.

Everything is exact arithmetic; the only tolerances are the stated runtime
budgets, asserted per criterion.
"""

import random
import time
from fractions import Fraction as F
from itertools import combinations

from skewsmooth.calculus import (CalculusContext, DiffForm,
                                 integral_form_coefficients, kernel_of_d_bounded,
                                 random_form, verify_integrability, _monomials_up_to)
from skewsmooth.catalog import (DIFFUSION_LABELS, diffusion_class_instances,
                                three_dim_class, three_dim_grid)
from skewsmooth.cli import main
from skewsmooth.diffusion import (DiffusionType, check_derivation_constant_terms,
                                  encode_presentation, random_sigma,
                                  solve_sigma_constant_terms, build_aut_matrices,
                                  verify_determinant_identities,
                                  verify_left_commutation, verify_pq_recurrences,
                                  verify_right_commutation)
from skewsmooth.linalg import det
from skewsmooth.scalars import QQ
from skewsmooth.smoothness import Verdict, decide, solve_diagonal_unknowns

from helpers import naive_normal_form, random_skew_presentation, random_word


class _Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.perf_counter()

    @property
    def elapsed(self):
        return time.perf_counter() - self.start

    def check(self):
        assert self.elapsed < self.seconds, \
            f"runtime {self.elapsed:.1f}s exceeded budget {self.seconds}s"


def _announce(capsys, number, message, budget=None):
    timing = f" [{budget.elapsed:.1f}s < {budget.seconds}s]" if budget else ""
    with capsys.disabled():
        print(f"\nACCEPTANCE {number}: PASS{timing} - {message}")


def _smooth_contexts():
    out = []
    for entry in three_dim_grid():
        verdict = decide(entry.presentation)
        if verdict.verdict is Verdict.SMOOTH_SUFFICIENT:
            out.append((entry, CalculusContext(entry.presentation, verdict.witness)))
    return out


def test_criterion_1_verdict_table(capsys):
    budget = _Budget(10)
    grid = three_dim_grid()
    labels_seen = set()
    for entry in grid:
        got = decide(entry.presentation)
        assert got.verdict is entry.expected, \
            (entry.label, entry.params, got.verdict, got.reasons)
        labels_seen.add(entry.label)
    assert labels_seen == {"1", "2a", "2b", "2c", "2d", "2e", "2f",
                           "3a", "3b", "4", "5a", "5b", "5c", "5d", "5e"}
    budget.check()
    _announce(capsys, 1, f"verdict partition exact on {len(grid)} instances "
                         "over all fifteen classes", budget)


def test_criterion_2_witness_reproduction(capsys):
    budget = _Budget(10)
    # zero-tail and matched-coefficient case-(i) instances
    case_i = [three_dim_class("1", alpha=2, beta=3, gamma=5),
              three_dim_class("1", alpha=5, beta=2, gamma=3),
              three_dim_class("3b", alpha=2, beta=3, b=7),
              three_dim_class("3b", alpha=5, beta=5, b=1)]
    for pres in case_i:
        beta = QQ.one / pres.a(1, 3)
        sol = solve_diagonal_unknowns(pres, 1)
        assert sol.status is not None and sol.witness is not None
        assert sol.contains(QQ.one / beta, QQ.zero), \
            "the admissible set must contain the tabulated (1/beta, 0)"
        verdict = decide(pres)
        assert verdict.verdict is Verdict.SMOOTH_SUFFICIENT
        ctx = CalculusContext(pres, verdict.witness)
        alpha, gamma = pres.a(2, 3), pres.a(1, 2)
        assert ctx.wedge(ctx.dx(2), ctx.dx(1)) == \
            DiffForm(2, {(1, 2): pres.scalar(-(QQ.one / gamma))})
        assert ctx.wedge(ctx.dx(3), ctx.dx(1)) == \
            DiffForm(2, {(1, 3): pres.scalar(-beta)})
        assert ctx.wedge(ctx.dx(3), ctx.dx(2)) == \
            DiffForm(2, {(2, 3): pres.scalar(-(QQ.one / alpha))})
    budget.check()
    _announce(capsys, 2, "tabulated diagonal witnesses admissible and all three "
                         "wedge relations exact", budget)


def test_criterion_3_calculus_properties(capsys):
    budget = _Budget(60)
    contexts = _smooth_contexts()
    assert contexts
    rng = random.Random(314)
    monomials = _monomials_up_to(3, 5)
    for entry, ctx in contexts:
        for m in monomials:
            assert not ctx.d(ctx.d(ctx.pres.mono(m))), (entry.label, m)
        for _ in range(50):
            deg_f = rng.choice((0, 1, 2))
            deg_g = rng.choice((0, 1))
            f = random_form(ctx, deg_f, 3, rng)
            g = random_form(ctx, deg_g, 3, rng)
            sign = QQ.one if deg_f % 2 == 0 else -QQ.one
            rhs = ctx.wedge(ctx.d(f), g) + DiffForm(
                deg_f + deg_g + 1,
                {s: p.scale(sign) for s, p in ctx.wedge(f, ctx.d(g)).components.items()})
            assert ctx.d(ctx.wedge(f, g)) == rhs, (entry.label, "Leibniz")
        basis = kernel_of_d_bounded(ctx, 5)
        assert len(basis) == 1 and set(basis[0].terms) == {(0, 0, 0)}, entry.label
        report = verify_integrability(ctx, 2, 20, seed=271)
        assert report.all_pass, (entry.label, report.failures)
    budget.check()
    _announce(capsys, 3, f"d^2 = 0, graded Leibniz, kernel = scalars at degree 5, "
                         f"and both reconstruction identities on "
                         f"{len(contexts)} certified instances", budget)


def test_criterion_4_integral_form_normalization(capsys):
    budget = _Budget(30)
    rng = random.Random(99)
    from helpers import random_nonzero_rational
    from skewsmooth.algebra import Presentation

    def quasi_commutative(n):
        relations = {}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                relations[(i, j)] = (random_nonzero_rational(rng, 4), {}, 0)
        return Presentation.skew(QQ, n, relations)

    for n in (3, 4):
        for _ in range(5):
            pres = quasi_commutative(n)
            verdict = decide(pres)
            assert verdict.verdict is Verdict.SMOOTH_SUFFICIENT
            ctx = CalculusContext(pres, verdict.witness)
            co = integral_form_coefficients(ctx)
            omega = ctx.volume_form()
            for k in range(1, n):
                subsets = list(combinations(range(1, n + 1), k))
                assert len(co.pairs[k]) == len(subsets)
                for subset, (bar, unb) in zip(subsets, co.pairs[k]):
                    complement = tuple(g for g in range(1, n + 1) if g not in subset)
                    assert (set(bar.components), set(unb.components)) == ({complement}, {subset})
                    assert ctx.wedge(bar, unb) == omega
    # tabulated level-two values for the (2, 3, 5) instance
    pres = three_dim_class("1", alpha=2, beta=3, gamma=5)
    verdict = decide(pres)
    ctx = CalculusContext(pres, verdict.witness)
    co = integral_form_coefficients(ctx)
    assert co.a[(2, (1, 3))] == -5            # -gamma  (second level-two form)
    assert co.a[(2, (1, 2))] == F(2, 3)       # alpha/beta (third level-two form)
    assert co.abar[(2, (2, 3))] == F(5, 3)    # gamma/beta (first barred form)
    assert co.abar[(2, (1, 3))] == -2         # -alpha     (second barred form)
    budget.check()
    _announce(capsys, 4, "volume normalization exact for n in {3, 4} on five "
                         "random draws each; tabulated level-two values match", budget)


def test_criterion_5_diffusion_identities(capsys):
    budget = _Budget(120)
    pq = verify_pq_recurrences(30, samples=20, seed=5)
    assert pq.all_pass and pq.checked >= 10000
    for dtype in (DiffusionType.TYPE1, DiffusionType.TYPE2):
        right = verify_right_commutation(6, samples=20, seed=17, dtype=dtype)
        assert right.all_pass, (dtype, right.counterexample)
    left_status = []
    for dtype in (DiffusionType.TYPE1, DiffusionType.TYPE2):
        left = verify_left_commutation(6, samples=20, seed=17, dtype=dtype)
        assert left.status in ("PASS", "DISCREPANT")
        if left.status == "DISCREPANT":
            assert left.minimal_failing_n is not None
            assert left.counterexample and left.counterexample["residual"]
        left_status.append(left.status)
    budget.check()
    _announce(capsys, 5, "ladder recurrences to n = 30 and right commutation to "
                         f"n = 6 exact (both types); left commutation reported "
                         f"{'/'.join(left_status)} with recorded minimal "
                         "counterexample", budget)


def test_criterion_6_matrix_identities(capsys):
    budget = _Budget(10)
    dets = verify_determinant_identities(samples=20, seed=23)
    assert dets.all_pass
    rng = random.Random(23)
    solved = 0
    while solved < 20:
        coeffs = random_sigma(rng)
        m = build_aut_matrices(coeffs, QQ.random_nonzero(rng), QQ.random(rng))
        if not det(QQ, [list(r) for r in m.a_matrix]):
            continue
        got = solve_sigma_constant_terms(m)
        assert got.values == (F(0),) * 4 and got.unique
        solved += 1
    span_checked = 0
    lam12, lam21 = F(2), F(3)
    l1 = (F(0), -lam21, F(0), F(1))
    l2 = (lam12, F(0), F(1), F(0))
    from skewsmooth.diffusion import SigmaCoefficients
    while span_checked < 10:
        u1, u2, v1, v2 = (QQ.random(rng) for _ in range(4))
        if u1 * v2 - u2 * v1 == 0:
            continue
        s = tuple(u1 * a + u2 * b for a, b in zip(l1, l2)) + (F(0),)
        h = tuple(v1 * a + v2 * b for a, b in zip(l1, l2)) + (F(0),)
        d1 = tuple(QQ.random(rng) for _ in range(4)) + (F(0),)
        d2 = tuple(QQ.random(rng) for _ in range(4)) + (F(0),)
        m = build_aut_matrices(SigmaCoefficients(d1, d2, s, h), lam12, lam21)
        if not det(QQ, [list(r) for r in m.a_matrix]):
            continue
        report = check_derivation_constant_terms(m)
        assert report.status == "ZERO_CONSTANTS" and report.constants == (F(0),) * 4
        span_checked += 1
    budget.check()
    _announce(capsys, 6, "determinant identities at 20 samples, constant terms "
                         "zero at 20 invertible and 10 span instances", budget)


def test_criterion_7_pbw_machinery(capsys):
    budget = _Budget(30)
    for label in DIFFUSION_LABELS:
        instances = diffusion_class_instances(label)
        assert len(instances) >= 3
        for dp in instances:
            assert encode_presentation(dp).check_pbw_overlaps().all_pass, label
    for entry in three_dim_grid():
        report = entry.presentation.check_pbw_overlaps()
        if entry.label == "5e" and entry.params.get("a"):
            # the z-tailed relation with a != 0 genuinely breaks the diamond
            # condition: the two reductions of z y x differ by exactly -a x,
            # so the ordered monomials are dependent (a x = 0 in the algebra)
            # and this member is not a PBW presentation.
            assert not report.all_pass
            a = entry.presentation.c(2, 3)
            assert report.checks[0].discrepancy == \
                entry.presentation.poly({(1, 0, 0): -a})
        else:
            assert report.all_pass, (entry.label, entry.params)
    rng = random.Random(4242)
    for _ in range(100):
        pres = random_skew_presentation(rng, 3)
        word = random_word(rng, 3, 5)
        assert pres.normal_form(word).terms == naive_normal_form(pres, word)
    budget.check()
    _announce(capsys, 7, "overlap checks pass on all diffusion-class and catalog "
                         "instances except the degenerate z-tailed member (a != "
                         "0), whose recorded discrepancy is exactly -a x; engine "
                         "matches the naive oracle on 100 random words", budget)


def test_criterion_8_determinism(capsys):
    budget = _Budget(60)
    args = ["verify-identities", "--seed", "42", "--json"]
    outputs = []
    for _ in range(2):
        code = main(list(args))
        captured = capsys.readouterr()
        assert code == 0
        outputs.append(captured.out.encode())
    assert outputs[0] == outputs[1]
    budget.check()
    _announce(capsys, 8, "two seeded verify-identities runs byte-identical", budget)
