import random
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewsmooth import diffusion
from skewsmooth.algebra import NcPoly, Ordering, relabel
from skewsmooth.catalog import DIFFUSION_LABELS, diffusion_class_instances
from skewsmooth.diffusion import (DiffusionPresentation,
                                  DiffusionType, SigmaCoefficients,
                                  build_aut_matrices, check_derivation_constant_terms,
                                  classify_diffusion_3, crosswalk_to_3d,
                                  encode_presentation, identity_sigma, pq_p, pq_q,
                                  random_sigma, solve_sigma_constant_terms,
                                  verify_commutation, verify_determinant_identities,
                                  verify_left_commutation, verify_pq_recurrences,
                                  verify_right_commutation)
from skewsmooth.errors import (IndexRangeError, MismatchedArityError, SingularMatrixError,
                              ZeroLambdaError)
from skewsmooth.linalg import det
from skewsmooth.scalars import QQ, PrimeField
from skewsmooth.smoothness import classify_3d

from helpers import (naive_commutation, naive_normal_form, naive_pq_p,
                     naive_pq_recurrences)

F7, F_M31 = PrimeField(7), PrimeField(2 ** 31 - 1)
LADDER_FIELDS = (QQ, F7, F_M31)


def simple_dp(l12=1, l21=0, x=(0, 0), dtype=DiffusionType.TYPE1):
    return DiffusionPresentation(2, dtype, {(1, 2): l12, (2, 1): l21}, x)


class TestEncoding:
    def test_commutative_encoding(self):
        pres = encode_presentation(simple_dp(1, 1))
        assert pres.ordering is Ordering.DESCENDING
        assert pres.normal_form((1, 2)) == pres.mono((1, 1))

    def test_single_rule_application(self):
        dp = simple_dp(2, 3, (5, 7))
        pres = encode_presentation(dp)
        got = pres.normal_form((1, 2))
        assert got == pres.poly({(1, 1): F(3, 2), (1, 0): F(7, 2), (0, 1): F(-5, 2)})

    def test_pure_quasi_commutation_class_d(self):
        dp = diffusion_class_instances("D")[0]
        pres = encode_presentation(dp)
        assert pres.check_pbw_overlaps().all_pass

    def test_zero_forward_lambda_rejected(self):
        with pytest.raises(ZeroLambdaError):
            DiffusionPresentation(2, DiffusionType.TYPE1, {(1, 2): 0}, (0, 0))

    @pytest.mark.parametrize("xs", [(), (1,), (1, 2, 3)])
    def test_wrong_number_of_type1_scalars_rejected(self, xs):
        with pytest.raises(MismatchedArityError, match="one x scalar per generator"):
            DiffusionPresentation(2, DiffusionType.TYPE1, {(1, 2): 1}, xs)

    @pytest.mark.parametrize("dtype", list(DiffusionType))
    @pytest.mark.parametrize("key", [(1, 3), (2, 2), (0, 1), (3, 1)])
    def test_lambda_key_outside_the_pairs_rejected(self, dtype, key):
        with pytest.raises(MismatchedArityError, match="not pairs i != j in 1..2"):
            DiffusionPresentation(2, dtype, {(1, 2): 2, key: 5}, (0, 0))

    @pytest.mark.parametrize("dtype", list(DiffusionType))
    def test_a_dtype_string_builds_that_type(self, dtype):
        """The string names the type as the member does: "type1" keeps its
        x scalars and encodes on two generators, not as type 2 on four."""
        lambdas = {(1, 2): 2, (2, 1): 1}
        by_name = DiffusionPresentation(2, dtype.value, lambdas, (3, 5))
        by_member = DiffusionPresentation(2, dtype, lambdas, (3, 5))
        assert by_name.dtype is dtype
        assert by_name.x == by_member.x == ((F(3), F(5)) if dtype is DiffusionType.TYPE1 else ())
        pres = encode_presentation(by_name)
        assert pres.n == (2 if dtype is DiffusionType.TYPE1 else 4)
        assert pres.normal_form((1, 2)) == encode_presentation(by_member).normal_form((1, 2))

    def test_type2_central_generators(self):
        dp = simple_dp(2, 3, dtype=DiffusionType.TYPE2)
        pres = encode_presentation(dp)
        assert pres.n == 4 and pres.central == frozenset({3, 4})
        got = pres.normal_form((1, 2))
        assert got == pres.poly({(1, 1, 0, 0): F(3, 2),
                                 (1, 0, 0, 1): F(1, 2),
                                 (0, 1, 1, 0): F(-1, 2)})


class TestPQ:
    def test_first_column_is_one(self):
        for n in range(1, 10):
            assert pq_p(1, n, F(2), F(3)) == 1
            assert pq_q(1, n, F(3)) == 1

    def test_q_binomial(self):
        lam = F(5, 2)
        assert pq_q(2, 3, lam) == 3 * lam

    def test_p_direct_substitution(self):
        lam_ij, lam_ji = F(2), F(7)
        assert pq_p(2, 3, lam_ij, lam_ji) == lam_ij + 2 * lam_ji

    def test_index_range(self):
        with pytest.raises(IndexRangeError):
            pq_p(0, 3, F(1), F(1))
        with pytest.raises(IndexRangeError):
            pq_q(5, 3, F(1))

    def test_recurrences_sweep(self):
        report = verify_pq_recurrences(30, samples=20, seed=0)
        assert report.all_pass
        assert report.checked > 10000

    @pytest.mark.parametrize("field", [F7, F_M31], ids=["F7", "F_M31"])
    def test_recurrences_sweep_over_prime_fields(self, field):
        over_q = verify_pq_recurrences(30, samples=20, seed=0)
        report = verify_pq_recurrences(30, samples=20, seed=0, field=field)
        assert report.all_pass
        assert report.checked == over_q.checked

    def test_single_recurrence_instance(self):
        lam_ij, lam_ji = F(3, 2), F(-5)
        assert pq_p(2, 3, lam_ij, lam_ji) == pq_p(1, 2, lam_ij, lam_ji) * lam_ij \
            + pq_q(2, 2, lam_ji)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=2, max_value=12),
       st.fractions(min_value=-9, max_value=9),
       st.fractions(min_value=-9, max_value=9))
def test_ladder_recurrence_property(n, lam_ij, lam_ji):
    for k in range(2, n + 1):
        assert pq_p(k, n + 1, lam_ij, lam_ji) == \
            pq_p(k - 1, n, lam_ij, lam_ji) * lam_ij + pq_q(k, n, lam_ji)
        assert pq_q(k, n + 1, lam_ji) == \
            pq_q(k - 1, n, lam_ji) * lam_ji + pq_q(k, n, lam_ji)
    assert pq_p(n + 1, n + 1, lam_ij, lam_ji) == \
        pq_p(n, n, lam_ij, lam_ji) * lam_ij + lam_ji ** n


@pytest.mark.parametrize("seed", [0, 1, 2, 5])
@pytest.mark.parametrize("field", LADDER_FIELDS, ids=["Q", "F7", "F_M31"])
def test_scaled_recurrences_match_field_arithmetic_oracle(field, seed):
    for n_max in (2, 3, 30):
        report = verify_pq_recurrences(n_max, samples=6, seed=seed, field=field)
        assert (report.checked, report.failures) == \
            naive_pq_recurrences(n_max, samples=6, seed=seed, field=field)


@pytest.mark.parametrize("field", LADDER_FIELDS, ids=["Q", "F7", "F_M31"])
def test_off_by_one_binomial_fails_both_checks_alike(field, monkeypatch):
    # the same wrong weight in pq_p (through _scaled_p, which the oracle reads)
    # and in the P coefficients; Q keeps its own binomial C(n, k-1)
    def off_by_one_weights(g, count):
        return [comb(g + t, g) for t in range(1, count + 1)]

    monkeypatch.setattr(diffusion, "_ladder_weights", off_by_one_weights)
    report = verify_pq_recurrences(12, samples=4, seed=3, field=field)
    # the all-ones Pascal draw fails too
    assert any(f[3] == f[4] == 1 for f in report.failures)
    assert (report.checked, report.failures) == \
        naive_pq_recurrences(12, samples=4, seed=3, field=field)


def _perturbed_weights(g, count):
    # a wrong weight wherever (g + 2 t) % 3 is nonzero, the same row prefix
    # for every count, as the telescoping needs
    return [comb(g + t - 1, g) + (g + 2 * t) % 3 for t in range(1, count + 1)]


@pytest.mark.parametrize("weights", ["true", "perturbed"])
@pytest.mark.parametrize("field", LADDER_FIELDS, ids=["Q", "F7", "F_M31"])
def test_each_scaled_residual_is_its_coefficient_times_a_power_of_v(field, weights,
                                                                   monkeypatch):
    # the lemma the check rests on: with S_k^n = _scaled_p(k, n, u, v) and
    # T_k^n = C(n, k-1) v^(k-1), each scaled residual of the recurrences is
    # the instance's coefficient times v^(k-1), for the true weights (all
    # coefficients zero) and for wrong ones
    if weights == "perturbed":
        monkeypatch.setattr(diffusion, "_ladder_weights", _perturbed_weights)
    n_max, p = 30, field.char

    def reduced(x):
        return x % p if p else x

    def S(k, n):
        return diffusion._scaled_p(k, n, u, v)

    def T(k, n):
        return comb(n, k - 1) * v ** (k - 1)

    coefficients = diffusion._recurrence_coefficients(n_max)
    assert [(kind, n, k) for kind, n, k, _ in coefficients] == [
        inst for n in range(1, n_max)
        for inst in [(kind, n, k) for k in range(2, n + 1) for kind in ("P", "Q")]
        + [("P-top", n, n + 1), ("Q-top", n, n + 1)]]
    # the P instance (n, k) reads the weight of gap n + 1 - k at t = k
    assert [c for *_, c in coefficients] == [
        (n + 1 + k) % 3 if weights == "perturbed" and kind in ("P", "P-top") else 0
        for kind, n, k, _ in coefficients]
    rng = random.Random(11)
    draws = [(field.one, field.one), (field.zero, field.coerce(5)),
             (field.coerce(3), field.zero), (field.one, field.coerce(3))]
    draws += [(field.random(rng, 9), field.random(rng, 9)) for _ in range(3)]
    for lam_ij, lam_ji in draws:
        u, v, _ = diffusion._split(lam_ij, lam_ji)
        for kind, n, k, c in coefficients:
            if kind == "P":
                r = S(k, n + 1) - u * S(k - 1, n) - T(k, n)
            elif kind == "Q":
                r = T(k, n + 1) - v * T(k - 1, n) - T(k, n)
            elif kind == "P-top":
                r = S(n + 1, n + 1) - u * S(n, n) - v ** n
            else:
                r = T(n + 1, n + 1) - v * T(n, n) - v ** n
            assert reduced(r - c * v ** (k - 1)) == 0, (kind, n, k)


@pytest.mark.parametrize("field", [QQ, F7], ids=["Q", "F7"])
def test_a_wrong_binomial_fails_the_q_checks_that_read_it(field, monkeypatch):
    # C(5, 4) + 1: the Q check at (5, 5) and the Q-top checks at n = 4, 5 read
    # it, and so does the P check at (5, 5) against the true weight C(5, 1);
    # the weight C(5, 4) of gap 4 changes with it and fails P at (5, 2)
    def wrong_comb(n, j):
        return comb(n, j) + ((n, j) == (5, 4))

    monkeypatch.setattr(diffusion, "comb", wrong_comb)
    report = verify_pq_recurrences(8, samples=6, seed=4, field=field)
    seen = {(kind, n, k) for kind, n, k, _, _ in report.failures}
    assert seen == {("Q", 5, 5), ("Q-top", 4, 5), ("Q-top", 5, 6), ("P", 5, 5), ("P", 5, 2)}
    # pq_p and pq_q read the same wrong C(5, 4), so the field oracle agrees
    assert (report.checked, report.failures) == \
        naive_pq_recurrences(8, samples=6, seed=4, field=field)


@pytest.mark.parametrize("field", LADDER_FIELDS, ids=["Q", "F7", "F_M31"])
def test_recurrences_see_each_weight_past_the_base_case(field, monkeypatch):
    # a wrong weight C(g+t-1, g) fails exactly one check for t >= 2; at t = 1,
    # the base case P_1^(g+1) = 1, no recurrence reads it
    n_max = 8
    ladder_weights = diffusion._ladder_weights
    for g in range(n_max):
        for t in range(1, n_max - g + 1):
            def one_wrong_weight(gap, count, g=g, t=t):
                row = ladder_weights(gap, count)
                if gap == g:
                    row[t - 1] += 1
                return row

            monkeypatch.setattr(diffusion, "_ladder_weights", one_wrong_weight)
            report = verify_pq_recurrences(n_max, samples=4, seed=2, field=field)
            seen = {(kind, n, k) for kind, n, k, _, _ in report.failures}
            if t == 1:
                assert not seen
            else:
                assert seen == {("P-top" if g == 0 else "P", g + t - 1, t)}


class TestNoHollowPass:
    """A check that would run on nothing raises instead of reporting PASS."""

    @pytest.mark.parametrize("n_max", [-1, 0, 1])
    def test_ladder_recurrences_need_two_rows(self, n_max):
        with pytest.raises(IndexRangeError):
            verify_pq_recurrences(n_max, samples=3)

    def test_ladder_recurrences_at_two_rows_check_the_pascal_draw(self):
        report = verify_pq_recurrences(2, samples=0)
        assert report.checked == 2 and report.all_pass

    @pytest.mark.parametrize("verify", [verify_commutation, verify_right_commutation,
                                        verify_left_commutation])
    @pytest.mark.parametrize("n_max, samples", [(0, 5), (-2, 5), (3, 0), (3, -1)])
    def test_commutation_needs_a_power_and_a_sample(self, verify, n_max, samples):
        with pytest.raises(IndexRangeError):
            verify(n_max, samples=samples)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_determinant_identities_need_a_sample(self, samples):
        with pytest.raises(IndexRangeError):
            verify_determinant_identities(samples=samples)


@st.composite
def ladder_cases(draw):
    """(field, n, k, lam_ij, lam_ji) with k pulled to the ends 1 and n and
    lam_ji pulled to 0 and to lam_ij as often as drawn freely."""
    field = draw(st.sampled_from(LADDER_FIELDS))
    if field is QQ:
        scalars = st.fractions(min_value=-9, max_value=9, max_denominator=9).map(QQ.coerce)
    else:
        scalars = st.integers(min_value=-field.p, max_value=field.p).map(field.coerce)
    n = draw(st.integers(min_value=1, max_value=30))
    k = draw(st.one_of(st.just(1), st.just(n), st.integers(min_value=1, max_value=n)))
    lam_ij = draw(scalars)
    lam_ji = draw(st.one_of(st.just(field.zero), st.just(lam_ij), scalars))
    return field, n, k, lam_ij, lam_ji


@settings(max_examples=300, deadline=None)
@given(ladder_cases())
@example((QQ, 30, 30, QQ.coerce("-7/3"), QQ.zero))
@example((QQ, 30, 1, QQ.coerce("-5/9"), QQ.coerce("-5/9")))
@example((QQ, 30, 17, QQ.coerce("-2/9"), QQ.coerce("4/7")))
@example((F7, 30, 30, F7.coerce(3), F7.zero))
@example((F_M31, 30, 29, F_M31.coerce(-2), F_M31.coerce(-2)))
def test_pq_p_closed_sum_matches_term_by_term_oracle(case):
    field, n, k, lam_ij, lam_ji = case
    got = pq_p(k, n, lam_ij, lam_ji)
    want = naive_pq_p(k, n, lam_ij, lam_ji)
    assert type(got) is type(want)
    assert got == want


class TestRightCommutation:
    def test_n1_is_the_defining_relation(self):
        report = verify_right_commutation(1, samples=10, seed=3)
        assert report.all_pass

    def test_degenerate_zero_parameters(self):
        # lambda_ji = 0 and x = 0: the rewrite of D_i D_j has no branches at
        # all, so D_i^3 D_j reduces to zero, consistent with the identity
        dp = simple_dp(2, 0, (0, 0))
        pres = encode_presentation(dp)
        lhs = pres.normal_form((1, 1, 1, 2)).scale(F(2) ** 3)
        assert lhs == NcPoly.zero()

    def test_explicit_n4_instance(self):
        lam_ij, lam_ji, x_i, x_j = F(2), F(3), F(5), F(7)
        dp = simple_dp(lam_ij, lam_ji, (x_i, x_j))
        pres = encode_presentation(dp)
        lhs = pres.normal_form((1,) * 4 + (2,)).scale(lam_ij ** 4)
        # independent reduction through the naive oracle
        oracle = naive_normal_form(pres, [(lam_ij ** 4, (1, 1, 1, 1, 2))])
        assert lhs.terms == oracle
        report = verify_right_commutation(4, samples=8, seed=11)
        assert report.all_pass

    def test_type1_and_type2_sweep(self):
        for dtype in (DiffusionType.TYPE1, DiffusionType.TYPE2):
            report = verify_right_commutation(6, samples=20, seed=1, dtype=dtype)
            assert report.all_pass, (dtype, report.counterexample)


class TestLeftCommutation:
    def test_statement_is_discrepant_at_n1(self):
        report = verify_left_commutation(3, samples=10, seed=0)
        assert report.status == "DISCREPANT"
        assert report.minimal_failing_n == 1
        assert report.counterexample is not None

    def test_residual_shape_at_n1(self):
        # the stated identity at n = 1 misses the relation by
        # (x_i + x_j)(D_i - D_j)
        lam_ij, lam_ji, x_i, x_j = F(2), F(3), F(5), F(7)
        dp = simple_dp(lam_ij, lam_ji, (x_i, x_j))
        pres = encode_presentation(dp)
        lhs = pres.normal_form((1, 2)).scale(lam_ij)
        rhs = pres.poly({(1, 1): lam_ji, (0, 1): x_j, (1, 0): -x_i})
        residual = lhs - rhs
        expected = pres.poly({(1, 0): x_i + x_j, (0, 1): -(x_i + x_j)})
        assert residual == expected

    def test_pure_power_law_passes(self):
        # with x = 0 both sides collapse to the q-commutation power law
        dp = simple_dp(F(2), F(3), (0, 0))
        pres = encode_presentation(dp)
        for n in (1, 2, 3, 4):
            lhs = pres.normal_form((1,) + (2,) * n).scale(F(2) ** n)
            assert lhs == pres.mono((1, n), F(3) ** n)


class TestJointCommutation:
    """``verify_commutation`` checks both laws in one pass over shared draws;
    each of its reports equals the old per-side loop,
    ``helpers.naive_commutation``."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dtype", list(DiffusionType))
    @pytest.mark.parametrize("field", LADDER_FIELDS, ids=["Q", "F7", "F_M31"])
    def test_reports_match_the_per_side_oracle(self, field, dtype, seed):
        # samples >= 2 reaches draws with lambda_ji != 0; n_max 1..6 covers
        # both statuses of the left law over F_7
        for n_max in range(1, 7):
            for samples in range(1, 10):
                reports = verify_commutation(n_max, samples, seed, dtype, field)
                for side, report in zip(("right", "left"), reports):
                    want = naive_commutation(side, n_max, samples, seed, dtype, field)
                    assert report == want, (n_max, samples, side)
                    if want.counterexample:     # the JSON key order too
                        assert list(report.counterexample) == list(want.counterexample)

    @pytest.mark.parametrize("dtype", list(DiffusionType))
    def test_a_dtype_string_checks_that_type(self, dtype):
        by_name = verify_commutation(3, 4, 0, dtype.value)
        assert all(report.dtype is dtype for report in by_name)
        assert by_name == verify_commutation(3, 4, 0, dtype)
        assert by_name == tuple(naive_commutation(side, 3, 4, 0, dtype, QQ)
                                for side in ("right", "left"))

    @pytest.mark.parametrize("dtype", list(DiffusionType))
    def test_each_wrapper_is_its_element_of_the_joint_call(self, dtype):
        right, left = verify_commutation(5, 6, 7, dtype, F7)
        assert (right.side, left.side) == ("right", "left")
        assert verify_right_commutation(5, 6, 7, dtype, F7) == right
        assert verify_left_commutation(5, 6, 7, dtype, F7) == left


class TestClassifier:
    def test_all_catalog_instances_match_and_are_pbw(self):
        for label in DIFFUSION_LABELS:
            instances = diffusion_class_instances(label)
            assert len(instances) >= 3
            for dp in instances:
                labels = classify_diffusion_3(dp)
                assert label in labels, (label, sorted(labels))
                assert encode_presentation(dp).check_pbw_overlaps().all_pass, label

    def test_a1_example(self):
        dp = DiffusionPresentation(3, DiffusionType.TYPE1,
                                   {(i, j): 2 for i in range(1, 4)
                                    for j in range(1, 4) if i != j}, (1, 2, 3))
        assert classify_diffusion_3(dp) == frozenset({"A_I"})

    def test_d_example_with_mismatched_differences(self):
        dp = DiffusionPresentation(3, DiffusionType.TYPE1,
                                   {(1, 2): 2, (2, 1): 1, (1, 3): 3, (3, 1): 5,
                                    (2, 3): 4, (3, 2): 1}, (0, 0, 0))
        assert classify_diffusion_3(dp) == frozenset({"D"})

    def test_overlapping_c1_d(self):
        dp = DiffusionPresentation(3, DiffusionType.TYPE1,
                                   {(1, 2): 2, (2, 1): 1, (1, 3): 3, (3, 1): 2,
                                    (2, 3): 4, (3, 2): 4}, (0, 0, 0))
        labels = classify_diffusion_3(dp)
        assert {"C_I", "D"} <= labels

    def test_empty_set_possible(self):
        dp = DiffusionPresentation(3, DiffusionType.TYPE1,
                                   {(1, 2): 1, (1, 3): 2, (2, 3): 3}, (1, 1, 1))
        assert classify_diffusion_3(dp) == frozenset()


class TestCrosswalk:
    def test_mappings(self):
        assert crosswalk_to_3d("C_I") == "2e"
        assert crosswalk_to_3d("D") == "1"
        assert crosswalk_to_3d("A_I") == "UNRESOLVED"
        assert crosswalk_to_3d("B_I") == "UNRESOLVED"
        assert crosswalk_to_3d("B_II") == "NOT_SKEW"
        with pytest.raises(IndexRangeError):
            crosswalk_to_3d("Z")

    def test_class_d_reindexes_to_class_1_shape(self):
        dp = diffusion_class_instances("D")[0]
        pres = encode_presentation(dp)
        flipped = relabel(pres, {1: 3, 2: 2, 3: 1}, Ordering.ASCENDING)
        assert classify_3d(flipped).label == "1"
        # new generator mapping[g] keeps the name of g
        assert pres.names == ("D1", "D2", "D3") and flipped.names == ("D3", "D2", "D1")

    def test_class_c1_matches_class_2e_shape(self):
        # normalized member: lambda_12 = lambda_21, lambda_13 = lambda_31 = x_1;
        # sending (D_3, D_1, D_2) -> (x, y, z) lands exactly on the 2e shape
        # (the catalog classes are stated up to isomorphism, so the class
        # identification includes this generator matching).
        dp = DiffusionPresentation(3, DiffusionType.TYPE1,
                                   {(1, 2): 2, (2, 1): 2, (1, 3): 3, (3, 1): 3,
                                    (2, 3): 5, (3, 2): 7}, (3, 0, 0))
        assert "C_I" in classify_diffusion_3(dp)
        pres = encode_presentation(dp)
        flipped = relabel(pres, {1: 2, 2: 3, 3: 1}, Ordering.ASCENDING)
        cls = classify_3d(flipped)
        assert cls.label == "2e"
        assert cls.parameters["beta"] == F(7, 5)


class TestMatrices:
    def test_identity_sigma(self):
        m = build_aut_matrices(identity_sigma(), F(2), F(3))
        assert det(QQ, [list(r) for r in m.a_matrix]) == 1
        assert m.l1 == (F(0), F(-3), F(0), F(1))
        assert m.l2 == (F(2), F(0), F(1), F(0))

    def test_random_invertible(self):
        rng = random.Random(5)
        coeffs = random_sigma(rng)
        m = build_aut_matrices(coeffs, F(2), F(3))
        assert det(QQ, [list(r) for r in m.a_matrix]) != 0

    def test_theta_determinant_identity_on_identity_sigma(self):
        m = build_aut_matrices(identity_sigma(), F(2), F(3))
        det_theta = det(QQ, [list(r) for r in m.theta])
        det_l = det(QQ, [list(r) for r in m.l_matrix])
        assert det_theta == -det_l

    def test_determinant_identities_sweep(self):
        report = verify_determinant_identities(samples=20, seed=0)
        assert report.all_pass

    @pytest.mark.parametrize("field", [F7, F_M31], ids=["F7", "F_M31"])
    def test_determinant_identities_sweep_over_prime_fields(self, field):
        report = verify_determinant_identities(samples=20, seed=0, field=field)
        assert report.samples == 20 and report.all_pass

    @pytest.mark.parametrize("name", ["gamma", "theta"])
    def test_a_perturbed_entry_fails_every_sample(self, name, monkeypatch):
        # a det that returned zero for every matrix would pass the unperturbed
        # sweep, both sides agreeing; here one side moves in every sample
        build = diffusion.build_aut_matrices

        def perturbed(*args, **kwargs):
            m = build(*args, **kwargs)
            rows = [list(r) for r in getattr(m, name)]
            rows[1][2] += 1
            return m._replace(**{name: tuple(map(tuple, rows))})

        monkeypatch.setattr(diffusion, "build_aut_matrices", perturbed)
        report = verify_determinant_identities(samples=20, seed=0)
        assert [(f[0], f[1]) for f in report.failures] == [(name, s) for s in range(20)]

    def test_degenerate_duplicate_columns(self):
        img = (F(1), F(2), F(3), F(4), F(0))
        coeffs = SigmaCoefficients(img, img, (F(0), F(0), F(1), F(0), F(0)),
                                   (F(0), F(0), F(0), F(1), F(0)))
        m = build_aut_matrices(coeffs, F(2), F(3))
        assert det(QQ, [list(r) for r in m.a_matrix]) == 0
        assert det(QQ, [list(r) for r in m.gamma]) == 0


class TestSigmaConstants:
    def test_identity_sigma_zero(self):
        m = build_aut_matrices(identity_sigma(), F(2), F(3))
        got = solve_sigma_constant_terms(m)
        assert got.values == (F(0),) * 4 and got.unique

    def test_random_invertible_zero(self):
        rng = random.Random(7)
        for _ in range(20):
            coeffs = random_sigma(rng)
            lam12 = QQ.random_nonzero(rng)
            lam21 = QQ.random(rng)
            m = build_aut_matrices(coeffs, lam12, lam21)
            if det(QQ, [list(r) for r in m.a_matrix]) == 0:
                continue
            got = solve_sigma_constant_terms(m)
            assert got.values == (F(0),) * 4 and got.unique

    def test_singular_rejected(self):
        img = (F(1), F(0), F(0), F(0), F(0))
        coeffs = SigmaCoefficients(img, img, img, img)
        m = build_aut_matrices(coeffs, F(2), F(3))
        with pytest.raises(SingularMatrixError):
            solve_sigma_constant_terms(m)


def _with_span_condition(rng, u1, u2, v1, v2, lam12=F(2), lam21=F(3)):
    """Sigma coefficients with S, H inside span(L1, L2) and invertible A."""
    l1 = (F(0), -lam21, F(0), F(1))
    l2 = (lam12, F(0), F(1), F(0))
    s = tuple(u1 * a + u2 * b for a, b in zip(l1, l2))
    h = tuple(v1 * a + v2 * b for a, b in zip(l1, l2))
    while True:
        d1 = tuple(QQ.random(rng) for _ in range(4)) + (F(0),)
        d2 = tuple(QQ.random(rng) for _ in range(4)) + (F(0),)
        coeffs = SigmaCoefficients(d1, d2, s + (F(0),), h + (F(0),))
        m = build_aut_matrices(coeffs, lam12, lam21)
        if det(QQ, [list(r) for r in m.a_matrix]):
            return m


class TestDerivationConstants:
    def test_exact_l1_l2(self):
        rng = random.Random(2)
        m = _with_span_condition(rng, F(1), F(0), F(0), F(1))
        report = check_derivation_constant_terms(m)
        assert report.status == "ZERO_CONSTANTS"
        assert report.constants == (F(0),) * 4

    def test_singular_degree_one_matrix(self):
        # S = L2 and H = L1 meet the span hypothesis; equal D-images make A singular
        d = (F(1), F(1), F(0), F(0), F(0))
        coeffs = SigmaCoefficients(d, d, (F(2), F(0), F(1), F(0), F(0)),
                                   (F(0), F(-3), F(0), F(1), F(0)))
        report = check_derivation_constant_terms(build_aut_matrices(coeffs, F(2), F(3)))
        assert report == ("SINGULAR", None)

    def test_generic_span_fails_hypothesis(self):
        rng = random.Random(3)
        coeffs = random_sigma(rng)
        m = build_aut_matrices(coeffs, F(2), F(3))
        report = check_derivation_constant_terms(m)
        assert report.status == "HYPOTHESIS_NOT_MET"

    def test_combination_span(self):
        rng = random.Random(4)
        m = _with_span_condition(rng, F(2), F(3), F(1), F(-1))
        report = check_derivation_constant_terms(m)
        assert report.status == "ZERO_CONSTANTS"
        assert report.constants == (F(0),) * 4

    def test_ten_random_span_instances(self):
        rng = random.Random(6)
        for _ in range(10):
            u1, u2 = QQ.random_nonzero(rng), QQ.random(rng)
            v1, v2 = QQ.random(rng), QQ.random_nonzero(rng)
            if u1 * v2 - u2 * v1 == 0:
                continue
            m = _with_span_condition(rng, u1, u2, v1, v2)
            report = check_derivation_constant_terms(m)
            assert report.status == "ZERO_CONSTANTS"


def test_catalog_instances_over_a_prime_field():
    from skewsmooth.scalars import PrimeField
    field = PrimeField(101)
    for label in DIFFUSION_LABELS:
        over_q = diffusion_class_instances(label)
        over_p = diffusion_class_instances(label, field)
        assert len(over_p) == len(over_q) == 3
        for q, p in zip(over_q, over_p):
            assert p.field == field
            assert p.lambdas == {k: field.coerce(v) for k, v in q.lambdas.items()}
            assert p.x == tuple(field.coerce(v) for v in q.x)
            assert label in classify_diffusion_3(p)
