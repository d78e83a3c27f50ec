import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from skewsmooth.algebra import Presentation
from skewsmooth.catalog import from_display, three_dim_class, three_dim_grid
from skewsmooth.endos import commute, respects_relations
from skewsmooth.errors import IndexRangeError, NonDiagonalTailError, ZeroSlopeError
from skewsmooth.linalg import solve_affine
from skewsmooth.scalars import QQ, PrimeField
from skewsmooth.smoothness import (SolutionStatus, Verdict, assemble_constant_checks,
                                   classify_3d, decide, encode_ore_extension,
                                   obstruction_check, ore_closed_form_conditions,
                                   solve_diagonal_unknowns, THREE_DIM_CLASSES, _display_form)

from helpers import naive_classify_3d, random_nonzero_rational


class TestConstantChecks:
    def test_commutative_all_hold(self):
        pres = Presentation.commutative(QQ, 4)
        checks = assemble_constant_checks(pres)
        assert checks and all(c.holds for c in checks)

    def test_class_3b_all_hold(self):
        pres = three_dim_class("3b", alpha=2, beta=3, b=7)
        assert all(c.holds for c in assemble_constant_checks(pres))

    def test_distinct_coefficients_with_constant_fail_eq4(self):
        # yz-2zy=0, zx-3xz=7, xy-5yx=0: the constant relation between x and z
        # cannot survive the twist for y when alpha != gamma; the eq4 constant
        # equation (a_12 - a_23) e_13 = (5 - 2)(-7/3) = -7 pinpoints it.
        pres = from_display(QQ, 2, 3, 5, mu={0: 7})
        checks = assemble_constant_checks(pres)
        failed = [c for c in checks if not c.holds]
        assert [c.eq_id for c in failed] == ["eq4.3(k=2,j=1,t=3)"]
        assert failed[0].residual == -7

    def test_rejects_third_generator_tails(self):
        pres = three_dim_class("2a", beta=3)
        with pytest.raises(NonDiagonalTailError):
            assemble_constant_checks(pres)

    def test_report_order_is_deterministic(self):
        pres = three_dim_class("3b", alpha=2, beta=3, b=7)
        ids = [c.eq_id for c in assemble_constant_checks(pres)]
        assert ids == sorted(ids, key=lambda _: 0) and ids[0].startswith("eq3")


class TestDiagonalSolver:
    def test_commutative_parametric_witness(self):
        pres = Presentation.commutative(QQ, 3)
        sol = solve_diagonal_unknowns(pres, 2)
        assert sol.status is SolutionStatus.PARAMETRIC
        assert sol.witness == (QQ.one, QQ.zero)

    def test_tabulated_values_admissible(self):
        # in a constant-bearing instance the system pins a_11 = 1/beta, b_11 = 0
        pres = three_dim_class("3b", alpha=2, beta=3, b=7)
        sol = solve_diagonal_unknowns(pres, 1)
        assert sol.contains(F(1, 3), F(0))
        assert sol.witness == (F(1, 3), F(0))
        assert sol.status is SolutionStatus.UNIQUE

    def test_engineered_instance_against_independent_solve(self):
        # n=2, a_12 = 1, b_12 = 1, c_12 = 0, e_12 = 1; solve the k=2 system
        # independently from the printed equations by 2x2 elimination.
        pres = Presentation.skew(QQ, 2, {(1, 2): (1, {1: 1}, 1)})
        sol = solve_diagonal_unknowns(pres, 2)
        # independent assembly: eq1.1  b22*(a12-1) + b12*(a22-1) = 0
        #                       eq1.2  (a22*a12-1)*e12 + (a12*b22-b12)*c12 = 0
        #                       comm5  b22*(1-a12) = b12*(a22-1)
        rows = [[F(1), F(0)], [F(1), F(0)], [F(-1), F(0)]]
        rhs = [F(1), F(1), F(-1)]
        oracle = solve_affine(QQ, rows, rhs)
        assert not oracle.is_empty
        assert sol.status is SolutionStatus.PARAMETRIC
        assert sol.witness[0] == F(1)
        assert sol.contains(*sol.witness)
        # both describe the line a22 = 1 with b22 free
        assert oracle.particular[0] == F(1) and len(oracle.homogeneous) == 1

    def test_contradictory_constraints_empty(self):
        # j=1 forces a_22 = 1 through the tail, j=3 forces a_22 = 2 through
        # the constant; the k=2 system is infeasible.
        pres = Presentation.skew(QQ, 3, {
            (1, 2): (1, {1: 1}, 0),
            (2, 3): (2, {}, 1),
        })
        sol = solve_diagonal_unknowns(pres, 2)
        assert sol.status is SolutionStatus.EMPTY

    def test_zero_projection_is_empty(self):
        # witness picker: a line whose a-projection is exactly {0} is rejected
        from skewsmooth import linalg
        sol_set = linalg.AffineSolutionSet((F(0), F(0)), ((F(0), F(1)),))
        # simulate through the public op on a crafted system: u = 0 directly
        rows = [[F(1), F(0)]]
        rhs = [F(0)]
        got = solve_affine(QQ, rows, rhs)
        assert got.particular[0] == 0 and got.homogeneous == ((F(0), F(1)),)
        assert sol_set.dimension == 1


@st.composite
def diagonal_presentations(draw):
    """Ascending presentations with diagonal tails, n = 1..4, over Q and F_7."""
    field = draw(st.sampled_from([QQ, PrimeField(7)]))
    n = draw(st.integers(1, 4))
    small = st.sampled_from([0, 0, 1, -1, 2, 3])
    relations = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if draw(st.booleans()):
                relations[(i, j)] = (draw(st.sampled_from([1, 1, 2, -1, 3])),
                                     {i: draw(small), j: draw(small)}, draw(small))
    return Presentation.skew(field, n, relations)


@settings(max_examples=300, deadline=None)
@given(diagonal_presentations())
def test_witness_rule(pres):
    """The witness solves the system with a_kk != 0; a_kk = 1 whenever some
    solution has it; and (1, 0) whenever that solves the system."""
    one, zero = pres.field.one, pres.field.zero
    for k in range(1, pres.n + 1):
        sol = solve_diagonal_unknowns(pres, k)
        if sol.witness is None:
            found = sol.solution_set
            assert found.is_empty or (not found.particular[0]
                                      and not any(du for du, _ in found.homogeneous))
            continue
        u, v = sol.witness
        assert u and sol.contains(u, v)
        with_one = solve_affine(pres.field, [list(co) for _, co, _ in sol.rows] + [[one, zero]],
                                [rhs for _, _, rhs in sol.rows] + [one])
        if not with_one.is_empty:
            assert u == one
        if sol.contains(one, zero):
            assert sol.witness == (one, zero)


class TestObstruction:
    def test_class_5a_found(self):
        pres = three_dim_class("5a")
        assert obstruction_check(pres, 3) == (1, 2, 3)

    def test_diagonal_tails_none(self):
        pres = three_dim_class("2b", beta=3, b=7)
        assert obstruction_check(pres, 3) is None

    def test_class4_with_linear_tail_found(self):
        pres = three_dim_class("4", alpha=2, a_vec=(1, 0, 0), b_vec=(0, 0, 0))
        assert obstruction_check(pres, 3) == (2, 3, 1)

    def test_gkdim_mismatch_suppresses(self):
        pres = three_dim_class("5a")
        assert obstruction_check(pres, 2) is None


class TestDecide:
    def test_catalog_partition(self):
        for entry in three_dim_grid():
            got = decide(entry.presentation, 3)
            assert got.verdict is entry.expected, (entry.label, entry.params, got.reasons)

    def test_witness_is_certified(self):
        for entry in three_dim_grid():
            got = decide(entry.presentation, 3)
            if got.verdict is Verdict.SMOOTH_SUFFICIENT:
                family = got.witness
                for a in range(len(family)):
                    for b in range(a + 1, len(family)):
                        assert commute(family[a], family[b])
                for nu in family:
                    assert respects_relations(nu, entry.presentation).all_pass

    def test_5e_split(self):
        assert decide(three_dim_class("5e", a=0), 3).verdict is Verdict.SMOOTH_SUFFICIENT
        v = decide(three_dim_class("5e", a=1), 3)
        assert v.verdict is Verdict.INCONCLUSIVE
        assert any("eq5.3" in r for r in v.reasons)

    def test_2c_not_smooth(self):
        assert decide(three_dim_class("2c", beta=3), 3).verdict is Verdict.NOT_SMOOTH

    def test_off_diagonal_tail_with_wrong_gkdim_is_inconclusive(self):
        v = decide(three_dim_class("5a"), 2)
        assert v.verdict is Verdict.INCONCLUSIVE

    @pytest.mark.parametrize("gkdim", [-3, -1, 4, 7])
    def test_gkdim_outside_zero_to_n_is_rejected(self, gkdim):
        with pytest.raises(IndexRangeError,
                           match=f"^gkdim must be between 0 and n = 3, not {gkdim}$"):
            decide(three_dim_class("5a"), gkdim)

    @pytest.mark.parametrize("gkdim, verdict", [(0, Verdict.INCONCLUSIVE),
                                                (3, Verdict.NOT_SMOOTH)])
    def test_gkdim_bounds_are_accepted(self, gkdim, verdict):
        assert decide(three_dim_class("5a"), gkdim).verdict is verdict

    def test_rescaling_invariance(self):
        # simultaneous x_i -> mu_i x_i with tails rescaled accordingly
        rng = random.Random(17)
        base_cases = [("2b", dict(beta=3, b=7)), ("2e", dict(beta=2, a=1)),
                      ("5e", dict(a=1)), ("3b", dict(alpha=2, beta=3, b=1))]
        for label, params in base_cases:
            pres = three_dim_class(label, **params)
            expected = decide(pres, 3).verdict
            for _ in range(5):
                mus = [random_nonzero_rational(rng) for _ in range(3)]
                relations = {}
                for (i, j), rule in pres.pairs.items():
                    vec, const = pres.tail_vector(i, j)
                    scale = mus[i - 1] * mus[j - 1]
                    tail = {g: vec[g - 1] * scale / mus[g - 1]
                            for g in range(1, 4) if vec[g - 1]}
                    relations[(i, j)] = (rule.quad, tail, const * scale)
                rescaled = Presentation.skew(QQ, 3, relations)
                assert decide(rescaled, 3).verdict is expected

    def test_prime_field_decide(self):
        pres = three_dim_class("2b", field=PrimeField(7), beta=3, b=5)
        v = decide(pres, 3)
        assert v.verdict is Verdict.SMOOTH_SUFFICIENT


class TestOre:
    def test_nonzero_shift_case(self):
        verdict = decide(encode_ore_extension(2, (2, 3), (1, 1), (0, 0)), 3)
        assert verdict.verdict is Verdict.SMOOTH_SUFFICIENT
        assert verdict.is_smooth_sufficient
        assert ore_closed_form_conditions(2, (2, 3), (1, 1), (0, 0))[0]

    def test_balanced_derivation_case_true_condition(self):
        # c_i (b_k - 1) = c_k (b_i - 1): (3)(3) = (9)(1)
        verdict = decide(encode_ore_extension(2, (2, 4), (0, 0), (3, 9)), 3)
        assert verdict.verdict is Verdict.SMOOTH_SUFFICIENT

    def test_balanced_derivation_printed_condition_disagrees(self):
        # the printed closed form accepts c = (3, -9) but the twists for x_1
        # and x_2 then fail to commute on y, so the general decision refuses.
        verdict = decide(encode_ore_extension(2, (2, 4), (0, 0), (3, -9)), 3)
        assert ore_closed_form_conditions(2, (2, 4), (0, 0), (3, -9))[1]
        assert verdict.verdict is Verdict.INCONCLUSIVE
        assert verdict.is_smooth_sufficient is False
        assert "comm.3(k=3,j=1,t=2) residual -9/4" in verdict.reasons

    def test_polynomial_ring(self):
        verdict = decide(encode_ore_extension(1, (1,), (0,), (0,)), 2)
        assert verdict.verdict is Verdict.SMOOTH_SUFFICIENT

    def test_zero_slope_rejected(self):
        with pytest.raises(ZeroSlopeError):
            encode_ore_extension(2, (0, 1), (0, 0), (0, 0))

    def test_conditions_evaluated_as_given(self):
        assert ore_closed_form_conditions(2, (2, 3), (1, 1), (0, 0)) == (True, False)
        assert ore_closed_form_conditions(2, (2, 4), (0, 0), (3, -9)) == (False, True)
        assert ore_closed_form_conditions(2, (2, 4), (0, 0), (3, 9)) == (False, False)
        assert ore_closed_form_conditions(2, (2, 4), (1, 0), (0, 0)) == (False, False)


class TestClassify:
    def test_quasi_commutative(self):
        cls = classify_3d(from_display(QQ, 2, 3, 5))
        assert cls.label == "1" and cls.header_ok

    def test_cardinality_flag(self):
        cls = classify_3d(from_display(QQ, 2, 3, 2))
        assert cls.label == "1" and not cls.header_ok

    def test_2b_example(self):
        pres = from_display(QQ, 1, 3, 1, lam={3: 1}, mu={0: 1}, nu={1: 1})
        assert classify_3d(pres).label == "2b"

    def test_5a_example(self):
        assert classify_3d(three_dim_class("5a")).label == "5a"

    def test_all_catalog_labels_roundtrip(self):
        # the matcher is first-match over overlapping shapes (2e at a=1 equals
        # 2b at b=0, zero tails collapse onto class 1), so the faithful check
        # is: rebuilding from the matched label and parameters, in the grid's
        # field, reproduces the presentation exactly.
        for field in (QQ, PrimeField(7), PrimeField(101)):
            for entry in three_dim_grid(field):
                got = classify_3d(entry.presentation)
                assert got.label != "NONE", (field, entry.label, entry.params)
                kwargs = {}
                for key, value in got.parameters.items():
                    if key in ("alpha", "beta", "gamma", "a", "b"):
                        kwargs[key] = value
                if got.label == "4":
                    kwargs = {"alpha": got.parameters["alpha"],
                              "a_vec": tuple(got.parameters[f"a{i}"] for i in (1, 2, 3)),
                              "b_vec": tuple(got.parameters[f"b{i}"] for i in (1, 2, 3))}
                rebuilt = three_dim_class(got.label, field, **kwargs)
                assert rebuilt == entry.presentation, \
                    (field, entry.label, got.label, entry.params)

    def test_no_match(self):
        pres = from_display(QQ, 2, 3, 5, lam={1: 1}, mu={2: 1}, nu={3: 1})
        assert classify_3d(pres).label == "NONE"


@st.composite
def displays_near_rows(draw):
    """Display data on or next to one row of ``THREE_DIM_CLASSES``.

    Uniform draws almost never land on 5a or 5d, so each draw starts from a
    row: every slot keeps the row's constant, or the one value drawn for its
    name, except that about half the draws give up to two slots a fresh
    value.  Values come
    from {0, 1, -1, 2, 3} or at random.
    """
    field = draw(st.sampled_from([QQ, PrimeField(5), PrimeField(7), PrimeField(101)]))
    _, shape, _ = draw(st.sampled_from(THREE_DIM_CLASSES))
    scalar = st.one_of(st.sampled_from([0, 1, -1, 2, 3]),
                       st.fractions(-9, 9, max_denominator=9) if field is QQ
                       else st.integers(0, field.p - 1))
    fresh = draw(st.one_of(st.just(set()), st.sets(st.integers(0, 14), max_size=2)))
    names = {}
    slots = list(shape[:3]) + [vec.get(k, 0) for vec in shape[3:] for k in range(4)]
    values = []
    for i, slot in enumerate(slots):
        if i in fresh:
            values.append(draw(scalar))
        elif isinstance(slot, str):
            if slot not in names:
                names[slot] = draw(scalar)
            values.append(names[slot])
        else:
            values.append(slot)
    alpha, beta, gamma = values[:3]
    lam, mu, nu = ({k: values[3 + 4 * v + k] for k in range(4)} for v in range(3))
    return field, alpha, beta, gamma, lam, mu, nu


@settings(max_examples=1000, deadline=None)
@given(displays_near_rows())
def test_classify_3d_matches_the_if_chain(data):
    """The table matcher agrees with the hand-written chain of the fifteen
    classes on label, parameters and header flag, and the display read back
    from the presentation is the display it was built from."""
    field, alpha, beta, gamma, lam, mu, nu = data
    assume(all(field.coerce(v) for v in (alpha, beta, gamma)))
    pres = from_display(field, alpha, beta, gamma, lam, mu, nu)
    expected = tuple(map(field.coerce, (alpha, beta, gamma))) + tuple(
        [field.coerce(vec[k]) for k in range(4)] for vec in (lam, mu, nu))
    assert _display_form(pres) == expected
    got, want = classify_3d(pres), naive_classify_3d(pres)
    event(f"label {want.label}")
    assert got.label == want.label
    assert [(k, str(v)) for k, v in got.parameters.items()] == \
        [(k, str(v)) for k, v in want.parameters.items()]
    assert got.header_ok == want.header_ok
