"""The shortcuts that skip known work, each against an independent oracle over
Q, F_5 and F_101: constant factors in ``multiply``, the per-pair tail table,
the shift-compatibility test in ``commute``, the memoised powers of a twist,
and the per-context basis sorts and monomial lists.  Also what keeps the fixed
cost of a CLI call down: no module-level table that grows, no
``dataclasses`` import, no module loaded that the subcommand never runs, and
slotted records that still refuse assignment and copy and pickle equal, with
the refusal and pickling in one base class."""

import ast
import copy
import importlib
import os
import pathlib
import pickle
import pkgutil
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewsmooth
from skewsmooth import (algebra, calculus, catalog, cli, diffusion, dsl, endos, errors, frozen,
                        linalg, scalars, smoothness)
from skewsmooth.algebra import NcPoly, Ordering, PairRule, Presentation
from skewsmooth.calculus import (CalculusContext, DiffForm, d_squared_failures,
                                 integral_form_coefficients, kernel_of_d_bounded,
                                 _monomials_up_to)
from skewsmooth.catalog import three_dim_class
from skewsmooth.diffusion import DiffusionPresentation, DiffusionType, SigmaCoefficients
from skewsmooth.endos import AffineEndo, _univariate_image, commute
from skewsmooth.errors import MismatchedArityError, NonDiagonalTailError
from skewsmooth.frozen import Frozen
from skewsmooth.scalars import QQ, FpElement, PrimeField
from skewsmooth.smoothness import Verdict, decide

from helpers import compose_commute, naive_basis_sort, naive_product, naive_tail_vector

FIELDS = [QQ, PrimeField(5), PrimeField(101)]
NONZERO = [1, -1, 2, 3, -2, 4, 7]       # nonzero in every field of FIELDS
VALUES = NONZERO + [0, 0, 0]


@st.composite
def skew_presentations(draw, max_n=3, tails=True):
    """An ASCENDING presentation with random quads and (optionally) linear
    tails, on any generators, over one of ``FIELDS``; not necessarily PBW."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, max_n))
    relations = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            tail = {g: draw(st.sampled_from(VALUES)) for g in range(1, n + 1)} \
                if tails else {}
            const = draw(st.sampled_from(VALUES)) if tails else 0
            relations[(i, j)] = (draw(st.sampled_from(NONZERO)), tail, const)
    return Presentation.skew(field, n, relations)


@st.composite
def polys(draw, pres, max_terms=3, max_degree=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = [0] * pres.n
        for _ in range(draw(st.integers(0, max_degree))):
            exps[draw(st.integers(0, pres.n - 1))] += 1
        terms[tuple(exps)] = draw(st.sampled_from(VALUES))
    return pres.poly(terms)


class TestConstantFactors:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_constant_zero_and_unit_factors_on_either_side(self, data):
        pres = data.draw(skew_presentations())
        p = data.draw(polys(pres))
        constants = [pres.scalar(data.draw(st.sampled_from(VALUES))),
                     pres.scalar(0), pres.one(), NcPoly.zero()]
        for c in constants:
            assert pres.multiply(p, c).terms == naive_product(pres, p, c)
            assert pres.multiply(c, p).terms == naive_product(pres, c, p)
        # both factors constant: the left one scales the right one
        two, three = pres.scalar(2), pres.scalar(3)
        assert pres.multiply(two, three) == pres.scalar(6)

    def test_constant_factor_still_checks_exponents(self):
        pres = Presentation.commutative(QQ, 2)
        bad = NcPoly({(1, 0, 0): QQ.one})
        for args in ((pres.one(), bad), (bad, pres.one())):
            with pytest.raises(MismatchedArityError):
                pres.multiply(*args)

    def test_scaled_product_is_a_new_polynomial(self):
        pres = Presentation.commutative(QQ, 2)
        q = pres.poly({(1, 0): 2, (0, 1): 3})
        got = pres.multiply(pres.one(), q)
        assert got == q and got.terms is not q.terms


class TestTailTable:
    @settings(max_examples=100, deadline=None)
    @given(skew_presentations())
    def test_accessors_match_fresh_tails(self, pres):
        for _ in range(2):      # the second round reads the table
            for (i, j) in pres.pairs:
                vec, const = naive_tail_vector(pres, i, j)
                assert pres.tail_vector(i, j) == (vec, const)
                assert (pres.b(i, j), pres.c(i, j), pres.e(i, j)) == \
                    (vec[i - 1], vec[j - 1], const)

    def test_tail_vector_is_a_fresh_list(self):
        pres = three_dim_class("2b", beta=3, b=7)
        vec, _ = pres.tail_vector(1, 3)
        vec.append(pres.field.one)
        vec[0] = pres.field.one
        assert pres.tail_vector(1, 3) == tuple(naive_tail_vector(pres, 1, 3))
        assert pres.tail_vector(1, 3)[0] is not pres.tail_vector(1, 3)[0]

    def test_non_linear_tail_raises_on_every_call(self):
        pres = Presentation(QQ, 3, Ordering.ASCENDING,
                            {(1, 2): PairRule(QQ.one, ((QQ.one, (1, 3)),))}, central={3})
        for _ in range(2):
            for accessor in (pres.tail_vector, pres.b, pres.c, pres.e):
                with pytest.raises(NonDiagonalTailError):
                    accessor(1, 2)


@st.composite
def endo_pairs(draw):
    """Two twists of one arity; on each generator the second shift is made
    compatible with the first, so the pair commutes, unless the draw says
    otherwise."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 4))
    slopes = [tuple(field.coerce(draw(st.sampled_from(NONZERO + [1, 1]))) for _ in range(n))
              for _ in range(2)]
    shifts1 = tuple(field.coerce(draw(st.sampled_from(VALUES))) for _ in range(n))
    shifts2 = []
    for a1, b1, a2 in zip(slopes[0], shifts1, slopes[1]):
        if a1 != 1 and draw(st.booleans()):
            shifts2.append(b1 * (a2 - 1) / (a1 - 1))
        else:
            shifts2.append(field.coerce(draw(st.sampled_from(VALUES))))
    return AffineEndo(slopes[0], shifts1), AffineEndo(slopes[1], tuple(shifts2))


class TestCommute:
    @settings(max_examples=300, deadline=None)
    @given(endo_pairs())
    def test_matches_the_composite_definition(self, pair):
        e1, e2 = pair
        assert commute(e1, e2) == compose_commute(e1, e2)
        assert commute(e2, e1) == compose_commute(e2, e1)
        assert commute(e1, e1)

    def test_commuting_and_non_commuting_pairs(self):
        for field in FIELDS:
            c = field.coerce
            scale = AffineEndo((c(2), c(3)), (c(0), c(0)))
            shift = AffineEndo((c(1), c(1)), (c(1), c(0)))
            other = AffineEndo((c(1), c(1)), (c(0), c(4)))
            # b2 (a1 - 1) = b1 (a2 - 1) fails on x1 for (scale, shift)
            assert not commute(scale, shift) and not compose_commute(scale, shift)
            assert commute(shift, other) and compose_commute(shift, other)
            # x1 -> 3 x1 + 2 and x1 -> 4 x1 + 3 commute: 3 * 2 = 2 * 3
            e1 = AffineEndo((c(3), c(1)), (c(2), c(0)))
            e2 = AffineEndo((c(4), c(1)), (c(3), c(0)))
            assert commute(e1, e2) and compose_commute(e1, e2)

    def test_arity_mismatch_raises(self):
        e1 = AffineEndo((QQ.one,), (QQ.zero,))
        e2 = AffineEndo((QQ.one, QQ.one), (QQ.zero, QQ.zero))
        with pytest.raises(MismatchedArityError):
            commute(e1, e2)


def expanded_power(field, slope, shift, power) -> dict:
    """(slope x + shift)^power by repeated multiplication."""
    out = {0: field.one}
    for _ in range(power):
        nxt = {e + 1: c * slope for e, c in out.items()}
        if shift:
            linalg.add_into(nxt, {e: c * shift for e, c in out.items()})
        out = {e: c for e, c in nxt.items() if c}
    return out


class TestPowerImage:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_the_univariate_image(self, data):
        field = data.draw(st.sampled_from(FIELDS))
        n = data.draw(st.integers(1, 3))
        slopes = tuple(field.coerce(data.draw(st.sampled_from(NONZERO))) for _ in range(n))
        shifts = tuple(field.coerce(data.draw(st.sampled_from(VALUES))) for _ in range(n))
        endo = AffineEndo(slopes, shifts)
        asked = data.draw(st.lists(st.tuples(st.integers(1, n), st.integers(0, 12)),
                                   min_size=1, max_size=20))
        for g, power in asked:      # repeats read the memo
            want = _univariate_image(slopes[g - 1], shifts[g - 1], power)
            assert endo.power_image(g, power) == want
            assert want == expanded_power(field, slopes[g - 1], shifts[g - 1], power)

    def test_vanishing_binomials_over_f5(self):
        field = PrimeField(5)
        endo = AffineEndo((field.coerce(2), field.one), (field.coerce(3), field.one))
        assert endo.power_image(2, 5) == {5: field.one, 0: field.one}
        assert endo.power_image(1, 5) == {5: field.coerce(2), 0: field.coerce(3)}
        assert endo.power_image(1, 10) == {10: field.coerce(4), 5: field.coerce(2),
                                           0: field.coerce(4)}
        for g, power in ((1, 5), (2, 5), (1, 10), (2, 25)):
            assert endo.power_image(g, power) == expanded_power(
                field, endo.slopes[g - 1], endo.shifts[g - 1], power)

    def test_memo_is_outside_equality_hash_and_repr(self):
        fresh = AffineEndo((QQ.coerce(2),), (QQ.one,))
        used = AffineEndo((QQ.coerce(2),), (QQ.one,))
        used.power_image(1, 4)
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)


@st.composite
def quasi_commutative_contexts(draw, max_n=5):
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(2, max_n))
    relations = {(i, j): (draw(st.sampled_from(NONZERO)), {}, 0)
                 for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    pres = Presentation.skew(field, n, relations)
    identity = AffineEndo((field.one,) * n, (field.zero,) * n)
    return CalculusContext(pres, [identity] * n)


class TestContextTables:
    @settings(max_examples=150, deadline=None)
    @given(quasi_commutative_contexts(), st.data())
    def test_cached_sort_matches_the_bubble_sort(self, ctx, data):
        words = data.draw(st.lists(st.lists(st.integers(1, ctx.n), max_size=ctx.n + 1),
                                   min_size=1, max_size=12))
        for word in words + words:      # the second pass reads the cache
            assert ctx.basis_sort(word) == naive_basis_sort(ctx.pres, word), word

    def test_monomials_are_built_once_per_bound(self):
        ctx = CalculusContext(Presentation.commutative(QQ, 3),
                              [AffineEndo((QQ.one,) * 3, (QQ.zero,) * 3)] * 3)
        for bound in (1, 4, 6):
            assert list(ctx._monomials(bound)) == _monomials_up_to(3, bound)
            assert ctx._monomials(bound) is ctx._monomials(bound)

    def test_two_contexts_share_no_table(self):
        pres = three_dim_class("2b", beta=3, b=7)
        verdict = decide(pres, 3)
        assert verdict.verdict is Verdict.SMOOTH_SUFFICIENT
        first, second = (CalculusContext(pres, verdict.witness) for _ in range(2))
        for ctx in (first, second):
            d_squared_failures(ctx, 5)
            kernel_of_d_bounded(ctx, 5)
            integral_form_coefficients(ctx)
            ctx.d(pres.mono((1, 2, 1)))
        for name in ("_sort_cache", "_monomial_cache", "_ladders", "_composite_cache"):
            a, b = getattr(first, name), getattr(second, name)
            assert a and a == b and a is not b, name
        assert first._monomials(5) is not second._monomials(5)


def module_containers():
    """Size of every module-level dict, list and set of the package."""
    sizes = {}
    for mod in (skewsmooth, algebra, calculus, catalog, cli, diffusion, dsl, endos,
                errors, frozen, linalg, scalars, smoothness):
        for name, value in vars(mod).items():
            if isinstance(value, (dict, list, set)) and not name.startswith("__"):
                sizes[(mod.__name__, name)] = len(value)
    return sizes


def test_no_module_level_table_grows(tmp_path, capsys):
    plane = tmp_path / "plane.alg"
    plane.write_text("kind: skew\nfield: Q\nn: 3\nx1*x2 - x2*x1 = x1\n")
    diffusion_file = tmp_path / "diffusion.alg"
    diffusion_file.write_text("kind: diffusion1\nfield: Q\nn: 3\nlambda 1 2 = 2\n"
                              "lambda 1 3 = 3\nlambda 2 3 = 4\nx 1 = 1\nx 2 = 2\nx 3 = 3\n")
    calls = [["smooth", str(plane)],
             ["classify3d", str(plane)],
             ["calculus", str(plane), "--max-degree", "4", "--verify-integrability", "1"],
             ["diffusion-classify", str(diffusion_file)],
             ["verify-identities", "--n-max", "3", "--samples", "2"],
             ["pbw-check", str(diffusion_file)]]
    assert [argv[0] for argv in calls] == list(cli._COMMANDS)
    before = module_containers()
    for argv in calls:
        assert cli.main(argv + ["--json"]) == 0, argv
    capsys.readouterr()
    assert module_containers() == before


def _modules_added(code: str, *argv) -> set:
    """The modules a fresh process adds to ``sys.modules`` by running ``code``
    with ``argv`` as ``sys.argv[1:]``."""
    probe = ("import sys\nbefore = set(sys.modules)\n" + code +
             "\nprint(sorted(set(sys.modules) - before))\n")
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(skewsmooth.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", probe, *argv], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


def test_import_loads_neither_dataclasses_nor_inspect(tmp_path):
    """A fresh process loads only the modules it runs: importing the package
    and its CLI adds neither ``dataclasses`` nor ``inspect``, each of which
    costs every CLI process import time and memory; the package alone loads
    no submodule; and each subcommand leaves out the modules it never calls."""
    cli_call = "import skewsmooth.cli\nskewsmooth.cli.main(sys.argv[1:])"
    assert not {m for m in _modules_added("import skewsmooth") if m.startswith("skewsmooth.")}
    added = _modules_added("import skewsmooth, skewsmooth.cli")
    assert not {"dataclasses", "inspect", "skewsmooth.calculus", "skewsmooth.dsl",
                "skewsmooth.diffusion", "skewsmooth.catalog"} & added
    added = _modules_added(cli_call, "verify-identities", "--n-max", "2", "--samples", "1")
    assert "skewsmooth.diffusion" in added
    assert not {"skewsmooth.calculus", "skewsmooth.dsl", "skewsmooth.catalog"} & added
    skew = tmp_path / "skew.alg"
    skew.write_text("kind: skew\nn: 3\nx1*x2 - 2*x2*x1 = 0\n")
    added = _modules_added(cli_call, "smooth", str(skew), "--gkdim", "3")
    assert {"skewsmooth.dsl", "skewsmooth.smoothness"} <= added
    assert not {"skewsmooth.calculus", "skewsmooth.diffusion", "skewsmooth.catalog"} & added


def _q(*values):
    return "(" + ", ".join(f"Fraction({v}, 1)" for v in values) + ")"


@pytest.mark.parametrize("make, text, refusal", [
    pytest.param(lambda: AffineEndo((QQ.coerce(2), QQ.one), (QQ.one, QQ.zero)),
                 f"AffineEndo(slopes={_q(2, 1)}, shifts={_q(1, 0)})",
                 "AffineEndo is immutable: cannot {} 'slopes'", id="AffineEndo"),
    pytest.param(lambda: DiffForm(1, {(2,): NcPoly({(1, 0): QQ.coerce(3)})}),
                 "DiffForm(degree=1, components={(2,): NcPoly((3)*x1)})",
                 "DiffForm is immutable: cannot {} 'degree'", id="DiffForm"),
    pytest.param(lambda: DiffusionPresentation(2, DiffusionType.TYPE1, {(1, 2): 2, (2, 1): 1},
                                               (1, 3)),
                 "DiffusionPresentation(n=2, dtype=<DiffusionType.TYPE1: 'type1'>, "
                 "lambdas={(1, 2): Fraction(2, 1), (2, 1): Fraction(1, 1)}, "
                 f"x={_q(1, 3)}, field=QQ)",
                 "DiffusionPresentation is immutable: cannot {} 'n'", id="DiffusionPresentation"),
    pytest.param(lambda: SigmaCoefficients(*((QQ.zero,) * g + (QQ.one,) + (QQ.zero,) * (4 - g)
                                             for g in range(4))),
                 f"SigmaCoefficients(d1={_q(1, 0, 0, 0, 0)}, d2={_q(0, 1, 0, 0, 0)}, "
                 f"x1={_q(0, 0, 1, 0, 0)}, x2={_q(0, 0, 0, 1, 0)})",
                 "SigmaCoefficients is immutable: cannot {} 'd1'", id="SigmaCoefficients"),
    pytest.param(lambda: PrimeField(7).coerce(-4), "3",
                 "FpElement is immutable: cannot {} 'value'", id="FpElement"),
])
def test_slotted_records_refuse_assignment_and_copy_equal(make, text, refusal):
    record = make()
    assert repr(record) == text
    name = type(record).__slots__[0]
    with pytest.raises(AttributeError) as refused:
        setattr(record, name, getattr(record, name))
    assert str(refused.value) == refusal.format("set")
    with pytest.raises(AttributeError) as refused:
        delattr(record, name)
    assert str(refused.value) == refusal.format("delete")
    with pytest.raises(AttributeError) as refused:
        record.stray = 1
    assert str(refused.value).endswith(" is immutable: cannot set 'stray'")
    for got in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(got) is type(record) and got == record and repr(got) == repr(record)


@pytest.mark.parametrize("make", [
    lambda seq: AffineEndo(seq([QQ.coerce(2), QQ.one]), seq([QQ.zero, QQ.one])),
    lambda seq: SigmaCoefficients(*(seq([QQ.coerce(g)] * 5) for g in range(4))),
], ids=["AffineEndo", "SigmaCoefficients"])
def test_records_built_from_lists_equal_those_built_from_tuples(make):
    """The sequences are stored as tuples: before, a record built from lists
    was unequal to the one built from tuples and could not be hashed."""
    from_lists, from_tuples = make(list), make(tuple)
    assert from_lists == from_tuples
    assert hash(from_lists) == hash(from_tuples)
    assert repr(from_lists) == repr(from_tuples)


def _package_classes():
    for info in pkgutil.iter_modules(skewsmooth.__path__, "skewsmooth."):
        mod = importlib.import_module(info.name)
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__ == mod.__name__:
                yield value


def test_only_the_frozen_base_refuses_assignment_and_pickles():
    """Immutability and pickling live in one class, ``frozen.Frozen``: no
    other class of the package spells them out again."""
    classes = set(_package_classes())
    assert Frozen in classes and DiffForm in classes and FpElement in classes
    copies = sorted(f"{cls.__module__}.{cls.__qualname__}.{method}"
                    for cls in classes if cls is not Frozen
                    for method in ("__setattr__", "__delattr__", "__reduce__")
                    if method in vars(cls))
    assert copies == []
    for cls in classes:
        if issubclass(cls, Frozen) and cls is not Frozen:
            assert cls._fields and set(cls._fields) <= set(cls.__slots__), cls
