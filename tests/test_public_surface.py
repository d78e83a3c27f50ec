"""The public surface: every name a module exports exists, the package's
exports are its modules' own objects, loaded on first access, and the checks
on input from outside the program that the other tests leave out each raise
their own error with their own message."""

import importlib
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
from fractions import Fraction as F

import pytest

import skewsmooth
from skewsmooth import linalg
from skewsmooth.algebra import NcPoly, Ordering, PairRule, Presentation, degree_truncation, relabel
from skewsmooth.calculus import CalculusContext, DiffForm, verify_integrability
from skewsmooth.catalog import diffusion_class_instances, from_display, three_dim_class
from skewsmooth.diffusion import (DiffusionPresentation, DiffusionType, SigmaCoefficients,
                                  classify_diffusion_3, verify_commutation)
from skewsmooth.endos import AffineEndo, apply_endo, compose, identity_endo, respects_relations
from skewsmooth.errors import (BadCharacteristicError, IndexRangeError, MismatchedArityError,
                               NonDiagonalTailError, ZeroQuadCoeffError)
from skewsmooth.scalars import QQ, PrimeField, field_from_name
from skewsmooth.smoothness import (assemble_constant_checks, classify_3d, encode_ore_extension,
                                   forced_nu, solve_diagonal_unknowns)


@pytest.mark.parametrize("name", [info.name for info in
                                  pkgutil.iter_modules(skewsmooth.__path__, "skewsmooth.")])
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}"


# the package's exports by home module, as its eager imports listed them
PACKAGE_EXPORTS = {
    "algebra": "NcPoly Ordering Presentation degree_truncation relabel",
    "calculus": "CalculusContext DiffForm integral_form_coefficients kernel_of_d_bounded "
                "verify_integrability",
    "diffusion": "DiffusionPresentation DiffusionType build_aut_matrices "
                 "check_derivation_constant_terms classify_diffusion_3 crosswalk_to_3d "
                 "encode_presentation pq_p pq_q solve_sigma_constant_terms verify_commutation "
                 "verify_determinant_identities verify_left_commutation verify_pq_recurrences "
                 "verify_right_commutation",
    "endos": "AffineEndo apply_endo commute compose identity_endo invert respects_relations",
    "scalars": "QQ PrimeField RationalField",
    "smoothness": "Verdict assemble_constant_checks classify_3d decide forced_nu "
                  "solve_diagonal_unknowns",
}
HOMES = {name: module for module, names in PACKAGE_EXPORTS.items() for name in names.split()}


def test_package_exports_are_their_home_modules_objects():
    assert len(HOMES) == 41 and sorted(skewsmooth.__all__) == sorted(HOMES)
    for name, module in HOMES.items():
        home = importlib.import_module(f"skewsmooth.{module}")
        assert getattr(skewsmooth, name) is getattr(home, name), name


def test_package_dir_and_star_import_give_the_exports():
    assert set(skewsmooth.__all__) <= set(dir(skewsmooth))
    namespace: dict = {}
    exec("from skewsmooth import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(skewsmooth.__all__)


def test_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'skewsmooth' has no attribute 'nope'"):
        skewsmooth.nope
    assert not hasattr(skewsmooth, "Rational") and not hasattr(skewsmooth, "__wrapped__")


def _run_fresh(code: str) -> subprocess.CompletedProcess:
    """``code`` in a new interpreter that imports this checkout's package."""
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(skewsmooth.__file__).resolve().parent.parent))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)


def test_submodule_attribute_after_a_bare_import():
    files = {info.name for info in pkgutil.iter_modules(skewsmooth.__path__)}
    assert skewsmooth._SUBMODULES == files
    proc = _run_fresh(
        "import sys, skewsmooth\n"
        "assert 'skewsmooth.calculus' not in sys.modules\n"
        "assert skewsmooth.calculus is sys.modules['skewsmooth.calculus']\n"
        "assert skewsmooth.calculus.CalculusContext is skewsmooth.CalculusContext\n")
    assert proc.returncode == 0, proc.stderr


def test_readme_library_sketch_runs():
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    sketch = re.search(r"## Library sketch\n\n```python\n(.*?)```", readme.read_text(),
                       re.S).group(1)
    assert sketch.startswith("from skewsmooth import QQ, Presentation, decide\n")
    proc = _run_fresh(sketch)
    assert proc.returncode == 0, proc.stderr


def _rule(quad=1, *tail):
    return PairRule(F(quad), tuple((F(c), word) for c, word in tail))


def _plane(*rule, n=2, ordering=Ordering.ASCENDING, central=()):
    return Presentation(QQ, n, ordering, {(1, 2): _rule(*rule)}, central=central)


def _commutative(n):
    return Presentation.commutative(QQ, n)


def _nonlinear():
    # x1 x2 - x2 x1 = x1 x3 with x3 central: a degree-two tail, no third-generator one
    return _plane(1, (1, (1, 3)), n=3, central=(3,))


def _diffusion(n, dtype):
    forward = {(i, j): 1 for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    return DiffusionPresentation(n, dtype, forward, (0,) * n, QQ)


def _identity_context(n):
    return CalculusContext(_commutative(n), [identity_endo(QQ, n)] * n)


_SHIFT = AffineEndo((F(1), F(1)), (F(1), F(0)))    # x1 -> x1 + 1
_SCALE = AffineEndo((F(2), F(1)), (F(0), F(0)))    # x1 -> 2 x1
_FIVE = (F(1), F(0), F(0), F(0), F(0))

VALIDATION = [
    # algebra
    (lambda: Presentation(QQ, 2, names=("x",)),
     MismatchedArityError, "names length differs from generator count"),
    (lambda: Presentation(QQ, 2, pairs={(1, 3): _rule()}),
     MismatchedArityError, "pair keys out of range: [(1, 3)]"),
    (lambda: Presentation(QQ, 2, pairs={(1, 2): _rule(2), (2, 1): _rule(3)}),
     MismatchedArityError, "pair (1, 2) given in both orientations"),
    (lambda: _commutative(3).a(1, 1), MismatchedArityError, "no relation for pair (1, 1) at n = 3"),
    (lambda: _commutative(3).c(0, 2), MismatchedArityError, "no relation for pair (0, 2) at n = 3"),
    (lambda: _commutative(3).tail_vector(2, 4),
     MismatchedArityError, "no relation for pair (2, 4) at n = 3"),
    (lambda: Presentation(QQ, 3, Ordering.ASCENDING, {}, central={0, 5}),
     MismatchedArityError, "central generators out of range: [0, 5]"),
    (lambda: _plane(0), ZeroQuadCoeffError, "ascending rewriting needs an invertible quad"),
    (lambda: _plane(1, (1, (1, 1, 1))), MismatchedArityError, "tail words must have degree <= 2"),
    (lambda: _plane(1, (1, (3,))), MismatchedArityError, "tail generator 3 out of range"),
    (lambda: _plane(1, (1, (2, 1))),
     MismatchedArityError, "degree-two tail words must be normal-ordered"),
    (lambda: _plane(1, (1, (1, 2))),
     MismatchedArityError, "degree-two tail words must involve a central generator"),
    (lambda: _plane(2, central=(1,)),
     MismatchedArityError, "central pair (1, 2) must be plainly commutative"),
    (lambda: _commutative(2).gen(3), MismatchedArityError, "generator 3 out of range"),
    (lambda: _commutative(2).gen("1"), MismatchedArityError, "generator '1' is not an integer"),
    (lambda: _commutative(3).normal_form((0,)),
     MismatchedArityError, "generator 0 out of range (n=3)"),
    (lambda: _commutative(3).normal_form((2, 1.0)),
     MismatchedArityError, "generator 1.0 is not an integer"),
    (lambda: _commutative(3).mono((1.0, 0, 0)),
     MismatchedArityError, "bad exponent vector (1.0, 0, 0)"),
    (lambda: _commutative(3).poly({(1.5, 0, 0): 1}),
     MismatchedArityError, "bad exponent vector (1.5, 0, 0)"),
    (lambda: _commutative(3).multiply(_commutative(3).gen(2), NcPoly({(0, 2.5, 0): QQ.one})),
     MismatchedArityError, "bad exponent vector (0, 2.5, 0)"),
    (lambda: degree_truncation(_commutative(2).one(), -1),
     ValueError, "max_degree must be >= 0"),
    (lambda: relabel(_commutative(2), {1: 1, 2: 1}, Ordering.ASCENDING),
     MismatchedArityError, "mapping must be a bijection on 1..n"),
    (lambda: relabel(_nonlinear(), {1: 1, 2: 2, 3: 3}, Ordering.ASCENDING),
     MismatchedArityError, "relabel supports linear tails only"),
    (lambda: relabel(_plane(0, ordering=Ordering.DESCENDING), {1: 2, 2: 1},
                     Ordering.DESCENDING),
     ZeroQuadCoeffError, "orientation flip needs invertible quad coefficient"),
    # calculus
    (lambda: DiffForm(1, {}) + DiffForm(2, {}),
     MismatchedArityError, "cannot add forms of different degree"),
    (lambda: CalculusContext(_plane(1, ordering=Ordering.DESCENDING), ()),
     NonDiagonalTailError, "the calculus uses ascending presentations"),
    (lambda: CalculusContext(_commutative(2), [identity_endo(QQ, 2)]),
     MismatchedArityError, "need exactly one twist per generator"),
    (lambda: CalculusContext(_commutative(2), [_SHIFT, _SCALE]),
     MismatchedArityError, "twists for x_1 and x_2 do not commute"),
    (lambda: _identity_context(2).pi_omega(DiffForm(1, {})),
     MismatchedArityError, "coefficient extraction needs a top form"),
    (lambda: verify_integrability(_identity_context(2), 2, -3),
     IndexRangeError, "need max_degree >= 0 and samples >= 1, not 2 and -3"),
    (lambda: verify_integrability(_identity_context(2), 2, 0),
     IndexRangeError, "need max_degree >= 0 and samples >= 1, not 2 and 0"),
    (lambda: verify_integrability(_identity_context(2), -1, 3),
     IndexRangeError, "need max_degree >= 0 and samples >= 1, not -1 and 3"),
    (lambda: _identity_context(2).dx(0), IndexRangeError, "no differential dx_0 for n = 2"),
    (lambda: _identity_context(2).dx(3), IndexRangeError, "no differential dx_3 for n = 2"),
    (lambda: _identity_context(2).composite((0,)),
     IndexRangeError, "no composite twist for (0,) at n = 2"),
    (lambda: _identity_context(2).composite([2, 3]),
     IndexRangeError, "no composite twist for (2, 3) at n = 2"),
    (lambda: _identity_context(2).left_act(_commutative(2).gen(1), DiffForm(1, {(3,): 1})),
     IndexRangeError, "no composite twist for (3,) at n = 2"),
    # catalog
    (lambda: three_dim_class("6"), ValueError, "unknown class label '6'"),
    (lambda: from_display(QQ, 2, 0, 5),
     ZeroQuadCoeffError, "pair (1, 3): the quad coefficient 1/beta"),
    (lambda: three_dim_class("2b", beta=0, b=1), ZeroQuadCoeffError, "1/beta needs beta != 0"),
    (lambda: diffusion_class_instances("Z"), ValueError, "unknown diffusion class 'Z'"),
    # diffusion
    (lambda: DiffusionPresentation(2, "bogus", {(1, 2): 1}),
     ValueError, "'bogus' is not a valid DiffusionType"),
    (lambda: verify_commutation(2, 2, 0, "type3"),
     ValueError, "'type3' is not a valid DiffusionType"),
    (lambda: classify_diffusion_3(_diffusion(2, DiffusionType.TYPE1)),
     IndexRangeError, "classification needs exactly three generators"),
    (lambda: classify_diffusion_3(_diffusion(3, DiffusionType.TYPE2)),
     IndexRangeError, "classification applies to type-1 presentations"),
    (lambda: SigmaCoefficients(_FIVE, _FIVE, _FIVE, _FIVE[:4]),
     IndexRangeError, "each sigma image needs five coefficients"),
    # endos
    (lambda: AffineEndo((F(1),), (F(0), F(0))),
     MismatchedArityError, "slope/shift length mismatch"),
    (lambda: apply_endo(identity_endo(QQ, 3), _commutative(2).one(), _commutative(2)),
     MismatchedArityError, "endomorphism arity differs from presentation"),
    (lambda: compose(identity_endo(QQ, 2), identity_endo(QQ, 3)),
     MismatchedArityError, "cannot compose endomorphisms of different arity"),
    (lambda: respects_relations(identity_endo(QQ, 3), _commutative(2)), MismatchedArityError,
     "cannot check a 3-generator endomorphism against a 2-generator presentation"),
    (lambda: respects_relations(identity_endo(QQ, 2), _commutative(3)), MismatchedArityError,
     "cannot check a 2-generator endomorphism against a 3-generator presentation"),
    (lambda: _SHIFT.power_image(0, 2), IndexRangeError, "no power image (x_0)^2 for n = 2"),
    (lambda: _SHIFT.power_image(3, 1), IndexRangeError, "no power image (x_3)^1 for n = 2"),
    (lambda: _SHIFT.power_image(1, -1), IndexRangeError, "no power image (x_1)^-1 for n = 2"),
    # linalg
    (lambda: linalg.nullspace(QQ, []), ValueError, "ncols required for an empty matrix"),
    (lambda: linalg.solve_affine(QQ, [], []),
     ValueError, "empty system; pass explicit trivial rows instead"),
    (lambda: linalg.det(QQ, [[F(1), F(2)]]), ValueError, "determinant of a non-square matrix"),
    (lambda: linalg.solve_affine(QQ, [[F(1), F(0)], [F(0), F(1), F(5)]], [F(1), F(2)]),
     ValueError, "row 1 has 3 entries, not 2"),
    (lambda: linalg.nullspace(QQ, [[F(1), F(1), F(1)]], 2),
     ValueError, "row 0 has 3 entries, not 2"),
    (lambda: linalg.rref(QQ, [[F(1), F(2), F(3)], [F(4), F(5)]]),
     ValueError, "row 1 has 2 entries, not 3"),
    (lambda: linalg.rank(QQ, [[F(1)], [F(2), F(3)]]),
     ValueError, "row 1 has 2 entries, not 1"),
    (lambda: linalg.solve_affine(QQ, [[F(1), F(0)], [F(0), F(1)]], [F(1)]),
     ValueError, "2 rows but 1 right-hand sides"),
    (lambda: linalg.solve_affine(QQ, [[F(1), F(0)]], [F(1), F(2)]),
     ValueError, "1 rows but 2 right-hand sides"),
    # scalars
    (lambda: PrimeField(7).coerce(1.5), TypeError, "cannot coerce 1.5 into F_7"),
    (lambda: field_from_name("Fp:seven"),
     BadCharacteristicError, "bad prime in field name 'Fp:seven'"),
    # smoothness
    (lambda: assemble_constant_checks(_plane(1, ordering=Ordering.DESCENDING)),
     NonDiagonalTailError, "solver requires an ascending-convention presentation"),
    (lambda: assemble_constant_checks(three_dim_class("2a", beta=3)),
     NonDiagonalTailError, "tail of pair (1, 3) touches generator 2; route through decide"),
    (lambda: assemble_constant_checks(_nonlinear()),
     NonDiagonalTailError, "solver requires linear tails"),
    (lambda: classify_3d(_commutative(2)),
     NonDiagonalTailError, "classify_3d requires exactly three generators"),
    (lambda: solve_diagonal_unknowns(_commutative(3), 4),
     IndexRangeError, "no twist for generator 4 at n = 3"),
    (lambda: forced_nu(_commutative(3), 0, 1, 0),
     IndexRangeError, "no twist for generator 0 at n = 3"),
    (lambda: encode_ore_extension(2, [1], [0, 0], [0, 0]),
     MismatchedArityError, "need n = 2 values each in b, a and c, not 1, 2 and 2"),
    (lambda: encode_ore_extension(2, [1, 1, 1], [0, 0, 0], [0, 0, 0]),
     MismatchedArityError, "need n = 2 values each in b, a and c, not 3, 3 and 3"),
]


@pytest.mark.parametrize("call, error, fragment", VALIDATION,
                         ids=[fragment for _, _, fragment in VALIDATION])
def test_input_validation_raises(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and fragment in str(info.value)
