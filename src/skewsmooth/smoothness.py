"""Decision procedure for sufficient differential smoothness.

The twist for generator k sends every other generator to a forced image
and x_k to a_kk x_k - b_kk, with (a_kk, b_kk) unknown.  Every equation the
procedure solves is a coefficient of one closed form, the residue of a
relation under a diagonal-affine map (``_residue_forms``), so a change of
generators by x_g -> s_g x_g + t_g changes no verdict.  The pipeline: check
the overlaps, screen for the third-generator tail obstruction, check the
equations free of the unknowns, solve the per-generator 2-unknown affine
systems for (a_kk, b_kk), build the candidate twist family, and re-verify
it with the rewriting engine before certifying.
"""

from __future__ import annotations

from enum import Enum
from itertools import combinations
from typing import NamedTuple

from . import linalg
from .algebra import Ordering, Presentation
from .endos import AffineEndo, _shift_defect, noncommuting_pairs, respects_relations
from .errors import (IndexRangeError, MismatchedArityError, NonDiagonalTailError,
                     ZeroSlopeError)
from .scalars import QQ

__all__ = [
    "EquationCheck",
    "assemble_constant_checks",
    "SolutionStatus",
    "NuSystemSolution",
    "solve_diagonal_unknowns",
    "forced_nu",
    "Verdict",
    "SmoothnessVerdict",
    "decide",
    "encode_ore_extension",
    "THREE_DIM_CLASSES",
    "Classification",
    "classify_3d",
]


class EquationCheck(NamedTuple):
    """One twist equation free of the diagonal unknowns, evaluated exactly."""

    name: str
    residual: object
    holds: bool


def _require_spag(pres: Presentation):
    if pres.ordering is not Ordering.ASCENDING:
        raise NonDiagonalTailError("solver requires an ascending-convention presentation")
    offenders = pres.diagonal_tail_offenders()
    if offenders:
        i, j, k = offenders[0]
        raise NonDiagonalTailError(
            f"tail of pair ({i}, {j}) touches generator {k}; "
            "route through decide instead")
    if not pres.is_linear_tailed:
        raise NonDiagonalTailError("solver requires linear tails")


def _forced_image(pres: Presentation, k: int, g: int):
    """(slope, shift) of the image of x_g, g != k, under the twist for x_k,
    read from the relation written with x_g first."""
    return pres.a(g, k), pres.c(g, k)


def _residue_forms(pres: Presentation, i: int, j: int, k: int, image):
    """The coefficients on x_k, x_g and 1 of the image of relation (i, j),
    x_i x_j - a x_j x_i = b x_i + c x_j + e, under x_k -> A x_k - B (k is i
    or j) and x_g -> s x_g + t on the other letter, ``image`` = (s, t), as
    rows (ca, cb, rhs) of value ca A + cb B - rhs.  With u = 1 - a and own
    and other the tail coefficients on x_k and x_g, the rows are
    (own (s - 1) + u t, 0, 0), (other s, -u s, other s) and
    (e s, own - u t, e + other t)."""
    s, t = image
    u, e = 1 - pres.a(i, j), pres.e(i, j)
    own, other = (pres.b(i, j), pres.c(i, j)) if k == i else (pres.c(i, j), pres.b(i, j))
    ut, other_s = u * t, other * s
    return ((own * (s - 1) + ut, pres.field.zero, pres.field.zero),
            (other_s, -u * s, other_s),
            (e * s, own - ut, e + other * t))


def assemble_constant_checks(pres: Presentation) -> list:
    """The twist equations free of the diagonal unknowns.

    First the residue of the twist for x_k on every relation (i, j) without
    x_k, at x_i, x_j and 1: the ``_residue_forms`` in the image of x_i at
    its forced image (A, B) = (s_i, -t_i).  Then, for k < j, the
    commutation of the twists for x_k and x_j on each third generator g:
    the ``_shift_defect`` t_j (s_k - 1) - t_k (s_j - 1) of the images (s, t)
    of x_g.  Report order: k, then the relation or j, then the monomial or g.
    """
    _require_spag(pres)
    n = pres.n
    images = {k: {g: _forced_image(pres, k, g) for g in range(1, n + 1) if g != k}
              for k in range(1, n + 1)}
    checks = []
    for k in range(1, n + 1):
        for i, j in pres.pairs:
            if k not in (i, j):
                s, t = images[k][i]
                forms = _residue_forms(pres, i, j, i, images[k][j])
                for at, (ca, cb, rhs) in zip((f"x_{i}", f"x_{j}", "1"), forms):
                    r = ca * s - cb * t - rhs
                    checks.append(EquationCheck(
                        f"twist for x_{k} on relation ({i}, {j}) at {at}", r, not r))
    for k, j in combinations(range(1, n + 1), 2):
        for g in range(1, n + 1):
            if g not in (k, j):
                r = _shift_defect(*images[k][g], *images[j][g])
                checks.append(EquationCheck(f"twists for x_{k} and x_{j} on x_{g}", r, not r))
    return checks


class SolutionStatus(str, Enum):
    UNIQUE = "UNIQUE"
    PARAMETRIC = "PARAMETRIC"
    EMPTY = "EMPTY"


class NuSystemSolution(NamedTuple):
    """Solution data of the per-generator system in (a_kk, b_kk)."""

    k: int
    status: SolutionStatus
    witness: tuple | None
    solution_set: linalg.AffineSolutionSet
    rows: tuple  # ((name, (coeff_a, coeff_b), rhs), ...)

    def contains(self, a_kk, b_kk) -> bool:
        return all((ca * a_kk + cb * b_kk) == rhs for _, (ca, cb), rhs in self.rows)


def _diagonal_rows(pres: Presentation, k: int):
    """The twist equations in (a_kk, b_kk): the nonzero ``_residue_forms``
    at x_g and 1 in the image of x_k of each relation between x_k and
    another generator x_g, at the forced image of x_g, which makes the form
    at x_k zero.  The commutation with the twist for x_g on x_k is the row
    at x_g divided by s: no row of its own."""
    for g in range(1, pres.n + 1):
        if g != k:
            i, j = (g, k) if g < k else (k, g)
            forms = _residue_forms(pres, i, j, k, _forced_image(pres, k, g))
            for at, (ca, cb, rhs) in zip((f"x_{g}", "1"), forms[1:]):
                if ca or cb or rhs:
                    yield f"relation ({i}, {j}) at {at}", (ca, cb), rhs


def _require_generator(pres: Presentation, k: int):
    if not 1 <= k <= pres.n:
        raise IndexRangeError(f"no twist for generator {k} at n = {pres.n}")


def solve_diagonal_unknowns(pres: Presentation, k: int) -> NuSystemSolution:
    """Exact solution of the affine system in (a_kk, b_kk), intersected with
    the open condition a_kk != 0.

    The witness starts from the particular solution (u0, v0).  If some
    homogeneous direction (du, dv) has du != 0, the first such one moves it
    to a_kk = 1: (1, v0 + (1 - u0)/du * dv).  Otherwise a_kk = u0 on every
    solution, and u0 = 0 leaves the set EMPTY.
    """
    _require_spag(pres)
    _require_generator(pres, k)
    field = pres.field
    rows = tuple(_diagonal_rows(pres, k))
    zero = field.zero
    # no rows: x_k is unconstrained, and one zero row keeps the system well-posed
    sol = linalg.solve_affine(field, [co for _, co, _ in rows] or [(zero, zero)],
                              [rhs for _, _, rhs in rows] or [zero])
    if sol.is_empty:
        return NuSystemSolution(k, SolutionStatus.EMPTY, None, sol, rows)
    u0, v0 = sol.particular
    du, dv = next(((du, dv) for du, dv in sol.homogeneous if du), (None, None))
    if du is not None:
        witness = (field.one, v0 + (1 - u0) / du * dv)
    elif u0:
        witness = (u0, v0)
    else:
        return NuSystemSolution(k, SolutionStatus.EMPTY, None, sol, rows)
    status = SolutionStatus.UNIQUE if not sol.homogeneous else SolutionStatus.PARAMETRIC
    result = NuSystemSolution(k, status, witness, sol, rows)
    if not result.contains(*witness):
        raise AssertionError(f"witness for k={k} fails substitution; solver bug")
    return result


def forced_nu(pres: Presentation, k: int, a_kk, b_kk) -> AffineEndo:
    """The twist for generator k: forced off-diagonal images plus the solved
    diagonal (a_kk, b_kk), meaning x_k -> a_kk x_k - b_kk."""
    _require_generator(pres, k)
    slopes, shifts = zip(*((a_kk, -b_kk) if g == k else _forced_image(pres, k, g)
                           for g in range(1, pres.n + 1)))
    return AffineEndo(slopes, shifts)


class Verdict(str, Enum):
    SMOOTH_SUFFICIENT = "SMOOTH_SUFFICIENT"
    NOT_SMOOTH = "NOT_SMOOTH"
    INCONCLUSIVE = "INCONCLUSIVE"


class SmoothnessVerdict(NamedTuple):
    verdict: Verdict
    witness: tuple | None = None       # the full twist family, one AffineEndo per generator
    reasons: tuple = ()
    obstruction: tuple | None = None
    solutions: tuple = ()

    @property
    def is_smooth_sufficient(self) -> bool:
        return self.verdict is Verdict.SMOOTH_SUFFICIENT


def decide(pres: Presentation) -> SmoothnessVerdict:
    """Sufficient-condition verdict with a verified witness family.

    If the ordered monomials are not a basis (an overlap fails), the
    rewriting engine computes in their span, not in the algebra: the
    verdict is INCONCLUSIVE with one reason per failing overlap.  Past that
    gate the GK dimension is n, as the associated graded algebra is a
    quantum affine space.  NOT_SMOOTH is a third-generator tail, which
    leaves fewer than n differentials to generate the degree-one module and
    kills the top form.  SMOOTH_SUFFICIENT requires all constant checks,
    nonempty per-generator systems, and a defense-in-depth pass (pairwise
    commutation and relation preservation of the emitted family).  Anything
    else is INCONCLUSIVE: the criterion is sufficient, not necessary.
    """
    overlaps = pres.check_pbw_overlaps().failures()
    if overlaps:
        return SmoothnessVerdict(Verdict.INCONCLUSIVE, reasons=tuple(
            f"ordered monomials are not a basis: overlap ({c.i},{c.j},{c.k}) "
            f"has discrepancy {pres.format_poly(c.discrepancy)}" for c in overlaps))
    offenders = pres.diagonal_tail_offenders()
    if offenders:
        i, j, k = offenders[0]
        return SmoothnessVerdict(Verdict.NOT_SMOOTH, obstruction=offenders[0], reasons=(
            f"relation ({i},{j}) has a tail on generator {k} and gkdim = n",))
    checks = assemble_constant_checks(pres)
    failed = [ch for ch in checks if not ch.holds]
    if failed:
        return SmoothnessVerdict(Verdict.INCONCLUSIVE, reasons=tuple(
            f"{ch.name}: residue {ch.residual}" for ch in failed))
    solutions = tuple(solve_diagonal_unknowns(pres, k) for k in range(1, pres.n + 1))
    empty = [s for s in solutions if s.status is SolutionStatus.EMPTY]
    if empty:
        reasons = tuple(f"no admissible (a_kk, b_kk) for k={s.k}; constraints: "
                        + ", ".join(name for name, _, _ in s.rows) for s in empty)
        return SmoothnessVerdict(Verdict.INCONCLUSIVE, reasons=reasons, solutions=solutions)
    # every slope is nonzero: a witness a_kk, or a quad coefficient a(g, k) or
    # its inverse, which ascending order requires to be nonzero
    family = tuple(forced_nu(pres, s.k, *s.witness) for s in solutions)
    # defense in depth: certify the witness, never assume the equation set
    problems = [f"witness twists for x_{i} and x_{j} do not commute"
                for i, j in noncommuting_pairs(family)]
    for k, nu in enumerate(family, start=1):
        report = respects_relations(nu, pres)
        for fail in report.failures():
            problems.append(
                f"witness twist for x_{k} breaks relation {fail.pair}: "
                f"residue {pres.format_poly(fail.residue)}")
    if problems:
        return SmoothnessVerdict(Verdict.INCONCLUSIVE, reasons=tuple(problems),
                                 solutions=solutions)
    return SmoothnessVerdict(Verdict.SMOOTH_SUFFICIENT, witness=family, solutions=solutions)


# -- Ore extensions of a commutative polynomial ring -------------------------

def encode_ore_extension(n: int, b, a, c, field=QQ) -> Presentation:
    """K[x_1..x_n][y; sigma, delta] with sigma(x_i) = b_i x_i + a_i and
    delta(x_i) = c_i x_i, as an (n+1)-generator presentation (y is last).

    delta is a sigma-derivation only if c_i (b_k - 1) = c_k (b_i - 1) and
    a_i c_k = 0 for all i != k.  For any other (b, a, c) the result is not
    an Ore extension: its ordered monomials are not a basis, and ``decide``
    answers INCONCLUSIVE for it at its PBW gate.
    """
    if not len(b) == len(a) == len(c) == n:
        raise MismatchedArityError(f"sigma and delta need n = {n} values each in b, a "
                                   f"and c, not {len(b)}, {len(a)} and {len(c)}")
    b = [field.coerce(v) for v in b]
    a = [field.coerce(v) for v in a]
    c = [field.coerce(v) for v in c]
    if any(not v for v in b):
        raise ZeroSlopeError("sigma slopes b_i must be nonzero")
    y = n + 1
    # y x_i = b_i x_i y + a_i y + c_i x_i, written with y first
    relations = {(y, i): (b[i - 1], {i: c[i - 1], y: a[i - 1]}, field.zero)
                 for i in range(1, n + 1)}
    return Presentation.skew(field, n + 1, relations)


# -- syntactic three-generator classifier ------------------------------------

# The pairs of the display below, each in the order it is written there.
DISPLAY_PAIRS = ((2, 3), (3, 1), (1, 2))

# The fifteen three-generator classes, in first-match order.  The order
# matters because the shapes overlap: 2d and 3b at b = 0 are class 1, and 2e
# at a = 1 is 2b at b = 0.  A row is (label, shape, names that must not be 1);
# a shape is (alpha, beta, gamma, lam, mu, nu) for the display
#
#     y z - alpha z y = lam,   z x - beta x z = mu,   x y - gamma y x = nu
#
# on generators x, y, z = 1, 2, 3, the relations of ``DISPLAY_PAIRS`` in
# turn, where lam/mu/nu map {0: constant, 1..3: coefficient of x, y, z} and
# an omitted entry is 0.  A slot holds a constant or a parameter name; a name
# in two slots binds one value.
THREE_DIM_CLASSES = (
    ("1", ("alpha", "beta", "gamma", {}, {}, {}), ()),
    ("2a", (1, "beta", 1, {3: 1}, {2: 1}, {1: 1}), ("beta",)),
    ("2b", (1, "beta", 1, {3: 1}, {0: "b"}, {1: 1}), ("beta",)),
    ("2c", (1, "beta", 1, {}, {2: 1}, {}), ("beta",)),
    ("2d", (1, "beta", 1, {}, {0: "b"}, {}), ("beta",)),
    ("2e", (1, "beta", 1, {3: "a"}, {}, {1: 1}), ("beta",)),
    ("2f", (1, "beta", 1, {3: 1}, {}, {}), ("beta",)),
    ("3a", ("alpha", "beta", "alpha", {}, {2: 1, 0: "b"}, {}), ("alpha",)),
    ("3b", ("alpha", "beta", "alpha", {}, {0: "b"}, {}), ("alpha",)),
    ("4", ("alpha", "alpha", "alpha", {1: "a1", 0: "b1"}, {2: "a2", 0: "b2"},
           {3: "a3", 0: "b3"}), ("alpha",)),
    ("5a", (1, 1, 1, {1: 1}, {2: 1}, {3: 1}), ()),
    ("5b", (1, 1, 1, {}, {}, {3: 1}), ()),
    ("5c", (1, 1, 1, {}, {}, {0: "b"}), ()),
    ("5d", (1, 1, 1, {2: -1}, {1: 1, 2: 1}, {}), ()),
    ("5e", (1, 1, 1, {3: "a"}, {1: 1}, {}), ()),
)


class Classification(NamedTuple):
    label: str
    parameters: dict
    header_ok: bool | None = None


def _display_form(pres: Presentation):
    """The display (alpha, beta, gamma, lam, mu, nu) of ``THREE_DIM_CLASSES``,
    with lam/mu/nu dense vectors indexed 0 (constant), 1..3, read from the
    relations of ``DISPLAY_PAIRS``."""
    quads = tuple(pres.a(i, j) for i, j in DISPLAY_PAIRS)
    tails = tuple([e, *vec] for vec, e in (pres.tail_vector(i, j) for i, j in DISPLAY_PAIRS))
    return quads + tails


def _positions(shape):
    """(index into the flat display, slot) for every slot of ``shape``: the
    written slots in order, then a 0 for each omitted one."""
    written = dict(enumerate(shape[:3]))
    for base, vec in zip((3, 7, 11), shape[3:]):
        written.update((base + k, slot) for k, slot in vec.items())
    return tuple(written.items()) + tuple((i, 0) for i in range(15) if i not in written)


_MATCH_ORDER = tuple((label, _positions(shape), not_one)
                     for label, shape, not_one in THREE_DIM_CLASSES)


def _bind(positions, not_one, flat):
    """The parameters named in a row, read off the flat display, or None if
    the row does not fit."""
    bound = {}
    for i, slot in positions:
        if isinstance(slot, str):
            if bound.setdefault(slot, flat[i]) != flat[i]:
                return None
        elif flat[i] != slot:
            return None
    if any(bound[name] == 1 for name in not_one):
        return None
    return bound


def classify_3d(pres: Presentation) -> Classification:
    """Literal shape match against the fifteen three-generator classes.

    No isomorphism search is attempted; the first row of
    ``THREE_DIM_CLASSES`` that fits wins.  ``header_ok`` is the matched
    family's header condition: three distinct slopes for class 1, none for
    the others, and None when nothing matches.
    """
    if pres.n != 3:
        raise NonDiagonalTailError("classify_3d requires exactly three generators")
    alpha, beta, gamma, lam, mu, nu = _display_form(pres)
    flat = (alpha, beta, gamma, *lam, *mu, *nu)
    for label, positions, not_one in _MATCH_ORDER:
        params = _bind(positions, not_one, flat)
        if params is not None:
            header_ok = len({alpha, beta, gamma}) == 3 if label == "1" else True
            return Classification(label, params, header_ok)
    return Classification("NONE", {"alpha": alpha, "beta": beta, "gamma": gamma},
                          header_ok=None)
