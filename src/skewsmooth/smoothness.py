"""Decision procedure for sufficient differential smoothness.

The pipeline: screen for the third-generator tail obstruction, evaluate the
constant coefficient equations (the ones free of diagonal unknowns), solve the
per-generator 2-unknown affine systems for (a_kk, b_kk), build the candidate
twist family, and re-verify it end to end before certifying.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import linalg
from .algebra import Ordering, Presentation
from .endos import AffineEndo, commute, respects_relations
from .errors import IndexRangeError, NonDiagonalTailError, ZeroSlopeError
from .scalars import QQ

__all__ = [
    "EquationCheck",
    "assemble_constant_checks",
    "SolutionStatus",
    "NuSystemSolution",
    "solve_diagonal_unknowns",
    "obstruction_check",
    "forced_nu",
    "Verdict",
    "SmoothnessVerdict",
    "decide",
    "encode_ore_extension",
    "ore_closed_form_conditions",
    "THREE_DIM_CLASSES",
    "Classification",
    "classify_3d",
]


@dataclass(frozen=True)
class EquationCheck:
    """One instance of a coefficient equation, evaluated exactly."""

    eq_id: str
    family: str
    indices: tuple
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
            "route through obstruction_check instead")
    if not pres.is_linear_tailed:
        raise NonDiagonalTailError("solver requires linear tails")


def assemble_constant_checks(pres: Presentation) -> list:
    """Every diagonal-free coefficient equation over all index triples.

    Families eq3 (j<t<k), eq4 (j<k<t), eq5 (k<j<t) each contribute three
    equations per triple; the twist-commutation families comm1..comm3
    contribute one per triple.  Report order: family, then k, then (j, t).
    """
    _require_spag(pres)
    a, b, c, e = pres.a, pres.b, pres.c, pres.e
    checks = []

    def emit(family, sub, k, j, t, residual):
        checks.append(EquationCheck(
            f"{family}.{sub}(k={k},j={j},t={t})", f"{family}.{sub}", (k, j, t),
            residual, not residual))

    n = pres.n
    for k in range(1, n + 1):
        for j in range(1, n):
            for t in range(j + 1, n + 1):
                if k in (j, t):
                    continue
                if j < t < k:
                    emit("eq3", 1, k, j, t, (a(j, t) - 1) * c(t, k) + (a(t, k) - 1) * b(j, t))
                    emit("eq3", 2, k, j, t, (a(j, t) - 1) * c(j, k) + (a(j, k) - 1) * c(j, t))
                    emit("eq3", 3, k, j, t,
                         (a(j, k) * a(t, k) - 1) * e(j, t) + b(j, t) * c(j, k)
                         + c(j, t) * c(t, k) + (1 - a(j, t)) * c(t, k) * c(j, k))
                elif j < k < t:
                    emit("eq4", 1, k, j, t, (a(j, t) - 1) * c(j, k) + (a(j, k) - 1) * c(j, t))
                    emit("eq4", 2, k, j, t, (a(j, t) - 1) * b(k, t) + b(j, t) * (1 - a(k, t)))
                    emit("eq4", 3, k, j, t,
                         (a(j, k) - a(k, t)) * e(j, t) + (c(j, t) + c(j, k)) * b(k, t)
                         + (b(j, t) * a(k, t) - a(j, t) * b(k, t)) * c(j, k))
                else:
                    emit("eq5", 1, k, j, t, (a(j, t) - 1) * b(k, t) + (1 - a(k, t)) * b(j, t))
                    emit("eq5", 2, k, j, t, b(k, j) * (a(j, t) - 1) + (1 - a(k, j)) * c(j, t))
                    emit("eq5", 3, k, j, t,
                         (1 - a(k, j) * a(k, t)) * e(j, t)
                         + b(k, t) * (b(k, j) + a(k, j) * c(j, t))
                         + b(k, j) * (a(k, t) * b(j, t) - a(j, t) * b(k, t)))
    for k in range(1, n + 1):
        for j in range(k + 1, n + 1):
            for t in range(j + 1, n + 1):
                emit("comm", 1, k, j, t, c(k, j) * (a(k, t) - 1) - c(k, t) * (a(k, j) - 1))
    for k in range(1, n + 1):
        for j in range(k + 1, n + 1):
            for t in range(1, k):
                emit("comm", 2, k, j, t, c(k, j) * (1 - a(t, k)) - b(t, k) * (a(k, j) - 1))
    for k in range(1, n + 1):
        for j in range(1, k):
            for t in range(j + 1, k):
                emit("comm", 3, k, j, t, b(j, k) * (1 - a(t, k)) - b(t, k) * (1 - a(j, k)))
    order = {"eq3.1": 0, "eq3.2": 1, "eq3.3": 2, "eq4.1": 3, "eq4.2": 4, "eq4.3": 5,
             "eq5.1": 6, "eq5.2": 7, "eq5.3": 8, "comm.1": 9, "comm.2": 10, "comm.3": 11}
    checks.sort(key=lambda ch: (order[ch.family], ch.indices))
    return checks


class SolutionStatus(str, Enum):
    UNIQUE = "UNIQUE"
    PARAMETRIC = "PARAMETRIC"
    EMPTY = "EMPTY"


@dataclass(frozen=True)
class NuSystemSolution:
    """Solution data of the per-generator system in (a_kk, b_kk)."""

    k: int
    status: SolutionStatus
    witness: tuple | None
    solution_set: linalg.AffineSolutionSet
    rows: tuple  # ((eq_id, (coeff_a, coeff_b), rhs), ...)

    def contains(self, a_kk, b_kk) -> bool:
        return all((ca * a_kk + cb * b_kk) == rhs for _, (ca, cb), rhs in self.rows)


def _diagonal_rows(pres: Presentation, k: int):
    a, b, c, e = pres.a, pres.b, pres.c, pres.e
    one, zero = pres.field.one, pres.field.zero
    rows = [("trivial", (zero, zero), zero)]  # keeps the system well-posed when unconstrained
    for j in range(1, k):
        rows.append((f"eq1.1(j={j},k={k})", (b(j, k), a(j, k) - 1), b(j, k)))
        rows.append((f"eq1.2(j={j},k={k})",
                     (a(j, k) * e(j, k), a(j, k) * c(j, k)), e(j, k) + b(j, k) * c(j, k)))
        rows.append((f"comm.5(j={j},k={k})", (-b(j, k), 1 - a(j, k)), -b(j, k)))
    for j in range(k + 1, pres.n + 1):
        rows.append((f"eq2.1(k={k},j={j})", (c(k, j), a(k, j) - 1), c(k, j)))
        rows.append((f"eq2.2(k={k},j={j})",
                     (e(k, j), b(k, j)), a(k, j) * e(k, j) - c(k, j) * b(k, j)))
        rows.append((f"comm.4(k={k},j={j})", (c(k, j), 1 - a(k, j)), c(k, j)))
    return rows


def solve_diagonal_unknowns(pres: Presentation, k: int) -> NuSystemSolution:
    """Exact solution of the affine system in (a_kk, b_kk), intersected with
    the open condition a_kk != 0.

    The witness starts from the particular solution (u0, v0).  If some
    homogeneous direction (du, dv) has du != 0, the first such one moves it
    to a_kk = 1: (1, v0 + (1 - u0)/du * dv).  Otherwise a_kk = u0 on every
    solution, and u0 = 0 leaves the set EMPTY.
    """
    _require_spag(pres)
    field = pres.field
    rows = _diagonal_rows(pres, k)
    sol = linalg.solve_affine(field, [co for _, co, _ in rows],
                              [rhs for _, _, rhs in rows])
    rowdata = tuple(rows)
    if sol.is_empty:
        return NuSystemSolution(k, SolutionStatus.EMPTY, None, sol, rowdata)
    u0, v0 = sol.particular
    du, dv = next(((du, dv) for du, dv in sol.homogeneous if du), (None, None))
    if du is not None:
        witness = (field.one, v0 + (1 - u0) / du * dv)
    elif u0:
        witness = (u0, v0)
    else:
        return NuSystemSolution(k, SolutionStatus.EMPTY, None, sol, rowdata)
    status = SolutionStatus.UNIQUE if not sol.homogeneous else SolutionStatus.PARAMETRIC
    result = NuSystemSolution(k, status, witness, sol, rowdata)
    if not result.contains(*witness):
        raise AssertionError(f"witness for k={k} fails substitution; solver bug")
    return result


def obstruction_check(pres: Presentation, gkdim: int):
    """First (i, j, k) with a tail entry on a third generator, when gkdim = n.

    Such a relation forces the degree-one module to be generated by fewer than
    n differentials, killing the top form; the conclusion needs gkdim = n.
    """
    if gkdim != pres.n:
        return None
    offenders = pres.diagonal_tail_offenders()
    return offenders[0] if offenders else None


def forced_nu(pres: Presentation, k: int, a_kk, b_kk) -> AffineEndo:
    """The twist for generator k: forced off-diagonal images plus the solved
    diagonal (a_kk, b_kk), meaning x_k -> a_kk x_k - b_kk."""
    slopes, shifts = [], []
    field = pres.field
    for g in range(1, pres.n + 1):
        if g == k:
            slopes.append(a_kk)
            shifts.append(-b_kk)
        elif g < k:
            slopes.append(pres.a(g, k))
            shifts.append(pres.c(g, k))
        else:
            akg = pres.a(k, g)
            slopes.append(field.one / akg)
            shifts.append(-(pres.b(k, g) / akg))
    return AffineEndo(tuple(slopes), tuple(shifts))


class Verdict(str, Enum):
    SMOOTH_SUFFICIENT = "SMOOTH_SUFFICIENT"
    NOT_SMOOTH = "NOT_SMOOTH"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class SmoothnessVerdict:
    verdict: Verdict
    gkdim: int
    witness: tuple | None = None       # the full twist family, one AffineEndo per generator
    reasons: tuple = ()
    obstruction: tuple | None = None
    solutions: tuple = ()

    @property
    def is_smooth_sufficient(self) -> bool:
        return self.verdict is Verdict.SMOOTH_SUFFICIENT


def decide(pres: Presentation, gkdim: int) -> SmoothnessVerdict:
    """Sufficient-condition verdict with a verified witness family.

    NOT_SMOOTH requires the third-generator tail obstruction together with
    gkdim = n.  SMOOTH_SUFFICIENT requires all constant checks, nonempty
    per-generator systems, and a defense-in-depth pass (pairwise commutation
    and relation preservation of the emitted family).  Anything else is
    INCONCLUSIVE: the criterion is sufficient, not necessary.  A gkdim
    outside 0..n raises ``IndexRangeError``.
    """
    if not 0 <= gkdim <= pres.n:
        raise IndexRangeError(f"gkdim must be between 0 and n = {pres.n}, not {gkdim}")
    obstruction = obstruction_check(pres, gkdim)
    if obstruction is not None:
        i, j, k = obstruction
        return SmoothnessVerdict(
            Verdict.NOT_SMOOTH, gkdim, obstruction=obstruction,
            reasons=(f"relation ({i},{j}) has a tail on generator {k} and gkdim = n",))
    if pres.diagonal_tail_offenders():
        return SmoothnessVerdict(
            Verdict.INCONCLUSIVE, gkdim,
            reasons=("third-generator tail present but gkdim != n; "
                     "the rank obstruction does not apply",))
    checks = assemble_constant_checks(pres)
    failed = [ch for ch in checks if not ch.holds]
    if failed:
        return SmoothnessVerdict(
            Verdict.INCONCLUSIVE, gkdim,
            reasons=tuple(f"{ch.eq_id} residual {ch.residual}" for ch in failed))
    solutions = tuple(solve_diagonal_unknowns(pres, k) for k in range(1, pres.n + 1))
    empty = [s for s in solutions if s.status is SolutionStatus.EMPTY]
    if empty:
        reasons = []
        for s in empty:
            ids = [rid for rid, (ca, cb), rhs in s.rows if ca or cb or rhs]
            reasons.append(f"no admissible (a_kk, b_kk) for k={s.k}; constraints: " + ", ".join(ids))
        return SmoothnessVerdict(Verdict.INCONCLUSIVE, gkdim,
                                 reasons=tuple(reasons), solutions=solutions)
    try:
        family = tuple(forced_nu(pres, s.k, *s.witness) for s in solutions)
    except ZeroSlopeError as exc:
        return SmoothnessVerdict(Verdict.INCONCLUSIVE, gkdim,
                                 reasons=(f"witness family not invertible: {exc}",),
                                 solutions=solutions)
    # defense in depth: certify the witness, never assume the equation set
    problems = []
    for i in range(pres.n):
        for j in range(i + 1, pres.n):
            if not commute(family[i], family[j]):
                problems.append(f"witness twists for x_{i + 1} and x_{j + 1} do not commute")
    for k, nu in enumerate(family, start=1):
        report = respects_relations(nu, pres)
        for fail in report.failures():
            problems.append(
                f"witness twist for x_{k} breaks relation {fail.pair}: "
                f"residue {pres.format_poly(fail.residue)}")
    if problems:
        return SmoothnessVerdict(Verdict.INCONCLUSIVE, gkdim, reasons=tuple(problems),
                                 solutions=solutions)
    return SmoothnessVerdict(Verdict.SMOOTH_SUFFICIENT, gkdim, witness=family,
                             solutions=solutions)


# -- Ore extensions of a commutative polynomial ring -------------------------

def encode_ore_extension(n: int, b, a, c, field=QQ) -> Presentation:
    """K[x_1..x_n][y; sigma, delta] with sigma(x_i) = b_i x_i + a_i and
    delta(x_i) = c_i x_i, as an (n+1)-generator presentation (y is last)."""
    b = [field.coerce(v) for v in b]
    a = [field.coerce(v) for v in a]
    c = [field.coerce(v) for v in c]
    if any(not v for v in b):
        raise ZeroSlopeError("sigma slopes b_i must be nonzero")
    relations = {}
    y = n + 1
    for i in range(1, n + 1):
        bi, ai, ci = b[i - 1], a[i - 1], c[i - 1]
        # y x_i = b_i x_i y + a_i y + c_i x_i  =>
        # x_i y - (1/b_i) y x_i = -(c_i/b_i) x_i - (a_i/b_i) y
        relations[(i, y)] = (field.one / bi, {i: -(ci / bi), y: -(ai / bi)}, field.zero)
    return Presentation.skew(field, n + 1, relations)


def ore_closed_form_conditions(n: int, b, a, c, field=QQ):
    """The two closed-form sufficient conditions, taken as given:
    (1) a_i != 0 and c_i = 0 for all i;
    (2) a_i = 0 for all i and c_i(b_k - 1) + c_k(b_i - 1) = 0 for all i != k.

    They are not checked against ``decide``, which is authoritative: (2) holds
    at b = (2, 4), a = 0, c = (3, -9), where the twists for x_1 and x_2 do not
    commute on y and ``decide`` is INCONCLUSIVE.
    """
    a = [field.coerce(v) for v in a]
    b = [field.coerce(v) for v in b]
    c = [field.coerce(v) for v in c]
    first = all(a) and not any(c)
    second = not any(a) and all(
        not (c[i] * (b[k] - 1) + c[k] * (b[i] - 1))
        for i in range(n) for k in range(n) if i != k)
    return first, second


# -- syntactic three-generator classifier ------------------------------------

# The fifteen three-generator classes, in first-match order.  The order
# matters because the shapes overlap: 2d and 3b at b = 0 are class 1, and 2e
# at a = 1 is 2b at b = 0.  A row is (label, shape, names that must not be 1);
# a shape is (alpha, beta, gamma, lam, mu, nu) for the display
#
#     y z - alpha z y = lam,   z x - beta x z = mu,   x y - gamma y x = nu
#
# on generators x, y, z = 1, 2, 3, where lam/mu/nu map {0: constant, 1..3:
# coefficient of x, y, z} and an omitted entry is 0.  A slot holds a constant
# or a parameter name; a name in two slots binds one value.
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


@dataclass(frozen=True)
class Classification:
    label: str
    parameters: dict
    header_ok: bool | None = None


def _display_form(pres: Presentation):
    """The display (alpha, beta, gamma, lam, mu, nu) of ``THREE_DIM_CLASSES``,
    with lam/mu/nu dense vectors indexed 0 (constant), 1..3."""
    field = pres.field
    alpha = pres.a(2, 3)
    t23, e23 = pres.tail_vector(2, 3)
    lam = [e23] + t23
    gamma = pres.a(1, 2)
    t12, e12 = pres.tail_vector(1, 2)
    nu = [e12] + t12
    a13 = pres.a(1, 3)
    beta = field.one / a13
    t13, e13 = pres.tail_vector(1, 3)
    mu = [-(beta * e13)] + [-(beta * v) for v in t13]
    return alpha, beta, gamma, lam, mu, nu


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
