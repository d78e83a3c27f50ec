"""Diffusion-type presentations: encoding into the rewriting engine, the
P/Q ladder coefficients with their recurrences, power-commutation identity
verification against the rewriting oracle, the nine-family three-generator
classifier, and the degree-one endomorphism/derivation matrix checks.
"""

from __future__ import annotations

import random
from enum import Enum
from math import comb
from typing import NamedTuple

from . import linalg
from .algebra import NcPoly, Ordering, PairRule, Presentation
from .errors import (IndexRangeError, MismatchedArityError, SingularMatrixError,
                     ZeroLambdaError)
from .frozen import Frozen
from .scalars import QQ

__all__ = [
    "DiffusionType",
    "DiffusionPresentation",
    "encode_presentation",
    "pq_p",
    "pq_q",
    "PQReport",
    "verify_pq_recurrences",
    "CommutationReport",
    "verify_commutation",
    "verify_right_commutation",
    "verify_left_commutation",
    "DIFFUSION_LABELS",
    "classify_diffusion_3",
    "crosswalk_to_3d",
    "SigmaCoefficients",
    "AutCoeffMatrices",
    "build_aut_matrices",
    "identity_sigma",
    "random_sigma",
    "DetIdentityReport",
    "verify_determinant_identities",
    "SigmaConstantsResult",
    "solve_sigma_constant_terms",
    "DerivationConstantsReport",
    "check_derivation_constant_terms",
]


class DiffusionType(str, Enum):
    TYPE1 = "type1"      # the x parameters are scalars
    TYPE2 = "type2"      # the x parameters are central generators


class DiffusionPresentation(Frozen):
    """n generators D_1..D_n with lambda_ij D_i D_j - lambda_ji D_j D_i =
    x_j D_i - x_i D_j for i < j; forward coefficients must be nonzero.
    Lambda keys are pairs i != j in 1..n (a missing one is zero), and type 1
    takes exactly n x scalars; type 2 ignores ``x``.  Immutable: assigning
    an attribute raises."""

    __slots__ = _fields = ("n", "dtype", "lambdas", "x", "field")

    def __init__(self, n: int, dtype: DiffusionType, lambdas: dict, x: tuple = (),
                 field=QQ):
        lams = {}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    lams[(i, j)] = field.coerce(lambdas.get((i, j), 0))
        stray = [key for key in lambdas if key not in lams]
        if stray:
            raise MismatchedArityError(
                f"lambda keys {stray} are not pairs i != j in 1..{n}")
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if not lams[(i, j)]:
                    raise ZeroLambdaError(f"lambda_{i}{j} must be nonzero")
        if dtype is DiffusionType.TYPE1:
            xs = tuple(field.coerce(v) for v in x)
            if len(xs) != n:
                raise MismatchedArityError(
                    f"type-1 presentations need one x scalar per generator, "
                    f"{n} in all, not {len(xs)}")
        else:
            xs = ()
        self._assign(n, dtype, lams, xs, field)

    __hash__ = None  # the lambdas are a dict

    def lam(self, i: int, j: int):
        return self.lambdas[(i, j)]


def encode_presentation(dp: DiffusionPresentation) -> Presentation:
    """Descending-convention presentation implementing the rewrite

        D_i D_j -> (lambda_ji/lambda_ij) D_j D_i
                   + (x_j/lambda_ij) D_i - (x_i/lambda_ij) D_j

    For type 1 the x's are scalars and zero tail terms are dropped; for
    type 2 the x tails are words in the central generators x_1..x_n, placed
    after the D block (generators n+1..2n).
    """
    n, field = dp.n, dp.field
    type1 = dp.dtype is DiffusionType.TYPE1
    pairs = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            lij = dp.lam(i, j)
            if type1:
                cj, ci = dp.x[j - 1] / lij, dp.x[i - 1] / lij
                tail = tuple(t for t in ((cj, (i,)), (-ci, (j,))) if t[0])
            else:
                inv = field.one / lij
                tail = ((inv, (n + j, i)), (-inv, (n + i, j)))
            pairs[(i, j)] = PairRule(dp.lam(j, i) / lij, tail)
    names = tuple(f"D{i}" for i in range(1, n + 1))
    if type1:
        return Presentation(field, n, Ordering.DESCENDING, pairs, names=names)
    return Presentation(field, 2 * n, Ordering.DESCENDING, pairs,
                        central=range(n + 1, 2 * n + 1),
                        names=names + tuple(f"x{i}" for i in range(1, n + 1)))


# -- ladder coefficients ------------------------------------------------------

def _split(lam_ij, lam_ji):
    """(u, v, b d) for lam_ij = a/b and lam_ji = c/d: u = a d and v = c b, so
    lam_ij = u / (b d) and lam_ji = v / (b d).  Prime-field elements split as
    (residue, 1), so Q and F_p share the integer code below."""
    b, d = lam_ij.denominator, lam_ji.denominator
    return lam_ij.numerator * d, lam_ji.numerator * b, b * d


def _ladder_weights(g: int, count: int) -> list:
    """[C(g+t-1, g) for t = 1..count]: the weights of v^(t-1) u^(k-t) in
    S_k^(g+k), where g = n - k is the gap; ``_scaled_p`` and the P checks of
    ``verify_pq_recurrences`` read them from here."""
    return [comb(g + t - 1, g) for t in range(1, count + 1)]


def _scaled_p(k: int, n: int, u: int, v: int) -> int:
    """(b d)^(k-1) P_k^n = sum_{t=1}^{k} C(n-k+t-1, n-k) v^(t-1) u^(k-t), an
    integer, summed by Horner's rule in u."""
    total, v_pow = 0, 1
    for w in _ladder_weights(n - k, k):
        total = total * u + w * v_pow
        v_pow *= v
    return total


def _powers(x, count: int) -> list:
    """[1, x, ..., x^(count-1)]."""
    out = [1]
    for _ in range(count - 1):
        out.append(out[-1] * x)
    return out


def _recurrence_coefficients(n_max: int) -> list:
    """``(kind, n, k, c)`` for each instance of the ladder recurrences at
    1 <= n < n_max, in the order ``verify_pq_recurrences`` checks them: its
    scaled residual is c v^(k-1) (see there).  The weights come from
    ``_ladder_weights`` and the binomials from ``comb``, never from the
    recurrences."""
    weights = [_ladder_weights(g, n_max - g) for g in range(n_max)]
    out = []
    for n in range(1, n_max):
        for k in range(2, n + 1):
            out.append(("P", n, k, weights[n + 1 - k][k - 1] - comb(n, k - 1)))
            out.append(("Q", n, k, comb(n + 1, k - 1) - comb(n, k - 2) - comb(n, k - 1)))
        out.append(("P-top", n, n + 1, weights[0][n] - 1))
        out.append(("Q-top", n, n + 1, comb(n + 1, n) - comb(n, n - 1) - 1))
    return out


def pq_p(k: int, n: int, lam_ij, lam_ji):
    """P_k^n = sum_{t=1}^{k} C(n-k+t-1, n-k) lam_ji^(t-1) lam_ij^(k-t).

    The integer sum ``_scaled_p`` over the common denominator (b d)^(k-1),
    divided into the field once.
    """
    if not 1 <= k <= n:
        raise IndexRangeError(f"P index k={k} outside 1..{n}")
    u, v, bd = _split(lam_ij, lam_ji)
    value = lam_ij * 0 + _scaled_p(k, n, u, v)     # in lam_ij's field
    scale = bd ** (k - 1)
    return value / scale if scale != 1 else value


def pq_q(k: int, n: int, lam_ji):
    """Q_k^n = C(n, k-1) lam_ji^(k-1)."""
    if not 1 <= k <= n:
        raise IndexRangeError(f"Q index k={k} outside 1..{n}")
    return comb(n, k - 1) * lam_ji ** (k - 1)


class PQReport(NamedTuple):
    n_max: int
    samples: int
    checked: int
    failures: tuple

    @property
    def all_pass(self) -> bool:
        return not self.failures


def verify_pq_recurrences(n_max: int, samples: int = 20, seed: int = 0,
                          field=QQ) -> PQReport:
    """Exact check of the ladder recurrences

        P_k^{n+1} = P_{k-1}^n lam_ij + Q_k^n        (2 <= k <= n)
        Q_k^{n+1} = Q_{k-1}^n lam_ji + Q_k^n        (2 <= k <= n)
        P_{n+1}^{n+1} = P_n^n lam_ij + lam_ji^n
        Q_{n+1}^{n+1} = Q_n^n lam_ji + lam_ji^n

    for 1 <= n < n_max at random coefficient samples (plus the all-ones
    Pascal draw).

    Write lam_ij = u / (b d) and lam_ji = v / (b d) (``_split``), and
    S_k^n = (b d)^(k-1) P_k^n, T_k^n = (b d)^(k-1) Q_k^n = C(n, k-1) v^(k-1)
    for the closed forms.  Multiplying each recurrence by (b d)^(k-1) gives

        S_k^{n+1} = u S_{k-1}^n + T_k^n,      T_k^{n+1} = v T_{k-1}^n + T_k^n,
        S_{n+1}^{n+1} = u S_n^n + v^n,        T_{n+1}^{n+1} = v T_n^n + v^n,

    and since the scale is a nonzero field element each scaled identity
    holds exactly when the unscaled one does.  S_k^(n+1) and S_(k-1)^n lie
    on one gap g = n + 1 - k, so S_k^(n+1) - u S_(k-1)^n telescopes to
    C(g+k-1, g) v^(k-1), and each scaled residual is c v^(k-1) for one
    integer c (``_recurrence_coefficients``), computed once per call with
    the weights from ``_ladder_weights`` and the binomials from ``comb``:

        P: C(g+k-1, g) - C(n, k-1),    Q: C(n+1, k-1) - C(n, k-2) - C(n, k-1),
        P-top: C(n, 0) - 1,            Q-top: C(n+1, n) - C(n, n-1) - 1.

    Over F_p (there b = d = 1) c is tested modulo p.  As k >= 2, an
    instance fails at a draw exactly when c is nonzero and lam_ji != 0;
    every instance of every draw counts in ``checked``.  Failures record
    the field draws.

    So a wrong weight C(g+t-1, g) with t >= 2 fails exactly the check P
    (P-top at g = 0) at n = g + t - 1, k = t.  A wrong weight at t = 1, the
    base case P_1^(g+1) = 1, passes: it adds the same multiple of u^(k-1)
    to each S_k^(g+k), a solution of the homogeneous recurrences.  That is
    a limit of the recurrences themselves, which never fix the base case.
    """
    if n_max < 2:
        raise IndexRangeError(f"the ladder recurrences need n_max >= 2, not {n_max}")
    rng = random.Random(seed)
    draws = [(field.one, field.one)]
    draws += [(field.random(rng, 9), field.random(rng, 9)) for _ in range(samples)]
    p = field.char
    wrong = [(kind, n, k) for kind, n, k, c in _recurrence_coefficients(n_max)
             if (c % p if p else c)]
    failures = [(kind, n, k, lam_ij, lam_ji)
                for lam_ij, lam_ji in draws if lam_ji for kind, n, k in wrong]
    return PQReport(n_max, samples, len(draws) * n_max * (n_max - 1), tuple(failures))


# -- power commutation identities --------------------------------------------

class CommutationReport(NamedTuple):
    side: str                    # "right" or "left"
    dtype: DiffusionType
    n_max: int
    samples: int
    status: str                  # "PASS" or "DISCREPANT"
    minimal_failing_n: int | None
    counterexample: dict | None  # parameters and rendered residual

    @property
    def all_pass(self) -> bool:
        return self.status == "PASS"


def verify_commutation(n_max: int, samples: int = 20, seed: int = 0,
                       dtype: DiffusionType = DiffusionType.TYPE1,
                       field=QQ) -> tuple:
    """The (right, left) reports of the power-commutation laws, from one pass
    over shared draws.  In normal order (D_j before D_i) the laws read

        lambda_ij^n D_i^n D_j = lambda_ji^n D_j D_i^n
            + sum_k (-1)^(n+k) P_k^n x_i^(n-k) x_j D_i^k
            + sum_k (-1)^(n+k-1) Q_k^n x_i^(n-k+1) D_j D_i^(k-1),
        lambda_ij^n D_i D_j^n = lambda_ji^n D_j^n D_i
            + sum_k Q_k^n x_j^(n-k+1) D_j D_i^(k-1) - sum_k P_k^n x_i x_j^(n-k) D_i^k,

    the left one as stated.  Each draw builds one presentation, whose memo
    both normal forms share, and one row of P_k^n and Q_k^n, which both laws
    read.  The statement is verified, not trusted: a law's first failure
    makes it DISCREPANT, with that (minimal) power and a counterexample;
    later draws cannot change its report, so it is not checked again.
    """
    # a count below 1 would check nothing and still report PASS
    if n_max < 1 or samples < 1:
        raise IndexRangeError(f"the commutation checks need n_max >= 1 and "
                              f"samples >= 1, not {n_max} and {samples}")
    rng = random.Random(seed)
    type1 = dtype is DiffusionType.TYPE1
    found = [None, None]        # the counterexamples of the right and left laws
    for n in range(1, n_max + 1):
        words = ((1,) * n + (2,), (1,) + (2,) * n)
        for s in range(samples):
            lam_ij = field.random_nonzero(rng, 6)
            lam_ji = field.random(rng, 6) if s % 4 else field.zero
            x_i = field.random(rng, 6)
            x_j = field.random(rng, 6)
            # type 2 ignores the x scalars: there the x's are generators
            pres = encode_presentation(DiffusionPresentation(
                2, dtype, {(1, 2): lam_ij, (2, 1): lam_ji}, (x_i, x_j), field))
            # terms (a, b, u, v, coeff) of coeff * x_i^u x_j^v D_j^b D_i^a
            top = lam_ji ** n
            right, left = [(n, 1, 0, 0, top)], [(1, n, 0, 0, top)]
            for k in range(1, n + 1):
                p, q = pq_p(k, n, lam_ij, lam_ji), pq_q(k, n, lam_ji)
                odd = (n + k) % 2
                right += [(k, 0, n - k, 1, -p if odd else p),
                          (k - 1, 1, n - k + 1, 0, q if odd else -q)]
                left += [(k - 1, 1, 0, n - k + 1, q), (k, 0, 1, n - k, -p)]
            if type1:
                xi, xj = _powers(x_i, n + 1), _powers(x_j, n + 1)
            for law, terms in enumerate((right, left)):
                if found[law] is not None:
                    continue
                # the monomials of one law are distinct, so no two terms meet
                if type1:
                    rhs = NcPoly({(a, b): c * xi[u] * xj[v] for a, b, u, v, c in terms})
                else:
                    rhs = NcPoly({(a, b, u, v): c for a, b, u, v, c in terms})
                lhs = pres.normal_form(words[law]).scale(lam_ij ** n)
                if lhs != rhs:
                    found[law] = {
                        "n": n,
                        "lambda_ij": lam_ij, "lambda_ji": lam_ji,
                        "x_i": x_i, "x_j": x_j,
                        "residual": pres.format_poly(lhs - rhs),
                    }
    return tuple(CommutationReport(side, dtype, n_max, samples,
                                   "PASS" if ce is None else "DISCREPANT",
                                   None if ce is None else ce["n"], ce)
                 for side, ce in zip(("right", "left"), found))


def verify_right_commutation(n_max: int, samples: int = 20, seed: int = 0,
                             dtype: DiffusionType = DiffusionType.TYPE1,
                             field=QQ) -> CommutationReport:
    """The right report of ``verify_commutation``."""
    return verify_commutation(n_max, samples, seed, dtype, field)[0]


def verify_left_commutation(n_max: int, samples: int = 20, seed: int = 0,
                            dtype: DiffusionType = DiffusionType.TYPE1,
                            field=QQ) -> CommutationReport:
    """The left report of ``verify_commutation``."""
    return verify_commutation(n_max, samples, seed, dtype, field)[1]


# -- three-generator classification ------------------------------------------

DIFFUSION_LABELS = ("A_I", "A_II", "B_I", "B_II", "B_III", "B_IV", "C_I", "C_II", "D")


def classify_diffusion_3(dp: DiffusionPresentation) -> frozenset:
    """Evaluate all nine family predicates literally; return every match.

    The families are not mutually exclusive by construction, so the result is
    a set (possibly empty).
    """
    if dp.n != 3:
        raise IndexRangeError("classification needs exactly three generators")
    if dp.dtype is not DiffusionType.TYPE1:
        raise IndexRangeError("classification applies to type-1 presentations")
    L = dp.lam
    x1, x2, x3 = dp.x
    labels = set()
    forward_nonzero = L(1, 2) and L(1, 3) and L(2, 3)
    if (L(1, 2) == L(2, 1) == L(1, 3) == L(3, 1) == L(2, 3) == L(3, 2)) \
            and L(1, 2) and x1 and x2 and x3:
        labels.add("A_I")
    if forward_nonzero and not L(2, 1) and not L(3, 1) and not L(3, 2) \
            and L(1, 3) == L(1, 2) + L(2, 3) and x1 and x2 and x3:
        labels.add("A_II")
    diff12 = L(1, 2) - L(2, 1)
    if L(1, 2) == L(2, 3) and L(1, 2) and L(2, 1) == L(3, 2) \
            and L(1, 3) - L(3, 1) == diff12 and L(2, 3) - L(3, 2) == diff12 \
            and x1 and x3 and not x2:
        labels.add("B_I")
    if not L(3, 2) and not L(2, 1) and forward_nonzero and not x2:
        labels.add("B_II")
    if not L(3, 1) and not L(3, 2) and L(1, 2) \
            and diff12 == L(1, 3) - L(2, 3) \
            and L(1, 3) and L(1, 3) != diff12 and not x3:
        labels.add("B_III")
    if not L(2, 1) and not L(3, 1) and not x1 \
            and L(1, 3) - L(1, 2) == L(2, 3) - L(3, 2) \
            and L(1, 3) and L(1, 3) != L(1, 3) - L(1, 2):
        labels.add("B_IV")
    if diff12 == L(1, 3) - L(3, 1) and forward_nonzero and not x2 and not x3:
        labels.add("C_I")
    if not x2 and not x3 and not L(3, 2) and forward_nonzero:
        labels.add("C_II")
    if not x1 and not x2 and not x3 and forward_nonzero:
        labels.add("D")
    return frozenset(labels)


_CROSSWALK = {
    "C_I": "2e",
    "D": "1",
    "A_I": "UNRESOLVED",
    "B_I": "UNRESOLVED",
}


def crosswalk_to_3d(label: str) -> str:
    """Map a diffusion family to its quasi-commutation class: C_I and D embed
    directly (classes 2e and 1); A_I and B_I need an identification first and
    are UNRESOLVED; the rest have vanishing reverse coefficients and are
    NOT_SKEW on the same generators."""
    if label not in DIFFUSION_LABELS:
        raise IndexRangeError(f"unknown diffusion class {label!r}")
    return _CROSSWALK.get(label, "NOT_SKEW")


# -- degree-one endomorphism and derivation matrices ---------------------------

class SigmaCoefficients(Frozen):
    """Coefficients of a linear endomorphism on D_1, D_2, x_1, x_2.

    Each image is a 5-tuple (c_D1, c_D2, c_x1, c_x2, c_const).  Immutable:
    assigning an attribute raises.
    """

    __slots__ = _fields = ("d1", "d2", "x1", "x2")

    def __init__(self, d1: tuple, d2: tuple, x1: tuple, x2: tuple):
        images = tuple(map(tuple, (d1, d2, x1, x2)))
        for img in images:
            if len(img) != 5:
                raise IndexRangeError("each sigma image needs five coefficients")
        self._assign(*images)


class AutCoeffMatrices(NamedTuple):
    """The degree-one coefficient matrix and its derived matrices."""

    field: object
    lam12: object
    lam21: object
    a_matrix: tuple          # columns: images of D1, D2, x1, x2
    gamma: tuple
    theta: tuple
    l_matrix: tuple
    l1: tuple
    l2: tuple
    s_vec: tuple
    h_vec: tuple


def build_aut_matrices(coeffs: SigmaCoefficients, lam12, lam21,
                       field=QQ) -> AutCoeffMatrices:
    lam12 = field.coerce(lam12)
    lam21 = field.coerce(lam21)
    A = [field.coerce(v) for v in coeffs.d1[:4]]
    B = [field.coerce(v) for v in coeffs.d2[:4]]
    S = [field.coerce(v) for v in coeffs.x1[:4]]
    H = [field.coerce(v) for v in coeffs.x2[:4]]
    one, zero = field.one, field.zero
    dl = lam12 - lam21
    a_matrix = tuple((A[r], B[r], S[r], H[r]) for r in range(4))
    gamma = tuple((dl * B[r] - H[r], dl * A[r] + S[r], B[r], -A[r]) for r in range(4))
    theta = (
        (lam12 * B[0], lam12 - lam21 * A[0], -A[0], B[0]),
        (lam12 * B[1] - lam21, -(lam21 * A[1]), -A[1], B[1]),
        (lam12 * B[2], one - lam21 * A[2], -A[2], B[2]),
        (lam12 * B[3] + one, -(lam21 * A[3]), -A[3], B[3]),
    )
    l_matrix = (
        (zero, lam12, A[0], B[0]),
        (-lam21, zero, A[1], B[1]),
        (zero, one, A[2], B[2]),
        (one, zero, A[3], B[3]),
    )
    l1 = (zero, -lam21, zero, one)
    l2 = (lam12, zero, one, zero)
    return AutCoeffMatrices(field, lam12, lam21, a_matrix, gamma, theta, l_matrix,
                            l1, l2, tuple(S), tuple(H))


def identity_sigma(field=QQ) -> SigmaCoefficients:
    z, o = field.zero, field.one
    return SigmaCoefficients((o, z, z, z, z), (z, o, z, z, z),
                             (z, z, o, z, z), (z, z, z, o, z))


def random_sigma(rng: random.Random, field=QQ, invertible: bool = True) -> SigmaCoefficients:
    def image():
        const = field.random(rng, 9)
        return tuple(field.random(rng, 9) for _ in range(4)) + (const,)
    while True:
        coeffs = SigmaCoefficients(image(), image(), image(), image())
        if not invertible:
            return coeffs
        m = build_aut_matrices(coeffs, field.one, field.one, field)
        if linalg.det(field, m.a_matrix):
            return coeffs


class DetIdentityReport(NamedTuple):
    samples: int
    failures: tuple

    @property
    def all_pass(self) -> bool:
        return not self.failures


def verify_determinant_identities(samples: int = 20, seed: int = 0,
                                  field=QQ) -> DetIdentityReport:
    """det(Gamma) = det(A) and det(Theta) = -det(L) at random coefficients.

    Both are polynomial identities in the 22 scalars, so exact equality at
    random rational points is a sound refutation test.
    """
    if samples < 1:
        raise IndexRangeError(f"the determinant check needs samples >= 1, not {samples}")
    rng = random.Random(seed)
    failures = []
    for s in range(samples):
        coeffs = random_sigma(rng, field, invertible=False)
        lam12 = field.random_nonzero(rng, 9)
        lam21 = field.random(rng, 9)
        m = build_aut_matrices(coeffs, lam12, lam21, field)
        det_a = linalg.det(field, m.a_matrix)
        det_gamma = linalg.det(field, m.gamma)
        det_theta = linalg.det(field, m.theta)
        det_l = linalg.det(field, m.l_matrix)
        if det_gamma != det_a:
            failures.append(("gamma", s, det_gamma, det_a))
        if det_theta != -det_l:
            failures.append(("theta", s, det_theta, det_l))
    return DetIdentityReport(samples, tuple(failures))


class SigmaConstantsResult(NamedTuple):
    values: tuple
    unique: bool


def solve_sigma_constant_terms(m: AutCoeffMatrices) -> SigmaConstantsResult:
    """Solve Gamma xbar = 0; with det(A) != 0 the only solution is zero."""
    field = m.field
    det_a = linalg.det(field, m.a_matrix)
    if not det_a:
        raise SingularMatrixError("degree-one coefficient matrix is singular")
    ns = linalg.nullspace(field, m.gamma)
    return SigmaConstantsResult((field.zero,) * 4, unique=not ns)


class DerivationConstantsReport(NamedTuple):
    status: str              # HYPOTHESIS_NOT_MET | SINGULAR | ZERO_CONSTANTS
    constants: tuple | None


def check_derivation_constant_terms(m: AutCoeffMatrices) -> DerivationConstantsReport:
    """Under span(S, H) = span(L1, L2), the derivation's constant terms vanish.

    The span hypothesis is tested exactly by ranks; when it holds and the
    degree-one matrix is invertible, Theta ybar = 0 has only the zero
    solution.  Under the hypothesis det A = det T det L for an invertible 2x2
    T, so det A != 0 forces det Theta = -det L != 0: the second SINGULAR
    return runs only if that identity fails.
    """
    field = m.field
    cols2 = [m.l1, m.l2]
    cols4 = [m.l1, m.l2, m.s_vec, m.h_vec]
    rank_sh = linalg.rank(field, list(zip(m.s_vec, m.h_vec)))
    rank_l = linalg.rank(field, list(zip(*cols2)))
    rank_all = linalg.rank(field, list(zip(*cols4)))
    if not (rank_sh == rank_l == rank_all == 2):
        return DerivationConstantsReport("HYPOTHESIS_NOT_MET", None)
    det_a = linalg.det(field, m.a_matrix)
    if not det_a:
        return DerivationConstantsReport("SINGULAR", None)
    ns = linalg.nullspace(field, m.theta)
    if ns:
        return DerivationConstantsReport("SINGULAR", None)
    return DerivationConstantsReport("ZERO_CONSTANTS", (field.zero,) * 4)
