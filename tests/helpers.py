"""Shared test utilities: independent oracles and random generators.

The rewriting oracle mirrors the documented leftmost strategy but is a
separate mechanism (iterative tree expansion, no caches, reads the relation
data directly), so it cross-checks the engine rather than re-running it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import comb

from skewsmooth import linalg
from skewsmooth.algebra import NcPoly, Ordering, Presentation
from skewsmooth.calculus import DiffForm
from skewsmooth.diffusion import (CommutationReport, DiffusionPresentation,
                                 DiffusionType, encode_presentation, pq_p, pq_q)
from skewsmooth.endos import apply_endo, compose
from skewsmooth.scalars import QQ
from skewsmooth.smoothness import Classification, _display_form


def naive_normal_form(pres: Presentation, terms) -> dict:
    """Exhaustive leftmost rewriting on weighted words; returns exponent->coeff."""
    if isinstance(terms, tuple):
        terms = [(pres.field.one, terms)]
    stack = [(pres.field.coerce(c), tuple(w)) for c, w in terms]
    out: dict = {}
    while stack:
        coeff, word = stack.pop()
        if not coeff:
            continue
        pos = None
        for t in range(len(word) - 1):
            u, v = word[t], word[t + 1]
            wrong = u > v if pres.ordering is Ordering.ASCENDING else u < v
            if wrong:
                pos = t
                break
        if pos is None:
            exps = [0] * pres.n
            for g in word:
                exps[g - 1] += 1
            key = tuple(exps)
            s = out.get(key, pres.field.zero) + coeff
            if s:
                out[key] = s
            else:
                out.pop(key, None)
            continue
        u, v = word[pos], word[pos + 1]
        head, tail = word[:pos], word[pos + 2:]
        if pres.ordering is Ordering.ASCENDING:
            rule = pres.pairs[(v, u)]
            inv = pres.field.one / rule.quad
            stack.append((coeff * inv, head + (v, u) + tail))
            for tcoeff, tword in rule.tail:
                stack.append((-(coeff * tcoeff * inv), head + tword + tail))
        else:
            rule = pres.pairs[(u, v)]
            if rule.quad:
                stack.append((coeff * rule.quad, head + (v, u) + tail))
            for tcoeff, tword in rule.tail:
                stack.append((coeff * tcoeff, head + tword + tail))
    return out


def naive_product(pres: Presentation, p: NcPoly, q: NcPoly) -> dict:
    """p q by the oracle, from the concatenated words of every pair of terms."""
    return naive_normal_form(pres, [
        (c1 * c2, pres.monomial_word(m1) + pres.monomial_word(m2))
        for m1, c1 in p.terms.items() for m2, c2 in q.terms.items()])


def naive_basis_sort(pres: Presentation, word):
    """Bubble sort of a basis word, collecting the scalar -(1/a_ij) per
    adjacent transposition and restarting after every pass; None for repeated
    letters: the oracle for ``CalculusContext.basis_sort``."""
    word = list(word)
    factor = pres.field.one
    changed = True
    while changed:
        changed = False
        for t in range(len(word) - 1):
            u, v = word[t], word[t + 1]
            if u == v:
                return None
            if u > v:
                word[t], word[t + 1] = v, u
                factor = -(factor / pres.a(v, u))
                changed = True
    return factor, tuple(word)


def bad_index_words(form) -> list:
    """The components ``DiffForm``'s public constructor would reject or drop:
    a word that is not strictly increasing of length ``form.degree``, or a
    zero value.  The oracle for the forms the calculus builds unchecked."""
    return [(s, p) for s, p in form.components.items()
            if len(s) != form.degree or list(s) != sorted(set(s)) or not p]


def naive_wedge(ctx, f, g):
    """(dx_S p) ^ (dx_T q) = basis_sort(S + T) . nu_T(p) q summed term by
    term, every p twisted and multiplied: the oracle for
    ``CalculusContext.wedge``."""
    zero = NcPoly.zero()
    total: dict = {}
    for s, p in f.components.items():
        for t, q in g.components.items():
            sorted_basis = naive_basis_sort(ctx.pres, s + t)
            if sorted_basis is None:
                continue
            factor, idx = sorted_basis
            moved = apply_endo(ctx.composite(t), p, ctx.pres)
            total[idx] = total.get(idx, zero) + ctx.pres.multiply(moved, q).scale(factor)
    return DiffForm(f.degree + g.degree, total)


def compose_commute(e1, e2) -> bool:
    """Whether the two composites of a pair of twists are equal, built and
    compared in full: the oracle for ``endos.commute``."""
    return compose(e1, e2) == compose(e2, e1)


def naive_tail_vector(pres: Presentation, i: int, j: int):
    """The dense linear tail and the constant of pair (i, j), summed afresh
    from the relation data: the oracle for ``Presentation.tail_vector`` and
    the accessors ``b``, ``c`` and ``e``."""
    vec = [pres.field.zero] * pres.n
    const = pres.field.zero
    for coeff, word in pres.pairs[(i, j)].tail:
        if word:
            vec[word[0] - 1] += coeff
        else:
            const += coeff
    return vec, const


def substitute(pres: Presentation, slopes, shifts) -> Presentation:
    """The same algebra on generators y_1..y_n with x_g = s_g y_g + t_g.

    Relation (i, j), x_i x_j - a x_j x_i = sum_g c_g x_g + e, becomes
    y_i y_j - a y_j y_i = sum_g c'_g y_g + e' with u = 1 - a and

        c'_g = (c_g s_g - [g = i] s_i t_j u - [g = j] s_j t_i u) / (s_i s_j),
        e'   = (sum_g c_g t_g + e - t_i t_j u) / (s_i s_j).

    The result is certified with ``multiply``: every original relation holds
    on the images s_g y_g + t_g with zero residue.  Linear tails only.
    """
    field, n = pres.field, pres.n
    slopes = [field.coerce(s) for s in slopes]
    shifts = [field.coerce(t) for t in shifts]
    relations = {}
    for i, j in pres.pairs:
        a = pres.a(i, j)
        u = 1 - a
        vec, e = pres.tail_vector(i, j)
        (si, ti), (sj, tj) = (slopes[i - 1], shifts[i - 1]), (slopes[j - 1], shifts[j - 1])
        tail = [c * s for c, s in zip(vec, slopes)]
        tail[i - 1] -= si * tj * u
        tail[j - 1] -= sj * ti * u
        const = sum((c * t for c, t in zip(vec, shifts)), e) - ti * tj * u
        scale = si * sj
        relations[(i, j)] = (a, {g: c / scale for g, c in enumerate(tail, start=1)},
                             const / scale)
    copy = Presentation.skew(field, n, relations)
    images = {g: copy.gen(g).scale(slopes[g - 1]) + copy.scalar(shifts[g - 1])
              for g in range(1, n + 1)}
    for (i, j), rule in pres.pairs.items():
        residue = copy.multiply(images[i], images[j]) \
            - copy.multiply(images[j], images[i]).scale(rule.quad)
        for coeff, word in rule.tail:
            residue = residue - copy.product(*(images[g] for g in word)).scale(coeff)
        assert not residue, f"substitution breaks relation ({i}, {j})"
    return copy


def naive_closed_form_products(pres: Presentation, subset, complement):
    """The two-branch closed-form double products, every factor multiplied
    in with its stated index ranges: the oracle for
    ``calculus._closed_form_products``."""
    field = pres.field
    n = pres.n
    k = len(subset)
    phi = tuple(subset)
    phibar = tuple(complement)
    neg = -field.one
    if phi and phi[0] == 1:
        a_cf = field.one
        for s in range(1, n - k + 1):
            for t in range(1, phibar[s - 1]):
                a_cf = a_cf * neg * pres.a(t, phibar[s - 1])
        abar_cf = field.one
        for s in range(1, n - k):
            for t in range(s + 1, n - k + 1):
                abar_cf = abar_cf * neg / pres.a(phibar[s - 1], phibar[t - 1])
    else:
        a_cf = field.one
        for s in range(1, k):
            for t in range(s + 1, k + 1):
                a_cf = a_cf * neg / pres.a(phi[s - 1], phi[t - 1])
        abar_cf = field.one
        last = phibar[n - k - 1]
        for s in range(1, k + 1):
            for t in range(phi[s - 1] + 1, last + 1):
                abar_cf = abar_cf * neg * pres.a(phi[s - 1], t)
    return a_cf, abar_cf


def naive_kernel(ctx, max_degree: int) -> list:
    """The kernel of d on the polynomials of total degree <= bound, by
    eliminating its whole matrix: column c holds the dx_i-coefficients of
    ``ctx.d`` on the c-th monomial in (degree, exponents) order, the rows go
    in as they come, and ``linalg.sparse_nullspace`` reads off the reduced
    basis: the oracle for ``calculus.kernel_of_d_bounded``."""
    monomials = sorted((m for m in product(range(max_degree + 1), repeat=ctx.n)
                        if sum(m) <= max_degree), key=lambda m: (sum(m), m))
    rows: dict = {}
    for col, m in enumerate(monomials):
        for (i,), p in ctx.d(ctx.pres.mono(m)).components.items():
            for mono, c in p.terms.items():
                rows.setdefault((i, mono), {})[col] = c
    basis = linalg.sparse_nullspace(ctx.pres.field, list(rows.values()), len(monomials))
    return [NcPoly({monomials[c]: v for c, v in vec.items()}) for vec in basis]


def naive_pq_p(k: int, n: int, lam_ij, lam_ji):
    """P_k^n = sum_{t=1}^{k} C(n-k+t-1, n-k) lam_ji^(t-1) lam_ij^(k-t), summed
    term by term in field arithmetic: the oracle for ``diffusion.pq_p``."""
    total = None
    for t in range(1, k + 1):
        term = comb(n - k + t - 1, n - k) * lam_ji ** (t - 1) * lam_ij ** (k - t)
        total = term if total is None else total + term
    return total


def naive_pq_recurrences(n_max: int, samples: int = 20, seed: int = 0, field=QQ):
    """``(checked, failures)`` of the ladder recurrences on one table per draw
    of ``pq_p``/``pq_q`` values, every check made in field arithmetic: the
    oracle for ``diffusion.verify_pq_recurrences``."""
    rng = random.Random(seed)
    draws = [(field.one, field.one)]
    draws += [(field.random(rng, 9), field.random(rng, 9)) for _ in range(samples)]
    failures = []
    checked = 0
    for lam_ij, lam_ji in draws:
        P = {(k, n): pq_p(k, n, lam_ij, lam_ji)
             for n in range(1, n_max + 1) for k in range(1, n + 1)}
        Q = {(k, n): pq_q(k, n, lam_ji)
             for n in range(1, n_max + 1) for k in range(1, n + 1)}
        for n in range(1, n_max):
            for k in range(2, n + 1):
                checked += 2
                if P[k, n + 1] != P[k - 1, n] * lam_ij + Q[k, n]:
                    failures.append(("P", n, k, lam_ij, lam_ji))
                if Q[k, n + 1] != Q[k - 1, n] * lam_ji + Q[k, n]:
                    failures.append(("Q", n, k, lam_ij, lam_ji))
            checked += 2
            if P[n + 1, n + 1] != P[n, n] * lam_ij + lam_ji ** n:
                failures.append(("P-top", n, n + 1, lam_ij, lam_ji))
            if Q[n + 1, n + 1] != Q[n, n] * lam_ji + lam_ji ** n:
                failures.append(("Q-top", n, n + 1, lam_ij, lam_ji))
    return checked, tuple(failures)


def _naive_sign(field, m: int):
    return field.one if m % 2 == 0 else -field.one


def _naive_rhs(pres, dtype, x_i, x_j, parts):
    """The polynomial sum of coeff * D_i^a D_j^b * x_i^u x_j^v over ``parts``
    of the form ((a, b), (u, v), coeff): the x factor is a scalar for type 1
    and central exponents for type 2."""
    terms: dict = {}
    for d_exps, (u, v), coeff in parts:
        if dtype is DiffusionType.TYPE1:
            coeff = coeff * x_i ** u * x_j ** v
        else:
            d_exps = d_exps + (u, v)
        if coeff:
            linalg.add_into(terms, {d_exps: coeff})
    return pres.poly(terms)


def _naive_right_rhs(pres, dtype, n, lam_ij, lam_ji, x_i, x_j, field):
    parts = [((n, 1), (0, 0), lam_ji ** n)]
    for k in range(1, n + 1):
        parts.append(((k, 0), (n - k, 1),
                      _naive_sign(field, k + n) * pq_p(k, n, lam_ij, lam_ji)))
        parts.append(((k - 1, 1), (n - k + 1, 0),
                      _naive_sign(field, n + k - 1) * pq_q(k, n, lam_ji)))
    return _naive_rhs(pres, dtype, x_i, x_j, parts)


def _naive_left_rhs(pres, dtype, n, lam_ij, lam_ji, x_i, x_j, field):
    # the left-handed law as given: no alternating signs, D_i powers in both sums
    parts = [((1, n), (0, 0), lam_ji ** n)]
    for k in range(1, n + 1):
        parts.append(((k - 1, 1), (0, n - k + 1), pq_q(k, n, lam_ji)))
        parts.append(((k, 0), (1, n - k), -pq_p(k, n, lam_ij, lam_ji)))
    return _naive_rhs(pres, dtype, x_i, x_j, parts)


def naive_commutation(side: str, n_max: int, samples: int, seed: int,
                      dtype, field) -> CommutationReport:
    """One law (``side`` "right" or "left") checked on its own: per draw a
    fresh presentation, the right-hand side summed with a field sign and a
    raised x power per term, and the residual lhs - rhs built and tested at
    every draw.  The oracle for ``diffusion.verify_commutation``, whose draws
    it repeats."""
    rng = random.Random(seed)
    minimal = None
    counterexample = None
    for n in range(1, n_max + 1):
        for s in range(samples):
            lam_ij = field.random_nonzero(rng, 6)
            lam_ji = field.random(rng, 6) if s % 4 else field.zero
            x_i = field.random(rng, 6)
            x_j = field.random(rng, 6)
            pres = encode_presentation(DiffusionPresentation(
                2, dtype, {(1, 2): lam_ij, (2, 1): lam_ji}, (x_i, x_j), field))
            if side == "right":
                lhs = pres.normal_form((1,) * n + (2,)).scale(lam_ij ** n)
                rhs = _naive_right_rhs(pres, dtype, n, lam_ij, lam_ji, x_i, x_j, field)
            else:
                lhs = pres.normal_form((1,) + (2,) * n).scale(lam_ij ** n)
                rhs = _naive_left_rhs(pres, dtype, n, lam_ij, lam_ji, x_i, x_j, field)
            residual = lhs - rhs
            if residual and minimal is None:
                minimal = n
                counterexample = {
                    "n": n,
                    "lambda_ij": lam_ij, "lambda_ji": lam_ji,
                    "x_i": x_i, "x_j": x_j,
                    "residual": pres.format_poly(residual),
                }
    status = "PASS" if minimal is None else "DISCREPANT"
    return CommutationReport(side, dtype, n_max, samples, status, minimal, counterexample)


def naive_ladder(ctx, i: int, power: int) -> dict:
    """sum_{j=1}^{power} nu_i(x_i)^(j-1) x_i^(power-j) as exponent -> coeff,
    summed from scratch with a running power of nu_i(x_i): the oracle for
    ``CalculusContext.ladder``."""
    field = ctx.pres.field
    slope = ctx.nus[i - 1].slopes[i - 1]
    shift = ctx.nus[i - 1].shifts[i - 1]
    acc = {0: field.one}           # nu_i(x_i)^(j-1)
    total: dict = {}
    for j in range(1, power + 1):
        linalg.add_into(total, {exp + power - j: c for exp, c in acc.items()})
        if j < power:
            nxt = {exp + 1: c * slope for exp, c in acc.items()}
            if shift:
                linalg.add_into(nxt, acc, shift)
            acc = nxt
    return total


def u_ij_by_definition(ctx, i: int, j: int, a: int) -> dict:
    """U_ij(a) = s_ji partial_i(nu_j(x_i^a)) + s_ij nu_j(L_i(a)) for i < j,
    as x_i-exponent -> coeff, evaluated term by term: s_ji and s_ij are the
    scalars of sorting (j, i) and (i, j) times the degree-1 sign, and
    partial_i sends x_i^b to the ladder sum L_i(b).  The oracle for the
    closed form kappa_ij nu_j(L_i(a)) that ``calculus.d_squared_failures``
    reads."""
    minus = -ctx.pres.field.one
    s_ji = ctx.basis_sort((j, i))[0] * minus
    s_ij = minus        # (i, j) is already sorted
    nu_j = ctx.nus[j - 1]
    u: dict = {}
    for b, c in nu_j.power_image(i, a).items():
        linalg.add_into(u, ctx.ladder(i, b), c * s_ji)
    for t, c in ctx.ladder(i, a).items():
        linalg.add_into(u, nu_j.power_image(i, t), c * s_ij)
    return u


def poly_dict(p: NcPoly) -> dict:
    return dict(p.terms)


def random_rational(rng: random.Random, height: int = 5) -> Fraction:
    return Fraction(rng.randint(-height, height), rng.randint(1, height))


def random_nonzero_rational(rng: random.Random, height: int = 5) -> Fraction:
    while True:
        x = random_rational(rng, height)
        if x:
            return x


def random_skew_presentation(rng: random.Random, n: int = 3,
                             with_tails: bool = True, field=None) -> Presentation:
    field = field or QQ
    relations = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            a = random_nonzero_rational(rng, 4)
            tail = {}
            e = Fraction(0)
            if with_tails:
                for g in range(1, n + 1):
                    if rng.random() < 0.3:
                        tail[g] = random_rational(rng, 3)
                if rng.random() < 0.4:
                    e = random_rational(rng, 3)
            relations[(i, j)] = (a, tail, e)
    return Presentation.skew(field, n, relations)


def random_word(rng: random.Random, n: int, max_len: int) -> tuple:
    return tuple(rng.randint(1, n) for _ in range(rng.randint(0, max_len)))


def random_poly(pres: Presentation, rng: random.Random, max_degree: int = 3,
                terms: int = 3) -> NcPoly:
    out = {}
    for _ in range(terms):
        exps = [0] * pres.n
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(pres.n)] += 1
        c = random_rational(rng, 4)
        if c:
            out[tuple(exps)] = out.get(tuple(exps), Fraction(0)) + c
    return pres.poly(out)


def naive_classify_3d(pres: Presentation) -> Classification:
    """The fifteen-class shape match as one hand-written branch per class,
    in the same first-match order as ``smoothness.THREE_DIM_CLASSES``."""
    alpha, beta, gamma, lam, mu, nu = _display_form(pres)
    one = pres.field.one

    def is_zero(vec):
        return not any(vec)

    def is_const(vec):
        return not any(vec[1:])

    def is_multiple_of(vec, g):
        # a scalar multiple of generator g (possibly zero), no constant part
        return not vec[0] and not any(v for i, v in enumerate(vec[1:], start=1) if i != g)

    def is_exactly(vec, g):
        return is_multiple_of(vec, g) and vec[g] == one

    if is_zero(lam) and is_zero(mu) and is_zero(nu):
        return Classification("1", {"alpha": alpha, "beta": beta, "gamma": gamma},
                              header_ok=len({alpha, beta, gamma}) == 3)
    if alpha == one and gamma == one and beta != one:
        params = {"beta": beta}
        if is_exactly(lam, 3) and is_exactly(mu, 2) and is_exactly(nu, 1):
            return Classification("2a", params, header_ok=True)
        if is_exactly(lam, 3) and is_const(mu) and is_exactly(nu, 1):
            return Classification("2b", dict(params, b=mu[0]), header_ok=True)
        if is_zero(lam) and is_exactly(mu, 2) and is_zero(nu):
            return Classification("2c", params, header_ok=True)
        if is_zero(lam) and is_const(mu) and is_zero(nu):
            return Classification("2d", dict(params, b=mu[0]), header_ok=True)
        if is_multiple_of(lam, 3) and is_zero(mu) and is_exactly(nu, 1):
            return Classification("2e", dict(params, a=lam[3]), header_ok=True)
        if is_exactly(lam, 3) and is_zero(mu) and is_zero(nu):
            return Classification("2f", params, header_ok=True)
    if alpha == gamma and alpha != one and is_zero(lam) and is_zero(nu):
        params = {"alpha": alpha, "beta": beta}
        if mu[2] == one and not mu[1] and not mu[3]:
            return Classification("3a", dict(params, b=mu[0]), header_ok=True)
        if is_const(mu):
            return Classification("3b", dict(params, b=mu[0]), header_ok=True)
    if alpha == beta == gamma and alpha != one:
        if not lam[2] and not lam[3] and not mu[1] and not mu[3] and not nu[1] and not nu[2]:
            return Classification("4", {"alpha": alpha,
                                        "a1": lam[1], "b1": lam[0],
                                        "a2": mu[2], "b2": mu[0],
                                        "a3": nu[3], "b3": nu[0]}, header_ok=True)
    if alpha == one and beta == one and gamma == one:
        if is_exactly(lam, 1) and is_exactly(mu, 2) and is_exactly(nu, 3):
            return Classification("5a", {}, header_ok=True)
        if is_zero(lam) and is_zero(mu) and is_exactly(nu, 3):
            return Classification("5b", {}, header_ok=True)
        if is_zero(lam) and is_zero(mu) and is_const(nu):
            return Classification("5c", {"b": nu[0]}, header_ok=True)
        if is_multiple_of(lam, 2) and lam[2] == -one and not mu[0] and not mu[3] \
                and mu[1] == one and mu[2] == one and is_zero(nu):
            return Classification("5d", {}, header_ok=True)
        if is_multiple_of(lam, 3) and is_exactly(mu, 1) and is_zero(nu):
            return Classification("5e", {"a": lam[3]}, header_ok=True)
    return Classification("NONE", {"alpha": alpha, "beta": beta, "gamma": gamma},
                          header_ok=None)
