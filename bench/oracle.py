"""Reference computations the benchmark checks the program against.

Nothing here imports skewsmooth.  Coefficients are plain ``Fraction`` values
over Q and plain ints in 0..p-1 over F_p; relations come from the input
manifest, not from the program's presentation objects.  The rewriter is the
documented leftmost strategy run as an explicit stack with no memo, so it
cross-checks the program's cached recursive engine rather than re-running it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb


class Field:
    """Q (p = 0) or F_p; elements are Fractions or reduced ints."""

    def __init__(self, p: int = 0):
        self.p = p

    @classmethod
    def from_name(cls, name: str) -> "Field":
        return cls(0) if name == "Q" else cls(int(name.split(":", 1)[1]))

    def __call__(self, value):
        """Coerce an int, a Fraction or its text (``"-3/7"``) into the field."""
        q = Fraction(value)
        if not self.p:
            return q
        return q.numerator * pow(q.denominator, -1, self.p) % self.p

    def mul(self, x, y):
        return x * y % self.p if self.p else x * y

    def add(self, x, y):
        return (x + y) % self.p if self.p else x + y

    def neg(self, x):
        return -x % self.p if self.p else -x

    def inv(self, x):
        return pow(x, -1, self.p) if self.p else 1 / x

    def pow(self, x, e: int):
        if e < 0:
            x, e = self.inv(x), -e
        return pow(x, e, self.p) if self.p else x ** e


def accumulate(out: dict, key, value, field: Field) -> None:
    """out[key] += value, dropping the key when the sum is zero."""
    s = field.add(out.get(key, 0), value)
    if s:
        out[key] = s
    else:
        out.pop(key, None)


class Rewriter:
    """Leftmost rewriting for x_u x_v in the wrong order.

    ``rules`` maps each wrong-order pair (u, v) to the list of
    (coefficient, replacement word) it rewrites to.  ``ascending`` says which
    order is normal.
    """

    def __init__(self, field: Field, n: int, ascending: bool, rules: dict):
        self.field = field
        self.n = n
        self.ascending = ascending
        self.rules = rules

    def wrong(self, u: int, v: int) -> bool:
        return u > v if self.ascending else u < v

    def normal_form(self, terms) -> dict:
        """Weighted words [(coeff, word), ...] -> {exponent vector: coeff}."""
        f = self.field
        stack = [(c, tuple(w)) for c, w in terms if c]
        out: dict = {}
        while stack:
            coeff, word = stack.pop()
            pos = next((t for t in range(len(word) - 1)
                        if self.wrong(word[t], word[t + 1])), None)
            if pos is None:
                exps = [0] * self.n
                for g in word:
                    exps[g - 1] += 1
                accumulate(out, tuple(exps), coeff, f)
                continue
            head, tail = word[:pos], word[pos + 2:]
            for c, repl in self.rules[(word[pos], word[pos + 1])]:
                c = f.mul(coeff, c)
                if c:
                    stack.append((c, head + repl + tail))
        return out

    def monomial_word(self, exps) -> tuple:
        gens = range(1, self.n + 1) if self.ascending else range(self.n, 0, -1)
        return tuple(g for g in gens for _ in range(exps[g - 1]))

    def multiply(self, p: dict, q: dict) -> dict:
        f = self.field
        return self.normal_form([(f.mul(c1, c2), self.monomial_word(m1) + self.monomial_word(m2))
                                 for m1, c1 in p.items() for m2, c2 in q.items()])

    def overlap_discrepancies(self) -> dict:
        """(i, j, k) -> normal form of (first-pair reduct - second-pair reduct)
        of the fully inverted word on i < j < k."""
        f = self.field
        out = {}
        for i in range(1, self.n + 1):
            for j in range(i + 1, self.n + 1):
                for k in range(j + 1, self.n + 1):
                    word = (k, j, i) if self.ascending else (i, j, k)
                    terms = []
                    for pos, sign in ((0, 1), (1, -1)):
                        for c, repl in self.rules[(word[pos], word[pos + 1])]:
                            terms.append((c if sign > 0 else f.neg(c),
                                          word[:pos] + repl + word[pos + 2:]))
                    out[(i, j, k)] = self.normal_form(terms)
        return out


def skew_rewriter(field: Field, n: int, relations: dict) -> Rewriter:
    """x_i x_j - a x_j x_i = sum_g t_g x_g + e (i < j), read as
    x_j x_i -> (1/a) x_i x_j - (1/a) (sum_g t_g x_g + e)."""
    rules = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            a, tail, const = relations.get((i, j), (1, {}, 0))
            inv = field.inv(field(a))
            rule = [(inv, (i, j))]
            rule += [(field.neg(field.mul(inv, field(c))), (g,)) for g, c in sorted(tail.items())
                     if field(c)]
            if field(const):
                rule.append((field.neg(field.mul(inv, field(const))), ()))
            rules[(j, i)] = rule
    return Rewriter(field, n, True, rules)


def diffusion_rewriter(field: Field, n: int, lambdas: dict, xs, central: bool) -> Rewriter:
    """lambda_ij D_i D_j - lambda_ji D_j D_i = x_j D_i - x_i D_j (i < j), read
    in descending order as D_i D_j -> (lambda_ji D_j D_i + x_j D_i - x_i D_j) / lambda_ij.

    With ``central`` the x's are generators n+1..2n that commute with
    everything; otherwise they are the scalars ``xs``.
    """
    lam = {k: field(v) for k, v in lambdas.items()}
    size = 2 * n if central else n
    rules = {}
    for i in range(1, size + 1):
        for j in range(i + 1, size + 1):
            if j > n:                       # a pair involving a central x
                rules[(i, j)] = [(1, (j, i))]
                continue
            inv = field.inv(lam[(i, j)])
            rule = []
            if lam.get((j, i), 0):
                rule.append((field.mul(inv, lam[(j, i)]), (j, i)))
            if central:
                rule += [(inv, (n + j, i)), (field.neg(inv), (n + i, j))]
            else:
                xi, xj = field(xs[i - 1]), field(xs[j - 1])
                if xj:
                    rule.append((field.mul(inv, xj), (i,)))
                if xi:
                    rule.append((field.neg(field.mul(inv, xi)), (j,)))
            rules[(i, j)] = rule
    return Rewriter(field, size, False, rules)


def pq_p(k: int, n: int, lam_ij, lam_ji):
    """P_k^n = sum_{t=1}^{k} C(n-k+t-1, n-k) lam_ji^(t-1) lam_ij^(k-t)."""
    return sum(comb(n - k + t - 1, n - k) * lam_ji ** (t - 1) * lam_ij ** (k - t)
               for t in range(1, k + 1))


def pq_q(k: int, n: int, lam_ji):
    """Q_k^n = C(n, k-1) lam_ji^(k-1)."""
    return comb(n, k - 1) * lam_ji ** (k - 1)


def left_law(n: int, lam_ij, lam_ji, x_i, x_j, central: bool) -> dict:
    """The left-handed power-commutation law as stated (over Q): the claimed
    normal form of lam_ij^n D_i D_j^n on generators (D_i, D_j[, x_i, x_j])."""
    def key(di, dj, xi, xj):
        return (di, dj, xi, xj) if central else (di, dj)

    def coeff(scalar, xi_pow, xj_pow):
        return scalar if central else scalar * x_i ** xi_pow * x_j ** xj_pow

    terms = {key(1, n, 0, 0): lam_ji ** n}
    for k in range(1, n + 1):
        q = pq_q(k, n, lam_ji)
        p = pq_p(k, n, lam_ij, lam_ji)
        for exps, c in ((key(k - 1, 1, 0, n - k + 1), coeff(q, 0, n - k + 1)),
                        (key(k, 0, 1, n - k), -coeff(p, 1, n - k))):
            terms[exps] = terms.get(exps, 0) + c
    return {m: c for m, c in terms.items() if c}


_TERM = re.compile(r"^(?:(?P<coeff>\d+(?:/\d+)?)\*)?(?P<mono>[A-Za-z]\w*(?:\^\d+)?"
                   r"(?:\*[A-Za-z]\w*(?:\^\d+)?)*)$|^(?P<const>\d+(?:/\d+)?)$")


def parse_poly(text: str, names, field: Field) -> dict:
    """Read the program's rendering of a polynomial (``-2/7*x1 + x2^3*x3 - 5``)
    back into {exponent vector: coeff}; raises ValueError on anything else."""
    if text == "0":
        return {}
    index = {name: g for g, name in enumerate(names)}
    tokens = re.findall(r"(^-?|\s[-+]\s)([^\s]+)", text)
    if "".join(sign + body for sign, body in tokens) != text:
        raise ValueError(f"unreadable polynomial {text!r}")
    out: dict = {}
    for sign, body in tokens:
        m = _TERM.match(body)
        if not m:
            raise ValueError(f"unreadable term {body!r} in {text!r}")
        exps = [0] * len(names)
        if m.group("const") is not None:
            c = field(m.group("const"))
        else:
            c = field(m.group("coeff") or 1)
            for factor in m.group("mono").split("*"):
                name, _, power = factor.partition("^")
                exps[index[name]] += int(power or 1)
        accumulate(out, tuple(exps), field.neg(c) if "-" in sign else c, field)
    return out
