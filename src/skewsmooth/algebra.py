"""PBW monomials, noncommutative polynomials, quasi-commutation presentations,
and the normal-form rewriting engine with overlap (diamond) checking.

A presentation stores, for each generator pair i < j, the relation

    x_i x_j  -  quad * x_j x_i  =  tail        (tail: scalar combination of
                                                normal-ordered words)

together with a monomial-order convention.  ASCENDING presentations normalize
words to x_1^{l_1} ... x_n^{l_n} (the skew-polynomial convention); DESCENDING
presentations normalize to x_n^{l_n} ... x_1^{l_1} (the diffusion convention).

Rewriting a wrong-order adjacent pair terminates: the swap branch fixes one
inversion among non-central letters, a tail word either drops total degree or
(degree-two tails, which must involve a central letter) removes a non-central
inversion while adding only central-letter inversions, and central swaps fix a
remaining inversion.  The measure (degree, non-central inversions, all
inversions) decreases lexicographically at every step.  Each memo entry of the
rewriting engine waits only for entries whose words lie below its own in this
measure, so the engine's work stack always empties.  A memo key is the word
with some of its letters left out (the central ones and a prefix of the rest),
and leaving out letters raises neither the degree nor any inversion count, so
a key's word is no higher in the measure than the word it stands for.
"""

from __future__ import annotations

from enum import Enum
from itertools import accumulate, chain, combinations, compress
from operator import add, mul, sub
from typing import Iterable, Mapping, NamedTuple

from .errors import MismatchedArityError, NonDiagonalTailError, ZeroQuadCoeffError
from .linalg import add_into

__all__ = [
    "Ordering",
    "NcPoly",
    "PairRule",
    "Presentation",
    "OverlapCheck",
    "OverlapReport",
    "degree_truncation",
    "relabel",
]

Monomial = tuple  # exponent vector, one entry per generator
Word = tuple      # product of 1-based generator indices, leftmost factor first


class Ordering(str, Enum):
    ASCENDING = "ascending"
    DESCENDING = "descending"


class NcPoly:
    """Finite scalar combination of PBW monomials (exponent vectors).

    The term map never stores zero coefficients, so equality is map equality.
    Addition and scaling are field-generic; multiplication lives on the
    presentation because it needs the rewrite rules.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, object] | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @staticmethod
    def zero() -> "NcPoly":
        return NcPoly()

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, NcPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "NcPoly") -> "NcPoly":
        out = dict(self.terms)
        add_into(out, other.terms)
        return _poly(out)

    def __neg__(self) -> "NcPoly":
        return _poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "NcPoly") -> "NcPoly":
        return self + (-other)

    def scale(self, c) -> "NcPoly":
        if not c:
            return NcPoly.zero()
        terms = {m: c * v for m, v in self.terms.items()}
        # p may divide a plain int; a nonzero field element times one is nonzero
        return NcPoly(terms) if c.__class__ is int else _poly(terms)

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree -1."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def __repr__(self):
        if not self.terms:
            return "NcPoly(0)"
        bits = []
        for m in sorted(self.terms, key=lambda m: (sum(m), m)):
            mono = "*".join(f"x{g + 1}^{e}" if e > 1 else f"x{g + 1}"
                            for g, e in enumerate(m) if e) or "1"
            bits.append(f"({self.terms[m]})*{mono}")
        return "NcPoly(" + " + ".join(bits) + ")"


def _poly(terms: dict) -> NcPoly:
    """The polynomial that owns ``terms``, a map with no zero coefficient,
    without the filtering copy of ``NcPoly(...)``."""
    p = NcPoly.__new__(NcPoly)
    p.terms = terms
    return p


class PairRule(NamedTuple):
    """Relation data for a pair i < j: x_i x_j - quad x_j x_i = tail."""

    quad: object
    tail: tuple  # ((coeff, word), ...) with normal-ordered words of degree <= 2


class OverlapCheck(NamedTuple):
    i: int
    j: int
    k: int
    passed: bool
    discrepancy: NcPoly


class OverlapReport(NamedTuple):
    checks: tuple

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]


def _signed_sum(bits: list) -> str:
    """The terms joined as a sum, "a - b" for a term "-b"; "0" when there are none."""
    if not bits:
        return "0"
    return bits[0] + "".join(f" - {b[1:]}" if b.startswith("-") else f" + {b}" for b in bits[1:])


class Presentation:
    """An n-generator quasi-commutation presentation with an order convention.

    Generators are 1-based.  ``pairs`` maps (i, j) with i < j to a PairRule;
    missing pairs default to the commutative rule (quad 1, no tail).  Central
    generators must carry exactly the commutative rule against everything.
    """

    def __init__(self, field, n: int, ordering: Ordering = Ordering.ASCENDING,
                 pairs: Mapping[tuple, PairRule] | None = None,
                 central: Iterable[int] = (), names: tuple | None = None):
        self.field = field
        self._one = field.one
        self.n = n
        self.ordering = Ordering(ordering)
        self.central = frozenset(central)
        stray = sorted(g for g in self.central if not 1 <= g <= n)
        if stray:
            raise MismatchedArityError(f"central generators out of range: {stray}")
        self.names = tuple(names) if names else tuple(f"x{i}" for i in range(1, n + 1))
        if len(self.names) != n:
            raise MismatchedArityError("names length differs from generator count")
        ascending = self.ordering is Ordering.ASCENDING
        # rank[p]: the 0-based place of generator p + 1 in a normal word; the
        # map is its own inverse, so rank[r] is also the position of rank r
        rank = range(n) if ascending else range(n - 1, -1, -1)
        # ranked[g]: the rank of generator g as a tail letter, n for a central one
        ranked = [n, *rank]
        for g in self.central:
            ranked[g] = n
        # reach[r]: the least rank of a non-central tail letter among the
        # pairs whose earlier letter has rank r (n when there is none)
        reach = [n] * n
        full = {}
        pairs = dict(pairs or {})
        for i, j in combinations(range(1, n + 1), 2):
            rule = pairs.pop((i, j), None)
            if rule is None:
                rule = PairRule(self._one, ())
            else:
                least = self._validate_rule(i, j, rule, ranked)
                r = i - 1 if ascending else n - j
                if least < reach[r]:
                    reach[r] = least
            full[(i, j)] = rule
        if pairs:
            raise MismatchedArityError(f"pair keys out of range: {sorted(pairs)}")
        self.pairs = full
        self._memo: dict = {}           # (core monomial, generator) -> {monomial: coeff}
        self._branch_table: dict = {}   # wrong-order pair (u, v) -> rewrite branches
        self._tails: dict = {}          # pair (i, j) -> (linear tail tuple, constant)
        # The floor of g is the furthest rank a rewrite of m . x_g can reach:
        # start at g's rank and lower it to the least rank reached by the
        # pairs of letters at or after it, until nothing lower is reached.
        # That stops at the last closed rank f at or before g's, closed
        # meaning that no pair of letters at or after f reaches a rank before
        # f: the suffix minimum low[f] of reach is at least f.
        low = list(accumulate(reach[::-1], min))[::-1]
        keep = tuple(0 if p + 1 in self.central else 1 for p in rank)
        noncentral = tuple(compress(rank, keep))    # 0-based, by rank
        # the same, from the last letter of a normal word
        self._scan = noncentral[::-1]
        # per generator g, the positions a core of m . x_g keeps (a mask that
        # zeroes the central ones and those at or before g's floor) and the
        # non-central positions after g: m . x_g is normal iff m is zero on
        # all of them.  Central generators take no core.
        masks, after = [None] * (n + 1), [None] * (n + 1)
        floor = ahead = 0
        for r in range(n):
            g = rank[r] + 1
            if low[r] >= r:
                floor = r
            ahead += keep[r]
            after[g] = noncentral[ahead:]
            if keep[r]:
                mask = (0,) * (floor + 1) + keep[floor + 1:]
                masks[g] = mask if ascending else mask[::-1]
        self._core_masks = tuple(masks)
        self._after = tuple(after)

    def _validate_rule(self, i, j, rule: PairRule, ranked) -> int:
        """Raise on a malformed rule; else the least of ``ranked[g]`` over
        its tail letters g, n when it has none."""
        n = least = self.n
        central = self.central
        if self.ordering is Ordering.ASCENDING and not rule.quad:
            raise ZeroQuadCoeffError(
                f"pair ({i}, {j}): ascending rewriting needs an invertible quad coefficient")
        for coeff, word in rule.tail:
            if len(word) > 2:
                raise MismatchedArityError("tail words must have degree <= 2")
            for g in word:
                if not (1 <= g <= n):
                    raise MismatchedArityError(f"tail generator {g} out of range")
                if ranked[g] < least:
                    least = ranked[g]
            if len(word) == 2:
                u, v = word
                ordered = u <= v if self.ordering is Ordering.ASCENDING else u >= v
                if not ordered:
                    raise MismatchedArityError("degree-two tail words must be normal-ordered")
                if u not in central and v not in central:
                    raise MismatchedArityError(
                        "degree-two tail words must involve a central generator")
        if (i in central or j in central) and (rule.quad != self._one or rule.tail):
            raise MismatchedArityError(
                f"central pair ({i}, {j}) must be plainly commutative")
        return least

    # -- constructors -------------------------------------------------------

    @classmethod
    def skew(cls, field, n: int, relations: Mapping | None = None, names=None) -> "Presentation":
        """ASCENDING presentation from spag data.

        ``relations`` maps (i, j) to (a_ij, tail, e_ij) where ``tail`` maps a
        generator index to its linear coefficient.  Unspecified pairs default
        to a = 1 with zero tails.
        """
        pairs = {}
        for (i, j), (a, tail, e) in (relations or {}).items():
            a = field.coerce(a)
            terms = []
            for g in sorted(tail):
                c = field.coerce(tail[g])
                if c:
                    terms.append((c, (g,)))
            e = field.coerce(e)
            if e:
                terms.append((e, ()))
            pairs[(i, j)] = PairRule(a, tuple(terms))
        return cls(field, n, Ordering.ASCENDING, pairs, names=names)

    @classmethod
    def commutative(cls, field, n: int) -> "Presentation":
        return cls(field, n, Ordering.ASCENDING, {})

    # -- spag accessors -----------------------------------------------------

    def a(self, i: int, j: int):
        return self.pairs[(i, j)].quad

    def _tail(self, i: int, j: int):
        """Linear tail of the pair as a dense tuple, plus the constant term;
        built once per pair."""
        got = self._tails.get((i, j))
        if got is None:
            vec = [self.field.zero] * self.n
            const = self.field.zero
            for coeff, word in self.pairs[(i, j)].tail:
                if len(word) == 0:
                    const = const + coeff
                elif len(word) == 1:
                    vec[word[0] - 1] = vec[word[0] - 1] + coeff
                else:
                    raise NonDiagonalTailError(f"pair ({i}, {j}) carries a non-linear tail")
            got = self._tails[(i, j)] = (tuple(vec), const)
        return got

    def tail_vector(self, i: int, j: int):
        """Linear tail as a dense vector (a new list), plus the constant term."""
        vec, const = self._tail(i, j)
        return list(vec), const

    def b(self, i: int, j: int):
        return self._tail(i, j)[0][i - 1]

    def c(self, i: int, j: int):
        return self._tail(i, j)[0][j - 1]

    def e(self, i: int, j: int):
        return self._tail(i, j)[1]

    @property
    def is_linear_tailed(self) -> bool:
        return all(len(w) <= 1 for rule in self.pairs.values() for _, w in rule.tail)

    def diagonal_tail_offenders(self):
        """(i, j, k) triples with a tail entry on a third generator k."""
        found = []
        for (i, j) in sorted(self.pairs):
            for coeff, word in self.pairs[(i, j)].tail:
                if len(word) == 1 and word[0] not in (i, j) and coeff:
                    found.append((i, j, word[0]))
        return found

    # -- polynomial builders -------------------------------------------------

    def one(self) -> NcPoly:
        return NcPoly({(0,) * self.n: self._one})

    def scalar(self, c) -> NcPoly:
        return NcPoly({(0,) * self.n: self.field.coerce(c)})

    def gen(self, i: int) -> NcPoly:
        if not (1 <= i <= self.n):
            raise MismatchedArityError(f"generator {i} out of range")
        exps = [0] * self.n
        exps[i - 1] = 1
        return NcPoly({tuple(exps): self._one})

    def _check_exponents(self, monomials) -> None:
        n = self.n
        for exps in monomials:
            if len(exps) != n or exps and min(exps) < 0:
                raise MismatchedArityError(f"bad exponent vector {exps}")

    def mono(self, exps, coeff=None) -> NcPoly:
        exps = tuple(exps)
        self._check_exponents((exps,))
        return NcPoly({exps: self._one if coeff is None else self.field.coerce(coeff)})

    def poly(self, terms: Mapping) -> NcPoly:
        out = {}
        for exps, c in terms.items():
            exps = tuple(exps)
            self._check_exponents((exps,))
            c = self.field.coerce(c)
            if c:
                out[exps] = c
        return _poly(out)

    def monomial_word(self, m: Monomial) -> Word:
        gens = range(1, self.n + 1) if self.ordering is Ordering.ASCENDING \
            else range(self.n, 0, -1)
        word: Word = ()
        for g in gens:
            word += (g,) * m[g - 1]
        return word

    # -- rewriting -----------------------------------------------------------
    #
    # Every rewrite is a left fold of "monomial times generator".  In the word
    # of a normal-ordered monomial m followed by x_g the only wrong-order pair
    # is (last letter h of m, g), so leftmost rewriting of m'.h.g is the sum,
    # over the branches of (h, g), of the coefficient times the fold of the
    # branch word into m'.  A word w_1 ... w_k is reduced prefix first by the
    # leftmost strategy, so folding its letters one by one into 1 gives exactly
    # the leftmost normal form, whether or not the presentation is PBW.
    #
    # Products m . x_g are memoised per (core, g).  The core is m with its
    # central exponents zeroed and those of every letter at or before the
    # floor of g.  The floor is the furthest letter a rewrite of m . x_g can
    # produce: starting at g, it moves back to the furthest non-central tail
    # letter of the pairs whose two letters are both at or after it, until
    # none is further (ranks, counted from the first letter of a normal word,
    # make ASCENDING and DESCENDING one case; the constructor finds every
    # floor in one suffix-minimum sweep).  Every non-central letter that a
    # rewrite of core . x_g produces is at or after the floor, so none forms a
    # wrong-order pair with a letter of the stripped prefix, and a central
    # letter commutes plainly with every generator.  Leftmost rewriting of
    # prefix . core . x_g therefore runs step for step as that of core . x_g
    # with the prefix kept in front, PBW or not.  Hence m . x_g is core . x_g
    # with the rest of m added back as an exponent shift, and m . x_c = m +
    # e_c for central c.  The floor is never before the lead (the first
    # non-central letter of a normal word), since every non-central letter
    # is at or after it; with no tails at all the floor of g is g.  Missing
    # memo entries are computed from an explicit work stack, so the depth
    # of a rewrite is bounded by the heap and not by the interpreter's
    # recursion limit.
    #
    # multiply(p, q) with a constant factor c on either side is the other
    # factor scaled by c.  Otherwise it folds p through the words of q's
    # monomials in sorted order.  A stack keeps the folds of the prefix each
    # word shares with the next one, so each word starts from the longest
    # prefix it shares with an earlier word (in sorted order that is the
    # previous one).  A q of one term has no prefix to share, so its word is
    # folded whole.

    def _branches(self, u: int, v: int):
        """Rewrite branches (coeff, word) for the adjacent wrong-order product
        x_u x_v, built on first use.  Zero branches are dropped and a
        coefficient equal to one is the field's one, so products skip it."""
        out = self._branch_table.get((u, v))
        if out is not None:
            return out
        one = self._one
        if self.ordering is Ordering.ASCENDING:
            rule = self.pairs[(v, u)]
            inv = one / rule.quad
            raw = [(inv, (v, u))] + [(-(t * inv), w) for t, w in rule.tail]
        else:
            rule = self.pairs[(u, v)]
            raw = [(rule.quad, (v, u))] + list(rule.tail)
        out = tuple((one if c == one else c, w) for c, w in raw if c)
        self._branch_table[(u, v)] = out
        return out

    def _step(self, terms: dict, g: int, missing: list):
        """terms . x_g as a new {monomial: coeff}, or None (with the missing
        memo keys appended to ``missing``) when some product is not memoised
        yet."""
        gi = g - 1
        if g in self.central:
            out = {}
            for m, c in terms.items():
                e = list(m)
                e[gi] += 1
                out[tuple(e)] = c
            return out
        mask = self._core_masks[g]
        memo = self._memo
        after = self._after[g]
        # (coeff, memo entry, shift), or (coeff, None, product) when m . x_g
        # is already normal
        images = []
        for m, c in terms.items():
            for i in after:
                if m[i]:
                    break
            else:
                e = list(m)
                e[gi] += 1
                images.append((c, None, tuple(e)))
                continue
            core = tuple(map(mul, m, mask))
            img = memo.get((core, g))
            if img is None:
                missing.append((core, g))
            else:
                images.append((c, img, None if core == m else tuple(map(sub, m, core))))
        if len(images) < len(terms):
            return None
        one = self._one
        out: dict = {}
        # linalg.add_into inlined: the `is one` skips pay on the rewrite hot path
        for c, img, shift in images:
            if img is None:
                entries = ((shift, one),)
            elif shift is None:
                entries = img.items()
            else:
                entries = zip([tuple(map(add, r, shift)) for r in img], img.values())
            for r, rc in entries:
                v = c if rc is one else rc if c is one else c * rc
                s = out.get(r)
                if s is None:
                    out[r] = v
                else:
                    s = s + v
                    if s:
                        out[r] = s
                    else:
                        del out[r]
        return out

    def _attempt(self, key, missing: list):
        """The memo entry core . x_g for a wrong-order key, or None when it
        waits for other entries (appended to ``missing``)."""
        core, g = key
        h = next(i for i in self._scan if core[i]) + 1
        e = list(core)
        e[h - 1] -= 1
        rest = tuple(e)
        out: dict = {}
        waiting = False
        for coeff, word in self._branches(h, g):
            terms = {rest: coeff}
            for letter in word:
                terms = self._step(terms, letter, missing)
                if terms is None:
                    break
            if terms is None:
                waiting = True      # the other branches still report their keys
            elif not waiting:
                add_into(out, terms)
        return None if waiting else out

    def _solve(self, keys: list) -> None:
        """Memoise the given keys and everything they wait for, without
        recursion: a key whose entry waits for others stays on the work stack
        below them and is retried once they are done."""
        memo = self._memo
        stack = list(keys)
        while stack:
            key = stack[-1]
            if key in memo:
                stack.pop()
                continue
            out = self._attempt(key, stack)
            if out is not None:
                memo[key] = out
                stack.pop()

    def _fold(self, terms: dict, word) -> dict:
        """terms . x_{w_1} ... x_{w_k}, one letter at a time."""
        for g in word:
            missing: list = []
            out = self._step(terms, g, missing)
            if out is None:
                self._solve(missing)
                out = self._step(terms, g, missing)
            terms = out
        return terms

    def normal_form(self, word) -> NcPoly:
        """PBW normal form of the raw word x_{w_1} ... x_{w_k}, given as the
        tuple of generator indices; its terms are a new dict, shared with no
        memo entry."""
        for g in word:
            if not (1 <= g <= self.n):
                raise MismatchedArityError(f"generator {g} out of range (n={self.n})")
        return _poly(self._fold({(0,) * self.n: self._one}, word))

    def multiply(self, p: NcPoly, q: NcPoly) -> NcPoly:
        self._check_exponents(chain(p.terms, q.terms))
        unit = (0,) * self.n
        if len(p.terms) == 1 and unit in p.terms:
            return q.scale(p.terms[unit])
        if len(q.terms) == 1 and unit in q.terms:
            return p.scale(q.terms[unit])
        out: dict = {}
        if len(q.terms) < 2:
            for m2, c2 in q.terms.items():
                add_into(out, self._fold(p.terms, self.monomial_word(m2)), c2)
            return _poly(out)
        words = sorted(zip(map(self.monomial_word, q.terms), q.terms.values()))
        folds = [p.terms]   # folds[k]: p . x_{w_1} ... x_{w_k} for the current word w
        for i, (word, c) in enumerate(words, 1):
            shared = 0      # the length of the prefix the next word shares
            for a, b in zip(word, words[i][0] if i < len(words) else ()):
                if a != b:
                    break
                shared += 1
            for g in word[len(folds) - 1:shared]:
                folds.append(self._fold(folds[-1], (g,)))
            add_into(out, self._fold(folds[-1], word[len(folds) - 1:]), c)
            del folds[shared + 1:]
        return _poly(out)

    def product(self, *polys: NcPoly) -> NcPoly:
        out = self.one()
        for p in polys:
            out = self.multiply(out, p)
        return out

    def check_pbw_overlaps(self) -> OverlapReport:
        """Diamond criterion on all triples i < j < k.

        The fully inverted three-letter word is reduced by its two possible
        first steps; both reducts are brought to normal form and compared.
        """
        checks = []
        unit = (0,) * self.n
        for i, j, k in combinations(range(1, self.n + 1), 3):
            if self.ordering is Ordering.ASCENDING:
                word = (k, j, i)
            else:
                word = (i, j, k)
            reducts = []
            for pos in (0, 1):
                u, v = word[pos], word[pos + 1]
                total: dict = {}
                for coeff, repl in self._branches(u, v):
                    rewritten = word[:pos] + repl + word[pos + 2:]
                    add_into(total, self._fold({unit: coeff}, rewritten))
                reducts.append(_poly(total))
            diff = reducts[0] - reducts[1]
            checks.append(OverlapCheck(i, j, k, not diff, diff))
        return OverlapReport(tuple(checks))

    def format_poly(self, p: NcPoly) -> str:
        bits = []
        for m in sorted(p.terms, key=lambda m: (sum(m), tuple(-e for e in m))):
            c = p.terms[m]
            mono = "*".join(
                f"{self.names[g]}^{e}" if e > 1 else self.names[g]
                for g, e in enumerate(m) if e)
            if not mono:
                bits.append(str(c))
            elif c == self._one:
                bits.append(mono)
            elif c == -self._one:
                bits.append(f"-{mono}")
            else:
                bits.append(f"{c}*{mono}")
        return _signed_sum(bits)

    def __eq__(self, other):
        return (isinstance(other, Presentation)
                and self.field == other.field
                and self.n == other.n
                and self.ordering == other.ordering
                and self.central == other.central
                and self.pairs == other.pairs)

    def __hash__(self):
        return hash((self.field, self.n, self.ordering, self.central))

    def __repr__(self):
        return f"Presentation(n={self.n}, {self.ordering.value}, field={self.field!r})"


def degree_truncation(p: NcPoly, max_degree: int) -> NcPoly:
    """Sub-sum of terms of total degree <= max_degree (degree of 0 is -1)."""
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    return _poly({m: c for m, c in p.terms.items() if sum(m) <= max_degree})


def relabel(pres: Presentation, mapping: Mapping[int, int],
            ordering: Ordering) -> Presentation:
    """Rebuild a presentation under a generator bijection and order convention.

    Generator ``mapping[g]`` takes the name of g.  Only linear-tailed
    presentations are supported.  Relations whose pair orientation flips are
    re-solved for the new leading product, which needs the quad coefficient
    to be invertible.
    """
    if sorted(mapping) != list(range(1, pres.n + 1)) or \
            sorted(mapping.values()) != list(range(1, pres.n + 1)):
        raise MismatchedArityError("mapping must be a bijection on 1..n")
    if not pres.is_linear_tailed:
        raise MismatchedArityError("relabel supports linear tails only")
    pairs = {}
    for (i, j), rule in pres.pairs.items():
        u, v = mapping[i], mapping[j]
        if u < v:
            tail = tuple((c, tuple(mapping[g] for g in w)) for c, w in rule.tail)
            pairs[(u, v)] = PairRule(rule.quad, tail)
        else:
            if not rule.quad:
                raise ZeroQuadCoeffError(
                    f"pair ({i}, {j}): orientation flip needs invertible quad coefficient")
            inv = pres.field.one / rule.quad
            tail = tuple((-(c * inv), tuple(mapping[g] for g in w)) for c, w in rule.tail)
            pairs[(v, u)] = PairRule(inv, tail)
    central = frozenset(mapping[g] for g in pres.central)
    names = [pres.names[g - 1] for g in sorted(mapping, key=mapping.get)]
    return Presentation(pres.field, pres.n, ordering, pairs, central=central, names=names)
