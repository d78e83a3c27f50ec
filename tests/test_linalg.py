import random
from fractions import Fraction as F

import pytest

from skewsmooth.linalg import AffineSolutionSet, det, nullspace, rank, rref, solve_affine
from skewsmooth.scalars import QQ, PrimeField


def test_rref_pivots():
    rows = [[F(2), F(4)], [F(1), F(2)]]
    red, pivots = rref(QQ, rows)
    assert pivots == [0]
    assert red[0] == [F(1), F(2)]


def test_rank():
    assert rank(QQ, [[F(1), F(2)], [F(2), F(4)], [F(0), F(1)]]) == 2


def test_nullspace_vectors_annihilate():
    rng = random.Random(0)
    for _ in range(20):
        rows = [[QQ.random(rng) for _ in range(4)] for _ in range(3)]
        for v in nullspace(QQ, rows):
            for row in rows:
                assert sum((a * b for a, b in zip(row, v)), F(0)) == 0


def test_solve_affine_unique():
    sol = solve_affine(QQ, [[F(1), F(1)], [F(1), F(-1)]], [F(3), F(1)])
    assert sol.particular == (F(2), F(1)) and sol.homogeneous == ()


def test_solve_affine_inconsistent():
    sol = solve_affine(QQ, [[F(1), F(1)], [F(2), F(2)]], [F(1), F(3)])
    assert sol.is_empty and sol.dimension == -1


def test_solve_affine_line():
    sol = solve_affine(QQ, [[F(1), F(1)]], [F(2)])
    assert not sol.is_empty and len(sol.homogeneous) == 1
    u0, v0 = sol.particular
    du, dv = sol.homogeneous[0]
    assert u0 + v0 == 2 and du + dv == 0


def test_det_matches_cofactor_values():
    m = [[F(1), F(2), F(0), F(1)],
         [F(0), F(1), F(3), F(0)],
         [F(2), F(0), F(1), F(1)],
         [F(1), F(1), F(0), F(2)]]
    # value cross-checked with an independent dense determinant (sympy)
    assert det(QQ, m) == 16


def test_det_multiplicative_random():
    rng = random.Random(3)
    for _ in range(10):
        a = [[QQ.random(rng) for _ in range(3)] for _ in range(3)]
        b = [[QQ.random(rng) for _ in range(3)] for _ in range(3)]
        ab = [[sum((a[i][k] * b[k][j] for k in range(3)), F(0)) for j in range(3)]
              for i in range(3)]
        assert det(QQ, ab) == det(QQ, a) * det(QQ, b)


def test_prime_field_solve():
    Fp = PrimeField(7)
    rows = [[Fp.coerce(2), Fp.coerce(1)], [Fp.coerce(1), Fp.coerce(3)]]
    rhs = [Fp.coerce(5), Fp.coerce(4)]
    sol = solve_affine(Fp, rows, rhs)
    u, v = sol.particular
    assert (rows[0][0] * u + rows[0][1] * v, rows[1][0] * u + rows[1][1] * v) == \
        (rhs[0], rhs[1])


def test_affine_solution_set_api():
    s = AffineSolutionSet(None, ())
    assert s.is_empty and s.dimension == -1


# -- sympy oracle for the sparse elimination routine ---------------------------

FIELDS = [QQ, PrimeField(7), PrimeField(2147483647)]


def _random_sparse(rng, field, nrows, ncols, density=0.3):
    def entry():
        if rng.random() >= density:
            return field.zero
        return field.random_nonzero(rng, 5)
    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


def _shapes(rng, field):
    """Wide, tall, with zero rows, with duplicate rows, all-zero, and one
    tuple of tuples."""
    out = []
    for _ in range(4):
        out.append(_random_sparse(rng, field, rng.randint(1, 4), rng.randint(5, 9)))
        out.append(_random_sparse(rng, field, rng.randint(5, 9), rng.randint(1, 4)))
        m = _random_sparse(rng, field, rng.randint(3, 7), rng.randint(3, 7))
        m[rng.randrange(len(m))] = [field.zero] * len(m[0])
        out.append(m)
        m = _random_sparse(rng, field, rng.randint(3, 6), rng.randint(3, 7), density=0.5)
        m.append(list(m[rng.randrange(len(m))]))
        m.append([x * 3 for x in m[rng.randrange(len(m))]])
        rng.shuffle(m)
        out.append(m)
    out.append([[field.zero] * 4 for _ in range(3)])
    out.append(tuple(tuple(r) for r in out[2]))    # rows as tuples, as diffusion passes them
    return out


def _domain_matrix(field, rows):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    if field == QQ:
        dom = sympy.QQ
        elems = [[dom(x.numerator, x.denominator) for x in r] for r in rows]
    else:
        dom = sympy.GF(field.p)
        elems = [[dom(x.value) for x in r] for r in rows]
    return DomainMatrix(elems, (len(rows), len(rows[0])), dom)


def _from_domain(field, elem):
    if field == QQ:
        return F(int(elem.numerator), int(elem.denominator))
    return field.coerce(int(elem) % field.p)


def _matvec(field, rows, v):
    return [sum((a * b for a, b in zip(r, v)), field.zero) for r in rows]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_rref_rank_nullspace_match_sympy(field):
    rng = random.Random(11)
    for rows in _shapes(rng, field):
        dm = _domain_matrix(field, rows)
        ref, ref_pivots = dm.rref()
        red, pivots = rref(field, rows)
        assert pivots == list(ref_pivots)
        assert red == [[_from_domain(field, x) for x in r] for r in ref.to_list()]
        assert rank(field, rows) == dm.rank()
        basis = nullspace(field, rows)
        assert len(basis) == len(rows[0]) - dm.rank()
        for v in basis:
            assert all(not x for x in _matvec(field, rows, v))
        if basis:
            assert rank(field, basis) == len(basis)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_solve_affine_matches_sympy(field):
    rng = random.Random(12)
    for rows in _shapes(rng, field):
        consistent_rhs = _matvec(field, rows, [field.random(rng, 5) for _ in rows[0]])
        random_rhs = [field.random(rng, 5) for _ in rows]
        for rhs in (consistent_rhs, random_rhs):
            aug = [list(r) + [b] for r, b in zip(rows, rhs)]
            rank_a = _domain_matrix(field, rows).rank()
            consistent = _domain_matrix(field, aug).rank() == rank_a
            sol = solve_affine(field, rows, rhs)
            assert sol.is_empty is not consistent
            if consistent:
                assert _matvec(field, rows, sol.particular) == list(rhs)
                assert sol.dimension == len(rows[0]) - rank_a
                for v in sol.homogeneous:
                    assert all(not x for x in _matvec(field, rows, v))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_det_matches_sympy(field):
    rng = random.Random(13)
    for n in range(1, 6):
        for density in (0.3, 0.7, 1.0):
            for _ in range(4):
                rows = _random_sparse(rng, field, n, n, density)
                expected = _from_domain(field, _domain_matrix(field, rows).det())
                assert det(field, rows) == expected
    # permutation matrices: the determinant is the sign of the pivot order alone
    for n in range(1, 7):
        swapped = list(range(n))
        swapped[0], swapped[-1] = swapped[-1], swapped[0]
        for perm in (range(n), swapped, rng.sample(range(n), n), rng.sample(range(n), n)):
            rows = tuple(tuple(field.one if c == p else field.zero for c in range(n))
                         for p in perm)
            expected = _from_domain(field, _domain_matrix(field, rows).det())
            assert det(field, rows) == expected
    assert det(field, []) == field.one


# -- sympy oracle for the fraction-free determinant -----------------------------

def _assert_det_matches_sympy(field, rows):
    expected = _from_domain(field, _domain_matrix(field, rows).det())
    assert det(field, rows) == expected


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_det_swaps_a_zero_pivot_at_each_stage(field):
    # an upper triangle with a nonzero diagonal, rows k and k + 1 exchanged:
    # the pivot of stage k is zero and only row k + 1 can replace it; with all
    # rows reversed, most stages need a swap
    rng = random.Random(14)
    for n in range(2, 7):
        upper = [[field.zero] * c + [field.random_nonzero(rng, 9) for _ in range(n - c)]
                 for c in range(n)]
        for k in range(n - 1):
            rows = list(upper)
            rows[k], rows[k + 1] = rows[k + 1], rows[k]
            _assert_det_matches_sympy(field, rows)
        _assert_det_matches_sympy(field, upper[::-1])


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_det_of_a_zero_column_is_zero(field):
    rng = random.Random(15)
    for n in range(1, 6):
        for c in range(n):
            rows = [[field.random_nonzero(rng, 9) for _ in range(n)] for _ in range(n)]
            for r in rows:
                r[c] = field.zero
            assert det(field, rows) == field.zero
            _assert_det_matches_sympy(field, rows)


def test_det_of_rows_with_mixed_denominators():
    rng = random.Random(16)
    for n in range(1, 6):
        for _ in range(6):
            # each row mixes denominators, so each row has its own scale
            rows = [[F(rng.randint(-30, 30), rng.choice((1, 2, 3, 4, 6, 7, 9, 10)))
                     for _ in range(n)] for _ in range(n)]
            _assert_det_matches_sympy(QQ, rows)
    assert det(QQ, [[F(1, 2), F(1, 3)], [F(1, 5), F(1, 7)]]) == F(1, 14) - F(1, 15)


def test_det_of_plain_int_entries():
    rng = random.Random(17)
    for n in range(1, 6):
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        _assert_det_matches_sympy(QQ, rows)
        assert isinstance(det(QQ, rows), F)
    assert det(QQ, [[0, 1], [1, 0]]) == -1


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_det_of_random_aut_matrices_matches_sympy(field):
    from skewsmooth.diffusion import build_aut_matrices, random_sigma
    rng = random.Random(18)
    for _ in range(8):
        m = build_aut_matrices(random_sigma(rng, field, invertible=False),
                               field.random_nonzero(rng, 9), field.random(rng, 9), field)
        for rows in (m.a_matrix, m.gamma, m.theta, m.l_matrix):
            _assert_det_matches_sympy(field, rows)
