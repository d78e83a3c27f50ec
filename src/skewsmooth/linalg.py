"""Small exact linear algebra over an arbitrary field.

Elimination runs on one sparse routine: Gauss-Jordan elimination on rows
stored as ``{column: value}`` dicts that never hold a zero value, in the
manner of structured Gaussian elimination; only the stored entries are ever
touched.  The calculus's per-generator ladder matrices hold one entry per
column when the twist has no shift, and fill up to a triangle with one.
``rref``, ``rank``, ``nullspace`` and ``solve_affine`` take dense matrices
as sequences of rows (lists or tuples) and adapt them to that routine;
``rref`` and ``nullspace`` return lists of row lists.  ``det`` does not: it
eliminates fraction-free on Python ints, so it needs the integer split
``numerator``/``denominator`` of each entry, which ``Fraction`` (Q), ``int``
and ``FpElement`` (F_p) all have.
All arithmetic is exact; pivots are chosen by position, not by size.
The row update is ``add_into``, which the polynomial, endomorphism and form
code share as their one way to add sparse maps.
"""

from __future__ import annotations

from math import lcm
from typing import NamedTuple

__all__ = ["add_into", "eliminate", "sparse_nullspace", "rref", "rank", "nullspace",
           "solve_affine", "det", "AffineSolutionSet"]


def add_into(out: dict, terms, factor=None) -> None:
    """``out += factor * terms`` in place, dropping the entries that cancel.

    Both are sparse maps ``{key: value}`` that store no zero: matrix rows,
    polynomial term maps, the components of a form.  ``factor`` is a nonzero
    scalar, or None for one, so a new entry is never zero and only a sum can
    vanish.
    """
    for k, v in terms.items():
        if factor is not None:
            v = factor * v
        s = out.get(k)
        if s is None:
            out[k] = v
        else:
            s = s + v
            if s:
                out[k] = s
            else:
                del out[k]


def _forward(field, rows):
    """Reduce each row against the pivot rows found before it.

    Returns ``(echelon, leads)``: ``echelon`` maps each pivot column to a row
    that is one there and zero in every column left of it; ``leads`` lists
    the pivot column of each independent row, in input order.  A row that
    reduces to zero gets no pivot.
    """
    one = field.one
    echelon: dict = {}
    leads = []
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        while row:
            lead = min(row)
            pivot_row = echelon.get(lead)
            if pivot_row is None:
                break
            add_into(row, pivot_row, -row[lead])
        if not row:
            continue
        inv = one / row[lead]
        echelon[lead] = {c: v * inv for c, v in row.items()}
        leads.append(lead)
    return echelon, leads


def eliminate(field, rows):
    """Reduced row echelon form of sparse rows (dicts ``{column: value}``).

    Returns ``(reduced, pivots)``: the nonzero reduced rows in increasing
    pivot order, each one at its pivot column and zero at every other pivot
    column, and the list of pivot columns.  The input is not modified.
    """
    echelon, _ = _forward(field, rows)
    pivots = sorted(echelon)
    # back substitution, rightmost pivot first: the rows used are already reduced
    for p in reversed(pivots):
        row = echelon[p]
        for c in [c for c in row if c != p and c in echelon]:
            add_into(row, echelon[c], -row[c])
    return [echelon[p] for p in pivots], pivots


def _kernel_basis(field, reduced, pivots, ncols: int):
    """Read the null space basis off reduced rows: one vector per free column
    below ``ncols``, one there and minus the row entries at the pivots.
    Entries at columns from ``ncols`` on (an augmented right-hand side) are
    left out."""
    pivot_set = set(pivots)
    basis = {fc: {fc: field.one} for fc in range(ncols) if fc not in pivot_set}
    for row, pc in zip(reduced, pivots):
        for c, v in row.items():
            vec = basis.get(c)
            if vec is not None:
                vec[pc] = -v
    return [{c: vec[c] for c in sorted(vec)} for vec in basis.values()]


def sparse_nullspace(field, rows, ncols: int):
    """Basis of {v : A v = 0} for sparse rows, one ``{column: value}`` dict
    per free column, in increasing order of the free column."""
    reduced, pivots = eliminate(field, rows)
    return _kernel_basis(field, reduced, pivots, ncols)


def _sparse(rows, ncols: int):
    """Dense rows as sparse ones; a row of another length than ``ncols`` raises."""
    for i, r in enumerate(rows):
        if len(r) != ncols:
            raise ValueError(f"row {i} has {len(r)} entries, not {ncols}")
    return [{c: v for c, v in enumerate(r) if v} for r in rows]


def _dense(field, row: dict, ncols: int) -> list:
    out = [field.zero] * ncols
    for c, v in row.items():
        out[c] = v
    return out


def rref(field, rows):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns); the zero
    rows come last, so the row count is unchanged."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    reduced, pivots = eliminate(field, _sparse(rows, ncols))
    out = [_dense(field, r, ncols) for r in reduced]
    out += [[field.zero] * ncols for _ in range(len(rows) - len(out))]
    return out, pivots


def rank(field, rows) -> int:
    return len(_forward(field, _sparse(rows, len(rows[0]) if rows else 0))[1])


def nullspace(field, rows, ncols=None):
    """Basis of {v : A v = 0} as a list of column vectors."""
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(rows[0])
    return [_dense(field, v, ncols) for v in sparse_nullspace(field, _sparse(rows, ncols), ncols)]


class AffineSolutionSet(NamedTuple):
    """Solutions of A x = b: a particular point plus a homogeneous basis.

    ``particular`` is None when the system is inconsistent.
    """

    particular: tuple | None
    homogeneous: tuple

    @property
    def is_empty(self) -> bool:
        return self.particular is None

    @property
    def dimension(self) -> int:
        return -1 if self.is_empty else len(self.homogeneous)


def solve_affine(field, rows, rhs) -> AffineSolutionSet:
    """Solve A x = rhs exactly, returning the full affine solution set."""
    if not rows:
        raise ValueError("empty system; pass explicit trivial rows instead")
    if len(rhs) != len(rows):
        raise ValueError(f"{len(rows)} rows but {len(rhs)} right-hand sides")
    ncols = len(rows[0])
    aug = _sparse(rows, ncols)
    for row, b in zip(aug, rhs):
        if b:
            row[ncols] = b
    reduced, pivots = eliminate(field, aug)
    if pivots and pivots[-1] == ncols:
        return AffineSolutionSet(None, ())
    part = [field.zero] * ncols
    for row, pc in zip(reduced, pivots):
        part[pc] = row.get(ncols, field.zero)
    hom = _kernel_basis(field, reduced, pivots, ncols)
    return AffineSolutionSet(tuple(part),
                             tuple(tuple(_dense(field, v, ncols)) for v in hom))


def det(field, rows):
    """Exact determinant by fraction-free elimination (Bareiss, Math. Comp.
    22, 1968).

    Each row is scaled to integers by the lcm of its entries' denominators,
    read from the ``numerator``/``denominator`` split that ``Fraction``,
    ``int`` and ``FpElement`` share.  Bareiss' recurrence then keeps every
    entry an integer: each division by the previous pivot is exact.  A zero
    pivot is swapped with a lower row, which flips the sign; when none is
    left the matrix is singular.  The integer determinant is divided once,
    in the field, by the product of the row scales.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    scale, mat = 1, []
    for row in rows:
        dens = [x.denominator for x in row]
        d = lcm(*dens)
        mat.append([x.numerator * (d // e) for x, e in zip(row, dens)])
        scale *= d
    sign, prev = 1, 1
    for k in range(n - 1):
        if not mat[k][k]:
            swap = next((i for i in range(k + 1, n) if mat[i][k]), None)
            if swap is None:
                return field.zero
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        pivot_row = mat[k]
        pivot = pivot_row[k]
        for row in mat[k + 1:]:
            a = row[k]
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - a * pivot_row[j]) // prev
        prev = pivot
    value = field.one * (sign * mat[-1][-1] if n else 1)
    return value / scale if scale != 1 else value
