"""Exact linear algebra over Q and Z used by the centre and lattice searches.

Rows are sparse dicts column -> coefficient, ints or Fractions; a row
that holds a Fraction is scaled once to integers when it enters the
RREF, so the elimination runs on Python ints alone.  The reducer keeps a
fully reduced pivot set, each pivot row an integer row divided by its
content with a positive lead (fraction-free, as in Bareiss 1968): a row
is reduced by row = lead * row - f * pivot and divided by its gcd, so no
Fraction is made until a null-space vector or a solution is read out.
A batch of homogeneous rows is loaded by
``LinearSystem.from_rows``, which settles the single-entry rows (each
forces its column to zero), after the columns its caller has settled
already, before the RREF sees the rest: one pass over
the rows against a growing set of settled columns with C-level set
differences, then a queue of one-entry rows for the few rows left.  A
pass repeated until nothing changes was rejected: it is quadratic on a
chain of two-entry rows, where each pass settles one column.  ``solve``
puts the rhs in as one more column, so it needs no path of its own.  The
RREF of a span is unique for a given column order, and so is its
primitive integer form, so two row sets span the same space exactly when
their pivot rows are equal, and the rank is the number of pivots.
Integer lattice kernels go through
unimodular row reduction of [A^T | I], which yields a saturated basis,
then a row-style Hermite normal form for a canonical answer.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Row = dict[int, Fraction | int]
IntRow = dict[int, int]


class LinearSystem:
    """Incrementally reduced sparse linear system over Q, on integer rows."""

    def __init__(self):
        # pivot column -> its reduced row, primitive with a positive lead
        self.rows: dict[int, IntRow] = {}

    @property
    def pivots(self) -> dict[int, dict[int, Fraction]]:
        """The RREF: pivot column -> its row over Fractions, lead 1."""
        return {c: {col: Fraction(v, row[c]) for col, v in row.items()}
                for c, row in self.rows.items()}

    @classmethod
    def from_rows(cls, rows: Iterable[Row],
                  settled: Iterable[int] = ()) -> LinearSystem:
        """The reduced system of the homogeneous ``rows``, which are
        consumed in place, and of the columns of ``settled``, each forced
        to zero by rows the caller left out (``centre_rows`` of a
        ``PoissonStructure``); nothing is settled by default.

        Singleton elimination first (LaMacchia-Odlyzko structured Gaussian
        elimination): a row with one nonzero entry forces its column to
        zero, and that column drops out of every other row, which may
        leave new one-entry rows.  ``settled`` and the columns of the
        one-entry rows start the set of settled columns.  One pass over
        the other rows takes the columns each has outside that set
        (``row.keys() - settled``, in C) and settles the column of a row
        left with one; the set grows
        during the pass, which is sound because every settled column is a
        forced zero.  The few rows left with two or more live columns lose
        their settled columns and go through a queue of one-entry rows
        over a column -> rows index, which follows a cascade to its end.
        Repeating the set pass until nothing changes would be quadratic:
        on the chain {i, i+1} (i < n-1) plus {n-1}, in that order, each
        pass settles one column.

        The rows left go through ``add_row`` on an empty system, so it
        scans no singleton pivots, and each settled column c then joins as
        the pivot row {c: 1}.  The RREF of a span is unique for a given
        column order, so the pivots are those ``add_row`` alone gives.
        """
        settled = set(settled)
        others = []
        for row in rows:
            if not all(row.values()):
                for c in [c for c, v in row.items() if not v]:
                    del row[c]
            if len(row) == 1:
                settled.update(row)
            elif row:
                others.append(row)
        left = []
        for row in others:
            live = row.keys() - settled
            if len(live) == 1:
                settled |= live
            elif live:
                left.append(row)
        by_col: dict[int, list[Row]] = {}  # column -> the rows holding it
        singletons = []
        for row in left:
            for c in row.keys() & settled:
                del row[c]
            if len(row) == 1:
                singletons.append(row)
            for c in row:
                by_col.setdefault(c, []).append(row)
        while singletons:
            row = singletons.pop()
            if len(row) != 1:
                continue
            c, = row
            settled.add(c)
            for other in by_col.pop(c):
                del other[c]
                if len(other) == 1:
                    singletons.append(other)
        system = cls()
        for row in left:
            if row:
                system.add_row(row)
        for c in settled:
            system.rows[c] = {c: 1}
        return system

    def reduce_row(self, row: Row) -> IntRow:
        """``row`` less its part in the span of the pivots, as a primitive
        integer row (a nonzero multiple of the reduction over Q).

        Pivot rows carry no other pivot columns, so one pass over the
        pivot columns present in the incoming row fully reduces it, each
        step lead * row - f * pivot on ints.
        """
        if all(type(v) is int for v in row.values()):
            row = {c: v for c, v in row.items() if v}
        else:
            den = lcm(*(Fraction(v).denominator for v in row.values()))
            row = {c: int(v * den) for c, v in row.items() if v}
        pivots = self.rows
        for c in sorted(c for c in row if c in pivots):
            f = row.get(c)
            if not f:
                continue
            pivot = pivots[c]
            lead = pivot[c]
            if lead != 1:
                row = {col: lead * v for col, v in row.items()}
            for pc, pv in pivot.items():
                s = row.get(pc, 0) - f * pv
                if s:
                    row[pc] = s
                else:
                    del row[pc]
        return _primitive(row)

    def add_row(self, row: Row) -> bool:
        """Insert a row; returns True when it added a new pivot."""
        row = self.reduce_row(row)
        if not row:
            return False
        c = min(row)
        lead = row[c]
        if lead < 0:
            row = {col: -v for col, v in row.items()}
            lead = -lead
        # back-substitute: the new row has no other pivot column, so
        # lead * pivot - f * row keeps each pivot's positive lead
        for pc, pivot in self.rows.items():
            f = pivot.get(c)
            if f:
                if lead != 1:
                    pivot = {col: lead * v for col, v in pivot.items()}
                for col, v in row.items():
                    s = pivot.get(col, 0) - f * v
                    if s:
                        pivot[col] = s
                    else:
                        del pivot[col]
                self.rows[pc] = _primitive(pivot)
        self.rows[c] = row
        return True

    def null_space(self, ncols: int) -> list[list[Fraction]]:
        """Canonical kernel basis, one vector per free column."""
        # free column -> (pivot column, -entry / lead) over the pivot rows
        # holding it: the RREF's only entries outside the pivot columns
        at_free: dict[int, list[tuple[int, Fraction]]] = {}
        for pc, row in self.rows.items():
            if len(row) > 1:
                lead = row[pc]
                for col, v in row.items():
                    if col != pc:
                        at_free.setdefault(col, []).append((pc, Fraction(-v, lead)))
        zero, one = Fraction(0), Fraction(1)
        basis = []
        for free in range(ncols):
            if free in self.rows:
                continue
            vec = [zero] * ncols
            vec[free] = one
            for pc, v in at_free.get(free, ()):
                vec[pc] = v
            basis.append(vec)
        return basis


def _primitive(row: IntRow) -> IntRow:
    """``row`` divided by the gcd of its entries (in place when that is 1)."""
    g = gcd(*row.values())
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def solve(rows: Iterable[tuple[Row, Fraction]], ncols: int) -> list[Fraction] | None:
    """One exact solution of A x = b with free coordinates pinned to zero.

    ``rows`` yields (coefficient row over columns 0..ncols-1, rhs); the
    rows are consumed in place, as by ``LinearSystem.from_rows``.  Returns
    None when the system is inconsistent.  The rhs joins the homogeneous
    system as column ``ncols``, an ordinary column after every unknown: a
    pivot there certifies infeasibility, and otherwise each pivot row of
    the unique RREF of [A | b] reads x[pc] = its entry at ``ncols`` over
    its lead.
    """
    full_rows = []
    for row, b in rows:
        if b:
            row[ncols] = b
        full_rows.append(row)
    system = LinearSystem.from_rows(full_rows)
    if ncols in system.rows:
        return None
    zero = Fraction(0)
    x = [zero] * ncols
    for pc, row in system.rows.items():
        b = row.get(ncols)
        if b:
            x[pc] = Fraction(b, row[pc])
    return x


# -- integer lattices -----------------------------------------------------

def hnf_rows(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Row-style Hermite normal form (nonzero rows, positive pivots,
    entries above a pivot reduced into [0, pivot))."""
    mat = [list(map(int, r)) for r in rows]
    if not mat:
        return []
    mat = [r for r in _echelon_integer(mat, len(mat[0])) if any(r)]
    # Each row vanishes left of its pivot, so reducing the rows above it
    # leaves the earlier pivot columns as they were.
    for top, row in enumerate(mat):
        col = next(c for c, a in enumerate(row) if a)
        if row[col] < 0:
            mat[top] = row = [-a for a in row]
        for i in range(top):
            q = mat[i][col] // row[col]
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], row)]
    return mat


def integer_kernel(mat: Sequence[Sequence[Fraction | int]]) -> list[list[int]]:
    """Canonical basis of {v in Z^n : v . row_j = 0 for all j}.

    Accepts a rational matrix given as rows of the bilinear form; the
    kernel condition is sum_i v[i] * mat[i][j] == 0 for every j.
    """
    mat = [[Fraction(v) for v in r] for r in mat]
    n = len(mat)
    if n == 0:
        return []
    m = len(mat[0])
    denom = lcm(*(v.denominator for row in mat for v in row))
    A = [[int(v * denom) for v in row] for row in mat]  # n x m, integral

    # Augment [A | I_n] and run unimodular row reduction on the A-part.
    aug = [A[i] + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    reduced = _echelon_integer(aug, m)
    kernel = [row[m:] for row in reduced if not any(row[:m])]
    return hnf_rows(kernel)


def _echelon_integer(mat: list[list[int]], ncols: int) -> list[list[int]]:
    """Integer row echelon on the first ``ncols`` columns (unimodular ops)."""
    top = 0
    for col in range(ncols):
        # gcd-eliminate below `top` in this column
        while True:
            live = [i for i in range(top, len(mat)) if mat[i][col] != 0]
            if not live:
                break
            i0 = min(live, key=lambda i: abs(mat[i][col]))
            mat[top], mat[i0] = mat[i0], mat[top]
            done = True
            for i in range(top + 1, len(mat)):
                if mat[i][col]:
                    q = mat[i][col] // mat[top][col]
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[top])]
                    if mat[i][col]:
                        done = False
            if done:
                break
        if top < len(mat) and mat[top][col] != 0:
            top += 1
    return mat
