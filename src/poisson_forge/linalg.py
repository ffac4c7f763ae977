"""Exact linear algebra over Q and Z used by the centre and lattice searches.

Rows are sparse dicts column -> Fraction.  The reducer keeps a fully
reduced (RREF) pivot set so null spaces and particular solutions read off
directly.  A batch of homogeneous rows is loaded by
``LinearSystem.from_rows``, which settles the single-entry rows (each
forces its column to zero) before the RREF sees the rest: one pass over
the rows against a growing set of settled columns with C-level set
differences, then a queue of one-entry rows for the few rows left.  A
pass repeated until nothing changes was rejected: it is quadratic on a
chain of two-entry rows, where each pass settles one column.  ``solve``
puts the rhs in as one more column, so it needs no path of its own.  The
RREF of a span is unique for a given column order, so two row sets span
the same space exactly when their pivot sets are equal, and the rank is
``len(pivots)``.  Integer lattice kernels go through
unimodular row reduction of [A^T | I], which yields a saturated basis,
then a row-style Hermite normal form for a canonical answer.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

Row = dict[int, Fraction]


class LinearSystem:
    """Incrementally reduced sparse linear system over Q."""

    def __init__(self):
        self.pivots: dict[int, Row] = {}  # pivot column -> reduced row

    @classmethod
    def from_rows(cls, rows: Iterable[Row]) -> LinearSystem:
        """The reduced system of the homogeneous ``rows``, which are
        consumed in place.

        Singleton elimination first (LaMacchia-Odlyzko structured Gaussian
        elimination): a row with one nonzero entry forces its column to
        zero, and that column drops out of every other row, which may
        leave new one-entry rows.  The columns of the one-entry rows start
        the set of settled columns.  One pass over the other rows takes
        the columns each has outside that set (``row.keys() - settled``,
        in C) and settles the column of a row left with one; the set grows
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
        settled: set[int] = set()
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
        one = Fraction(1)
        for c in settled:
            system.pivots[c] = {c: one}
        return system

    def reduce_row(self, row: Row) -> Row:
        # Pivot rows carry no other pivot columns, so one pass over the
        # pivot columns present in the incoming row fully reduces it.
        row = {c: v if type(v) is Fraction else Fraction(v)
               for c, v in row.items() if v != 0}
        for c in sorted(c for c in row if c in self.pivots):
            factor = row.get(c)
            if not factor:
                continue
            for pc, pv in self.pivots[c].items():
                s = row.get(pc, 0) - factor * pv
                if s:
                    row[pc] = s
                else:
                    row.pop(pc, None)
        return row

    def add_row(self, row: Row) -> bool:
        """Insert a row; returns True when it added a new pivot."""
        row = self.reduce_row(row)
        if not row:
            return False
        c = min(row)
        lead = row[c]
        row = {col: v / lead for col, v in row.items()}
        for pivot in self.pivots.values():
            if c in pivot:
                factor = pivot[c]
                for col, v in row.items():
                    s = pivot.get(col, 0) - factor * v
                    if s:
                        pivot[col] = s
                    else:
                        pivot.pop(col, None)
        self.pivots[c] = row
        return True

    def null_space(self, ncols: int) -> list[list[Fraction]]:
        """Canonical kernel basis, one vector per free column."""
        basis = []
        for free in range(ncols):
            if free in self.pivots:
                continue
            vec = [Fraction(0)] * ncols
            vec[free] = Fraction(1)
            for pc, row in self.pivots.items():
                v = row.get(free)
                if v:
                    vec[pc] = -v
            basis.append(vec)
        return basis


def solve(rows: Iterable[tuple[Row, Fraction]], ncols: int) -> list[Fraction] | None:
    """One exact solution of A x = b with free coordinates pinned to zero.

    ``rows`` yields (coefficient row over columns 0..ncols-1, rhs); the
    rows are consumed in place, as by ``LinearSystem.from_rows``.  Returns
    None when the system is inconsistent.  The rhs joins the homogeneous
    system as column ``ncols``, an ordinary column after every unknown: a
    pivot there certifies infeasibility, and otherwise each pivot row of
    the unique RREF of [A | b] reads x[pc] = its entry at ``ncols``.
    """
    full_rows = []
    for row, b in rows:
        if b:
            row[ncols] = b
        full_rows.append(row)
    system = LinearSystem.from_rows(full_rows)
    if ncols in system.pivots:
        return None
    zero = Fraction(0)
    x = [zero] * ncols
    for pc, row in system.pivots.items():
        x[pc] = row.get(ncols, zero)
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
