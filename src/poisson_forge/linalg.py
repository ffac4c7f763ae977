"""Exact linear algebra over Q and Z used by the centre and lattice searches.

Rows are sparse dicts column -> Fraction.  The reducer keeps a fully
reduced (RREF) pivot set so null spaces and particular solutions read off
directly.  A batch of rows is loaded by ``LinearSystem.from_rows``, which
settles the single-entry rows by substitution before the RREF sees the
rest.  The RREF of a span is unique for a given column order, so two row
sets span the same space exactly when their pivot sets are equal, and
the rank is ``len(pivots)``.  Integer lattice kernels go through
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
    def from_rows(cls, rows: Iterable[Row], rhs_col: int | None = None) -> LinearSystem:
        """The reduced system of ``rows``, which are consumed in place.

        Singleton elimination first (LaMacchia-Odlyzko structured Gaussian
        elimination): a row whose one nonzero entry a sits at a column
        c != rhs_col fixes x_c = b/a, b its ``rhs_col`` entry, and c is
        substituted out of every other row, which may make new singletons.
        Singletons with a zero rhs are settled before those with one, so the
        x_c = 0 they force are known before any rhs value spreads.
        The rows left over go through ``add_row``.  Each pivot row is still
        led by its least column, so the pivots are the same unique RREF
        that ``add_row`` alone gives, provided ``rhs_col`` exceeds every
        other column.
        """
        system = cls()
        rows = list(rows)
        by_col: dict[int, list[Row]] = {}  # column -> the rows holding it
        singletons: tuple[list[Row], list[Row]] = ([], [])  # without, with an rhs
        for row in rows:
            for c in [c for c, v in row.items() if not v]:
                del row[c]
            for c in row:
                if c != rhs_col:
                    by_col.setdefault(c, []).append(row)
            if len(row) - (rhs_col in row) == 1:
                singletons[rhs_col in row].append(row)
        while singletons[0] or singletons[1]:
            row = (singletons[0] or singletons[1]).pop()
            if len(row) - (rhs_col in row) != 1:
                continue
            b = row.pop(rhs_col, 0)
            (c, a), = row.items()
            row.clear()
            x = Fraction(b) / a
            system.pivots[c] = {c: Fraction(1), rhs_col: x} if x else {c: Fraction(1)}
            for other in by_col.pop(c):
                a = other.pop(c, 0)
                if not a:
                    continue
                if x:
                    s = other.get(rhs_col, 0) - a * x
                    if s:
                        other[rhs_col] = s
                    else:
                        del other[rhs_col]
                if len(other) - (rhs_col in other) == 1:
                    singletons[rhs_col in other].append(other)
        for row in rows:
            if row:
                system.add_row(row)
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

    ``rows`` yields (coefficient row, rhs); the rows are consumed in place,
    as by ``LinearSystem.from_rows``.  Returns None when the system is
    inconsistent.  The rhs is carried as an extra column, so a pivot landing
    there certifies infeasibility.
    """
    rhs_col = ncols
    full_rows = []
    for row, b in rows:
        if b:
            row[rhs_col] = Fraction(b)
        full_rows.append(row)
    system = LinearSystem.from_rows(full_rows, rhs_col)
    if rhs_col in system.pivots:
        return None
    zero = Fraction(0)
    x = [zero] * ncols
    for pc, row in system.pivots.items():
        x[pc] = row.get(rhs_col, zero)
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
