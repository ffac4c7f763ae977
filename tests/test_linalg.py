"""Singleton elimination in LinearSystem.from_rows against row-by-row add_row."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poisson_forge.linalg import LinearSystem, solve

VALUES = st.one_of(st.integers(min_value=-3, max_value=3),
                   st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def systems(draw):
    """(ncols, rows, rhs): sparse rows over 1-8 columns, mostly singletons,
    with explicit zeros, int and Fraction entries and repeated rows; the
    rhs is A x0 for a random x0 in half the draws, so both consistent and
    inconsistent systems occur."""
    ncols = draw(st.integers(min_value=1, max_value=8))
    col = st.integers(min_value=0, max_value=ncols - 1)
    singleton = st.dictionaries(col, VALUES, min_size=1, max_size=1)
    general = st.dictionaries(col, VALUES, max_size=4)
    rows = draw(st.lists(st.one_of(singleton, singleton, general), max_size=14))
    if rows:
        repeats = draw(st.lists(st.integers(min_value=0, max_value=len(rows) - 1),
                                max_size=3))
        rows += [dict(rows[i]) for i in repeats]
    if draw(st.booleans()):
        x0 = draw(st.lists(VALUES, min_size=ncols, max_size=ncols))
        rhs = [sum((v * x0[c] for c, v in row.items()), Fraction(0)) for row in rows]
    else:
        rhs = draw(st.lists(VALUES, min_size=len(rows), max_size=len(rows)))
    return ncols, rows, rhs


# a singleton on a column an earlier singleton fixed, consistent and not
FIXED_TWICE = (3, [{1: 2}, {0: 1, 1: 1, 2: 1}, {1: Fraction(1, 2)}, {0: 1, 2: -1}],
               [4, 0, 1, 2])
FIXED_TWICE_INCONSISTENT = (FIXED_TWICE[0], FIXED_TWICE[1], [4, 0, 3, 2])


def with_rhs(rows, rhs, rhs_col):
    return [{**row, rhs_col: b} for row, b in zip(rows, rhs)]


def row_by_row(rows):
    system = LinearSystem()
    for row in rows:
        system.add_row(dict(row))
    return system.pivots


def reference_solve(rows, rhs, ncols):
    pivots = row_by_row(with_rhs(rows, rhs, ncols))
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for c, row in pivots.items():
        x[c] = row.get(ncols, Fraction(0))
    return x


@settings(max_examples=150)
@given(systems())
@example(FIXED_TWICE)
@example(FIXED_TWICE_INCONSISTENT)
def test_same_rref_as_row_by_row(system):
    ncols, rows, rhs = system
    expected = row_by_row(rows)
    pivots = LinearSystem.from_rows([dict(row) for row in rows]).pivots
    assert pivots == expected
    assert all(type(v) is Fraction for row in pivots.values() for v in row.values())
    expected = row_by_row(with_rhs(rows, rhs, ncols))
    assert LinearSystem.from_rows(with_rhs(rows, rhs, ncols), ncols).pivots == expected


@settings(max_examples=150)
@given(systems())
@example(FIXED_TWICE)
@example(FIXED_TWICE_INCONSISTENT)
def test_solve_matches_reference(system):
    ncols, rows, rhs = system
    copies = [dict(row) for row in rows]
    assert solve(zip(copies, rhs), ncols) == reference_solve(rows, rhs, ncols)


@settings(max_examples=100)
@given(systems())
@example(FIXED_TWICE)
def test_no_single_unknown_row_reaches_add_row(system):
    # singleton elimination runs to completion: every row left for the
    # RREF has at least two unknowns, or none (an infeasibility witness)
    ncols, rows, rhs = system
    seen = []
    original = LinearSystem.add_row

    def recording(self, row):
        seen.append(sum(1 for c, v in row.items() if c != ncols and v))
        return original(self, row)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LinearSystem, "add_row", recording)
        LinearSystem.from_rows(with_rhs(rows, rhs, ncols), ncols)
    assert 1 not in seen


def test_examples_fix_a_column_twice():
    ncols, rows, rhs = FIXED_TWICE
    assert solve(zip(rows, rhs), ncols) == [Fraction(0), Fraction(2), Fraction(-2)]
    ncols, rows, rhs = FIXED_TWICE_INCONSISTENT
    assert solve(zip(rows, rhs), ncols) is None
