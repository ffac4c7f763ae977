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


def recorded_add_rows(rows):
    """The pivots of ``from_rows`` on copies of ``rows``, and the rows it
    hands to ``add_row``."""
    seen = []
    original = LinearSystem.add_row

    def recording(self, row):
        seen.append(dict(row))
        return original(self, row)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LinearSystem, "add_row", recording)
        pivots = LinearSystem.from_rows([dict(row) for row in rows]).pivots
    return pivots, seen


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
    # the rhs is one more ordinary column, after every unknown
    expected = row_by_row(with_rhs(rows, rhs, ncols))
    assert LinearSystem.from_rows(with_rhs(rows, rhs, ncols)).pivots == expected


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
    # RREF has at least two nonzero columns, the rhs column counted
    ncols, rows, rhs = system
    rows = with_rhs(rows, rhs, ncols)
    pivots, seen = recorded_add_rows(rows)
    assert pivots == row_by_row(rows)
    assert all(sum(1 for v in row.values() if v) >= 2 for row in seen)


@st.composite
def chains(draw):
    """Rows {i: a, i+1: b} along 2-24 columns, a few with a skip
    {i: a, i+2: b}, a single-entry row at a drawn column in most draws,
    and a few general rows: settling cascades from the single entry
    through the links, one row at a time."""
    ncols = draw(st.integers(min_value=2, max_value=24))
    value = st.sampled_from([-3, -1, 0, 1, 2, Fraction(1, 2), Fraction(-2, 3)])
    link = st.tuples(value, value)
    rows = [{i: a, i + 1: b} for i, (a, b) in
            enumerate(draw(st.lists(link, min_size=ncols - 1, max_size=ncols - 1)))]
    for i in draw(st.lists(st.integers(0, ncols - 3), max_size=3)) if ncols > 2 else ():
        a, b = draw(link)
        rows.insert(draw(st.integers(0, len(rows))), {i: a, i + 2: b})
    if draw(st.integers(0, 3)):
        anchor = {draw(st.integers(0, ncols - 1)): draw(value)}
        rows.insert(draw(st.integers(0, len(rows))), anchor)
    col = st.integers(min_value=0, max_value=ncols - 1)
    rows += draw(st.lists(st.dictionaries(col, VALUES, min_size=2, max_size=4),
                          max_size=2))
    return rows


@settings(max_examples=100)
@given(chains())
def test_chains_have_the_rref_of_row_by_row(rows):
    expected = row_by_row(rows)
    for order in (rows, rows[::-1]):
        assert LinearSystem.from_rows([dict(row) for row in order]).pivots == expected


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "backward"])
def test_long_chain_never_reaches_add_row(reverse):
    # forward, one set pass settles only the last link and the queue
    # settles the other 4998; a pass repeated to a fixed point would
    # make 5000 passes here
    n = 5000
    rows = [{i: 1, i + 1: 1} for i in range(n - 1)] + [{n - 1: 1}]
    pivots, seen = recorded_add_rows(rows[::-1] if reverse else rows)
    assert seen == []
    assert pivots == {c: {c: 1} for c in range(n)}


def test_examples_fix_a_column_twice():
    ncols, rows, rhs = FIXED_TWICE
    assert solve(zip(rows, rhs), ncols) == [Fraction(0), Fraction(2), Fraction(-2)]
    ncols, rows, rhs = FIXED_TWICE_INCONSISTENT
    assert solve(zip(rows, rhs), ncols) is None
