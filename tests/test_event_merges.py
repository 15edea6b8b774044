"""The two merges of the event layer against the searches they replaced.

``events._ranks`` gives each A event's first pairing candidate by merging the
block's sorted keys with B's sorted times; it must equal
``np.searchsorted(tb, keys, side="left")``, ties included.  ``events._drawer``
builds its cell table by placing each CDF entry among the cell edges; the
table must equal its definition by two ``searchsorted`` calls of every edge
into the CDF, and ``draw(u)`` must equal ``np.searchsorted(cdf, u,
side="right")``.  The inputs are the ones a merge gets wrong first: runs of
equal values, -0.0 next to 0.0, infinite keys (``--window inf`` makes every
key -inf), an empty side, a B much denser than A, CDF entries on cell edges,
runs of zero probability and entries above 1 before the final 1.0.
"""

import inspect

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qesim import events
from qesim.events import DRAW_CELLS, coincidences
from test_events_oracle import log_of_columns

INF = float("inf")
#: few distinct values, so that sorted runs of them are full of ties
TIES = st.sampled_from([-INF, -2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 1e9, INF])
VALUES = st.one_of(TIES, st.floats(allow_nan=False))


def sorted_run(max_size, min_size=0, values=VALUES):
    return st.lists(values, min_size=min_size, max_size=max_size).map(lambda v: np.array(sorted(v), float))


@settings(max_examples=500, deadline=None)
@given(keys=sorted_run(30, min_size=1), run=sorted_run(30))
def test_ranks_match_searchsorted(keys, run):
    assert np.array_equal(events._ranks(run, keys), np.searchsorted(run, keys, side="left"))


@settings(max_examples=200, deadline=None)
@given(keys=sorted_run(3, min_size=1, values=TIES), run=sorted_run(400, values=TIES))
def test_ranks_match_searchsorted_in_a_dense_run(keys, run):
    assert np.array_equal(events._ranks(run, keys), np.searchsorted(run, keys, side="left"))


def test_ranks_of_signed_zeros_and_infinite_keys():
    run = np.array([-1.0, -0.0, 0.0, -0.0, 0.0, 2.0, 2.0])
    for keys in ([-0.0, 0.0], [0.0, -0.0], [-INF] * 3, [-INF, 0.0, INF], [INF], [2.0, 2.0, 3.0]):
        keys = np.array(keys)
        assert np.array_equal(events._ranks(run, keys), np.searchsorted(run, keys, side="left"))
        assert np.array_equal(events._ranks(run[:0], keys), np.zeros(len(keys), np.intp))


#: times on a 1 ns grid, so that pairs, ties and a window of whole ns collide
GRID = st.integers(-20, 20).map(float)


@settings(max_examples=300, deadline=None)
@given(ta=st.lists(GRID, max_size=25), tb=st.lists(st.one_of(GRID, st.just(-0.0)), max_size=60),
       window=st.sampled_from([0.0, 0.4, 1.0, 3.0, INF]))
def test_pairs_match_the_earliest_first_scan(ta, tb, window):
    # either side may be empty; a window of half the spacing or more takes the scan itself
    labels = [("A", ("a",)), ("B", ("b",))]
    time = ta + tb
    log = log_of_columns(len(time), range(len(time)), time, [0] * len(ta) + [1] * len(tb), labels)
    pairs = coincidences(log, "A", "B", window)
    runs = log._runs
    expected = events._greedy(runs["A"].time.tolist(), runs["B"].time.tolist(), window)
    assert [side.tolist() for _, side in pairs._sides] == list(expected)


def table(cdf):
    """The cell table that ``events._drawer`` builds for ``cdf``."""
    cells = inspect.getclosurevars(events._drawer(cdf)).nonlocals
    return cells["lo"], cells["unsure"]


def searched_table(cdf):
    edges = np.arange(DRAW_CELLS + 1) / DRAW_CELLS
    lo = np.searchsorted(cdf, edges[:-1], side="right")
    return lo, lo != np.searchsorted(cdf, edges[1:], side="left")


#: CDF steps: zero probability, cell edges (multiples of 2**-14) and their
#: neighbours, and arbitrary sizes
STEPS = st.one_of(
    st.just(0.0),
    st.integers(1, 2**10).map(lambda k: k / DRAW_CELLS),
    st.floats(0.0, 0.2),
)


@st.composite
def cdfs(draw):
    """A running sum ending in 1.0, sometimes with entries on edges or one step
    off them, and sometimes with entries above 1 before the final 1.0, as a
    running sum that rounding carried past 1 leaves."""
    cdf = np.cumsum(draw(st.lists(STEPS, max_size=40)))
    cdf = cdf[cdf < 1.0]
    nudge = draw(st.sampled_from([None, -INF, INF]))
    if nudge is not None and cdf.size:
        cdf[-1] = np.nextafter(cdf[-1], nudge)
    cdf = np.maximum.accumulate(np.maximum(cdf, 0.0))
    over = draw(st.integers(0, 3))
    return np.concatenate([cdf, [1.0000000000000002] * over, [1.0]])


#: u at every edge and one step above, and inside cells
U = np.concatenate([np.arange(DRAW_CELLS) / DRAW_CELLS, np.nextafter(np.arange(DRAW_CELLS) / DRAW_CELLS, 1.0),
                    np.random.default_rng(3).random(4096), [1 - 2**-53]])


@settings(max_examples=300, deadline=None)
@given(cdf=cdfs())
def test_draw_table_matches_two_searches(cdf):
    lo, unsure = table(cdf)
    expected_lo, expected_unsure = searched_table(cdf)
    assert np.array_equal(lo, expected_lo)
    assert np.array_equal(unsure, expected_unsure)
    assert np.array_equal(events._drawer(cdf)(U), np.searchsorted(cdf, U, side="right"))


def test_draw_table_of_edge_entries_and_zero_runs():
    for cdf in ([0.0, 0.0, 2**-14, 2**-14, 0.5, 0.5, 1.0], [2**-14, 1.0000000000000002, 1.0], [1.0]):
        cdf = np.array(cdf)
        for got, expected in zip(table(cdf), searched_table(cdf)):
            assert np.array_equal(got, expected)
