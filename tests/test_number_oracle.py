"""The ``%.12g`` writer of the ``run``, ``sweep`` and screen CSVs against
CPython's ``"%.12g" % x``, and those CSVs against the writers it replaced.

``measure._g12`` scales most values by an exact power of ten to 12 integer
digits and lays the digits out as words with numpy; zeros, values near a
rounding tie, values that no power up to 1e22 scales and non-finite values go
through ``%``.  Every case here compares its bytes with ``%``: arbitrary float64 bit
patterns, decimals of 12 and 13 significant digits ending in 5 (13 digits
are ties of the rounding to 12), every power of ten from 1e-330 to 1e308
with both neighbours, the bounds near 1e-4 and 1e12 where ``%g`` turns
between its fixed and exponent forms, one value of each layout (exponent,
count of significant digits and sign), and signed zeros, subnormals,
infinities and nan.

``reference_sweep_csv`` and ``reference_pattern_csv`` are the earlier
writers of the ``sweep`` rows, one ``%`` over a row template repeated per
row, and of ``Pattern.to_csv``, one f-string per line.  They stay here as
the definition of the bytes of ``measure._csv_rows`` and ``Pattern.to_csv``.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qesim import events, measure
from qesim.measure import OutcomeDistribution
from qesim.screen import BIN_CENTERS, BINS, Pattern


def reference_sweep_csv(cells):
    row = ",".join(["%.12g"] * cells.shape[1]) + "\n"
    return (row * len(cells)) % tuple(cells.ravel().tolist())


def reference_pattern_csv(xs, values):
    lines = ["x,intensity"]
    for x, v in zip(xs.tolist(), values.tolist()):
        lines.append(f"{x:.12g},{v:.12g}")
    return "\n".join(lines) + "\n"


def assert_g12(values):
    v = np.asarray(values, dtype=np.float64)
    got = [bytes(row).translate(None, b"\xff").decode() for row in measure._g12(v)]
    assert got == ["%.12g" % x for x in v.tolist()]


BITS = st.integers(0, 2**64 - 1).map(lambda b: np.uint64(b).view(np.float64))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(BITS, min_size=1, max_size=50))
def test_bit_patterns(values):
    assert_g12(values)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(1e-12, 1e13), min_size=1, max_size=50))
def test_scaled_range(values):
    assert_g12(values + [-x for x in values])


@pytest.mark.parametrize("digits", [12, 13])
def test_decimals_ending_in_5(digits):
    rng = np.random.default_rng(digits)
    heads = rng.integers(10 ** (digits - 2), 10 ** (digits - 1), 20000)
    exps = rng.integers(-30, 31, 20000)
    values = [float(f"{h}5e{x}") for h, x in zip(heads.tolist(), exps.tolist())]
    assert_g12(values + [-x for x in values])


def test_powers_of_ten_and_neighbours():
    p = np.array([float(f"1e{k}") for k in range(-330, 309)])
    assert_g12(np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf), -p]))


@pytest.mark.parametrize("bound", [1e-4, 9.9999999999995e-5, 1e12, 999999999999.5])
def test_form_bounds(bound):
    # 64 steps of one ulp and of 1e-13 relative on each side of the bound
    ulps = [bound]
    for _ in range(64):
        ulps = [np.nextafter(ulps[0], 0)] + ulps + [np.nextafter(ulps[-1], np.inf)]
    steps = bound * (1 + 1e-13 * np.arange(-64, 65))
    assert_g12(np.concatenate([ulps, steps]))


def test_every_layout():
    # one value per decimal exponent x in -11..12, count of significant digits
    # 1..12 and sign, and values that round up to 1e12 times a power of ten,
    # so that x grows by one: together they reach every row of the writer's
    # head, tail and point tables, which Hypothesis draws reach rarely
    digits = "123456789123"
    values = [float(f"{digits[:k]}e{x - k + 1}") for x in range(-11, 13) for k in range(1, 13)]
    values += [float(f"9.9999999999996e{x}") for x in range(-12, 12)]
    assert_g12(values + [-x for x in values])


def test_zeros_subnormals_and_non_finite():
    tiny = np.finfo(np.float64).tiny
    values = [0.0, -0.0, 5e-324, -5e-324, np.nextafter(tiny, 0), tiny, np.inf, -np.inf, np.nan]
    assert_g12(values)
    assert_g12(np.array([], dtype=np.float64))


CELLS = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=9),
    elements=st.one_of(st.floats(), st.floats(-1e3, 1e3), st.sampled_from([0.0, 1.0, 0.5])),
)


@settings(max_examples=200, deadline=None)
@given(cells=CELLS, chunk=st.sampled_from([1, 2, 7, 2**14]))
def test_sweep_rows_match_row_template(cells, chunk):
    with mock.patch.object(measure, "_CHUNK", chunk):
        assert measure._csv_rows(cells) == reference_sweep_csv(cells)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), bins=st.integers(2, 40))
def test_pattern_csv_matches_line_writer(data, bins):
    # the rows Pattern.to_csv writes, on the bin grid of a screen of `bins` bins
    values = data.draw(hnp.arrays(np.float64, bins, elements=st.floats(0, 1e300)))
    xs = -0.02 + 0.04 / bins * (np.arange(bins) + 0.5)
    text = "x,intensity\n" + measure._csv_rows(np.column_stack([xs, values]))
    assert text == reference_pattern_csv(xs, values)


@settings(max_examples=20, deadline=None)
@given(values=hnp.arrays(np.float64, BINS, elements=st.floats(0, 1e300)))
def test_screen_pattern_csv_matches_line_writer(values):
    assert Pattern(values).to_csv() == reference_pattern_csv(BIN_CENTERS, values)


@pytest.mark.parametrize("block", [1, 2, 7, 2**14])
def test_run_csv_blocks_join_to_the_whole(block):
    labels = (("+", "-"), ("a", "b", "c"), ("x,", "%y", "z"))
    rng = np.random.default_rng(block)
    p = rng.random(18) * 10.0 ** -rng.integers(0, 20, 18)
    dist = OutcomeDistribution(("q0", "q1", "q2"), labels, p.reshape(2, 3, 3), float(p.sum()))
    with mock.patch.object(events, "BLOCK_ROWS", block):
        assert "".join(events.blocks(dist.to_csv, dist.probs.size)) == dist.to_csv()
