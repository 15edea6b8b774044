"""The block writers, and the ``run`` CSV writer, against the writers they
replaced.

``reference_jsonl``, ``reference_csv`` and ``reference_pair_csv`` are the
earlier ``EventLog.to_jsonl``, ``EventLog.to_csv`` and ``Coincidences.to_csv``,
which formatted every row with an f-string and joined all rows into one
string.  They stay here as the definition of the bytes that ``events.blocks``
over the block writers must give, whatever the block size, whatever the
number of cells ``measure._g12`` formats at a time, and whatever the times:
whole ns (which a block may write as ints), fractional, negative, -0.0,
subnormal, and sizes on both sides of the bounds below which a whole float is
written with the digits of its int.  The logs are built from
columns by ``log_of_columns``, with any int64 shots, duplicates included, and
the pair lists join events at any indices of the runs of two detectors.

``reference_sweep_csv`` (from ``test_number_oracle``) defines the bytes of
the ``sweep`` rows, and a table wider than 1000 columns, as a sweep of a
12-dof circuit writes, must give them too, whatever the chunk size.

``reference_run_csv`` is the earlier ``run --format csv`` writer, which built
one label prefix per row and formatted each row with ``%s%.12g``.  It stays
here as the definition of the bytes of ``OutcomeDistribution.to_csv``, which
writes the labels into its format as literals, whatever the number of axes
and labels and whatever the labels hold.
"""

import json
import re
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qesim import events, measure, scenarios
from qesim.cli import main
from qesim.events import Coincidences
from qesim.measure import OutcomeDistribution
from test_events_oracle import log_of_columns
from test_number_oracle import reference_sweep_csv
from test_sample_pin import FILES


def columns(source, rows=slice(None)):
    """(shot, time, label) of ``rows`` of a log or of a run."""
    return zip(source.shot[rows].tolist(), source.time[rows].tolist(), source.label[rows].tolist())


def reference_jsonl(log):
    tail = [
        f',"det":{json.dumps(det)},"outcome":'
        f'{json.dumps(list(outcome), separators=(",", ":"))}}}\n'
        for det, outcome in log.labels
    ]
    return "".join([f'{{"shot":{s},"t":{t!r}{tail[k]}' for s, t, k in columns(log)])


def reference_csv(log):
    tail = [f",{det},{'|'.join(outcome)}\n" for det, outcome in log.labels]
    return "shot,t,det,outcome\n" + "".join([f"{s},{t:.12g}{tail[k]}" for s, t, k in columns(log)])


def reference_pair_csv(pairs):
    outcome = ["|".join(o) for _, o in pairs.log.labels]
    (run_a, a), (run_b, b) = pairs._sides
    rows = [
        f"{sa},{ta:.12g},{outcome[ka]},{sb},{tb:.12g},{outcome[kb]}\n"
        for (sa, ta, ka), (sb, tb, kb) in zip(columns(run_a, a), columns(run_b, b))
    ]
    return "shot_a,t_a,outcome_a,shot_b,t_b,outcome_b\n" + "".join(rows)


def reference_run_csv(dist):
    rows = [""]
    for labels in dist.labels:
        rows = [f"{row}{label}," for row in rows for label in labels]
    body = "".join(["%s%.12g\n" % (row, p) for row, p in zip(rows, dist.probs.ravel().tolist())])
    return ",".join(dist.axes) + ",p\n" + body


def written(write, rows, block, chunk=measure._CHUNK):
    with mock.patch.object(events, "BLOCK_ROWS", block), mock.patch.object(measure, "_CHUNK", chunk):
        return "".join(events.blocks(write, rows))


def every_pair(log):
    """For each two detectors of ``log``, one of them twice or not, the pairs
    of every event of the first with every event of the second."""
    for det_a, det_b in product(log._runs, repeat=2):
        a, b = np.indices((len(log._runs[det_a].time), len(log._runs[det_b].time))).reshape(2, -1)
        yield Coincidences(log, det_a, a, det_b, b)


BOUNDARY = [
    0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1e6, 1e9 + 1234.5,
    2.0**53 - 1, -(2.0**53 - 1), 2.0**53, -(2.0**53), 2.0**53 + 2,
    1e12 - 1, -(1e12 - 1), 1e12, -1e12, 1e12 + 1,
    1e15, 1e16 - 2, 1e16, -1e16, 1e17, 2.0**62, 2.0**63, -(2.0**63), 2.0**64,
    1e300, -1e300, 5e-324, -5e-324, 2.2250738585072014e-308,
]
WHOLE = st.integers(-(2**53) + 1, 2**53 - 1).map(float)
# a log of whole times takes the int path in every block; boundary values
# sprinkled among them decide it block by block
TIMES = st.one_of(
    st.lists(WHOLE, max_size=30),
    st.lists(st.one_of(WHOLE, st.sampled_from(BOUNDARY)), max_size=30),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=30),
)
NAME = st.text(st.characters(codec="utf-8", exclude_categories=("Cs",)), min_size=1, max_size=4)
LABELS = st.lists(st.tuples(NAME, st.lists(NAME, min_size=1, max_size=2).map(tuple)),
                  min_size=1, max_size=4)
BLOCK = st.sampled_from([1, 2, 7, 2**14])
#: cells that ``measure._g12`` formats at a time, so that a time column crosses
#: a chunk edge inside a block
CHUNK = st.sampled_from([1, 7, 2**13])


@st.composite
def logs(draw):
    time = draw(TIMES)
    labels = draw(LABELS)
    n = len(time)
    shot = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n))
    label = draw(st.lists(st.integers(0, len(labels) - 1), min_size=n, max_size=n))
    return log_of_columns(n, shot, time, label, labels)


@settings(max_examples=400, deadline=None)
@given(log=logs(), block=BLOCK, chunk=CHUNK)
def test_log_writers_match_one_string_writers(log, block, chunk):
    assert written(log.to_jsonl, len(log), block, chunk) == reference_jsonl(log)
    assert written(log.to_csv, len(log), block, chunk) == reference_csv(log)


@settings(max_examples=200, deadline=None)
@given(log=logs().filter(len), block=BLOCK, chunk=CHUNK, data=st.data())
def test_pair_writer_matches_one_string_writer(log, block, chunk, data):
    m = data.draw(st.integers(0, 20))
    dets = st.sampled_from([det for det, run in log._runs.items() if len(run.time)])
    det_a, det_b = data.draw(dets), data.draw(dets)
    a, b = (data.draw(st.lists(st.integers(0, len(log._runs[det].time) - 1), min_size=m, max_size=m))
            for det in (det_a, det_b))
    pairs = Coincidences(log, det_a, a, det_b, b)
    assert written(pairs.to_csv, len(pairs), block, chunk) == reference_pair_csv(pairs)


# each case next to whole times, so that only the case itself decides
# whether its block is written as ints
EDGE_TIMES = [
    [-0.0], [0.0, -0.0], [-0.0, 3.0, -4.0],
    [2.0**53 - 1, -(2.0**53 - 1)], [2.0**53], [-(2.0**53)], [1e16], [-1e16], [1e17],
    [1e12 - 1, -(1e12 - 1)], [1e12], [-1e12], [1e12 + 1], [1e300], [-1e300],
    [5e-324], [-5e-324], [0.5], [-2.5], [1e6 * 7 + 0.25],
]


@pytest.mark.parametrize("block", [1, 2, 7, 2**14])
@pytest.mark.parametrize("case", EDGE_TIMES, ids=repr)
def test_edge_times_match_one_string_writers(case, block):
    time = [1e6, 2e6] + case + [3e6 + 1e9] * 5 + [1.5, 2.0, 3.0]
    labels = [("D_s", ("s1",)), ("D_p", ("+", "h"))]
    log = log_of_columns(len(time), range(len(time)), time, [k % 2 for k in range(len(time))], labels)
    assert written(log.to_jsonl, len(log), block) == reference_jsonl(log)
    assert written(log.to_csv, len(log), block) == reference_csv(log)
    for pairs in every_pair(log):
        assert written(pairs.to_csv, len(pairs), block) == reference_pair_csv(pairs)


# shots where the int writer changes its digit count or its number of 8-byte
# words: each side of 10, 10**8 and 10**16, both ends of int64, and negative
# values whose sign takes one more word
BOUNDARY_SHOTS = [
    0, 9, 10, 99999999, 10**8, 10**16 - 1, 10**16, 2**63 - 1,
    -1, -(10**8), -(2**63), -99999999, -(10**16 - 1),
]


@pytest.mark.parametrize("block", [1, 2, 7, 2**14])
def test_word_boundary_shots_match_one_string_writers(block):
    # each next to a small shot; the times are whole, with the digit counts of
    # the shots: as floats, and clamped into the range JSON writes as ints
    shot = [s for b in BOUNDARY_SHOTS for s in (b, 3)]
    time = [t for b in BOUNDARY_SHOTS for t in (float(b), float(min(max(b, 1 - 2**53), 2**53 - 1)))]
    labels = [("D_s", ("s1",)), ("D_p", ("+", "h"))]
    log = log_of_columns(len(shot), shot, time, [k % 2 for k in range(len(shot))], labels)
    assert written(log.to_jsonl, len(log), block) == reference_jsonl(log)
    assert written(log.to_csv, len(log), block) == reference_csv(log)
    for pairs in every_pair(log):
        assert written(pairs.to_csv, len(pairs), block) == reference_pair_csv(pairs)


def test_empty_log_writes_block_zero():
    log = log_of_columns(0, [], [], [], [("D", ("x",))])
    assert list(events.blocks(log.to_jsonl, len(log))) == [""]
    assert list(events.blocks(log.to_csv, len(log))) == ["shot,t,det,outcome\n"]


@pytest.mark.parametrize("flags, expected", [
    ([], ""),
    (["--format", "csv"], "shot,t,det,outcome\n"),
    (["--pairs", "D_s,D_p"], "shot_a,t_a,outcome_a,shot_b,t_b,outcome_b\n"),
])
def test_zero_shots_through_the_cli(capsys, flags, expected):
    argv = ["sample", "walborn_delayed", "-n", "0", "--setting", "p_pol=absent"] + flags
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("flags, expected", [([], ""), (["--format", "csv"], "shot,t,det,outcome\n")])
def test_an_all_blocked_sample_writes_block_zero(capsys, tmp_path, flags, expected):
    # every shot is absorbed, so the log has no events and no labels
    (tmp_path / "blocked.edl").write_text(FILES["blocked.edl"])
    assert main(["sample", str(tmp_path / "blocked.edl"), "-n", "5"] + flags) == 0
    assert capsys.readouterr().out == expected


def test_real_log_times_are_written_as_ints():
    # the shot period and the declared delays are whole ns, so every time of
    # a sampled log is written with the digits of its int: in JSON after them
    # ".0", as repr writes a whole float
    log = events.generate_events(
        scenarios.build("walborn_delayed").circuit, {"p_pol": "absent"}, shots=3000, seed=1
    )
    json_times = re.findall(r'"t":([^,]*),', "".join(events.blocks(log.to_jsonl, len(log))))
    csv_times = [row.split(",")[1] for row in "".join(events.blocks(log.to_csv, len(log))).splitlines()[1:]]
    assert len(json_times) == len(csv_times) == len(log) == 6000
    assert all(re.fullmatch(r"-?\d+\.0", t) for t in json_times)
    assert all(t.isdigit() for t in csv_times)


# label text that a format string would read as directives or cell breaks
TEXT = st.text(
    st.one_of(st.sampled_from("%,s.12g"), st.characters(codec="utf-8", exclude_categories=("Cs",))),
    max_size=4,
)


def distribution(axes, labels, seed):
    """Probabilities spread over many decades, some exactly 0, summing below 1."""
    rng = np.random.default_rng(seed)
    shape = tuple(map(len, labels))
    n = int(np.prod(shape))
    p = rng.random(n) * 10.0 ** -rng.integers(0, 320, n) * (rng.random(n) < 0.9) / n
    return OutcomeDistribution(axes, labels, p.reshape(shape), float(p.sum()))


@st.composite
def distributions(draw):
    k = draw(st.integers(1, 7))
    axes = tuple(draw(st.lists(TEXT, min_size=k, max_size=k)))
    labels = tuple(tuple(draw(st.lists(TEXT, min_size=1, max_size=5))) for _ in range(k))
    return distribution(axes, labels, draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=300, deadline=None)
@given(dist=distributions())
def test_run_csv_matches_prefix_per_row_writer(dist):
    assert dist.to_csv() == reference_run_csv(dist)


@pytest.mark.parametrize("axes, labels", [
    (("D",), (tuple(f"b{j}" for j in range(300)),)),
    (("a%", "b,c", "%%d"), (("%s", "%%", "x"), ("x,y", "%.12g"), ("%", ",", "%(k)s"))),
    (("p%", "q"), (("%",), ("%d", "%%%"))),
    ((), ()),
], ids=["300_labels", "percent_comma", "percent_odd", "no_axes"])
def test_run_csv_edge_labels_match_prefix_per_row_writer(axes, labels):
    dist = distribution(axes, labels, 7)
    assert dist.to_csv() == reference_run_csv(dist)


@pytest.mark.parametrize("labels", [((), ()), ((), ("x", "y")), (("x", "y"), ())], ids=repr)
def test_run_csv_of_all_blocked_has_only_the_header(labels):
    dist = OutcomeDistribution(("D_s", "D_c"), labels, np.zeros(tuple(map(len, labels))), 0.0)
    assert dist.to_csv() == reference_run_csv(dist) == "D_s,D_c,p\n"


@pytest.mark.parametrize("chunk", [7, measure._CHUNK])
def test_wide_sweep_rows_match_row_template(chunk):
    # a sweep row of a 12-dof circuit: the parameter, then 4096 probabilities
    rng = np.random.default_rng(12)
    cells = rng.random((5, 4097)) * 10.0 ** rng.integers(-320, 300, (5, 4097))
    cells[:, ::97] = np.array([0.0, -0.0, 1.0, 1e12, -2.2250738585072014e-308])[:, None]
    with mock.patch.object(measure, "_CHUNK", chunk):
        assert measure._csv_rows(cells) == reference_sweep_csv(cells)
