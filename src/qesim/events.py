"""Timestamped detection events and coincidence counting.

Each shot samples one joint outcome from the active detectors' Born
distribution via a cell table; every detector then logs its part of that
outcome, the labels along its own axes, at

    t = shot * PERIOD_NS + delay (all in ns),

where the delay is the one the caller gives for that detector, else the
detector's declared ``time_offset``: an explicit delay replaces the declared
one, it does not add to it.  Delays shift timestamps only: the sampled
outcome sequence of each detector is byte-identical whatever delays are
applied to the others.  Coincidence
search pairs two detectors' events greedily in time order inside a window,
optionally after subtracting per-detector compensation offsets — which is how
a delayed eraser's pairs are recovered.

``generate_events`` draws the shots ``BLOCK_ROWS`` at a time and keeps each
detector's events as one run: its surviving shots, their times and label
indices, in shot order and so in time order.  ``coincidences`` pairs A's run
block by block against B's compensated times, a block's candidates by one
merge of sorted times, and ``conditioned_histogram`` counts the pairs block
by block; both read the runs, so nothing merges the detectors' events for
them.  The time-ordered log, in (time, detector name, shot) order, is a
view: ``EventLog.shot``, ``.time``, ``.label`` and ``.events`` build it on
first access, and the writers take it block by block as they write, so a
log is never held twice.  The next ``n`` rows are among each run's next
``n`` events, so one stable sort of those merges them.  The writers, and
that of ``Coincidences``, format a range of rows, so that ``blocks`` can
write a log of any length ``BLOCK_ROWS`` rows at a time and never holds the
whole text.  A JSON or CSV block is one row array that ``measure._rows``
lays out from literal keys and commas, shots, times (CSV's as ``%.12g``
cells) and per-label tables; ``measure._lines`` gives its text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product
from typing import NamedTuple

import numpy as np

from .circuit import Circuit, joint_distribution
from .measure import _byte_rows, _g12, _int_words, _lines, _rows, rng_for
from .qstate import ValidationError
from .screen import BIN_LABELS, Pattern, pattern_from_bin_probs

#: shot spacing and default coincidence window, in nanoseconds
PERIOD_NS = 1e6
DEFAULT_WINDOW_NS = 1e3

#: shots drawn and merged, rows paired or counted, and rows written by ``blocks``, at a time
BLOCK_ROWS = 2**14
#: equal cells of [0, 1) in the table that ``_drawer`` reads outcomes from
DRAW_CELLS = 2**14
#: size below which a whole float's ``repr`` is its int and ``.0`` (1e16 has an exponent)
JSON_WHOLE_BOUND = 2**53
#: the screen-bin labels, as a set for ``conditioned_histogram``'s check
_BIN_LABELS = frozenset(BIN_LABELS)


@dataclass(frozen=True)
class DetectionEvent:
    shot: int
    time: float  # ns
    detector: str
    outcome: tuple[str, ...]


class _Run(NamedTuple):
    """Events as three parallel columns: shots, times (ns) and label indices."""

    shot: np.ndarray
    time: np.ndarray
    label: np.ndarray


def _part(run: _Run, index) -> _Run:
    return _Run(*(column[index] for column in run))


class EventLog:
    """Detection events, as one run per detector.

    ``labels`` holds each (detector name, outcome) pair once.  ``runs`` maps
    each detector's name, in name order, to its events: their shots, times
    (ns) and indices into ``labels``, in time order.  Pairing and counting read
    the runs.  The log's rows are their merge in (time, detector name, place
    in the run) order: the ``shot``, ``time`` and ``label`` columns build it on
    first access, and writers that go through the rows in order from row 0
    merge it a range at a time.
    """

    def __init__(self, shots: int, labels, runs: dict[str, _Run]):
        self.shots = shots
        self.labels: tuple[tuple[str, tuple[str, ...]], ...] = tuple(labels)
        self._runs = runs

    shot = property(lambda self: self._columns.shot)
    time = property(lambda self: self._columns.time)
    label = property(lambda self: self._columns.label)

    @cached_property
    def _columns(self) -> _Run:
        return self._merge([0] * len(self._runs), len(self))[0]

    def _merge(self, taken: list[int], n: int) -> tuple[_Run, np.ndarray]:
        """The ``n`` rows that follow the first ``taken[k]`` events of each run
        ``k`` in (time, name, place in the run) order, and how many of them each
        run gives.  Some events, ``m`` or all that are left of each run, are
        ``n`` or more in all, so the ``n``-th row is no later than the latest of
        them: the rows are among each run's next ``n`` events no later than
        that, and a stable sort on time of those, each run's in its order and the
        runs in name order, leaves them in (time, name, place in the run) order."""
        runs = list(self._runs.values())
        m = -(-n // len(runs))
        if sum(min(m, len(run.time) - t) for run, t in zip(runs, taken)) < n:
            m = n
        last = max((run.time[min(t + m, len(run.time)) - 1]
                    for run, t in zip(runs, taken) if t < len(run.time)), default=np.inf)
        parts = [_part(run, slice(t, t + run.time[t:t + n].searchsorted(last, "right")))
                 for run, t in zip(runs, taken)]
        block = _Run(*map(np.concatenate, zip(*parts)))
        order = np.argsort(block.time, kind="stable")[:n]
        ends = np.cumsum([len(part.time) for part in parts])
        rows = _Run(*(column.take(order) for column in block))
        return rows, np.diff([np.count_nonzero(order < end) for end in ends], prepend=0)

    def _slice(self, lo: int, hi: int | None) -> _Run:
        """Rows ``[lo, hi)``.  Until the columns are built, calls that go through
        the rows in order from row 0 merge each range as it is asked for, so
        that writing a log never holds it twice."""
        lo, hi, _ = slice(lo, hi).indices(len(self))
        hi = max(lo, hi)
        at, taken = self.__dict__.get("_cursor", (0, [0] * len(self._runs)))
        if "_columns" in self.__dict__ or lo != at:
            return _part(self._columns, slice(lo, hi))
        rows, counts = self._merge(taken, hi - lo)
        self._cursor = (hi, [t + c for t, c in zip(taken, counts.tolist())])
        return rows

    @cached_property
    def events(self) -> tuple[DetectionEvent, ...]:
        labels = self.labels
        return tuple(
            DetectionEvent(s, t, *labels[k])
            for s, t, k in zip(self.shot.tolist(), self.time.tolist(), self.label.tolist())
        )

    def __len__(self) -> int:
        return sum(len(run.time) for run in self._runs.values())

    @cached_property
    def _jsonl_tails(self) -> np.ndarray:
        """Each label's JSON line after the time, as byte rows: row ``2 * k``
        is label ``k``'s, and row ``2 * k + 1`` the same after ``.0``."""
        dumps = cache(json.dumps)
        tails = [f',"det":{dumps(det)},"outcome":[{",".join(map(dumps, outcome))}]}}\n'.encode()
                 for det, outcome in self.labels]
        return _byte_rows(t for tail in tails for t in (tail, b".0" + tail))

    @cached_property
    def _csv_tails(self) -> np.ndarray:
        return _byte_rows(f",{det},{'|'.join(outcome)}\n".encode() for det, outcome in self.labels)

    def to_jsonl(self, lo: int = 0, hi: int | None = None) -> str:
        """JSON lines of rows ``[lo, hi)``."""
        shot, t, label = self._slice(lo, hi)
        # json.dumps writes repr(t): for a whole t below the bound, but -0.0, its int and ".0"
        ints = np.where(np.abs(t) < JSON_WHOLE_BOUND, t, 0).astype(np.int64)
        whole = (ints == t) & (np.signbit(t) == (ints < 0))
        slow = np.flatnonzero(~whole)
        texts = [b"%r" % x for x in t[slow].tolist()]
        time = _int_words(ints, max(map(len, texts), default=0)).view(np.uint8)
        time[slow] = _byte_rows(texts, time.shape[1])
        tails = (self._jsonl_tails, 2 * label + whole)
        return _lines(_rows(len(t), b'{"shot":', _int_words(shot), b',"t":', time, tails))

    def to_csv(self, lo: int = 0, hi: int | None = None) -> str:
        """CSV of rows ``[lo, hi)``, after the header when ``lo == 0``."""
        rows = self._slice(lo, hi)
        body = _lines(_rows(len(rows.time), *_csv_cells(rows, (self._csv_tails, rows.label))))
        return "shot,t,det,outcome\n" + body if lo == 0 else body


def _csv_cells(rows: _Run, tails) -> tuple:
    """The ``measure._rows`` parts of the shots, a comma and the times of ``rows``, then ``tails``."""
    return _int_words(rows.shot), b",", _g12(rows.time), tails


def blocks(write, rows: int):
    """The text pieces ``write(lo, hi)`` of consecutive blocks of
    ``BLOCK_ROWS`` rows, each formatted when the previous one has been taken.
    There is always block 0, so an empty table still writes its header."""
    return (write(lo, hi) for lo, hi in _spans(max(rows, 1)))


def _spans(n: int):
    """``(lo, hi)`` of consecutive blocks of ``BLOCK_ROWS`` of ``n`` rows."""
    step = BLOCK_ROWS
    return ((lo, min(lo + step, n)) for lo in range(0, n, step))


def _drawer(cdf: np.ndarray):
    """A function giving ``np.searchsorted(cdf, u, side="right")`` for ``u`` in [0, 1) from
    ``Generator.random``, from a table of cells built once.  ``u * DRAW_CELLS`` scales by a
    power of two, so the cell, its floor, is exact.  The CDF does not decrease (entries above
    1 before its final 1.0 compare as 1.0 does), so where count(cdf <= a cell's lower edge)
    == count(cdf < its upper edge), that is the pick.  Both counts come from where each CDF
    entry falls among the edges: it is <= every edge from the first not below it, and < every
    edge from the first above it (the counts' last slot holds entries above 1)."""
    edges = np.arange(DRAW_CELLS + 1) / DRAW_CELLS
    at_most, below = (np.cumsum(np.bincount(edges.searchsorted(cdf, side), minlength=DRAW_CELLS + 2))
                      for side in ("left", "right"))
    lo = at_most[:-2]
    unsure = lo != below[1:-1]

    def draw(u: np.ndarray) -> np.ndarray:
        cell = (u * DRAW_CELLS).astype(np.intp)
        picks = lo[cell]
        searched = np.flatnonzero(unsure[cell])
        picks[searched] = np.searchsorted(cdf, u[searched], side="right")
        return picks

    return draw


def generate_events(
    c: Circuit,
    settings: dict[str, str] | None = None,
    shots: int = 1000,
    seed: int = 0,
    delays: dict[str, float] | None = None,
) -> EventLog:
    """Sample per-shot joint outcomes and emit one event per detector.

    Shots whose particle was absorbed by a filter produce no events.  The
    outcome sequence depends only on (circuit, settings, shots, seed); delays
    affect timestamps alone.  ``delays`` (ns) maps detector names
    to delays that replace their declared ``time_offset``.
    """
    if shots < 0:
        raise ValidationError("shots must be >= 0")
    if seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, not {seed}")
    settings = settings or {}
    delays = delays or {}
    dist = joint_distribution(c, settings)
    specs = c.detectors(settings)

    # survive is a left-to-right sum, the last entry of the running sum:
    # np.sum adds in another order and can move the residual threshold
    cdf = np.cumsum(dist.probs.ravel())
    survive = cdf[-1] if dist.probs.size else 0.0
    if survive < dist.total_mass - 1e-9 or dist.total_mass > 1 + 1e-9:
        raise ValidationError("inconsistent distribution mass")
    # residual outcome (pick == probs.size): the particle never reached the detectors
    if survive < 1.0 - 1e-12:
        cdf = np.append(cdf, 1.0)
    cdf[-1] = 1.0
    # one compact outcome index per shot, drawn block by block from one stream
    draw, rng, size = _drawer(cdf), rng_for(seed), dist.probs.size
    outcome = np.empty(shots, np.min_scalar_type(size))
    for lo, hi in _spans(shots):
        outcome[lo:hi] = draw(rng.random(hi - lo))

    # each detector logs each surviving shot at shot * PERIOD_NS + its delay, so in
    # shot order its events are in time order; the joint axes split among detectors
    # in declaration order, and each labels its axes' outcomes in C order
    shape = dist.probs.shape
    index = np.unravel_index(np.arange(size), shape)
    labels: list[tuple[str, tuple[str, ...]]] = []
    runs = {}
    shot = np.flatnonzero(outcome < size)
    picks = outcome[shot]
    pos = 0
    for spec in specs:
        span = slice(pos, pos + len(spec.axis_names()))
        pos = span.stop
        label_of_key = (np.ravel_multi_index(index[span], shape[span]) + len(labels)).astype(np.int32)
        labels += [(spec.name, k) for k in product(*dist.labels[span])]
        time = shot * PERIOD_NS
        time += delays.get(spec.name, spec.time_offset)
        if not np.isfinite(time).all():
            raise ValidationError("event times must be finite")
        label = np.empty(len(shot), np.int32)
        for lo, hi in _spans(len(shot)):
            # take, as indexing by a small int type, is 3x slower, but it copies the
            # index as intp, so a block at a time; mode "clip" writes straight into out
            # (the default buffers the result), and the indices are in range
            np.take(label_of_key, picks[lo:hi], out=label[lo:hi], mode="clip")
        runs[spec.name] = _Run(shot, time, label)
    return EventLog(shots, labels, dict(sorted(runs.items())))


class Coincidences:
    """Pairs found by ``coincidences``: pair ``i`` joins event ``a[i]`` of
    ``det_a``'s run in ``log`` with event ``b[i]`` of ``det_b``'s."""

    def __init__(self, log: EventLog, det_a: str, a, det_b: str, b):
        # each side: its run and the indices of its events in that run
        self.log, self._sides = log, tuple((log._runs[det], np.asarray(index, np.intp))
                                           for det, index in ((det_a, a), (det_b, b)))

    def __len__(self) -> int:
        return len(self._sides[0][1])

    @cached_property
    def _outcomes(self) -> np.ndarray:
        """Each label's outcome cell as bytes: row ``2 * k`` is label ``k``'s
        as side ``a``, and row ``2 * k + 1`` as side ``b``."""
        return _byte_rows(f",{'|'.join(o)}{end}".encode() for _, o in self.log.labels for end in ",\n")

    def to_csv(self, lo: int = 0, hi: int | None = None) -> str:
        """CSV of pairs ``[lo, hi)``, after the header when ``lo == 0``."""
        a, b = (_part(run, index[lo:hi]) for run, index in self._sides)
        body = _lines(_rows(len(a.time), *_csv_cells(a, (self._outcomes, 2 * a.label)),
                            *_csv_cells(b, (self._outcomes, 2 * b.label + 1))))
        return "shot_a,t_a,outcome_a,shot_b,t_b,outcome_b\n" + body if lo == 0 else body


def _greedy(ta: list[float], tb: list[float], window: float) -> tuple[list[int], list[int]]:
    """Earliest-first scan: each A event, in time order, takes the first
    unused B event not earlier than ``window`` before it, if that one lies
    within ``window``."""
    pa, pb = [], []
    j, nb = 0, len(tb)
    for i, t in enumerate(ta):
        while j < nb and tb[j] < t - window:
            j += 1
        if j < nb and abs(tb[j] - t) <= window:
            pa.append(i)
            pb.append(j)
            j += 1
    return pa, pb


def _ranks(run: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``np.searchsorted(run, keys, side="left")`` for sorted ``keys`` in the sorted ``run``,
    by a merge.  The answers lie between those of the first and last key, so only that slice
    of the run is merged: one stable sort (timsort, which merges two sorted runs in linear
    time) with the keys first, so that a key sorts before run entries equal to it.  A key's
    rank is then its place in that order less the keys before it."""
    start, stop = run.searchsorted(keys[[0, -1]], "left")
    order = np.argsort(np.concatenate([keys, run[start:stop]]), kind="stable")
    return start + np.flatnonzero(order < len(keys)) - np.arange(len(keys))


def coincidences(
    log: EventLog,
    det_a: str,
    det_b: str,
    window: float = DEFAULT_WINDOW_NS,
    offsets: dict[str, float] | None = None,
) -> Coincidences:
    """Greedy earliest-first pairing of two detectors' events.

    Each event is used at most once, so the two detectors must differ.
    ``offsets`` (ns, subtracted per detector before comparison) compensate
    known delays, e.g. a delayed eraser arm.  Both runs are in time order, so
    each block's candidates are ranks that ``_ranks`` finds by a merge.
    """
    if not window >= 0:
        raise ValidationError("window must be >= 0")
    if det_a == det_b:
        raise ValidationError(f"cannot pair detector {det_a!r} with itself")
    for det in (det_a, det_b):
        if det not in log._runs:
            raise ValidationError(f"no detector {det!r} in the log")
    offsets = offsets or {}
    if not all(np.isfinite(v) for v in offsets.values()):
        raise ValidationError("offsets must be finite")
    time_a, off_a = log._runs[det_a].time, offsets.get(det_a, 0.0)
    tb = log._runs[det_b].time - offsets.get(det_b, 0.0)
    a, b = np.empty((2, min(len(time_a), len(tb))), np.intp)
    pairs, edge = 0, (-1, False)
    # each run is in time order, and so are its compensated times: A's run is
    # paired block by block
    for lo, hi in _spans(len(time_a)):
        ta = time_a[lo:hi] - off_a
        # each A event's first candidate: the earliest B event not before t - window
        first = _ranks(tb, ta - window)
        hit = first < len(tb)
        hit[hit] = np.abs(tb[first[hit]] - ta[hit]) <= window
        if (hit[:-1] & (first[1:] == first[:-1])).any() or edge == (first[0], True):
            # an A event took the candidate of the next one, which must then look
            # further on; only a window of half the event spacing or more does this
            a, b = _greedy((time_a - off_a).tolist(), tb.tolist(), window)
            return Coincidences(log, det_a, a, det_b, b)
        end = pairs + np.count_nonzero(hit)
        a[pairs:end], b[pairs:end] = np.arange(lo, hi)[hit], first[hit]
        pairs, edge = end, (first[-1], hit[-1])
    return Coincidences(log, det_a, a[:pairs], det_b, b[:pairs])


def conditioned_histogram(
    pairs: Coincidences,
    partner_outcome: tuple[str, ...] | str | None = None,
) -> Pattern:
    """Screen pattern from the ``a`` side of pairs, optionally keeping only
    pairs whose ``b`` outcome matches.  Each counted ``a`` event must carry
    one screen-bin label."""
    if isinstance(partner_outcome, str):
        partner_outcome = (partner_outcome,)
    labels = pairs.log.labels
    (run_a, a), (run_b, b) = pairs._sides
    wanted = np.array([partner_outcome in (None, outcome) for _, outcome in labels], dtype=bool)
    counts = np.zeros(len(labels), np.intp)
    for lo, hi in _spans(len(pairs)):
        counts += np.bincount(run_a.label[a[lo:hi]][wanted[run_b.label[b[lo:hi]]]], minlength=len(labels))
    used = np.flatnonzero(counts).tolist()
    if any(len(labels[k][1]) != 1 or labels[k][1][0] not in _BIN_LABELS for k in used):
        raise ValidationError("screen events must carry a single bin label")
    if not used:
        raise ValidationError("no pairs satisfy the condition")
    return pattern_from_bin_probs({labels[k][1][0]: float(counts[k]) for k in used})
