"""Timestamped detection events and coincidence counting.

Each shot samples one joint outcome from the active detectors' Born
distribution via a cell table; every detector then logs an event at

    t = shot * period + delay (all in ns),

where the delay is the one the caller gives for that detector, else the
detector's declared ``time_offset``: an explicit delay replaces the declared
one, it does not add to it.  Delays shift timestamps only: the sampled
outcome sequence of each detector is byte-identical whatever delays are
applied to the others.  Coincidence
search pairs two detectors' events greedily in time order inside a window,
optionally after subtracting per-detector compensation offsets — which is how
a delayed eraser's pairs are recovered.

An ``EventLog`` keeps its events as parallel numpy columns, not one object
per event; ``DetectionEvent`` objects are built only when a caller asks for
``EventLog.events``; its rows are merged from one block per detector by a
stable sort on time.  Its writers, and that of ``Coincidences``, format a
range of rows, so that ``blocks`` can write a log of any length
``BLOCK_ROWS`` rows at a time and never holds the whole text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circuit import Circuit, joint_distribution
from .measure import rng_for
from .qstate import ValidationError
from .screen import DEFAULT_GEOMETRY, Pattern, SlitGeometry, pattern_from_bin_probs

#: default shot spacing and coincidence window, in nanoseconds
DEFAULT_PERIOD_NS = 1e6
DEFAULT_WINDOW_NS = 1e3

#: rows formatted and written at a time by ``blocks``
BLOCK_ROWS = 2**14
#: equal cells of [0, 1) in the table that ``_draw`` reads outcomes from
DRAW_CELLS = 2**14
#: sizes below which a whole float's ``repr`` (JSON) and ``%.12g`` (CSV) give
#: the digits of its int: ``repr`` turns to exponents at 1e16 > 2**53, and 12
#: significant digits hold every int below 1e12
JSON_WHOLE_BOUND = 2**53
CSV_WHOLE_BOUND = 1e12


@dataclass(frozen=True)
class DetectionEvent:
    shot: int
    time: float  # ns
    detector: str
    outcome: tuple[str, ...]


class EventLog:
    """Detection events as three parallel columns.

    Row ``i`` is shot ``shot[i]`` registered at ``time[i]`` (ns) with
    ``labels[label[i]]``, a (detector name, outcome) pair; ``labels`` holds
    each pair once.  ``generate_events`` stores rows in (time, detector name,
    shot) order: a stable sort on time of per-detector blocks in name order.
    """

    def __init__(self, seed: int, shots: int, shot, time, label, labels):
        self.seed = seed
        self.shots = shots
        self.shot = np.asarray(shot, dtype=np.int64)
        self.time = np.asarray(time, dtype=np.float64)
        self.label = np.asarray(label, dtype=np.int32)
        self.labels: tuple[tuple[str, tuple[str, ...]], ...] = tuple(labels)
        if not np.isfinite(self.time).all():
            raise ValidationError("event times must be finite")

    @cached_property
    def events(self) -> tuple[DetectionEvent, ...]:
        labels = self.labels
        return tuple(
            DetectionEvent(s, t, *labels[k])
            for s, t, k in zip(self.shot.tolist(), self.time.tolist(), self.label.tolist())
        )

    def _rows(self, detector: str) -> np.ndarray:
        """Row indices of one detector's events, in stored order."""
        mine = np.array([det == detector for det, _ in self.labels], dtype=bool)
        return np.flatnonzero(mine[self.label])

    def __len__(self) -> int:
        return len(self.shot)

    @cached_property
    def _jsonl_tails(self) -> np.ndarray:
        """Each label's JSON line after the time, indexed like ``labels``."""
        return _table(
            f',"det":{json.dumps(det)},"outcome":'
            f'{json.dumps(list(outcome), separators=(",", ":"))}}}\n'
            for det, outcome in self.labels
        )

    @cached_property
    def _csv_tails(self) -> np.ndarray:
        return _table(f",{det},{'|'.join(outcome)}\n" for det, outcome in self.labels)

    def to_jsonl(self, lo: int = 0, hi: int | None = None) -> str:
        """JSON lines of rows ``[lo, hi)``."""
        # repr(float) is how json.dumps writes a finite float
        t_fmt, times = _times(self.time[lo:hi], "%d.0", JSON_WHOLE_BOUND, "%r")
        return _format(
            '{"shot":%d,"t":' + t_fmt + "%s",
            self.shot[lo:hi].tolist(), times, self._jsonl_tails[self.label[lo:hi]].tolist(),
        )

    def to_csv(self, lo: int = 0, hi: int | None = None) -> str:
        """CSV of rows ``[lo, hi)``, after the header when ``lo == 0``."""
        t_fmt, times = _times(self.time[lo:hi], "%d", CSV_WHOLE_BOUND, "%.12g")
        body = _format(
            "%d," + t_fmt + "%s",
            self.shot[lo:hi].tolist(), times, self._csv_tails[self.label[lo:hi]].tolist(),
        )
        return "shot,t,det,outcome\n" + body if lo == 0 else body


def _table(texts) -> np.ndarray:
    """Strings as an object array, so that a label column picks them at once."""
    return np.array(list(texts), dtype=object)


def _times(t: np.ndarray, whole_fmt: str, bound: float, fmt: str) -> tuple[str, list]:
    """The format and values of one block of times.  When every time is a
    whole number of ns below ``bound`` in size and none is -0.0, ``whole_fmt``
    writes the ints with the same bytes as ``fmt`` writes the floats, and is
    faster; otherwise ``fmt`` and the floats."""
    if not (t.size == 0 or np.abs(t).max() < bound):
        return fmt, t.tolist()
    ints = t.astype(np.int64)
    if (ints == t).all() and (np.signbit(t) == (ints < 0)).all():
        return whole_fmt, ints.tolist()
    return fmt, t.tolist()


def _format(row_fmt: str, *columns: list) -> str:
    """Rows of ``row_fmt``, one per entry of the equally long ``columns``,
    formatted by one % operation over the flat cell list."""
    n = len(columns[0])
    cells = [None] * (n * len(columns))
    for i, column in enumerate(columns):
        cells[i :: len(columns)] = column
    return (row_fmt * n) % tuple(cells)


def blocks(write, rows: int):
    """The text pieces ``write(lo, hi)`` of consecutive blocks of
    ``BLOCK_ROWS`` rows, each formatted when the previous one has been taken.
    There is always block 0, so an empty table still writes its header."""
    step = BLOCK_ROWS
    return (write(lo, lo + step) for lo in range(0, max(rows, 1), step))


def _draw(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, u, side="right")`` for ``u`` in [0, 1) from ``Generator.random``.
    ``u * DRAW_CELLS`` scales by a power of two, so the cell, its floor, is exact.  The CDF
    does not decrease (entries above 1 before its final 1.0 compare as 1.0 does), so where
    count(cdf <= a cell's lower edge) == count(cdf < its upper edge), that is the pick."""
    edges = np.arange(DRAW_CELLS + 1) / DRAW_CELLS
    lo = np.searchsorted(cdf, edges[:-1], side="right")
    unsure = lo != np.searchsorted(cdf, edges[1:], side="left")
    cell = (u * DRAW_CELLS).astype(np.intp)
    picks = lo[cell]
    searched = np.flatnonzero(unsure[cell])
    picks[searched] = np.searchsorted(cdf, u[searched], side="right")
    return picks


def generate_events(
    c: Circuit,
    settings: dict[str, str] | None = None,
    shots: int = 1000,
    seed: int = 0,
    delays: dict[str, float] | None = None,
    period: float = DEFAULT_PERIOD_NS,
) -> EventLog:
    """Sample per-shot joint outcomes and emit one event per detector.

    Shots whose particle was absorbed by a filter produce no events.  The
    outcome sequence depends only on (circuit, settings, shots, seed); delays
    and period affect timestamps alone.  ``delays`` (ns) maps detector names
    to delays that replace their declared ``time_offset``.
    """
    if shots < 0:
        raise ValidationError("shots must be >= 0")
    settings = settings or {}
    delays = delays or {}
    dist = joint_distribution(c, settings)
    specs = c.detectors(settings)

    keys = list(dist.outcomes)
    # survive is a left-to-right sum, the last entry of the running sum:
    # np.sum adds in another order and can move the residual threshold
    cdf = np.cumsum(dist.probs.ravel())
    survive = cdf[-1] if len(keys) else 0.0
    if survive < dist.total_mass - 1e-9 or dist.total_mass > 1 + 1e-9:
        raise ValidationError("inconsistent distribution mass")
    # residual outcome (pick == len(keys)): the particle never reached the detectors
    if survive < 1.0 - 1e-12:
        cdf = np.append(cdf, 1.0)
    cdf[-1] = 1.0
    picks = _draw(cdf, rng_for(seed).random(shots))
    survivors = np.flatnonzero(picks < len(keys))
    picks = picks[survivors]

    # one block of rows per detector, in shot order; labels are indexed, and
    # the joint axes split among detectors, in declaration order
    index: dict[tuple[str, tuple[str, ...]], int] = {}
    parts: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    pos = 0
    for spec in specs:
        span = slice(pos, pos + len(spec.axis_names()))
        pos = span.stop
        offset = delays.get(spec.name, spec.time_offset)
        label_of_key = np.array(
            [index.setdefault((spec.name, k[span]), len(index)) for k in keys],
            dtype=np.int32,
        )
        parts[spec.name] = (survivors * period + offset, label_of_key[picks])
    del picks
    names = sorted(parts)
    shot = np.tile(survivors, len(names))
    time = np.concatenate([parts[name][0] for name in names])
    label = np.concatenate([parts[name][1] for name in names])
    del survivors, parts

    # blocks in name order, a block's times monotone in its shots, names distinct
    # (Circuit checks): a stable sort on time leaves rows in (time, name, shot) order
    order = np.argsort(time, kind="stable")
    # reorder one column at a time, so that only one old column is alive
    shot = shot[order]
    time = time[order]
    label = label[order]
    return EventLog(seed, shots, shot, time, label, index)


class Coincidences:
    """Pairs found by ``coincidences``: pair ``i`` joins rows ``a[i]`` and
    ``b[i]`` of ``log``."""

    def __init__(self, log: EventLog, a: np.ndarray, b: np.ndarray):
        self.log, self.a, self.b = log, a, b

    def __len__(self) -> int:
        return len(self.a)

    @cached_property
    def _outcomes(self) -> np.ndarray:
        return _table(f",{'|'.join(o)}" for _, o in self.log.labels)

    def to_csv(self, lo: int = 0, hi: int | None = None) -> str:
        """CSV of pairs ``[lo, hi)``, after the header when ``lo == 0``."""
        log = self.log
        a, b = self.a[lo:hi], self.b[lo:hi]
        ta_fmt, ta = _times(log.time[a], "%d", CSV_WHOLE_BOUND, "%.12g")
        tb_fmt, tb = _times(log.time[b], "%d", CSV_WHOLE_BOUND, "%.12g")
        body = _format(
            "%d," + ta_fmt + "%s,%d," + tb_fmt + "%s\n",
            log.shot[a].tolist(), ta, self._outcomes[log.label[a]].tolist(),
            log.shot[b].tolist(), tb, self._outcomes[log.label[b]].tolist(),
        )
        return "shot_a,t_a,outcome_a,shot_b,t_b,outcome_b\n" + body if lo == 0 else body


def _shifted(log: EventLog, detector: str, offset: float) -> tuple[np.ndarray, np.ndarray]:
    """One detector's rows and compensated times, sorted by that time."""
    rows = log._rows(detector)
    t = log.time[rows] - offset
    order = np.argsort(t, kind="stable")
    return rows[order], t[order]


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


def coincidences(
    log: EventLog,
    det_a: str,
    det_b: str,
    window: float = DEFAULT_WINDOW_NS,
    offsets: dict[str, float] | None = None,
) -> Coincidences:
    """Greedy earliest-first pairing of two detectors' events.

    Each event is used at most once.  ``offsets`` (ns, subtracted per
    detector before comparison) compensate known delays, e.g. a delayed
    eraser arm.
    """
    if not window >= 0:
        raise ValidationError("window must be >= 0")
    offsets = offsets or {}
    if not all(np.isfinite(v) for v in offsets.values()):
        raise ValidationError("offsets must be finite")
    rows_a, ta = _shifted(log, det_a, offsets.get(det_a, 0.0))
    rows_b, tb = _shifted(log, det_b, offsets.get(det_b, 0.0))
    # each A event's first candidate: the earliest B event not before t - window
    first = np.searchsorted(tb, ta - window, side="left")
    hit = first < len(tb)
    hit[hit] = np.abs(tb[first[hit]] - ta[hit]) <= window
    if (hit[:-1] & (first[1:] == first[:-1])).any():
        # an A event took the candidate of the next one, which must then look
        # further on; only a window of half the event spacing or more does this
        pa, pb = _greedy(ta.tolist(), tb.tolist(), window)
    else:
        pa, pb = np.flatnonzero(hit), first[hit]
    return Coincidences(log, rows_a[pa], rows_b[pb])


def conditioned_histogram(
    pairs: Coincidences,
    partner_outcome: tuple[str, ...] | str | None = None,
    geometry: SlitGeometry = DEFAULT_GEOMETRY,
) -> Pattern:
    """Screen pattern from the ``a`` side of pairs, optionally keeping only
    pairs whose ``b`` outcome matches.  The ``a`` events must carry single
    screen-bin outcomes."""
    if isinstance(partner_outcome, str):
        partner_outcome = (partner_outcome,)
    labels = pairs.log.labels
    a = pairs.log.label[pairs.a]
    if partner_outcome is not None:
        wanted = np.array([outcome == partner_outcome for _, outcome in labels], dtype=bool)
        a = a[wanted[pairs.log.label[pairs.b]]]
    counts = np.bincount(a, minlength=len(labels))
    used = np.flatnonzero(counts).tolist()
    if any(len(labels[k][1]) != 1 for k in used):
        raise ValidationError("screen events must carry a single bin label")
    if not used:
        raise ValidationError("no pairs satisfy the condition")
    return pattern_from_bin_probs({labels[k][1][0]: float(counts[k]) for k in used}, geometry)
