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

An ``EventLog`` keeps its events as parallel numpy columns, not one object
per event; ``DetectionEvent`` objects are built only when a caller asks for
``EventLog.events``.  ``generate_events`` draws shots and merges the
detectors' rows ``BLOCK_ROWS`` shots at a time, ``coincidences`` pairs A's
events and ``conditioned_histogram`` counts pairs in blocks as well, so what
grows with the shot count is their results.  The log's writers, and that of
``Coincidences``, format a range of rows, so that ``blocks`` can write a log
of any length ``BLOCK_ROWS`` rows at a time and never holds the whole text.  A block is one
array of 0xFF-padded rows (uint64 words for JSON, bytes for CSV) of numbers from
``measure`` and per-label tables; one ``bytes.translate`` drops the padding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product

import numpy as np

from .circuit import Circuit, joint_distribution
from .measure import _PAD, _byte_rows, _g12, _int_words, _lines, rng_for
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
#: the literal words of a JSON line before the shot and before the time
_KEYS = b'{"shot":' + b',"t":'.ljust(8, _PAD)


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
    shot) order.
    """

    def __init__(self, shots: int, shot, time, label, labels):
        self.shots = shots
        self.shot = np.asarray(shot, dtype=np.int64)
        self.time = np.asarray(time, dtype=np.float64)
        self.label = np.asarray(label, dtype=np.int32)
        self.labels: tuple[tuple[str, tuple[str, ...]], ...] = tuple(labels)
        if not len(self.shot) == len(self.time) == len(self.label):
            raise ValidationError("shot, time and label columns differ in length")
        _check_index("label", self.label, len(self.labels))
        if not np.isfinite(self.time).all():
            raise ValidationError("event times must be finite")

    @cached_property
    def events(self) -> tuple[DetectionEvent, ...]:
        labels = self.labels
        return tuple(
            DetectionEvent(s, t, *labels[k])
            for s, t, k in zip(self.shot.tolist(), self.time.tolist(), self.label.tolist())
        )

    def _mine(self, detector: str) -> np.ndarray:
        """Whether each label is one of ``detector``'s."""
        return np.array([det == detector for det, _ in self.labels], dtype=bool)

    def __len__(self) -> int:
        return len(self.shot)

    @cached_property
    def _jsonl_tails(self) -> np.ndarray:
        """Each label's JSON line after the time, as words: row ``2 * k`` is
        label ``k``'s, and row ``2 * k + 1`` the same after ``.0``."""
        dumps = cache(json.dumps)
        tails = [f',"det":{dumps(det)},"outcome":[{",".join(map(dumps, outcome))}]}}\n'.encode()
                 for det, outcome in self.labels]
        return _words(t for tail in tails for t in (tail, b".0" + tail))

    @cached_property
    def _csv_tails(self) -> np.ndarray:
        return _words((f",{det},{'|'.join(outcome)}\n".encode() for det, outcome in self.labels), 1)

    def to_jsonl(self, lo: int = 0, hi: int | None = None) -> str:
        """JSON lines of rows ``[lo, hi)``."""
        t = self.time[lo:hi]
        # json.dumps writes repr(t): for a whole t below the bound, but -0.0, its int and ".0"
        ints = np.where(np.abs(t) < JSON_WHOLE_BOUND, t, 0).astype(np.int64)
        whole = (ints == t) & (np.signbit(t) == (ints < 0))
        slow = np.flatnonzero(~whole)
        texts = [b"%r" % x for x in t[slow].tolist()]
        time = _int_words(ints, -(-max(map(len, texts), default=0) // 8))
        time[slow] = _byte_rows(texts, time.shape[1] * 8).view("<u8")
        keys = np.broadcast_to(np.frombuffer(_KEYS, "<u8"), (len(t), 2))
        tails = self._jsonl_tails[2 * self.label[lo:hi] + whole]
        return _lines(keys[:, :1], _int_words(self.shot[lo:hi]), keys[:, 1:], time, tails)

    def to_csv(self, lo: int = 0, hi: int | None = None) -> str:
        """CSV of rows ``[lo, hi)``, after the header when ``lo == 0``."""
        body = _lines(*_csv_cells(self, slice(lo, hi), self._csv_tails[self.label[lo:hi]]))
        return "shot,t,det,outcome\n" + body if lo == 0 else body


def _check_index(name: str, index: np.ndarray, n: int) -> None:
    if index.size and not 0 <= index.min() <= index.max() < n:
        raise ValidationError(f"{name} indices must lie in [0, {n})")


def _words(texts, size: int = 8) -> np.ndarray:
    """Byte strings as 0xFF-padded rows of little-endian words of ``size`` bytes."""
    texts = list(texts)
    return _byte_rows(texts, -(-max(map(len, texts), default=1) // size) * size).view(f"<u{size}")


def _csv_cells(log: EventLog, rows, tails: np.ndarray) -> tuple[np.ndarray, ...]:
    """Shots, a comma and ``%.12g`` times of ``rows`` of ``log``, then the byte rows ``tails``."""
    comma = np.broadcast_to(np.uint8(ord(",")), (len(tails), 1))
    return _int_words(log.shot[rows]).view(np.uint8), comma, _g12(log.time[rows]), tails


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
    == count(cdf < its upper edge), that is the pick."""
    edges = np.arange(DRAW_CELLS + 1) / DRAW_CELLS
    lo = np.searchsorted(cdf, edges[:-1], side="right")
    unsure = lo != np.searchsorted(cdf, edges[1:], side="left")

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

    # each detector logs its surviving shots at shot * PERIOD_NS + its delay; the joint
    # axes split among detectors in declaration order, and each labels its axes'
    # outcomes in C order
    shape = dist.probs.shape
    index = np.unravel_index(np.arange(size), shape)
    labels: list[tuple[str, tuple[str, ...]]] = []
    dets = []
    pos = 0
    for spec in specs:
        span = slice(pos, pos + len(spec.axis_names()))
        pos = span.stop
        label_of_key = (np.ravel_multi_index(index[span], shape[span]) + len(labels)).astype(np.int32)
        labels += [(spec.name, k) for k in product(*dist.labels[span])]
        dets.append((spec.name, delays.get(spec.name, spec.time_offset), label_of_key))
    dets.sort(key=lambda d: d[0])
    rows = np.count_nonzero(outcome < size) * len(dets)
    shot, time, label = np.empty(rows, np.int64), np.empty(rows), np.empty(rows, np.int32)

    # merge block by block.  A detector's times rise with its shots, so no row
    # still to come is earlier than the horizon, the least time of shot hi; rows
    # below it are final, and rows at it wait, as a later row of an earlier name
    # may tie with them.
    # Pending shots are in shot order, so a stable sort on time of the detectors'
    # rows in name order leaves them in (time, name, shot) order
    pending = [np.empty(0, np.intp)] * len(dets)
    done = 0
    for lo, hi in _spans(shots):
        new = lo + np.flatnonzero(outcome[lo:hi] < size)
        horizon = min(hi * PERIOD_NS + offset for _, offset, _ in dets)
        parts = []
        for k, (_, offset, label_of_key) in enumerate(dets):
            s = np.concatenate([pending[k], new])
            t = s * PERIOD_NS + offset
            cut = len(s) if hi == shots else np.searchsorted(t, horizon)
            # take, as indexing by a small int type, is 3x slower; the indices are in range
            parts.append((s[:cut], t[:cut], label_of_key.take(outcome[s[:cut]], mode="clip")))
            pending[k] = s[cut:]
        parts = [np.concatenate(p) for p in zip(*parts)]
        order = np.argsort(parts[1], kind="stable")
        end = done + len(order)
        for column, part in zip((shot, time, label), parts):
            # mode "clip" writes straight into out; the default buffers the result
            np.take(part, order, out=column[done:end], mode="clip")
        done = end
    return EventLog(shots, shot, time, label, labels)


class Coincidences:
    """Pairs found by ``coincidences``: pair ``i`` joins rows ``a[i]`` and
    ``b[i]`` of ``log``."""

    def __init__(self, log: EventLog, a: np.ndarray, b: np.ndarray):
        self.log, self.a, self.b = log, a, b
        if len(a) != len(b):
            raise ValidationError("pair columns a and b differ in length")
        for rows in (a, b):
            _check_index("pair row", rows, len(log))

    def __len__(self) -> int:
        return len(self.a)

    @cached_property
    def _outcomes(self) -> np.ndarray:
        """Each label's outcome cell as bytes: row ``2 * k`` is label ``k``'s
        as side ``a``, and row ``2 * k + 1`` as side ``b``."""
        return _words((f",{'|'.join(o)}{end}".encode() for _, o in self.log.labels for end in ",\n"), 1)

    def to_csv(self, lo: int = 0, hi: int | None = None) -> str:
        """CSV of pairs ``[lo, hi)``, after the header when ``lo == 0``."""
        log, a, b = self.log, self.a[lo:hi], self.b[lo:hi]
        body = _lines(*_csv_cells(log, a, self._outcomes[2 * log.label[a]]),
                      *_csv_cells(log, b, self._outcomes[2 * log.label[b] + 1]))
        return "shot_a,t_a,outcome_a,shot_b,t_b,outcome_b\n" + body if lo == 0 else body


def _shifted(log: EventLog, detector: str, offset: float, lo: int = 0, hi: int | None = None):
    """One detector's rows among rows ``[lo, hi)`` of ``log`` and their
    compensated times, sorted by that time unless they are in order already."""
    rows = lo + np.flatnonzero(log._mine(detector)[log.label[lo:hi]])
    t = log.time[rows] - offset
    if (t[1:] < t[:-1]).any():
        order = np.argsort(t, kind="stable")
        rows, t = rows[order], t[order]
    return rows, t


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

    Each event is used at most once, so the two detectors must differ.
    ``offsets`` (ns, subtracted per detector before comparison) compensate
    known delays, e.g. a delayed eraser arm.
    """
    if not window >= 0:
        raise ValidationError("window must be >= 0")
    if det_a == det_b:
        raise ValidationError(f"cannot pair detector {det_a!r} with itself")
    for det in (det_a, det_b):
        if not log._mine(det).any():
            raise ValidationError(f"no detector {det!r} in the log")
    offsets = offsets or {}
    if not all(np.isfinite(v) for v in offsets.values()):
        raise ValidationError("offsets must be finite")
    off_a = offsets.get(det_a, 0.0)
    rows_b, tb = _shifted(log, det_b, offsets.get(det_b, 0.0))
    n_a = np.count_nonzero(log._mine(det_a)[log.label])
    a, b = np.empty((2, min(n_a, len(rows_b))), rows_b.dtype)
    pairs, edge = 0, (-1, False)
    # in a log in time order, as generate_events writes it, each detector's rows are
    # in time order: A's are paired block by block, those of any other log whole
    in_order = (log.time[1:] >= log.time[:-1]).all()
    for lo, hi in _spans(len(log)) if in_order else [(0, len(log))]:
        rows, ta = _shifted(log, det_a, off_a, lo, hi)
        if not len(rows):
            continue
        # each A event's first candidate: the earliest B event not before t - window
        first = np.searchsorted(tb, ta - window, side="left")
        hit = first < len(tb)
        hit[hit] = np.abs(tb[first[hit]] - ta[hit]) <= window
        if (hit[:-1] & (first[1:] == first[:-1])).any() or edge == (first[0], True):
            # an A event took the candidate of the next one, which must then look
            # further on; only a window of half the event spacing or more does this
            rows, ta = _shifted(log, det_a, off_a)
            pa, pb = _greedy(ta.tolist(), tb.tolist(), window)
            return Coincidences(log, rows[pa], rows_b[pb])
        end = pairs + np.count_nonzero(hit)
        a[pairs:end], b[pairs:end] = rows[hit], rows_b[first[hit]]
        pairs, edge = end, (first[-1], hit[-1])
    return Coincidences(log, a[:pairs], b[:pairs])


def conditioned_histogram(
    pairs: Coincidences,
    partner_outcome: tuple[str, ...] | str | None = None,
) -> Pattern:
    """Screen pattern from the ``a`` side of pairs, optionally keeping only
    pairs whose ``b`` outcome matches.  Each counted ``a`` event must carry
    one screen-bin label."""
    if isinstance(partner_outcome, str):
        partner_outcome = (partner_outcome,)
    labels, label = pairs.log.labels, pairs.log.label
    wanted = np.array([partner_outcome in (None, outcome) for _, outcome in labels], dtype=bool)
    counts = np.zeros(len(labels), np.intp)
    for lo, hi in _spans(len(pairs)):
        a = label[pairs.a[lo:hi]]
        counts += np.bincount(a[wanted[label[pairs.b[lo:hi]]]], minlength=len(labels))
    used = np.flatnonzero(counts).tolist()
    if any(len(labels[k][1]) != 1 or labels[k][1][0] not in BIN_LABELS for k in used):
        raise ValidationError("screen events must carry a single bin label")
    if not used:
        raise ValidationError("no pairs satisfy the condition")
    return pattern_from_bin_probs({labels[k][1][0]: float(counts[k]) for k in used})
