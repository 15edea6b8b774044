"""Timestamped detection events and coincidence counting.

Each shot samples one joint outcome from the active detectors' Born
distribution; every detector then logs an event at

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
``EventLog.events``.
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
        mine = [k for k, (det, _) in enumerate(self.labels) if det == detector]
        return np.flatnonzero(np.isin(self.label, mine))

    def _columns(self, rows=slice(None)):
        return zip(self.shot[rows].tolist(), self.time[rows].tolist(), self.label[rows].tolist())

    def to_jsonl(self) -> str:
        tail = [
            f',"det":{json.dumps(det)},"outcome":'
            f'{json.dumps(list(outcome), separators=(",", ":"))}}}\n'
            for det, outcome in self.labels
        ]
        # repr(float) is how json.dumps writes a finite float
        return "".join([f'{{"shot":{s},"t":{t!r}{tail[k]}' for s, t, k in self._columns()])

    def to_csv(self) -> str:
        tail = [f",{det},{'|'.join(outcome)}\n" for det, outcome in self.labels]
        return "shot,t,det,outcome\n" + "".join(
            [f"{s},{t:.12g}{tail[k]}" for s, t, k in self._columns()]
        )


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
    picks = np.searchsorted(cdf, rng_for(seed).random(shots), side="right")
    survivors = np.flatnonzero(picks < len(keys))
    picks = picks[survivors]

    # one block of rows per detector, in declaration order; the joint axes
    # are split among detectors in that order too
    index: dict[tuple[str, tuple[str, ...]], int] = {}
    shot_parts, time_parts, label_parts = [], [], []
    pos = 0
    for spec in specs:
        span = slice(pos, pos + len(spec.axis_names()))
        pos = span.stop
        offset = delays.get(spec.name, spec.time_offset)
        label_of_key = np.array(
            [index.setdefault((spec.name, k[span]), len(index)) for k in keys],
            dtype=np.int32,
        )
        shot_parts.append(survivors)
        time_parts.append(survivors * period + offset)
        label_parts.append(label_of_key[picks])
    del survivors, picks
    shot = np.concatenate(shot_parts)
    time = np.concatenate(time_parts)
    label = np.concatenate(label_parts)
    del shot_parts, time_parts, label_parts

    # lexsort is stable, so rows equal in (time, name, shot) -- two detectors
    # sharing a name -- stay in declaration order
    names = sorted({det for det, _ in index})
    name_rank = np.array([names.index(det) for det, _ in index], dtype=np.int32)
    order = np.lexsort((shot, name_rank[label], time))
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

    def to_csv(self) -> str:
        log = self.log
        outcome = ["|".join(o) for _, o in log.labels]
        rows = [
            f"{sa},{ta:.12g},{outcome[ka]},{sb},{tb:.12g},{outcome[kb]}\n"
            for (sa, ta, ka), (sb, tb, kb) in zip(log._columns(self.a), log._columns(self.b))
        ]
        return "shot_a,t_a,outcome_a,shot_b,t_b,outcome_b\n" + "".join(rows)


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
        wanted = [k for k, (_, outcome) in enumerate(labels) if outcome == partner_outcome]
        a = a[np.isin(pairs.log.label[pairs.b], wanted)]
    counts = np.bincount(a, minlength=len(labels))
    used = np.flatnonzero(counts).tolist()
    if any(len(labels[k][1]) != 1 for k in used):
        raise ValidationError("screen events must carry a single bin label")
    if not used:
        raise ValidationError("no pairs satisfy the condition")
    return pattern_from_bin_probs({labels[k][1][0]: float(counts[k]) for k in used}, geometry)
