"""Born-rule outcome distributions: marginals, conditionals, distances, the
package's seeded random generator, and the ``%.12g`` writer of its CSVs.

The generator is numpy's PCG64 with explicit seed threading; its identity is
part of the external contract so event logs are portable.  ``_g12`` writes
CPython's ``"%.12g" % x`` as four uint64 words a cell, 0xFF padding even inside
it, and ``_int_words`` ``"%d" % n`` as words.  Every CSV and JSONL block is one
row array that ``_rows`` lays out from literals, per-row arrays and label tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product

import numpy as np

from .qstate import ValidationError

#: probabilities below this are treated as exactly zero when conditioning
NULL_EPS = 1e-15


class ConditioningError(ValueError):
    """Conditioning on an outcome of (numerically) zero probability."""


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Probabilities over joint outcomes, held as a dense array.

    ``probs`` has one array axis per entry of ``axes`` (a dof name, or a
    detector name for binned screen outcomes); index ``j`` along axis ``i`` is
    the outcome labelled ``labels[i][j]``.  ``total_mass`` is the summed
    probability, which is below 1 when filters removed part of the ensemble.
    When every branch was absorbed there are no outcomes: each label tuple is
    empty, ``total_mass`` is 0 and ``prob`` is 0.0; else ``prob`` of labels
    that name no outcome raises ValidationError.
    """

    axes: tuple[str, ...]
    labels: tuple[tuple[str, ...], ...]
    probs: np.ndarray
    total_mass: float

    def __post_init__(self):
        axes, labels = tuple(self.axes), tuple(map(tuple, self.labels))
        p = np.array(self.probs, dtype=np.float64, order="C")
        check_probs(axes, labels, p[None], [self.total_mass])
        p.setflags(write=False)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probs", p)

    @cached_property
    def outcomes(self) -> dict[tuple[str, ...], float]:
        """Label tuple -> probability for every entry of ``probs``, in C order."""
        return dict(zip(product(*self.labels), self.probs.ravel().tolist()))

    def prob(self, labels) -> float:
        labels = (labels,) if isinstance(labels, str) else tuple(labels)
        if labels not in self.outcomes and (self.probs.size or len(labels) != len(self.axes)):
            raise ValidationError(f"no outcome {labels} over axes {self.axes}")
        return self.outcomes.get(labels, 0.0)

    def axis(self, name: str) -> int:
        try:
            return self.axes.index(name)
        except ValueError:
            raise ValidationError(f"no axis named {name!r}") from None

    def renormalized(self) -> "OutcomeDistribution":
        if self.total_mass < NULL_EPS:
            raise ConditioningError("cannot renormalize an empty distribution")
        f = 1.0 / self.total_mass
        return OutcomeDistribution(self.axes, self.labels, self.probs * f, 1.0)

    def to_json_dict(self) -> dict:
        return {
            "axes": list(self.axes),
            "outcomes": [
                {"labels": list(k), "p": p} for k, p in self.outcomes.items()
            ],
            "totalMass": self.total_mass,
        }

    def to_csv(self, lo: int = 0, hi: int | None = None) -> str:
        """CSV rows ``[lo, hi)`` of the outcomes in C order, each its labels and
        probability, after a header of the axes and ``p`` when ``lo == 0``."""
        head = ",".join(self.axes) + ",p\n" if lo == 0 else ""
        p = self.probs.ravel()[lo:hi]
        if not p.size:
            return head
        pre, suf = self._csv_labels
        row = np.arange(lo, lo + p.size)
        return head + _csv_rows(p[:, None], (pre, row // len(suf)), (suf, row % len(suf)))

    @cached_property
    def _csv_labels(self) -> tuple[np.ndarray, np.ndarray]:
        """The "label," cells of every row as byte rows: the first half of the
        axes gives each row's prefix, the rest its suffix, both in C order."""
        cells = [[(label + ",").encode() for label in ls] for ls in self.labels]
        k = len(cells) // 2
        return tuple(_byte_rows(map(b"".join, product(*c))) for c in (cells[:k], cells[k:]))


def check_probs(axes, labels, p: np.ndarray, masses) -> None:
    """Check each array of the C-ordered stack ``p`` (axis 0 counts them) as
    OutcomeDistribution checks its probabilities, declared to sum to
    ``masses[i]``: raise ValidationError for the first that fails, after
    setting each negative no lower than -1e-12 to 0 in place."""
    shape = tuple(map(len, labels))
    if len(labels) != len(axes) or p.shape[1:] != shape:
        raise ValidationError(
            f"probabilities of shape {p.shape[1:]} do not match axes {axes} with {shape} labels"
        )
    flat = p.reshape(len(p), math.prod(shape))
    lows = flat.min(axis=1, initial=0.0).tolist()
    if min(lows, default=0.0) < 0.0:
        tiny = [i for i, low in enumerate(lows) if -1e-12 <= low < 0.0]
        flat[tiny] = np.maximum(flat[tiny], 0.0)
    for i, (low, s, mass) in enumerate(zip(lows, flat.sum(axis=1).tolist(), masses)):
        if low < -1e-12:
            idx = np.unravel_index(flat[i].argmin(), shape)
            key = tuple(names[j] for names, j in zip(labels, idx))
            raise ValidationError(f"negative probability {low} for {key}")
        if not abs(s - mass) <= 1e-9:
            raise ValidationError(f"probabilities sum to {s}, declared total_mass {mass}")
        if mass > 1 + 1e-9:
            raise ValidationError(f"total_mass {mass} > 1")


def marginal(d: OutcomeDistribution, axis_subset) -> OutcomeDistribution:
    """Sum out every axis not in ``axis_subset`` (order follows the subset)."""
    axis_subset = [axis_subset] if isinstance(axis_subset, str) else list(axis_subset)
    if twice := [a for a in axis_subset if axis_subset.count(a) > 1]:
        raise ValidationError(f"axis {twice[0]!r} is named twice in {axis_subset}")
    keep = [d.axis(a) for a in axis_subset]
    drop = [i for i in range(len(d.axes)) if i not in keep]
    shape = [d.probs.shape[i] for i in keep]
    n = math.prod(d.probs.shape[i] for i in drop)
    p = d.probs.transpose(drop + keep).reshape([n] + shape)
    # a running sum adds the summed-out outcomes one by one in C order, so
    # the last bits do not depend on numpy's choice of summation
    p = np.cumsum(p, axis=0)[-1] if n else np.zeros(shape)
    return OutcomeDistribution(
        tuple(axis_subset), tuple(d.labels[i] for i in keep), p, d.total_mass
    )


def conditional(d: OutcomeDistribution, given: tuple[str, str]) -> OutcomeDistribution:
    """Condition on one axis carrying one label; renormalize to mass 1.
    Outcomes below ``NULL_EPS`` become exactly 0; a label the axis lacks raises."""
    axis_name, label = given
    i = d.axis(axis_name)
    labels = d.labels[i]
    if labels and label not in labels:
        raise ValidationError(f"axis {axis_name!r} has no label {label!r}; its labels: {', '.join(labels)}")
    sub = np.take(d.probs, labels.index(label), axis=i) if labels else np.zeros(0)
    # left to right in C order, as a loop over the outcomes adds them
    mass = float(np.cumsum(sub)[-1]) if sub.size else 0.0
    if mass < NULL_EPS:
        raise ConditioningError(f"P({axis_name}={label}) = 0")
    return OutcomeDistribution(
        d.axes[:i] + d.axes[i + 1 :],
        d.labels[:i] + d.labels[i + 1 :],
        np.where(sub < NULL_EPS, 0.0, sub / mass),
        1.0,
    )


def total_variation(a: OutcomeDistribution, b: OutcomeDistribution) -> float:
    """(1/2) sum |p_a - p_b| after renormalizing both to mass 1."""
    if a.axes != b.axes or a.labels != b.labels:
        raise ValidationError(f"axis or label mismatch: {a.axes} vs {b.axes}")
    a, b = a.renormalized(), b.renormalized()
    return 0.5 * float(np.abs(a.probs - b.probs).sum())


def worst(gaps) -> float:
    """The largest of ``gaps`` (each >= 0), 0.0 for none, and NaN if any is
    NaN: Python's ``max`` keeps an earlier value over a later NaN, so a NaN
    would pass a check."""
    return float(np.max([0.0, *gaps]))


def rng_for(seed: int) -> np.random.Generator:
    """The package-wide generator: PCG64 seeded via SeedSequence((seed, 0))."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0))))


# -- %.12g and %d as byte rows ----------------------------------------------------

#: the padding byte of byte rows; it never occurs in UTF-8, so one
#: ``bytes.translate`` drops it before ``decode``
_PAD = b"\xff"
#: bytes of one number cell, four uint64 words: more than the 19 of
#: ``-2.22507385851e-308``, the longest ``%.12g`` text of a float64
_CELL = 32
#: cells that ``_g12`` formats at a time, so that its 8-byte-a-cell temporaries stay under glibc's 128 KiB mmap threshold
_CHUNK = 2**13
#: 10**k for k = 0..22, every power of ten that a float64 holds exactly
_POW10 = np.array([float(10**k) for k in range(23)])


@cache
def _tables() -> tuple[np.ndarray, ...]:
    """The tables of ``_g12`` and ``_int_words``, made on first call, not on import:

    - the trailing zero digits of 0..9999 written with four digits: a zero
      units digit counts 1, and so on while the next digit up is zero too;
    - by decimal exponent x in -11..12: the head words (the sign, then
      ``0.000`` up to the digits when x is -4..-1) of a positive and of a
      negative number, the tail word (``e±dd`` in the exponent form), and the
      digit that a point follows: 1 in the exponent form, else x + 1, or 0
      (none) when x < 0;
    - by ``13 * kept + point``, for each digit word: 0xFF in its bytes before
      the point (in all, with none), and the point and 0xFF after the kept digits;
    - the four digits of 0..9999 in the low and in the high half of a uint64
      word; 10**1..10**19; and for k = 0..9 the word whose first k bytes (at
      most 8) are 0xFF, and the word that XORs byte k - 1 to ``-``."""
    digit = np.arange(10, dtype=np.uint8)
    digits4 = (np.stack(np.broadcast_arrays(*np.ix_(*[digit] * 4)), -1) + ord("0")).view("<u4")
    zero = (digit == 0).astype(np.uint8)
    zeros4 = zero * (1 + zero[:, None] * (1 + zero[:, None, None] * (1 + zero[:, None, None, None])))
    exps = range(-11, 13)
    heads = _byte_rows([s + b"0.000"[: 1 - x] * (-4 <= x < 0) for x in exps for s in (b"", b"-")], 8)
    tails = _byte_rows([b"e%+03d" % x * (not -4 <= x <= 11) for x in exps], 8)
    points = np.array([max(x + 1, 0) if -4 <= x <= 11 else 1 for x in exps], np.uint8)
    kept, point = (a[:, None] for a in np.divmod(np.arange(13 * 13), 13))
    j, at = np.arange(16), np.where(point == 0, 16, point)
    ends = np.where(j == at, ord("."), np.where(j >= kept + (point > 0), 0xFF, 0))
    lows, ends = (t.astype(np.uint8).view("<u8").T.copy() for t in ((j < at) * 0xFF, ends))
    k, j = np.ix_(np.arange(10), np.arange(8))
    pads, minus = (np.where(m, v, 0).astype(np.uint8).view("<u8").ravel()
                   for m, v in ((j < k, 0xFF), (j == k - 1, 0xFF ^ ord("-"))))
    words4 = digits4.ravel().astype("<u8") << np.array([[0], [32]], np.uint64)
    pow10 = 10 ** np.arange(1, 20, dtype=np.uint64)
    return zeros4, heads.view("<u8"), tails.view("<u8"), points, lows, ends, words4, pow10, pads, minus


def _g12(v: np.ndarray) -> np.ndarray:
    """``"%.12g" % value`` for each float64 of the 1-D ``v``: a ``(len(v), 4)``
    array of little-endian uint64 words of ASCII, padded with 0xFF.

    Each absolute value times an exact power of ten is rounded to an integer
    of 12 digits.  Its cell is a head word, two words of its digits, with the
    point shifted in (one byte carried from the first to the second) and 0xFF
    after the last kept digit, and a tail word, each from a table, so padding
    may lie inside the cell.  Zeros, values whose scaled product ends in
    exactly .5, values that no power up to 1e22 scales into [1e11, 1e12) and
    non-finite values are written by ``%`` instead."""
    zeros4, heads, tails, points, lows, ends, words4 = _tables()[:7]
    out = np.empty((len(v), 4), "<u8")
    for at in range(0, len(v), _CHUNK):
        part, cells = v[at : at + _CHUNK], out[at : at + _CHUNK]
        a = np.abs(part)
        with np.errstate(divide="ignore", invalid="ignore"):
            k = (11 - np.floor(np.log10(a))).astype(np.intp)  # 11 - x; 0, inf, nan fail `fast` below
            scaled = a * _POW10.take(k, mode="clip")
            whole = np.floor(scaled)
            frac = scaled - whole
            n = whole.astype(np.int64)
        # the product is rounded once, and rounding is monotone: it keeps the
        # exact product's side of every integer and half-integer below 2**52,
        # and lands on a half-integer only for a tie or a near-tie, left to %
        fast = (k >= 0) & (k <= 22) & (whole >= 1e11) & (whole < 1e12) & (frac != 0.5)
        n += frac > 0.5
        carry = n == 10**12  # rounded up to 1e12: one more digit before the point
        n[carry] = 10**11
        row = 22 - k + carry  # x + 11; the rows of values left to % are clipped
        hi = n // 10**8
        lo = n - hi * 10**8
        mid = lo // 10**4
        lo -= mid * 10**4
        z = [zeros4.take(g, mode="clip") for g in (hi, mid, lo)]
        zeros = z[2] + (z[2] == 4) * (z[1] + (z[1] == 4) * z[0])
        point = points.take(row, mode="clip")
        kept = np.maximum(12 - zeros, point)  # the fixed form keeps every digit before its point
        key = kept * 13 + point * (kept > point)
        cells[:, 0] = heads.take(2 * row + (part < 0), mode="clip")
        first = words4[0].take(hi, mode="clip") | words4[1].take(mid, mode="clip")
        below = first & lows[0].take(key)
        above = first ^ below
        cells[:, 1] = below | (above << 8) | ends[0].take(key)
        second = words4[0].take(lo, mode="clip")
        below = second & lows[1].take(key)
        cells[:, 2] = below | ((second ^ below) << 8) | (above >> 56) | ends[1].take(key)
        cells[:, 3] = tails.take(row, mode="clip")
        slow = np.flatnonzero(~fast)
        if slow.size:
            cells[slow] = _byte_rows((b"%.12g" % value for value in part[slow].tolist()), _CELL).view("<u8")
    return out


def _int_words(v: np.ndarray, width: int = 0) -> np.ndarray:
    """``"%d" % value`` for each int64 of the 1-D ``v``, right-aligned after
    0xFF bytes in ``w`` little-endian uint64 words per row: the fewest that
    hold every value and at least ``width`` bytes.  The magnitude, a uint64 so
    that -2**63 has one, is cut into groups of eight and then four digits; the
    bytes before the first digit are 0xFF, the last of them ``-`` if negative."""
    words4, pow10, pads, minus = _tables()[6:]
    neg = v < 0
    m = np.abs(v).view(np.uint64)  # np.abs(-2**63) wraps to -2**63, which is 2**63 as uint64
    digits = np.searchsorted(pow10, m, side="right") + 1
    w = -(-max(width, int(np.max(digits + neg, initial=1))) // 8)
    out = np.empty((len(v), w), "<u8")
    for k in range(w - 1, -1, -1):
        eight = m - (m := m // 10**8) * 10**8  # // by a constant is much faster than divmod
        hi = eight // 10**4
        lead = 8 * (w - k) - digits  # bytes before the digits, from the start of word k
        out[:, k] = words4[0].take(hi) | words4[1].take(eight - hi * 10**4) | pads.take(lead, mode="clip")
        if neg.any():
            out[:, k] ^= minus.take(lead, mode="clip") * neg
    return out


def _byte_rows(texts, width: int | None = None) -> np.ndarray:
    """The byte strings ``texts`` as the rows of a uint8 array, each padded
    with 0xFF to ``width``, else to the longest."""
    texts = list(texts)
    width = max(map(len, texts), default=0) if width is None else width
    rows = b"".join(t.ljust(width, _PAD) for t in texts)
    return np.frombuffer(rows, np.uint8).reshape(len(texts), width)


def _lines(rows: np.ndarray) -> str:
    """The text of an array of rows of words, or of bytes, without the padding."""
    return rows.tobytes().translate(None, _PAD).decode()


def _rows(n: int, *parts) -> np.ndarray:
    """``n`` rows of bytes: the rows of ``parts`` side by side, each copied as one
    void item.  A part is an array of ``n`` rows of bytes or words, a literal
    that every row repeats (bytes, or an array of one row), or a pair of a
    table of such rows and each row's index in it."""
    parts = [_byte_rows([part]) if isinstance(part, bytes) else part for part in parts]
    pairs = [part if isinstance(part, tuple) else (part, None) for part in parts]
    ends = np.cumsum([0] + [t.shape[1] * t.itemsize for t, _ in pairs]).tolist()
    rows = np.empty((n, ends[-1]), np.uint8)
    for (table, index), lo, hi in zip(pairs, ends, ends[1:]):
        out, table = (a.view(f"V{hi - lo}") for a in (rows[:, lo:hi], table))
        if index is None:
            out[...] = table
        else:
            np.take(table, index, axis=0, out=out, mode="clip")
    return rows


def _csv_rows(cells: np.ndarray, *lead) -> str:
    """One line per row of the 2-D float array ``cells``: the ``_rows`` parts
    ``lead``, then the row's cells as ``%.12g``, separated by commas.  A cell's
    last byte is always padding, so each cell's comma, or the row's line end,
    is written there, and all the cells are one part."""
    n, m = cells.shape
    words = _g12(cells.ravel()).reshape(n, m, 4)
    last = words.view(np.uint8)[:, :, -1]
    last[:, :-1], last[:, -1] = ord(","), ord("\n")
    return _lines(_rows(n, *lead, words.reshape(n, 4 * m)))
