"""Born-rule outcome distributions: marginals, conditionals, distances, the
package's seeded random generator, and the ``%.12g`` writer of its CSVs.

The generator is numpy's PCG64 with explicit seed threading; its identity is
part of the external contract so event logs are portable.  ``_csv_rows``
writes the number cells of the ``run``, ``sweep`` and screen CSVs with the
bytes of CPython's ``"%.12g" % x``, from numpy byte rows.
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
    empty and ``total_mass`` is 0.
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
        return head + _csv_rows(p[:, None], pre[row // len(suf)], suf[row % len(suf)])

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
    Outcomes below ``NULL_EPS`` become exactly 0."""
    axis_name, label = given
    i = d.axis(axis_name)
    labels = d.labels[i]
    sub = np.take(d.probs, labels.index(label), axis=i) if label in labels else np.zeros(0)
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


def rng_for(seed: int, stream: int = 0) -> np.random.Generator:
    """The package-wide generator: PCG64 seeded via SeedSequence(seed, stream)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, stream))))


# -- %.12g as byte rows -----------------------------------------------------------

#: the padding byte of byte rows; it never occurs in UTF-8, so one
#: ``bytes.translate`` drops it before ``decode``
_PAD = b"\xff"
#: bytes of one number cell: more than the 19 of ``-2.22507385851e-308``, the
#: longest ``%.12g`` text of a float64
_CELL = 22
#: cells formatted by one ``_g12`` call, which bounds its temporary arrays
_CHUNK = 2**14
#: 10**k for k = 0..22, every power of ten that a float64 holds exactly
_POW10 = np.array([float(10**k) for k in range(23)])
#: bytes 12..17 of the 20-byte source row of a number, between its 12
#: digits and the two digits of its exponent
_LITERALS = np.frombuffer(_PAD + b".0-e+", np.uint8)


@cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tables of ``_g12``, made on its first call rather than on import:

    - the four ASCII digits of 0..9999, read as one uint32 each;
    - the trailing zero digits of 0..9999 written with four digits: a zero
      units digit counts 1, and so on while the next digit up is zero too;
    - for each layout key, the source column of each byte of the cell.

    The key is ``(form * 12 + digits - 1) * 2 + negative``.  ``form`` is
    ``x + 4`` for the fixed-point layout of a decimal exponent ``x`` in
    -4..11, 16 for the exponent layout of a negative and 17 of a positive
    one, and ``digits`` counts the digits left when trailing zeros are
    dropped.  Byte 0 of the cell is the sign, bytes 1..17 the digits and
    point, bytes 18..21 the exponent.  Source columns 0..11 are the digits,
    12..17 the padding, point, 0, minus, e and plus of ``_LITERALS``."""
    digit = np.arange(10, dtype=np.uint8)
    digits4 = (np.stack(np.broadcast_arrays(*np.ix_(*[digit] * 4)), -1) + ord("0")).view(np.uint32)
    zero = (digit == 0).astype(np.uint8)
    zeros4 = zero * (1 + zero[:, None] * (1 + zero[:, None, None] * (1 + zero[:, None, None, None])))
    form, digits, neg = (a[..., None] for a in np.ix_(np.arange(18), np.arange(1, 13), [0, 1]))
    c = np.arange(_CELL)
    x, fixed = form - 4, form < 16
    point = np.where(fixed & (x >= 0), x + 1, 1)  # body byte of the decimal point
    zeros = np.where(fixed & (x < 0), -x, 0)  # zeros before the digits: 2 in 0.0ddd
    end = zeros + digits  # body digits that are kept, with those zeros
    b = c - 1
    t = np.where(b < point, b, b - 1)  # index of body byte b among the digits
    col = np.where(t < zeros, 14, t - zeros)
    col = np.where((b < point) | ((b > point) & (t < end) & (end > point)), col, 12)
    col = np.where((b == point) & (end > point), 13, col)
    col = np.where(c == 0, np.where(neg, 15, 12), col)
    exponent = np.where((c == 19) & (form == 16), 15, c - 2)
    col = np.where(c >= 18, np.where(fixed, 12, exponent), col)
    return digits4.ravel(), zeros4.ravel(), col.reshape(-1, _CELL)


def _g12(v: np.ndarray) -> np.ndarray:
    """``"%.12g" % value`` for each float64 of the 1-D ``v``: a
    ``(len(v), _CELL)`` uint8 array of ASCII rows padded with 0xFF.

    Each absolute value times an exact power of ten is rounded to an integer
    of 12 digits, of decimal exponent ``x``; a table gives the digits and a
    layout places them.  Zeros,
    values whose scaled product ends in exactly .5, values that no power up
    to 1e22 scales into [1e11, 1e12) and non-finite values are written by
    ``%`` instead."""
    digits4, zeros4, layouts = _tables()
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
        fast = (e >= -11) & (e <= 11)
        scaled = a * _POW10[np.where(fast, 11 - e, 0).astype(np.intp)]
        whole = np.floor(scaled)
        frac = scaled - whole
    # the product is rounded once, and rounding is monotone: it keeps the
    # exact product's side of every integer and half-integer below 2**52,
    # and lands on a half-integer only for a tie or a near-tie, left to %
    fast &= (whole >= 1e11) & (whole < 1e12) & (frac != 0.5)
    n = np.where(fast, whole, 1e11).astype(np.int64) + (frac > 0.5)
    carry = n == 10**12  # rounded up to 1e12: one more digit before the point
    n[carry] = 10**11
    x = np.where(fast, e, 0).astype(np.int64) + carry
    hi = n // 10**8
    lo = n - hi * 10**8
    mid = lo // 10**4
    lo -= mid * 10**4
    zeros = np.where(lo != 0, zeros4[lo], np.where(mid != 0, 4 + zeros4[mid], 8 + zeros4[hi]))
    form = np.where(x < -4, 16, np.where(x > 11, 17, x + 4))
    src = np.empty((len(v), 20), np.uint8)
    src[:, :12] = digits4[np.stack([hi, mid, lo], axis=1)].view(np.uint8)
    src[:, 12:18] = _LITERALS
    src[:, 18] = np.abs(x) // 10 + ord("0")
    src[:, 19] = np.abs(x) % 10 + ord("0")
    col = layouts[(form * 12 + 11 - zeros) * 2 + (v < 0)]
    col += np.arange(0, src.size, 20)[:, None]
    out = src.ravel()[col]
    slow = np.flatnonzero(~fast)
    if slow.size:
        out[slow] = _byte_rows((b"%.12g" % value for value in v[slow].tolist()), _CELL)
    return out


def _byte_rows(texts, width: int | None = None) -> np.ndarray:
    """The byte strings ``texts`` as the rows of a uint8 array, each padded
    with 0xFF to ``width``, else to the longest."""
    texts = list(texts)
    width = max(map(len, texts)) if width is None else width
    rows = b"".join(t.ljust(width, _PAD) for t in texts)
    return np.frombuffer(rows, np.uint8).reshape(len(texts), width)


def _csv_rows(cells: np.ndarray, *lead: np.ndarray) -> str:
    """One line per row of the 2-D float array ``cells``: the row of each
    byte-row array of ``lead``, then the row's cells as ``%.12g``, separated
    by commas."""
    n, m = cells.shape
    start = sum(a.shape[1] for a in lead)
    out = np.empty((n, start + m * (_CELL + 1)), np.uint8)
    i = 0
    for a in lead:
        out[:, i : i + a.shape[1]] = a
        i += a.shape[1]
    body = out[:, start:].reshape(n, m, _CELL + 1)
    step = max(_CHUNK // m, 1)
    for lo in range(0, n, step):
        body[lo : lo + step, :, :-1] = _g12(cells[lo : lo + step].ravel()).reshape(-1, m, _CELL)
    body[:, :, -1] = ord(",")
    body[:, -1, -1] = ord("\n")
    return out.tobytes().translate(None, _PAD).decode()
