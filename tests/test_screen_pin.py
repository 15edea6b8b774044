"""The bytes of the screen's geometry and of the screen patterns of the
two-slit, Wheeler and one-photon eraser circuits.

Each pin is the SHA-256 of an array's dtype, shape and C-ordered bytes: the
bin centers, the bin-phase matrix the Born step contracts a path axis with,
and ``pattern_from_state(evolve(...), "slit").intensities``.  They were
recorded while the geometry was still a settable ``SlitGeometry`` (then read
as ``DEFAULT_GEOMETRY.bin_centers()`` and ``_screen_matrix(DEFAULT_GEOMETRY)``);
a change to the bin grid, the phases or the elementwise screen sum shows up
here in the last bit.
"""

import hashlib

import numpy as np
import pytest

from qesim import scenarios
from qesim.circuit import evolve
from qesim.screen import BIN_CENTERS, SCREEN_MATRIX, pattern_from_state


def digest(a: np.ndarray) -> str:
    h = hashlib.sha256()
    for part in (a.dtype.str, repr(a.shape), np.ascontiguousarray(a).tobytes()):
        h.update(part if isinstance(part, bytes) else part.encode())
        h.update(b"\0")
    return h.hexdigest()


def test_bin_centers_bytes():
    assert digest(BIN_CENTERS) == (
        "df1e0c4f8b2b99007541bef916d060f3f50085fe61bf78041fa0b2508bee6ef5"
    )


def test_screen_matrix_bytes():
    assert digest(SCREEN_MATRIX) == (
        "071b44a75f557689fd5dd1af209cfa2a43fbd995c2842953c1b812170c8fbede"
    )


PATTERNS = {
    ("two_slit", ()): "083cd17533cf914018e6bd2fec13ec6711bd0351dc1a50161c8cb4733250d565",
    ("wheeler", (("screen", "in"),)): "083cd17533cf914018e6bd2fec13ec6711bd0351dc1a50161c8cb4733250d565",
    ("one_photon_eraser", (("eraser", "absent"),)): "adec3a515384f6c8c605b22b00ba26df49dc1df630304547fa9b27d21bdf13c4",
    ("one_photon_eraser", (("eraser", "plus45"),)): "e52b5ddfe78ac721d1c2d2a2c4d70196de6ade5924a9b7f2add60937a13ffc99",
    ("one_photon_eraser", (("eraser", "minus45"),)): "bf247a7011a2b4dea0216160af6c1bf97c5e0a70bc21ba12a63642fb9fc9fbb5",
}


@pytest.mark.parametrize(
    "name, settings", sorted(PATTERNS),
    ids=lambda v: v if isinstance(v, str) else "-".join(f"{k}={a}" for k, a in v) or "default",
)
def test_pattern_bytes(name, settings):
    circuit = scenarios.build(name).circuit
    pattern = pattern_from_state(evolve(circuit, dict(settings)), "slit")
    assert digest(pattern.intensities) == PATTERNS[name, settings]
