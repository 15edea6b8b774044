"""The numpy and BLAS behaviour that the row-wise forms rest on.

``qstate.row_norms``, ``elements._post_select`` and the ``sg_loop`` checks
take every row's norm or overlap in one ``np.vecdot``, and give each row the
bytes of one ``np.linalg.norm`` or ``np.vdot`` of it because numpy's dot
loop calls the same BLAS ``ddot`` or ``zdotc`` per row (on the strided real
and imaginary views for a norm; a contiguous copy of them takes another
kernel).  ``scenarios._abs_squared`` rests on ``np.hypot`` and
``np.float_power`` calling C's ``hypot`` and ``pow`` as one numpy scalar's
``abs(z) ** 2`` does.  If a numpy or BLAS build breaks this, these fail:
each form must then go back to one call per row.
"""

import numpy as np
import pytest

from qesim import scenarios
from qesim.qstate import row_norms

#: row lengths: the catalog's checks and filters, a longer one, and the
#: 16-dof chain of the benchmark, each with a number of rows
DIMS = {2: 500, 3: 500, 4: 500, 6: 500, 8: 500, 9: 500, 64: 500, 2**16: 3}
FALL_BACK = "on this numpy/BLAS build; go back to one {} per row in {}"


@pytest.mark.parametrize("d", DIMS)
def test_batched_forms_give_each_row_its_own_bytes(d):
    n = DIMS[d]
    rng = np.random.default_rng(20261020 + d)
    x, y = (rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d)) for _ in range(2))

    norms = np.array([np.linalg.norm(r) for r in x])
    for shape in ((n, d), (n, 1, d)):  # a stack of vectors, and of tensors
        assert row_norms(x.reshape(shape)).tobytes() == norms.tobytes(), \
            FALL_BACK.format("np.linalg.norm", "qstate.row_norms")

    assert np.vecdot(x, y).tobytes() == np.array([np.vdot(a, b) for a, b in zip(x, y)]).tobytes(), \
        FALL_BACK.format("np.vdot", "scenarios._sg_fidelity_dev")
    assert np.vecdot(x, x).real.tobytes() == np.array([np.vdot(r, r).real for r in x]).tobytes(), \
        FALL_BACK.format("np.vdot", "elements._post_select")

    z = np.vecdot(x, y)
    assert scenarios._abs_squared(z).tobytes() == np.array([abs(v) ** 2 for v in z]).tobytes(), \
        FALL_BACK.format("abs(z) ** 2 of a numpy scalar", "scenarios._abs_squared")
