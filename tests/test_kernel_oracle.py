"""Element and basis-change actions against the per-call originals.

``reference_transform`` and ``reference_rebase`` are the earlier
``elements._transform`` (transpose, reshape, ``@``, with a conditioned
element transforming one column block) and the single-state
``qstate.rebase`` (``moveaxis`` plus ``tensordot``).  ``reference_apply_op``
and ``reference_evolve`` are the earlier single-state ``elements.apply_op``,
which raised ``AllBlockedError`` when a filter absorbed everything, and
``circuit.evolve``, one such step per element, which returned a state
(``None`` here where it returned ``AllBlocked``).  They stay here as the
definition of what the shared contraction and the stacked steps compute, bit
for bit: ``elements._act`` on a stack of one state, ``elements.apply_op``
and ``qstate.rebase`` on every row of a stack, ``circuit.evolve`` and
``evolve_rows``.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qesim import elements as el
from qesim.circuit import _walk, validate_settings
from qesim.qstate import Dof, StateStack, StateVector, ValidationError, _axis, rebase


class AllBlockedError(RuntimeError):
    """Every branch of the state was removed by a filter."""


def axis(state, name):
    """The position of the dof named ``name`` in ``state.dofs``."""
    return _axis(state.dofs, name)


def dof(state, name):
    return state.dofs[axis(state, name)]


def reference_transform(state, op):
    dims = state.dims
    axes = [axis(state, n) for n in op.target_dofs]
    k = int(np.prod([dims[a] for a in axes]))
    if op.matrix.shape[0] != k:
        raise ValidationError(
            f"element expects dimension {op.matrix.shape[0]}, targets give {k}"
        )
    t = state.tensor_view().copy()
    rest_axes = [i for i in range(len(dims)) if i not in axes]
    perm = axes + rest_axes
    t = np.transpose(t, perm).reshape(k, -1)

    if op.condition is None:
        t = op.matrix @ t
    else:
        cond_dof, cond_label = op.condition
        cax = axis(state, cond_dof)
        ci = state.dofs[cax].index(cond_label)
        rest_dims = [dims[i] for i in rest_axes]
        pos = rest_axes.index(cax)
        t = t.reshape([k] + rest_dims)
        sl = [slice(None)] * t.ndim
        sl[1 + pos] = ci
        sub = t[tuple(sl)].reshape(k, -1)
        t[tuple(sl)] = (op.matrix @ sub).reshape(t[tuple(sl)].shape)
        t = t.reshape(k, -1)

    inv = np.argsort(perm)
    return np.transpose(
        t.reshape([dims[a] for a in axes] + [dims[i] for i in rest_axes]), inv
    ).reshape(-1)


def reference_apply_op(state, op):
    out = reference_transform(state, op)
    if op.kind == el.UNITARY:
        return StateVector(state.dofs, out, state.weight)
    pass_prob = float(np.vdot(out, out).real)
    if pass_prob < el.ALL_BLOCKED_EPS:
        raise AllBlockedError("blocked")
    return StateVector(state.dofs, out / math.sqrt(pass_prob), state.weight * pass_prob)


def reference_evolve(c, settings=None):
    """``reference_apply_op`` on one state per active element; None once
    a filter absorbs everything."""
    settings = settings or {}
    validate_settings(c, settings)
    state = c.source
    for s in _walk(c.stages, settings):
        if isinstance(s, el.ElementOp):
            try:
                state = reference_apply_op(state, s)
            except AllBlockedError:
                return None
    return state


def reference_rebase(s, name, matrix, labels):
    ax = axis(s, name)
    old = s.dofs[ax]
    t = np.moveaxis(s.tensor_view(), ax, 0)
    new = np.moveaxis(np.tensordot(np.asarray(matrix, dtype=complex), t, axes=([1], [0])), 0, ax)
    dofs = list(s.dofs)
    dofs[ax] = Dof(old.name, labels)
    return StateVector(tuple(dofs), new.reshape(-1), s.weight)


def random_amps(rng, n, zero_fraction):
    """``n`` random unit amplitudes, about ``zero_fraction`` of them exactly
    zero."""
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v[rng.random(n) < zero_fraction] = 0.0
    if not v.any():
        v[0] = 1.0
    return v / np.linalg.norm(v)


WEIGHTS = st.one_of(st.just(1.0), st.floats(1e-6, 1.0, exclude_max=True))


@st.composite
def states(draw, min_dofs=1):
    """A random state of ``min_dofs``-5 dofs of dimension 2 or 3, some
    amplitudes exactly zero, with weight <= 1."""
    dims = draw(st.lists(st.integers(2, 3), min_size=min_dofs, max_size=5))
    dofs = tuple(
        Dof(f"d{i}", tuple(f"d{i}_{j}" for j in range(dim))) for i, dim in enumerate(dims)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = random_amps(rng, int(np.prod(dims)), draw(st.sampled_from([0.0, 0.3])))
    return StateVector(dofs, amps, draw(WEIGHTS))


def random_unitary(rng, k):
    q, r = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_projector(rng, k, rank):
    v = random_unitary(rng, k)[:, :rank]
    return v @ v.conj().T


def random_matrix(rng, kind, k):
    """A random unitary, or a random projector: onto random vectors, or onto
    basis labels (0 to k of them), which blocks a state with no amplitude
    on those labels entirely."""
    if kind == el.UNITARY:
        return random_unitary(rng, k)
    if rng.random() < 0.5:
        return np.diag(rng.integers(0, 2, size=k)).astype(complex)
    return random_projector(rng, k, int(rng.integers(1, k + 1)))


@st.composite
def ops(draw):
    """A state and a random unitary or filter on 1-3 of its dofs, targets in
    any axis order, optionally conditioned on a label of another dof."""
    s = draw(states())
    names = draw(st.permutations([d.name for d in s.dofs]))
    targets = tuple(names[: draw(st.integers(1, min(3, len(names))))])
    others = names[len(targets):]
    condition = None
    if others and draw(st.booleans()):
        cd = dof(s, draw(st.sampled_from(others)))
        condition = (cd.name, draw(st.sampled_from(cd.labels)))
    k = int(np.prod([dof(s, n).dim for n in targets]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from([el.UNITARY, el.FILTER]))
    return s, el.ElementOp(kind, targets, random_matrix(rng, kind, k), condition)


@st.composite
def stacks(draw):
    """1-4 random states over one space, some of them blocked, and an op
    (see ``ops``); optionally one random matrix of the op's kind per row."""
    s, op = draw(ops())
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zero_fraction = draw(st.sampled_from([0.0, 0.3]))
    rows = [s] + [StateVector(s.dofs, random_amps(rng, s.dim, zero_fraction), draw(WEIGHTS)) for _ in range(n - 1)]
    blocked = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    matrices = None
    if draw(st.booleans()):
        matrices = np.array([random_matrix(rng, op.kind, len(op.matrix)) for _ in range(n)])
    return rows, blocked, op, matrices


def stack_of(rows, blocked):
    """The stack of ``rows``, a blocked row all zero with weight 0."""
    amps = np.array([np.zeros_like(r.amps) if b else r.amps for r, b in zip(rows, blocked)])
    weights = np.array([0.0 if b else r.weight for r, b in zip(rows, blocked)])
    return StateStack(rows[0].dofs, amps.reshape((len(rows),) + rows[0].dims), weights, np.array(blocked))


def outcome(fn, *args):
    try:
        return fn(*args)
    except AllBlockedError:
        return AllBlockedError


def assert_same_row(got, i, want):
    """Row i of the stack ``got`` has the bytes of the state ``want``, or is
    blocked where ``want`` is AllBlockedError."""
    assert bool(got.blocked[i]) == (want is AllBlockedError)
    if want is AllBlockedError:
        assert not got.amps[i].any() and got.weights[i] == 0.0
    else:
        assert got.dofs == want.dofs
        assert got.amps[i].tobytes() == want.tensor_view().tobytes()
        assert got.weights[i] == want.weight


@given(ops())
@settings(max_examples=400, deadline=None)
def test_apply_op_matches_transpose_reference(case):
    s, op = case
    raw = el._act(s.tensor_view()[None], s.dofs, op)[0].reshape(-1)
    assert np.array_equal(raw, reference_transform(s, op))
    assert_same_row(el.apply_op(stack_of([s], [False]), op), 0, outcome(reference_apply_op, s, op))


@given(stacks())
@settings(max_examples=300, deadline=None)
def test_apply_op_on_a_stack_matches_the_reference_row_by_row(case):
    rows, blocked, op, matrices = case
    got = el.apply_op(stack_of(rows, blocked), op, matrices)
    assert got.dofs == rows[0].dofs and got.amps.shape == (len(rows),) + rows[0].dims
    for i, (row, b) in enumerate(zip(rows, blocked)):
        row_op = op if matrices is None else el.ElementOp(op.kind, op.target_dofs, matrices[i], op.condition)
        assert_same_row(got, i, AllBlockedError if b else outcome(reference_apply_op, row, row_op))


@given(states(), st.data())
@settings(max_examples=200, deadline=None)
def test_rebase_matches_tensordot_reference(s, data):
    d = dof(s, data.draw(st.sampled_from([d.name for d in s.dofs])))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    labels = tuple(f"n{j}" for j in range(d.dim))
    change = (d.name, random_unitary(rng, d.dim), labels)
    assert_same_row(rebase(stack_of([s], [False]), *change), 0, reference_rebase(s, *change))


@given(stacks(), st.data())
@settings(max_examples=200, deadline=None)
def test_rebase_on_a_stack_matches_the_reference_row_by_row(case, data):
    rows, blocked, _, _ = case
    d = dof(rows[0], data.draw(st.sampled_from([d.name for d in rows[0].dofs])))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    change = (d.name, random_unitary(rng, d.dim), tuple(f"n{j}" for j in range(d.dim)))
    got = rebase(stack_of(rows, blocked), *change)
    assert got.amps.flags.c_contiguous
    for i, (row, b) in enumerate(zip(rows, blocked)):
        assert_same_row(got, i, AllBlockedError if b else reference_rebase(row, *change))


def test_named_bases_match_tensordot_reference():
    rng = np.random.default_rng(5)
    dofs = (Dof("a", ("x", "y")), Dof("b", ("u", "v", "w")), Dof("c", ("h", "v")))
    v = rng.normal(size=12) + 1j * rng.normal(size=12)
    s = StateVector(dofs, v / np.linalg.norm(v), 0.5)
    for name in ("a", "c"):
        for basis in ("pm45", "circular"):
            change = (name, *el.basis_change(basis, dof(s, name)))
            assert_same_row(rebase(stack_of([s], [False]), *change), 0, reference_rebase(s, *change))
