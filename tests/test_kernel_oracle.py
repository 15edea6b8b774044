"""Element and basis-change actions against the per-call originals.

``reference_transform`` and ``reference_rebase`` are the earlier
``elements._transform`` (transpose, reshape, ``@``, with a conditioned
element transforming one column block) and ``qstate.rebase`` (``moveaxis``
plus ``tensordot``).  They stay here as the definition of what the shared
contraction computes, bit for bit: ``elements._act`` on a stack of one state,
``elements.apply_op`` and ``qstate.rebase``.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qesim import elements as el
from qesim.qstate import BasisChange, Dof, StateVector, ValidationError, rebase


def reference_transform(state, op):
    dims = state.dims
    axes = [state.axis(n) for n in op.target_dofs]
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
        cax = state.axis(cond_dof)
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
        raise el.AllBlockedError("blocked")
    return StateVector(state.dofs, out / math.sqrt(pass_prob), state.weight * pass_prob)


def reference_rebase(s, change):
    ax = s.axis(change.dof)
    old = s.dofs[ax]
    t = np.moveaxis(s.tensor_view(), ax, 0)
    new = np.moveaxis(np.tensordot(change.matrix, t, axes=([1], [0])), 0, ax)
    dofs = list(s.dofs)
    dofs[ax] = Dof(old.name, change.new_labels)
    return StateVector(tuple(dofs), new.reshape(-1), s.weight)


@st.composite
def states(draw, min_dofs=1):
    """A random state of ``min_dofs``-5 dofs of dimension 2 or 3, some
    amplitudes exactly zero, with weight <= 1."""
    dims = draw(st.lists(st.integers(2, 3), min_size=min_dofs, max_size=5))
    dofs = tuple(
        Dof(f"d{i}", tuple(f"d{i}_{j}" for j in range(dim))) for i, dim in enumerate(dims)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(np.prod(dims))
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v[rng.random(n) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    if not v.any():
        v[0] = 1.0
    weight = draw(st.one_of(st.just(1.0), st.floats(1e-6, 1.0, exclude_max=True)))
    return StateVector(dofs, v / np.linalg.norm(v), weight)


def random_unitary(rng, k):
    q, r = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_projector(rng, k, rank):
    v = random_unitary(rng, k)[:, :rank]
    return v @ v.conj().T


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
        cd = s.dof(draw(st.sampled_from(others)))
        condition = (cd.name, draw(st.sampled_from(cd.labels)))
    k = int(np.prod([s.dof(n).dim for n in targets]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return s, el.ElementOp(el.UNITARY, targets, random_unitary(rng, k), condition)
    rank = draw(st.integers(1, k))
    return s, el.ElementOp(el.FILTER, targets, random_projector(rng, k, rank), condition)


def outcome(fn, *args):
    try:
        return fn(*args)
    except el.AllBlockedError:
        return el.AllBlockedError


def assert_same_state(got, want):
    if want is el.AllBlockedError:
        assert got is el.AllBlockedError
        return
    assert got.dofs == want.dofs
    assert np.array_equal(got.amps, want.amps)
    assert got.weight == want.weight


@given(ops())
@settings(max_examples=400, deadline=None)
def test_apply_op_matches_transpose_reference(case):
    s, op = case
    raw = el._act(s.tensor_view()[None], s.dofs, op)[0].reshape(-1)
    assert np.array_equal(raw, reference_transform(s, op))
    assert_same_state(outcome(el.apply_op, s, op), outcome(reference_apply_op, s, op))


@given(states(), st.data())
@settings(max_examples=200, deadline=None)
def test_rebase_matches_tensordot_reference(s, data):
    dof = s.dof(data.draw(st.sampled_from([d.name for d in s.dofs])))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    labels = tuple(f"n{j}" for j in range(dof.dim))
    change = BasisChange(dof.name, random_unitary(rng, dof.dim), labels)
    assert_same_state(rebase(s, change), reference_rebase(s, change))


def test_named_bases_match_tensordot_reference():
    rng = np.random.default_rng(5)
    dofs = (Dof("a", ("x", "y")), Dof("b", ("u", "v", "w")), Dof("c", ("h", "v")))
    v = rng.normal(size=12) + 1j * rng.normal(size=12)
    s = StateVector(dofs, v / np.linalg.norm(v), 0.5)
    for name in ("a", "c"):
        for basis in ("pm45", "circular"):
            change = el.basis_change(basis, s.dof(name))
            assert_same_state(rebase(s, change), reference_rebase(s, change))
