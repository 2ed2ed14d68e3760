"""The array form of `CqState` against the per-entry loops it replaced.

The oracles here are the per-entry implementations of `rabin_cq_state`,
`CqState.classical_joint`, `CqState.rho_e` and `CqState.assemble`, kept to
pin the array code. `pa_distance`, chunked over u-blocks, is pinned to
`pa_distance_slow` run on the same state given as per-entry operators.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as hst

from bqsm import cqstate
from bqsm.cqstate import CqState, pa_distance, pa_distance_slow
from bqsm.entropy import smooth_min_entropy
from bqsm.hashing import HashFamily
from bqsm.protocols import (bell_pairwise_xor, breitbart_strategy,
                            measure_fixed, store_prefix)
from bqsm.protocols.rabin import rabin_cq_state, rabin_exact_blocks
from bqsm.qstate import random_density


def outer(rows):
    return rows[:, :, None] * rows[:, None, :].conj()


def rabin_entries_oracle(blocks, p_total=1.0):
    """The per-x loop of `rabin_cq_state`, as (xs, us, ps, ops) lists."""
    xs, us, ps, ops = [], [], [], []
    for r, y, p_ry, p_x, rows in blocks:
        op = outer(rows)
        for x in np.nonzero(p_x > 0)[0].tolist():
            xs.append(x)
            us.append((r, int(y)))
            ps.append(p_ry * p_x[x])
            ops.append(op[x])
    return xs, us, list(np.asarray(ps) / p_total), ops


def joint_oracle(xs, us, ps):
    """The dict loop of `classical_joint`: (x axis, u axis, mass)."""
    x_axis, u_axis = sorted(set(xs)), sorted(set(us), key=repr)
    xi = {v: i for i, v in enumerate(x_axis)}
    ui = {v: i for i, v in enumerate(u_axis)}
    m = np.zeros((len(x_axis), len(u_axis)))
    for xv, uv, pv in zip(xs, us, ps):
        m[xi[xv], ui[uv]] += pv
    return x_axis, u_axis, m


def rho_e_oracle(ps, ops):
    out = np.zeros_like(ops[0])
    for pv, o in zip(ps, ops):
        out += pv * o
    return out


def assemble_oracle(ps, ops):
    de = ops[0].shape[0]
    out = np.zeros((len(ps) * de,) * 2, dtype=complex)
    for i, (pv, o) in enumerate(zip(ps, ops)):
        out[i * de:(i + 1) * de, i * de:(i + 1) * de] = pv * o
    return out


def check_against_oracles(state, xs, us, ps, ops):
    """Entries, P_XU, rho_E and the assembled matrix of `state` against the
    per-entry lists, in the same entry order."""
    assert state.x.tolist() == xs
    assert [state.labels[i] for i in state.u] == us
    assert np.array_equal(state.p, ps)
    assert np.array_equal(state.ops, np.array(ops))
    x_axis, u_axis, m = joint_oracle(xs, us, ps)
    joint = state.classical_joint()
    assert list(joint.axes[0]) == x_axis
    assert list(joint.axes[1]) == u_axis
    assert np.array_equal(joint.mass, m)
    np.testing.assert_allclose(state.rho_e(), rho_e_oracle(ps, ops),
                               rtol=0, atol=1e-12)
    if len(xs) * state.dim_e <= 1 << 12:
        assert np.array_equal(state.assemble().matrix,
                              assemble_oracle(ps, ops))


STRATEGIES = {
    "store_prefix(0)": lambda n: store_prefix(0),
    "store_prefix(1)": lambda n: store_prefix(1),
    "store_prefix(2)": lambda n: store_prefix(2),
    "measure_fixed": lambda n: measure_fixed(
        ["+" if i % 2 == 0 else "x" for i in range(n)]),
    "breitbart": lambda n: breitbart_strategy(),
    "bell_pairwise_xor": lambda n: bell_pairwise_xor(),
}


@settings(max_examples=30, deadline=None)
@given(hst.integers(1, 5), hst.sampled_from(sorted(STRATEGIES)),
       hst.integers(0, 2 ** 32), hst.booleans())
@example(4, "store_prefix(2)", 1, True)
@example(3, "breitbart", 2, False)
def test_rabin_cq_state_matches_per_entry_loops(n, name, seed, masked):
    # the masked case keeps a random subset of x, as the sender-security
    # event does, and renormalizes by the kept mass
    assume(name != "bell_pairwise_xor" or n % 2 == 0)
    strategy = STRATEGIES[name](n)
    blocks = list(rabin_exact_blocks(n, strategy))
    p_total = 1.0
    if masked:
        rng = np.random.default_rng(seed)
        blocks = [(r, y, p_ry, np.where(rng.random(len(p_x)) < 0.5, p_x, 0.0),
                   rows) for r, y, p_ry, p_x, rows in blocks]
        p_total = sum(p_ry * p_x.sum() for _, _, p_ry, p_x, _ in blocks)
        assume(p_total > 0)
    state = rabin_cq_state(strategy.memory_qubits(n), blocks, p_total)
    check_against_oracles(state, *rabin_entries_oracle(blocks, p_total))


def random_state(seed, n, q, groups, pure, real=False):
    """A random cq-state over packed n-bit x and int labels 0..groups-1
    (whose repr order differs from their numeric order from 11 labels on),
    built through the array constructor with complex (or, if `real`, real)
    amplitude rows or mixed operators, plus its per-entry (xs, us, ps, ops)
    lists."""
    rng = np.random.default_rng(seed)
    xs, us, states = [], [], []
    d = 1 << q
    for u in range(groups):
        for x in range(1 << n):
            if rng.random() < 0.3 and xs:
                continue
            xs.append(x)
            us.append(u)
            if pure:
                v = rng.normal(size=d)
                if not real:
                    v = v + 1j * rng.normal(size=d)
                states.append(v / np.linalg.norm(v))
            else:
                m = random_density(q, rng).matrix if q \
                    else np.ones((1, 1), dtype=complex)
                # the real part of a density operator is one
                states.append(m.real if real else m)
    p = rng.random(len(xs)) * (rng.random(len(xs)) > 0.2)
    p[0] += 0.1
    ps = list(p / p.sum())
    form = {"rows": np.array(states)} if pure else {"ops": np.array(states)}
    state = CqState(np.array(xs), ps, q=q, u=np.array(us),
                    labels=list(range(groups)), **form)
    ops = list(outer(np.array(states))) if pure else states
    return state, (xs, us, ps, ops)


@settings(max_examples=40, deadline=None)
@given(hst.integers(0, 2 ** 32), hst.integers(1, 4), hst.integers(1, 3),
       hst.integers(0, 2), hst.integers(1, 12), hst.booleans(),
       hst.sampled_from([1, 7, 100, 1 << 22]), hst.booleans(),
       hst.sampled_from([1, 1 << 12, 1 << 14]))
@example(3, 3, 2, 1, 12, True, 1, False, 1 << 14)
@example(4, 2, 1, 2, 3, False, 1, False, 1 << 14)
@example(5, 4, 1, 1, 11, True, 100, False, 1 << 14)
@example(6, 4, 2, 2, 3, True, 1, True, 1)
@example(7, 3, 3, 2, 4, False, 1 << 22, True, 1 << 12)
def test_chunked_pa_distance_matches_slow_oracle(seed, n, ell, q, groups,
                                                 pure, budget, real,
                                                 class_cells):
    # u-block chunks of every size, class-average chunks of one cell to
    # 2^14, real stacks (float64) and complex ones
    fam = HashFamily(n, ell, "linear")
    assume(fam.size <= 1 << 10)
    state, (xs, us, ps, ops) = random_state(seed, n, q, groups, pure, real)
    check_against_oracles(state, xs, us, ps, ops)
    chunks, dtypes = [], set()

    def counting(stack, family):
        chunks.append(len(stack))
        dtypes.add(stack.dtype)
        return average(stack, family)

    average = cqstate._class_average
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cqstate, "_U_CHUNK_CELLS", budget)
        mp.setattr(cqstate, "_CLASS_CELLS", class_cells)
        mp.setattr(cqstate, "_class_average", counting)
        exact, bound = pa_distance(state, fam)
    per_chunk, n_u = max(1, budget // ((1 << 2 * q) << n)), len(state.labels)
    assert chunks == [min(per_chunk, n_u - lo)
                      for lo in range(0, n_u, per_chunk)]
    # real states give real stacks; complex ones at q >= 1 a complex
    # stack at least (complex q=0 rows may round to a complex stack)
    if real or q:
        assert (np.dtype(complex) in dtypes) == (not real)
    # the oracle reads the per-entry operators built above
    slow, slow_bound = pa_distance_slow(CqState(xs, ps, ops, q, us), fam)
    assert exact == pytest.approx(slow, abs=1e-12, rel=0)
    h_min, _ = smooth_min_entropy(state.classical_joint(), 0.0)
    assert bound == pytest.approx(
        0.5 * 2.0 ** (-0.5 * (h_min - q - ell)), abs=1e-12, rel=0)
    assert bound == slow_bound


def test_largest_pa_audit_stack_runs_as_one_chunk():
    # pa-quantum n=6 q=2 ell=2: 2^15 cells, the largest pa_distance stack
    # of the pa-audit benchmark specs
    state = rabin_cq_state(2, rabin_exact_blocks(6, store_prefix(2)))
    chunks = []
    average = cqstate._class_average
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cqstate, "_class_average",
                   lambda stack, fam: chunks.append(stack.size)
                   or average(stack, fam))
        pa_distance(state, HashFamily(6, 2, "linear"))
    assert chunks == [1 << 15]
