"""Dual-route checks: independent brute-force re-derivations of the most
intricate exact computations, compared against the production paths."""

import itertools
import math
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hst

from bqsm.classical_ot import (OtOutputDistribution, UotChannel,
                               construct_pointer, reduce_ot_from_uot,
                               xor_uniformity)
from bqsm.cqstate import (CqState, pa_distance, pa_output_state,
                          qmin_entropy_rel)
from bqsm.hashing import HashFamily, enumerate_ndlf
from bqsm.protocols import (bell_pairwise_xor, breitbart_strategy,
                            custom_compression, full_memory, measure_fixed,
                            run_rabin_ot, sender_security_distance,
                            store_prefix)
from bqsm.protocols.channel import PERFECT
from bqsm.protocols.rabin import rabin_guess_probability
from bqsm.qstate import (SINGLE_QUBIT_BASES, bell_basis, haar_unitary,
                         product_basis_matrix, random_density, trace_norm)


def _kept_ops(theta, kept_idx):
    """Kept-register pure states |kappa>_theta as density matrices, indexed
    by the packed kept-bit value."""
    cols = product_basis_matrix([theta[i] for i in kept_idx]).real
    return np.einsum("ik,jk->kij", cols, cols)


def _epr_qubit_tables(plan_step, sender_basis):
    """First-principles per-qubit tables from the explicit two-qubit EPR
    vector: returns (list of (prob, y, op or None)) over sender outcome x,
    i.e. entries ((x, y) -> prob, kept op)."""
    omega = np.zeros(4, dtype=complex)
    omega[0] = omega[3] = 1 / math.sqrt(2)
    v = SINGLE_QUBIT_BASES[sender_basis]
    out = []
    if plan_step[0] == "keep":
        for x in range(2):
            proj = np.kron(np.outer(v[:, x], v[:, x].conj()), np.eye(2))
            vec = proj @ omega
            p = float(np.vdot(vec, vec).real)
            # reduced kept state: trace out the sender qubit
            m = vec.reshape(2, 2)
            red = np.zeros((2, 2), dtype=complex)
            for a in range(2):
                for bb in range(2):
                    for s in range(2):
                        red[a, bb] += m[s, a] * np.conj(m[s, bb])
            out.append((x, None, p, red / p if p > 0 else None))
        return out
    w = SINGLE_QUBIT_BASES[plan_step[1]]
    for y in range(2):
        py_proj = np.kron(np.eye(2), np.outer(w[:, y], w[:, y].conj()))
        vec = py_proj @ omega
        for x in range(2):
            proj = np.kron(np.outer(v[:, x], v[:, x].conj()), np.eye(2))
            vv = proj @ vec
            p = float(np.vdot(vv, vv).real)
            out.append((x, y, p, None))
    return out


class TestEngineOracle:
    def test_product_factor_tables_from_first_principles(self):
        from bqsm.protocols.adversary import product_factors
        for s, basis in enumerate("+x"):
            for x, _, p, red in _epr_qubit_tables(("keep",), basis):
                assert p == pytest.approx(0.5)
                assert np.allclose(red, _kept_ops(basis, [0])[x],
                                   atol=1e-12)
            for label in ("+", "x", "breitbart", "circ"):
                kept, t = product_factors(1, measure_fixed([label]))
                assert not kept[0]
                for x, y, p, _ in _epr_qubit_tables(("measure", label),
                                                    basis):
                    assert t[0, s, y, x] == pytest.approx(p, abs=1e-12)

    def test_ot12_distance_brute_force(self):
        # independent dict-based assembly of the two-hash distance at n=3
        n, ell = 3, 1
        for strategy in (store_prefix(0), store_prefix(1),
                         breitbart_strategy(),
                         measure_fixed(["+", "circ", "x"])):
            rec = sender_security_distance(strategy, "ot12", n, ell=ell)
            brute = _brute_ot12_distance(strategy, n, ell, rec["alpha"])
            assert rec["distance"] == pytest.approx(brute, abs=1e-10)

    def test_rabin_guess_vs_sampled_runs(self):
        exact = rabin_guess_probability(3, store_prefix(0), mask="xor")
        assert exact == pytest.approx(0.75)
        wins = 0
        runs = 600
        for seed in range(runs):
            tr = run_rabin_ot(seed & 1, PERFECT, store_prefix(0), 3, seed,
                              mask="xor")
            wins += tr.adversary["guess_b"] == tr.honest["b"]
        sigma = math.sqrt(exact * (1 - exact) / runs)
        assert abs(wins / runs - exact) <= 4 * sigma

    def test_bell_sampled_runs_always_win(self):
        for seed in range(50):
            tr = run_rabin_ot(seed & 1, PERFECT, bell_pairwise_xor(), 4,
                              seed, mask="xor")
            assert tr.adversary["guess_b"] == tr.honest["b"]


_LABELS = ("+", "x", "circ", "breitbart")


@hst.composite
def _product_strategies(draw, max_n=5):
    """(n, strategy) for a random product strategy on n <= max_n qubits."""
    n = draw(hst.integers(1, max_n))
    kind = draw(hst.sampled_from(("store_prefix", "measure_fixed",
                                  "breitbart", "full_memory")))
    if kind == "store_prefix":
        return n, store_prefix(draw(hst.integers(0, n)),
                               draw(hst.sampled_from(_LABELS)))
    if kind == "measure_fixed":
        return n, measure_fixed(draw(hst.lists(
            hst.sampled_from(_LABELS), min_size=n, max_size=n)))
    return n, breitbart_strategy() if kind == "breitbart" else full_memory()


class TestProductTableProperty:
    """The product engine's per-qubit table against the dense engine, for
    every sender basis string theta."""

    @settings(max_examples=40, deadline=None)
    @given(_product_strategies())
    @example((3, measure_fixed(["x", "breitbart", "circ"])))
    @example((4, store_prefix(2, "breitbart")))
    @example((2, full_memory()))
    def test_product_table_matches_dense_engine(self, case):
        from bqsm.protocols.adversary import (epr_blocks_dense,
                                              product_factors,
                                              product_table, row_states,
                                              sender_measurement_dense)
        from bqsm.protocols.security import _part_value
        n, strategy = case
        kept, t = product_factors(n, strategy)
        kept_idx = np.nonzero(kept)[0].tolist()
        kappa = _part_value(n, kept_idx)
        blocks = epr_blocks_dense(n, strategy)
        for theta in itertools.product("+x", repeat=n):
            # P(y, x | theta) = p_y p(x | y), zero on the dropped outcomes
            p_x, unit = row_states(sender_measurement_dense(blocks, theta))
            dense = np.zeros((1 << (n - len(kept_idx)), 1 << n))
            dense[blocks.ys] = blocks.probs[:, None] * p_x
            assert np.abs(product_table(kept, t, theta) - dense).max() \
                <= 1e-12
            # the kept register holds |kappa(x)>_theta's conjugate
            proj = unit[..., :, None] * unit[..., None, :].conj()
            ops = _kept_ops(theta, kept_idx)[kappa]
            assert np.abs(proj - ops)[p_x > 0].max() <= 1e-12


def _kron_unitary(n, strategy):
    """The strategy's whole compression unitary as one explicit Kronecker
    chain over its wires, with its kept wires and ancilla count."""
    if strategy.kind == "custom":
        u, kept, anc = strategy.params
        return np.asarray(u, dtype=complex), tuple(kept), anc
    if strategy.kind == "bell_pairwise_xor":
        mats, kept = [bell_basis().matrix.conj().T] * (n // 2), ()
    else:
        plan = strategy.product_plan(n)
        mats = [np.eye(2) if step[0] == "keep"
                else SINGLE_QUBIT_BASES[step[1]].conj().T for step in plan]
        kept = tuple(i for i, step in enumerate(plan) if step[0] == "keep")
    u = np.ones((1, 1), dtype=complex)
    for m in mats:
        u = np.kron(u, m)
    return u, kept, 0


def _split_by_index(psi, total, kept):
    """out[y, i, k] = psi[i, m], with y the bits of m on the measured wires
    (wire order) and k its bits on the kept wires (`kept` order), read off
    m one wire at a time."""
    measured = [w for w in range(total) if w not in kept]
    m = np.arange(1 << total)

    def pack(wires):
        out = np.zeros_like(m)
        for w in wires:
            out = (out << 1) | ((m >> (total - 1 - w)) & 1)
        return out

    out = np.zeros((1 << len(measured), len(psi), 1 << len(kept)),
                   dtype=complex)
    out[pack(measured)[:, None], np.arange(len(psi)),
        pack(kept)[:, None]] = psi.T
    return out


def _real_orthogonal(d, rng):
    """Haar orthogonal matrix: QR of a real Gaussian matrix with the signs
    of R's diagonal moved into Q."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


@hst.composite
def _dense_cases(draw):
    """(n, strategy, theta, x) over product plans in every single-qubit
    basis, pairwise Bell measurements and Haar custom unitaries (complex
    or real orthogonal) with 0-2 ancillas and a random ordered kept
    subset, with per-qubit sender bases and one sender value x."""
    n = draw(hst.integers(1, 6))
    kind = draw(hst.sampled_from(("product", "bell", "custom", "real")))
    if kind == "product":
        n, strategy = draw(_product_strategies(6))
    elif kind == "bell":
        n, strategy = 2 * draw(hst.integers(1, 3)), bell_pairwise_xor()
    else:
        anc = draw(hst.integers(0, min(2, 7 - n)))
        wires = draw(hst.permutations(range(n + anc)))
        kept = wires[:draw(hst.integers(0, n + anc))]
        make = haar_unitary if kind == "custom" else _real_orthogonal
        u = make(1 << (n + anc),
                 np.random.default_rng(draw(hst.integers(0, 999))))
        strategy = custom_compression(u, kept, anc)
    theta = draw(hst.lists(hst.sampled_from(_LABELS), min_size=n,
                           max_size=n))
    return n, strategy, theta, draw(hst.integers(0, (1 << n) - 1))


def _real_dtypes(n, strategy, theta):
    """Whether the EPR blocks, the sender measurement and the direct
    amplitudes are real: each is unless a complex factor enters it. The
    only complex factors are the circ basis and a complex custom unitary;
    on a wire measured in circ with sender basis circ, W^dagger V_theta
    is the identity, so the direct amplitudes stay real there."""
    if strategy.kind == "custom":
        epr = not np.iscomplexobj(strategy.params[0])
        sender = epr and "circ" not in theta
        return epr, sender, sender
    plan = (strategy.product_plan(n) if strategy.is_product()
            else [("measure", "bell")] * n)
    measured = [step[-1] for step in plan]
    epr = "circ" not in measured
    return epr, epr and "circ" not in theta, all(
        (w == "circ") == (t == "circ") for w, t in zip(measured, theta))


class TestDenseEngineProperty:
    """The factored dense engine against the explicit construction: the
    whole unitary U as a Kronecker chain, V_theta = kron of the sender's
    bases, and EPR blocks psi[x] = 2^{-n/2} U |x>|0^anc>, sender
    measurement V_theta^dagger B_y and direct amplitudes
    U |x>_theta |0^anc>, split wire by wire. Each output is float64 when
    every factor it involves is real and complex128 otherwise, and the
    purification gap assembled from them matches the one from the
    explicit construction, with no warning (a complex array cast to a
    real one warns)."""

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=80, deadline=None)
    @given(_dense_cases())
    @example((4, bell_pairwise_xor(), ["x", "circ", "+", "breitbart"], 6))
    @example((3, measure_fixed(["circ", "x", "breitbart"]),
              ["circ", "x", "+"], 5))
    @example((2, measure_fixed(["circ", "x"]), ["circ", "+"], 1))
    def test_engine_matches_kron_construction(self, case):
        from bqsm.protocols.adversary import (direct_blocks_dense,
                                              epr_blocks_dense,
                                              sender_measurement_dense)
        from bqsm.protocols.security import purification_gap
        from bqsm.qstate import rank1_trace_norm
        n, strategy, theta, x = case
        dtypes = [np.float64 if real else np.complex128
                  for real in _real_dtypes(n, strategy, theta)]
        u, kept, anc = _kron_unitary(n, strategy)
        total = n + anc
        cols = np.arange(1 << n) << anc
        v = product_basis_matrix(theta)

        split = _split_by_index(u[:, cols].T * 2.0 ** (-n / 2.0), total,
                                kept)
        p = (np.abs(split) ** 2).sum(axis=(1, 2))
        ys = np.nonzero(p > 1e-15)[0]
        amps = split[ys] / np.sqrt(p[ys])[:, None, None]
        blocks = epr_blocks_dense(n, strategy)
        assert blocks.ys == ys.tolist()
        assert np.abs(blocks.probs - p[ys]).max() <= 1e-12
        assert np.abs(blocks.amps - amps).max() <= 1e-12
        got = sender_measurement_dense(blocks, theta)
        assert np.abs(got - v.conj().T @ amps).max() <= 1e-12

        direct = _split_by_index((u[:, cols] @ v).T, total, kept)
        got_direct = direct_blocks_dense(n, strategy, theta)
        assert np.abs(got_direct - direct).max() <= 1e-12
        one = direct_blocks_dense(n, strategy, theta, [x])
        assert np.abs(one - direct[:, x:x + 1]).max() <= 1e-12
        assert [blocks.amps.dtype, got.dtype, got_direct.dtype,
                one.dtype] == dtypes + dtypes[-1:]

        epr = np.zeros_like(direct)
        epr[ys] = (v.conj().T @ amps) * np.sqrt(p[ys])[:, None, None]
        gap = 0.5 * rank1_trace_norm(epr, direct * 2.0 ** (-n / 2)).sum()
        assert abs(purification_gap(n, strategy, [theta]) - gap) <= 1e-12


@hst.composite
def _ot_counts(draw):
    """Integer counts 0..7 over [s0, s1, w] at l in {1, 2}, |W| in 1..4,
    with some w-slices zeroed whole."""
    ell, nw = draw(hst.integers(1, 2)), draw(hst.integers(1, 4))
    size = 1 << ell
    counts = np.array(draw(hst.lists(hst.integers(0, 7),
                                     min_size=size * size * nw,
                                     max_size=size * size * nw)))
    counts = counts.reshape(size, size, nw)
    counts[:, :, draw(hst.lists(hst.integers(0, nw - 1)))] = 0
    return ell, counts


def _pointer_cells(m):
    """Per-cell pointer extension of m[s0, s1, w], on float64 or on
    Fraction cells: t is the first column minimizing m[0, t, w]."""
    size, _, nw = m.shape
    ext = np.empty((size, size, 2, nw), dtype=m.dtype)
    for w in range(nw):
        p = m[:, :, w]
        t = min(range(size), key=lambda j: (p[0, j], j))
        for s0 in range(size):
            for s1 in range(size):
                a0 = p[s0, t]
                a1 = p[0, s1] - p[0, t]
                b0 = a0 + (p[s0, s1] - (a0 + a1))
                if b0 < 0:
                    b0 = 0 * a0
                ext[s0, s1, 0, w] = b0
                ext[s0, s1, 1, w] = p[s0, s1] - b0
    return ext


def _fraction_epsilon(ext):
    """delta(P_{S_{1-D} S_D D W}, unif . P_{S_D D W}) in Fractions."""
    size = ext.shape[0]
    d0 = ext[:, :, 0] - ext[:, :, 0].sum(axis=1, keepdims=True) / size
    d1 = ext[:, :, 1] - ext[:, :, 1].sum(axis=0, keepdims=True) / size
    return sum(abs(v) for v in itertools.chain(d0.flat, d1.flat)) / 2


class TestPointerExtensionOracle:
    """On integer counts the float64 XOR distance and pointer extension
    are exact: they equal the same quantities computed in Fractions."""

    @settings(max_examples=60, deadline=None)
    @given(_ot_counts())
    @example((1, np.zeros((2, 2, 2), dtype=int)))
    @example((1, np.array([[[1, 0], [2, 0]], [[3, 0], [4, 0]]])))
    @example((2, np.arange(48).reshape(4, 4, 3) % 8))
    def test_extension_on_counts_matches_fractions(self, case):
        ell, counts = case
        masses = [counts.astype(float)]
        if counts.any():
            masses.append(counts / counts.sum())
        for m in masses:
            ext = construct_pointer(OtOutputDistribution(
                m, ell, normalized=False)).extended
            assert ext.tobytes() == _pointer_cells(m).tobytes()
        dist = OtOutputDistribution(counts, ell, normalized=False)
        pe = construct_pointer(dist)
        assert (pe.extended.sum(axis=2) == counts).all()
        exact = np.array([Fraction(int(v)) for v in counts.flat],
                         dtype=object).reshape(counts.shape)
        ext_exact = _pointer_cells(exact)
        assert (pe.extended == ext_exact.astype(float)).all()
        # exact equality, so "is it zero" agrees too
        assert pe.epsilon == _fraction_epsilon(ext_exact)
        if ell == 1:
            # 1/2 sum_w |sum_{s0, s1} (-1)^{s0 + s1} P(s0, s1, w)|
            signed = exact[0, 0] - exact[0, 1] - exact[1, 0] + exact[1, 1]
            xor_exact = sum(abs(v) for v in signed) / 2
            assert xor_uniformity(dist) == xor_exact


def _brute_ot12_distance(strategy, n, ell, alpha):
    plan = strategy.product_plan(n)
    meas = [i for i, step in enumerate(plan) if step[0] != "keep"]
    kept = [i for i, step in enumerate(plan) if step[0] == "keep"]
    # mass[(i, basis, y, x)] = P(y, x | basis) of measured qubit i, from the
    # explicit two-qubit EPR vector
    mass = {(i, basis, y, x): p for i in meas for basis in "+x"
            for x, y, p, _ in _epr_qubit_tables(plan[i], basis)}
    fam = HashFamily(n, ell, "linear")
    members = list(fam.members())
    size_out = 1 << ell
    thresh = 2.0 ** (-alpha / 2.0)
    blocks = defaultdict(lambda: np.zeros(
        (size_out, size_out, 1 << strategy.memory_qubits(n),
         1 << strategy.memory_qubits(n)), dtype=complex))
    for t in range(1 << n):
        theta = ["+" if (t >> (n - 1 - i)) & 1 == 0 else "x"
                 for i in range(n)]
        i0 = [i for i in range(n) if theta[i] == "+"]
        i1 = [i for i in range(n) if theta[i] == "x"]
        for y in range(1 << len(meas)):
            # joint mass over x and the pointer rule
            masses = np.zeros(1 << n)
            for x in range(1 << n):
                p = 1.0
                for i in range(n):
                    xi = (x >> (n - 1 - i)) & 1
                    if i in kept:
                        p *= 0.5
                    else:
                        yi = (y >> (len(meas) - 1 - meas.index(i))) & 1
                        p *= mass[(i, theta[i], yi, xi)]
                masses[x] = p
            tot = masses.sum()
            if tot <= 0:
                continue
            # x1-part marginal for the pointer
            def part(x, idx):
                v = 0
                for pos, i in enumerate(idx):
                    v |= ((x >> (n - 1 - i)) & 1) << (len(idx) - 1 - pos)
                return v

            p_x1 = defaultdict(float)
            for x in range(1 << n):
                p_x1[part(x, i1)] += masses[x] / tot
            for f0i, m0 in enumerate(members):
                for f1i, m1 in enumerate(members):
                    for x in range(1 << n):
                        if masses[x] <= 0:
                            continue
                        d = 1 if p_x1[part(x, i1)] >= thresh else 0
                        s0 = fam.eval(m0, part(x, i0) << (n - len(i0)))
                        s1 = fam.eval(m1, part(x, i1) << (n - len(i1)))
                        kap_bits = [(x >> (n - 1 - i)) & 1 for i in kept]
                        op = np.array([[1.0 + 0j]])
                        for i, bit in zip(kept, kap_bits):
                            col = SINGLE_QUBIT_BASES[theta[i]][:, bit]
                            op = np.kron(op, np.outer(col.conj(), col.T))
                        blocks[(t, y, f0i, f1i, d)][s0, s1] += \
                            masses[x] * 2.0 ** (-n) * op
    total = 0.0
    for (t, y, f0i, f1i, d), arr in blocks.items():
        if d == 0:
            marg = arr.sum(axis=1, keepdims=True) / size_out
        else:
            marg = arr.sum(axis=0, keepdims=True) / size_out
        diff = arr - marg
        for s0 in range(size_out):
            for s1 in range(size_out):
                total += 0.5 * trace_norm(diff[s0, s1])
    return total / len(members) ** 2


def _representatives(k, ell, vals):
    if k == 0:
        return np.zeros((1, len(vals)), np.uint32), np.ones(1)
    table, weight = HashFamily(k, ell).representatives()
    return table[:, vals], weight


class TestHashAverageOracles:
    """The audits average over weighted row-space representatives or one
    Walsh-Hadamard pass; these properties re-derive each average over
    every member (pair) of the family."""

    @settings(max_examples=40, deadline=None)
    @given(hst.integers(0, 3), hst.integers(0, 3), hst.integers(1, 2),
           hst.integers(0, 1), hst.integers(0, 2 ** 32 - 1))
    @example(0, 3, 2, 1, 0)
    @example(3, 3, 2, 1, 1)
    def test_representative_pairs_match_member_pairs(self, k0, k1, ell, q,
                                                     seed):
        # a random pointer block over x = (x0, x1) with |I0| = k0 and
        # |I1| = k1, orthonormal kept states of dimension 2^q
        from bqsm.protocols.security import _pointer_distance
        rng = np.random.default_rng(seed)
        xs = np.arange(1 << (k0 + k1))
        x0, x1 = xs >> k1, xs & ((1 << k1) - 1)
        w = rng.random(len(xs)) * (rng.random(len(xs)) < 0.8)
        dvec = rng.integers(0, 2, 1 << k1)[x1]
        dim_k = 1 << q
        kap = rng.integers(0, dim_k, len(xs))
        vecs, _ = np.linalg.qr(rng.normal(size=(dim_k, dim_k))
                               + 1j * rng.normal(size=(dim_k, dim_k)))
        ops = vecs[:, :, None] * vecs[:, None, :].conj()

        got = _pointer_distance(w[None], dvec[None], kap, dim_k,
                                _representatives(k0, ell, x0),
                                _representatives(k1, ell, x1), ell)[0]

        def members(k, vals):
            table = HashFamily(k, ell).eval_table() if k \
                else np.zeros((1, 1), np.uint32)
            return (table[:, vals, None] == np.arange(1 << ell)
                    ).astype(float)

        o0, o1 = members(k0, x0), members(k1, x1)
        pick = (dvec[:, None] == np.arange(2)).astype(float)
        blocks = np.einsum("x,xd,fxa,gxb,xij->fgdabij", w, pick, o0, o1,
                           ops[kap], optimize=True)
        total = 0.0
        for d, axis in ((0, 3), (1, 2)):
            sub = blocks[:, :, d]
            diff = sub - sub.sum(axis=axis, keepdims=True) / (1 << ell)
            total += np.abs(np.linalg.eigvalsh(
                diff.reshape(-1, dim_k, dim_k))).sum()
        want = 0.5 * total / (len(o0) * len(o1))
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("n, ell", [(4, 1), (4, 2), (5, 1), (5, 2),
                                        (6, 1), (6, 2)])
    def test_kept_register_l1_matches_eigvalsh(self, n, ell):
        # the ot12 audit's (theta, y) blocks, built as in the audit, with
        # the kept register as dim_k x dim_k blocks of |kappa>_theta and
        # eigvalsh trace norms, against its l1 norms of the kept masses;
        # four basis strings per strategy keep the eigvalsh side short
        from bqsm.entropy import split_pointer
        from bqsm.errors import CAPS
        from bqsm.protocols.adversary import product_factors, product_table
        from bqsm.protocols.security import _part_value, _pointer_distance

        def eigvalsh_form(w, dvec, kap, ops, side0, side1):
            (h0, wt0), (h1, wt1) = side0, side1
            s_out, dim_k = 1 << ell, len(ops)
            xs = np.nonzero(w > 0)[0]
            pair = 2 * (len(wt1) * np.arange(len(wt0))[:, None]
                        + np.arange(len(wt1)))
            cell = (((pair + dvec[xs, None, None]) * s_out
                     + h0[:, xs].T[:, :, None]) * s_out
                    + h1[:, xs].T[:, None, :]) * dim_k + kap[xs, None, None]
            mass = w[xs, None, None] * wt0[:, None] * wt1
            acc = np.bincount(cell.ravel(), mass.ravel(),
                              pair.size * 2 * s_out * s_out * dim_k)
            blocks = (acc.reshape(-1, dim_k) @ ops.reshape(dim_k, -1)
                      ).reshape(pair.shape + (2, s_out, s_out, dim_k, dim_k))
            total = 0.0
            for d, axis in ((0, 3), (1, 2)):
                sub = blocks[:, :, d]
                diff = sub - sub.sum(axis=axis, keepdims=True) / s_out
                total += np.abs(np.linalg.eigvalsh(
                    diff.reshape(-1, dim_k, dim_k))).sum()
            return 0.5 * total

        reps = [HashFamily(k, ell).representatives() if k
                else (np.zeros((1, 1), np.uint32), np.ones(1))
                for k in range(n + 1)]
        thetas = list(itertools.product("+x", repeat=n))
        rng = np.random.default_rng([n, ell])
        for strategy in [store_prefix(q) for q in range(n + 1)] \
                + [breitbart_strategy()]:
            q = strategy.memory_qubits(n)
            if (n + 2) * ell + 2 * q + 1 > CAPS["ot12-block"]:
                continue
            kept, t = product_factors(n, strategy)
            kept_idx = np.nonzero(kept)[0].tolist()
            kap = _part_value(n, kept_idx)
            tables = [product_table(kept, t, theta) for theta in thetas]
            alpha = -math.log2(max(row.max() / row.sum() for tab in tables
                                   for row in tab if row.sum() > 0))
            for i in rng.choice(len(thetas), 4, replace=False):
                theta = thetas[i]
                i0 = [j for j in range(n) if theta[j] == "+"]
                i1 = [j for j in range(n) if theta[j] == "x"]
                x0_val, x1_val = _part_value(n, i0), _part_value(n, i1)
                (tab0, wt0), (tab1, wt1) = reps[len(i0)], reps[len(i1)]
                hashed = ((tab0[:, x0_val], wt0), (tab1[:, x1_val], wt1))
                ops = _kept_ops(theta, kept_idx)
                for m in tables[i][tables[i].sum(axis=1) > 0]:
                    grid = np.zeros((1 << len(i0), 1 << len(i1)))
                    grid[x0_val, x1_val] = m / m.sum()
                    dvec = split_pointer(grid, alpha)[0][x1_val]
                    w = m * 2.0 ** (-n)
                    got = _pointer_distance(w[None], dvec[None], kap,
                                            len(ops), *hashed, ell)[0]
                    want = eigvalsh_form(w, dvec, kap, ops, *hashed)
                    assert got == pytest.approx(want, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(hst.integers(1, 3), hst.integers(1, 2), hst.integers(1, 4),
           hst.integers(0, 2 ** 32 - 1))
    def test_splitting_audits_match_member_loops(self, n, ell, n_y, seed):
        # random channel and pointer; the member loops over (f0, f1) and
        # over F_D columns that the splitting reduction used to run
        from bqsm.classical_ot import (_class_indicator,
                                       _measured_chain_entropy,
                                       senders_distance_with_pointer)
        from bqsm.entropy import JointDistribution, smooth_min_entropy
        rng = np.random.default_rng(seed)
        nx, s_out = 1 << n, 1 << ell
        table = rng.random((n_y, nx * nx)) ** 3
        table /= table.sum(axis=0)
        ch = UotChannel(n, table)
        d_of = {y: rng.integers(0, 2, nx) for y in range(n_y)}
        fam = HashFamily(n, ell)
        hot = (fam.eval_table()[:, :, None] == np.arange(s_out)
               ).astype(float)
        dist, cols = 0.0, []
        for y, dvec in d_of.items():
            mxy = table[y].reshape(nx, nx) / nx ** 2
            for d, axis in ((0, 3), (1, 2)):
                w = np.where(dvec == d, mxy, 0.0)
                acc = np.einsum("fxa,xz,gzb->fgab", hot, w, hot)
                marg = acc.sum(axis=axis, keepdims=True) / s_out
                dist += 0.5 * np.abs(acc - marg).sum() / fam.size ** 2
                cols.append(np.einsum("fxa,xz->zfa", hot, w) if d == 0
                            else np.einsum("xz,fza->xfa", w, hot))
        mass = np.hstack([c.reshape(nx, -1) for c in cols]) / fam.size
        want_h, _ = smooth_min_entropy(JointDistribution(
            [range(nx), range(mass.shape[1])], mass), 0.25)
        ind = _class_indicator(fam)
        assert senders_distance_with_pointer(ch, ind, d_of) \
            == pytest.approx(dist, abs=1e-12)
        assert _measured_chain_entropy(ch, ind, d_of, 0.25) \
            == pytest.approx(want_h, abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(hst.integers(1, 3), hst.integers(1, 2), hst.integers(1, 4),
           hst.integers(0, 2 ** 32 - 1))
    def test_walsh_distance_matches_every_ndlf_member_average(
            self, n, ell, n_y, seed):
        rng = np.random.default_rng(seed)
        table = rng.random((n_y, 1 << (2 * n))) ** 3
        table /= table.sum(axis=0)
        rec = reduce_ot_from_uot(n, ell, 0.5, UotChannel(n, table),
                                 force=True)
        fam = HashFamily(n, ell, "affine")
        outs = fam.eval_table()
        nx = 1 << n

        def signs(a):
            return np.array([[1 - 2 * (bin(a & int(o)).count("1") & 1)
                              for o in row] for row in outs], dtype=float)

        for beta in enumerate_ndlf(ell):
            u, v = signs(beta.a0), signs(beta.a1)
            dist = sum(0.5 * np.abs(u @ row.reshape(nx, nx) @ v.T).sum()
                       for row in table / nx ** 2) / fam.size ** 2
            assert rec["ndlf_distance"] == pytest.approx(dist, abs=1e-12)


class TestStackedPointerPasses:
    """The ot12 audit and the splitting reduction run the pointer and the
    block distance over stacks of y rows, in row chunks; every stacked row
    must equal its own single-row call exactly, at every chunk size."""

    @settings(max_examples=60, deadline=None)
    @given(hst.integers(0, 3), hst.integers(0, 3), hst.integers(1, 2),
           hst.integers(0, 2), hst.integers(1, 6), hst.integers(0, 14),
           hst.integers(0, 2 ** 32 - 1))
    @example(2, 2, 1, 1, 5, 0, 0)
    @example(1, 2, 2, 0, 6, 10, 1)
    def test_stacked_pointer_distance_rows_match_single_rows(
            self, k0, k1, ell, q, n_rows, log_budget, seed):
        # log_budget 0 runs one row per chunk; larger budgets put a chunk
        # boundary inside the stack or hold it whole
        from bqsm.protocols import security
        rng = np.random.default_rng(seed)
        xs = np.arange(1 << (k0 + k1))
        x0, x1 = xs >> k1, xs & ((1 << k1) - 1)
        w = rng.random((n_rows, len(xs))) \
            * (rng.random((n_rows, len(xs))) < 0.8)
        dvec = rng.integers(0, 2, (n_rows, 1 << k1))[:, x1]
        dim_k = 1 << q
        kap = rng.integers(0, dim_k, len(xs))
        sides = (_representatives(k0, ell, x0),
                 _representatives(k1, ell, x1))
        single = [security._pointer_distance(w[i:i + 1], dvec[i:i + 1], kap,
                                             dim_k, *sides, ell)[0]
                  for i in range(n_rows)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(security, "_ROW_CHUNK_CELLS", 1 << log_budget)
            stacked = security._pointer_distance(w, dvec, kap, dim_k,
                                                 *sides, ell)
        assert stacked.shape == (n_rows,)
        assert stacked.tolist() == single

    @settings(max_examples=60, deadline=None)
    @given(hst.lists(hst.integers(1, 3), min_size=0, max_size=2),
           hst.integers(0, 3), hst.integers(0, 3), hst.floats(0.0, 7.0),
           hst.integers(0, 2 ** 32 - 1))
    def test_stacked_split_pointer_matches_slices(self, lead, k0, k1, alpha,
                                                  seed):
        from bqsm.entropy import split_pointer
        rng = np.random.default_rng(seed)
        m = rng.random(tuple(lead) + (1 << k0, 1 << k1)) ** 3
        m /= m.sum(axis=(-2, -1), keepdims=True)
        c, peak = split_pointer(m, alpha)
        assert c.shape == m.shape[:-2] + m.shape[-1:]
        assert peak.shape == m.shape[:-2]
        for idx in np.ndindex(*m.shape[:-2]):
            c_i, peak_i = split_pointer(m[idx], alpha)
            assert c[idx].tolist() == c_i.tolist() and peak[idx] == peak_i
            # the construction, written out for one matrix
            p_x1 = m[idx].sum(axis=0)
            one = p_x1 >= 2.0 ** (-alpha / 2.0)
            assert c_i.tolist() == one.astype(int).tolist()
            assert peak_i == max(np.where(one, 0.0, p_x1).max(),
                                 (m[idx] * one).sum(axis=1).max())

    @pytest.mark.parametrize("budget", [1, 1 << 10])
    def test_ot12_audit_is_the_same_at_every_row_chunk(self, budget):
        from bqsm.protocols import security
        cases = ((store_prefix(0), 4, 2), (store_prefix(1), 5, 1),
                 (breitbart_strategy(), 4, 1))
        for strategy, n, ell in cases:
            want = sender_security_distance(strategy, "ot12", n, ell=ell)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(security, "_ROW_CHUNK_CELLS", budget)
                got = sender_security_distance(strategy, "ot12", n, ell=ell)
            assert got == want


class TestRabinSecurityOracle:
    @pytest.mark.parametrize("mask", ["xor", "hash"])
    def test_guess_probability_matches_member_loop(self, mask):
        # Helstrom per (r, y, f, e) block, summed member by member and x by
        # x, against the one-transform-per-block form
        from bqsm.protocols.rabin import rabin_exact_blocks
        for n in (1, 2, 3, 4):
            strategies = [store_prefix(0), store_prefix(1), full_memory(),
                          breitbart_strategy()]
            # the pairwise Bell measurement needs an even n
            for strategy in strategies + [bell_pairwise_xor()] * (1 - n % 2):
                fam = HashFamily(n, 1, "linear")
                members = [None] if mask == "xor" else list(fam.members())
                terms = []
                for _, _, p_ry, p_x, rows in rabin_exact_blocks(n, strategy):
                    ops = rows[:, :, None] * rows[:, None, :].conj()
                    for member in members:
                        for e in (0, 1):
                            diff = np.zeros_like(ops[0])
                            for x in np.nonzero(p_x > 0)[0]:
                                fx = bin(int(x)).count("1") & 1 \
                                    if member is None \
                                    else fam.eval(member, int(x))
                                diff = diff + (-1) ** (e ^ fx) * 0.5 \
                                    * p_ry * p_x[x] * ops[x] / len(members)
                            terms.append(trace_norm(diff))
                want = 0.5 + 0.5 * math.fsum(terms)
                got = rabin_guess_probability(n, strategy, mask)
                assert got == pytest.approx(want, abs=1e-12)

    def test_masked_bit_distance_direct(self):
        # delta(rho_{B,view|E}, rho_B (x) rho_{view|E}) assembled directly
        # over b in {0,1} with e = b xor f(x) in the view, against the
        # hashed-state distance used by the audit
        from bqsm.protocols.rabin import rabin_exact_blocks
        from bqsm.uncertainty import event_from_distributions

        n = 3
        for strategy in (store_prefix(0), store_prefix(1)):
            rec = sender_security_distance(strategy, "rabin", n)
            q = strategy.memory_qubits(n)
            lam = rec["lambda"]
            per_y = defaultdict(dict)
            for r, y, p_ry, p_x, rows in rabin_exact_blocks(n, strategy):
                per_y[y][r] = (p_ry, p_x,
                               rows[:, :, None] * rows[:, None, :].conj())
            fam = HashFamily(n, 1, "linear")
            members = list(fam.members())
            blocks = defaultdict(
                lambda: np.zeros((1 << q, 1 << q), dtype=complex))
            p_event = 0.0
            for y, per_r in per_y.items():
                qp = per_r.get("+", (0, np.zeros(1 << n), None))[1]
                qt = per_r.get("x", (0, np.zeros(1 << n), None))[1]
                ec = event_from_distributions(qp, qt, lam, n)
                for r, keep, prob in (("+", ec.keep_plus, ec.prob_plus),
                                      ("x", ec.keep_times, ec.prob_times)):
                    if prob <= 0 or keep is None:
                        continue
                    p_ry, p_x, ops = per_r[r]
                    p_event += p_ry * prob
                    for x in np.nonzero(keep & (p_x > 0))[0]:
                        for fi, member in enumerate(members):
                            fx = fam.eval(member, int(x))
                            for b in (0, 1):
                                e = b ^ fx
                                key = (b, r, y, fi, e)
                                blocks[key] = blocks[key] \
                                    + 0.5 * p_ry * p_x[x] * ops[x] \
                                    / len(members)
            marg = defaultdict(
                lambda: np.zeros((1 << q, 1 << q), dtype=complex))
            for (b, r, y, fi, e), op in blocks.items():
                marg[(r, y, fi, e)] = marg[(r, y, fi, e)] + op
            zero = np.zeros((1 << q, 1 << q), dtype=complex)
            dist = 0.0
            for v, m_total in marg.items():
                for b in (0, 1):
                    op = blocks.get((b,) + v, zero)
                    dist += 0.5 * trace_norm(op - 0.5 * m_total)
            dist /= p_event
            assert dist == pytest.approx(rec["distance"], abs=1e-10)


class TestPaOutputConsistency:
    def test_distance_from_output_state(self):
        # the hashed state's distance from uniform, computed on the
        # assembled output of pa_output_state, matches pa_distance
        rng = np.random.default_rng(4)
        xs = range(4)
        p = rng.random(4)
        p /= p.sum()
        ops = tuple(random_density(1, rng).matrix for _ in range(4))
        st = CqState(tuple(xs), p, ops, 1)
        fam = HashFamily(2, 1, "linear")
        exact, _ = pa_distance(st, fam)
        out = pa_output_state(st, fam)
        # rebuild the ideal state: uniform Z (x) marginal per (f, u)
        real = defaultdict(lambda: (0.0, np.zeros((2, 2), dtype=complex)))
        for z, u, pv, op in zip(out.x, out.u, out.p, out.ops):
            real[(z, u)] = (pv, op)
        marg = defaultdict(lambda: np.zeros((2, 2), dtype=complex))
        for (z, u), (pv, op) in real.items():
            marg[u] = marg[u] + pv * op
        dist = 0.0
        for u in marg:
            for z in (0, 1):
                pv, op = real.get((z, u),
                                  (0.0, np.zeros((2, 2), dtype=complex)))
                dist += 0.5 * trace_norm(pv * op - marg[u] / 2.0)
        assert dist == pytest.approx(exact, abs=1e-10)


class TestQminRelPsdWitness:
    def test_lambda_is_the_psd_threshold(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            rho = random_density(2, rng).matrix
            sig = random_density(1, rng).matrix
            h = qmin_entropy_rel(rho, sig, 2)
            lam = 2.0 ** (-h)
            big = np.kron(np.eye(2), sig)
            assert np.linalg.eigvalsh(lam * big - rho).min() >= -1e-9
            shrunk = lam * (1 - 1e-6)
            assert np.linalg.eigvalsh(shrunk * big - rho).min() < 0
