import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hst

from bqsm.errors import CapacityError, InputError
from bqsm.qstate import (SINGLE_QUBIT_BASES, Basis, DensityOperator,
                         PureState, batched_trace_norm, bell_basis,
                         haar_state, haar_unitary, measure,
                         measure_per_qubit, operator_norm, partial_trace,
                         prepare_bb84, product_basis_matrix, projector_onto,
                         random_density, rank1_trace_norm, single_qubit_basis,
                         tensor, trace_distance, trace_norm)

SQ2 = 1 / math.sqrt(2)


def epr_pair():
    return PureState(np.array([1, 0, 0, 1]) / math.sqrt(2))


class TestTypes:
    def test_pure_state_norm_enforced(self):
        with pytest.raises(InputError):
            PureState([1.0, 1.0])
        PureState([SQ2, SQ2])

    def test_pure_state_power_of_two(self):
        with pytest.raises(InputError):
            PureState([1.0, 0.0, 0.0])

    def test_capacity(self):
        with pytest.raises(CapacityError):
            PureState(np.zeros(2 ** 15))

    def test_density_invariants(self):
        with pytest.raises(InputError):
            DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))
        with pytest.raises(InputError):
            DensityOperator(np.array([[0.7, 0], [0, 0.7]]))
        with pytest.raises(InputError):
            DensityOperator(np.array([[1.5, 0], [0, -0.5]]))

    def test_basis_orthonormality(self):
        with pytest.raises(InputError):
            Basis("bad", np.array([[1, 1], [0, 0]], dtype=complex))


class TestPrepareAndMeasure:
    def test_bb84_single_qubit_states(self):
        assert np.allclose(prepare_bb84("0", "+").amplitudes, [1, 0])
        assert np.allclose(prepare_bb84("1", "x").amplitudes, [SQ2, -SQ2])

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            prepare_bb84("01", "+")

    def test_measuring_in_preparation_basis_recovers(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            x = "".join(rng.choice(["0", "1"], n))
            theta = "".join(rng.choice(["+", "x"], n))
            st = prepare_bb84(x, theta)
            probs = measure_per_qubit(st, list(theta))
            assert probs[int(x, 2)] == pytest.approx(1.0)

    def test_second_qubit_unbiased(self):
        st = prepare_bb84("01", "+x")
        probs = measure_per_qubit(st, ["+", "+"])
        assert probs[0] == pytest.approx(0.5)
        assert probs[1] == pytest.approx(0.5)

    def test_measure_examples(self):
        rho0 = prepare_bb84("0", "+").density()
        d = measure(rho0, single_qubit_basis("+"))
        assert d.p(0) == pytest.approx(1.0)
        d = measure(rho0, single_qubit_basis("x"))
        assert d.p(0) == pytest.approx(0.5)
        mixed = DensityOperator.maximally_mixed(2)
        d = measure(mixed, Basis("+x", product_basis_matrix(["+", "x"])))
        assert np.allclose(np.asarray(d.mass, float), 0.25)

    def test_measure_distributions_normalized(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            rho = random_density(n, rng)
            basis = Basis("haar", haar_unitary(2 ** n, rng))
            d = measure(rho, basis)
            m = np.asarray(d.mass, float)
            assert (m >= 0).all()
            assert m.sum() == pytest.approx(1.0, abs=1e-9)

    def test_per_qubit_point_mass(self):
        st = prepare_bb84("101", "x+x")
        for state in (st, st.density()):
            probs = measure_per_qubit(state, ["x", "+", "x"])
            assert probs[0b101] == pytest.approx(1.0)

    def test_epr_half_uniform(self):
        red = partial_trace(epr_pair().density(), [1])
        for theta in (["+"], ["x"], ["circ"]):
            assert np.allclose(measure_per_qubit(red, theta), 0.5)

    @settings(max_examples=150, deadline=None)
    @given(hst.integers(0, 2 ** 32), hst.booleans(), hst.data())
    def test_per_qubit_matches_kronecker_oracle(self, seed, mixed, data):
        # the wire-by-wire rotation against the Born rule in the explicit
        # 2^n x 2^n product basis, for pure and mixed states
        n = data.draw(hst.integers(1, 5))
        labels = hst.sampled_from(sorted(SINGLE_QUBIT_BASES))
        theta = data.draw(hst.lists(labels, min_size=n, max_size=n))
        rng = np.random.default_rng(seed)
        state = random_density(n, rng, int(rng.integers(1, 2 ** n + 1))) \
            if mixed else haar_state(n, rng)
        rho = state if mixed else state.density()
        oracle = measure(rho, Basis("", product_basis_matrix(theta)))
        np.testing.assert_allclose(measure_per_qubit(state, theta),
                                   np.asarray(oracle.mass, float),
                                   rtol=0, atol=1e-12)

    def test_invariant_state_probability(self):
        n = 4
        amp = np.zeros(2 ** n)
        amp[0] = 1.0
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        hn = h
        for _ in range(n - 1):
            hn = np.kron(hn, h)
        phi = amp + hn @ amp
        st = PureState(phi / np.linalg.norm(phi))
        probs = measure_per_qubit(st, ["+"] * n)
        assert probs[0] == pytest.approx((1 + 2 ** (-n / 2)) / 2)


class TestComposition:
    def test_tensor_states(self):
        st = tensor(prepare_bb84("0", "+"), prepare_bb84("1", "+"))
        assert np.allclose(st.amplitudes, [0, 1, 0, 0])

    def test_tensor_operators(self):
        got = tensor(DensityOperator.maximally_mixed(1),
                     DensityOperator.maximally_mixed(1))
        assert np.allclose(got.matrix, np.eye(4) / 4)

    def test_tensor_diagonal_states(self):
        st = tensor(prepare_bb84("0", "x"), prepare_bb84("0", "x"))
        assert np.allclose(st.amplitudes, 0.5)

    def test_partial_trace_product(self):
        a = random_density(1, np.random.default_rng(4))
        b = random_density(1, np.random.default_rng(5))
        joint = tensor(a, b)
        assert np.allclose(partial_trace(joint, [0]).matrix, a.matrix)
        assert np.allclose(partial_trace(joint, [1]).matrix, b.matrix)

    def test_partial_trace_ghz(self):
        ghz = PureState(np.r_[1, np.zeros(6), 1] / math.sqrt(2))
        assert np.allclose(partial_trace(ghz.density(), [0]).matrix,
                           np.eye(2) / 2)

    def test_empty_keep_rejected(self):
        with pytest.raises(InputError):
            partial_trace(DensityOperator.maximally_mixed(2), [])


class TestDistances:
    def test_self_distance_zero(self):
        rho = random_density(2, np.random.default_rng(6))
        assert trace_distance(rho, rho) == pytest.approx(0.0)

    def test_orthogonal_states(self):
        a = prepare_bb84("0", "+").density()
        b = prepare_bb84("1", "+").density()
        assert trace_distance(a, b) == pytest.approx(1.0)

    def test_pure_vs_mixed(self):
        a = prepare_bb84("0", "+").density()
        assert trace_distance(a, DensityOperator.maximally_mixed(1)) \
            == pytest.approx(0.5)

    def test_triangle_and_symmetry(self):
        rng = np.random.default_rng(7)
        a, b, c = (random_density(2, rng) for _ in range(3))
        assert trace_distance(a, b) == pytest.approx(trace_distance(b, a))
        assert trace_distance(a, c) <= trace_distance(a, b) \
            + trace_distance(b, c) + 1e-9

    def test_monotone_under_partial_trace(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            a = random_density(3, rng)
            b = random_density(3, rng)
            full = trace_distance(a, b)
            red = trace_distance(partial_trace(a, [0, 2]),
                                 partial_trace(b, [0, 2]))
            assert red <= full + 1e-9

    @settings(max_examples=200, deadline=None)
    @given(hst.integers(0, 2 ** 32), hst.integers(1, 16),
           hst.sampled_from(["random", "zero_a", "zero_b", "zero_both",
                             "equal", "near"]), hst.booleans())
    @example(0, 1, "near", False)
    @example(1, 16, "near", False)
    @example(2, 5, "zero_a", False)
    @example(3, 7, "equal", False)
    @example(0, 1, "near", True)
    @example(1, 16, "near", True)
    @example(4, 9, "random", True)
    def test_rank1_trace_norm_matches_eigvalsh(self, seed, d, case, real):
        # the closed form against the eigenvalues of the explicit
        # difference of outer products, including nearly parallel vectors,
        # on complex128 and on float64 vectors (the dense engine's real
        # strategies)
        rng = np.random.default_rng(seed)

        def vec():
            if real:
                return rng.normal(size=d)
            return rng.normal(size=d) + 1j * rng.normal(size=d)

        a, b = vec(), vec()
        if case in ("zero_a", "zero_both"):
            a[:] = 0
        if case in ("zero_b", "zero_both"):
            b[:] = 0
        if case == "equal":
            b = a.copy()
        if case == "near":
            b = a + 1e-9 * vec()
        want = trace_norm(np.outer(a, a.conj()) - np.outer(b, b.conj()))
        assert rank1_trace_norm(a, b) == pytest.approx(want, abs=1e-12,
                                                       rel=0)
        # rows of a stack are independent
        both = rank1_trace_norm(np.stack([a, b]), np.stack([b, a]))
        assert both == pytest.approx([want, want], abs=1e-12, rel=0)

    @settings(max_examples=200, deadline=None)
    @given(hst.integers(0, 2 ** 32), hst.integers(1, 6), hst.integers(1, 40),
           hst.booleans(),
           hst.sampled_from(["contiguous", "fwht", "matrix-major",
                             "strided", "transposed"]),
           hst.lists(hst.sampled_from(["zero", "diagonal", "sparse",
                                       "full"]), min_size=1, max_size=4))
    @example(0, 4, 12, True, "matrix-major", ["diagonal", "zero"])
    @example(0, 4, 40, False, "fwht", ["diagonal", "zero"])
    @example(1, 3, 30, False, "strided", ["sparse"])
    def test_batched_trace_norm_matches_eigvalsh(self, seed, d, count, real,
                                                 layout, kinds):
        # stacks mixing zero, diagonal and (partly) full Hermitian
        # matrices, real or complex, in several memory layouts: the
        # closed forms and the diagonal shortcut against the eigenvalues
        # of every matrix
        rng = np.random.default_rng(seed)
        stack = np.zeros((count, d, d), dtype=float if real else complex)
        for m, kind in zip(stack, rng.choice(kinds, count)):
            g = rng.normal(size=(d, d))
            if not real:
                g = g + 1j * rng.normal(size=(d, d))
            h = (g + g.conj().T) / 2
            if kind == "diagonal":
                h = np.diag(np.diag(h).real)
            elif kind == "sparse":
                keep = np.triu(rng.random((d, d)) < 0.5, 1)
                h = np.where(keep | keep.T | np.eye(d, dtype=bool), h, 0)
            m[...] = 0 if kind == "zero" else h
        stack = stack.reshape(2 - count % 2, -1, d, d)
        if layout == "fwht":   # batch axes permuted, as fwht leaves them
            stack = np.moveaxis(np.moveaxis(stack, 1, 0).copy(), 0, 1)
        elif layout == "matrix-major":
            stack = np.moveaxis(np.moveaxis(stack, -1, 0).copy(), 0, -1)
            stack = np.moveaxis(np.moveaxis(stack, -2, 0).copy(), 0, -2)
        elif layout == "strided":
            stack = np.repeat(stack, 2, axis=0)[::2]
        elif layout == "transposed":   # the same Hermitian matrices
            stack = stack.swapaxes(-1, -2).conj()
        want = float(np.abs(np.linalg.eigvalsh(stack)).sum())
        got = batched_trace_norm(stack)
        assert got == pytest.approx(want, abs=1e-12, rel=0)
        if d >= 3 and set(kinds) <= {"zero", "diagonal"}:
            assert got == want

    def test_operator_norm_basics(self):
        assert operator_norm(np.eye(5)) == pytest.approx(1.0)
        rng = np.random.default_rng(9)
        u = haar_unitary(8, rng)
        proj = projector_onto(u[:, :3])
        assert operator_norm(proj) == pytest.approx(1.0)

    def test_two_projector_norm_inequality(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            u, v = haar_unitary(8, rng), haar_unitary(8, rng)
            a = projector_onto(u[:, :int(rng.integers(1, 5))])
            b = projector_onto(v[:, :int(rng.integers(1, 5))])
            assert operator_norm(a + b) \
                <= 1 + operator_norm(a @ b) + 1e-9

    def test_multi_projector_norm_inequality(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            count = int(rng.integers(3, 6))
            projs = [projector_onto(haar_unitary(8, rng)[:, :2])
                     for _ in range(count)]
            lhs = operator_norm(sum(projs))
            worst = max(operator_norm(projs[i] @ projs[j])
                        for i in range(count) for j in range(i + 1, count))
            assert lhs <= 1 + (count - 1) * worst + 1e-9


class TestBellAndBases:
    def test_bell_point_mass(self):
        bl = bell_basis()
        for j in range(4):  # phi+, psi+, phi-, psi-
            rho = DensityOperator(
                np.outer(bl.vector(j), bl.vector(j).conj()), check=False)
            assert measure(rho, bl).p(j) == pytest.approx(1.0)

    def test_receiver_halves_uniform(self):
        # two EPR pairs; receiver holds qubits (1, 3): reduced state I/4
        pair = epr_pair()
        joint = tensor(pair, pair)
        red = partial_trace(joint.density(), [1, 3])
        d = measure(red, bell_basis())
        assert np.allclose(np.asarray(d.mass, float), 0.25)

    def test_bell_xor_prediction(self):
        # measuring |psi+> in ++ gives XOR 1, in xx gives XOR 0
        bl = bell_basis()
        psi_plus = DensityOperator(
            np.outer(bl.vector(1), bl.vector(1).conj()), check=False)
        p_plus = measure_per_qubit(psi_plus, ["+", "+"])
        for outcome in (0b01, 0b10):
            assert p_plus[outcome] == pytest.approx(0.5)
        p_times = measure_per_qubit(psi_plus, ["x", "x"])
        for outcome in (0b00, 0b11):
            assert p_times[outcome] == pytest.approx(0.5)

    def test_circular_basis_vectors(self):
        circ = single_qubit_basis("circ")
        assert np.allclose(circ.vector(0), [SQ2, 1j * SQ2])
        assert np.allclose(circ.vector(1), [SQ2, -1j * SQ2])
