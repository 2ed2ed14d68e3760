import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as hst

from bqsm.cqstate import (CqState, classical_lhl_distance, guess_within_ball,
                          helstrom_guess, pa_distance, pa_distance_slow,
                          pa_output_state, pgm_guess, qmin_entropy,
                          qmin_entropy_rel)
from bqsm.entropy import Distribution
from bqsm.errors import InputError
from bqsm.hashing import HashFamily
from bqsm.qstate import haar_unitary, prepare_bb84, random_density


def qubit(x, basis):
    return prepare_bb84(x, basis).density().matrix


def random_cq(rng, n_x, q, labels=None):
    xs = labels or range(n_x)
    p = rng.random(n_x)
    p /= p.sum()
    ops = tuple(random_density(q, rng).matrix if q else
                np.array([[1.0 + 0j]]) for _ in range(n_x))
    return CqState(tuple(xs), p, ops, q)


class TestQminEntropy:
    def test_fully_mixed_a(self):
        rng = np.random.default_rng(0)
        sig = random_density(1, rng).matrix
        rho = np.kron(np.eye(4) / 4, sig)
        assert qmin_entropy_rel(rho, sig, 2) == pytest.approx(2.0)

    def test_product_state(self):
        rng = np.random.default_rng(1)
        ra = random_density(2, rng).matrix
        sig = random_density(1, rng).matrix
        got = qmin_entropy_rel(np.kron(ra, sig), sig, 2)
        assert got == pytest.approx(-math.log2(
            np.linalg.eigvalsh(ra).max()))

    def test_classical_copy(self):
        # A classical copy of B: rho = sum_x 1/2 |x><x| (x) |x><x|
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = rho[3, 3] = 0.5
        sig = np.eye(2, dtype=complex) / 2
        assert qmin_entropy_rel(rho, sig, 2) == pytest.approx(0.0)

    def test_rank_deficient_sigma_rejected(self):
        rho = np.kron(np.eye(2) / 2, np.diag([0.5, 0.5])).astype(complex)
        sig = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(InputError):
            qmin_entropy_rel(rho, sig, 2)

    def test_trivial_e_equals_min_entropy(self):
        st = CqState.classical(Distribution(range(4),
                                            [0.4, 0.3, 0.2, 0.1]))
        lo, up = qmin_entropy(st)
        assert lo == pytest.approx(-math.log2(0.4))
        assert up == pytest.approx(-math.log2(0.4))

    def test_orthogonal_binary(self):
        st = CqState((0, 1), [0.5, 0.5],
                     (qubit("0", "+"), qubit("1", "+")), 1)
        lo, up = qmin_entropy(st)
        assert lo == pytest.approx(0.0)
        assert up == pytest.approx(0.0)

    def test_breitbart_binary_value(self):
        st = CqState((0, 1), [0.5, 0.5],
                     (qubit("0", "+"), qubit("0", "x")), 1)
        lo, up = qmin_entropy(st)
        want = -math.log2(math.cos(math.pi / 8) ** 2)
        assert lo == pytest.approx(want)
        assert up == pytest.approx(want)

    def test_binary_matches_measurement_grid(self):
        # Helstrom value vs brute-force optimization over qubit projective
        # measurements
        rng = np.random.default_rng(2)
        st = CqState((0, 1), [0.6, 0.4],
                     (random_density(1, rng).matrix,
                      random_density(1, rng).matrix), 1)
        exact = helstrom_guess(0.6, st.ops[0], 0.4, st.ops[1])
        best = 0.0
        for k in range(10_000):
            z = 1 - 2 * (k + 0.5) / 10_000
            phi = (math.pi * (3 - math.sqrt(5)) * k) % (2 * math.pi)
            v = np.array([math.cos(math.acos(z) / 2),
                          math.sin(math.acos(z) / 2)
                          * complex(math.cos(phi), math.sin(phi))])
            proj = np.outer(v, v.conj())
            p = 0.6 * np.trace(proj @ st.ops[0]).real \
                + 0.4 * np.trace((np.eye(2) - proj) @ st.ops[1]).real
            best = max(best, p, 1 - p)
        assert exact == pytest.approx(best, abs=1e-3)

    def test_sandwich_and_pgm(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            st = random_cq(rng, 4, 1)
            lo, up = qmin_entropy(st)
            assert lo <= up + 1e-9
            assert pgm_guess(st) <= 1.0 + 1e-12

    def test_drop_quantum_register(self):
        # H_min(rho_XUQ | rho_U) >= H_min(rho_XU | rho_U) on ccq fixtures
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = rng.random((2, 2))
            p /= p.sum()
            ops = [random_density(1, rng).matrix for _ in range(4)]
            d_q = 2
            rho_xuq = np.zeros((4 * d_q, 4 * d_q), dtype=complex)
            rho_xu = np.zeros((4, 4))
            for x in range(2):
                for u in range(2):
                    i = x * 2 + u
                    rho_xu[i, i] = p[x, u]
                    rho_xuq[i * d_q:(i + 1) * d_q, i * d_q:(i + 1) * d_q] \
                        = p[x, u] * ops[i]
            rho_u = np.diag(p.sum(axis=0)).astype(complex)
            # register order (X U Q) -> conditioning register is U; put it
            # last by viewing XQ x U: permute to (X Q U)
            perm = _permute_xuq_to_xqu(rho_xuq, 2, 2, d_q)
            h_with = qmin_entropy_rel(perm, rho_u, 2)
            h_without = qmin_entropy_rel(rho_xu.astype(complex), rho_u, 2)
            assert h_with >= h_without - 1e-9

    def test_chain_rule_lemma(self):
        # H_min(rho_XUE | sigma_U) - H_0(rho_E) <= H_min(.. | sigma_U x I/d)
        rng = np.random.default_rng(5)
        for _ in range(30):
            p = rng.random((2, 2))
            p /= p.sum()
            ops = [random_density(1, rng).matrix for _ in range(4)]
            d_e = 2
            rho = np.zeros((4 * d_e, 4 * d_e), dtype=complex)
            rho_e = np.zeros((d_e, d_e), dtype=complex)
            for x in range(2):
                for u in range(2):
                    i = x * 2 + u
                    rho[i * d_e:(i + 1) * d_e, i * d_e:(i + 1) * d_e] \
                        = p[x, u] * ops[i]
                    rho_e += p[x, u] * ops[i]
            sigma_u = np.diag(p.sum(axis=0)).astype(complex)
            rank = int((np.linalg.eigvalsh(rho_e) > 1e-9).sum())
            sigma_e = np.eye(d_e, dtype=complex) / d_e
            perm = _permute_xuq_to_xqu(rho, 2, 2, d_e)  # (X E U) order
            lhs = qmin_entropy_rel(perm, sigma_u, 2) - math.log2(rank)
            # conditioning on U (x) E: arrange as X x (U E)
            rhs = qmin_entropy_rel(rho, np.kron(sigma_u, sigma_e), 4)
            assert lhs <= rhs + 1e-9


def _permute_xuq_to_xqu(rho, d_x, d_u, d_q):
    d = d_x * d_u * d_q
    t = rho.reshape(d_x, d_u, d_q, d_x, d_u, d_q)
    t = np.transpose(t, (0, 2, 1, 3, 5, 4))
    return t.reshape(d, d)


class TestPrivacyAmplification:
    def test_uniform_x_exact_value(self):
        # the zero-matrix member keeps the exact distance at 2^-(n+1) for
        # l = 1; the bound of course still dominates
        for n in (3, 4):
            st = CqState.classical(Distribution.uniform(
                range(1 << n)))
            exact, bound = pa_distance(st, HashFamily(n, 1, "linear"))
            assert exact == pytest.approx(2.0 ** -(n + 1))
            assert exact <= bound

    def test_bound_holds_with_quantum_memory(self):
        rng = np.random.default_rng(6)
        for q in (0, 1, 2):
            st = random_cq(rng, 8, q, range(8))
            exact, bound = pa_distance(st, HashFamily(3, 1, "linear"))
            assert exact <= bound + 1e-9

    def test_smoothing_parameter_enters_bound(self):
        st = CqState.classical(Distribution.uniform(
            range(8)))
        fam = HashFamily(3, 1, "linear")
        e0, b0 = pa_distance(st, fam, 0.0)
        e1, b1 = pa_distance(st, fam, 0.1)
        assert e0 == e1  # exact value independent of the analysis knob
        # smoothing uniform-8 by 0.1 lifts the entropy to -log2(0.9/8)
        h_eps = -math.log2(0.9 / 8)
        assert b1 == pytest.approx(0.5 * 2 ** (-0.5 * (h_eps - 1)) + 0.1)

    def test_invariant_under_relabeling_and_rotation(self):
        rng = np.random.default_rng(7)
        st = random_cq(rng, 4, 1, range(4))
        fam = HashFamily(2, 1, "linear")
        base, _ = pa_distance(st, fam)
        # conjugate E by a fixed unitary
        u = haar_unitary(2, rng)
        st_rot = CqState(st.x, st.p,
                         tuple(u @ op @ u.conj().T for op in st.ops),
                         st.q, st.u)
        rot, _ = pa_distance(st_rot, fam)
        assert rot == pytest.approx(base)
        # relabel X by a fixed XOR (linear families are XOR-covariant)
        perm = [xv ^ 3 for xv in st.x]
        st_perm = CqState(tuple(perm), st.p, st.ops, st.q, st.u)
        permuted, _ = pa_distance(st_perm, fam)
        assert permuted == pytest.approx(base)

    def test_output_state_matches_hand_assembly(self):
        xs = [0, 1]
        ops = (qubit("0", "+"), qubit("0", "x"))
        st = CqState(tuple(xs), np.array([0.5, 0.5]), ops, 1)
        fam = HashFamily(1, 1, "linear")
        out = pa_output_state(st, fam)
        # member 0 is the zero map: z = 0 with the averaged op; member 1 is
        # the identity: z = x
        total = sum(out.p)
        assert total == pytest.approx(1.0)
        zero_members = [i for i, u in enumerate(out.u)
                        if out.labels[u][0] == 0]
        assert sum(out.p[i] for i in zero_members) == pytest.approx(0.5)

    def test_classical_lhl_cases(self):
        n = 4
        fam1 = HashFamily(n, 1, "linear")
        fam2 = HashFamily(n, 2, "linear")
        # uniform over an affine subspace of dimension k
        for k in (2, 3):
            idx = [v for v in range(1 << n)
                   if all(((v >> b) & 1) == 0 for b in range(n - k))]
            mass = np.zeros(1 << n)
            mass[idx] = 1.0 / len(idx)
            d = Distribution(range(1 << n), mass)
            for fam in (fam1, fam2):
                exact, bound = classical_lhl_distance(d, fam)
                assert exact <= bound + 1e-12
                assert bound == pytest.approx(
                    0.5 * 2 ** (-0.5 * (k - fam.ell)))

    def test_point_mass_lhl(self):
        d = Distribution.point(range(8), 0)
        exact, bound = classical_lhl_distance(d, HashFamily(3, 1, "linear"))
        # every member maps the point somewhere: conditional on f the output
        # is deterministic, so the distance is exactly 1/2
        assert exact == pytest.approx(0.5)
        assert bound == pytest.approx(0.5 * 2 ** 0.5)


def _pa_case(draw_seed, n, q, groups):
    """Random cq-state over packed n-bit x with `groups` u-values: each u
    keeps a random subset of the x values, and about a fifth of the kept
    entries have probability zero."""
    rng = np.random.default_rng(draw_seed)
    xs, us, ps, ops = [], [], [], []
    for u in range(groups):
        for x in range(1 << n):
            if rng.random() < 0.3 and len(xs) > 0:
                continue
            xs.append(x)
            us.append(f"u{u}")
            ps.append(0.0 if rng.random() < 0.2 else rng.random())
            ops.append(random_density(q, rng).matrix if q
                       else np.array([[1.0 + 0j]]))
    p = np.asarray(ps)
    p[0] += 0.1
    return CqState(tuple(xs), p / p.sum(), tuple(ops), q, tuple(us))


class TestRowSpaceAverage:
    """The row-space class average against the member-by-member oracles."""

    @settings(max_examples=30, deadline=None)
    @given(hst.integers(0, 2 ** 32), hst.integers(1, 4), hst.integers(1, 3),
           hst.integers(0, 1), hst.integers(1, 3),
           hst.sampled_from(["linear", "affine"]))
    @example(3, 1, 3, 1, 2, "linear")
    @example(4, 2, 3, 0, 3, "affine")
    @example(3, 3, 3, 1, 3, "affine")
    @example(5, 4, 3, 1, 1, "linear")
    def test_pa_distance_matches_slow_oracle(self, seed, n, ell, q, groups,
                                             kind):
        fam = HashFamily(n, ell, kind)
        assume(fam.size <= 1 << 12)
        st = _pa_case(seed, n, q, groups)
        fast = pa_distance(st, fam, 0.05)
        slow = pa_distance_slow(st, fam, 0.05)
        assert fast[0] == pytest.approx(slow[0], abs=1e-12, rel=0)
        assert fast[1] == slow[1]

    @settings(max_examples=30, deadline=None)
    @given(hst.integers(0, 2 ** 32), hst.integers(1, 4), hst.integers(1, 3),
           hst.sampled_from(["linear", "affine"]))
    @example(1, 1, 3, "linear")
    @example(2, 4, 3, "linear")
    def test_classical_lhl_matches_member_loop(self, seed, n, ell, kind):
        fam = HashFamily(n, ell, kind)
        assume(fam.size <= 1 << 14)
        rng = np.random.default_rng(seed)
        mass = rng.random(1 << n) * (rng.random(1 << n) < 0.7)
        mass[0] += 0.1
        mass /= mass.sum()
        dist = Distribution(range(1 << n), mass)
        terms = []
        for member in fam.members():
            hist = np.zeros(1 << ell)
            for x, pv in enumerate(mass):
                hist[fam.eval(member, x)] += pv
            terms.append(0.5 * np.abs(hist - 1.0 / (1 << ell)).sum())
        want = math.fsum(terms) / fam.size
        exact, _ = classical_lhl_distance(dist, fam)
        assert exact == pytest.approx(want, abs=1e-12, rel=0)


class TestGuessWithinBall:
    def test_ball_covering_everything(self):
        st = CqState.classical(Distribution.uniform(
            range(8)))
        success, bound = guess_within_ball(
            st, lambda u: [(np.array([[1.0]]), 0b000)], 3, 1.0)
        assert success == pytest.approx(1.0)

    def test_uniform_point_guess(self):
        st = CqState.classical(Distribution.uniform(
            range(8)))
        success, bound = guess_within_ball(
            st, lambda u: [(np.array([[1.0]]), 0b000)], 3, 0.0)
        assert success == pytest.approx(1 / 8)
        assert success <= bound

    def test_quantum_guess_bounded(self):
        rng = np.random.default_rng(8)
        xs = range(4)
        ops = tuple(qubit(str(xv >> 1), "x" if xv & 1 else "+")
                    for xv in xs)
        st = CqState(tuple(xs), np.full(4, 0.25), ops, 1)

        def strategy(u):
            plus = single_qubit_projectors("+")
            return [(plus[0], 0b00), (plus[1], 0b10)]

        success, bound = guess_within_ball(st, strategy, 2, 0.26)
        assert success <= bound + 1e-9

    def test_wrong_length_guess_is_refused(self):
        st = CqState.classical(Distribution.uniform(
            range(8)))
        with pytest.raises(InputError):
            guess_within_ball(st, lambda u: [(np.array([[1.0]]), 0b1000)],
                              3, 1.0)


def single_qubit_projectors(basis):
    from bqsm.qstate import SINGLE_QUBIT_BASES
    m = SINGLE_QUBIT_BASES[basis]
    return [np.outer(m[:, j], m[:, j].conj()) for j in range(2)]


class TestCqStateHousekeeping:
    def test_assemble_trivial_e(self):
        st = CqState.classical(Distribution([0, 1], [0.3, 0.7]))
        rho = st.assemble()
        assert np.allclose(rho.matrix, np.diag([0.3, 0.7]))

    def test_assemble_classical_copy(self):
        st = CqState((0, 1), [0.5, 0.5],
                     (qubit("0", "+"), qubit("1", "+")), 1)
        rho = st.assemble()
        want = np.zeros((4, 4))
        want[0, 0] = want[3, 3] = 0.5
        assert np.allclose(rho.matrix, want)

    def test_validation(self):
        with pytest.raises(InputError):
            CqState((0, 0), [0.5, 0.5],
                    (np.eye(1, dtype=complex),) * 2, 0)
        with pytest.raises(InputError):
            CqState((0, 1), [0.5, 0.6],
                    (np.eye(1, dtype=complex),) * 2, 0)
