import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hst

from bqsm.classical_ot import (OtOutputDistribution, UotChannel,
                               _linear_distances, construct_pointer,
                               min_pointer_epsilon_lp,
                               ndlf_security_distance, one_of_n_condition,
                               reduce_ot_from_uot,
                               sender_security_of_extension,
                               splitting_reduction, xor_uniformity)
from bqsm.errors import CapacityError, InputError, PromiseViolation
from bqsm.hashing import enumerate_ndlf


def count_table(rng, shape):
    """Unnormalized integer counts, on which the XOR distance and the
    pointer extension are exact (see the `classical_ot` docstring)."""
    num = rng.integers(0, 7, size=int(np.prod(shape)))
    if num.sum() == 0:
        num[0] = 1
    return num.reshape(shape)


class TestXorCriterion:
    def test_worked_example_after_the_theorem(self):
        m = np.zeros((2, 2, 2))
        m[0, 0, 0] = m[1, 1, 1] = 0.25
        m[0, 1, 0] = m[0, 1, 1] = m[1, 0, 0] = m[1, 0, 1] = 0.125
        assert xor_uniformity(OtOutputDistribution(m, 1)) == 0

    def test_equal_bits_no_output(self):
        m = np.zeros((2, 2, 1))
        m[0, 0, 0] = m[1, 1, 0] = 0.5
        assert xor_uniformity(OtOutputDistribution(m, 1)) \
            == pytest.approx(0.5)

    def test_independent_uniform(self):
        m = np.full((2, 2, 1), 0.25)
        assert xor_uniformity(OtOutputDistribution(m, 1)) == 0

    def test_requires_bits(self):
        with pytest.raises(InputError):
            xor_uniformity(OtOutputDistribution(np.full((4, 4, 1), 1 / 16),
                                                2))


class TestNdlfDistance:
    def test_ideal_transcript_zero(self):
        # receiver knows S_C for a random C; W = (c, s_c)
        m = np.zeros((4, 4, 8))
        for s0 in range(4):
            for s1 in range(4):
                m[s0, s1, s0] += 1 / 32          # c = 0 branch
                m[s0, s1, 4 + s1] += 1 / 32      # c = 1 branch
        nd, _ = ndlf_security_distance(OtOutputDistribution(m, 2))
        assert nd == pytest.approx(0.0, abs=1e-15)

    def test_bitwise_xor_leak(self):
        m = np.zeros((4, 4, 4))
        for s0 in range(4):
            for s1 in range(4):
                m[s0, s1, s0 ^ s1] = 1 / 16
        nd, beta = ndlf_security_distance(OtOutputDistribution(m, 2))
        assert nd == pytest.approx(0.5)
        assert beta.a0 == beta.a1

    def test_half_and_half_leak(self):
        # W = (first bit of S0, second bit of S1)
        m = np.zeros((4, 4, 4))
        for s0 in range(4):
            for s1 in range(4):
                w = ((s0 >> 1) << 1) | (s1 & 1)
                m[s0, s1, w] = 1 / 16
        nd, beta = ndlf_security_distance(OtOutputDistribution(m, 2))
        assert nd == pytest.approx(0.5)
        assert beta.a0 == 0b10 and beta.a1 == 0b01


def _sign_vector(mask: int, ell: int) -> np.ndarray:
    """(-1)^{<mask, s>} over all s, as ints."""
    return np.array([1 - 2 * (bin(mask & s).count("1") & 1)
                     for s in range(1 << ell)])


def beta_distance_oracle(mass, beta):
    """The sign-vector sum that `_linear_distances` replaced: 1/2 sum_w
    |sum_{s0,s1} (-1)^beta mass|, one NDLF at a time."""
    u = _sign_vector(beta.a0, beta.ell)
    v = _sign_vector(beta.a1, beta.ell)
    tot = 0
    for w in range(mass.shape[2]):
        tot += abs((u[:, None] * v[None, :] * mass[:, :, w]).sum())
    return tot / 2


class TestLinearDistances:
    @settings(max_examples=40, deadline=None)
    @given(hst.integers(1, 3), hst.integers(1, 4), hst.integers(0, 2 ** 32),
           hst.booleans())
    @example(2, 3, 0, True)
    @example(3, 2, 1, False)
    def test_one_transform_matches_sign_vectors(self, ell, n_w, seed,
                                                counts):
        # on integer counts every sum is exact, so ties are exact too and
        # the first maximiser in enumerate_ndlf order must agree
        rng = np.random.default_rng(seed)
        shape = (1 << ell, 1 << ell, n_w)
        m = rng.integers(0, 3, shape).astype(float) if counts \
            else rng.random(shape)
        m[0, 0, 0] += 1
        table = _linear_distances(m)
        for beta in enumerate_ndlf(ell):
            assert table[beta.a0, beta.a1] == pytest.approx(
                beta_distance_oracle(m, beta), abs=1e-12, rel=0)
        got, got_beta = ndlf_security_distance(
            OtOutputDistribution(m, ell, normalized=False))
        want, want_beta = max(((beta_distance_oracle(m, b), b)
                               for b in enumerate_ndlf(ell)),
                              key=lambda vb: vb[0])
        assert got == pytest.approx(want, abs=1e-12, rel=0)
        if counts:
            assert got == want and got_beta == want_beta

    @settings(max_examples=20, deadline=None)
    @given(hst.integers(2, 4), hst.integers(1, 2), hst.integers(0, 2 ** 32))
    def test_one_of_n_matches_sign_vectors(self, n, ell, seed):
        rng = np.random.default_rng(seed)
        m = rng.random((1 << ell,) * n + (2,))
        m /= m.sum()
        want = 0
        for i, j in itertools.permutations(range(n), 2):
            rest = [k for k in range(n) if k not in (i, j)]
            t = np.transpose(m, [i, j] + rest + [n]).reshape(
                1 << ell, 1 << ell, -1)
            want = max([want] + [beta_distance_oracle(t, b)
                                 for b in enumerate_ndlf(ell)])
        worst, _ = one_of_n_condition(m, ell, 0.1)
        assert worst == pytest.approx(want, abs=1e-12, rel=0)


class TestConstructPointer:
    def test_figure_extension_exact(self):
        a, b, c, d = 0.1, 0.2, 0.3, 0.4    # a <= b, a + d = b + c
        m = np.zeros((2, 2, 1))
        m[0, 0, 0], m[0, 1, 0], m[1, 0, 0], m[1, 1, 0] = a, b, c, d
        pe = construct_pointer(OtOutputDistribution(m, 1))
        assert pe.epsilon == pytest.approx(0.0, abs=1e-14)
        assert np.allclose(pe.extended[:, :, 0, 0].astype(float),
                           [[a, a], [c, c]])
        assert np.allclose(pe.extended[:, :, 1, 0].astype(float),
                           [[0, b - a], [0, b - a]])

    def test_perfect_l2_fixture(self):
        # product of independent S0, S1 with any W marginal solves the
        # equation system exactly
        rng = np.random.default_rng(0)
        pw = rng.random(3)
        pw /= pw.sum()
        m = np.einsum("i,j,w->ijw", np.full(4, 0.25), np.full(4, 0.25), pw)
        pe = construct_pointer(OtOutputDistribution(m, 2))
        assert pe.epsilon == pytest.approx(0.0, abs=1e-14)

    def test_marginal_recovered_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            counts = count_table(rng, (2, 2, 2))
            dist = OtOutputDistribution(counts, 1, normalized=False)
            pe = construct_pointer(dist)
            assert (pe.extended.sum(axis=2) == counts).all()

    def test_iff_characterization_rational(self):
        rng = np.random.default_rng(2)
        zero_seen = nonzero_seen = 0
        for trial in range(2000):
            if trial % 2 == 0:
                counts = count_table(rng, (2, 2, 2))
            else:
                counts = _balanced_counts(rng, 2)
                if counts is None:
                    continue
            dist = OtOutputDistribution(counts, 1, normalized=False)
            x = xor_uniformity(dist)
            pe = construct_pointer(dist)
            assert (x == 0) == (pe.epsilon == 0)
            assert x <= pe.epsilon
            zero_seen += x == 0
            nonzero_seen += x != 0
        assert zero_seen > 100 and nonzero_seen > 100

    def test_perturbation_budget(self):
        rng = np.random.default_rng(3)
        for ell, trials in ((1, 300), (2, 60)):
            size = 1 << ell
            factor = 1 << (2 * ell + 1)
            for _ in range(trials):
                nw = int(rng.integers(1, 4))
                base = np.full((size, size, nw), 1.0 / (size * size * nw))
                m = np.clip(base + rng.normal(
                    scale=0.05 / (size * size * nw), size=base.shape),
                    1e-9, None)
                m /= m.sum()
                dist = OtOutputDistribution(m, ell)
                nd, _ = ndlf_security_distance(dist)
                pe = construct_pointer(dist)
                assert pe.epsilon <= factor * nd + 1e-12

    def test_extension_distance_matches_cell_loop(self):
        # the cell-by-cell sum the array form replaced
        rng = np.random.default_rng(6)
        for size, nw in ((2, 1), (2, 3), (4, 2), (8, 1)):
            ext = rng.random((size, size, 2, nw))
            ext /= ext.sum()
            want = 0.0
            for d, keep in ((0, 0), (1, 1)):
                m = ext[:, :, d, :]
                marg = m.sum(axis=1 - keep)
                for s_keep in range(size):
                    for w in range(nw):
                        for s_other in range(size):
                            cell = m[s_keep, s_other, w] if keep == 0 \
                                else m[s_other, s_keep, w]
                            want += abs(cell - marg[s_keep, w] / size)
            assert sender_security_of_extension(ext) == pytest.approx(
                want / 2, abs=1e-12, rel=0)

    def test_lp_oracle_never_beaten_much(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            m = rng.random((2, 2, 2))
            m /= m.sum()
            dist = OtOutputDistribution(m, 1)
            lp = min_pointer_epsilon_lp(dist)
            pe = construct_pointer(dist)
            assert lp <= pe.epsilon + 1e-9
            # at l=1 the theorem makes the xor distance the exact optimum
            assert lp == pytest.approx(float(xor_uniformity(dist)),
                                       abs=1e-8)

    def test_necessity_direction(self):
        # any valid extension bounds every NDLF distance by its epsilon
        rng = np.random.default_rng(5)
        for _ in range(200):
            ext = rng.random((2, 2, 2, 2))
            ext /= ext.sum()
            eps = sender_security_of_extension(ext)
            m = ext.sum(axis=2)
            dist = OtOutputDistribution(m, 1)
            nd, _ = ndlf_security_distance(dist)
            assert nd <= eps + 1e-12


def _balanced_counts(rng, nw):
    """XOR-balanced counts (a + d = b + c per w), or None if unusable."""
    counts = np.zeros((2, 2, nw), dtype=int)
    for w in range(nw):
        a, b, c = (int(v) for v in rng.integers(0, 5, 3))
        d = b + c - a
        if d < 0:
            return None
        counts[:, :, w] = [[a, b], [c, d]]
    return counts if counts.sum() else None


class TestOneOfN:
    def test_ideal_one_of_three(self):
        m = np.zeros((2, 2, 2, 6))
        for c in range(3):
            for s in range(8):
                bits = [(s >> 2) & 1, (s >> 1) & 1, s & 1]
                m[bits[0], bits[1], bits[2], c * 2 + bits[c]] += 1 / 24
        worst, ok = one_of_n_condition(m, 1, epsilon=1e-6)
        assert worst == pytest.approx(0.0, abs=1e-15) and ok

    def test_three_way_xor_fails(self):
        m = np.zeros((2, 2, 2, 2))
        for s in range(8):
            bits = [(s >> 2) & 1, (s >> 1) & 1, s & 1]
            m[bits[0], bits[1], bits[2],
              bits[0] ^ bits[1] ^ bits[2]] += 1 / 8
        worst, ok = one_of_n_condition(m, 1, epsilon=0.1)
        assert worst == pytest.approx(0.5) and not ok

    def test_know_one_string_is_ideal(self):
        # learning exactly S_1 is the D=1 ideal behaviour: every pairwise
        # condition passes, since fixing <a, S_1> leaves the other mask's
        # contribution uniform
        m = np.zeros((2, 2, 2, 2))
        for s in range(8):
            bits = [(s >> 2) & 1, (s >> 1) & 1, s & 1]
            m[bits[0], bits[1], bits[2], bits[1]] += 1 / 8
        worst, ok = one_of_n_condition(m, 1, epsilon=1e-6)
        assert worst == pytest.approx(0.0, abs=1e-15) and ok

    def test_capacity(self):
        with pytest.raises(CapacityError):
            one_of_n_condition(np.full((2,) * 5 + (1,), 1 / 32), 1, 0.1)


class TestUotReductions:
    def test_honest_receiver(self):
        rec = reduce_ot_from_uot(6, 1, 0.5, UotChannel.honest(6, 0))
        assert rec["promise_ok"] and rec["pass"]
        # only the zero-matrix hash member leaks: exact 2^-(n+1)
        assert rec["ndlf_distance"] == pytest.approx(2.0 ** -7)

    def test_xor_adversary(self):
        rec = reduce_ot_from_uot(6, 1, 0.5, UotChannel.xor(6))
        assert rec["promise_ok"] and rec["pass"]
        assert rec["h2_measured"] == pytest.approx(6.0)

    def test_erasure_promise_rejected(self):
        ch = UotChannel.erasure(3, 0.5)
        with pytest.raises(PromiseViolation):
            reduce_ot_from_uot(3, 1, 0.5, ch)
        rec = reduce_ot_from_uot(3, 1, 0.5, ch, force=True)
        assert not rec["promise_ok"]
        assert rec["h2_measured"] == pytest.approx(0.0)

    def test_deterministic_channels_match_their_loops(self):
        for n in (1, 2, 3):
            nx2, low = 1 << (2 * n), (1 << n) - 1
            for ch, y_of in (
                    (UotChannel.honest(n, 0), lambda x: x >> n),
                    (UotChannel.honest(n, 1), lambda x: x & low),
                    (UotChannel.xor(n), lambda x: (x >> n) ^ (x & low)),
                    (UotChannel.parity(n), lambda x: bin(x).count("1") & 1)):
                t = np.zeros_like(ch.table)
                for x in range(nx2):
                    t[y_of(x), x] = 1.0
                assert np.array_equal(ch.table, t)

    def test_splitting_reduction_met_promise(self):
        n = 9
        nx2 = 1 << (2 * n)
        t = np.zeros((2, nx2))
        for x in range(nx2):
            t[bin(x).count("1") & 1, x] = 1.0
        rec = splitting_reduction(n, 1, 0.25, UotChannel(n, t))
        assert rec["promise_ok"] and rec["pass"]
        assert all(s >= -1e-9 for s in rec["links"].values())

    def test_splitting_diagnostic_path(self):
        rec = splitting_reduction(4, 1, 0.5, UotChannel.xor(4), force=True)
        assert not rec["promise_ok"]
        assert rec["links"]["promise"] < 0
        assert "chain_measured" in rec["links"]
        # non-promise links still hold on the instance
        assert rec["links"]["splitting"] >= -1e-9
        assert rec["links"]["chain_measured"] >= -1e-9

    def test_independent_halves_pointer_deterministic(self):
        # Y reveals x0 entirely: the pointer is identically 0 (X1 keeps all
        # the entropy) for every y
        n = 4
        nx2 = 1 << (2 * n)
        t = np.zeros((1 << n, nx2))
        for x in range(nx2):
            t[x >> n, x] = 1.0
        rec = splitting_reduction(n, 1, 0.5, UotChannel(n, t), force=True)
        assert rec["links"]["splitting"] >= -1e-9
