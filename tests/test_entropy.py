import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from bqsm.classical_ot import OtOutputDistribution
from bqsm.entropy import (Distribution, JointDistribution,
                          azuma_empirical, azuma_tail, binary_entropy,
                          chain_rule_slack, conditional_renyi, fano_bound,
                          hamming_ball_size, inverse_binary_entropy,
                          renyi_entropy, smooth_max_entropy,
                          smooth_min_entropy, smooth_to_ordinary_event,
                          split_min_entropy)
from bqsm.errors import InputError, PromiseViolation

INF = math.inf


def random_joint(rng, nx, ny, power=1.0):
    m = rng.random((nx, ny)) ** power
    m /= m.sum()
    return JointDistribution([range(nx), range(ny)], m)


class TestRenyi:
    def test_uniform_all_orders(self):
        d = Distribution.uniform(range(16))
        for alpha in (0.0, 0.5, 1.0, 2.0, 3.0, INF):
            assert renyi_entropy(d, alpha) == pytest.approx(4.0)

    def test_point_mass(self):
        d = Distribution.point(range(8), 3)
        for alpha in (0.0, 0.5, 1.0, 2.0, INF):
            assert renyi_entropy(d, alpha) == pytest.approx(0.0)

    def test_half_quarter_quarter(self):
        d = Distribution("abc", [0.5, 0.25, 0.25])
        assert renyi_entropy(d, INF) == pytest.approx(1.0)
        assert renyi_entropy(d, 2) == pytest.approx(-math.log2(3 / 8))
        assert renyi_entropy(d, 1) == pytest.approx(1.5)
        assert renyi_entropy(d, 0) == pytest.approx(math.log2(3))

    def test_negative_alpha_rejected(self):
        with pytest.raises(InputError):
            renyi_entropy(Distribution.uniform("ab"), -1)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(0)
        alphas = [0.0, 0.5, 1.0, 2.0, INF]
        for _ in range(10_000):
            size = int(rng.integers(2, 9))
            m = rng.random(size)
            d = Distribution(range(size), m / m.sum())
            values = [renyi_entropy(d, a) for a in alphas]
            assert all(values[i] >= values[i + 1] - 1e-9
                       for i in range(len(values) - 1))


class TestConditional:
    def test_independent_equals_unconditional(self):
        rng = np.random.default_rng(1)
        px = rng.random(4)
        px /= px.sum()
        py = rng.random(3)
        py /= py.sum()
        j = JointDistribution.independent(Distribution(range(4), px),
                                          Distribution(range(3), py))
        for alpha in (0.0, 0.5, 2.0, INF):
            assert conditional_renyi(j, alpha) == pytest.approx(
                renyi_entropy(Distribution(range(4), px), alpha))

    def test_x_equals_y_zero(self):
        m = np.eye(4) / 4
        j = JointDistribution([range(4), range(4)], m)
        for alpha in (0.0, 2.0, INF):
            assert conditional_renyi(j, alpha) == pytest.approx(0.0)

    def test_min_over_y_matches_exhaustive(self):
        rng = np.random.default_rng(2)
        j = random_joint(rng, 4, 4)
        m = j.mass
        expect = min(-math.log2((m[:, y] / m[:, y].sum()).max())
                     for y in range(4))
        assert conditional_renyi(j, INF) == pytest.approx(expect)

    def test_average_mode_requires_alpha_above_one(self):
        j = random_joint(np.random.default_rng(3), 3, 3)
        with pytest.raises(InputError):
            conditional_renyi(j, 1.0, mode="average")
        with pytest.raises(InputError):
            conditional_renyi(j, 0.5, mode="average")

    def test_average_infty_formula(self):
        rng = np.random.default_rng(4)
        j = random_joint(rng, 5, 4)
        m = j.mass
        acc = sum(m[:, y].sum() * (m[:, y] / m[:, y].sum()).max()
                  for y in range(4))
        assert conditional_renyi(j, INF, mode="average") == pytest.approx(
            -math.log2(acc))

    def test_order_relation_lemma(self):
        # H2 >= Hinf >= (a-1)/a H_a, worst-case and average
        rng = np.random.default_rng(5)
        for _ in range(300):
            j = random_joint(rng, int(rng.integers(2, 7)),
                             int(rng.integers(2, 7)))
            for mode in ("worst-case", "average"):
                h2 = conditional_renyi(j, 2, mode)
                hi = conditional_renyi(j, INF, mode)
                assert h2 >= hi - 1e-9
                for alpha in (2.0, 3.0):
                    ha = conditional_renyi(j, alpha, mode)
                    assert hi >= (alpha - 1) / alpha * ha - 1e-9

    def test_average_concentration_lemma(self):
        # fraction of y with H_a(X|Y=y) < tilde-H - kappa is <= 2^-kappa
        rng = np.random.default_rng(6)
        for trial in range(200):
            j = random_joint(rng, 6, 8, power=2.0)
            m = j.mass
            for alpha in (2.0, INF):
                tilde = conditional_renyi(j, alpha, "average")
                for kappa in (1.0, 2.0, 3.0):
                    bad = 0.0
                    for y in range(8):
                        w = m[:, y].sum()
                        cond = Distribution(range(6), m[:, y] / w)
                        if renyi_entropy(cond, alpha) < tilde - kappa - 1e-9:
                            bad += w
                    assert bad <= 2.0 ** (-kappa) + 1e-9


class TestSmoothing:
    def test_eps_zero_is_plain_min_entropy_bit_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            j = random_joint(rng, 5, 4)
            h, ev = smooth_min_entropy(j, 0.0)
            assert h == conditional_renyi(j, INF)
            assert ev.epsilon == 0.0

    def test_point_mass_gain(self):
        j = JointDistribution([["z"], ["*"]], [[1.0]])
        h, ev = smooth_min_entropy(j, 0.5)
        assert h == pytest.approx(1.0)
        assert ev.epsilon == pytest.approx(0.5)

    def test_monotone_in_eps(self):
        rng = np.random.default_rng(8)
        j = random_joint(rng, 6, 3)
        values = [smooth_min_entropy(j, e)[0]
                  for e in (0.0, 0.05, 0.1, 0.2, 0.4, 0.8)]
        assert all(values[i] <= values[i + 1] + 1e-12
                   for i in range(len(values) - 1))

    def test_event_is_valid(self):
        rng = np.random.default_rng(9)
        j = random_joint(rng, 5, 5)
        h, ev = smooth_min_entropy(j, 0.3)
        assert (ev.retained <= j.mass + 1e-15).all()
        assert (ev.retained >= -1e-15).all()
        assert ev.epsilon == pytest.approx(0.3, abs=1e-9)
        # the witness achieves the reported value
        py = j.mass.sum(axis=0)
        ratios = ev.retained / py[None, :]
        assert -math.log2(ratios.max()) == pytest.approx(h)

    def test_smoothing_beats_any_subset_removal(self):
        # water-filling is optimal: any full-atom removal within budget
        # cannot achieve a larger value
        rng = np.random.default_rng(10)
        j = random_joint(rng, 3, 3)
        eps = 0.25
        h, _ = smooth_min_entropy(j, eps)
        m = j.mass
        py = m.sum(axis=0)
        atoms = [(i, k) for i in range(3) for k in range(3)]
        for keep_mask in itertools.product([0, 1], repeat=9):
            removed = sum(m[a] for a, f in zip(atoms, keep_mask) if not f)
            if removed > eps:
                continue
            peak = max((m[a] / py[a[1]] for a, f in zip(atoms, keep_mask)
                        if f), default=0.0)
            if peak > 0:
                assert -math.log2(peak) <= h + 1e-9

    def test_max_entropy_uniform_examples(self):
        j = JointDistribution([range(4), ["*"]], np.full((4, 1), 0.25))
        assert smooth_max_entropy(j, 0.0)[0] == pytest.approx(2.0)
        assert smooth_max_entropy(j, 0.24)[0] == pytest.approx(2.0)
        assert smooth_max_entropy(j, 0.3)[0] == pytest.approx(math.log2(3))

    def test_max_entropy_monotone(self):
        rng = np.random.default_rng(11)
        j = random_joint(rng, 6, 3, power=3.0)
        values = [smooth_max_entropy(j, e)[0]
                  for e in (0.0, 0.1, 0.2, 0.4)]
        assert all(values[i] >= values[i + 1] - 1e-12
                   for i in range(len(values) - 1))

    def test_max_entropy_matches_brute_force(self):
        # exhaustive over all full-atom-removal events on alphabets <= 12
        rng = np.random.default_rng(12)
        for trial in range(30):
            nx, ny = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            if nx * ny > 12:
                continue
            j = random_joint(rng, nx, ny, power=2.0)
            eps = float(rng.uniform(0.05, 0.5))
            got, _ = smooth_max_entropy(j, eps)
            m = j.mass
            atoms = [(i, k) for i in range(nx) for k in range(ny)]
            best = math.inf
            for keep in itertools.product([0, 1], repeat=len(atoms)):
                removed = sum(m[a] for a, f in zip(atoms, keep) if not f)
                if removed > eps + 1e-12:
                    continue
                supports = [sum(1 for (i, k), f in zip(atoms, keep)
                                if f and k == y and m[i, k] > 0)
                            for y in range(ny)]
                val = max(supports)
                best = min(best, math.log2(val) if val else -math.inf)
            assert got == pytest.approx(best)

    def test_smooth_to_ordinary(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            j = random_joint(rng, 6, 4)
            eps = float(rng.uniform(0.01, 0.3))
            r, retained = smooth_to_ordinary_event(j, eps)
            assert retained.sum() >= 1 - 2 * eps - 1e-9
            py = j.mass.sum(axis=0)
            for y in range(4):
                col = retained[:, y]
                if col.sum() > 0:
                    h = -math.log2(col.max() / col.sum())
                    assert h >= r - 1 - 1e-9

    def test_chain_rule_strictly_positive(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            j = random_joint(rng, int(rng.integers(2, 6)),
                             int(rng.integers(1, 5)))
            slack = chain_rule_slack(j, float(rng.uniform(0, 0.2)),
                                     float(rng.uniform(0.01, 0.3)))
            assert slack > 0

    def test_chain_rule_independent_uniform(self):
        j = JointDistribution([range(4), range(4)], np.full((4, 4), 1 / 16))
        eps_p = 0.125
        slack = chain_rule_slack(j, 0.0, eps_p)
        # H(X|Y)=2 exactly; H^0(XY)=4, H0(Y)=2: slack = log(1/eps') + gain
        assert slack >= math.log2(1 / eps_p) - 1e-9

    def test_chain_rule_constant_y(self):
        j = JointDistribution([range(8), ["k"]],
                              np.full((8, 1), 1 / 8))
        assert chain_rule_slack(j, 0.0, 0.25) > 0


class TestSplitting:
    def test_independent_uniform(self):
        n = 3
        j = JointDistribution([range(8), range(8)], np.full((8, 8), 1 / 64))
        res = split_min_entropy(j, 2 * n)
        assert res.achieved >= res.bound - 1e-12
        assert res.achieved == pytest.approx(3.0)

    def test_constant_x1(self):
        j = JointDistribution([range(8), ["k"]], np.full((8, 1), 1 / 8))
        res = split_min_entropy(j, 3.0)
        assert all(c == 1 for c in res.pointer_by_x1.values())
        assert res.achieved == pytest.approx(3.0)

    def test_precondition_checked(self):
        j = JointDistribution([range(2), range(2)],
                              np.array([[0.7, 0.1], [0.1, 0.1]]))
        with pytest.raises(PromiseViolation):
            split_min_entropy(j, 3.0)

    def test_bound_exact_on_random_joints(self):
        rng = np.random.default_rng(15)
        for _ in range(2000):
            nx, ny = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            m = rng.random((nx, ny)) ** 2
            m /= m.sum()
            alpha = -math.log2(m.max())
            res = split_min_entropy(
                JointDistribution([range(nx), range(ny)], m), alpha)
            assert res.achieved >= res.bound

    def test_subnormalized_input(self):
        m = np.full((4, 4), 0.03)
        j = JointDistribution([range(4), range(4)], m, normalized=False)
        res = split_min_entropy(j, -math.log2(0.03))
        assert res.achieved >= res.bound


class TestScalarTools:
    def test_binary_entropy_basics(self):
        assert binary_entropy(0.5) == pytest.approx(1.0)
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        with pytest.raises(InputError):
            binary_entropy(1.2)

    def test_inverse_lower_branch(self):
        assert inverse_binary_entropy(0.5) == pytest.approx(0.1100, abs=5e-4)
        for h in (0.1, 0.3, 0.7, 0.95):
            p = inverse_binary_entropy(h)
            assert p <= 0.5
            assert binary_entropy(p) == pytest.approx(h, abs=1e-7)

    def test_hamming_ball(self):
        assert hamming_ball_size(10, 0) == (1, 0.0)
        exact, log_bound = hamming_ball_size(10, 10)
        assert exact == 1024 and log_bound == 10.0
        exact, log_bound = hamming_ball_size(10, 2)
        assert exact == 56
        assert log_bound == pytest.approx(10 * binary_entropy(0.2))
        assert exact <= 2 ** log_bound

    def test_ball_exact_below_bound_always(self):
        for n in range(1, 16):
            for r in range(n + 1):
                exact, log_bound = hamming_ball_size(n, r)
                assert exact <= 2 ** log_bound + 1e-9

    def test_azuma_values(self):
        assert azuma_tail(1.0, 100, 0.5) == pytest.approx(math.exp(-12.5))
        assert azuma_tail(1.0, 10, 1e-9) == pytest.approx(1.0)
        with pytest.raises(InputError):
            azuma_tail(0.0, 10, 0.1)

    def test_azuma_empirical_fair_coin(self):
        def step(rng, i, hist):
            return float(rng.choice([-1.0, 1.0]))

        rec = azuma_empirical(step, 1.0, 100, 0.3, 2000, 21)
        assert rec["estimate"] <= rec["bound"] + 3 * rec["stderr"]

    def test_azuma_promise_checked(self):
        def bad(rng, i, hist):
            return 2.0

        with pytest.raises(PromiseViolation):
            azuma_empirical(bad, 1.0, 10, 0.3, 5, 0)


class TestFano:
    def test_perfect_guess(self):
        m = np.eye(3) / 3
        j = JointDistribution([range(3), range(3)], m)
        h, bound = fano_bound(j, {y: y for y in range(3)})
        assert h == pytest.approx(0.0)
        assert bound == pytest.approx(0.0)

    def test_uniform_independent_equality(self):
        j = JointDistribution([range(2), ["u"]], np.array([[0.5], [0.5]]))
        h, bound = fano_bound(j, {"u": 0})
        assert h == pytest.approx(1.0)
        assert bound == pytest.approx(1.0)

    def test_random_joints_hold(self):
        rng = np.random.default_rng(16)
        for _ in range(500):
            j = random_joint(rng, int(rng.integers(2, 6)),
                             int(rng.integers(1, 5)))
            m = j.mass
            guess = {y: int(np.argmax(m[:, y])) for y in range(m.shape[1])}
            h, bound = fano_bound(j, guess)
            assert h <= bound + 1e-9


class TestDistributions:
    def test_normalization_checks(self):
        with pytest.raises(InputError):
            Distribution("ab", [0.5, 0.6])
        with pytest.raises(InputError):
            Distribution("ab", [0.9, 0.3], normalized=False)
        Distribution("ab", [0.3, 0.3], normalized=False)

    def test_conditional_zero_marginal_is_error(self):
        m = np.array([[0.5, 0.0], [0.5, 0.0]])
        j = JointDistribution([range(2), ["a", "b"]], m)
        with pytest.raises(InputError):
            j.conditional(1, "b")

    def test_mass_is_float64(self):
        # ints and Fractions are stored as float64 mass; a negative entry,
        # whatever its type, is still refused
        counts = np.arange(8).reshape(2, 2, 2)
        sixths = [Fraction(1, 6), Fraction(2, 6), Fraction(3, 6)]
        made = [Distribution("abc", sixths),
                Distribution("abc", [1, 0, 0]),
                JointDistribution([range(2), range(3)], [sixths, [0, 0, 0]]),
                JointDistribution([range(2), range(2)], [[1, 0], [0, 0]]),
                OtOutputDistribution(counts, 1, normalized=False),
                OtOutputDistribution(
                    [[[Fraction(1, 4)]] * 2] * 2, 1)]
        for dist in made:
            assert dist.mass.dtype == np.float64
        assert renyi_entropy(made[0], INF) == pytest.approx(1.0)
        for bad in (lambda: Distribution("ab", [Fraction(-1, 2), 1]),
                    lambda: JointDistribution([range(1), range(2)],
                                              [[-1, 2]], normalized=False),
                    lambda: OtOutputDistribution(-counts, 1,
                                                 normalized=False)):
            with pytest.raises(InputError):
                bad()
