import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hst

from bqsm import bits
from bqsm.cli import _exp_azuma
from bqsm.entropy import shannon_entropy
from bqsm.errors import InputError, PromiseViolation
from bqsm.markov import (MarkovSource, accumulated_min_entropy_markov,
                         floor_hugging_chain)
from bqsm.qkd import ALPHABETS
from bqsm.qstate import (DensityOperator, PureState, haar_state,
                         prepare_bb84, product_basis_matrix, random_density)
from bqsm.uncertainty import (RelationReport, SequenceModel,
                              accumulated_min_entropy,
                              average_entropy_minimum, event_construction,
                              genrel_epsilon, hadamard_invariant_state,
                              half_split_state, max_prob_relation,
                              min_entropy_sum_relation, multi_mub_relation,
                              multi_mub_min_entropy_floor,
                              second_relation_sample, two_basis_relation,
                              _mub_probs, _two_basis_probs)


class TestTwoBasisRelation:
    def test_invariant_state_tight(self):
        for n in range(2, 9):
            st = hadamard_invariant_state(n)
            rep = two_basis_relation(st, [0], [0])
            assert rep.lhs == pytest.approx(1 + 2 ** (-n / 2), abs=1e-9)
            assert abs(rep.slack) < 1e-9

    def test_half_split_tight(self):
        for n in (2, 4, 6, 8):
            st, lp, lt = half_split_state(n)
            rep = two_basis_relation(st, lp, lt)
            assert rep.lhs == pytest.approx(2.0, abs=1e-9)
            assert rep.rhs == pytest.approx(2.0, abs=1e-9)

    def test_random_sweep(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            n = int(rng.integers(1, 6))
            st = haar_state(n, rng) if rng.integers(2) \
                else random_density(n, rng)
            k1 = int(rng.integers(1, 2 ** n + 1))
            k2 = int(rng.integers(1, 2 ** n + 1))
            lp = rng.choice(2 ** n, k1, replace=False)
            lt = rng.choice(2 ** n, k2, replace=False)
            assert two_basis_relation(st, lp, lt).holds

    def test_max_prob_corollary(self):
        rng = np.random.default_rng(1)
        # a computational basis state gives 1 + 2^-n (all diagonal-basis
        # probabilities are 2^-n); the invariant state is the tight case
        st0 = prepare_bb84("0" * 4, "+" * 4)
        sum_rep, _ = max_prob_relation(st0)
        assert sum_rep.lhs == pytest.approx(1 + 2.0 ** -4)
        tight, _ = max_prob_relation(hadamard_invariant_state(4))
        assert abs(tight.slack) < 1e-9
        for _ in range(300):
            st = haar_state(int(rng.integers(1, 6)), rng)
            s, p = max_prob_relation(st)
            assert s.holds and p.holds

    def test_min_entropy_sum_equality_witness(self):
        for n in (4, 6):
            rep = min_entropy_sum_relation(hadamard_invariant_state(n))
            assert abs(rep.slack) < 1e-9
        rep = min_entropy_sum_relation(DensityOperator.maximally_mixed(4))
        assert rep.rhs == pytest.approx(8.0)
        assert rep.holds


class TestEventConstruction:
    def test_fully_mixed_keeps_everything(self):
        ec = event_construction(DensityOperator.maximally_mixed(8), 0.3)
        assert ec.prob_plus == 1.0 and ec.prob_times == 1.0
        assert ec.h_plus == pytest.approx(8.0)

    def test_basis_state_fallback(self):
        ec = event_construction(prepare_bb84("0" * 6, "+" * 6), 0.3)
        assert ec.keep_plus is None and ec.prob_plus == 0.0
        assert ec.prob_times == 1.0
        assert ec.h_times == pytest.approx(6.0)

    def test_invariant_state_both_branches(self):
        ec = event_construction(hadamard_invariant_state(8), 0.3)
        assert ec.prob_plus > 0 and ec.prob_times > 0
        assert ec.h_plus >= 0.3 * 8 and ec.h_times >= 0.3 * 8

    def test_obligations_on_random_states(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            st = haar_state(n, rng)
            lam = float(rng.uniform(0.05, 0.45))
            ec = event_construction(st, lam)
            assert ec.prob_sum >= 1 - 2 ** (-ec.kappa * n) - 1e-12
            for h, p in ((ec.h_plus, ec.prob_plus),
                         (ec.h_times, ec.prob_times)):
                if p > 0:
                    assert h >= lam * n - 1e-12

    def test_lambda_range(self):
        with pytest.raises(InputError):
            event_construction(DensityOperator.maximally_mixed(2), 0.5)


class TestMultiMub:
    def test_singleton_fully_mixed(self):
        rep = multi_mub_relation(DensityOperator.maximally_mixed(3),
                                 ALPHABETS["six-state"], [[0b000]] * 3)
        assert rep.lhs == pytest.approx(3 / 8)
        assert rep.holds

    def test_general_min_entropy_floor(self):
        rng = np.random.default_rng(3)
        negligible = math.log2(1 + 2 * 2 ** (-4.0))
        for _ in range(10):
            rep = multi_mub_min_entropy_floor(haar_state(8, rng),
                                              ALPHABETS["six-state"])
            assert rep.holds
            assert rep.lhs == pytest.approx(3 * (math.log2(3) - negligible))

    def test_sweep(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            st = haar_state(3, rng) if rng.integers(2) \
                else random_density(3, rng)
            sets = [rng.choice(8, int(rng.integers(1, 9)), replace=False)
                    for _ in range(3)]
            assert multi_mub_relation(st, ALPHABETS["six-state"],
                                      sets).holds

    def test_requires_mub_flag(self):
        # labels whose 2x2 bases are not pairwise mutually unbiased, or
        # are not labels at all, are refused
        rho = DensityOperator.maximally_mixed(1)
        for labels in (("+", "breitbart"), ("+", "+"), ("x", "nope")):
            with pytest.raises(InputError):
                multi_mub_relation(rho, labels, [[0], [0]])
            with pytest.raises(InputError):
                multi_mub_min_entropy_floor(rho, labels)

    def test_alphabet_powers_unbiased(self):
        # a point mass in one tensor-power basis of an alphabet is uniform,
        # 2^{-n} = |overlap|^2, in every other one
        n = 3
        for labels in ALPHABETS.values():
            for i, a in enumerate(labels):
                st = PureState(product_basis_matrix([a] * n)[:, 5])
                for j, q in enumerate(_mub_probs(st, labels)):
                    expect = np.eye(2 ** n)[5] if i == j else 2.0 ** -n
                    np.testing.assert_allclose(q, expect, atol=1e-12)


class TestShannonRelations:
    def test_maassen_uffink_sweep(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            n = int(rng.integers(1, 6))
            st = haar_state(n, rng) if rng.integers(2) \
                else random_density(n, rng)
            qp, qt = _two_basis_probs(st)
            assert shannon_entropy(qp) + shannon_entropy(qt) >= n - 1e-9

    def test_maassen_uffink_equality_on_basis_states(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            x = "".join(rng.choice(["0", "1"], n))
            theta = "".join(rng.choice(["+", "x"], n))
            st = prepare_bb84(x, theta)
            qp, qt = _two_basis_probs(st)
            assert shannon_entropy(qp) + shannon_entropy(qt) \
                == pytest.approx(n, abs=1e-6)

    def test_bb84_average_bound(self):
        rec = average_entropy_minimum(["+", "x"], grid=6000)
        assert rec["minimum"] >= 0.5 - 1e-3
        assert rec["minimum"] <= 0.5 + 1e-3

    def test_six_state_average_bound(self):
        rec = average_entropy_minimum(["+", "x", "circ"], grid=6000)
        assert rec["minimum"] >= 2 / 3 - 1e-3
        assert rec["minimum"] <= 2 / 3 + 1e-3


class TestAccumulatedMinEntropy:
    def test_iid_uniform_never_exceeds(self):
        model = SequenceModel(2, 1.0, lambda hist: [0.5, 0.5])
        rec = accumulated_min_entropy(model, 50, 0.2, 200, 7)
        assert rec["estimate"] == 0.0

    def test_floor_violation_rejected(self):
        model = SequenceModel(2, 0.9, lambda hist: [1.0, 0.0])
        with pytest.raises(PromiseViolation):
            accumulated_min_entropy(model, 10, 0.2, 5, 0)

    def test_markov_source_validation(self):
        with pytest.raises(PromiseViolation):
            MarkovSource([1.0, 0.0], np.eye(2), 0.5)

    def test_floor_hugging_chain_bound(self):
        model = floor_hugging_chain(4, 1.0)
        for z in range(4):
            assert shannon_entropy(model.transition[z]) \
                == pytest.approx(1.0, abs=1e-9)
        rec = accumulated_min_entropy_markov(model, 200, 0.1, 5000, 11)
        assert rec["pass"]

    def test_generic_and_markov_agree_statistically(self):
        chain = floor_hugging_chain(3, 0.8)
        generic = SequenceModel(
            3, 0.8,
            lambda hist: chain.initial if not hist
            else chain.transition[hist[-1]])
        a = accumulated_min_entropy(generic, 40, 0.15, 300, 3)
        b = accumulated_min_entropy_markov(chain, 40, 0.15, 3000, 3)
        spread = 3 * (a["stderr"] + b["stderr"])
        assert abs(a["estimate"] - b["estimate"]) <= spread + 0.05


class TestBlockedWalks:
    """Both Monte-Carlo walks draw their (trials, n) randomness in row
    blocks of `bits.BLOCK_CELLS` cells. Any block budget consumes the
    generator stream as one (trials, n) draw does, so the records are equal,
    not close."""

    @settings(max_examples=30, deadline=None)
    @given(seed=hst.integers(0, 2 ** 32 - 1), c=hst.floats(0.25, 4.0),
           n=hst.integers(1, 30), trials=hst.integers(1, 40),
           lam=hst.sampled_from([0.05, 0.2]))
    @example(seed=7, c=0.37, n=13, trials=29, lam=0.05)
    def test_blocked_walks_equal_the_one_shot_draw(self, seed, c, n, trials,
                                                    lam):
        model = floor_hugging_chain(3, 0.8)

        def records(budget):
            with mock.patch.object(bits, "BLOCK_CELLS", budget):
                blocks = len(list(bits.row_blocks(trials, n)))
                return blocks, (
                    _exp_azuma(seed, c, n, lam, trials)["rows"][0],
                    accumulated_min_entropy_markov(model, n, lam, trials,
                                                   seed))

        blocks, one_shot = records(trials * n)
        assert blocks == 1
        # one row per block: the budget really splits the draw
        assert records(1) == (trials, one_shot)
        for budget in (max(1, n - 1), n + 1, 7 * n):
            assert records(budget)[1] == one_shot

    def test_walk_memory_does_not_grow_with_trials(self):
        # drawn whole, the (trials, n) arrays take 160 MB and 16 MB
        model = floor_hugging_chain(4, 1.0)
        for call in (lambda: _exp_azuma(7, trials=20000),
                     lambda: accumulated_min_entropy_markov(
                         model, 200, 0.1, 10000, 7)):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2 ** 20


class TestSecondRelation:
    def test_basis_state_bb84(self):
        st = prepare_bb84("0" * 6, "+" * 6)
        rec = second_relation_sample(st, ["+", "x"], 0.5, 0.12, 40, 13)
        assert rec["pass"]
        # the Shannon average for this state is exactly n/2; the sampled
        # smooth min-entropy stays above the (h - 2 lam) n floor
        assert rec["floor"] == pytest.approx((0.5 - 0.24) * 6)

    def test_fully_mixed(self):
        rec = second_relation_sample(DensityOperator.maximally_mixed(5),
                                     ["+", "x"], 0.5, 0.1, 20, 14)
        assert rec["pass"]
        assert min(rec["per_slice_min_entropy"]) >= 5 - 1e-9

    def test_epsilon_formula(self):
        assert genrel_epsilon(8, 0.1, 2, 2) == pytest.approx(
            math.exp(-0.01 * 8 / (32 * math.log2(4 / 0.1) ** 2)))


class TestReportPlumbing:
    def test_row_shape(self):
        rep = RelationReport("x", 1.0, 2.0, {"n": 3})
        row = rep.row()
        assert row["slack"] == pytest.approx(1.0)
        assert row["n"] == 3


class TestAnalyticErrorTerms:
    # the two purely analytic inequalities used by the proof bookkeeping
    # get numeric property sweeps instead of dedicated operations

    def test_inverse_x_log_bound(self):
        # for 0 < x < 1/e with y = x log(1/x) < 1/4: x > y / (4 log(1/y))
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(10_000):
            # y < 1/4 restricts x below ~0.054 in this range
            x = float(rng.uniform(1e-12, 0.054))
            y = x * math.log2(1 / x)
            if y >= 0.25 or y <= 0:
                continue
            checked += 1
            assert x > y / (4 * math.log2(1 / y))
        assert checked > 9000

    def test_exp_vs_power_tail(self):
        # for 0 < x < 1/4: exp(-x^2 / (32 (2 - log x)^2)) < 2^{-x^4/32}
        rng = np.random.default_rng(8)
        for _ in range(10_000):
            x = float(rng.uniform(1e-9, 0.25))
            lhs = math.exp(-x ** 2 / (32 * (2 - math.log2(x)) ** 2))
            rhs = 2.0 ** (-(x ** 4) / 32)
            assert lhs < rhs
