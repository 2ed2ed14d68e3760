import itertools
import json
import math

import numpy as np
import pytest

from bqsm.errors import CAPS, CapacityError, InputError
from bqsm.protocols import (ChannelModel, binding_experiment,
                            bell_pairwise_xor, bell_xor_attack,
                            breitbart_attack, breitbart_strategy,
                            effective_weak_parameters, full_memory,
                            hamming_7_4, measure_fixed, purification_gap,
                            rabin_guess_probability,
                            receiver_security_witness, repetition_code,
                            run_bb84_rabin_ot, run_commitment, run_ot12,
                            run_rabin_ot, random_code,
                            sender_security_distance, store_prefix)
from bqsm.protocols.channel import PERFECT
from bqsm.protocols.commitment import opening_success
from bqsm.protocols.security import (entangled_rabin_sender,
                                     garbage_rabin_sender,
                                     honest_rabin_sender)
from bqsm.qkd import QkdConfig, run_qkd

HONEST_CAP = CAPS["honest-path"]


class TestChannelModel:
    def test_effective_mapping(self):
        phi, eta = effective_weak_parameters(0.03, 0.1, phi_dc=0.02,
                                             eta_ab=0.5)
        assert phi == pytest.approx(0.04)
        assert eta == pytest.approx(0.2)

    def test_validation(self):
        with pytest.raises(InputError):
            ChannelModel(phi=0.5)
        with pytest.raises(InputError):
            ChannelModel(phi=0.3, eta=0.8)
        ChannelModel(phi=0.05, eta=0.1, dark_count=0.01, empty_pulse=0.2)


class TestLinearCodes:
    def test_repetition_radius(self):
        code = repetition_code(3, design_phi=0.05)
        assert code.radius == 1
        assert code.epsilon_c > 0

    def test_hamming_corrects_single_errors(self):
        code = hamming_7_4()
        assert code.radius == 1
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.integers(0, 2, 7, dtype=np.uint8)
            syn = code.syndrome(x)
            e = np.zeros(7, dtype=np.uint8)
            e[int(rng.integers(7))] = 1
            assert np.array_equal(code.decode(x ^ e, syn), x)

    def test_design_radius_contract(self):
        for code in (repetition_code(5), hamming_7_4(),
                     random_code(10, 5, seed=3)):
            for weight in range(code.radius + 1):
                for pos in itertools.combinations(range(code.length),
                                                  weight):
                    e = np.zeros(code.length, dtype=np.uint8)
                    e[list(pos)] = 1
                    zero = np.zeros(code.length, dtype=np.uint8)
                    got = code.decode(e, code.syndrome(zero))
                    assert np.array_equal(got, zero)

    def test_chunked_round_trip(self):
        code = repetition_code(3)
        rng = np.random.default_rng(1)
        x = rng.integers(0, 2, 20, dtype=np.uint8)
        syn = code.syndrome_chunked(x)
        noisy = x.copy()
        noisy[4] ^= 1
        noisy[9] ^= 1
        assert np.array_equal(code.decode_chunked(noisy, syn), x)

    def test_syndrome_rate_check(self):
        with pytest.raises(InputError):
            repetition_code(3, design_phi=0.49)


class TestHonestRuns:
    def test_rabin_correctness_and_rate(self):
        received = correct = 0
        runs = 3000
        for seed in range(runs):
            tr = run_rabin_ot(seed & 1, PERFECT, "honest", 20, seed)
            if tr.honest["a"] == 1:
                received += 1
                correct += tr.honest["y"] == tr.honest["b"]
        assert correct == received
        assert abs(received / runs - 0.5) <= 3 * 0.5 / math.sqrt(runs)

    def test_ot12_receiver_gets_chosen_string(self):
        for seed in range(300):
            tr = run_ot12(seed & 1, PERFECT, "honest", 16, 2, seed)
            want = tr.honest["s0"] if tr.honest["c"] == 0 \
                else tr.honest["s1"]
            assert tr.honest["y"] == want

    def test_ot12_reversed(self):
        for seed in range(200):
            tr = run_ot12(seed & 1, PERFECT, "honest", 12, 1, seed,
                          direction="reversed")
            want = tr.honest["s0"] if tr.honest["c"] == 0 \
                else tr.honest["s1"]
            assert tr.honest["y"] == want

    def test_ot12_error_corrected(self):
        code = repetition_code(3, design_phi=0.05)
        ch = ChannelModel(phi=0.05)
        ok = fails = 0
        for seed in range(200):
            tr = run_ot12(seed & 1, ch, "honest", 24, 1, seed, code=code)
            want = tr.honest["s0"] if tr.honest["c"] == 0 \
                else tr.honest["s1"]
            if tr.honest["decode_ok"]:
                ok += 1
                assert tr.honest["y"] == want
            else:
                fails += 1
        # decode failure stays within the designed union bound + 3 sigma
        p_fail = code.failure_probability_chunked(12, 0.05)
        assert fails / 200 <= p_fail + 3 * math.sqrt(p_fail / 200) + 0.05

    def test_commitment_accepts(self):
        for seed in range(300):
            tr = run_commitment(seed & 1, PERFECT, "honest", 20, seed)
            assert tr.honest["accepted"]

    def test_noisy_commitment_rate(self):
        ch = ChannelModel(phi=0.05)
        n, runs = 200, 400
        accepted = sum(
            run_commitment(0, ch, "honest", n, s, variant="comm_noisy",
                           tolerance=0.09).honest["accepted"]
            for s in range(runs))
        # Chernoff: fraction above phi + 0.04 is exp(-2 * 0.04^2 * m)
        m = n / 2
        floor = 1 - math.exp(-2 * 0.04 ** 2 * m)
        assert accepted / runs >= floor - 3 * math.sqrt(0.25 / runs)

    def test_bb84_rabin_noisy_failure_rate(self):
        code = repetition_code(5, design_phi=0.05)
        ch = ChannelModel(phi=0.05)
        fails = received = 0
        for seed in range(400):
            tr = run_bb84_rabin_ot(seed & 1, ch, "honest", 120, code, seed)
            if tr.honest.get("a") == 1:
                received += 1
                fails += tr.honest["y"] != tr.honest["b"]
        design = code.failure_probability_chunked(60, 0.05)
        sigma = math.sqrt(max(design * (1 - design), 1 / 400) / received)
        assert fails / received <= design + 3 * sigma + 0.02

    def test_bb84_rabin_eta_zero_reduces_to_plain(self):
        code = repetition_code(3, design_phi=0.0)
        for seed in range(100):
            tr = run_bb84_rabin_ot(seed & 1, PERFECT, "honest", 30, code,
                                   seed)
            if tr.honest.get("a") == 1:
                assert tr.honest["y"] == tr.honest["b"]

    def test_transcript_replay_byte_identical(self):
        a = run_rabin_ot(1, PERFECT, "honest", 10, 99).to_json()
        b = run_rabin_ot(1, PERFECT, "honest", 10, 99).to_json()
        assert a == b
        c = run_ot12(0, PERFECT, "honest", 8, 1, 5).to_json()
        d = run_ot12(0, PERFECT, "honest", 8, 1, 5).to_json()
        assert c == d
        assert json.loads(a)["seed"] == 99


def _honest_rabin(n, seed):
    h = run_rabin_ot(seed & 1, PERFECT, "honest", n, seed).honest
    return h["a"] == 0 or h["y"] == h["b"]


def _honest_bb84_rabin(n, seed):
    h = run_bb84_rabin_ot(seed & 1, PERFECT, "honest", n,
                          repetition_code(3, design_phi=0.0), seed).honest
    return h["a"] == 0 or (h["decode_ok"] and h["y"] == h["b"])


def _honest_ot12(direction):
    def run(n, seed):
        h = run_ot12(seed & 1, PERFECT, "honest", n, 1, seed,
                     direction=direction).honest
        return h["y"] == (h["s0"] if h["c"] == 0 else h["s1"])
    return run


def _honest_commitment(n, seed):
    return run_commitment(seed & 1, PERFECT, "honest", n,
                          seed).honest["accepted"]


def _honest_qkd(n, seed):
    rec = run_qkd(QkdConfig(p=0.0, symbols=n, ec_bits_per_symbol=0.4),
                  seed)
    return not rec["refused"] and rec["keys_equal"]


HONEST_PROTOCOLS = {
    "rabin": _honest_rabin, "bb84-rabin": _honest_bb84_rabin,
    "ot12-standard": _honest_ot12("standard"),
    "ot12-reversed": _honest_ot12("reversed"),
    "commitment": _honest_commitment, "qkd": _honest_qkd,
}


class TestHonestScale:
    """Every honest protocol at a family size past one machine word
    (n = 64) and at the advertised cap."""

    @pytest.mark.parametrize("n", [64, HONEST_CAP])
    @pytest.mark.parametrize("protocol", sorted(HONEST_PROTOCOLS))
    def test_honest_run_correct(self, protocol, n):
        for seed in range(2):
            assert HONEST_PROTOCOLS[protocol](n, seed)

    @pytest.mark.parametrize("protocol", sorted(HONEST_PROTOCOLS))
    def test_cap_names_parameter_and_cap(self, protocol):
        with pytest.raises(CapacityError) as err:
            HONEST_PROTOCOLS[protocol](HONEST_CAP + 1, 0)
        param = "symbols" if protocol == "qkd" else "n"
        assert f"{param}={HONEST_CAP + 1}" in str(err.value)
        assert str(HONEST_CAP) in str(err.value)


class TestAdversarialRuns:
    def test_full_memory_learns_bit(self):
        p = rabin_guess_probability(4, full_memory())
        assert p == pytest.approx(1.0)
        for seed in range(20):
            tr = run_rabin_ot(seed & 1, PERFECT, full_memory(), 4, seed)
            assert tr.adversary["guess_b"] == tr.honest["b"]

    def test_measure_all_posterior_matches_formula(self):
        # measuring everything in + learns b exactly when r=+ and nothing
        # when r=x: optimal guess 3/4 at every n under the xor mask
        for n in (1, 2, 3):
            p = rabin_guess_probability(n, store_prefix(0), mask="xor")
            assert p == pytest.approx(0.75)

    def test_hash_mask_guess_bounded_by_pa(self):
        n = 4
        p = rabin_guess_probability(n, store_prefix(0))
        rec = sender_security_distance(store_prefix(0), "rabin", n)
        # advantage within the event is bounded by the pa distance; outside
        # the event the adversary may know everything
        assert p <= 0.5 + (1 - rec["event_probability"]) \
            + rec["distance"] + 1e-9

    def test_bell_attack_even_n(self):
        for n in (2, 4, 6):
            rec = bell_xor_attack(n)
            assert rec["success_probability"] == pytest.approx(1.0)
            assert rec["stored_qubits"] == 0

    def test_bell_attack_weaker_against_hash_mask(self):
        p = rabin_guess_probability(4, bell_pairwise_xor(), mask="hash")
        assert p < 1.0 - 1e-6

    def test_breitbart_fixture(self):
        rec = breitbart_attack()
        want = math.cos(math.pi / 8) ** 2
        assert rec["b0"] == pytest.approx(want, abs=1e-9)
        assert rec["b1"] == pytest.approx(want, abs=1e-9)
        assert rec["xor_distance"] == pytest.approx(0.0, abs=1e-12)

    def test_bb84_adversarial_emission_bookkeeping(self):
        ch = ChannelModel(phi=0.0, eta=0.3)
        code = repetition_code(3, design_phi=0.0)
        tr = run_bb84_rabin_ot(0, ch, store_prefix(1), 12, code, 7)
        adv = tr.adversary
        assert adv["leaked_positions"] > 0
        assert adv["h_min_x_given_view"] >= 0


class TestPurification:
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_rabin_mode_all_strategies(self, n):
        strategies = [store_prefix(0), store_prefix(1), store_prefix(2),
                      measure_fixed(["+", "x"] * (n // 2)),
                      breitbart_strategy(), full_memory()]
        if n % 2 == 0:
            strategies.append(bell_pairwise_xor())
        for s in strategies:
            gap = purification_gap(n, s, [["+"] * n, ["x"] * n])
            assert gap <= 1e-9, str(s)

    def test_per_qubit_theta_mode(self):
        thetas = [list(t) for t in itertools.product("+x", repeat=4)]
        for s in (store_prefix(1), breitbart_strategy(),
                  bell_pairwise_xor()):
            assert purification_gap(4, s, thetas) <= 1e-9

    def test_custom_compression_with_ancilla(self):
        # arbitrary unitary over the received qubits plus one ancilla,
        # one wire kept: the equivalence lemma must still hold exactly
        from bqsm.protocols import custom_compression
        from bqsm.qstate import haar_unitary
        n = 3
        u = haar_unitary(1 << (n + 1), np.random.default_rng(17))
        s = custom_compression(u, kept=(1,), ancillas=1)
        assert s.memory_qubits(n) == 1
        gap = purification_gap(n, s, [["+"] * n, ["x"] * n])
        assert gap <= 1e-9
        rec = sender_security_distance(s, "rabin", n)
        assert rec["pass"], rec

    @pytest.mark.parametrize("kept", [(1, 1), (4,)])
    def test_kept_wires_must_be_distinct_layout_wires(self, kept):
        from bqsm.protocols import custom_compression
        from bqsm.protocols.adversary import (direct_blocks_dense,
                                              epr_blocks_dense)
        s = custom_compression(np.eye(16), kept=kept, ancillas=1)
        with pytest.raises(InputError):
            epr_blocks_dense(3, s)
        with pytest.raises(InputError):
            direct_blocks_dense(3, s, ["+"] * 3)

    def test_wire_split_matches_explicit_construction(self):
        # B_y[x, k] = 2^{-n/2} <y, k| U |x, 0>, with y the measured wires
        # (1 and the ancilla 3, in wire order) and k the kept wires in
        # `kept` order (2 then 0), built from one basis vector per wire
        from bqsm.protocols import custom_compression
        from bqsm.protocols.adversary import (direct_blocks_dense,
                                              epr_blocks_dense)
        from bqsm.qstate import SINGLE_QUBIT_BASES, haar_unitary
        n = 3
        u = haar_unitary(1 << (n + 1), np.random.default_rng(23))
        s = custom_compression(u, kept=(2, 0), ancillas=1)
        e = np.eye(2)

        def ket(*cols):
            out = np.array([1.0 + 0j])
            for c in cols:
                out = np.kron(out, c)
            return out

        def wires(y, k):
            return ket(e[k & 1], e[y >> 1], e[k >> 1], e[y & 1])

        def explicit(sender_cols):
            """amp[y, x, k] for the sender columns of each x."""
            amp = np.zeros((4, 8, 4), dtype=complex)
            for x in range(8):
                out = u @ ket(*sender_cols(x), e[0])
                for y in range(4):
                    for k in range(4):
                        amp[y, x, k] = wires(y, k) @ out
            return amp

        def bits(x):
            return [(x >> (n - 1 - i)) & 1 for i in range(n)]

        b = explicit(lambda x: [e[bit] for bit in bits(x)]) * 2 ** (-n / 2)
        blocks = epr_blocks_dense(n, s)
        p = (np.abs(b) ** 2).sum(axis=(1, 2))
        assert blocks.ys == [y for y in range(4) if p[y] > 1e-15]
        for y, p_y, amp in zip(blocks.ys, blocks.probs, blocks.amps):
            assert p_y == pytest.approx(p[y], abs=1e-12)
            assert np.allclose(amp * math.sqrt(p_y), b[y], atol=1e-12)

        theta = ["+", "x", "+"]
        d = explicit(lambda x: [SINGLE_QUBIT_BASES[t][:, bit]
                                for t, bit in zip(theta, bits(x))])
        out = direct_blocks_dense(n, s, theta)
        assert out.shape == d.shape
        assert np.allclose(out, d, atol=1e-12)


class TestReceiverSecurity:
    @pytest.mark.parametrize("maker", [honest_rabin_sender,
                                       garbage_rabin_sender,
                                       entangled_rabin_sender])
    def test_witness_exact(self, maker):
        for protocol in ("rabin", "ot12"):
            rec = receiver_security_witness(maker(3, 11), protocol, 3)
            assert rec["exact"], (maker.__name__, protocol,
                                  rec["distance"])


class TestSenderSecurity:
    @pytest.mark.parametrize("strategy,n", [
        (store_prefix(0), 5), (store_prefix(1), 5), (store_prefix(2), 5),
        (breitbart_strategy(), 4),
        (measure_fixed(["+", "x", "+", "x", "+"]), 5),
        (bell_pairwise_xor(), 4),
    ])
    def test_rabin_chain(self, strategy, n):
        rec = sender_security_distance(strategy, "rabin", n)
        assert rec["pass"], rec
        assert rec["distance"] <= rec["bound"] + 1e-9

    def test_rabin_full_memory_negative_control(self):
        rec = sender_security_distance(full_memory(), "rabin", 4)
        # with everything stored the pa bound becomes vacuous but the
        # links must still be internally consistent
        assert rec["links"]["pa"] >= -1e-9

    @pytest.mark.parametrize("strategy,n", [
        (store_prefix(0), 5), (store_prefix(1), 5), (store_prefix(2), 4),
        (breitbart_strategy(), 4),
    ])
    def test_ot12_chain(self, strategy, n):
        rec = sender_security_distance(strategy, "ot12", n, ell=1)
        assert rec["pass"], rec
        for name, slack in rec["links"].items():
            assert slack >= -1e-9, (name, slack)

    def test_ot12_chain_two_bit_strings(self):
        for q in (0, 1):
            rec = sender_security_distance(store_prefix(q), "ot12", 3,
                                           ell=2)
            assert rec["pass"], rec


class TestBinding:
    def test_superposition_exhibit(self):
        rec = binding_experiment("superposition", 12)
        assert rec["sum"] == pytest.approx(1.0, abs=1e-12)

    def test_full_memory_negative_control(self):
        rec = binding_experiment(full_memory(), 10)
        assert rec["sum"] >= 1.9

    @pytest.mark.parametrize("n", [8, 10, 12])
    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_bounded_committers(self, n, q):
        rec = binding_experiment(store_prefix(q), n)
        assert rec["bound_ok"], rec
        assert rec["sum"] == pytest.approx(1 + 0.75 ** (n - q))

    def test_strong_mode_pointer(self):
        rec = binding_experiment(store_prefix(1), 10, mode="strong")
        assert rec["pointer"] == 0
        assert rec["p_open_other"] == pytest.approx(0.75 ** 9)

    def test_opening_success_matches_enumeration(self):
        # independent dual route at small n: enumerate the verifier's
        # outcomes and the committer's guesses qubit by qubit
        n, q = 4, 1
        strategy = store_prefix(q)
        got0 = opening_success(strategy, n, 0)
        got1 = opening_success(strategy, n, 1)
        # kept qubit always matches; each measured qubit contributes
        # 1 (same basis) or 3/4 (conjugate basis)
        assert got0 == pytest.approx(1.0)
        assert got1 == pytest.approx(0.75 ** (n - q))

    def test_breitbart_committer(self):
        n = 10
        rec = binding_experiment(breitbart_strategy(), n)
        factor = 0.5 + 0.5 * math.cos(math.pi / 8) ** 2
        assert rec["p0"] == pytest.approx(factor ** n)
        assert rec["bound_ok"]
