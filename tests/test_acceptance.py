"""Acceptance suite: one test per criterion, each printing a pass/fail
line. Run with `pytest tests/test_acceptance.py -s` to see the lines.

The asymptotic security statements are replaced by exact bound-chain
verification at fixed small sizes, as itemized per criterion.
"""

import math
import time

import numpy as np

from bqsm.classical_ot import (OtOutputDistribution, construct_pointer,
                               ndlf_security_distance, xor_uniformity)
from bqsm.cqstate import CqState, classical_lhl_distance, pa_distance
from bqsm.entropy import (Distribution, JointDistribution,
                          shannon_entropy, split_min_entropy)
from bqsm.hashing import HashFamily
from bqsm.markov import accumulated_min_entropy_markov, floor_hugging_chain
from bqsm.protocols import (ChannelModel, binding_experiment,
                            bell_pairwise_xor, bell_xor_attack,
                            breitbart_attack, breitbart_strategy,
                            full_memory, measure_fixed, purification_gap,
                            repetition_code, run_commitment, run_ot12,
                            run_rabin_ot, sender_security_distance,
                            store_prefix)
from bqsm.protocols.channel import PERFECT
from bqsm.protocols.rabin import rabin_exact_blocks
from bqsm.qkd import (Eavesdropper, QkdConfig, binary_rate, noise_threshold,
                      overall_bound, overall_bound_mc, rate_bound_check)
from bqsm.uncertainty import (hadamard_invariant_state, half_split_state,
                              two_basis_relation)

PLUS_H = {}


def report(num, label, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _hadamard_matrix(n):
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    out = h
    for _ in range(n - 1):
        out = np.kron(out, h)
    return out


def _circ_matrix(n):
    c = np.array([[1.0, 1.0], [1.0j, -1.0j]]) / math.sqrt(2)
    out = c
    for _ in range(n - 1):
        out = np.kron(out, c)
    return out


def test_criterion_01_invariant_state_tightness():
    t0 = time.time()
    worst = 0.0
    for n in range(2, 9):
        rep = two_basis_relation(hadamard_invariant_state(n), [0], [0])
        worst = max(worst, abs(rep.lhs - (1 + 2 ** (-n / 2.0))),
                    abs(rep.slack))
    elapsed = time.time() - t0
    report(1, "two-basis tightness at the invariant state, n=2..8",
           worst <= 1e-9 and elapsed < 1.0,
           f"max dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_half_split_tight_case():
    worst = 0.0
    for n in (2, 4, 6, 8):
        st, lp, lt = half_split_state(n)
        rep = two_basis_relation(st, lp, lt)
        worst = max(worst, abs(rep.lhs - 2.0), abs(rep.rhs - 2.0))
    report(2, "half-split equality case, n in {2,4,6,8}", worst <= 1e-9,
           f"max dev {worst:.2e}")


def _haar_sweep(n, trials, seed):
    """Vectorized sweep: Haar states as rows, both/all basis probabilities,
    random sets as boolean masks."""
    rng = np.random.default_rng(seed)
    d = 1 << n
    g = rng.normal(size=(trials, d)) + 1j * rng.normal(size=(trials, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    q_plus = np.abs(g) ** 2
    q_times = np.abs(g @ _hadamard_matrix(n).T.conj()) ** 2
    q_circ = np.abs(g @ _circ_matrix(n).T.conj()) ** 2
    return rng, q_plus, q_times, q_circ


def test_criterion_03_relation_sweeps():
    n, trials = 6, 10_000
    rng, q_plus, q_times, q_circ = _haar_sweep(n, trials, 303)
    d = 1 << n
    c = 2.0 ** (-n / 2.0)
    sizes_p = rng.integers(1, d + 1, size=trials)
    sizes_t = rng.integers(1, d + 1, size=trials)
    sizes_c = rng.integers(1, d + 1, size=trials)
    viol = 0
    # random sets via per-trial random permutation thresholds
    ranks = rng.random((trials, d)).argsort(axis=1)
    mask_p = ranks < sizes_p[:, None]
    ranks2 = rng.random((trials, d)).argsort(axis=1)
    mask_t = ranks2 < sizes_t[:, None]
    ranks3 = rng.random((trials, d)).argsort(axis=1)
    mask_c = ranks3 < sizes_c[:, None]
    # thm:hadamard
    lhs = (q_plus * mask_p).sum(1) + (q_times * mask_t).sum(1)
    rhs = 1 + c * np.sqrt(sizes_p * sizes_t)
    viol += int((lhs > rhs + 1e-9).sum())
    # cor:pmax (sum and product)
    qp, qt = q_plus.max(1), q_times.max(1)
    viol += int((qp + qt > 1 + c + 1e-9).sum())
    viol += int((qp * qt > 0.25 * (1 + c) ** 2 + 1e-9).sum())
    # cor:pmax2
    viol += int((-np.log2(qp) - np.log2(qt)
                 < 2 * (1 - math.log2(1 + c)) - 1e-9).sum())
    # thm:mub with three tensor-power MUBs
    lhs3 = lhs + (q_circ * mask_c).sum(1)
    pair_max = np.maximum(np.sqrt(sizes_p * sizes_t),
                          np.maximum(np.sqrt(sizes_p * sizes_c),
                                     np.sqrt(sizes_t * sizes_c)))
    viol += int((lhs3 > 1 + 2 * c * pair_max + 1e-9).sum())
    report(3, f"relation sweeps, {trials} Haar states at n={n}",
           viol == 0, f"{viol} violations")


def test_criterion_04_maassen_uffink():
    n, trials = 6, 10_000
    _, q_plus, q_times, _ = _haar_sweep(n, trials, 404)

    def h_rows(q):
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(q > 0, q * np.log2(q), 0.0)
        return -t.sum(1)

    sums = h_rows(q_plus) + h_rows(q_times)
    viol = int((sums < n - 1e-9).sum())
    # equality on computational basis states
    dev = 0.0
    rng = np.random.default_rng(405)
    for _ in range(50):
        x = "".join(rng.choice(["0", "1"], n))
        amp = np.zeros(1 << n)
        amp[int(x, 2)] = 1.0
        qp = amp ** 2
        qt = np.abs(_hadamard_matrix(n) @ amp) ** 2
        dev = max(dev, abs(shannon_entropy(qp) + shannon_entropy(qt) - n))
    report(4, "Maassen-Uffink sweep + basis-state equality",
           viol == 0 and dev <= 1e-6,
           f"{viol} violations, equality dev {dev:.2e}")


def test_criterion_05_hd_table():
    t0 = time.time()
    table_ok = all(round(overall_bound(d), 2) == want for d, want in
                   ((2, 0.72), (4, 1.56), (8, 2.48), (16, 3.43)))
    est, se = overall_bound_mc(2, 100_000, 505)
    mc_ok = abs(est - overall_bound(2)) <= 3 * se
    elapsed = time.time() - t0
    report(5, "overall bound table + 1e5-sample Monte Carlo",
           table_ok and mc_ok and elapsed < 120,
           f"mc {est:.5f}+-{se:.5f}, {elapsed:.1f}s")


def test_criterion_06_qkd_thresholds():
    t1 = noise_threshold(0.5)
    t2 = noise_threshold(2 / 3)
    t3 = noise_threshold(0.72)
    ok = (abs(t1 - 0.1100) <= 5e-4 and abs(t2 - 0.1735) <= 2e-3
          and abs(t3 - 0.199) <= 2e-3)
    rates = [abs(binary_rate(h, noise_threshold(h)))
             for h in (0.5, 2 / 3, 0.72)]
    report(6, "noise thresholds 11% / 17.4% / 19.9% and zero rate",
           ok and max(rates) <= 1e-6,
           f"{t1:.4f} {t2:.4f} {t3:.4f}")


def test_criterion_07_classical_leftover_hash():
    cases = [(4, 1), (4, 2), (6, 1)]
    viol = checked = 0
    for n, ell in cases:
        fam = HashFamily(n, ell, "linear")
        rng = np.random.default_rng(707 + n * 10 + ell)
        for t in range(20):
            mass = _structured(rng, 1 << n, t)
            exact, bound = classical_lhl_distance(
                Distribution(range(1 << n), mass), fam)
            checked += 1
            viol += exact > bound + 1e-9
    report(7, f"classical left-over hash on {checked} structured "
           "distributions", viol == 0, f"{viol} violations")


def _structured(rng, size, kind):
    kind = kind % 5
    if kind == 0:
        return np.full(size, 1.0 / size)
    if kind == 1:
        m = np.zeros(size)
        m[int(rng.integers(size))] = 1.0
        return m
    if kind == 2:
        k = 1 << int(rng.integers(1, int(math.log2(size))))
        m = np.zeros(size)
        m[rng.choice(size, k, replace=False)] = 1.0 / k
        return m
    if kind == 3:
        m = rng.geometric(0.35, size=size).astype(float)
        return m / m.sum()
    m = rng.random(size) ** 2
    return m / m.sum()


def test_criterion_08_pa_against_quantum_memory():
    t0 = time.time()
    viol = 0
    runs = []
    for n in (4, 5, 6):
        strategies = [store_prefix(0), store_prefix(1), store_prefix(2),
                      measure_fixed(["+", "x"] * (n // 2) + ["+"] *
                                    (n % 2)),
                      breitbart_strategy()]
        if n % 2 == 0:
            strategies.append(bell_pairwise_xor())
        for strat in strategies:
            q = strat.memory_qubits(n)
            xs, us, ps, ops = [], [], [], []
            eye = np.eye(1 << q, dtype=complex) / (1 << q)
            for r, y, p_ry, p_x, rows in rabin_exact_blocks(n, strat):
                op = rows[:, :, None] * rows[:, None, :].conj()
                for x in np.nonzero(p_x > 0)[0]:
                    xs.append(int(x))
                    us.append((r, int(y)))
                    ps.append(p_ry * p_x[x])
                    ops.append(op[x] if op[x] is not None else eye)
            state = CqState(tuple(xs), np.asarray(ps), tuple(ops), q,
                            tuple(us))
            exact, bound = pa_distance(state, HashFamily(n, 1, "linear"))
            viol += exact > bound + 1e-9
            runs.append((n, str(strat), exact, bound))
    elapsed = time.time() - t0
    report(8, f"quantum privacy amplification, {len(runs)} "
           "(n, strategy) configurations",
           viol == 0 and elapsed < 600,
           f"{viol} violations, {elapsed:.0f}s")


def test_criterion_09_bell_xor_attack():
    worst = 0.0
    for n in (2, 4, 6):
        rec = bell_xor_attack(n)
        worst = max(worst, abs(rec["success_probability"] - 1.0))
        assert rec["stored_qubits"] == 0
    report(9, "pairwise Bell attack on the deterministic-XOR variant",
           worst <= 1e-9, f"max dev {worst:.1e}")


def test_criterion_10_breitbart():
    rec = breitbart_attack()
    want = math.cos(math.pi / 8) ** 2
    dev = max(abs(rec["b0"] - want), abs(rec["b1"] - want))
    report(10, "Breitbart attack on the two-bit fixture",
           dev <= 1e-9 and rec["xor_distance"] <= 1e-12,
           f"success {rec['b0']:.6f}, dev {dev:.1e}")


def test_criterion_11_xor_characterization():
    rng = np.random.default_rng(1111)
    counterexamples = 0
    zero_cases = 0
    for trial in range(10_000):
        # unnormalized integer counts: both distances are homogeneous of
        # degree 1 in the mass and exact in float64 on counts
        if trial % 2 == 0:
            counts = rng.integers(0, 7, size=8).reshape(2, 2, 2)
            if counts.sum() == 0:
                counts[0, 0, 0] = 1
        else:
            counts = np.zeros((2, 2, 2), dtype=int)
            ok = True
            for w in range(2):
                a, b, cc = (int(v) for v in rng.integers(0, 5, 3))
                dd = b + cc - a
                if dd < 0:
                    ok = False
                    break
                counts[:, :, w] = [[a, b], [cc, dd]]
            if not ok or counts.sum() == 0:
                continue
        dist = OtOutputDistribution(counts, 1, normalized=False)
        x = xor_uniformity(dist)
        eps = construct_pointer(dist).epsilon
        if (x == 0) != (eps == 0):
            counterexamples += 1
        zero_cases += x == 0
    # perturbed instances at l in {1, 2}
    budget_viol = 0
    for ell, trials in ((1, 400), (2, 80)):
        size = 1 << ell
        factor = 1 << (2 * ell + 1)
        for t in range(trials):
            prng = np.random.default_rng([1112, ell, t])
            nw = int(prng.integers(1, 4))
            base = np.full((size, size, nw), 1.0 / (size * size * nw))
            m = np.clip(base + prng.normal(
                scale=0.05 / (size * size * nw), size=base.shape),
                1e-9, None)
            m /= m.sum()
            dist = OtOutputDistribution(m, ell)
            nd, _ = ndlf_security_distance(dist)
            budget_viol += construct_pointer(dist).epsilon \
                > factor * nd + 1e-12
    report(11, "XOR iff-characterization (1e4 integer-count tables) + "
           "perturbation budgets",
           counterexamples == 0 and budget_viol == 0 and zero_cases > 2000,
           f"{counterexamples} counterexamples, {budget_viol} budget "
           f"violations, {zero_cases} exact-zero cases")


def test_criterion_12_min_entropy_splitting():
    rng = np.random.default_rng(1212)
    viol = 0
    for t in range(10_000):
        nx = 1 << int(rng.integers(1, 4))
        ny = 1 << int(rng.integers(1, 4))
        m = rng.random((nx, ny)) ** (1 + t % 3)
        m /= m.sum()
        alpha = -math.log2(m.max())
        res = split_min_entropy(
            JointDistribution([range(nx), range(ny)], m), alpha)
        viol += res.achieved < res.bound
    report(12, "min-entropy splitting on 1e4 random joints",
           viol == 0, f"{viol} violations")


def test_criterion_13_protocol_correctness():
    # erasure OT at phi=0
    runs = 10_000
    received = correct = 0
    for seed in range(runs):
        tr = run_rabin_ot(seed & 1, PERFECT, "honest", 24, seed)
        if tr.honest["a"] == 1:
            received += 1
            correct += tr.honest["y"] == tr.honest["b"]
    rabin_ok = correct == received
    rate_ok = abs(received / runs - 0.5) <= 3 * 0.5 / math.sqrt(runs)
    # 1-2 OT
    ot_ok = True
    for seed in range(3000):
        tr = run_ot12(seed & 1, PERFECT, "honest", 16, 1, seed)
        want = tr.honest["s0"] if tr.honest["c"] == 0 else tr.honest["s1"]
        ot_ok &= tr.honest["y"] == want
    # commitment
    com_ok = all(run_commitment(s & 1, PERFECT, "honest", 20,
                                s).honest["accepted"] for s in range(3000))
    # noisy fixtures at phi = 0.05
    code = repetition_code(5, design_phi=0.05)
    ch = ChannelModel(phi=0.05)
    fails = noisy_runs = 0
    for seed in range(400):
        tr = run_ot12(seed & 1, ch, "honest", 30, 1, seed, code=code)
        noisy_runs += 1
        fails += not tr.honest["decode_ok"]
    design = code.failure_probability_chunked(15, 0.05)
    sigma = math.sqrt(max(design * (1 - design), 1 / noisy_runs)
                      / noisy_runs)
    noisy_ok = fails / noisy_runs <= design + 3 * sigma
    report(13, "honest-path correctness (erasure OT, 1-2 OT, commitment, "
           "noisy fixtures)",
           rabin_ok and rate_ok and ot_ok and com_ok and noisy_ok,
           f"received rate {received / runs:.4f}, noisy fails "
           f"{fails}/{noisy_runs} vs design {design:.4f}")


def test_criterion_14_purification_equivalence():
    worst = 0.0
    for n in (4, 6, 8):
        strategies = [store_prefix(0), store_prefix(1), store_prefix(2),
                      measure_fixed(["+", "x"] * (n // 2)),
                      breitbart_strategy(), full_memory(),
                      bell_pairwise_xor()]
        for s in strategies:
            worst = max(worst, purification_gap(n, s,
                                                [["+"] * n, ["x"] * n]))
    report(14, "direct vs EPR adversary states, every strategy at "
           "n in {4,6,8}", worst <= 1e-9, f"max gap {worst:.1e}")


def test_criterion_15_binding():
    sup = binding_experiment("superposition", 10)
    neg = binding_experiment(full_memory(), 10)
    ok = abs(sup["sum"] - 1.0) <= 1e-9 and neg["sum"] >= 1.9
    bound_viol = 0
    for n in (8, 10, 12):
        for q in (0, 1, 2):
            rec = binding_experiment(store_prefix(q), n)
            bound_viol += not rec["bound_ok"]
        rec = binding_experiment(breitbart_strategy(), n)
        bound_viol += not rec["bound_ok"]
    report(15, "binding: superposition exhibit, negative control, bounded "
           "committers", ok and bound_viol == 0,
           f"sup sum {sup['sum']}, control {neg['sum']:.2f}, "
           f"{bound_viol} bound violations")


def test_criterion_16_proof_chain_audit():
    t0 = time.time()
    bad_links = []
    for strat, n in ((store_prefix(0), 5), (store_prefix(1), 5),
                     (store_prefix(2), 5), (breitbart_strategy(), 4)):
        rec = sender_security_distance(strat, "rabin", n)
        if not rec["pass"]:
            bad_links.append(("rabin", str(strat), rec["links"]))
    for strat, n in ((store_prefix(0), 5), (store_prefix(1), 5),
                     (store_prefix(2), 4), (breitbart_strategy(), 4)):
        rec = sender_security_distance(strat, "ot12", n, ell=1)
        if not rec["pass"]:
            bad_links.append(("ot12", str(strat), rec["links"]))
    cfg = QkdConfig(alphabet="six-state", p=0.0, ec_bits_per_symbol=0.0,
                    margin_bits=0.5)
    for eve in (Eavesdropper("trivial"),
                Eavesdropper("intercept_resend", ("+",)),
                Eavesdropper("store_subset", (2,))):
        rec = rate_bound_check(cfg, eve, 6, 1616)
        if not rec.get("pass", True):
            bad_links.append(("qkd", str(eve), rec))
    # CI gate: the CLI exits 0 on a clean audit, 3 on violations
    from bqsm.cli import main
    code = main(["-e", "sender-security", "--seed", "1",
                 "-p", "protocol=rabin", "-p", "n=4", "-p", "q=1",
                 "--out", "/tmp/bqsm_audit.json"])
    elapsed = time.time() - t0
    report(16, "bound-chain audit (uncertainty/splitting/chain/PA) + CI "
           "exit gate", not bad_links and code == 0,
           f"{len(bad_links)} failing runs, cli exit {code}, "
           f"{elapsed:.0f}s")


def test_criterion_17_accumulated_min_entropy():
    model = floor_hugging_chain(4, entropy_floor=1.0)
    rec = accumulated_min_entropy_markov(model, 200, 0.1, 10_000, 1717)
    report(17, "floor-hugging source vs concentration bound, n=200, "
           "|Z|=4, lam=0.1",
           rec["pass"],
           f"estimate {rec['estimate']:.4f} vs bound {rec['bound']:.4f}")
