"""Erasure (Rabin-style) oblivious transfer: honest runs, the BB84 noisy
variant with syndrome reconciliation, and exact attack analyses.

The honest path needs no quantum state: honest parties measure on arrival,
so runs scale to large n by per-qubit sampling. Adversarial runs use the
exact engines from `adversary`.
"""

from __future__ import annotations

import math

import numpy as np

from ..bits import bases_to_str, bits_to_int, bits_to_str, parity_u64
from ..cqstate import CqState
from ..errors import InputError, check_cap
from ..hashing import HashFamily, fwht
from ..qstate import batched_trace_norm
from .adversary import (AdversaryStrategy, bell_pairwise_xor,
                        direct_blocks_dense, epr_blocks_dense,
                        product_factors, row_states,
                        sender_measurement_dense)
from .channel import ChannelModel, PERFECT, honest_outcomes
from .codes import LinearCode
from .transcript import ProtocolTranscript

BELL_XOR = {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (1, 1)}  # phi+,psi+,phi-,psi-


def _rng(seed):
    return np.random.default_rng(seed)


def run_rabin_ot(b: int, channel: ChannelModel, receiver, n: int, seed: int,
                 mask: str = "hash") -> ProtocolTranscript:
    """One run of the erasure-OT protocol.

    mask='hash' sends e = b xor f(x) for a random one-bit hash; mask='xor'
    is the deterministic variant e = b xor (xor of all bits), broken by the
    pairwise Bell attack.
    """
    if receiver == "honest":
        return _rabin_honest(b, channel, n, seed, mask)
    return _rabin_adversarial(b, channel, receiver, n, seed, mask)


def _rabin_honest(b, channel, n, seed, mask) -> ProtocolTranscript:
    check_cap("honest-path", "n", n)
    phi, _ = channel.effective()
    rng = _rng(seed)
    tr = ProtocolTranscript("rabin_ot", seed, n)
    x = rng.integers(0, 2, size=n, dtype=np.uint8)
    r = "+" if rng.integers(2) == 0 else "x"
    tr.say("S", "qubits", f"|x>_{r}")
    r_prime = "+" if rng.integers(2) == 0 else "x"
    x_meas = honest_outcomes(rng, x, r_prime == r, phi)
    fam = HashFamily(n, 1, "linear")
    if mask == "hash":
        member = fam.sample(rng)
        fx = fam.eval(member, bits_to_int(x))
        f_desc = member.to_hex()
    elif mask == "xor":
        f_desc = "xor"
        fx = int(x.sum() % 2)
    else:
        raise InputError(f"unknown mask {mask!r}")
    e = b ^ fx
    tr.say("S", "announce", {"r": r, "f": f_desc, "e": e})
    if r_prime == r:
        a = 1
        if mask == "hash":
            y = e ^ fam.eval(member, bits_to_int(x_meas))
        else:
            y = e ^ int(x_meas.sum() % 2)
    else:
        a, y = 0, 0
    tr.honest = {"b": b, "x": bits_to_str(x), "r": r, "r_prime": r_prime,
                 "a": a, "y": y, "e": e, "f": f_desc}
    return tr


def _rabin_adversarial(b, channel, strategy: AdversaryStrategy, n, seed,
                       mask) -> ProtocolTranscript:
    if not channel.noiseless:
        raise InputError("exact adversarial runs assume a noiseless channel")
    rng = _rng(seed)
    tr = ProtocolTranscript("rabin_ot", seed, n, str(strategy))
    x = rng.integers(0, 2, size=n, dtype=np.uint8)
    r = "+" if rng.integers(2) == 0 else "x"
    x_int = bits_to_int(x)
    # phase 1-2: adversary compresses and measures
    p_y, _ = row_states(direct_blocks_dense(n, strategy, [r] * n,
                                            [x_int])[:, 0])
    ys = np.nonzero(p_y)[0]
    probs = p_y[ys]
    y = int(ys[int(rng.choice(len(ys), p=probs / probs.sum()))])
    fam = HashFamily(n, 1, "linear")
    if mask == "hash":
        member = fam.sample(rng)
        fx = fam.eval(member, x_int)
        f_desc = member.to_hex()
    else:
        member, f_desc = None, "xor"
        fx = int(x.sum() % 2)
    e = b ^ fx
    tr.say("S", "announce", {"r": r, "f": f_desc, "e": e})
    guess = _canonical_guess(strategy, n, r, y, member, fam, e, mask, x)
    tr.honest = {"b": b, "x": bits_to_str(x), "r": r, "e": e, "f": f_desc}
    tr.adversary = {"y": int(y), "guess_b": guess,
                    "q": strategy.memory_qubits(n)}
    return tr


def _canonical_guess(strategy, n, r, y, member, fam, e, mask, x_true):
    """Phase-3 rule: estimate x from (y, announced basis, kept register),
    then invert the mask."""
    if strategy.kind == "bell_pairwise_xor":
        ridx = 0 if r == "+" else 1
        xor = 0
        for pair in range(n // 2):
            outcome = (y >> (2 * (n // 2 - 1 - pair))) & 3
            xor ^= BELL_XOR[outcome][ridx]
        if mask == "xor":
            return e ^ xor
        # with a hash mask the XOR information does not determine f(x);
        # guess from an arbitrary string consistent with the pair XORs
        bits = []
        for pair in range(n // 2):
            outcome = (y >> (2 * (n // 2 - 1 - pair))) & 3
            bits += [0, BELL_XOR[outcome][ridx]]
        return e ^ fam.eval(member, bits_to_int(bits))
    # product strategies: measuring a kept qubit |x_i>_r in basis r returns
    # x_i; a measured one is guessed from its outcome given theta_i = r
    kept, t = product_factors(n, strategy)
    y_bits = (y >> np.arange(int((~kept).sum()))[::-1]) & 1
    bits = np.array(x_true, dtype=np.int64)
    bits[~kept] = t[~kept, "+x".index(r), y_bits].argmax(axis=1)
    if mask == "xor":
        return e ^ int(bits.sum() % 2)
    return e ^ fam.eval(member, bits_to_int(bits))


# ---------------------------------------------------------------------------
# exact attack analyses
# ---------------------------------------------------------------------------

def rabin_exact_blocks(n: int, strategy: AdversaryStrategy):
    """EPR-picture blocks for the erasure protocol: yields
    (r, y, P(r, y), p_x_given_ry, rows), where rows[x] is the unit amplitude
    row of the retained register's pure state (zero where p_x = 0)."""
    blocks = epr_blocks_dense(n, strategy)
    for r in ("+", "x"):
        p_x, unit = row_states(sender_measurement_dense(blocks, [r] * n))
        for y, p_y, p, u in zip(blocks.ys, blocks.probs, p_x, unit):
            yield r, y, 0.5 * p_y, p, u


def rabin_cq_state(q: int, blocks, p_total: float = 1.0) -> CqState:
    """The cq-state of the packed X against the adversary's view
    U = (r, y) and kept register: one entry per x with p_x > 0 in each
    (r, y, P(r, y), p_x_given_ry, rows) block of `rabin_exact_blocks`,
    with probabilities divided by p_total."""
    r, y, p_ry, p_x, rows = zip(*blocks)
    p_x = np.stack(p_x)
    b, x = np.nonzero(p_x > 0)
    return CqState(x, np.asarray(p_ry)[b] * p_x[b, x] / p_total, q=q, u=b,
                   rows=np.stack(rows)[b, x],
                   labels=[(rv, int(yv)) for rv, yv in zip(r, y)])


def rabin_guess_probability(n: int, strategy: AdversaryStrategy,
                            mask: str = "hash") -> float:
    """Exact optimal probability of guessing the transmitted bit b from the
    adversary's complete view (announcements plus retained register).

    Helstrom discrimination per classical block (r, y, f): b is masked by
    f(x) = a.x, so its two states differ by W(a) = sum_x (-1)^{a.x} c_x
    c_x^dagger, c_x = sqrt(P(r, y)) (V_r^dagger B_y)[x] the raw amplitudes.
    The hash mask averages ||W(a)||_1 over every a, one Walsh-Hadamard
    transform per stack of y blocks (chunked to the size of the amplitude
    array); the xor mask takes a = 1^n, one parity-signed sum.
    """
    blocks = epr_blocks_dense(n, strategy)
    sign = 1.0 - 2.0 * parity_u64(np.arange(1 << n, dtype=np.uint64))
    advantage = 0.0
    for r in ("+", "x"):
        c = sender_measurement_dense(blocks, [r] * n) \
            * np.sqrt(0.5 * blocks.probs)[:, None, None]
        if mask == "xor":
            w = (c * sign[:, None]).swapaxes(1, 2) @ c.conj()
            advantage += batched_trace_norm(w)
            continue
        for part in np.array_split(c, min(len(c), c.shape[-1])):
            w = fwht(part[..., :, None] * part[..., None, :].conj(), axis=1)
            advantage += batched_trace_norm(w) / len(sign)
    return float(0.5 + 0.5 * advantage)


def bell_xor_attack(n: int, seed: int = 0) -> dict:
    """Exact success probability of the pairwise Bell attack against the
    deterministic-XOR variant (1.0 at even n with zero stored qubits),
    plus a sampled transcript demonstrating it."""
    strategy = bell_pairwise_xor()
    p = rabin_guess_probability(n, strategy, mask="xor")
    tr = run_rabin_ot(0, PERFECT, strategy, n, seed, mask="xor")
    return {"n": n, "success_probability": p,
            "stored_qubits": strategy.memory_qubits(n),
            "sample_guess_correct": tr.adversary["guess_b"]
            == tr.honest["b"],
            "transcript": tr.to_json()}


def breitbart_attack() -> dict:
    """The two-bit counterexample state: the receiver holding one qubit
    unmasks either bit with probability cos^2(pi/8) by measuring in the
    Breitbart basis (or its 45-degree rotation)."""
    c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
    breit = np.array([[c, s], [s, -c]], dtype=complex)
    rot45 = np.array([[math.cos(math.pi / 8 - math.pi / 4),
                       math.sin(math.pi / 8 - math.pi / 4)],
                      [math.sin(math.pi / 8 - math.pi / 4),
                       -math.cos(math.pi / 8 - math.pi / 4)]], dtype=complex)
    # rho_{B0 B1 E}: E = |0>,|1>,|+>,|-> on (00,11,01,10)
    plus = np.array([1, 1]) / math.sqrt(2)
    minus = np.array([1, -1]) / math.sqrt(2)
    states = {(0, 0): np.array([1, 0]), (1, 1): np.array([0, 1]),
              (0, 1): plus, (1, 0): minus}
    out = {}
    for target, basis in (("b0", breit), ("b1", rot45)):
        success = 0.0
        for (b0, b1), vec in states.items():
            probs = np.abs(basis.conj().T @ vec) ** 2
            # outcome k guesses bit k for b0; for b1 the mapping flips on
            # the rotated basis
            want = b0 if target == "b0" else b1
            success += 0.25 * probs[want]
        out[target] = success
    # XOR of the two bits is perfectly hidden
    rho_xor0 = 0.5 * (np.outer(states[(0, 0)], states[(0, 0)])
                      + np.outer(states[(1, 1)], states[(1, 1)]))
    rho_xor1 = 0.5 * (np.outer(states[(0, 1)], states[(0, 1)])
                      + np.outer(states[(1, 0)], states[(1, 0)]))
    from ..qstate import trace_norm
    out["xor_distance"] = 0.5 * trace_norm(rho_xor0 - rho_xor1) * 0.5
    out["expected"] = math.cos(math.pi / 8) ** 2
    return out


# ---------------------------------------------------------------------------
# BB84 variant with error correction
# ---------------------------------------------------------------------------

def run_bb84_rabin_ot(b: int, channel: ChannelModel, receiver, n: int,
                      code: LinearCode, seed: int) -> ProtocolTranscript:
    """The noisy-source variant: per-qubit bases, a random matching subset
    announcement, and chunked syndrome reconciliation.

    Multi-qubit emissions (rate eta) leak the basis and bit of the affected
    positions to an adversary; honest parties never notice them.
    """
    phi, eta = channel.effective()
    if code.design_phi is not None and code.design_phi + 1e-12 < phi:
        raise InputError("code designed for a lower flip rate than the "
                         "channel")
    rng = _rng(seed)
    if receiver != "honest":
        return _bb84_adversarial(b, channel, receiver, n, code, seed)
    check_cap("honest-path", "n", n)
    tr = ProtocolTranscript("bb84_rabin_ot", seed, n)
    x = rng.integers(0, 2, size=n, dtype=np.uint8)
    theta = rng.integers(0, 2, size=n) == 1     # True: basis x
    # emissions are irrelevant to the honest receiver but recorded
    emitted_multi = rng.random(n) < eta
    r_prime = int(rng.integers(2))
    x_meas = honest_outcomes(rng, x, theta == r_prime, phi)
    r = int(rng.integers(2))
    idx = np.nonzero(theta == r)[0]
    ell = len(idx)
    if ell == 0:
        tr.honest = {"b": b, "a": 0, "y": 0, "note": "empty index set"}
        return tr
    syn = code.syndrome_chunked(x[idx])
    fam = HashFamily(ell, 1, "linear")
    member = fam.sample(rng)
    e = b ^ fam.eval(member, bits_to_int(x[idx]))
    tr.say("S", "announce", {"r": "+x"[r], "I": idx.tolist(),
                             "syn": syn.tolist(), "f": member.to_hex(),
                             "e": e})
    if r_prime == r:
        decoded = code.decode_chunked(x_meas[idx], syn)
        y = e ^ fam.eval(member, bits_to_int(decoded))
        a = 1
        decode_ok = bool(np.array_equal(decoded, x[idx]))
    else:
        a, y, decode_ok = 0, 0, None
    tr.honest = {"b": b, "x": bits_to_str(x),
                 "theta": bases_to_str(theta), "r": "+x"[r],
                 "r_prime": "+x"[r_prime], "a": a, "y": y,
                 "decode_ok": decode_ok,
                 "multi_emissions": int(emitted_multi.sum())}
    return tr


def _bb84_adversarial(b, channel, strategy, n, code, seed):
    """Adversarial run with emission bookkeeping: leaked positions hand
    (theta_i, x_i) to the adversary; the rest go through the strategy.
    Exact conditional entropy of the in-subset string is recorded."""
    phi, eta = channel.effective()
    rng = _rng(seed)
    tr = ProtocolTranscript("bb84_rabin_ot", seed, n, str(strategy))
    x = rng.integers(0, 2, size=n, dtype=np.uint8)
    theta = rng.integers(0, 2, size=n) == 1     # True: basis x
    leaked = rng.random(n) < eta
    r = int(rng.integers(2))
    idx = np.nonzero(theta == r)[0]
    ell = len(idx)
    syn = code.syndrome_chunked(x[idx]) if ell else np.array([], np.uint8)
    # adversary's per-position knowledge after announcements (r, I, syn):
    # leaked -> exact bit; measured in w -> posterior from the factor table
    if not strategy.is_product():
        raise InputError("bb84 adversarial path supports product strategies")
    kept, t = product_factors(n, strategy)
    post = []
    for i in range(n):
        if leaked[i]:
            post.append(1.0)
        elif kept[i]:
            post.append(1.0 if theta[i] == r else 0.5)
        else:
            table = t[i, int(theta[i])]
            # sample the adversary's outcome for this qubit
            py = table[:, x[i]] / table[:, x[i]].sum()
            y_i = int(rng.choice(2, p=py))
            cond = table[y_i] / table[y_i].sum()
            post.append(float(cond.max()))
    in_set = [post[i] for i in idx]
    h_min = -sum(math.log2(p) for p in in_set) if in_set else 0.0
    budget = max(0.0, ell - strategy.memory_qubits(n) - len(syn))
    tr.honest = {"b": b, "x": bits_to_str(x),
                 "theta": bases_to_str(theta), "r": "+x"[r]}
    tr.adversary = {"leaked_positions": int(leaked.sum()),
                    "h_min_x_given_view": h_min,
                    "proof_budget": budget,
                    "syndrome_bits": int(len(syn))}
    return tr
