"""Security experiments: purification equivalence, receiver-security
witnesses, and the sender-security distance with its full bound-chain audit.

Every audit computes the measured quantity exactly (block-diagonal trace
norms over the classical registers) and evaluates every inequality of the
corresponding proof chain on the same instance, reporting per-link slack.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ..cqstate import pa_distance
from ..entropy import JointDistribution, smooth_min_entropy, split_pointer
from ..errors import InputError, check_cap
from ..hashing import HashFamily
from ..qstate import (SINGLE_QUBIT_BASES, product_basis_matrix,
                      rank1_trace_norm, trace_norm)
from ..uncertainty import event_from_distributions, genrel_epsilon
from .adversary import (AdversaryStrategy, direct_blocks_dense,
                        epr_blocks_dense, product_factors, product_table,
                        row_states, sender_measurement_dense)
from .rabin import rabin_cq_state, rabin_exact_blocks

_ROW_CHUNK_CELLS = 1 << 15  # _pointer_distance stack cells: 256 KiB of int64


# ---------------------------------------------------------------------------
# purification equivalence
# ---------------------------------------------------------------------------

def purification_gap(n: int, strategy: AdversaryStrategy, thetas) -> float:
    """Trace distance between the adversary's direct-protocol and
    EPR-purified cq-states at the memory-bound step, maximized over the
    supplied basis strings (each taken with uniform weight).

    The blocks are classical in (theta, y, x) and each holds a pure state
    on the kept register: a = sqrt(p_y) (V_theta^dagger B_y)[x] in the EPR
    picture and b = 2^{-n/2} (U |x>_theta)[y] in the direct one. The gap
    sums the rank-1 trace norms ||a a^dagger - b b^dagger||_1, so 0
    certifies exact operational equivalence.
    """
    total = 0.0
    for theta in thetas:
        blocks = epr_blocks_dense(n, strategy)
        direct = direct_blocks_dense(n, strategy, theta) * 2.0 ** (-n / 2.0)
        c = sender_measurement_dense(blocks, theta) \
            * np.sqrt(blocks.probs)[:, None, None]
        epr = np.zeros(direct.shape, np.result_type(direct, c))
        epr[blocks.ys] = c
        total += 0.5 * float(rank1_trace_norm(epr, direct).sum())
    return total / len(thetas)


# ---------------------------------------------------------------------------
# receiver security
# ---------------------------------------------------------------------------

@dataclass
class SenderBranch:
    """One classical branch of a (dishonest) sender program: a joint pure
    state on (sent n qubits) x (kept register), plus announcements."""

    weight: float
    amps: np.ndarray          # (2^n, dim_kept)
    r: str                    # announced basis (rabin) or theta string
    f_index: int
    e: int
    garbage: bool = False


def honest_rabin_sender(n: int, seed: int, branches: int = 4):
    """Honest sender as a branch list (sampled x, r, f, e with b=0)."""
    rng = np.random.default_rng(seed)
    fam = HashFamily(n, 1, "linear")
    out = []
    for _ in range(branches):
        x = int(rng.integers(1 << n))
        r = "+" if rng.integers(2) == 0 else "x"
        v = product_basis_matrix([r] * n)[:, x].reshape(-1, 1)
        f_idx = int(rng.integers(fam.size))
        e = fam.eval(fam.member(f_idx), x)  # b = 0
        out.append(SenderBranch(1.0 / branches, v, r, f_idx, e))
    return out


def garbage_rabin_sender(n: int, seed: int):
    return [SenderBranch(1.0, np.zeros((1 << n, 1)), "+", 0, 0,
                         garbage=True)]


def entangled_rabin_sender(n: int, seed: int):
    """Sends EPR halves, keeps the partners, measures the first kept qubit
    in the diagonal basis and announces e = that outcome; branches cover
    both outcomes exactly."""
    rng = np.random.default_rng(seed)
    fam = HashFamily(n, 1, "linear")
    f_idx = int(rng.integers(fam.size))
    r = "+" if rng.integers(2) == 0 else "x"
    d = 1 << n
    joint = np.zeros((d, d), dtype=complex)
    for x in range(d):
        joint[x, x] = 2.0 ** (-n / 2.0)
    # measure kept qubit 0 (most significant bit of the kept index) in "x"
    h = SINGLE_QUBIT_BASES["x"]
    out = []
    for outcome in range(2):
        proj_vec = h[:, outcome].conj()
        # contract the kept register's first qubit with the projector
        kept = joint.reshape(d, 2, d // 2)
        amp = np.tensordot(kept, proj_vec, axes=([1], [0]))  # (d, d//2)
        w = float((np.abs(amp) ** 2).sum())
        out.append(SenderBranch(w, amp / math.sqrt(w), r, f_idx,
                                outcome))
    return out


def receiver_security_witness(branches, protocol: str, n: int) -> dict:
    """Run the unbounded-receiver modified experiment and verify the
    receiver-security state identity exactly.

    rabin: B' := e xor f(X') for X' measured in the announced basis; checks
    delta(rho_{A B' Senderside}, I/2 (x) rho_{B' Senderside}) = 0.
    ot12: S'_b := f_b(X' pad I_b); checks independence of the choice bit.
    """
    if protocol == "rabin":
        return _rabin_witness(branches, n)
    if protocol == "ot12":
        return _ot12_witness(branches, n)
    raise InputError(f"unknown protocol {protocol!r}")


def _rabin_witness(branches, n: int) -> dict:
    fam = HashFamily(n, 1, "linear")
    # blocks: (a, b_prime, branch index) -> weighted kept-register operator
    blocks: dict = {}
    marg: dict = {}
    for bi, br in enumerate(branches):
        if br.garbage:
            # anti-abort: receiver samples a and y uniformly, independent
            for a in (0, 1):
                for bp in (0, 1):
                    blocks[(a, bp, bi)] = 0.25 * br.weight \
                        * np.array([[1.0 + 0j]])
                    marg[(bp, bi)] = marg.get((bp, bi), 0) \
                        + 0.25 * br.weight * np.array([[1.0 + 0j]])
            continue
        member = fam.member(br.f_index)
        v = product_basis_matrix([br.r] * n)
        p_x, unit = row_states(v.conj().T @ br.amps)
        for x in np.nonzero(p_x)[0]:
            op = np.outer(unit[x], unit[x].conj()) * p_x[x] * br.weight
            bp = br.e ^ fam.eval(member, int(x))
            for a in (0, 1):
                key = (a, bp, bi)
                blocks[key] = blocks.get(key, 0) + 0.5 * op
            marg[(bp, bi)] = marg.get((bp, bi), 0) + op
    dist = 0.0
    for (a, bp, bi), op in blocks.items():
        dist += 0.5 * trace_norm(op - 0.5 * marg[(bp, bi)])
    return {"protocol": "rabin", "distance": dist,
            "exact": bool(dist <= 1e-9)}


def _ot12_witness(branches, n: int) -> dict:
    fam = HashFamily(n, 1, "linear")
    blocks: dict = {}
    marg: dict = {}
    p_c = {0: 0.5, 1: 0.5}
    for bi, br in enumerate(branches):
        theta = br.r if len(br.r) == n else br.r * n
        member0 = fam.member(br.f_index)
        member1 = fam.member((br.f_index + 1) % fam.size)
        pad0 = _pad_index(n, [i for i, t in enumerate(theta) if t == "+"])
        pad1 = _pad_index(n, [i for i, t in enumerate(theta) if t == "x"])
        v = product_basis_matrix(theta)
        p_x, unit = row_states(v.conj().T @ br.amps)
        for x in np.nonzero(p_x)[0]:
            op = np.outer(unit[x], unit[x].conj()) * p_x[x] * br.weight
            s0 = fam.eval(member0, int(pad0[x]))
            s1 = fam.eval(member1, int(pad1[x]))
            for cbit, w in p_c.items():
                key = (cbit, s0, s1, bi)
                blocks[key] = blocks.get(key, 0) + w * op
            mk = (s0, s1, bi)
            marg[mk] = marg.get(mk, 0) + op
    dist = 0.0
    for (cbit, s0, s1, bi), op in blocks.items():
        dist += 0.5 * trace_norm(op - p_c[cbit] * marg[(s0, s1, bi)])
    return {"protocol": "ot12", "distance": dist,
            "exact": bool(dist <= 1e-9)}


# ---------------------------------------------------------------------------
# sender security with bound-chain audit
# ---------------------------------------------------------------------------

def sender_security_distance(strategy: AdversaryStrategy, protocol: str,
                             n: int, ell: int = 1, lam: float | None = None
                             ) -> dict:
    if protocol == "rabin":
        return _rabin_sender_security(strategy, n, lam)
    if protocol == "ot12":
        return _ot12_sender_security(strategy, n, ell, lam)
    raise InputError(f"unknown protocol {protocol!r}")


def _pick_lambda(q: int, n: int) -> float:
    gamma = q / n
    return 0.49 if gamma >= 0.5 else min(0.49, (gamma + 0.5) / 2.0)


def _rabin_sender_security(strategy, n, lam) -> dict:
    """Erasure-OT sender security: event construction per adversary
    outcome, exact masked-bit distance conditioned on the event, and the
    privacy-amplification bound."""
    q = strategy.memory_qubits(n)
    lam = lam if lam is not None else _pick_lambda(q, n)
    per_y: dict = {}
    for r, y, p_ry, p_x, rows in rabin_exact_blocks(n, strategy):
        per_y.setdefault(y, {})[r] = (p_ry, p_x, rows)
    chosen = []
    p_event = 0.0
    links = {"event_prob": math.inf, "branch_entropy": math.inf}
    kappa_max = 0.0
    for y, per_r in sorted(per_y.items()):
        qp = per_r.get("+", (0.0, np.zeros(1 << n), None))[1]
        qt = per_r.get("x", (0.0, np.zeros(1 << n), None))[1]
        ec = event_from_distributions(qp, qt, lam, n)
        kappa_max = max(kappa_max, ec.kappa)
        links["event_prob"] = min(
            links["event_prob"],
            ec.prob_sum - (1.0 - 2.0 ** (-ec.kappa * n)))
        for r, keep, prob, h in (("+", ec.keep_plus, ec.prob_plus,
                                  ec.h_plus),
                                 ("x", ec.keep_times, ec.prob_times,
                                  ec.h_times)):
            if prob <= 0 or keep is None:
                continue
            links["branch_entropy"] = min(links["branch_entropy"],
                                          h - lam * n)
            p_ry, p_x, rows = per_r[r]
            p_event += p_ry * prob
            chosen.append((r, y, p_ry, np.where(keep, p_x, 0.0), rows))
    state = rabin_cq_state(q, chosen, p_event)
    fam = HashFamily(n, 1, "linear")
    exact, bound = pa_distance(state, fam, 0.0)
    links["pa"] = bound - exact
    epsilon = max(exact, 0.5 - p_event)
    return {
        "protocol": "rabin", "strategy": str(strategy), "n": n, "q": q,
        "lambda": lam, "kappa": kappa_max,
        "event_probability": p_event,
        "distance": exact, "bound": bound, "epsilon": epsilon,
        "links": links,
        "pass": bool(all(s >= -1e-9 for s in links.values())),
    }


def _ot12_sender_security(strategy, n, ell, lam) -> dict:
    """1-2 OT sender security for product strategies: exact assembly over
    (theta, y) blocks with the splitting pointer, plus the
    uncertainty -> splitting -> chain-rule -> PA audit.

    f0 sees only x on I0 = {i : theta_i = +}, f1 only x on I1, and a
    uniform l x n matrix restricted to I0's columns is uniform and
    independent of its I1 restriction. Each block sees those restrictions
    only through their row spaces, so the exact (f0, f1) average runs
    over weighted representative pairs of HashFamily(|I0|, l) x
    HashFamily(|I1|, l); an empty index set leaves the zero map alone."""
    if not strategy.is_product():
        raise InputError("1-2 OT audit expects a product strategy")
    check_cap("ot12-audit", "n", n)
    q = strategy.memory_qubits(n)
    # a (theta, y) block holds (g0, g1, d, s0, s1, kept) masses, at most
    # 2^{(n+2)*ell+q+1}: the cap bounds that with q bits to spare
    check_cap("ot12-block", "(n+2)*ell+2*q+1", (n + 2) * ell + 2 * q + 1)
    lam = lam if lam is not None else 0.1
    kept, t = product_factors(n, strategy)
    kept_idx = np.nonzero(kept)[0].tolist()
    reps = [HashFamily(k, ell).representatives() if k
            else (np.zeros((1, 1), np.uint32), np.ones(1))
            for k in range(n + 1)]

    # pass 1: P(y, x | theta) per basis string, keeping the y rows with
    # mass; the classical joint for the uncertainty link and alpha
    per_theta = []
    for theta in itertools.product("+x", repeat=n):
        mass_yx = product_table(kept, t, theta)
        per_theta.append((theta, mass_yx[mass_yx.sum(axis=1) > 0]))
    cols = [m for _, rows in per_theta for m in rows]
    mass = np.stack(cols, axis=1) * 2.0 ** (-n)
    joint = JointDistribution([range(1 << n), range(len(cols))], mass,
                              normalized=True)
    eps_unc = genrel_epsilon(n, lam, 2, 2)
    h_unc, _ = smooth_min_entropy(joint, eps_unc)
    links = {"uncertainty": h_unc - (0.5 - 2 * lam) * n}
    alpha = -math.log2(max(col.max() / col.sum() for col in cols))

    # pass 2: splitting pointer and exact distance, per basis string
    eps_prime = 2.0 ** (-max(1.0, n / 4.0))
    peak, dist = 0.0, 0.0
    kap, dim_k = _part_value(n, kept_idx), 1 << len(kept_idx)
    for theta, rows in per_theta:
        i0 = [i for i in range(n) if theta[i] == "+"]
        i1 = [i for i in range(n) if theta[i] == "x"]
        x0_val, x1_val = _part_value(n, i0), _part_value(n, i1)
        # each representative's output on every x's I0 (I1) substring
        (tab0, wt0), (tab1, wt1) = reps[len(i0)], reps[len(i1)]
        hashed = ((tab0[:, x0_val], wt0), (tab1[:, x1_val], wt1))
        # the y rows of theta share the split, tables and kept values;
        # their distances add to dist in row order
        grids = np.zeros((len(rows), 1 << len(i0), 1 << len(i1)))
        grids[:, x0_val, x1_val] = rows / rows.sum(axis=1, keepdims=True)
        d_x1, peaks = split_pointer(grids, alpha)
        peak = max(peak, peaks.max())
        dist = sum(_pointer_distance(rows * 2.0 ** (-n), d_x1[:, x1_val],
                                     kap, dim_k, *hashed, ell).tolist(), dist)
    split_floor = -math.log2(peak) if peak > 0 else math.inf
    links["splitting"] = split_floor - alpha / 2.0
    h_chain = alpha / 2.0 - (1.0 + ell) - math.log2(1.0 / eps_prime)
    bound = 0.5 * 2.0 ** (-0.5 * (h_chain - q - ell)) + eps_prime
    links["final_pa"] = bound - dist
    return {
        "protocol": "ot12", "strategy": str(strategy), "n": n, "q": q,
        "ell": ell, "lambda": lam, "alpha": alpha,
        "h_uncertainty": h_unc, "eps_uncertainty": eps_unc,
        "distance": dist, "bound": bound, "links": links,
        "pass": bool(all(s >= -1e-9 for s in links.values())),
    }


def _pointer_distance(w, dvec, kap, dim_k, side0, side1, ell) -> np.ndarray:
    """Each (theta, y) block's weighted sum over hash pairs (g0, g1) of
    sum_d 1/2 ||rho_{S0 S1 E, d} - unif . rho_{S_D E, d}||_1, for the Y
    blocks of one basis string in stacks of ~`_ROW_CHUNK_CELLS` cells:
    w[y, x] is block y's mass, dvec[y, x] its pointer, kap[x] < dim_k the
    kept value; side_i = (h_i, weight_i), h_i[g, x] = g(x's I_i part).

    The kept states |kappa>_theta of one basis string are orthonormal, so
    every block is diagonal in them and its trace norm is the l1 norm of
    its (g0, g1, d, s0, s1, kappa) masses."""
    (h0, wt0), (h1, wt1) = side0, side1
    s_out = 1 << ell
    shape = (len(wt0), len(wt1), 2, s_out, s_out, dim_k)
    block = math.prod(shape)
    pair = 2 * np.arange(len(wt0) * len(wt1)).reshape(shape[:2])
    step = max(1, _ROW_CHUNK_CELLS // max(pair.size * w.shape[1], block))
    out = np.empty(len(w))
    for lo in range(0, len(w), step):
        ys, xs = np.nonzero(w[lo:lo + step] > 0)
        # one flat (row, g0, g1, d, s0, s1, kept value) cell per
        # (row, x, g0, g1), summed in x order within each row
        cell = (((pair + dvec[lo + ys, xs, None, None]) * s_out
                 + h0[:, xs].T[:, :, None]) * s_out
                + h1[:, xs].T[:, None, :]) * dim_k \
            + (ys * block + kap[xs])[:, None, None]
        mass = w[lo + ys, xs, None, None] * wt0[:, None] * wt1
        rows = min(step, len(w) - lo)
        acc = np.bincount(cell.ravel(), mass.ravel(), rows * block
                          ).reshape((rows,) + shape)
        # sub axes: row, g0, g1, s0, s1, kappa; the S_{1-D} register is S1
        # when d = 0 (sum axis 4) and S0 when d = 1 (sum axis 3)
        total = 0.0
        for sub, axis in ((acc[:, :, :, 0], 4), (acc[:, :, :, 1], 3)):
            sub = sub - sub.sum(axis=axis, keepdims=True) / s_out
            total = total + np.abs(sub).reshape(rows, -1).sum(axis=1)
        out[lo:lo + rows] = 0.5 * total
    return out


def _part_value(n, idx) -> np.ndarray:
    """For every x, the integer value of its substring at idx (ascending),
    as if padded: high bits first."""
    x = np.arange(1 << n)
    out = np.zeros(1 << n, dtype=np.int64)
    for pos, i in enumerate(idx):
        out |= ((x >> (n - 1 - i)) & 1) << (len(idx) - 1 - pos)
    return out


def _pad_index(n, idx) -> np.ndarray:
    """Packed value of (x restricted to idx, zero-padded to n bits)."""
    return _part_value(n, idx) << (n - len(idx))
