"""Sender-security of randomized oblivious transfer, characterized through
non-degenerate linear functions.

Implements the XOR criterion for bit OT, the NDLF criterion for string OT,
the constructive pointer extension behind the sufficiency proof, the
1-of-n pairwise conditions, and reduction harnesses that build OT from a
single universal-OT channel with exact hash-family averaging.

Distributions live in float64 arrays indexed [s0, s1, w] (or
[s_0, ..., s_{n-1}, w]). The XOR distance, the pointer extension and its
distance are homogeneous of degree 1 in the mass, so an unnormalized
array of integer counts (`normalized=False`) scales every result by the
total count and keeps "is it zero" unchanged. On counts every step is
integer addition, subtraction or a halving, which float64 does exactly,
so the exact equivalences are tested without float ambiguity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bits import parity_u64
from .entropy import (JointDistribution, conditional_renyi,
                      smooth_min_entropy, split_pointer)
from .errors import CAPS, InputError, PromiseViolation, check_cap
from .hashing import HashFamily, enumerate_ndlf, fwht


class OtOutputDistribution:
    """Joint distribution of the two l-bit strings and the receiver output,
    mass[s0, s1, w]."""

    def __init__(self, mass, ell: int, w_labels=None, normalized=True):
        m = np.array(mass, dtype=float)
        check_cap("ot-ell", "ell", ell)
        size = 1 << ell
        if m.ndim != 3 or m.shape[0] != size or m.shape[1] != size:
            raise InputError("mass must be (2^l, 2^l, |W|)")
        check_cap("ot-outputs", "|W|", m.shape[2])
        if (m < 0).any():
            raise InputError("negative mass")
        total = m.sum()
        if normalized and abs(total - 1) > 1e-9:
            raise InputError(f"total mass {total}")
        self.mass = m
        self.ell = ell
        self.w_labels = tuple(w_labels) if w_labels is not None \
            else tuple(range(m.shape[2]))

    @property
    def n_w(self) -> int:
        return self.mass.shape[2]


@dataclass
class PointerExtension:
    """Extension P_{S0 S1 D W} of an OT output distribution by a binary
    pointer, with its achieved sender-security distance."""

    extended: np.ndarray   # [s0, s1, d, w]
    epsilon: float


def _linear_distances(mass: np.ndarray) -> np.ndarray:
    """delta(P_{beta(S0,S1) W}, unif . P_W) = 1/2 sum_w |sum_{s0,s1}
    (-1)^beta mass| of every linear beta = a0.s0 + a1.s1, as a table over
    (a0, a1): one Walsh-Hadamard transform over the flattened (s0, s1)
    axes, whose index a0 2^l + a1 signs cell s0 2^l + s1 by beta."""
    size = mass.shape[0]
    spectrum = fwht(mass.reshape(size * size, -1), axis=0)
    return 0.5 * np.abs(spectrum).sum(axis=1).reshape(size, size)


def xor_uniformity(dist: OtOutputDistribution):
    """Distance of the XOR of the two bits from uniform given W (l=1)."""
    if dist.ell != 1:
        raise InputError("XOR criterion applies to bit OT only")
    return _linear_distances(dist.mass)[1, 1]


def ndlf_security_distance(dist: OtOutputDistribution):
    """Max over all (2^l - 1)^2 NDLFs of the uniformity distance, plus the
    first function that attains it."""
    table = _linear_distances(dist.mass)
    return max(((table[beta.a0, beta.a1], beta)
                for beta in enumerate_ndlf(dist.ell)), key=lambda vb: vb[0])


def sender_security_of_extension(extended: np.ndarray):
    """delta(P_{S_{1-D} S_D D W}, unif^l . P_{S_D D W}) for an explicit
    extension array [s0, s1, d, w]: given D = d, S_D is axis d and the other
    string is compared with uniform."""
    size = extended.shape[0]
    m0, m1 = extended[:, :, 0, :], extended[:, :, 1, :]
    return (np.abs(m0 - m0.sum(axis=1, keepdims=True) / size).sum()
            + np.abs(m1 - m1.sum(axis=0, keepdims=True) / size).sum()) / 2


def construct_pointer(dist: OtOutputDistribution) -> PointerExtension:
    """Constructive pointer extension.

    Per receiver output w, pick the column t minimizing p_{0, t}, extend by
    D=0 mass p_{s0, t} and D=1 mass p_{0, s1} - p_{0, t}, then repair each
    cell's deficit: adjust the D=0 branch first and push any remainder that
    would go negative onto the D=1 branch. The achieved distance is exact
    and at most 2^{2l+1} times the worst NDLF distance.
    """
    m = dist.mass
    w = np.arange(dist.n_w)
    t = m[0].argmin(axis=0)           # first minimizing column per w
    a0 = m[:, t, w][:, None, :]       # p_{s0, t}
    a1 = (m[0] - m[0, t, w])[None]    # p_{0, s1} - p_{0, t}
    b0 = a0 + (m - (a0 + a1))
    b0[b0 < 0] = 0.0
    ext = np.stack([b0, m - b0], axis=2)
    eps = sender_security_of_extension(ext)
    return PointerExtension(ext, eps)


def min_pointer_epsilon_lp(dist: OtOutputDistribution) -> float:
    """Linear-programming oracle for the minimal sender-security distance
    over all valid pointer extensions (l=1, small |W| only). Test oracle;
    the constructive proof path is the production path.
    """
    from scipy.optimize import linprog

    check_cap("lp-ell", "ell", dist.ell)
    check_cap("lp-outputs", "|W|", dist.n_w)
    m = dist.mass
    nw = dist.n_w
    # variables: q[s0,s1,d,w] (8 nw) plus slack t[s0,s1,d,w] for |.|
    nq = 8 * nw
    nvar = 2 * nq

    def qi(s0, s1, d, w):
        return ((s0 * 2 + s1) * 2 + d) * nw + w

    a_eq, b_eq = [], []
    # marginal constraint: q[s0,s1,0,w] + q[s0,s1,1,w] = m[s0,s1,w]
    for s0 in range(2):
        for s1 in range(2):
            for w in range(nw):
                row = np.zeros(nvar)
                row[qi(s0, s1, 0, w)] = 1
                row[qi(s0, s1, 1, w)] = 1
                a_eq.append(row)
                b_eq.append(m[s0, s1, w])
    # |q[s0,s1,d,w] - 1/2 marg| <= t with objective sum(t)/2
    a_ub, b_ub = [], []
    for s0 in range(2):
        for s1 in range(2):
            for d in range(2):
                for w in range(nw):
                    for sign in (1, -1):
                        row = np.zeros(nvar)
                        row[qi(s0, s1, d, w)] += sign
                        for other in range(2):
                            if d == 0:
                                row[qi(s0, other, 0, w)] -= sign * 0.5
                            else:
                                row[qi(other, s1, 1, w)] -= sign * 0.5
                        row[nq + qi(s0, s1, d, w)] = -1
                        a_ub.append(row)
                        b_ub.append(0.0)
    c = np.concatenate([np.zeros(nq), np.full(nq, 0.5)])
    res = linprog(c, A_ub=np.array(a_ub), b_ub=np.array(b_ub),
                  A_eq=np.array(a_eq), b_eq=np.array(b_eq),
                  bounds=[(0, None)] * nq + [(0, None)] * nq,
                  method="highs")
    if not res.success:
        raise InputError(f"LP oracle failed: {res.message}")
    return float(res.fun)


# ---------------------------------------------------------------------------
# 1-of-n generalization
# ---------------------------------------------------------------------------

def one_of_n_condition(mass: np.ndarray, ell: int, epsilon: float):
    """Pairwise NDLF conditions for 1-of-n randomized string OT.

    mass is indexed [s_0, ..., s_{n-1}, w]. For every pair i != j and
    every NDLF, the joint uniformity distance of beta(S_i, S_j) from
    uniform given (W, remaining strings) must be at most
    nu = epsilon / (2^{2l} n (n-1)). Returns (max distance, pass flag).
    """
    m = np.asarray(mass, dtype=float)
    n = m.ndim - 1
    check_cap("one-of-n", "n", n)
    check_cap("one-of-n-ell", "ell", ell)
    size = 1 << ell
    if m.shape[:n] != (size,) * n:
        raise InputError("mass axes do not match 2^l")
    if ell < 1:
        raise InputError("ell must be positive")
    worst = 0
    for i, j in itertools.permutations(range(n), 2):
        # move axes i, j to the front, flatten the rest into W'
        rest = [k for k in range(n) if k not in (i, j)]
        t = np.transpose(m, [i, j] + rest + [n]).reshape(size, size, -1)
        worst = max(worst, _linear_distances(t)[1:, 1:].max())
    nu = epsilon / ((1 << (2 * ell)) * n * (n - 1))
    return worst, bool(worst <= nu)


# ---------------------------------------------------------------------------
# reductions from universal OT
# ---------------------------------------------------------------------------

class UotChannel:
    """Receiver channel P_{Y|X} for X = (x0, x1) in {0,1}^n x {0,1}^n.

    `table[y_index, x_index]` holds P(y | x) with x_index = x0 * 2^n + x1.
    """

    def __init__(self, n: int, table: np.ndarray, y_labels=None):
        t = np.asarray(table, dtype=float)
        if t.shape[1] != 1 << (2 * n):
            raise InputError("channel table does not match 2^{2n} inputs")
        if (t < -1e-12).any() or np.abs(t.sum(axis=0) - 1.0).max() > 1e-9:
            raise InputError("columns of P(y|x) must be distributions")
        self.n = n
        self.table = np.clip(t, 0.0, None)
        self.y_labels = tuple(y_labels) if y_labels is not None \
            else tuple(range(t.shape[0]))

    def joint_with_uniform_x(self) -> JointDistribution:
        """P_{XY} for uniform X, as a JointDistribution over X x Y."""
        nx = self.table.shape[1]
        m = (self.table / nx).T
        return JointDistribution([range(nx), self.y_labels], m)

    @staticmethod
    def _deterministic(n: int, y_of, n_y: int, cells: str) -> "UotChannel":
        """Y = y_of(x0, x1) on arrays of n-bit halves, with n_y outputs.
        The table's n_y * 4^n cells, which `cells` writes in terms of n,
        are refused past the joint-entries cap before any is built."""
        check_cap("joint-entries", cells, n_y << (2 * n))
        x = np.arange(1 << (2 * n))
        t = np.zeros((n_y, len(x)))
        t[y_of(x >> n, x & ((1 << n) - 1)), x] = 1.0
        return UotChannel(n, t)

    @staticmethod
    def honest(n: int, c: int) -> "UotChannel":
        """Y = x_c deterministically."""
        return UotChannel._deterministic(n, lambda x0, x1: (x0, x1)[c],
                                         1 << n, "8^n")

    @staticmethod
    def xor(n: int) -> "UotChannel":
        """Y = x0 xor x1 (bitwise)."""
        return UotChannel._deterministic(n, lambda x0, x1: x0 ^ x1,
                                         1 << n, "8^n")

    @staticmethod
    def parity(n: int) -> "UotChannel":
        """Y = the parity of all 2n bits."""
        return UotChannel._deterministic(
            n, lambda x0, x1: parity_u64(x0 ^ x1), 2, "2*4^n")

    @staticmethod
    def erasure(n: int, p_keep: float = 0.5) -> "UotChannel":
        """Each of the 2n bits is revealed independently with probability
        p_keep; y = (mask, revealed bits), so |Y| = 9^n."""
        check_cap("joint-entries", "36^n", 36 ** n)
        bits = 2 * n
        nx = 1 << bits
        ys = []
        rows = []
        for mask in range(1 << bits):
            weight = (p_keep ** bin(mask).count("1")
                      * (1 - p_keep) ** (bits - bin(mask).count("1")))
            seen: dict = {}
            for x in range(nx):
                rv = x & mask
                seen.setdefault(rv, np.zeros(nx))[x] = weight
            for rv, row in sorted(seen.items()):
                ys.append((mask, rv))
                rows.append(row)
        return UotChannel(n, np.array(rows), ys)


def reduce_ot_from_uot(n: int, ell: int, kappa: float,
                       channel: UotChannel, force: bool = False) -> dict:
    """Run the one-shot OT-from-UOT reduction with the strongly
    two-universal (affine) family, averaging over hash choices exactly.

    Verifies the collision-entropy promise H_2(X|Y) >= 4l + 2kappa + 1,
    computes the NDLF distance of the output distribution, and checks it
    against the 2^-kappa / 2^{2l+1} target. With f_i(x) = M_i x + b_i and
    beta = (a0, a1), (-1)^{beta(f0(x0), f1(x1))} is a sign times the
    character w = (M0^T a0, M1^T a1) of x = (x0, x1), and M^T a is uniform
    on {0,1}^n for every a != 0. So every NDLF, at every l, has the same
    family-averaged distance 1/2 2^{-2n} sum_y sum_w |W_y(w)|, with W_y
    the 2-D Walsh-Hadamard transform of P(x0, x1, y).
    """
    if ell < 1:
        raise InputError("need ell >= 1")
    check_cap("ndlf-ell", "ell", ell)
    r_min = 4 * ell + 2 * kappa + 1
    joint = channel.joint_with_uniform_x()
    h2 = conditional_renyi(joint, 2.0)
    promise_ok = h2 >= r_min - 1e-9 and n >= r_min
    if not promise_ok and not force:
        raise PromiseViolation(
            f"H_2(X|Y) = {h2:.4f} below required {r_min}")
    nx = 1 << channel.n
    spectra = fwht(fwht(channel.table.reshape(-1, nx, nx), axis=1), axis=2)
    dist = 0.5 * np.abs(spectra).sum() / nx ** 4
    target = 2.0 ** (-kappa) / (1 << (2 * ell + 1))
    return {
        "n": n, "ell": ell, "kappa": kappa,
        "h2_measured": h2, "h2_required": r_min, "promise_ok": promise_ok,
        "ndlf_distance": dist,
        "target": target, "pass": bool(dist <= target),
        "sender_security_epsilon": dist * (1 << (2 * ell + 1)),
    }


def splitting_reduction(n: int, ell: int, kappa: float,
                        channel: UotChannel, force: bool = False) -> dict:
    """Alternate security argument for the same reduction: min-entropy
    splitting, chain rule, and the left-over hash lemma, each link checked
    numerically on the instance.

    Uses the plain linear (two-universal) family; the promise is on
    worst-case min-entropy: H_inf(X0 X1 | Y) >= 4l + 4kappa + 4.
    """
    fam = HashFamily(n, ell, "linear")
    # the (class, output) rows of the indicator; the distance squares them
    rows = fam.classes << ell
    check_cap("hash-table", "(classes(n,ell)*2^ell)^2", rows * rows)
    r_min = 4 * ell + 4 * kappa + 4
    joint = channel.joint_with_uniform_x()
    h_inf = conditional_renyi(joint, math.inf)
    promise_ok = h_inf >= r_min - 1e-9 and n >= r_min
    if not promise_ok and not force:
        raise PromiseViolation(
            f"H_inf(X0X1|Y) = {h_inf:.4f} below required {r_min}")
    alpha = h_inf
    nx = 1 << n
    eps_prime = 2.0 ** (-kappa - 1)

    links = {}
    links["promise"] = h_inf - r_min
    # split per y: D(x1, y) = 1 iff P(X1 = x1 | Y=y) >= 2^{-alpha/2};
    # worst-case per-y min-entropy of (X_{1-D}, D) must reach alpha/2
    p_x = 1.0 / (1 << (2 * n))
    py = (channel.table * p_x).sum(axis=1)
    ys = np.nonzero(py > 0)[0]
    d_y, peaks = split_pointer(
        (channel.table[ys] * p_x / py[ys, None]).reshape(-1, nx, nx), alpha)
    d_of = dict(zip(ys.tolist(), d_y))
    peak = peaks.max(initial=0.0)
    links["splitting"] = (-math.log2(peak) if peak else math.inf) - alpha / 2

    # chain rule floor after conditioning on (D, S_D) and smoothing eps'
    h_after_chain = alpha / 2.0 - (1.0 + ell) - math.log2(1.0 / eps_prime)
    ind = _class_indicator(fam)
    if nx * 2 * rows * len(d_of) <= CAPS["joint-entries"]:
        links["chain_measured"] = _measured_chain_entropy(
            channel, ind, d_of, eps_prime) - h_after_chain

    # exact output distance with the constructed D vs the LHL bound
    dist = senders_distance_with_pointer(channel, ind, d_of)
    bound = 0.5 * 2.0 ** (-0.5 * (h_after_chain - ell)) + eps_prime
    links["final_lhl"] = bound - dist
    return {
        "n": n, "ell": ell, "kappa": kappa,
        "h_inf_measured": h_inf, "h_required": r_min,
        "promise_ok": promise_ok,
        "distance": dist, "bound": bound,
        "links": links,
        "pass": bool(promise_ok and dist <= bound
                     and all(s >= -1e-9 for s in links.values())),
    }


def _class_indicator(fam: HashFamily) -> np.ndarray:
    """ind[i, s, x] = w_i [g_i(x) = s], for the row-space representatives
    g_i of `fam` with shares w_i (a member's output events are its
    class's, relabelled)."""
    table, weight = fam.representatives()
    outs = np.arange(1 << fam.ell)[:, None]
    return (table[:, None, :] == outs) * weight[:, None, None]


def _measured_chain_entropy(channel: UotChannel, ind: np.ndarray,
                            d_of: dict, eps_prime: float) -> float:
    """Exact H_inf^{eps'}(X_{1-D} | D S_D Y F_D), F_D over the weighted
    representatives of `ind` (see `_class_indicator`): a class's members
    give its columns relabelled, and merging equal columns leaves the smooth
    min-entropy unchanged. (F_{1-D} is independent of the rest.)"""
    n = channel.n
    nx = 1 << n
    ind = ind.reshape(-1, nx)
    p_x = 1.0 / (1 << (2 * n))
    cols = []
    for yi, dvec in d_of.items():
        mxy = channel.table[yi].reshape(nx, nx) * p_x
        # d = 0: S_D = F(x0), X_{1-D} = x1; d = 1: S_D = F(x1), X_{1-D} = x0
        cols.append((ind @ np.where(dvec == 0, mxy, 0.0)).T)
        cols.append(np.where(dvec == 1, mxy, 0.0) @ ind.T)
    mass = np.hstack(cols)
    joint = JointDistribution([range(nx), range(mass.shape[1])], mass,
                              normalized=True)
    h, _ = smooth_min_entropy(joint, eps_prime)
    return h


def senders_distance_with_pointer(channel: UotChannel, ind: np.ndarray,
                                  d_of: dict) -> float:
    """Exact delta(P_{S_{1-D} S_D D W}, unif^l . P_{S_D D W}) where
    W = (Y, F0, F1) and D is the per-y pointer. Each (f0, f1) term depends
    on the members only through their row spaces, so the average runs over
    pairs of the weighted row-space representatives of `ind` (see
    `_class_indicator`)."""
    n = channel.n
    nx = 1 << n
    shape = ind.shape[:2] * 2
    ind = ind.reshape(-1, nx)
    p_x = 1.0 / (1 << (2 * n))
    total = 0.0
    for yi, dvec in d_of.items():
        mxy = channel.table[yi].reshape(nx, nx) * p_x
        # the S_{1-D} register is S1 (axis 3) when d = 0, S0 (axis 1) when 1
        for d, axis in ((0, 3), (1, 1)):
            w = np.where(dvec == d, mxy, 0.0)
            if w.sum() == 0:
                continue
            # acc[f0, s0, f1, s1] = P(S0=s0, S1=s1, f0, f1, y, D=d)
            acc = (ind @ w @ ind.T).reshape(shape)
            acc -= acc.sum(axis=axis, keepdims=True) / shape[1]
            total += 0.5 * np.abs(acc, out=acc).sum()
            del acc   # one class-pair array alive at a time
    return total
