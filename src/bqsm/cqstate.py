"""Classical-quantum hybrid states, quantum conditional min-entropy, and
exact privacy-amplification security distances.

A CqState pairs a classical random variable X (n-bit strings as packed
ints, index 0 the most significant bit, with an optional extra classical
register U) with per-outcome conditional density operators on a q-qubit
register E. Everything assembled here is block-diagonal over the classical
registers, so trace distances decompose into per-block trace norms and
stay exact at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bits import hamming
from .entropy import (Distribution, JointDistribution, hamming_ball_size,
                      smooth_min_entropy, renyi_entropy)
from .errors import InputError, check_cap
from .hashing import HashFamily, fwht
from .qstate import DensityOperator, batched_trace_norm, trace_norm

_CLASS_CELLS = 1 << 12  # cells per chunk: 64 KiB at most, reused heap memory


def _as_op(op) -> np.ndarray:
    if isinstance(op, DensityOperator):
        return op.matrix
    return np.asarray(op, dtype=complex)


@dataclass
class CqState:
    """Classical register(s) with per-outcome conditional quantum states.

    Entry i carries classical value (x[i], u[i]) with probability p[i] and
    conditional operator ops[i] on 2^q dimensions. x[i] is a packed int;
    u is free-form side information ("" when absent). (x, u) pairs must be
    unique.
    """

    x: tuple
    p: np.ndarray
    ops: tuple
    q: int
    u: tuple = field(default=None)

    def __post_init__(self):
        self.x = tuple(self.x)
        if self.u is None:
            self.u = ("",) * len(self.x)
        self.u = tuple(self.u)
        self.p = np.asarray(self.p, dtype=float)
        self.ops = tuple(_as_op(o) for o in self.ops)
        if not (len(self.x) == len(self.u) == len(self.p) == len(self.ops)):
            raise InputError("misaligned CqState fields")
        if len(set(zip(self.x, self.u))) != len(self.x):
            raise InputError("duplicate classical outcomes")
        d = 2 ** self.q
        for o in self.ops:
            if o.shape != (d, d):
                raise InputError("conditional operator dimension mismatch")
        if (self.p < 0).any():
            raise InputError("negative probabilities")
        if abs(self.p.sum() - 1.0) > 1e-9:
            raise InputError(f"total probability {self.p.sum()}")

    @property
    def dim_e(self) -> int:
        return 2 ** self.q

    def classical_joint(self) -> JointDistribution:
        """P_{XU} as an X x U joint distribution."""
        xs = sorted(set(self.x))
        us = sorted(set(self.u), key=repr)
        m = np.zeros((len(xs), len(us)))
        xi = {v: i for i, v in enumerate(xs)}
        ui = {v: i for i, v in enumerate(us)}
        for xv, uv, pv in zip(self.x, self.u, self.p):
            m[xi[xv], ui[uv]] += pv
        return JointDistribution([xs, us], m)

    def rho_e(self) -> np.ndarray:
        """Reduced state of E."""
        out = np.zeros((self.dim_e, self.dim_e), dtype=complex)
        for pv, o in zip(self.p, self.ops):
            out += pv * o
        return out

    def assemble(self) -> DensityOperator:
        """Block-diagonal density operator sum_i p_i |i><i| (x) rho_i, with
        classical outcomes in entry order."""
        n_cls = len(self.x)
        d = n_cls * self.dim_e
        check_cap("cq-dimension", "dim", d)
        out = np.zeros((d, d), dtype=complex)
        de = self.dim_e
        for i, (pv, o) in enumerate(zip(self.p, self.ops)):
            out[i * de:(i + 1) * de, i * de:(i + 1) * de] = pv * o
        return DensityOperator(out, check=False)

    @staticmethod
    def classical(dist: Distribution) -> "CqState":
        """Trivial quantum register."""
        one = np.array([[1.0 + 0j]])
        return CqState(tuple(dist.outcomes), np.asarray(dist.mass, float),
                       tuple(one for _ in dist.outcomes), 0)


# ---------------------------------------------------------------------------
# quantum conditional min-entropy
# ---------------------------------------------------------------------------

def qmin_entropy_rel(rho_ab: np.ndarray, sigma_b: np.ndarray,
                     dim_b: int) -> float:
    """Min-entropy of rho_AB relative to sigma_B: -log of the least lambda
    with lambda I_A (x) sigma_B - rho_AB PSD. The B register must be the
    last tensor factor.

    Computed as the top eigenvalue of the sigma-whitened state; sigma_B must
    be full rank on the support of tr_A rho_AB.
    """
    rho_ab = np.asarray(rho_ab, dtype=complex)
    d = rho_ab.shape[0]
    if d % dim_b:
        raise InputError("dim_b does not divide the joint dimension")
    dim_a = d // dim_b
    w, v = np.linalg.eigh(np.asarray(sigma_b, dtype=complex))
    tol = 1e-12 * max(w.max(), 1.0)
    if (w < -1e-9).any():
        raise InputError("sigma_B not PSD")
    # support check: rho_B must vanish on the null space of sigma_B
    rho_b = np.trace(rho_ab.reshape(dim_a, dim_b, dim_a, dim_b),
                     axis1=0, axis2=2)
    null = v[:, w <= tol]
    if null.size and trace_norm(null.conj().T @ rho_b @ null) > 1e-9:
        raise InputError("sigma_B rank-deficient on the support of rho_B")
    pos = w > tol
    inv_sqrt = (v[:, pos] / np.sqrt(w[pos])) @ v[:, pos].conj().T
    big = np.kron(np.eye(dim_a), inv_sqrt)
    lam = float(np.linalg.eigvalsh(big @ rho_ab @ big).max())
    if lam <= 0:
        return math.inf
    return -math.log2(lam)


def helstrom_guess(p0: float, rho0: np.ndarray, p1: float, rho1: np.ndarray
                   ) -> float:
    """Optimal probability of discriminating two states with priors:
    1/2 (1 + ||p0 rho0 - p1 rho1||_1)."""
    return 0.5 * (1.0 + trace_norm(p0 * np.asarray(rho0)
                                   - p1 * np.asarray(rho1)))


def pgm_guess(state: CqState) -> float:
    """Success probability of the pretty-good measurement: a valid
    measurement, hence a lower bound on the optimum."""
    rho = state.rho_e()
    w, v = np.linalg.eigh(rho)
    tol = 1e-12 * max(w.max(), 1.0)
    pos = w > tol
    inv_sqrt = (v[:, pos] / np.sqrt(w[pos])) @ v[:, pos].conj().T
    total = 0.0
    for pv, op in zip(state.p, state.ops):
        e = inv_sqrt @ (pv * op) @ inv_sqrt
        total += pv * float(np.trace(e @ op).real)
    return total


def qmin_entropy(state: CqState) -> tuple[float, float]:
    """Sandwich (lower, upper) for H_min(X|E) of a cq-state.

    lower: relative entropy at sigma = rho_E. upper: -log of the
    pretty-good-measurement guessing probability. For binary X both are
    replaced by the exact Helstrom value.
    """
    if len(state.x) == 2:
        pg = helstrom_guess(state.p[0], state.ops[0],
                            state.p[1], state.ops[1])
        h = -math.log2(pg)
        return h, h
    rho_xe = state.assemble().matrix
    lower = qmin_entropy_rel(rho_xe, state.rho_e(), state.dim_e)
    # any concrete strategy lower-bounds the optimal guess: take the better
    # of the pretty-good measurement and the measurement-free prior argmax
    p_guess = max(pgm_guess(state), float(state.p.max()))
    upper = -math.log2(p_guess)
    return lower, upper


# ---------------------------------------------------------------------------
# privacy amplification
# ---------------------------------------------------------------------------

def _domain_index(xs, family: HashFamily) -> np.ndarray:
    """The packed X values as an index array; refused unless every x is an
    int with 0 <= x < 2^n for the family's n."""
    idx = np.arange(xs.start, xs.stop, xs.step) if isinstance(xs, range) \
        else np.asarray(xs)
    if idx.dtype.kind not in "iu" or idx.min() < 0 \
            or idx.max() >> family.n:
        raise InputError("hash family domain does not match X values")
    return idx


def pa_output_state(state: CqState, family: HashFamily) -> CqState:
    """Exact hashed state over ((F(X), F), U) x E, averaging over the whole
    family (capacity-capped)."""
    _domain_index(state.x, family)
    de = state.dim_e
    acc: dict = {}
    weight = 1.0 / family.size
    for idx, member in enumerate(family.members()):
        for xv, uv, pv, op in zip(state.x, state.u, state.p, state.ops):
            key = (family.eval(member, xv), (idx, uv))
            if key not in acc:
                acc[key] = [0.0, np.zeros((de, de), dtype=complex)]
            acc[key][0] += weight * pv
            acc[key][1] += weight * pv * op
    xs, us, ps, ops = [], [], [], []
    for (zv, uv), (pv, block) in sorted(
            acc.items(), key=lambda kv: (kv[0][0], repr(kv[0][1]))):
        xs.append(zv)
        us.append(uv)
        ps.append(pv)
        ops.append(block / pv if pv > 0 else np.eye(de) / de)
    return CqState(tuple(xs), np.asarray(ps), tuple(ops), state.q, tuple(us))


def _blocks_by_u(state: CqState):
    """Group entries by the side register; yields (u, xs, ps, ops)."""
    groups: dict = {}
    for xv, uv, pv, op in zip(state.x, state.u, state.p, state.ops):
        groups.setdefault(uv, []).append((xv, pv, op))
    for uv in sorted(groups, key=repr):
        entries = groups[uv]
        yield uv, [e[0] for e in entries], np.array([e[1] for e in entries]), \
            [e[2] for e in entries]


def pa_distance(state: CqState, family: HashFamily,
                epsilon_smooth: float = 0.0) -> tuple[float, float]:
    """Exact distance of the hashed state from uniform, and the
    privacy-amplification bound.

    exact = delta(rho_{F(X) F U E}, I/2^l (x) rho_{F U E}), computed
    block-wise over (f, u); bound = 1/2 2^{-(H_inf^eps(X|U) - q - l)/2}
    + eps. The contract exact <= bound is a theorem; the tests enforce it.

    The average runs over row-space classes, not members: a rank-r member
    has its row space's canonical blocks, relabelled, plus 2^l - 2^r zero
    blocks, and one class stands for prod_{i<r} (2^l - 2^i) members (times
    2^l offsets when affine); see `HashFamily.row_space_classes`.
    """
    x_idx = _domain_index(state.x, family)
    u_of = {uv: i for i, uv in enumerate(sorted(set(state.u), key=repr))}
    stack = np.zeros((len(u_of), 1 << family.n, state.dim_e, state.dim_e),
                     dtype=complex)
    stack[[u_of[uv] for uv in state.u], x_idx] = \
        np.asarray(state.ops) * state.p[:, None, None]
    exact = _class_average(stack, family)
    h_eps, _ = smooth_min_entropy(state.classical_joint(), epsilon_smooth)
    bound = 0.5 * 2.0 ** (-0.5 * (h_eps - state.q - family.ell)) \
        + epsilon_smooth
    return exact, bound


def _class_average(stack: np.ndarray, family: HashFamily) -> float:
    """Family average of sum_u sum_z 1/2 ||B_z - T/2^l||_1 over a dense
    (U, 2^n, d, d) stack of p_x rho_x: B_z sums the stack over F(x) = z,
    T all of it; the 2^l - 2^r zero blocks of a rank-r class add
    ||T/2^l||_1. With W(w) = sum_x (-1)^{w.x} p_x rho_x, a rank-r class
    has B_z = 2^-r sum_v (-1)^{v.z} W(C^T v): W at the 2^r points of its
    span, then one 2^r-point transform, in chunks of about `_CLASS_CELLS`
    gathered cells."""
    n_out = 1 << family.ell
    spectrum = fwht(stack, axis=1)
    avg = spectrum[:, 0] / n_out
    zero = batched_trace_norm(avg)
    total = 0.0
    for r, span, count in family.row_space_classes():
        total += count * len(span) * (n_out - (1 << r)) * zero
        step = max(1, _CLASS_CELLS // (avg.size << r))
        for start in range(0, len(span), step):
            blocks = fwht(spectrum[:, span[start:start + step]], axis=2)
            total += count * batched_trace_norm(
                blocks / (1 << r) - avg[:, None, None])
    return 0.5 * total / family.size


def pa_distance_slow(state: CqState, family: HashFamily,
                     epsilon_smooth: float = 0.0) -> tuple[float, float]:
    """Reference member-by-member implementation; cross-checks the
    vectorized path in the tests. Its size * 2^l * |U| terms are added
    exactly (`math.fsum`), so its own rounding stays below 1e-12."""
    _domain_index(state.x, family)
    check_cap("pa-oracle", "members", family.size)
    ell = family.ell
    de = state.dim_e
    n_out = 1 << ell
    weight = 1.0 / family.size
    terms = []
    for uv, xs, ps, ops in _blocks_by_u(state):
        for member in family.members():
            blocks = np.zeros((n_out, de, de), dtype=complex)
            for xi, pv, op in zip(xs, ps, ops):
                blocks[family.eval(member, xi)] += pv * op
            avg = blocks.sum(axis=0) / n_out
            terms += [0.5 * weight * trace_norm(blocks[z] - avg)
                      for z in range(n_out)]
    exact = math.fsum(terms)
    h_eps, _ = smooth_min_entropy(state.classical_joint(), epsilon_smooth)
    bound = 0.5 * 2.0 ** (-0.5 * (h_eps - state.q - ell)) + epsilon_smooth
    return exact, bound


def classical_lhl_distance(p_x: Distribution, family: HashFamily
                           ) -> tuple[float, float]:
    """Exact left-over-hash distance delta(P_{F(X) F}, unif P_F) over the
    full family, against the collision-entropy bound
    1/2 2^{-(H_2(X) - l)/2}. Averaged as in `pa_distance`, over row-space
    classes, each rank-r class weighted by its prod_{i<r} (2^l - 2^i)
    members (times 2^l offsets when affine), with one u-block and no E."""
    stack = np.zeros((1, 1 << family.n, 1, 1))
    stack[0, _domain_index(p_x.outcomes, family), 0, 0] = p_x.mass
    bound = 0.5 * 2.0 ** (-0.5 * (renyi_entropy(p_x, 2) - family.ell))
    return _class_average(stack, family), bound


def guess_within_ball(state: CqState, strategy, n: int, delta: float,
                      epsilon_smooth: float = 0.0) -> tuple[float, float]:
    """Success probability that a (U, measure-E) guess lands within Hamming
    distance delta*n of the n-bit X, against the ball-guessing bound
    2^{-(H^eps(X|U)-q-1)/2 + log B} + 2 eps B.

    `strategy(u)` returns a list of (povm_element, guess) pairs forming a
    measurement on E, each guess a packed n-bit int.
    """
    radius = int(math.floor(delta * n))
    ball, _ = hamming_ball_size(n, radius)
    success = 0.0
    for xv, uv, pv, op in zip(state.x, state.u, state.p, state.ops):
        for element, guess in strategy(uv):
            if guess >> n:
                raise InputError(f"guess {guess} has more than n={n} bits")
            if hamming(guess, xv) <= radius:
                success += pv * float(np.trace(
                    np.asarray(element, dtype=complex) @ op).real)
    h_eps, _ = smooth_min_entropy(state.classical_joint(), epsilon_smooth)
    bound = 2.0 ** (-0.5 * (h_eps - state.q - 1) + math.log2(ball)) \
        + 2.0 * epsilon_smooth * ball
    return success, bound
