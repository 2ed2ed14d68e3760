"""Classical-quantum hybrid states, quantum conditional min-entropy, and
exact privacy-amplification security distances.

A CqState pairs a classical random variable X (n-bit strings as packed
ints, index 0 the most significant bit, with an optional extra classical
register U) with per-outcome conditional states on a q-qubit register E,
kept as arrays: amplitude rows for pure states, operators for mixed ones.
Everything assembled here is block-diagonal over the classical registers,
so trace distances decompose into per-block trace norms and stay exact at
desk scale.
"""

from __future__ import annotations

import math

import numpy as np

from .entropy import (Distribution, JointDistribution, hamming_ball_size,
                      smooth_min_entropy, renyi_entropy)
from .errors import InputError, check_cap
from .hashing import HashFamily, fwht
from .qstate import DensityOperator, batched_trace_norm, trace_norm

_CLASS_CELLS = 1 << 14  # cells per chunk: 128 KiB of float64, 256 KiB complex
_U_CHUNK_CELLS = 1 << 22  # pa_distance stack cells: 64 MiB, one chunk to n=10


class CqState:
    """Classical register(s) with per-outcome conditional quantum states.

    Entry i carries the classical value (x[i], labels[u[i]]) with
    probability p[i] and a state on 2^q dimensions: x is an (N,) int array
    of packed values, u an (N,) index into `labels`, the side information
    sorted by repr ("" when absent); (x, u) pairs are unique. Pure states
    are kept as unit amplitude rows (N, d), mixed ones as operators.

    `CqState(x, p, ops, q, u)` takes per-entry operators and labels; array
    constructors pass `rows` or `ops` and u as an index into any `labels`
    sequence, which is then sorted with unused labels dropped.
    """

    def __init__(self, x, p, ops=None, q: int = 0, u=None, *, rows=None,
                 labels=None):
        if labels is None:
            index: dict = {}
            u = [index.setdefault(v, len(index))
                 for v in (("",) * len(x) if u is None else u)]
            labels = tuple(index)
        order = sorted(range(len(labels)), key=lambda i: repr(labels[i]))
        rank = np.empty(len(labels), np.intp)
        rank[order] = np.arange(len(labels))
        ranked = rank[np.asarray(u, np.intp)]
        used = np.bincount(ranked, minlength=len(labels)) > 0
        self.u = np.cumsum(used)[ranked] - 1
        self.labels = tuple(labels[i] for i in np.asarray(order)[used])
        self.x = np.asarray(x)
        self.p = np.asarray(p, dtype=float)
        self.q = q
        self.rows = None if rows is None else np.asarray(rows, dtype=complex)
        self._ops = None if ops is None else np.asarray(ops, dtype=complex)
        n, form = len(self.x), self._ops if rows is None else self.rows
        if not len(self.u) == len(self.p) == n:
            raise InputError("misaligned CqState fields")
        if form.shape != (n,) + (self.dim_e,) * (2 if rows is None else 1):
            raise InputError("conditional operator dimension mismatch")
        if self.x.dtype.kind not in "iu":
            raise InputError("X values must be packed ints")
        key = np.sort(self.x * len(self.labels) + self.u, kind="stable")
        if (key[1:] == key[:-1]).any():
            raise InputError("duplicate classical outcomes")
        if (self.p < 0).any():
            raise InputError("negative probabilities")
        if abs(self.p.sum() - 1.0) > 1e-9:
            raise InputError(f"total probability {self.p.sum()}")

    @property
    def dim_e(self) -> int:
        return 2 ** self.q

    def _scaled(self, idx=slice(None), scale=None) -> np.ndarray:
        """scale[i] rho_i over the entries idx as an (k, d, d) stack, scale
        p by default: the one place that reads the stored form."""
        s = (self.p if scale is None else scale)[idx][:, None, None]
        if self.rows is None:
            return self._ops[idx] * s
        r = self.rows[idx]
        out = r[:, :, None] * r[:, None, :].conj()
        return np.multiply(out, s, out=out)

    @property
    def ops(self) -> np.ndarray:
        """The conditional operators as an (N, d, d) stack."""
        return self._scaled(scale=np.ones(len(self.p)))

    def classical_joint(self) -> JointDistribution:
        """P_{XU} as an X x U joint distribution."""
        xs = np.unique(self.x)
        m = np.zeros((len(xs), len(self.labels)))
        m[np.searchsorted(xs, self.x), self.u] = self.p
        return JointDistribution([xs.tolist(), self.labels], m)

    def rho_e(self) -> np.ndarray:
        """Reduced state of E."""
        return self._scaled().sum(axis=0)

    def assemble(self) -> DensityOperator:
        """Block-diagonal density operator sum_i p_i |i><i| (x) rho_i, with
        classical outcomes in entry order."""
        n_cls, de = len(self.x), self.dim_e
        check_cap("cq-dimension", "dim", n_cls * de)
        out = np.zeros((n_cls, de, n_cls, de), dtype=complex)
        diag = np.arange(n_cls)
        out[diag, :, diag, :] = self._scaled()
        return DensityOperator(out.reshape(n_cls * de, n_cls * de),
                               check=False)

    @staticmethod
    def classical(dist: Distribution) -> "CqState":
        """Trivial quantum register."""
        return CqState(np.asarray(dist.outcomes), dist.mass,
                       rows=np.ones((len(dist.outcomes), 1)))


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
    scaled = state._scaled()
    e = inv_sqrt @ scaled @ inv_sqrt
    return float(np.einsum("nij,nji->", e, scaled).real)


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
    family (capacity-capped): one entry per (z, (f, u)) that an x reaches,
    in (f, u, z) order."""
    x_idx = _domain_index(state.x, family)
    n_u, n_out, de = len(state.labels), 1 << family.ell, state.dim_e
    members = np.arange(family.size)[:, None]
    key = ((members * n_u + state.u) * n_out
           + family.eval_table()[:, x_idx]).ravel()
    keys, inv = np.unique(key, return_inverse=True)
    w = state.p / family.size
    p_out = np.bincount(inv, np.tile(w, family.size), len(keys))
    blocks = np.zeros((len(keys), de, de), dtype=complex)
    np.add.at(blocks, inv, np.tile(state._scaled(scale=w),
                                   (family.size, 1, 1)))
    mixed = np.broadcast_to(np.eye(de, dtype=complex) / de, blocks.shape)
    ops = np.divide(blocks, p_out[:, None, None], out=mixed.copy(),
                    where=p_out[:, None, None] > 0)
    fu, z = np.divmod(keys, n_out)
    pairs, u_out = np.unique(fu, return_inverse=True)
    labels = [(int(f), state.labels[uv])
              for f, uv in zip(*np.divmod(pairs, n_u))]
    return CqState(z, p_out, ops, state.q, u_out, labels=labels)


def _blocks_by_u(state: CqState) -> list:
    """The entry indices of each u-block, in label order."""
    order = np.argsort(state.u, kind="stable")
    return np.split(order, np.searchsorted(state.u[order],
                                           np.arange(1, len(state.labels))))


def _h_min(state: CqState, epsilon: float) -> float:
    """H_min^eps(X|U) of the classical part. Unsmoothed it is -log of the
    largest P(x|u), read off the entries, so no dense X x U joint is built;
    smoothing water-fills that joint (`smooth_min_entropy`)."""
    if epsilon:
        return smooth_min_entropy(state.classical_joint(), epsilon)[0]
    pos = state.p > 0
    p_u = np.bincount(state.u, state.p, len(state.labels))
    return -math.log2(float((state.p[pos] / p_u[state.u[pos]]).max()))


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
    2^l offsets when affine); see `HashFamily.row_space_classes`. It is a
    sum over u, taken over dense (u, 2^n, d, d) stacks of consecutive
    u-blocks of about `_U_CHUNK_CELLS` cells each (float64 if all real).
    """
    x_idx = _domain_index(state.x, family)
    de = state.dim_e
    blocks = _blocks_by_u(state)
    step = max(1, _U_CHUNK_CELLS // (de * de << family.n))
    exact = 0.0
    for lo in range(0, len(blocks), step):
        chunk = blocks[lo:lo + step]
        idx = np.concatenate(chunk)
        scaled = state._scaled(idx)
        scaled = scaled if scaled.imag.any() else scaled.real
        stack = np.zeros((len(chunk), 1 << family.n, de, de), scaled.dtype)
        stack[state.u[idx] - lo, x_idx[idx]] = scaled
        del scaled  # freed before the transforms, which double the stack
        exact += _class_average(stack, family)
        del stack  # and before the next chunk's entries
    bound = 0.5 * 2.0 ** (-0.5 * (_h_min(state, epsilon_smooth) - state.q
                                  - family.ell)) + epsilon_smooth
    return exact, bound


def _class_average(stack: np.ndarray, family: HashFamily) -> float:
    """Family average of sum_u sum_z 1/2 ||B_z - T/2^l||_1 over a dense
    (U, 2^n, d, d) stack of p_x rho_x: B_z sums the stack over F(x) = z,
    T all of it; the 2^l - 2^r zero blocks of a rank-r class add
    ||T/2^l||_1. With W(w) = sum_x (-1)^{w.x} p_x rho_x, a rank-r class
    has B_z = 2^-r sum_v (-1)^{v.z} W(C^T v): W at the 2^r points of its
    span, then one 2^r-point transform, in chunks of about `_CLASS_CELLS`
    gathered cells, in the stack's dtype (float64 when it is real)."""
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
    de, n_out, weight = state.dim_e, 1 << family.ell, 1.0 / family.size
    terms = []
    for idx in _blocks_by_u(state):
        xs, scaled = state.x[idx].tolist(), state._scaled(idx)
        for member in family.members():
            blocks = np.zeros((n_out, de, de), dtype=complex)
            for xi, op in zip(xs, scaled):
                blocks[family.eval(member, xi)] += op
            avg = blocks.sum(axis=0) / n_out
            terms += [0.5 * weight * trace_norm(blocks[z] - avg)
                      for z in range(n_out)]
    exact = math.fsum(terms)
    bound = 0.5 * 2.0 ** (-0.5 * (_h_min(state, epsilon_smooth) - state.q
                                  - family.ell)) + epsilon_smooth
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
    for uv, idx in zip(state.labels, _blocks_by_u(state)):
        scaled = state._scaled(idx)
        for element, guess in strategy(uv):
            if guess >> n:
                raise InputError(f"guess {guess} has more than n={n} bits")
            diff = (state.x[idx] ^ guess).astype(">u8").view(np.uint8)
            near = np.unpackbits(diff.reshape(-1, 8), axis=1).sum(axis=1) \
                <= radius
            success += float(np.einsum(
                "ij,kji->", np.asarray(element, dtype=complex),
                scaled[near]).real)
    bound = 2.0 ** (-0.5 * (_h_min(state, epsilon_smooth) - state.q - 1)
                    + math.log2(ball)) + 2.0 * epsilon_smooth * ball
    return success, bound
