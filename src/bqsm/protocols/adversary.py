"""Bounded-memory adversary strategies and the exact-state engines.

The adversary contract has three phases: receive all qubits, commit to
memory (apply any unitary with ancillas, measure everything except a
q-qubit register, declare the classical outcome), respond to the later
classical announcements. The memory bound applies at phase two; phases one
and three are unrestricted.

Two engines evaluate strategies exactly:

* product engine - per-qubit strategies (keep the qubit, or measure it in a
  fixed 2x2 basis). EPR pairs factorize, so runs scale to large n.
* dense engine - arbitrary compression unitaries over all received qubits
  plus ancillas (used e.g. for pairwise Bell measurements); capped at small
  n by the 2^n x 2^{n+a} joint amplitude array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import CapacityError, InputError
from ..qstate import SINGLE_QUBIT_BASES, bell_basis, product_basis_matrix

DENSE_CAP = 12


@dataclass(frozen=True)
class AdversaryStrategy:
    """Named strategy descriptor; `q(n)` is the retained register size."""

    kind: str
    params: tuple = ()
    label: str = ""

    def __str__(self):
        return self.label or self.kind

    def memory_qubits(self, n: int) -> int:
        if self.kind == "store_prefix":
            return min(self.params[0], n)
        if self.kind == "full_memory":
            return n
        if self.kind == "custom":
            return len(self.params[1])
        return 0

    def is_product(self) -> bool:
        return self.kind in ("store_prefix", "measure_fixed", "breitbart",
                             "full_memory")

    def product_plan(self, n: int):
        """Per-qubit plan: ('keep',) or ('measure', basis_label)."""
        if self.kind == "store_prefix":
            q, basis = self.params
            return [("keep",) if i < min(q, n) else ("measure", basis)
                    for i in range(n)]
        if self.kind == "measure_fixed":
            bases = self.params[0]
            if len(bases) != n:
                raise InputError("per-qubit basis list length mismatch")
            return [("measure", b) for b in bases]
        if self.kind == "breitbart":
            return [("measure", "breitbart")] * n
        if self.kind == "full_memory":
            return [("keep",)] * n
        raise InputError(f"{self.kind} has no per-qubit structure")

    def dense_layout(self, n: int):
        """(unitary on 2^{n+a}, kept wire tuple, ancillas)."""
        if self.is_product():
            plan = self.product_plan(n)
            u = np.array([[1.0 + 0j]])
            kept = []
            for i, step in enumerate(plan):
                if step[0] == "keep":
                    u = np.kron(u, np.eye(2, dtype=complex))
                    kept.append(i)
                else:
                    u = np.kron(u, SINGLE_QUBIT_BASES[step[1]].conj().T)
            return u, tuple(kept), 0
        if self.kind == "bell_pairwise_xor":
            if n % 2:
                raise InputError("pairwise Bell measurement needs even n")
            b = bell_basis().matrix.conj().T
            u = np.array([[1.0 + 0j]])
            for _ in range(n // 2):
                u = np.kron(u, b)
            return u, (), 0
        if self.kind == "custom":
            u, kept, ancillas = self.params
            return np.asarray(u, dtype=complex), tuple(kept), ancillas
        raise InputError(f"unknown strategy kind {self.kind!r}")


def store_prefix(q: int, basis: str = "+") -> AdversaryStrategy:
    """Keep the first q received qubits, measure the rest in one basis."""
    return AdversaryStrategy("store_prefix", (q, basis),
                             f"store_prefix(q={q},{basis})")


def measure_fixed(bases) -> AdversaryStrategy:
    """Measure every qubit immediately in the given per-qubit bases."""
    return AdversaryStrategy("measure_fixed", (tuple(bases),),
                             "measure_fixed")


def breitbart_strategy() -> AdversaryStrategy:
    return AdversaryStrategy("breitbart", (), "breitbart")


def bell_pairwise_xor() -> AdversaryStrategy:
    return AdversaryStrategy("bell_pairwise_xor", (), "bell_pairwise_xor")


def full_memory() -> AdversaryStrategy:
    return AdversaryStrategy("full_memory", (), "full_memory")


def custom_compression(unitary, kept, ancillas: int = 0
                       ) -> AdversaryStrategy:
    return AdversaryStrategy("custom", (unitary, tuple(kept), ancillas),
                             "custom")


BUILTIN_STRATEGIES = {
    "store_prefix": store_prefix,
    "measure_fixed": measure_fixed,
    "breitbart": breitbart_strategy,
    "bell_pairwise_xor": bell_pairwise_xor,
    "full_memory": full_memory,
}


# ---------------------------------------------------------------------------
# dense engine
# ---------------------------------------------------------------------------

@dataclass
class DenseBlocks:
    """Exact EPR-picture state after the adversary's phase-2 measurement:
    per classical outcome y, the joint amplitudes B_y[x, k] between the
    sender's computational register and the kept register."""

    n: int
    q: int
    ys: list              # outcome ints in wire order of measured wires
    probs: np.ndarray
    amps: list            # arrays (2^n, 2^q), normalized per outcome


def epr_blocks_dense(n: int, strategy: AdversaryStrategy) -> DenseBlocks:
    if n > DENSE_CAP:
        raise CapacityError(f"dense engine capped at n={DENSE_CAP}")
    u, kept, anc = strategy.dense_layout(n)
    total = n + anc
    if u.shape != (1 << total, 1 << total):
        raise InputError("compression unitary has the wrong dimension")
    q = len(kept)
    measured = [w for w in range(total) if w not in kept]
    m = np.arange(1 << total)
    y_idx = np.zeros(1 << total, dtype=np.int64)
    for pos, w in enumerate(measured):
        y_idx |= ((m >> (total - 1 - w)) & 1) << (len(measured) - 1 - pos)
    k_idx = np.zeros(1 << total, dtype=np.int64)
    for pos, w in enumerate(kept):
        k_idx |= ((m >> (total - 1 - w)) & 1) << (q - 1 - pos)
    # psi[x, m] = 2^{-n/2} U[m, x << anc]
    psi = u[:, (np.arange(1 << n) << anc)].T * 2.0 ** (-n / 2.0)
    ys, probs, amps = [], [], []
    for y in range(1 << len(measured)):
        mask = y_idx == y
        block = np.zeros((1 << n, 1 << q), dtype=complex)
        block[:, k_idx[mask]] = psi[:, mask]
        p = float((np.abs(block) ** 2).sum())
        if p > 1e-15:
            ys.append(y)
            probs.append(p)
            amps.append(block / math.sqrt(p))
    return DenseBlocks(n, q, ys, np.asarray(probs), amps)


def sender_measurement_dense(blocks: DenseBlocks, theta):
    """Measure the sender register of every y-block in the per-qubit basis
    theta. Yields (y, prob_y, p_x_given_y, kept_ops) where kept_ops[x] is
    the normalized retained-register state (None when p_x = 0)."""
    v = product_basis_matrix(theta)
    vd = v.conj().T
    for y, p_y, amp in zip(blocks.ys, blocks.probs, blocks.amps):
        c = vd @ amp                      # (2^n, 2^q)
        p_x = (np.abs(c) ** 2).sum(axis=1)
        p_x[p_x <= 1e-15] = 0.0
        ops = []
        for x in range(1 << blocks.n):
            if p_x[x] > 0:
                vec = c[x] / math.sqrt(p_x[x])
                ops.append(np.outer(vec, vec.conj()))
            else:
                ops.append(None)
        yield y, p_y, p_x, ops


def direct_blocks_dense(n: int, strategy: AdversaryStrategy, theta):
    """Direct-protocol counterpart: the sender transmits |x>_theta; yields
    per x the outcome distribution and kept states: (x, p_y_given_x dict,
    kept_ops dict)."""
    if n > DENSE_CAP:
        raise CapacityError(f"dense engine capped at n={DENSE_CAP}")
    u, kept, anc = strategy.dense_layout(n)
    total = n + anc
    q = len(kept)
    measured = [w for w in range(total) if w not in kept]
    m = np.arange(1 << total)
    y_idx = np.zeros(1 << total, dtype=np.int64)
    for pos, w in enumerate(measured):
        y_idx |= ((m >> (total - 1 - w)) & 1) << (len(measured) - 1 - pos)
    k_idx = np.zeros(1 << total, dtype=np.int64)
    for pos, w in enumerate(kept):
        k_idx |= ((m >> (total - 1 - w)) & 1) << (q - 1 - pos)
    v = product_basis_matrix(theta)
    for x in range(1 << n):
        vec = np.zeros(1 << total, dtype=complex)
        vec[np.arange(1 << n) << anc] = v[:, x]
        out = u @ vec
        p_y = {}
        ops = {}
        for y in range(1 << len(measured)):
            mask = y_idx == y
            block = np.zeros(1 << q, dtype=complex)
            block[k_idx[mask]] = out[mask]
            p = float((np.abs(block) ** 2).sum())
            if p > 1e-15:
                p_y[y] = p
                b = block / math.sqrt(p)
                ops[y] = np.outer(b, b.conj())
        yield x, p_y, ops


# ---------------------------------------------------------------------------
# product engine
# ---------------------------------------------------------------------------

@dataclass
class QubitFactor:
    """Exact per-qubit tables for a product strategy against one EPR pair.

    For a measured qubit: p_x[θ][y, x] with the adversary outcome first;
    the retained register is trivial. For a kept qubit: the adversary holds
    the (conjugated) post-measurement state |x>_θ, one 2x2 op per (θ, x).
    """

    kept: bool
    label: str
    p_yx: dict | None      # θ-label -> (2, 2) array P(y, x | θ)
    ops: dict | None       # θ-label -> [op_x0, op_x1]


def qubit_factor(step, sender_bases=("+", "x")) -> QubitFactor:
    if step[0] == "keep":
        ops = {}
        for lab in sender_bases:
            v = SINGLE_QUBIT_BASES[lab]
            # sender measuring her EPR half collapses the adversary's half
            # to the conjugate state
            ops[lab] = [np.outer(v[:, x].conj(), v[:, x])
                        for x in range(2)]
        return QubitFactor(True, "keep", None, ops)
    w = SINGLE_QUBIT_BASES[step[1]]
    p_yx = {}
    for lab in sender_bases:
        v = SINGLE_QUBIT_BASES[lab]
        table = np.empty((2, 2))
        for y in range(2):
            for x in range(2):
                # Pr[adversary outcome y] * Pr[sender outcome x | y]
                amp = np.vdot(v[:, x], w[:, y].conj())
                table[y, x] = 0.5 * abs(amp) ** 2
        p_yx[lab] = table
    return QubitFactor(False, step[1], p_yx, None)


def product_factors(n: int, strategy: AdversaryStrategy,
                    sender_bases=("+", "x")) -> list:
    return [qubit_factor(step, sender_bases)
            for step in strategy.product_plan(n)]
