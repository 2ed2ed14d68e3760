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

from dataclasses import dataclass

import numpy as np

from ..errors import InputError, check_cap
from ..qstate import SINGLE_QUBIT_BASES, bell_basis, product_basis_matrix


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
    amps: np.ndarray      # (len(ys), 2^n, 2^q), normalized per outcome


def _checked_layout(n: int, strategy: AdversaryStrategy):
    """The strategy's (unitary, kept wires, ancillas), checked against the
    dense-engine cap, the unitary's dimension and the wire count."""
    check_cap("dense-engine", "n", n)
    u, kept, anc = strategy.dense_layout(n)
    if u.shape != (1 << (n + anc),) * 2:
        raise InputError("compression unitary has the wrong dimension")
    if len(set(kept)) != len(kept) or not set(kept) <= set(range(n + anc)):
        raise InputError(f"kept wires {kept} are not distinct wires of "
                         f"0..{n + anc - 1}")
    return u, kept, anc


def _wire_split(amps: np.ndarray, total: int, kept) -> np.ndarray:
    """Split the last axis of `amps` (2^total, wire 0 most significant) into
    the adversary's outcome y (the measured wires, in wire order) and kept
    index k (the kept wires, in `kept` order): a contiguous y-major array
    of shape (2^meas, *leading axes, 2^q)."""
    lead = amps.ndim - 1
    measured = [w for w in range(total) if w not in kept]
    axes = [lead + w for w in measured] + list(range(lead)) \
        + [lead + w for w in kept]
    wires = amps.reshape(amps.shape[:-1] + (2,) * total).transpose(axes)
    return np.ascontiguousarray(wires).reshape(
        (1 << len(measured),) + amps.shape[:-1] + (1 << len(kept),))


def epr_blocks_dense(n: int, strategy: AdversaryStrategy) -> DenseBlocks:
    u, kept, anc = _checked_layout(n, strategy)
    # psi[x, m] = 2^{-n/2} U[m, x << anc]
    psi = u[:, (np.arange(1 << n) << anc)].T * 2.0 ** (-n / 2.0)
    split = _wire_split(psi, n + anc, kept)
    p = (np.abs(split) ** 2).reshape(len(split), -1).sum(axis=1)
    ys = np.nonzero(p > 1e-15)[0]
    amps = split[ys] / np.sqrt(p[ys])[:, None, None]
    return DenseBlocks(n, len(kept), ys.tolist(), p[ys], amps)


def row_states(c: np.ndarray):
    """Weights and unit vectors of the amplitude rows on the last axis of
    c: p[..., i] = ||c[..., i, :]||^2, set to 0 at or below 1e-15, and
    unit[..., i, :] = c[..., i, :] / sqrt(p[..., i]), zero where p is 0."""
    p = (np.abs(c) ** 2).sum(axis=-1)
    p[p <= 1e-15] = 0.0
    root = np.sqrt(p)[..., None]
    unit = np.divide(c, root, out=np.zeros_like(c), where=root > 0)
    return p, unit


def sender_measurement_dense(blocks: DenseBlocks, theta) -> np.ndarray:
    """Measure the sender register of every y-block in the per-qubit basis
    theta: c[y, x, k] = (V_theta^dagger B_y)[x, k] over the kept outcomes
    y of `blocks.ys`, so ||c[y, x]||^2 = p(x | y)."""
    return product_basis_matrix(theta).conj().T @ blocks.amps


def direct_blocks_dense(n: int, strategy: AdversaryStrategy, theta
                        ) -> np.ndarray:
    """Direct-protocol counterpart, where the sender transmits |x>_theta:
    the amplitudes out[y, x, k] of U |x>_theta |0^anc>, split into the
    adversary's outcome y and kept index k, so ||out[y, x]||^2 = p(y | x)."""
    u, kept, anc = _checked_layout(n, strategy)
    cols = np.arange(1 << n) << anc
    return _wire_split((u[:, cols] @ product_basis_matrix(theta)).T,
                       n + anc, kept)


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
