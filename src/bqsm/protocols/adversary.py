"""Bounded-memory adversary strategies and the exact-state engines.

The adversary contract has three phases: receive all qubits, commit to
memory (apply any unitary with ancillas, measure everything except a
q-qubit register, declare the classical outcome), respond to the later
classical announcements. The memory bound applies at phase two; phases one
and three are unrestricted.

Two engines evaluate strategies exactly:

* product engine - per-qubit strategies (keep the qubit, or measure it in a
  fixed 2x2 basis). EPR pairs factorize, so one (n, 2, 2, 2) table
  t[i, s, y, x] = P(y, x | sender basis s) from `product_factors`, plus the
  kept-qubit mask, is all an audit needs; `product_table` krons it into
  the full P(y, x | theta) for one basis string. Runs scale to large n.
* dense engine - arbitrary compression unitaries over all received qubits
  plus ancillas (used e.g. for pairwise Bell measurements); capped at small
  n by the 2^n x 2^{n+a} joint amplitude array. A strategy enters it as
  wire-ordered factors (`dense_layout`): a 2x2 per measured wire of a
  product plan, a 4x4 per Bell pair, the whole unitary for `custom`.
  `_apply` merges them and the sender's per-qubit bases into blocks of a
  few wires, one gemm and one 2-D transpose each; no Kronecker product
  of all wires is formed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..errors import InputError, check_cap
from ..qstate import SINGLE_QUBIT_BASES, bell_basis


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
        """(factors, kept wire tuple, ancillas) for the dense engine, within
        its cap: factors are (first wire, matrix) pairs in wire order, each
        on consecutive wires: W^dagger per measured wire, Bell^dagger per
        pair, the whole unitary for custom. Other wires keep the identity."""
        check_cap("dense-engine", "n", n)
        if self.is_product():
            plan = self.product_plan(n)
            factors = [(i, SINGLE_QUBIT_BASES[step[1]].conj().T)
                       for i, step in enumerate(plan) if step[0] == "measure"]
            kept = tuple(i for i, step in enumerate(plan)
                         if step[0] == "keep")
            return factors, kept, 0
        if self.kind == "bell_pairwise_xor":
            if n % 2:
                raise InputError("pairwise Bell measurement needs even n")
            b = bell_basis().matrix.conj().T
            return [(i, b) for i in range(0, n, 2)], (), 0
        if self.kind == "custom":
            u, kept, anc = self.params
            if np.shape(u) != (1 << (n + anc),) * 2:
                raise InputError("compression unitary has the wrong dimension")
            if len(set(kept)) != len(kept) \
                    or not set(kept) <= set(range(n + anc)):
                raise InputError(f"kept wires {kept} are not distinct wires "
                                 f"of 0..{n + anc - 1}")
            return [(0, np.asarray(u, dtype=complex))], tuple(kept), anc
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


# widest run of wires `_apply` merges into one block
_BLOCK = 4
_I2 = np.eye(2, dtype=complex)


def _apply(a: np.ndarray, kept, factors=(), bases=()) -> np.ndarray:
    """Apply `dense_layout` factors, after the per-wire 2x2 `bases` (if
    any), to the rows of a (2^total, R) array, wire 0 most significant;
    split the result as out[y, r, k], y the wires not in `kept` (in wire
    order) and k the `kept` ones (in `kept` order).

    Adjacent wires merge into blocks of up to _BLOCK wires. A block costs
    one gemm on its wires, which lead the rows (none if it is the
    identity), and one 2-D transpose that moves them behind R; after the
    last block the wires are in order again and one copy splits them."""
    total, rows = a.shape[0].bit_length() - 1, a.shape[1]
    mats, blocks, w = dict(factors), [], 0
    while w < total:
        m = mats.get(w, _I2)
        k = m.shape[0].bit_length() - 1
        if bases:
            m = m @ functools.reduce(np.kron, bases[w:w + k])
        if blocks and blocks[-1][0] + k <= _BLOCK:
            blocks[-1] = (blocks[-1][0] + k, np.kron(blocks[-1][1], m))
        else:
            blocks.append((k, m))
        w += k
    for k, m in blocks:
        a = a.reshape(1 << k, -1)
        identity = k <= _BLOCK and np.array_equal(m, np.eye(1 << k))
        a = (a if identity else m @ a).T
    measured = [w for w in range(total) if w not in kept]
    wires = a.reshape((rows,) + (2,) * total).transpose(
        [1 + w for w in measured] + [0] + [1 + w for w in kept])
    return np.ascontiguousarray(wires).reshape(
        1 << len(measured), rows, 1 << len(kept))


def _sender_columns(n: int, anc: int, xs, scale=1.0) -> np.ndarray:
    """scale |x>|0^anc> for each x of xs, as columns."""
    cols = np.zeros((1 << (n + anc), len(xs)), dtype=complex)
    cols[np.asarray(xs) << anc, np.arange(len(xs))] = scale
    return cols


def epr_blocks_dense(n: int, strategy: AdversaryStrategy) -> DenseBlocks:
    factors, kept, anc = strategy.dense_layout(n)
    # split[y, x, k] = 2^{-n/2} <y, k| U |x>|0^anc>
    split = _apply(_sender_columns(n, anc, range(1 << n), 2.0 ** (-n / 2)),
                   kept, factors)
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
    count, dim, dim_k = blocks.amps.shape
    rows = np.moveaxis(blocks.amps, 1, 0).reshape(dim, count * dim_k)
    out = _apply(rows, (), bases=[SINGLE_QUBIT_BASES[t].conj().T
                                  for t in theta])
    return out.reshape(dim, count, dim_k).swapaxes(0, 1)


def direct_blocks_dense(n: int, strategy: AdversaryStrategy, theta,
                        xs=None) -> np.ndarray:
    """Direct-protocol counterpart, where the sender transmits |x>_theta:
    the amplitudes out[y, i, k] of U |x>_theta |0^anc> for x = xs[i]
    (every x by default), split into the adversary's outcome y and kept
    index k, so ||out[y, i]||^2 = p(y | xs[i])."""
    factors, kept, anc = strategy.dense_layout(n)
    xs = range(1 << n) if xs is None else xs
    return _apply(_sender_columns(n, anc, xs), kept, factors,
                  [SINGLE_QUBIT_BASES[t] for t in theta] + [_I2] * anc)


# ---------------------------------------------------------------------------
# product engine
# ---------------------------------------------------------------------------

# sender bases s = 0 ('+') and 1 ('x'), stacked as v[s, k, x]
_SENDER_BASES = np.stack([SINGLE_QUBIT_BASES["+"], SINGLE_QUBIT_BASES["x"]])


def product_factors(n: int, strategy: AdversaryStrategy):
    """The product engine's per-qubit table for n EPR pairs: (kept, t).

    kept[i] is True where the adversary stores qubit i. For a qubit measured
    in basis w, t[i, s, y, x] = P(y, x | sender basis s) = 1/2 |sum_k
    w[k, y] v_s[k, x]|^2, with s = 0 for '+' and 1 for 'x': the adversary's
    outcome y joint with the sender's outcome x on that pair. t is zero on
    kept qubits, which hold the sender's basis vector |x>_s instead.
    """
    plan = strategy.product_plan(n)
    kept = np.array([step[0] == "keep" for step in plan], dtype=bool)
    w = np.zeros((n, 1, 2, 2), dtype=complex)
    for i, step in enumerate(plan):
        if not kept[i]:
            w[i, 0] = SINGLE_QUBIT_BASES[step[1]].T
    amp = w @ _SENDER_BASES
    return kept, 0.5 * np.hypot(amp.real, amp.imag) ** 2


def product_table(kept, t, theta) -> np.ndarray:
    """P(y, x | theta) as a (2^m, 2^n) array for per-qubit sender bases
    theta ('+'/'x' labels): one kron chain of the tables of
    `product_factors`, where a kept qubit contributes the row (1/2, 1/2)
    and y packs the m measured qubits in wire order."""
    out = np.ones((1, 1))
    for i, label in enumerate(theta):
        out = np.kron(out, np.full((1, 2), 0.5) if kept[i]
                      else t[i, "+x".index(label)])
    return out
