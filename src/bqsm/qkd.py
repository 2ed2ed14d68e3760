"""One-way QKD against quantum-memory-bounded eavesdroppers.

Honest simulation through preparation / sifting / error correction /
privacy amplification, the binary-channel rate and noise thresholds, the
overall (all-bases) average entropic uncertainty bound, and an exact
key-distance check against small eavesdroppers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bits import bits_to_str
from .cqstate import CqState, pa_distance
from .entropy import binary_entropy, inverse_binary_entropy
from .errors import InputError, check_cap, check_count
from .hashing import HashFamily, gf2_matvec_stream
from .protocols.channel import honest_outcomes
from .protocols.codes import LinearCode
from .qstate import SINGLE_QUBIT_BASES

ALPHABETS = {"bb84": ("+", "x"), "six-state": ("+", "x", "circ")}
AEU_BOUND = {"bb84": 0.5, "six-state": 2.0 / 3.0}


@dataclass
class QkdConfig:
    alphabet: str = "bb84"
    p: float = 0.0                  # channel bit-flip probability
    ec_bits_per_symbol: float | None = None  # e; defaults to the code rate
    memory_qubits: int = 0          # eavesdropper bound q (fixed, sublinear)
    symbols: int = 1000             # N transmitted
    margin_bits: float = 1.0        # additive security margin on the length
    code: LinearCode | None = None

    def __post_init__(self):
        if self.alphabet not in ALPHABETS:
            raise InputError(f"unknown alphabet {self.alphabet!r} "
                             "(haar bases are analysis-only)")
        if not 0 <= self.p < 0.5:
            raise InputError("p must lie in [0, 1/2)")
        if self.code is not None and self.ec_bits_per_symbol is None:
            self.ec_bits_per_symbol = self.code.s / self.code.length
        if self.ec_bits_per_symbol is not None \
                and self.ec_bits_per_symbol < binary_entropy(self.p) - 1e-12:
            raise InputError("error-correction budget below h(p): "
                             "unachievable configuration")

    @property
    def h(self) -> float:
        return AEU_BOUND[self.alphabet]


def binary_rate(h: float, p: float) -> float:
    """Key rate floor h - h(p) for a binary channel."""
    if not 0 <= p < 0.5:
        raise InputError("p must lie in [0, 1/2)")
    return h - binary_entropy(p)


def noise_threshold(h: float) -> float:
    """The unique p < 1/2 with h(p) = h: the noise level at which the
    binary-channel rate h - h(p) reaches zero."""
    if not 0 < h <= 1:
        raise InputError("h must lie in (0, 1]")
    return inverse_binary_entropy(h)


def overall_bound(d: int) -> float:
    """Closed-form overall average entropic uncertainty bound over all
    bases of a d-dimensional space: (sum_{i=2}^d 1/i) / ln 2."""
    if d < 2:
        raise InputError("dimension must be at least 2")
    return sum(1.0 / i for i in range(2, d + 1)) / math.log(2.0)


def overall_bound_mc(d: int, samples: int, seed: int
                     ) -> tuple[float, float]:
    """Monte Carlo estimate: draw Haar-random bases, measure a fixed pure
    state, average the Shannon entropy; returns (estimate, stderr).

    The outcome amplitudes of a fixed state in a Haar-random basis are a
    uniformly random unit vector, so each sample is one normalised
    complex-Gaussian draw of length d. The stderr needs two samples."""
    check_count("samples", samples, 2)
    rng = np.random.default_rng(seed)
    vals = np.empty(samples)
    batch = max(1, min(samples, 20000))
    done = 0
    while done < samples:
        count = min(batch, samples - done)
        g = rng.normal(size=(count, d)) + 1j * rng.normal(size=(count, d))
        probs = np.abs(g) ** 2
        probs /= probs.sum(axis=1, keepdims=True)
        logs = np.log2(probs, where=probs > 0, out=np.zeros_like(probs))
        vals[done:done + count] = -(probs * logs).sum(axis=1)
        done += count
    est = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(samples))
    return est, stderr


def key_length(config: QkdConfig, sifted: int) -> int:
    """floor(M (h - e) - q - margin), clamped at zero."""
    e = config.ec_bits_per_symbol or 0.0
    raw = sifted * (config.h - e) - config.memory_qubits \
        - config.margin_bits
    return max(0, int(math.floor(raw)))


def run_qkd(config: QkdConfig, seed: int) -> dict:
    """Honest execution of the one-way protocol; returns sifted strings,
    syndrome, final keys and a transcript-style record."""
    check_count("symbols", config.symbols)
    check_cap("honest-path", "symbols", config.symbols)
    rng = np.random.default_rng(seed)
    labels = ALPHABETS[config.alphabet]
    k = len(labels)
    n = config.symbols
    theta_a = rng.integers(0, k, size=n)
    theta_b = rng.integers(0, k, size=n)
    x = rng.integers(0, 2, size=n, dtype=np.uint8)
    match = theta_a == theta_b
    y = honest_outcomes(rng, x, match, config.p)
    sift = np.nonzero(match)[0]
    xs, ys = x[sift], y[sift]
    m = len(sift)
    record = {"symbols": n, "sifted": m, "sift_rate": m / n,
              "alphabet": config.alphabet}
    if config.code is not None and m:
        syn = config.code.syndrome_chunked(xs)
        x_hat = config.code.decode_chunked(ys, syn)
        record["syndrome_bits"] = int(len(syn))
    else:
        syn = np.array([], np.uint8)
        x_hat = ys
    record["reconciled"] = bool(np.array_equal(x_hat, xs))
    ell = key_length(config, m)
    record["key_length"] = ell
    if ell == 0:
        record["refused"] = True
        record["keys_equal"] = None
        return record
    record["refused"] = False
    hash_seed = int(rng.integers(1 << 62))
    if record["reconciled"]:
        key_a = key_b = gf2_matvec_stream(hash_seed, ell, xs)
    else:  # one draw of the matrix hashes both strings
        key_a, key_b = gf2_matvec_stream(
            hash_seed, ell, np.stack([xs, x_hat], axis=1)).T
    record["keys_equal"] = bool(np.array_equal(key_a, key_b))
    record["key_a"] = bits_to_str(key_a)
    return record


# ---------------------------------------------------------------------------
# exact rate-bound check against small eavesdroppers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Eavesdropper:
    """kind: 'trivial' | 'intercept_resend' (params: basis label) |
    'store_subset' (params: number of stored symbols)."""

    kind: str
    params: tuple = ()

    def q(self, m: int) -> int:
        return self.params[0] if self.kind == "store_subset" else 0

    def __str__(self):
        return f"{self.kind}{self.params if self.params else ''}"


def rate_bound_check(config: QkdConfig, eve: Eavesdropper, m: int,
                     seed: int, security_target: float = 0.25) -> dict:
    """Assemble the eavesdropper's exact ccq-state over an m-symbol sifted
    key (bases realized by seed), extract at the configured rate, and check
    the key distance against the privacy-amplification bound.

    Conditioning on the realized basis string is exact: the corollary
    applies to every conditional ccq-state, and the bound is evaluated on
    the same conditional.
    """
    check_cap("rate-check", "m", m)
    rng = np.random.default_rng(seed)
    labels = ALPHABETS[config.alphabet]
    theta = [labels[int(rng.integers(len(labels)))] for _ in range(m)]
    q = eve.q(m)
    # the ccq-state over x in {0,1}^m: one entry per (x, z) with P > 0, z
    # the intercept-resend outcomes (first symbol's most significant); a
    # syndrome announcement joins z in U. Stored qubits keep amplitude
    # rows, padded with I/k when q exceeds the m symbols.
    bits = (np.arange(1 << m)[:, None] >> np.arange(m - 1, -1, -1)) & 1
    weight = np.ones((1 << m, 1))
    rows = np.ones((1 << m, 1), dtype=complex)
    for i in range(m):
        v = SINGLE_QUBIT_BASES[theta[i]]
        if eve.kind == "intercept_resend":
            w = SINGLE_QUBIT_BASES[self_basis(eve)]
            # z ~ |<w_z|v_x>|^2; Bob's error folded into the channel noise
            tab = np.array([[abs(np.vdot(w[:, z], v[:, x])) ** 2 / 2.0
                             for x in range(2)] for z in range(2)])
            weight = (weight[:, :, None] * tab[:, bits[:, i]].T[:, None]
                      * 2.0).reshape(1 << m, -1)
        elif eve.kind == "store_subset" and i < q:
            rows = (rows[:, :, None] * v[:, bits[:, i]].T[:, None]
                    ).reshape(1 << m, -1)
    xi, zi = np.nonzero(weight > 0)
    u = zi
    u_labels = ["".join(t) for t in itertools.product(
        "01", repeat=weight.shape[1].bit_length() - 1)]
    if config.code is not None:
        syn, syn_idx = np.unique([bits_to_str(config.code.syndrome_chunked(b))
                                  for b in bits], return_inverse=True)
        u = zi * len(syn) + syn_idx[xi]
        u_labels = [(zs, sv) for zs in u_labels for sv in syn.tolist()]
    pad = (1 << q) // rows.shape[1]
    form = {"rows": rows[xi]} if pad == 1 else {"ops": np.kron(
        rows[xi, :, None] * rows[xi, None, :].conj(), np.eye(pad) / pad)}
    state = CqState(xi, weight[xi, zi] * 2.0 ** (-m), q=q, u=u,
                    labels=u_labels, **form)
    ell = key_length(config, m)
    out = {"m": m, "theta": "".join(theta), "eve": str(eve),
           "key_length": ell, "q": q}
    if ell == 0:
        out["refused"] = True
        return out
    fam = HashFamily(m, ell, "linear")
    exact, bound = pa_distance(state, fam, 0.0)
    out.update({"refused": False, "distance": exact, "pa_bound": bound,
                "security_target": security_target,
                "meets_target": bool(exact <= security_target),
                "pa_slack": bound - exact,
                "pass": bool(exact <= bound + 1e-9)})
    return out


def self_basis(eve: Eavesdropper) -> str:
    return eve.params[0] if eve.params else "+"


def threshold_table() -> list:
    """The three headline thresholds as (alphabet, h, p, rate) rows."""
    rows = []
    for name, h in (("bb84", 0.5), ("six-state", 2.0 / 3.0),
                    ("all-bases", overall_bound(2))):
        p_star = noise_threshold(h)
        rows.append({"alphabet": name, "h": h, "p": p_star,
                     "rate": binary_rate(h, p_star)})
    return rows
