"""One-way QKD against quantum-memory-bounded eavesdroppers.

Honest simulation through preparation / sifting / error correction /
privacy amplification, the binary-channel rate and noise thresholds, the
overall (all-bases) average entropic uncertainty bound, and an exact
key-distance check against small eavesdroppers.
"""

from __future__ import annotations

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
RATE_CHECK_CAP = 10


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
    stored = set(range(q)) if eve.kind == "store_subset" else set()
    # per-symbol eavesdropper tables
    per_symbol = []
    for i in range(m):
        v = SINGLE_QUBIT_BASES[theta[i]]
        if eve.kind == "intercept_resend":
            w = SINGLE_QUBIT_BASES[self_basis(eve)]
            # z ~ |<w_z|v_x>|^2; Bob's error folded into the channel noise
            tab = np.array([[abs(np.vdot(w[:, z], v[:, x])) ** 2 / 2.0
                             for x in range(2)] for z in range(2)])
            per_symbol.append(("cls", tab))
        elif eve.kind == "store_subset" and i in stored:
            ops = [np.outer(v[:, x], v[:, x].conj()) for x in range(2)]
            per_symbol.append(("qub", ops))
        else:
            per_symbol.append(("none", None))
    # assemble the ccq-state over x in {0,1}^m; a syndrome announcement
    # joins the classical side information
    xs, us, ps, ops = [], [], [], []
    dim = 1 << q
    for x in range(1 << m):
        bits = [(x >> (m - 1 - i)) & 1 for i in range(m)]
        syn = None if config.code is None \
            else bits_to_str(config.code.syndrome_chunked(bits))
        z_branches = [("", 1.0)]
        op = np.array([[1.0 + 0j]])
        for i in range(m):
            kind, data = per_symbol[i]
            if kind == "cls":
                z_branches = [(zs + str(z), w * data[z, bits[i]] * 2.0)
                              for zs, w in z_branches for z in range(2)]
            elif kind == "qub":
                op = np.kron(op, data[bits[i]])
        for zs, w in z_branches:
            if w <= 0:
                continue
            xs.append(x)
            us.append(zs if syn is None else (zs, syn))
            ps.append(w * 2.0 ** (-m))
            full = op if op.shape[0] == dim else np.kron(
                op, np.eye(dim // op.shape[0]) / (dim // op.shape[0]))
            ops.append(full)
    state = CqState(tuple(xs), np.asarray(ps), tuple(ops), q, tuple(us))
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
