"""1-2 string OT: random BB84 qubits, per-qubit bases, two hashed strings.

Honest runs are classical per-qubit sampling (standard, reversed and
error-corrected variants). Exact adversarial quantities live in
`security.sender_security_distance`.
"""

from __future__ import annotations

import numpy as np

from ..bits import bases_to_str, bits_to_str
from ..errors import InputError, check_cap
from ..hashing import HashFamily, restriction_int
from .channel import ChannelModel, honest_outcomes
from .codes import LinearCode
from .transcript import ProtocolTranscript


def run_ot12(c: int, channel: ChannelModel, receiver, n: int, ell: int,
             seed: int, direction: str = "standard",
             code: LinearCode | None = None) -> ProtocolTranscript:
    """One honest run of randomized 1-2 string OT.

    direction='standard' has the sender transmit qubits; 'reversed' has the
    receiver transmit and the sender measure. Passing a code appends the
    two syndromes of x restricted to each index class (the noisy-model
    variant).
    """
    if receiver != "honest":
        raise InputError(
            "adversarial 1-2 OT runs go through sender_security_distance")
    check_cap("honest-path", "n", n)
    phi, _ = channel.effective()
    rng = np.random.default_rng(seed)
    tr = ProtocolTranscript(f"ot12_{direction}", seed, n)
    theta = rng.integers(0, 2, size=n) == 1     # True: basis x
    x = rng.integers(0, 2, size=n, dtype=np.uint8)
    match = theta == (c != 0)
    if direction == "standard":
        # receiver measures everything in basis [+,x]_c
        x_rec = honest_outcomes(rng, x, match, phi)
    elif direction == "reversed":
        # receiver sends |x'>_{[+,x]_c}; sender measures in random theta;
        # positions with theta_i = basis_c agree up to channel flips
        x_rec = x                 # receiver knows what it sent
        x = honest_outcomes(rng, x_rec, match, phi)
    else:
        raise InputError(f"unknown direction {direction!r}")
    idx0 = np.nonzero(~theta)[0]
    idx1 = np.nonzero(theta)[0]
    fam = HashFamily(n, ell, "linear")
    m0 = fam.sample(rng)
    m1 = fam.sample(rng)
    s0 = fam.eval(m0, restriction_int(x, idx0))
    s1 = fam.eval(m1, restriction_int(x, idx1))
    announce = {"theta": bases_to_str(theta),
                "f0": m0.to_hex(), "f1": m1.to_hex()}
    syn = None
    if code is not None:
        syn = (code.syndrome_chunked(x[idx0]) if len(idx0) else
               np.array([], np.uint8),
               code.syndrome_chunked(x[idx1]) if len(idx1) else
               np.array([], np.uint8))
        announce["syn0"] = syn[0].tolist()
        announce["syn1"] = syn[1].tolist()
    tr.say("S" if direction == "standard" else "R", "qubits", "BB84")
    tr.say("S", "announce", announce)
    # receiver output
    idx_c = idx0 if c == 0 else idx1
    rec_bits = x_rec[idx_c]
    decode_ok = True
    if code is not None and len(idx_c):
        rec_bits = code.decode_chunked(rec_bits, syn[c])
        decode_ok = bool(np.array_equal(rec_bits, x[idx_c]))
    full = np.zeros(n, dtype=np.uint8)
    full[idx_c] = rec_bits
    y = fam.eval(m0 if c == 0 else m1, restriction_int(full, idx_c))
    tr.honest = {"c": c, "x": bits_to_str(x), "theta": announce["theta"],
                 "s0": s0, "s1": s1, "y": y, "decode_ok": decode_ok,
                 "i0": idx0.tolist(), "i1": idx1.tolist()}
    return tr
