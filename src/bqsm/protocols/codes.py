"""Small binary linear codes with exact nearest-coset decoding.

The protocols only need desk-scale error correction, so decoding is by a
brute-force coset-leader table (block length <= 24); the design radius is
the largest weight for which every error pattern is its coset leader.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..entropy import binary_entropy
from ..errors import InputError, check_cap


class LinearCode:
    """Binary [length, length - s] code given by an s x length parity-check
    matrix over GF(2)."""

    def __init__(self, parity_check, design_phi: float | None = None):
        h = np.asarray(parity_check, dtype=np.uint8) & 1
        if h.ndim != 2:
            raise InputError("parity-check matrix must be 2-d")
        self.h = h
        self.s, self.length = h.shape
        check_cap("coset-table", "length", self.length)
        if self.s >= self.length:
            raise InputError("syndrome length must be below block length")
        # a syndrome's row of the coset table, first bit most significant
        self._weights = 1 << np.arange(self.s - 1, -1, -1, dtype=np.int64)
        self.leaders = self._coset_leaders()
        self.radius = self._design_radius()
        self.design_phi = design_phi
        if design_phi is not None:
            # record the syndrome-rate margin s/l = h(phi) + eps_c
            self.epsilon_c = self.s / self.length - binary_entropy(design_phi)
            if self.epsilon_c < 0:
                raise InputError(
                    "syndrome rate below h(phi): undecodable design point")

    def syndrome(self, bits: np.ndarray) -> np.ndarray:
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.shape[-1] != self.length:
            raise InputError("block length mismatch")
        return (self.h @ bits.T % 2).T.astype(np.uint8)

    def _syndrome_index(self, bits) -> int:
        return int(self.syndrome(bits) @ self._weights)

    def _coset_leaders(self) -> np.ndarray:
        table = np.full((1 << self.s, self.length), -1, dtype=np.int8)
        filled = 0
        for weight in range(self.length + 1):
            if filled == 1 << self.s:
                break
            for pos in itertools.combinations(range(self.length), weight):
                e = np.zeros(self.length, dtype=np.uint8)
                e[list(pos)] = 1
                idx = self._syndrome_index(e)
                if table[idx, 0] < 0:
                    table[idx] = e
                    filled += 1
        return table.astype(np.uint8)

    def _design_radius(self) -> int:
        radius = -1
        for weight in range(self.length + 1):
            ok = True
            for pos in itertools.combinations(range(self.length), weight):
                e = np.zeros(self.length, dtype=np.uint8)
                e[list(pos)] = 1
                idx = self._syndrome_index(e)
                if not np.array_equal(self.leaders[idx], e):
                    ok = False
                    break
            if not ok:
                break
            radius = weight
        return max(radius, 0)

    def decode(self, received: np.ndarray, syn: np.ndarray) -> np.ndarray:
        """Nearest-coset correction of each block (last axis) of `received`
        toward the word with the matching syndrome: one table gather."""
        received = np.asarray(received, dtype=np.uint8)
        delta = self.syndrome(received) ^ np.asarray(syn, dtype=np.uint8)
        return received ^ self.leaders[delta @ self._weights]

    def block_failure_probability(self, phi: float) -> float:
        """Probability that more than `radius` flips hit one block."""
        return float(sum(math.comb(self.length, k)
                         * phi ** k * (1 - phi) ** (self.length - k)
                         for k in range(self.radius + 1,
                                        self.length + 1)))

    # chunked helpers for protocol-length strings -------------------------

    def chunk_count(self, n_bits: int) -> int:
        return (n_bits + self.length - 1) // self.length

    def _blocks(self, bits: np.ndarray) -> np.ndarray:
        """`bits` zero-padded to whole blocks, one block per row."""
        chunks = self.chunk_count(len(bits))
        padded = np.zeros((chunks, self.length), dtype=np.uint8)
        padded.reshape(-1)[:len(bits)] = bits
        return padded

    def syndrome_chunked(self, bits: np.ndarray) -> np.ndarray:
        return self.syndrome(self._blocks(bits)).reshape(-1)

    def decode_chunked(self, received: np.ndarray, syn: np.ndarray
                       ) -> np.ndarray:
        blocks = self._blocks(received)
        syn = np.asarray(syn, dtype=np.uint8)
        if syn.size != blocks.shape[0] * self.s:
            raise InputError(f"syndrome length {syn.size} does not match "
                             f"{blocks.shape[0] * self.s} for "
                             f"{len(received)} received bits")
        out = self.decode(blocks, syn.reshape(-1, self.s))
        return out.reshape(-1)[:len(received)]

    def failure_probability_chunked(self, n_bits: int, phi: float) -> float:
        p_block = self.block_failure_probability(phi)
        return 1.0 - (1.0 - p_block) ** self.chunk_count(n_bits)


def repetition_code(length: int, design_phi: float | None = None
                    ) -> LinearCode:
    """[length, 1] repetition code: parity checks x_i = x_{i+1}."""
    h = np.zeros((length - 1, length), dtype=np.uint8)
    for i in range(length - 1):
        h[i, i] = h[i, i + 1] = 1
    return LinearCode(h, design_phi)


def hamming_7_4(design_phi: float | None = None) -> LinearCode:
    h = np.array([[1, 0, 1, 0, 1, 0, 1],
                  [0, 1, 1, 0, 0, 1, 1],
                  [0, 0, 0, 1, 1, 1, 1]], dtype=np.uint8)
    return LinearCode(h, design_phi)


def random_code(length: int, s: int, seed: int,
                design_phi: float | None = None) -> LinearCode:
    rng = np.random.default_rng(seed)
    while True:
        h = rng.integers(0, 2, size=(s, length), dtype=np.uint8)
        if np.linalg.matrix_rank(h.astype(float)) >= min(s, length):
            return LinearCode(h, design_phi)
