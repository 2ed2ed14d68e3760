"""The vectorized honest path against its per-block and per-branch oracles.

`decode_chunked` corrects every block with one table gather; it must give
the bytes of the per-chunk loop below. `honest_outcomes` fills the
unmatched positions with coins without a branch; it must give the bytes of
the two-branch `np.where` and leave the generator in the same state.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bqsm.errors import InputError
from bqsm.protocols import hamming_7_4, random_code, repetition_code
from bqsm.protocols.channel import honest_outcomes

CODES = (hamming_7_4(), repetition_code(3), repetition_code(5),
         random_code(10, 5, seed=3))


def decode_chunked_loop(code, received, syn):
    """Oracle: pad to whole blocks, then one nearest-coset correction per
    block, indexing the coset table by the syndrome difference read most
    significant bit first."""
    received = np.asarray(received, dtype=np.uint8)
    n = len(received)
    chunks = code.chunk_count(n)
    padded = np.zeros(chunks * code.length, dtype=np.uint8)
    padded[:n] = received
    syn = np.asarray(syn, dtype=np.uint8).reshape(chunks, code.s)
    weights = 1 << np.arange(code.s - 1, -1, -1, dtype=np.int64)
    out = np.empty((chunks, code.length), dtype=np.uint8)
    for c in range(chunks):
        block = padded[c * code.length:(c + 1) * code.length]
        delta = (code.h @ block % 2) ^ syn[c]
        out[c] = block ^ code.leaders[int(delta @ weights)]
    return out.reshape(-1)[:n]


@st.composite
def received_and_syndrome(draw):
    code = draw(st.sampled_from(CODES))
    n = draw(st.integers(0, 6 * code.length - 1))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    chunks = code.chunk_count(n)
    syn = st.lists(st.integers(0, 1), min_size=chunks * code.s,
                   max_size=chunks * code.s)
    return (code, np.array(draw(bits), dtype=np.uint8),
            np.array(draw(syn), dtype=np.uint8))


class TestDecodeChunked:
    @settings(max_examples=300, deadline=None)
    @given(received_and_syndrome())
    def test_matches_the_per_chunk_loop(self, case):
        code, received, syn = case
        got = code.decode_chunked(received, syn)
        want = decode_chunked_loop(code, received, syn)
        assert got.dtype == np.uint8
        assert got.tobytes() == want.tobytes()

    def test_one_block_decode_is_the_same_path(self):
        code = hamming_7_4()
        rng = np.random.default_rng(5)
        blocks = rng.integers(0, 2, (40, 7), dtype=np.uint8)
        syn = rng.integers(0, 2, (40, 3), dtype=np.uint8)
        stacked = code.decode(blocks, syn)
        for block, s, row in zip(blocks, syn, stacked):
            assert np.array_equal(code.decode(block, s), row)

    @pytest.mark.parametrize("syn_bits", [0, 5, 7, 12])
    def test_wrong_syndrome_length_names_both_lengths(self, syn_bits):
        code = hamming_7_4()           # 10 bits: two blocks, 6 syndrome bits
        with pytest.raises(InputError, match=f"{syn_bits}.*6.*10"):
            code.decode_chunked(np.zeros(10, np.uint8),
                                np.zeros(syn_bits, np.uint8))


MATCH_KINDS = {
    "bool": lambda rng, n: bool(rng.integers(2)),
    "numpy bool": lambda rng, n: np.bool_(rng.integers(2)),
    "array": lambda rng, n: rng.integers(0, 2, size=n) == 1,
}


class TestHonestOutcomes:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(MATCH_KINDS)),
           st.sampled_from([0.0, 0.03, 0.25]),
           st.sampled_from([0, 1, 7, 64, 1000]),
           st.integers(0, 2 ** 32 - 1), st.integers(0, 3))
    def test_matches_the_two_branch_reference(self, kind, phi, n, seed,
                                              carry):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 2, size=n, dtype=np.uint8)
        match = MATCH_KINDS[kind](rng, n)
        rng.integers(0, 2, size=carry)   # leave a spare 32-bit half or not
        clone = np.random.default_rng()
        clone.bit_generator.state = rng.bit_generator.state
        got = honest_outcomes(rng, x, match, phi)
        flips = clone.random(n) < phi
        want = np.where(match, x ^ flips,
                        clone.integers(0, 2, size=n)).astype(np.uint8)
        assert got.dtype == np.uint8
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == clone.bit_generator.state
