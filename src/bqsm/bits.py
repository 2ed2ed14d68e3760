"""Bit-string helpers shared across modules.

Conventions: inside the library a bit-string of length n is a packed int
or a numpy bit array, with index 0 of the array the most significant bit
of the packed int. Its '0'/'1' text (index 0 leftmost) is built only here,
for transcripts and CLI records.
"""

from __future__ import annotations

import numpy as np

from .errors import CAPS

# Cells (rows x columns) a row-blocked draw holds at once: 512 KiB of
# float64 or uint64. The walk-steps cap keeps a Monte-Carlo walk row within
# it. numpy's Generator fills an array in C order from one stream and keeps
# its buffered 32-bit half across calls, so drawing the row axis in blocks
# consumes the stream exactly as one (rows, n) draw does.
BLOCK_CELLS = CAPS["walk-steps"]

_BYTE_PARITY = np.array(
    [bin(v).count("1") & 1 for v in range(256)], dtype=np.uint8
)
_DIGITS = bytes.maketrans(b"\0\1", b"01")
_BASES = bytes.maketrans(b"\0\1", b"+x")


def row_blocks(rows: int, n: int):
    """Yield the row counts of consecutive (count, n) draws that cover
    `rows` rows, each within BLOCK_CELLS cells (one row if n exceeds it)."""
    step = max(1, BLOCK_CELLS // n)
    for start in range(0, rows, step):
        yield min(step, rows - start)


def bits_to_str(bits) -> str:
    """'0'/'1' text of a bit sequence, any nonzero entry a '1'."""
    return np.asarray(bits, dtype=bool).tobytes().translate(_DIGITS).decode()


def bases_to_str(theta) -> str:
    """BB84 basis labels of a boolean basis array: False is '+', True 'x'."""
    return np.asarray(theta, dtype=bool).tobytes().translate(_BASES).decode()


def bits_to_int(bits) -> int:
    """Pack a bit sequence into an int, index 0 most significant; O(n)."""
    b = np.asarray(bits, dtype=np.uint8)
    return int.from_bytes(np.packbits(b).tobytes(), "big") >> (-len(b) % 8)


def parity(v: int) -> int:
    """Parity of the set bits of a non-negative int."""
    return bin(v).count("1") & 1


def parity_u64(a: np.ndarray) -> np.ndarray:
    """Elementwise parity of a uint64 array, via byte lookup."""
    b = a.astype(np.uint64).view(np.uint8).reshape(a.shape + (8,))
    return np.bitwise_xor.reduce(_BYTE_PARITY[b], axis=-1)
