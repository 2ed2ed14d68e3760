"""Two-universal and strongly two-universal hash families over bit-strings,
plus non-degenerate linear functions and their composition law.

Families are full random-matrix classes: the linear family contains every
l x n GF(2) matrix, the affine family additionally every offset. Keeping the
families complete makes two-universality a counting identity and lets small
instances be averaged exhaustively. Members are packed into machine words;
evaluation is XOR-and-parity.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bits import bits_to_int, parity, parity_u64, row_blocks
from .errors import InputError, check_cap


def fwht(a: np.ndarray, axis: int = 0) -> np.ndarray:
    """Walsh-Hadamard transform along an axis of length 2^k, in Sylvester
    order: out[w] = sum_x (-1)^{w.x} a[x], with w.x the parity of w & x.
    One in-place butterfly per bit b, pairing x with x ^ 2^b, on a copy of
    a and a half-size buffer: no allocation per butterfly."""
    out = np.moveaxis(np.asarray(a), axis, 0).copy()
    half = np.empty_like(out[:len(out) // 2])
    for b in range(len(out).bit_length() - 1):
        lo, hi = out.reshape((-1, 2, 1 << b) + out.shape[1:]).swapaxes(0, 1)
        diff = np.subtract(lo, hi, out=half.reshape(lo.shape))
        lo += hi
        hi[...] = diff
    return np.moveaxis(out, 0, axis)


@dataclass(frozen=True)
class HashMember:
    """One function of a family: l rows of n bits each, optional offset."""

    rows: tuple        # l ints, each an n-bit row mask
    offset: int | None  # l-bit int for affine members, None for linear

    def to_hex(self) -> str:
        body = ",".join(format(r, "x") for r in self.rows)
        if self.offset is None:
            return body
        return body + "+" + format(self.offset, "x")


class HashFamily:
    """GF(2) hash family from n bits to l bits.

    kind="linear": all l x n matrices (two-universal).
    kind="affine": all matrices plus all offsets (strongly two-universal).
    """

    def __init__(self, n: int, ell: int, kind: str = "linear"):
        if n < 1 or ell < 1:
            raise InputError("need n >= 1 and ell >= 1")
        if kind not in ("linear", "affine"):
            raise InputError(f"unknown family kind {kind!r}")
        self.n = n
        self.ell = ell
        self.kind = kind
        self._spans = {}  # rank -> read-only span table, built on first use

    @property
    def size(self) -> int:
        count = 1 << (self.n * self.ell)
        if self.kind == "affine":
            count <<= self.ell
        return count

    @property
    def classes(self) -> int:
        """Row spaces of the members: [n choose r]_2 = prod_{i<r} (2^n - 2^i)
        / (2^r - 2^i) subspaces of {0,1}^n per dimension r <= min(n, l)."""
        return sum(math.prod((1 << self.n) - (1 << i) for i in range(r))
                   // math.prod((1 << r) - (1 << i) for i in range(r))
                   for r in range(min(self.n, self.ell) + 1))

    def eval(self, member: HashMember, x: int) -> int:
        """Evaluate on a packed n-bit input; returns a packed l-bit output."""
        if x >> self.n:
            raise InputError("input longer than the family domain")
        out = 0
        for r in member.rows:
            out = (out << 1) | parity(r & x)
        if member.offset is not None:
            out ^= member.offset
        return out

    def member(self, index: int) -> HashMember:
        """Stable indexing of the full family."""
        if index < 0 or index >= self.size:
            raise InputError("member index out of range")
        offset = None
        if self.kind == "affine":
            offset = index & ((1 << self.ell) - 1)
            index >>= self.ell
        rows = []
        mask = (1 << self.n) - 1
        for _ in range(self.ell):
            rows.append(index & mask)
            index >>= self.n
        return HashMember(tuple(rows), offset)

    def sample(self, rng) -> HashMember:
        if self.size <= 1 << 62:
            return self.member(int(rng.integers(self.size)))
        # row-wise sampling for families too large to index
        rows = tuple(bits_to_int(rng.integers(0, 2, self.n))
                     for _ in range(self.ell))
        offset = None
        if self.kind == "affine":
            offset = bits_to_int(rng.integers(0, 2, self.ell))
        return HashMember(rows, offset)

    def _check_size(self):
        """Refuse enumerating more than 2^CAPS["hash-family"] members."""
        check_cap("hash-family",
                  "n*ell" if self.kind == "linear" else "(n+1)*ell",
                  self.size.bit_length() - 1)

    def members(self):
        self._check_size()
        return (self.member(i) for i in range(self.size))

    def eval_table(self) -> np.ndarray:
        """Outputs of every member on every input, shape (size, 2^n).

        Exploits the product structure: the table for row-vector a on all x
        is a parity table, and rows/offsets are independent coordinates of
        the member index.
        """
        self._check_size()
        check_cap("hash-table", "2^(n*ell+n)" if self.kind == "linear"
                  else "2^((n+1)*ell+n)", self.size << self.n)
        xs = np.arange(1 << self.n, dtype=np.uint64)
        row_vals = np.arange(1 << self.n, dtype=np.uint64)
        par = parity_u64(row_vals[:, None] & xs[None, :]).astype(np.uint32)
        # member() packs row j into index bits [j*n, (j+1)*n) and eval()
        # emits row j at output bit ell-1-j; build coordinates high-row
        # first so the index packing comes out right.
        table = np.zeros((1, 1 << self.n), dtype=np.uint32)
        for k in range(self.ell):
            table = table[:, None, :] | (par[None, :, :] << np.uint32(k))
            table = table.reshape(-1, 1 << self.n)
        if self.kind == "affine":
            offsets = np.arange(1 << self.ell, dtype=np.uint32)
            table = table[:, None, :] ^ offsets[None, :, None]
            table = table.reshape(-1, 1 << self.n)
        return table

    def row_space_classes(self):
        """The family grouped by row space R, for averages in which a
        member counts only through R: a rank-r member is A C, with C the
        reduced-row-echelon basis of R and A injective, so its outputs are
        the canonical r-bit outputs C x relabelled (and offset if affine).

        Yields (r, span, count) per rank r <= min(n, l): span[i, v] = C^T v
        lists the i-th row space of rank r, with row j of C at bit r-1-j of
        v (so the row at bit b is span[i, 2^b]); prod_{i<r} (2^l - 2^i)
        members share each, times 2^l if affine. Spans are built once.
        """
        self._check_size()
        for r in range(min(self.n, self.ell) + 1):
            count = math.prod((1 << self.ell) - (1 << i) for i in range(r))
            count <<= self.ell if self.kind == "affine" else 0
            if r not in self._spans:
                rows = _echelon_rows(self.n, r)
                # C^T v is linear in v: double the span per row, last first
                span = np.zeros((len(rows), 1), dtype=np.uint32)
                for i in range(r - 1, -1, -1):
                    span = np.hstack([span, span ^ rows[:, i, None]])
                span.flags.writeable = False
                self._spans[r] = span
            yield r, self._spans[r], count

    def representatives(self) -> tuple[np.ndarray, np.ndarray]:
        """(table, weight): one member per row-space class, table[i, x] =
        C x read as an l-bit output, with the class's share count / size
        of the family (see `row_space_classes`)."""
        self._check_size()
        check_cap("hash-table", "classes(n,ell)*2^n",
                  self.classes << self.n)
        xs = np.arange(1 << self.n, dtype=np.uint32)
        tables, weights = [], []
        for r, span, count in self.row_space_classes():
            # bit b of C x is the parity of x against the row at bit b
            table = np.zeros((len(span), len(xs)), dtype=np.uint32)
            for b in range(r):
                table |= parity_u64(span[:, 1 << b, None] & xs
                                    ).astype(np.uint32) << np.uint32(b)
            tables.append(table)
            weights.append(np.full(len(table), count / self.size))
        return np.concatenate(tables), np.concatenate(weights)

    def is_two_universal(self) -> bool:
        """Exhaustive collision check Pr[F(x)=F(y)] <= 2^-l for all x != y."""
        table = self.eval_table()
        npts = 1 << self.n
        thresh = self.size / (1 << self.ell)
        for x in range(npts):
            coll = (table[:, x + 1:] == table[:, x:x + 1]).sum(axis=0)
            if (coll > thresh).any():
                return False
        return True

    def is_strongly_two_universal(self) -> bool:
        """Exhaustive pair-histogram check: (F(x), F(y)) uniform over
        2^{2l} values for all x != y.

        The affine family factors exactly: with F = (M, b), the pair
        (Mx+b, My+b) is uniform iff b is (it is, by enumeration) and
        M(x+y) is uniform over all matrices, so it suffices to histogram
        every linear-table column at every nonzero difference. The tests
        cross-check this path at small sizes against
        `_pair_histogram_uniform` on the full affine member table.
        """
        if self.kind == "affine":
            linear = HashFamily(self.n, self.ell, "linear")
            table = linear.eval_table()
            want = linear.size / (1 << self.ell)
            for z in range(1, 1 << self.n):
                counts = np.bincount(table[:, z], minlength=1 << self.ell)
                if (counts != want).any():
                    return False
            return True
        return _pair_histogram_uniform(self.eval_table(), self.n, self.ell,
                                       self.size)


def _echelon_rows(n: int, r: int) -> np.ndarray:
    """The reduced-row-echelon bases C of every r-dimensional subspace of
    GF(2)^n as row masks, shape (subspaces, r). Row i leads at bit p_i
    (p_0 > p_1 > ...), is zero at the other leading bits and free at the
    remaining bits below."""
    out = []
    for lead in itertools.combinations(range(n - 1, -1, -1), r):
        free = [(i, b) for i, p in enumerate(lead) for b in range(p)
                if b not in lead]
        fill = np.arange(1 << len(free), dtype=np.uint32)
        rows = np.zeros((len(fill), r), dtype=np.uint32)
        rows[:] = [1 << p for p in lead]
        for g, (i, b) in enumerate(free):
            rows[:, i] |= ((fill >> g) & 1) << b
        out.append(rows)
    return np.concatenate(out)


def _pair_histogram_uniform(table: np.ndarray, n: int, ell: int,
                            size: int) -> bool:
    npts = 1 << n
    want = size / (1 << (2 * ell))
    for x in range(npts):
        for y in range(x + 1, npts):
            pair = (table[:, x].astype(np.int64) << ell) | table[:, y]
            counts = np.bincount(pair, minlength=1 << (2 * ell))
            if (counts != want).any():
                return False
    return True


def restriction_int(x, index_set) -> int:
    """The bit array x restricted to the (0-based) index set in increasing
    order, zero-padded back to len(x), packed as an int (see `bits`)."""
    idx = np.asarray(index_set, dtype=np.int64)
    # read as unsigned, a negative index is >= 2^63 and fails the same test
    if idx.size and idx.view(np.uint64).max() >= len(x):
        raise InputError("index outside the string")
    keep = np.zeros(len(x), dtype=bool)
    keep[idx] = True
    return bits_to_int(x[keep]) << (len(x) - int(np.count_nonzero(keep)))


# ---------------------------------------------------------------------------
# Non-degenerate linear functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NDLF:
    """beta(s0, s1) = <a0, s0> xor <a1, s1> with both masks nonzero."""

    a0: int
    a1: int
    ell: int

    def __post_init__(self):
        if self.a0 == 0 or self.a1 == 0:
            raise InputError("NDLF masks must be nonzero")
        if self.a0 >> self.ell or self.a1 >> self.ell:
            raise InputError("mask wider than ell bits")

    def __call__(self, s0: int, s1: int) -> int:
        return parity(self.a0 & s0) ^ parity(self.a1 & s1)

    def table(self) -> np.ndarray:
        s = np.arange(1 << self.ell, dtype=np.uint64)
        p0 = parity_u64(np.uint64(self.a0) & s)
        p1 = parity_u64(np.uint64(self.a1) & s)
        return p0[:, None] ^ p1[None, :]


def enumerate_ndlf(ell: int):
    """All (2^l - 1)^2 non-degenerate linear functions on l-bit pairs."""
    if ell < 1:
        raise InputError("ell must be positive")
    check_cap("ndlf-ell", "ell", ell)
    for a0 in range(1, 1 << ell):
        for a1 in range(1, 1 << ell):
            yield NDLF(a0, a1, ell)


def is_two_balanced(table: np.ndarray) -> bool:
    """A binary function on l-bit pairs is 2-balanced when every row and
    every column of its table is balanced."""
    t = np.asarray(table)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise InputError("expected a square 2^l x 2^l function table")
    size = t.shape[0]
    if size & (size - 1):
        raise InputError("table side must be a power of two")
    half = size // 2
    return bool((t.sum(axis=0) == half).all()
                and (t.sum(axis=1) == half).all())


class ComposedFamily:
    """One-bit family h(x0, x1) = beta(f0(x0), f1(x1)) from two strongly
    two-universal factor families and a 2-balanced combiner."""

    def __init__(self, beta, fam0: HashFamily, fam1: HashFamily):
        if fam0.kind != "affine" or fam1.kind != "affine":
            # the identity-only linear counterexample shows plain
            # two-universality is not enough
            raise InputError("composition needs strongly two-universal "
                             "(affine) factor families")
        if fam0.ell != fam1.ell:
            raise InputError("factor families must share the output length")
        tab = beta.table() if isinstance(beta, NDLF) else np.asarray(beta)
        if not is_two_balanced(tab):
            raise InputError("combiner is not 2-balanced")
        self.beta_table = tab
        self.fam0 = fam0
        self.fam1 = fam1
        self.n = fam0.n + fam1.n
        self.ell = 1

    @property
    def size(self) -> int:
        return self.fam0.size * self.fam1.size

    def member(self, index: int):
        i0, i1 = divmod(index, self.fam1.size)
        return self.fam0.member(i0), self.fam1.member(i1)

    def eval(self, member, x0: int, x1: int) -> int:
        m0, m1 = member
        return int(self.beta_table[self.fam0.eval(m0, x0),
                                   self.fam1.eval(m1, x1)])

    def eval_table(self) -> np.ndarray:
        t0 = self.fam0.eval_table()
        t1 = self.fam1.eval_table()
        out = self.beta_table[t0[:, None, :, None], t1[None, :, None, :]]
        return out.reshape(self.size, 1 << self.n).astype(np.uint32)

    def is_strongly_two_universal(self) -> bool:
        return _pair_histogram_uniform(self.eval_table(), self.n, self.ell,
                                       self.size)


def compose_balanced(beta, fam0: HashFamily, fam1: HashFamily,
                     verify: bool = False) -> ComposedFamily:
    """Build the composed family; optionally verify strong two-universality
    exhaustively (small parameters only)."""
    fam = ComposedFamily(beta, fam0, fam1)
    if verify and not fam.is_strongly_two_universal():
        raise InputError("composed family failed the exhaustive "
                         "two-universality histogram")
    return fam


def gf2_matvec_stream(seed: int, ell: int, x_bits: np.ndarray) -> np.ndarray:
    """Apply a seeded random l x m GF(2) matrix H to a long bit vector
    without materializing the matrix; rows are drawn as packed 64-bit words.

    x_bits is one vector of shape (m,), giving H.x of shape (l,), or k
    vectors as the columns of an (m, k) array, giving H.X of shape (l, k)
    from one draw of H.

    Stream order is that of one `Generator.integers` draw of all l*words
    63-bit high parts, row-major, then one of all l*words low bits. Both
    are read from the bit generator's raw 64-bit words:
    - high: Lemire's method makes `integers(0, 2^63)` equal `raw >> 1`, so
      a word shifted left by one is `raw & ~1`;
    - low: `integers(0, 2)` reads 32-bit halves of raw words, low half
      first, and each bit is `half >> 31`.
    Rows come in `row_blocks` of at most BLOCK_CELLS words, from the seeded
    generator for the high parts and a copy advanced past them for the low
    bits. A block of an odd number of cells leaves the second half of its
    last low word unread; it is carried into the next block, as the
    Generator's buffered half would be."""
    m = len(x_bits)
    x_cols = np.asarray(x_bits, dtype=np.uint8).reshape(m, -1).T
    words = (m + 63) // 64
    x_packed = np.zeros((len(x_cols), words * 8), dtype=np.uint8)
    x_packed[:, :(m + 7) // 8] = np.packbits(x_cols, axis=1)
    x_packed = x_packed.view(">u8").astype(np.uint64)
    high = np.random.default_rng(seed).bit_generator
    low = copy.deepcopy(high).advance(ell * words)
    acc = np.empty((len(x_cols), ell), dtype=np.uint64)
    spare = np.empty(0, dtype="<u4")  # unread high half of a low word
    start = 0
    for count in row_blocks(ell, words):
        cells = count * words
        rows = high.random_raw(cells).reshape(count, words)
        rows &= ~np.uint64(1)
        raw = low.random_raw((cells - len(spare) + 1) // 2)
        halves = np.concatenate(
            (spare, raw.astype("<u8", copy=False).view("<u4")))
        rows |= (halves[:cells] >> 31).reshape(count, words)
        spare = halves[cells:]
        # parity is linear: XOR the words of each row, then one parity each
        for col, x in zip(acc, x_packed):
            col[start:start + count] = np.bitwise_xor.reduce(rows & x, axis=1)
        start += count
    out = parity_u64(acc).astype(np.uint8).T
    return out if np.ndim(x_bits) == 2 else out[:, 0]
