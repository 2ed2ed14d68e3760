import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bqsm import qkd
from bqsm.bits import (BLOCK_CELLS, bases_to_str, bits_to_int, bits_to_str,
                       parity_u64)
from bqsm.errors import CapacityError, InputError
from bqsm.hashing import (ComposedFamily, HashFamily, HashMember, NDLF,
                          _pair_histogram_uniform,
                          compose_balanced, enumerate_ndlf, fwht,
                          gf2_matvec_stream, is_two_balanced, restriction_int)
from bqsm.protocols.codes import hamming_7_4
from bqsm.qkd import QkdConfig, run_qkd


class TestHashFamily:
    def test_eval_matches_table(self):
        for n, ell, kind in ((3, 2, "linear"), (2, 2, "affine")):
            fam = HashFamily(n, ell, kind)
            table = fam.eval_table()
            for i in range(0, fam.size, max(1, fam.size // 64)):
                member = fam.member(i)
                for x in range(1 << n):
                    assert fam.eval(member, x) == table[i, x]

    def test_zero_and_identity_members(self):
        fam = HashFamily(4, 4, "linear")
        zero = HashMember((0, 0, 0, 0), None)
        assert fam.eval(zero, 0b1011) == 0
        ident = HashMember((0b1000, 0b0100, 0b0010, 0b0001), None)
        for x in range(16):
            assert fam.eval(ident, x) == x

    def test_fixed_member_hand_value(self):
        fam = HashFamily(4, 2, "linear")
        member = HashMember((0b1010, 0b0110), None)
        x = 0b1010
        assert fam.eval(member, x) == (0 << 1 | 1)

    def test_two_universal_exhaustive(self):
        for n, ell in ((3, 1), (4, 2), (6, 3)):
            assert HashFamily(n, ell, "linear").is_two_universal()

    def test_strongly_two_universal_exhaustive(self):
        for n, ell in ((3, 1), (4, 2), (6, 3)):
            assert HashFamily(n, ell, "affine").is_strongly_two_universal()

    def test_affine_fast_path_matches_naive_histogram(self):
        for n, ell in ((3, 1), (2, 2)):
            fam = HashFamily(n, ell, "affine")
            assert fam.is_strongly_two_universal() \
                == _pair_histogram_uniform(fam.eval_table(), n, ell,
                                           fam.size)

    def test_linear_family_not_strongly_two_universal(self):
        # F(0) = 0 always, so the pair histogram at x=0 cannot be uniform
        assert not HashFamily(2, 1, "linear").is_strongly_two_universal()

    def test_sampling_deterministic(self):
        fam = HashFamily(6, 2, "linear")
        a = fam.sample(np.random.default_rng(9))
        b = fam.sample(np.random.default_rng(9))
        assert a == b

    def test_capacity(self):
        with pytest.raises(CapacityError):
            list(HashFamily(8, 4, "linear").members())

    def test_sample_draws_the_indexed_member(self):
        # sampling by index and by rows must agree wherever the family is
        # small enough to index, so fixed seeds give the same members
        for kind, extra in (("linear", 0), ("affine", 1)):
            for ell in range(1, 63):
                for n in range(1, 62 // ell + 1 - extra):
                    fam = HashFamily(n, ell, kind)
                    rng = np.random.default_rng([n, ell])
                    want = fam.member(int(rng.integers(fam.size)))
                    assert fam.sample(np.random.default_rng([n, ell])) \
                        == want

    def test_row_space_class_weights_sum_to_size(self):
        # class counts are Gaussian binomials [n, r]_2; member counts times
        # classes cover the family exactly, or a capacity error is named
        def gaussian(n, r):
            num = den = 1
            for i in range(r):
                num *= (1 << n) - (1 << i)
                den *= (1 << r) - (1 << i)
            return num // den

        for n in range(1, 17):
            for ell in range(1, 16 // n + 1):
                classes = sum(gaussian(n, r)
                              for r in range(min(n, ell) + 1))
                for kind in ("linear", "affine"):
                    fam = HashFamily(n, ell, kind)
                    if fam.size > 1 << 20:
                        with pytest.raises(CapacityError):
                            next(fam.row_space_classes())
                        continue
                    seen, total, spaces = 0, 0, []
                    for r, span, count in fam.row_space_classes():
                        # each row lists 2^r distinct elements of {0,1}^n,
                        # closed under XOR: a subspace of dimension r
                        assert span.shape[1] == 1 << r
                        assert span.max(initial=0) < 1 << n
                        elems = np.sort(span, axis=1)
                        assert (np.diff(elems, axis=1) > 0).all()
                        shifted = np.sort(span[:, :, None] ^ span[:, None, :],
                                          axis=1)
                        assert (shifted == elems[:, :, None]).all()
                        spaces += [row.tobytes() for row in elems]
                        seen += len(span)
                        total += len(span) * count
                    assert (seen, total) == (classes, fam.size)
                    assert len(set(spaces)) == classes

    def test_row_space_spans_built_once_and_read_only(self):
        # the averages reuse one family over many states and u-chunks
        for fam in (HashFamily(4, 2, "linear"), HashFamily(3, 3, "affine")):
            first = list(fam.row_space_classes())
            again = list(fam.row_space_classes())
            assert [(r, count) for r, _, count in first] \
                == [(r, count) for r, _, count in again]
            for (_, span, _), (_, same, _) in zip(first, again):
                assert same is span
                assert not span.flags.writeable
                with pytest.raises(ValueError):
                    span[0, 0] = 1

    def test_row_space_classes_group_members_by_kernel(self):
        # a member's row space is fixed by its kernel {x : F(x) = F(0)};
        # each representative must be one kernel, weigh the share of members
        # with that kernel, and take 2^n / |kernel| distinct values
        for n, ell, kind in ((3, 2, "linear"), (2, 3, "linear"),
                             (3, 3, "linear"), (2, 2, "affine"),
                             (3, 1, "affine")):
            fam = HashFamily(n, ell, kind)
            table = fam.eval_table()
            kernels = table == table[:, :1]
            members = {}
            for row in kernels:
                members[row.tobytes()] = members.get(row.tobytes(), 0) + 1
            classes = {}
            canon, weight = fam.representatives()
            for row, w in zip(canon, weight):
                kernel = row == 0
                assert len(set(row.tolist())) * kernel.sum() == 1 << n
                classes[kernel.tobytes()] = w * fam.size
            assert classes == members

    def test_representatives_match_column_doubling(self):
        # the tables of one echelon column map C e_b per input bit b,
        # doubled once per bit, with shares as the class counts give them
        def column_doubling(fam):
            tables, weights = [], []
            for r in range(min(fam.n, fam.ell) + 1):
                for lead in itertools.combinations(
                        range(fam.n - 1, -1, -1), r):
                    free = [(i, b) for i, p in enumerate(lead)
                            for b in range(p) if b not in lead]
                    fill = np.arange(1 << len(free), dtype=np.uint32)
                    unit = np.zeros((len(fill), fam.n), dtype=np.uint32)
                    unit[:, list(lead)] = [1 << (r - 1 - i)
                                           for i in range(r)]
                    for g, (i, b) in enumerate(free):
                        unit[:, b] |= ((fill >> g) & 1) << (r - 1 - i)
                    table = np.zeros((len(unit), 1), dtype=np.uint32)
                    for b in range(fam.n):
                        table = np.hstack([table, table ^ unit[:, b, None]])
                    count = math.prod((1 << fam.ell) - (1 << i)
                                      for i in range(r))
                    count <<= fam.ell if fam.kind == "affine" else 0
                    tables.append(table)
                    weights.append(np.full(len(table), count / fam.size))
            return np.concatenate(tables), np.concatenate(weights)

        for n, ell, kind in ((1, 1, "linear"), (4, 1, "linear"),
                             (6, 2, "linear"), (5, 3, "affine"),
                             (3, 4, "linear"), (7, 1, "affine"),
                             (8, 2, "linear")):
            fam = HashFamily(n, ell, kind)
            got, want = fam.representatives(), column_doubling(fam)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    def test_fwht_matches_hadamard_matrix(self):
        from scipy.linalg import hadamard
        rng = np.random.default_rng(3)
        for k in range(6):
            a = rng.normal(size=(3, 1 << k, 2))
            kept = a.copy()
            want = np.einsum("wx,axb->awb", hadamard(1 << k), a)
            assert np.abs(fwht(a, axis=1) - want).max() <= 1e-12
            assert (a == kept).all()  # the butterflies run on a copy
            strided = a[:, :, ::-1].transpose(2, 0, 1)  # not contiguous
            assert np.abs(fwht(strided, axis=2)
                          - want[:, :, ::-1].transpose(2, 0, 1)).max() <= 1e-12
        ints = rng.integers(-9, 9, size=(16, 2))
        assert (fwht(ints) == hadamard(16) @ ints).all()

    def test_sample_beyond_index_range(self):
        fam = HashFamily(100, 3, "affine")
        member = fam.sample(np.random.default_rng(4))
        assert len(member.rows) == 3
        assert all(0 <= r < 1 << 100 for r in member.rows)
        assert 0 <= member.offset < 8


def _bits_to_str_loop(bits, chars="01"):
    """Reference: one character per bit."""
    return "".join(chars[1] if b else chars[0] for b in bits)


def pad_substring_reference(x: str, index_set) -> str:
    """Reference: x restricted to the sorted index set as text, zero-padded
    back to the original length."""
    idx = sorted(set(index_set))
    if any(i < 0 or i >= len(x) for i in idx):
        raise InputError("index outside the string")
    kept = "".join(x[i] for i in idx)
    return kept + "0" * (len(x) - len(kept))


def _bit_array(text: str) -> np.ndarray:
    return np.array([int(ch) for ch in text], dtype=np.uint8)


class TestBitPacking:
    @given(st.lists(st.integers(0, 1), max_size=200))
    @example([])
    @example([1] * 63)
    @example([1] + [0] * 63)
    @example([1, 0] * 32 + [1])
    def test_bits_to_int_matches_string_parse(self, bits):
        assert bits_to_int(bits) == int(_bits_to_str_loop(bits) or "0", 2)
        assert bits_to_int(np.array(bits, dtype=np.uint8)) \
            == bits_to_int(bits)

    @given(st.lists(st.integers(0, 1), max_size=200))
    @example([])
    @example([1, 0, 1] * 21)
    @example([0, 1] * 32)
    @example([1] * 65)
    def test_bits_to_str_matches_loop(self, bits):
        want = _bits_to_str_loop(bits)
        assert bits_to_str(bits) == want
        assert bits_to_str(np.array(bits, np.int64) * -2) == want
        for dtype in (bool, np.uint8, np.int64):
            arr = np.array(bits, dtype=dtype)
            assert bits_to_str(arr) == want
            assert bases_to_str(arr.astype(bool)) \
                == _bits_to_str_loop(bits, "+x")


class TestPadSubstring:
    """`restriction_int` on the cases of the former string helper, read as
    ints, and against that helper as a reference."""

    def test_full_set(self):
        assert restriction_int(_bit_array("1101"), [0, 1, 2, 3]) == 0b1101

    def test_empty_set(self):
        assert restriction_int(_bit_array("1101"), []) == 0b0000

    def test_partial(self):
        assert restriction_int(_bit_array("1101"), [0, 2]) == 0b1000
        assert restriction_int(_bit_array("1101"), [1, 3]) == 0b1100

    def test_out_of_range(self):
        with pytest.raises(InputError):
            restriction_int(_bit_array("110"), [3])
        with pytest.raises(InputError):
            restriction_int(_bit_array("110"), [-1])

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=200),
           st.lists(st.integers(0, 199), max_size=60))
    @example([1] * 64, [63, 0, 0])
    @example([1, 0] * 32 + [1], [64, 1, 2])
    def test_matches_string_reference(self, bits, index_set):
        index_set = [i % len(bits) for i in index_set]
        want = int(pad_substring_reference(_bits_to_str_loop(bits),
                                           index_set), 2)
        assert restriction_int(np.array(bits, np.uint8), index_set) == want
        assert restriction_int(np.array(bits, np.uint8),
                               np.array(index_set, np.int64)) == want


class TestNDLF:
    def test_counts(self):
        assert sum(1 for _ in enumerate_ndlf(1)) == 1
        assert sum(1 for _ in enumerate_ndlf(2)) == 9
        assert sum(1 for _ in enumerate_ndlf(3)) == 49

    def test_unique(self):
        seen = {(b.a0, b.a1) for b in enumerate_ndlf(3)}
        assert len(seen) == 49

    def test_xor_is_the_only_l1_ndlf(self):
        betas = list(enumerate_ndlf(1))
        assert betas[0](0, 0) == 0
        assert betas[0](1, 0) == 1
        assert betas[0](1, 1) == 0

    def test_zero_mask_rejected(self):
        with pytest.raises(InputError):
            NDLF(0, 1, 2)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            next(enumerate_ndlf(17))

    def test_every_ndlf_two_balanced(self):
        for ell in (1, 2, 3):
            for beta in enumerate_ndlf(ell):
                assert is_two_balanced(beta.table())

    def test_constant_not_balanced(self):
        assert not is_two_balanced(np.zeros((4, 4), dtype=int))

    def test_and_not_balanced(self):
        s = np.arange(4)
        table = ((s[:, None] & 1) * (s[None, :] & 1))
        assert not is_two_balanced(table)


class TestComposition:
    def test_composed_strongly_two_universal(self):
        fam = compose_balanced(NDLF(1, 1, 1),
                               HashFamily(2, 1, "affine"),
                               HashFamily(2, 1, "affine"), verify=True)
        assert isinstance(fam, ComposedFamily)

    def test_spec_size_histogram(self):
        fam = compose_balanced(NDLF(2, 1, 2),
                               HashFamily(3, 2, "affine"),
                               HashFamily(3, 2, "affine"))
        assert fam.is_strongly_two_universal()

    def test_linear_inputs_rejected(self):
        with pytest.raises(InputError):
            compose_balanced(NDLF(1, 1, 1),
                             HashFamily(2, 1, "linear"),
                             HashFamily(2, 1, "affine"))

    def test_constant_combiner_rejected(self):
        with pytest.raises(InputError):
            compose_balanced(np.zeros((2, 2), dtype=int),
                             HashFamily(2, 1, "affine"),
                             HashFamily(2, 1, "affine"))

    def test_eval_matches_table(self):
        fam = compose_balanced(NDLF(1, 1, 1),
                               HashFamily(2, 1, "affine"),
                               HashFamily(2, 1, "affine"))
        table = fam.eval_table()
        for i in range(0, fam.size, 7):
            member = fam.member(i)
            for x0 in range(4):
                for x1 in range(4):
                    assert fam.eval(member, x0, x1) \
                        == table[i, (x0 << 2) | x1]


@st.composite
def _matvec_case(draw):
    """(seed, ell, a, b) with a, b bit vectors of one length m."""
    m = draw(st.integers(1, 200))
    bits = st.lists(st.integers(0, 1), min_size=m, max_size=m)
    return (draw(st.integers(0, 2 ** 32)), draw(st.integers(1, 70)),
            np.array(draw(bits), np.uint8), np.array(draw(bits), np.uint8))


def _edge_case(m, ell):
    rng = np.random.default_rng(m)
    return (m, ell, rng.integers(0, 2, m, dtype=np.uint8),
            rng.integers(0, 2, m, dtype=np.uint8))


def _matvec_one_shot(seed, ell, x_bits):
    """Reference: the whole l x words matrix in one draw, high parts then
    low bits."""
    words = (len(x_bits) + 63) // 64
    padded = np.zeros(words * 64, dtype=np.uint8)
    padded[:len(x_bits)] = x_bits
    x_packed = np.frombuffer(bits_to_int(padded).to_bytes(words * 8, "big"),
                             dtype=">u8").astype(np.uint64)
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 1 << 63, size=(ell, words), dtype=np.uint64)
    rows <<= np.uint64(1)
    rows |= rng.integers(0, 2, size=(ell, words), dtype=np.uint64)
    rows &= x_packed
    return parity_u64(np.bitwise_xor.reduce(rows, axis=1)).astype(np.uint8)


@st.composite
def _block_case(draw):
    """(seed, ell, x) with m in {1, 63, 64, 65, 130} and ell spanning the
    first row-block boundary of gf2_matvec_stream."""
    m = draw(st.sampled_from([1, 63, 64, 65, 130]))
    step = BLOCK_CELLS // ((m + 63) // 64)
    ell = draw(st.integers(1, 3) | st.integers(step - 2, step + 2)
               | st.integers(1, 2 * step + 1))
    x = np.array(draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)),
                 np.uint8)
    return draw(st.integers(0, 2 ** 32)), ell, x


@st.composite
def _stacked_case(draw):
    """(seed, ell, X): a _block_case vector and up to two more vectors of
    its length as the columns of an (m, k) array."""
    seed, ell, x = draw(_block_case())
    bits = st.lists(st.integers(0, 1), min_size=len(x), max_size=len(x))
    more = [np.array(draw(bits), np.uint8)
            for _ in range(draw(st.integers(0, 2)))]
    return seed, ell, np.stack([x] + more, axis=1)


class TestStreamedMatvec:
    @settings(max_examples=40, deadline=None)
    @given(_block_case())
    @example((3, 1, np.ones(1, np.uint8)))
    @example((4, BLOCK_CELLS + 1, np.ones(64, np.uint8)))
    @example((5, BLOCK_CELLS // 3 + 1, np.ones(130, np.uint8)))
    def test_matches_one_shot_draw(self, case):
        seed, ell, x = case
        assert np.array_equal(gf2_matvec_stream(seed, ell, x),
                              _matvec_one_shot(seed, ell, x))

    @settings(max_examples=20, deadline=None)
    @given(_stacked_case())
    @example((5, BLOCK_CELLS // 3 + 1,
              np.stack([np.ones(130, np.uint8),
                        np.arange(130, dtype=np.uint8) & 1], axis=1)))
    def test_stacked_columns_match_single_draws(self, case):
        # H.X from one draw of H: column j is H.x_j, however the rows block
        seed, ell, xs = case
        out = gf2_matvec_stream(seed, ell, xs)
        assert out.dtype == np.uint8 and out.shape == (ell, xs.shape[1])
        for x, col in zip(xs.T, out.T):
            assert np.array_equal(col, gf2_matvec_stream(seed, ell, x))
            assert np.array_equal(col, _matvec_one_shot(seed, ell, x))

    @given(_matvec_case())
    @example(_edge_case(63, 70))
    @example(_edge_case(64, 1))
    @example(_edge_case(65, 33))
    def test_is_a_gf2_linear_map(self, case):
        seed, ell, a, b = case

        def f(v):
            return gf2_matvec_stream(seed, ell, v)

        fa = f(a)
        assert fa.dtype == np.uint8 and fa.shape == (ell,)
        assert set(fa.tolist()) <= {0, 1}
        assert np.array_equal(f(a ^ b), fa ^ f(b))
        assert not f(np.zeros_like(a)).any()
        # f(a) is the XOR of the images of a's unit vectors
        unit = np.eye(len(a), dtype=np.uint8)
        want = np.zeros(ell, np.uint8)
        for i in np.nonzero(a)[0]:
            want ^= f(unit[i])
        assert np.array_equal(fa, want)

    def test_unreconciled_qkd_keys_match_one_shot_draws(self):
        # Bob's corrected string differs from Alice's, so one draw of the
        # matrix hashes both, and each key is that matrix times one string
        cfg = QkdConfig(alphabet="six-state", p=0.03, symbols=3000,
                        code=hamming_7_4(0.03))
        calls = []

        def spy(seed, ell, xs):
            calls.append((seed, ell, xs))
            return gf2_matvec_stream(seed, ell, xs)

        with mock.patch.object(qkd, "gf2_matvec_stream", spy):
            rec = run_qkd(cfg, 0)
        assert not rec["reconciled"] and rec["key_length"] > 0
        (seed, ell, xs), = calls
        assert ell == rec["key_length"] and xs.shape == (rec["sifted"], 2)
        # column 0 is Alice's sifted string, redrawn as run_qkd draws it
        rng = np.random.default_rng(0)
        theta_a, theta_b = rng.integers(0, 3, (2, 3000))
        x = rng.integers(0, 2, 3000, dtype=np.uint8)
        assert np.array_equal(xs[:, 0], x[theta_a == theta_b])
        key_a = _matvec_one_shot(seed, ell, xs[:, 0])
        key_b = _matvec_one_shot(seed, ell, xs[:, 1])
        assert rec["key_a"] == bits_to_str(key_a)
        assert not np.array_equal(key_a, key_b)
        assert rec["keys_equal"] is False

    def test_deterministic_and_linear(self):
        x = np.random.default_rng(0).integers(0, 2, 300, dtype=np.uint8)
        y = np.random.default_rng(1).integers(0, 2, 300, dtype=np.uint8)
        a = gf2_matvec_stream(7, 16, x)
        assert np.array_equal(a, gf2_matvec_stream(7, 16, x))
        # GF(2) linearity
        xy = gf2_matvec_stream(7, 16, x ^ y)
        b = gf2_matvec_stream(7, 16, y)
        assert np.array_equal(a ^ b, xy)
