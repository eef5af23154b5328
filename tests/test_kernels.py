import tracemalloc

import numpy as np
import pytest

from bellkit import kernels
from bellkit.errors import BellkitError
from conftest import formula_matrix, popcount_parity


class TestNumpyPath:
    def test_signs_decode(self):
        out = kernels.signs_from_codes(np.array([0b0110], np.int64), 4)
        assert out.tolist() == [[1, -1, -1, 1]]

    def test_wht_matches_dense(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 5):
            dense = formula_matrix(n)
            signs = rng.choice([-1, 1], size=(40, 1 << n)).astype(np.int64)
            expected = signs @ dense.T
            got = kernels.wht_rows(signs.copy())
            assert (got == expected).all()

    def test_classify_counts_by_hand(self):
        codes = np.arange(16, dtype=np.int64)
        zero, hist = kernels.classify_batch(codes, 4)
        dense = formula_matrix(2)
        transforms = [
            dense @ np.array([1 - 2 * ((c >> j) & 1) for j in range(4)])
            for c in range(16)
        ]
        expected_zero = [sum(t[k] == 0 for t in transforms) for k in range(4)]
        assert zero.tolist() == expected_zero
        assert hist.sum() == 16
        assert hist[1] == sum(np.count_nonzero(t) == 1 for t in transforms)

    def test_lhv_range_split_agrees(self):
        coeffs = np.array([3, 1, 1, -1, -1, 1, 1, -1], np.int64)
        full = kernels.lhv_max_range(coeffs, 3, 0, 4)
        split = max(
            kernels.lhv_max_range(coeffs, 3, 0, 2),
            kernels.lhv_max_range(coeffs, 3, 2, 4),
        )
        assert full == split == 4


def dense_census(codes, n):
    """classify_batch's two arrays via the dense formula-matrix product."""
    order = 1 << n
    signs = 1 - 2 * ((codes[:, None] >> np.arange(order)) & 1)
    zero_mask = signs @ formula_matrix(n).T == 0
    terms = order - zero_mask.sum(axis=1)
    return zero_mask.sum(axis=0), np.bincount(terms, minlength=order + 1)


class TestClassifyBatchOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_dense_product(self, n):
        order = 1 << n
        # +-rows of the matrix are the 2^(N+1) one-term codes
        row_codes = ((formula_matrix(n) < 0) << np.arange(order)).sum(axis=1)
        # the extreme codes: 0, the top bit alone (2^31 at length 32), all ones
        edges = [0, 1 << (order - 1), (1 << order) - 1]
        codes = np.concatenate([
            np.random.default_rng(n).integers(0, 1 << order, size=3000),
            row_codes,
            row_codes ^ ((1 << order) - 1),
            edges,
        ]).astype(np.int64)
        expected = dense_census(codes, n)
        assert expected[1][1] >= 2 * order
        # int64 draws and uint32 codes give the same counts
        for dtype in (np.int64, np.uint32):
            got = kernels.classify_batch(codes.astype(dtype), order)
            for g, e in zip(got, expected):
                assert g.dtype == np.int64
                assert g.tolist() == e.tolist()

    @pytest.mark.parametrize("length", [64, 128])
    def test_length_past_uint32_raises(self, length):
        # uint32 codes hold 32 signs; a longer row must not wrap silently
        with pytest.raises(BellkitError, match=f"at most 32 signs, got length {length}"):
            kernels.classify_batch(np.arange(4, dtype=np.int64), length)

    def test_peak_memory_per_code(self):
        size = 1 << 16
        codes = np.random.default_rng(0).integers(0, 1 << 32, size=size)
        tracemalloc.start()
        try:
            kernels.classify_batch(codes, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a uint32 copy of the int64 codes, uint32 and uint8 scratch: about 11 bytes per code
        assert peak <= 24 * size

    def test_uint32_codes_are_not_copied(self):
        # the census draws uint32 codes: the kernel adds only its 7 bytes of
        # scratch per code (bincount's intp copy of the terms made it 13)
        size = 1 << 14
        codes = np.random.default_rng(0).integers(0, 1 << 32, size=size, dtype=np.uint32)
        tracemalloc.start()
        try:
            kernels.classify_batch(codes, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * size


class TestSylvesterRows:
    """The popcount row builder against the butterfly and the dense product."""

    @staticmethod
    def check(codes, n):
        order = 1 << n
        codes = np.asarray(codes, dtype=np.int64)
        rows = kernels.sylvester_rows(codes, order)
        assert rows.dtype == np.int64
        assert np.array_equal(rows, kernels.wht_rows(kernels.signs_from_codes(codes, order)))
        signs = 1 - 2 * ((codes[:, None] >> np.arange(order)) & 1)
        # H is symmetric, so row c of signs @ H is H @ c
        assert np.array_equal(rows, signs @ formula_matrix(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_code(self, n):
        self.check(np.arange(1 << (1 << n)), n)

    def test_first_five_site_batches(self):
        self.check(np.arange(3 * 1024), 5)

    def test_last_five_site_batch(self):
        self.check(np.arange((1 << 32) - 1024, 1 << 32), 5)


class TestTextKernels:
    """Byte-matrix rendering against plain str operations."""

    def test_decimal_digits_match_str(self):
        values = [0, *(10 ** k + d for k in range(1, 10) for d in (-1, 0)), (1 << 32) - 1]
        digits = kernels.decimal_digits(np.array(values))
        assert digits.shape == (len(values), 10)
        assert kernels.join_rows([digits, "\n"]).splitlines() == [str(v) for v in values]

    def test_lookup_and_join(self):
        texts = ["", "a", "−12", "E(1,2)"]
        table = kernels.token_table(texts)
        assert table.dtype == np.uint8 and table.shape == (4, 6)
        index = np.array([[3, 0, 2], [1, 1, 0], [0, 0, 0]])
        text = kernels.join_rows(["|", kernels.lookup(table, index), "| ≤ ", "\n"])
        assert text == "".join("|" + "".join(texts[i] for i in row) + "| ≤ \n"
                               for row in index.tolist())


class TestParityHelper:
    def test_popcount_parity_reference(self):
        # sanity on the test helper itself
        for x in range(256):
            assert popcount_parity(x) == bin(x).count("1") % 2
