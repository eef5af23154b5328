import numpy as np

from bellkit import kernels
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
        zero, hist, one_pos = kernels.classify_batch(codes, 4)
        dense = formula_matrix(2)
        transforms = [
            dense @ np.array([1 - 2 * ((c >> j) & 1) for j in range(4)])
            for c in range(16)
        ]
        expected_zero = [sum(t[k] == 0 for t in transforms) for k in range(4)]
        assert zero.tolist() == expected_zero
        assert hist.sum() == 16
        assert one_pos.sum() == hist[1]

    def test_lhv_range_split_agrees(self):
        coeffs = np.array([3, 1, 1, -1, -1, 1, 1, -1], np.int64)
        full = kernels.lhv_max_range(coeffs, 3, 0, 4)
        split = max(
            kernels.lhv_max_range(coeffs, 3, 0, 2),
            kernels.lhv_max_range(coeffs, 3, 2, 4),
        )
        assert full == split == 4


class TestParityHelper:
    def test_popcount_parity_reference(self):
        # sanity on the test helper itself
        for x in range(256):
            assert popcount_parity(x) == bin(x).count("1") % 2
