import numpy as np
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from bellkit import hadamard, inequality, limits
from bellkit.errors import BellkitError, CapExceededError
from conftest import formula_matrix

H4_DISPLAY = np.array(
    [[1, 1, 1, 1],
     [1, -1, 1, -1],
     [1, 1, -1, -1],
     [1, -1, -1, 1]]
)


class TestGf2Dot:
    def test_zero_row(self):
        for k in range(64):
            assert hadamard.gf2_dot(0, k) == 0

    def test_popcount_parity_of_and(self):
        assert hadamard.gf2_dot(3, 3) == 0
        assert hadamard.gf2_dot(3, 1) == 1

    def test_matches_h4_display(self):
        assert hadamard.gf2_dot(2, 3) == 1
        assert hadamard.entry(2, 3) == -1
        assert hadamard.entry(2, 3) == H4_DISPLAY[2, 3]

    def test_negative_rejected(self):
        with pytest.raises(BellkitError):
            hadamard.gf2_dot(-1, 2)

    @given(st.integers(0, 2**20), st.integers(0, 2**20))
    def test_symmetric(self, j, k):
        assert hadamard.gf2_dot(j, k) == hadamard.gf2_dot(k, j)

    @given(st.integers(0, 2**20), st.integers(0, 2**20), st.integers(0, 2**20))
    def test_linear_in_first_argument(self, a, b, k):
        # XOR in an argument adds the products over GF(2)
        assert hadamard.gf2_dot(a ^ b, k) == (
            hadamard.gf2_dot(a, k) ^ hadamard.gf2_dot(b, k)
        )


class TestEntry:
    def test_first_row_normalized(self):
        assert all(hadamard.entry(0, k) == 1 for k in range(32))
        assert all(hadamard.entry(j, 0) == 1 for j in range(32))

    def test_order_two_corner(self):
        assert hadamard.entry(1, 1) == -1

    def test_order_four_corner(self):
        assert hadamard.entry(3, 3) == 1

    def test_bounds_checked_on_matrix(self):
        h = hadamard.build(2)
        assert h.entry(2, 3) == -1
        with pytest.raises(BellkitError):
            h.entry(4, 0)
        with pytest.raises(BellkitError):
            h.entry(0, -1)


class TestParity:
    def test_matches_gf2_dot(self):
        j = np.arange(64)
        got = hadamard.parity(j[:, None], j)
        assert got.dtype == np.uint8
        assert got.tolist() == [[hadamard.gf2_dot(a, b) for b in range(64)]
                                for a in range(64)]


class TestBuild:
    @pytest.mark.parametrize("batch_cells", [1, 100, 1 << 16])
    def test_batches_match_formula_matrix(self, batch_cells, monkeypatch):
        # one row per batch, a short last batch, and one batch for the matrix
        monkeypatch.setattr(limits, "OUTPUT_BATCH_CELLS", batch_cells)
        h = hadamard.build(5)
        assert h.entries.dtype == np.int8
        assert (h.entries == formula_matrix(5)).all()

    def test_order_one(self):
        h = hadamard.build(0)
        assert h.order == 1
        assert h.entries.tolist() == [[1]]

    def test_order_four_display(self):
        assert (hadamard.build(2).entries == H4_DISPLAY).all()

    def test_recursion_matches_entry_formula(self):
        h = hadamard.build(3)
        for j in range(8):
            for k in range(8):
                assert h.entries[j, k] == hadamard.entry(j, k)

    @pytest.mark.parametrize("n", range(7))
    def test_invariants(self, n):
        h = hadamard.build(n)
        e = h.entries.astype(np.int64)
        order = h.order
        assert set(np.unique(e)) <= {-1, 1}
        assert (e[0] == 1).all() and (e[:, 0] == 1).all()
        assert (e == e.T).all()
        assert (e @ e.T == order * np.eye(order, dtype=np.int64)).all()
        assert (e == formula_matrix(n)).all()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_kronecker_power(self, n):
        h2 = hadamard.build(1)
        power = hadamard.build(0)
        for _ in range(n):
            power = hadamard.kronecker(h2, power)
        assert (hadamard.build(n).entries == power.entries).all()

    def test_cap(self):
        with pytest.raises(CapExceededError):
            hadamard.build(14)
        with pytest.raises(BellkitError, match="site count must be at least 0"):
            hadamard.build(-1)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_maximal_determinant(self, n):
        # exact integer determinant; |det| = order^(order/2)
        e = hadamard.build(n).entries
        det = sympy.Matrix(e.tolist()).det()
        order = 1 << n
        assert abs(det) == sympy.Integer(order) ** sympy.Rational(order, 2)


class TestKronecker:
    def test_h2_squared_is_h4(self):
        h2 = hadamard.build(1)
        assert (hadamard.kronecker(h2, h2).entries == H4_DISPLAY).all()

    def test_identity_factor(self):
        one = hadamard.build(0)
        h8 = hadamard.build(3)
        assert (hadamard.kronecker(one, h8).entries == h8.entries).all()

    def test_h2_times_h4(self):
        h = hadamard.kronecker(hadamard.build(1), hadamard.build(2))
        assert (h.entries == hadamard.build(3).entries).all()

    def test_result_cap(self):
        h = hadamard.build(7)
        with pytest.raises(CapExceededError,
                           match="Kronecker product capped at 13 sites, got 14"):
            hadamard.kronecker(h, h)


class TestApply:
    """H @ c for a sign vector c: ``inequality.from_sign_vector`` against ``build``."""

    def test_worked_example(self):
        assert inequality.from_sign_vector((-1, 1, 1, 1)).coeffs == (2, -2, -2, -2)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_all_plus_gives_column_sums(self, n):
        h = hadamard.build(n)
        expected = (1 << n,) + (0,) * (h.order - 1)
        assert inequality.from_sign_vector([1] * h.order).coeffs == expected

    @pytest.mark.parametrize("n", range(1, 6))
    def test_row_input_peaks_at_row_index(self, n):
        h = hadamard.build(n)
        for k in range(h.order):
            expected = [0] * h.order
            expected[k] = h.order
            assert inequality.from_sign_vector(h.entries[k]).coeffs == tuple(expected)

    def test_non_sign_entry(self):
        with pytest.raises(BellkitError):
            inequality.from_sign_vector([1, 2])

    def test_butterfly_matches_dense_product(self):
        # 100 seeded random sign vectors at each size, 1 through 10 sites
        rng = np.random.default_rng(42)
        for n in range(1, 11):
            h = hadamard.build(n)
            dense = h.entries.astype(np.int64)
            signs = rng.choice([-1, 1], size=(100, h.order)).astype(np.int64)
            expected = signs @ dense.T
            for row, want in zip(signs, expected):
                assert inequality.from_sign_vector(row).coeffs == tuple(want.tolist())
