import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bellkit import inequality as ineq
from bellkit import kernels, lhv
from bellkit.errors import BellkitError, CapExceededError
from conftest import signs_of_code

CHSH = ineq.CoefficientVector(2, (1, 1, 1, -1))
MABK = ineq.CoefficientVector(3, (1, 0, 0, -1, 0, 1, 1, 0))


def all_strategies(n):
    for code in range(1 << (2 * n)):
        yield lhv.DeterministicStrategy.decode(n, code)


def brute_max(v):
    return max(abs(lhv.strategy_value(v, s)) for s in all_strategies(v.n_sites))


def scan_max(v):
    """The vectorized scan over all 2^(2N-1) strategies with A_1(0) = +1."""
    coeffs = np.array(v.coeffs, dtype=np.int64)
    return int(kernels.lhv_max_range(coeffs, v.n_sites, 0, 1 << (v.n_sites - 1)))


def near_int64_limit(rng, n):
    """Random coefficients whose |sum| total is exactly 2^63 - 1."""
    length = 1 << n
    limit = (1 << 63) - 1
    coeffs = [int(x) for x in rng.integers(-(limit // length), limit // length,
                                           size=length, endpoint=True)]
    coeffs[0] = limit - sum(abs(c) for c in coeffs[1:])
    # an odd |sum| total makes the sum odd, so never zero
    return coeffs


class TestStrategyType:
    def test_validation(self):
        with pytest.raises(BellkitError):
            lhv.DeterministicStrategy(2, ((1, 1),))
        with pytest.raises(BellkitError):
            lhv.DeterministicStrategy(1, ((1, 0),))

    def test_values_stored_as_int(self):
        # numpy ints were stored as given, and 1.0 passed the +-1 check
        s = lhv.DeterministicStrategy(2, ((np.int64(1), np.int8(-1)), [1, True]))
        assert s == lhv.DeterministicStrategy(2, ((1, -1), (1, 1)))
        assert all(type(x) is int for pair in s.values for x in pair)
        for bad in (1.0, "1", None):
            with pytest.raises(BellkitError, match="strategy values must be integers"):
                lhv.DeterministicStrategy(1, ((bad, 1),))

    def test_values_not_a_sequence(self):
        # len(5) raised a bare TypeError
        with pytest.raises(BellkitError,
                           match="^strategy values must be a sequence of pairs, got int$"):
            lhv.DeterministicStrategy(1, 5)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_encode_decode_round_trip(self, n):
        for code in range(1 << (2 * n)):
            s = lhv.DeterministicStrategy.decode(n, code)
            assert s.encode() == code

    def test_code_range(self):
        with pytest.raises(BellkitError):
            lhv.DeterministicStrategy.decode(1, 16)

    def test_site_count_cap(self):
        # checked before 1 << (2 * n_sites) is formed
        with pytest.raises(CapExceededError,
                           match=f"strategy codes capped at 14 sites, got {10**20}"):
            lhv.DeterministicStrategy.decode(10**20, 0)

    @pytest.mark.parametrize("n", [-1, 0])
    def test_site_count_below_one(self, n):
        with pytest.raises(BellkitError, match="site count must be at least 1"):
            lhv.DeterministicStrategy.decode(n, 0)


class TestStrategyValue:
    def test_all_plus_gives_coefficient_sum(self):
        s = lhv.DeterministicStrategy(2, ((1, 1), (1, 1)))
        assert lhv.strategy_value(CHSH, s) == 2

    def test_mixed_assignment(self):
        s = lhv.DeterministicStrategy(2, ((1, 1), (1, -1)))
        assert lhv.strategy_value(CHSH, s) == 1 + (-1) + 1 - (-1)

    def test_three_site_all_plus(self):
        s = lhv.DeterministicStrategy(3, ((1, 1), (1, 1), (1, 1)))
        assert lhv.strategy_value(MABK, s) == 2

    def test_size_mismatch(self):
        s = lhv.DeterministicStrategy(1, ((1, 1),))
        with pytest.raises(BellkitError):
            lhv.strategy_value(CHSH, s)


class TestMaxLhv:
    def test_chsh_bound(self):
        assert lhv.max_lhv(CHSH) == 2

    def test_mabk_bound(self):
        assert lhv.max_lhv(MABK) == 2

    def test_mixed_three_site_bound(self):
        assert lhv.max_lhv((3, 1, 1, -1, -1, 1, 1, -1)) == 4

    def test_single_expectation(self):
        assert lhv.max_lhv((1, 0, 0, 0)) == 1

    def test_matches_plain_strategy_scan_exhaustively(self):
        for code in range(16):
            v = ineq.from_sign_vector(signs_of_code(code, 2))
            assert lhv.max_lhv(v) == brute_max(v)

    def test_matches_plain_strategy_scan_sampled(self):
        rng = np.random.default_rng(3)
        for code in rng.integers(0, 256, size=12).tolist():
            v = ineq.from_sign_vector(signs_of_code(code, 3))
            assert lhv.max_lhv(v) == brute_max(v)

    def test_random_integer_vectors_match_scan(self):
        rng = np.random.default_rng(4)
        for _ in range(12):
            coeffs = rng.integers(-5, 6, size=8).tolist()
            if sum(coeffs) == 0:
                coeffs[0] += 1
            v = ineq.CoefficientVector.from_ints(coeffs)
            assert lhv.max_lhv(v) == brute_max(v)

    def test_jobs_do_not_change_result(self):
        v = ineq.CoefficientVector.from_ints([3, 1, 1, -1, -1, 1, 1, -1])
        assert lhv.max_lhv(v, jobs=4) == 4

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_scan_oracle_on_random_integers(self, n):
        rng = np.random.default_rng([n, 63])
        for scale in (1, 6, 1 << 20, 1 << 50):
            for _ in range(6):
                coeffs = rng.integers(-scale, scale, size=1 << n,
                                      endpoint=True).tolist()
                if sum(coeffs) == 0:
                    coeffs[0] += 1
                v = ineq.CoefficientVector.from_ints(coeffs)
                assert lhv.max_lhv(v) == scan_max(v)
        for _ in range(3):
            v = ineq.CoefficientVector.from_ints(near_int64_limit(rng, n))
            assert sum(abs(c) for c in v.coeffs) == (1 << 63) - 1
            assert lhv.max_lhv(v) == scan_max(v)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_scan_oracle_on_every_member(self, n):
        for _, v in ineq.enumerate_inequalities(n):
            assert lhv.max_lhv(v) == scan_max(v) == 1 << n

    def test_fourteen_site_member_fast_and_small(self):
        # the scan would take hours here: 2^27 strategies x 2^14 terms
        code = int.from_bytes(np.random.default_rng(14).bytes(1 << 11), "little")
        v = ineq.from_sign_vector(signs_of_code(code, 14))
        start = time.perf_counter()
        assert lhv.max_lhv(v) == 1 << 14
        assert time.perf_counter() - start < 1.0
        tracemalloc.start()
        try:
            lhv.max_lhv(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 << 20

    def test_never_below_coefficient_sum(self):
        # the all-plus strategy already attains |sum b_k|
        rng = np.random.default_rng(5)
        for _ in range(20):
            coeffs = rng.integers(-4, 5, size=4).tolist()
            if sum(coeffs) == 0:
                coeffs[0] += 1
            v = ineq.CoefficientVector.from_ints(coeffs)
            assert lhv.max_lhv(v) >= ineq.bound(v)

    def test_int64_boundary_is_exact(self):
        v = ineq.CoefficientVector.from_ints([1 << 62, (1 << 62) - 1])
        assert lhv.max_lhv(v) == brute_max(v) == scan_max(v) == (1 << 63) - 1

    @pytest.mark.parametrize("coeffs", [
        [1 << 62, 1 << 62],
        [(1 << 63) - 1, 1, 1, -1],
        [99999999999999999999, 1],
    ])
    def test_sum_beyond_int64_rejected(self, coeffs):
        with pytest.raises(BellkitError, match="2\\^63"):
            lhv.max_lhv(coeffs)

    def test_cap(self):
        coeffs = (1,) + (0,) * ((1 << 15) - 1)
        v = ineq.CoefficientVector(15, coeffs)
        with pytest.raises(CapExceededError):
            lhv.max_lhv(v)


class TestTightness:
    def test_all_two_site_members_tight_at_four(self):
        for code in range(16):
            v = ineq.from_sign_vector(signs_of_code(code, 2))
            assert lhv.is_tight(v, 4)

    def test_mixed_example_tight(self):
        assert lhv.is_tight(ineq.CoefficientVector.from_ints(
            [3, 1, 1, -1, -1, 1, 1, -1]), 4)

    def test_wrong_claim(self):
        assert not lhv.is_tight(ineq.CoefficientVector(1, (1, 1)), 3)

    def test_invalid_claim_detected(self):
        # |sum| is 1 but a strategy attains 3: not a bound-1 inequality
        v = ineq.CoefficientVector.from_ints([2, -1, 0, 0])
        assert lhv.max_lhv(v) == 3
        assert not lhv.is_tight(v, ineq.bound(v))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_standard_forms_tight_at_their_bound(self, n):
        for code in range(1 << (1 << n)):
            sf = ineq.standard_form(
                ineq.from_sign_vector(signs_of_code(code, n)))
            assert lhv.max_lhv(sf) == ineq.bound(sf)

    def test_four_site_soundness_sampled(self):
        rng = np.random.default_rng(11)
        codes = rng.integers(0, 1 << 16, size=10_000)
        signs = 1 - 2 * ((codes[:, None] >> np.arange(16)) & 1)
        for row in signs:
            v = ineq.from_sign_vector(row)
            assert lhv.max_lhv(v) == 16


class TestSymmetryInvariance:
    def test_site_sign_flip_negates_value(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            code = int(rng.integers(0, 256))
            v = ineq.from_sign_vector(signs_of_code(code, 3))
            strategy_code = int(rng.integers(0, 64))
            s = lhv.DeterministicStrategy.decode(3, strategy_code)
            site = int(rng.integers(0, 3))
            flipped_values = list(s.values)
            a0, a1 = flipped_values[site]
            flipped_values[site] = (-a0, -a1)
            flipped = lhv.DeterministicStrategy(3, tuple(flipped_values))
            assert lhv.strategy_value(v, flipped) == -lhv.strategy_value(v, s)

    def test_max_invariant_under_equivalence_transforms(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            code = int(rng.integers(0, 256))
            v = ineq.from_sign_vector(signs_of_code(code, 3))
            reference = lhv.max_lhv(v)
            for member in ineq.symmetry_orbit(v):
                assert lhv.max_lhv(member) == reference


class TestSinglet:
    def test_table_values(self):
        setup = lhv.SingletSetup()
        for i in range(3):
            for j in range(3):
                expected = 1.0 if i == j else -0.5
                assert lhv.singlet_expectation(setup, i, j) == pytest.approx(
                    expected, abs=1e-12)

    def test_table_helper_matches_pointwise(self):
        table = lhv.expectation_table()
        setup = lhv.SingletSetup()
        for i in range(3):
            for j in range(3):
                assert table[i, j] == lhv.singlet_expectation(setup, i, j)

    def test_index_validation(self):
        with pytest.raises(BellkitError):
            lhv.singlet_expectation(lhv.SingletSetup(), 3, 0)

    @pytest.mark.parametrize("phi", [float("nan"), float("inf"), float("-inf")])
    def test_table_rejects_non_finite_tilt(self, phi):
        with pytest.raises(BellkitError, match="finite"):
            lhv.expectation_table(phi=phi)

    @pytest.mark.parametrize("phi", [10**400, -(10**400)], ids=["10^400", "-10^400"])
    def test_rejects_tilt_past_float_range(self, phi):
        with pytest.raises(BellkitError, match="phi is too large for a float"):
            lhv.expectation_table(phi=phi)
        with pytest.raises(BellkitError, match="phi is too large for a float"):
            lhv.tilt_identity(phi)

    @pytest.mark.parametrize("phi", ["x", None], ids=["text", "None"])
    def test_rejects_tilt_that_is_not_a_number(self, phi):
        # float("x") raised a bare ValueError, float(None) a TypeError
        for call in (lhv.expectation_table, lhv.tilt_identity):
            with pytest.raises(BellkitError, match=f"^phi must be a real number, got {phi!r}$"):
                call(phi=phi)

    @pytest.mark.parametrize("phi", [float("nan"), float("inf"), float("-inf")])
    def test_identity_rejects_non_finite_tilt(self, phi):
        with pytest.raises(BellkitError, match="finite"):
            lhv.tilt_identity(phi)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_tilt_identity(self, phi):
        assert abs(lhv.tilt_identity(phi)) < 1e-12

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_tilted_table_keeps_zero_mean(self, phi):
        table = lhv.expectation_table(phi=phi)
        assert abs(table.mean()) < 1e-12
