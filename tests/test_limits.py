from fractions import Fraction

import numpy as np
import pytest

from bellkit import analysis, coefficients, hadamard, inequality as ineq, lhv
from bellkit import polynomial as poly
from bellkit.errors import BellkitError
from bellkit.limits import check_sites


class TestSiteCountType:
    @pytest.mark.parametrize("call", [
        lambda: analysis.classify(2.0),
        lambda: hadamard.build(2.0),
        lambda: list(ineq.enumerate_inequalities(2.0)),
        lambda: analysis.binomial_identity_sides(2.0),
        lambda: analysis.max_b0_family(3.0, 0),
        lambda: hadamard.build("2"),
    ], ids=["classify", "build", "enumerate_inequalities", "binomial_identity_sides",
            "max_b0_family", "build-text"])
    def test_non_integer_is_rejected(self, call):
        # 2.0 passed the cap and then raised TypeError at 1 << n_sites
        with pytest.raises(BellkitError, match="site count must be an integer, got"):
            call()

    @pytest.mark.parametrize("n", [np.int8(3), np.int64(3), np.uint16(3), True],
                             ids=["int8", "int64", "uint16", "bool"])
    def test_integer_types_pass(self, n):
        assert check_sites("test", n, 5, least=1) == int(n)
        assert type(check_sites("test", n, 5, least=1)) is int


# (site count, build): one record built from a site count
RECORDS = {
    "BellPolynomial": (2, lambda n: poly.BellPolynomial(n, (1, 1, 1, 1))),
    "CoefficientVector": (2, lambda n: ineq.CoefficientVector(n, (1, 1, 1, -1))),
    "NormalizedBellPolynomial": (2, lambda n: poly.NormalizedBellPolynomial(
        n, (Fraction(1, 2),) * 3 + (Fraction(-1, 2),))),
    "DeterministicStrategy": (2, lambda n: lhv.DeterministicStrategy(n, ((1, 1), (1, -1)))),
    "bell_poly": (7, lambda n: poly.bell_poly(poly.UVIndex(n, 1, 2))),
    "summand_poly": (3, lambda n: poly.summand_poly(n, 1)),
    "max_b0_family": (3, lambda n: analysis.max_b0_family(n, 0)[0]),
    "bowtie": (1, lambda n: poly.bowtie(poly.BellPolynomial(n, (1, 1)),
                                        poly.BellPolynomial(n, (2, 0)))),
}


class TestRecordSiteCount:
    @pytest.mark.parametrize("n, build", RECORDS.values(), ids=RECORDS)
    def test_stored_as_int(self, n, build):
        # 2.0 was stored, and a numpy site count reached n_sites and,
        # through 1 << n_sites, half the coefficients of bell_poly
        with pytest.raises(BellkitError, match="site count must be an integer, got"):
            build(float(n))
        want = build(n)
        for as_numpy in (np.int64(n), np.uint8(n)):
            record = build(as_numpy)
            assert record == want and type(record.n_sites) is int
            assert ([type(c) for c in getattr(record, "coeffs", ())]
                    == [type(c) for c in getattr(want, "coeffs", ())])


# (call of one integer argument, its name in errors, stop): every index-taking
# call, with the stop of its range; None where the range has no upper end or
# the argument is a site count
INDEX_CALLS = {
    "zero_probability": (lambda k: analysis.zero_probability(3, k), "position", 8),
    "summand_poly": (lambda k: poly.summand_poly(3, k), "summand index", 4),
    "column_poly": (lambda k: poly.column_poly(3, k), "column index", 8),
    "sign_vector_from_code": (lambda k: ineq.sign_vector_from_code(k, 2), "code", 16),
    "decode": (lambda k: lhv.DeterministicStrategy.decode(2, k), "strategy code", 16),
    "gf2_dot": (lambda k: hadamard.gf2_dot(k, 3), "index", None),
    "entry": (lambda k: hadamard.entry(3, k), "index", None),
    "HadamardMatrix.entry": (lambda k: hadamard.build(2).entry(k, 3), "row", 4),
    "HadamardMatrix.entry-column": (lambda k: hadamard.build(2).entry(3, k), "column", 4),
    "setting_digits": (lambda k: coefficients.setting_digits(k, 2), "index", 4),
    "setting_digits-sites": (lambda k: coefficients.setting_digits(1, k), "site count", None),
    "max_b0_pair": (analysis.max_b0_pair, "pair index", None),
    "singlet_expectation": (lambda k: lhv.singlet_expectation(lhv.SingletSetup(), k, 0),
                            "angle index", 3),
    "singlet_expectation-eta": (lambda k: lhv.singlet_expectation(lhv.SingletSetup(), 0, k),
                                "angle index", 3),
}
RANGED_CALLS = {name: row for name, row in INDEX_CALLS.items() if row[2] is not None}


class TestIndexType:
    @pytest.mark.parametrize("call, what, stop", INDEX_CALLS.values(), ids=INDEX_CALLS)
    def test_non_integer_is_rejected(self, call, what, stop):
        # zero_probability(3, 1.5) answered for a position that does not
        # exist; the other calls raised a bare TypeError
        for bad in (1.5, "1"):
            with pytest.raises(BellkitError, match=f"^{what} must be an integer, got"):
                call(bad)
        assert call(np.int64(1)) == call(1)

    @pytest.mark.parametrize("call, what, stop", RANGED_CALLS.values(), ids=RANGED_CALLS)
    def test_out_of_range_is_rejected(self, call, what, stop):
        # limits.check_index: one rule and one message for every index
        for bad in (-1, stop):
            with pytest.raises(BellkitError,
                               match=rf"^{what} {bad} out of range \[0, {stop}\)$"):
                call(bad)
        assert call(stop - 1) is not None

    def test_huge_stop_is_written_as_a_power(self):
        # in decimal, 2^(2^14) has more digits than str() prints: a ValueError
        with pytest.raises(BellkitError, match=r"^code -1 out of range \[0, 2\^16384\)$"):
            ineq.sign_vector_from_code(-1, 14)

    @pytest.mark.parametrize("k, n", [(-1, 2), (4, 2), (1, 0), (1 << 14, 14)])
    def test_setting_digits_index_out_of_range(self, k, n):
        # -1 and 4 gave (1, 1) and (0, 0) at two sites
        with pytest.raises(BellkitError, match=rf"^index {k} out of range \[0, {1 << n}\)$"):
            coefficients.setting_digits(k, n)
        assert coefficients.setting_digits((1 << n) - 1, n) == (1,) * n

    @pytest.mark.parametrize("n, error", [(-1, "site count must be at least 0"),
                                          (15, "setting digits capped at 14 sites, got 15")],
                             ids=["negative", "past-cap"])
    def test_setting_digits_site_count_out_of_range(self, n, error):
        # -1 gave () and 15 a tuple of 15 digits; 10^20 would not return
        with pytest.raises(BellkitError, match=f"^{error}$"):
            coefficients.setting_digits(0, n)

    def test_negative_pair_index(self):
        # a negative shift count: ValueError
        with pytest.raises(BellkitError, match="pair index must be nonnegative, got -3"):
            analysis.max_b0_pair(-3)


class TestCoefficientType:
    @pytest.mark.parametrize("call", [
        poly.BellPolynomial.from_ints,
        ineq.CoefficientVector.from_ints,
        lhv.max_lhv,
    ], ids=["BellPolynomial.from_ints", "CoefficientVector.from_ints", "max_lhv"])
    def test_non_integer_is_rejected(self, call):
        # from_ints truncated with int(): [1.5, 1, 1, -1] was (1, 1, 1, -1)
        for bad in ([1.5, 1, 1, -1], [1.0, 1, 1, -1], ["1", 1, 1, -1], [Fraction(1), 1]):
            with pytest.raises(BellkitError, match="coefficients must be integers"):
                call(bad)
        want = call([3, 1, 1, -1])
        got = call(np.array([3, 1, 1, -1]))
        assert got == want
        assert [type(c) for c in getattr(got, "coeffs", ())] == [int] * len(
            getattr(want, "coeffs", ()))

    @pytest.mark.parametrize("call, what", [
        (poly.BellPolynomial.from_ints, "coefficients"),
        (ineq.CoefficientVector.from_ints, "coefficients"),
        (lhv.max_lhv, "coefficients"),
        (lambda pair: lhv.DeterministicStrategy(1, (pair,)), "strategy values"),
    ], ids=["BellPolynomial.from_ints", "CoefficientVector.from_ints", "max_lhv",
            "DeterministicStrategy"])
    def test_non_sequence_is_rejected(self, call, what):
        # each said "... must be integers", as for a sequence that holds 1.5
        with pytest.raises(BellkitError,
                           match=f"^{what} must be a sequence of integers, got int$"):
            call(5)
