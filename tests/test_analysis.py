import dataclasses
import math
import threading
import time
from fractions import Fraction

import numpy as np
import pytest

from bellkit import analysis, inequality as ineq, kernels, lhv, limits
from bellkit import polynomial as poly
from bellkit.errors import BellkitError, CapExceededError
from bellkit.limits import SAMPLE_MAX_SIZE
from conftest import formula_matrix, read_golden


class TestTermCount:
    def test_full_term_chsh(self):
        assert analysis.term_count((1, 1, 1, -1)) == 4

    def test_trivial(self):
        assert analysis.term_count((2, 0, 0, 0)) == 1

    def test_eight_terms(self):
        assert analysis.term_count((3, 1, 1, -1, -1, 1, 1, -1)) == 8


def reference_census(n):
    """Classification via a dense matrix product, no package kernels."""
    order = 1 << n
    dense = formula_matrix(n)
    codes = np.arange(1 << order, dtype=np.int64)
    signs = 1 - 2 * ((codes[:, None] >> np.arange(order)) & 1)
    transforms = signs @ dense.T
    zero_mask = transforms == 0
    terms = order - zero_mask.sum(axis=1)
    hist = np.bincount(terms, minlength=order + 1)
    return zero_mask.sum(axis=0), hist


class TestClassifyExhaustive:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_dense_reference(self, n):
        report = analysis.classify(n)
        zero_ref, hist_ref = reference_census(n)
        assert report.total == 1 << (1 << n)
        assert list(report.zero_counts) == zero_ref.tolist()
        assert list(report.histogram) == hist_ref.tolist()

    def test_known_counts(self):
        assert analysis.classify(1).histogram[1] == 4
        r2 = analysis.classify(2)
        assert (r2.total, r2.full_term, r2.trivial_classes) == (16, 8, 4)
        r3 = analysis.classify(3)
        assert (r3.total, r3.full_term, r3.trivial_classes) == (256, 128, 8)

    def test_four_site_fraction_exceeds_half(self):
        # exactly-half stops here: 33664 of 65536 members are full-term
        report = analysis.classify(4)
        assert report.full_term == 33664
        assert report.trivial_classes == 16
        assert 2 * report.full_term > report.total

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_zero_counts_are_central_binomials(self, n):
        report = analysis.classify(n)
        expected = math.comb(1 << n, 1 << (n - 1))
        assert all(c == expected for c in report.zero_counts)

    def test_single_site_has_no_full_term(self):
        assert analysis.classify(1).full_term == 0

    def test_jobs_do_not_change_result(self, monkeypatch):
        a = analysis.classify(3)
        monkeypatch.setattr(limits, "CENSUS_BATCH_CODES", 16)
        b = analysis.classify(3, jobs=4)
        assert a == b

    @pytest.mark.parametrize("n, sample_size", [(4, None), (5, limits.CENSUS_BATCH_CODES)])
    def test_one_batch_runs_on_the_calling_thread(self, monkeypatch, n, sample_size):
        # classify --n 4 --exhaustive and a sample of CENSUS_BATCH_CODES draws
        # are one batch each, so --jobs 2 starts no worker thread
        expected = analysis.classify(n, sample_size=sample_size, seed=1, jobs=1)
        classify_batch, threads = kernels.classify_batch, []

        def spy(codes, length):
            threads.append(threading.get_ident())
            return classify_batch(codes, length)

        monkeypatch.setattr(kernels, "classify_batch", spy)
        assert analysis.classify(n, sample_size=sample_size, seed=1, jobs=2) == expected
        assert threads == [threading.get_ident()]


class TestClassifySampled:
    def test_reproducible(self):
        a = analysis.classify(5, sample_size=20000, seed=1)
        b = analysis.classify(5, sample_size=20000, seed=1)
        assert a == b
        assert a.mode == "sample"
        assert a.trivial_classes is None
        assert a.seed == 1
        assert 0 < a.full_term_stderr < 0.01

    def test_jobs_do_not_change_sample(self, monkeypatch):
        a = analysis.classify(5, sample_size=30000, seed=2, jobs=1)
        monkeypatch.setattr(limits, "CENSUS_BATCH_CODES", 4096)
        b = analysis.classify(5, sample_size=30000, seed=2, jobs=4)
        assert a == b

    def test_seed_matters(self):
        a = analysis.classify(5, sample_size=20000, seed=1)
        b = analysis.classify(5, sample_size=20000, seed=2)
        assert a.histogram != b.histogram

    def test_fraction_near_expected(self):
        report = analysis.classify(5, sample_size=50000, seed=0)
        # loose five-sigma window around the observed population share
        assert abs(report.full_term_fraction - 0.508) < 0.02

    def test_sampling_below_five_sites_allowed(self):
        report = analysis.classify(3, sample_size=1000, seed=0)
        assert report.mode == "sample" and report.total == 1000


# README's exhaustive five-site census (`classify --n 5 --exhaustive`,
# 2^32 members): the number of t-term members, keyed by t
FIVE_SITE_HISTOGRAM = {
    1: 64, 4: 9920, 8: 79360, 10: 1666560, 13: 17776640, 16: 16086272,
    18: 3809280, 20: 144435200, 21: 213319680, 22: 475080704, 23: 284426240,
    24: 666624000, 25: 106659840, 26: 170655744, 28: 13332480, 32: 2181005312,
}


class TestSamplerExactReference:
    """The seeded five-site sampler against the exact census, bin by bin."""

    def test_reference_meets_the_census_identities(self):
        # the identities of analysis._check_exhaustive at N = 5
        h = FIVE_SITE_HISTOGRAM
        assert sum(h.values()) == 1 << 32
        assert sum((32 - t) * count for t, count in h.items()) == 32 * math.comb(32, 16)
        assert h[1] == 64

    def test_sample_within_five_sigma_of_every_bin(self):
        draws = 1 << 20
        report = analysis.classify(5, sample_size=draws, seed=1)
        assert sum(report.histogram) == draws
        for t, got in enumerate(report.histogram):
            p = Fraction(FIVE_SITE_HISTOGRAM.get(t, 0), 1 << 32)
            if p == 0:
                assert got == 0, t
                continue
            sigma = math.sqrt(draws * p * (1 - p))
            assert abs(got - draws * p) <= 5 * sigma, (t, got, float(draws * p))


class TestClassifyValidation:
    def test_cap(self):
        with pytest.raises(CapExceededError):
            analysis.classify(6)
        # checked before 1 << n_sites, which overflows at this size
        with pytest.raises(CapExceededError, match="capped at 5 sites"):
            analysis.classify(10**20)

    def test_sample_cap(self):
        # checked before the first draw, so this returns at once
        with pytest.raises(CapExceededError, match="sample size capped at 4294967296"):
            analysis.classify(3, sample_size=10**20)
        with pytest.raises(CapExceededError):
            analysis.classify(3, sample_size=SAMPLE_MAX_SIZE + 1)

    def test_conflicting_modes(self):
        with pytest.raises(BellkitError):
            analysis.classify(3, exhaustive=True, sample_size=10)

    def test_bad_sample_size(self):
        with pytest.raises(BellkitError):
            analysis.classify(5, sample_size=0)

    @pytest.mark.parametrize("kwargs", [{"sample_size": 10}, {"exhaustive": True}])
    def test_negative_seed(self, kwargs):
        with pytest.raises(BellkitError, match="seed"):
            analysis.classify(3, seed=-1, **kwargs)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one(self, jobs):
        # the same floor as the CLI's --jobs; it used to run serially
        with pytest.raises(BellkitError, match=f"jobs must be at least 1, got {jobs}"):
            analysis.classify(3, jobs=jobs)


def moved(histogram, *moves):
    """Histogram with one member moved from bin a to bin b per (a, b)."""
    out = list(histogram)
    for a, b in moves:
        out[a] -= 1
        out[b] += 1
    return tuple(out)


class TestExhaustiveIdentities:
    def test_per_position_zero_count(self):
        r = analysis.classify(3)
        zeros = (r.zero_counts[0] + 1, r.zero_counts[1] - 1) + r.zero_counts[2:]
        with pytest.raises(BellkitError, match="every position"):
            analysis._check_exhaustive(dataclasses.replace(r, zero_counts=zeros))

    def test_histogram_zero_total(self):
        # same population, same one-term bin, one zero fewer in total
        r = analysis.classify(3)
        hist = moved(r.histogram, (4, 5))
        with pytest.raises(BellkitError, match="histogram zeros"):
            analysis._check_exhaustive(dataclasses.replace(r, histogram=hist))

    def test_one_term_count(self):
        # same population and zero total, one one-term member fewer
        r = analysis.classify(3)
        hist = moved(r.histogram, (1, 2), (3, 2))
        with pytest.raises(BellkitError, match="one-term"):
            analysis._check_exhaustive(dataclasses.replace(r, histogram=hist))


class TestZeroProbability:
    def test_two_sites(self):
        assert analysis.zero_probability(2) == Fraction(6, 16)

    def test_three_sites(self):
        assert analysis.zero_probability(3) == Fraction(70, 256)

    def test_position_independent(self):
        for k in range(8):
            assert analysis.zero_probability(3, k) == Fraction(70, 256)
        with pytest.raises(BellkitError):
            analysis.zero_probability(3, 8)

    def test_capped_before_the_binomial(self):
        # C(2^40, 2^39) would not finish; the cap answers at once
        assert analysis.zero_probability(14) > 0
        start = time.perf_counter()
        with pytest.raises(CapExceededError, match="zero probability capped at 14"):
            analysis.zero_probability(40)
        assert time.perf_counter() - start < 1

    def test_matches_exhaustive_counts(self):
        for n in (1, 2, 3, 4):
            report = analysis.classify(n)
            expected = analysis.zero_probability(n) * report.total
            assert all(c == expected for c in report.zero_counts)

    @pytest.mark.parametrize("n, message", [
        (0, "site count must be at least 1"),
        (15, "zero probability capped at 14 sites, got 15"),
        (1100, "zero probability capped at 14 sites, got 1100"),
    ])
    def test_asymptotic_checks_sites_like_exact(self, n, message):
        for function in (analysis.zero_probability, analysis.zero_probability_asymptotic):
            with pytest.raises(BellkitError, match=message):
                function(n)

    def test_asymptotic_ratio_monotone_toward_one(self):
        ratios = [
            float(analysis.zero_probability(n))
            / analysis.zero_probability_asymptotic(n)
            for n in range(2, 9)
        ]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert all(r < 1 for r in ratios)
        assert 0.9 < ratios[-1] < 1.1


class TestBinomialIdentity:
    def test_two_site_expansion(self):
        # C(2,0) C(0,0) 4 + C(2,2) C(2,1) 1 == 6 == C(4,2)
        assert math.comb(2, 0) * math.comb(0, 0) * 4 \
            + math.comb(2, 2) * math.comb(2, 1) * 1 == math.comb(4, 2)
        assert analysis.verify_binomial_identity(2)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_holds_exactly(self, n):
        assert analysis.verify_binomial_identity(n)


class TestMaxB0Family:
    def test_three_site_members_golden(self):
        members = analysis.max_b0_family(3, 0)
        golden = read_golden("max_b0_n3.txt").splitlines()
        assert [str(p) for p in members] == golden

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_family_size(self, n):
        assert len(analysis.max_b0_family(n, 0)) == (1 << n) - 1

    def test_reversal_links_the_two_families(self):
        forward = analysis.max_b0_family(3, 0)
        backward = analysis.max_b0_family(3, 1)
        reversed_forward = {tuple(reversed(p.coeffs)) for p in forward}
        assert {p.coeffs for p in backward} == reversed_forward

    def test_reversed_members_peak_at_last_position(self):
        for p in analysis.max_b0_family(4, 1):
            assert p.coeffs[-1] == 7

    @pytest.mark.parametrize("n", [3, 4])
    def test_members_full_term_odd_and_tight(self, n):
        for p in analysis.max_b0_family(n, 0):
            assert all(c % 2 == 1 for c in p.coeffs)
            assert analysis.term_count(p.coeffs) == 1 << n
            v = ineq.CoefficientVector(p.n_sites, p.coeffs)
            assert ineq.standard_form(v).coeffs == v.coeffs
            assert lhv.max_lhv(v) == 1 << (n - 1)

    def test_exactly_the_high_constant_members(self):
        family = {p.coeffs for p in analysis.max_b0_family(3, 0)}
        high = {
            ineq.standard_form(v).coeffs
            for _, v in ineq.enumerate_inequalities(3)
            if ineq.standard_form(v).coeffs[0] >= 3
        }
        assert high == family

    def test_validation(self):
        with pytest.raises(BellkitError):
            analysis.max_b0_family(2, 0)
        with pytest.raises(BellkitError):
            analysis.max_b0_family(3, 2)

    @pytest.mark.parametrize("n", range(3, 12))
    def test_closed_form_matches_bell_poly(self, n):
        # every member against the interleave of bell_poly, pair by pair
        pairs = [analysis.max_b0_pair(p) for p in range(2**n - 1)]
        want = [poly.bell_poly(poly.UVIndex(n, u, v)).coeffs for u, v in pairs]
        assert [p.coeffs for p in analysis.max_b0_family(n, 0)] == want
        assert [p.coeffs for p in analysis.max_b0_family(n, 1)] == [c[::-1] for c in want]

    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_pairs_match_the_bit_loop(self, n):
        want = []
        for bit in range(1 << (n - 1)):
            v = 1 << bit
            want.extend((u, v) for u in ((0,) if bit == 0 else (0, v)))
        assert [analysis.max_b0_pair(p) for p in range(2**n - 1)] == want

    @pytest.mark.parametrize("n", [3, 10, 13])
    def test_batches_bounded_by_cells(self, n):
        starts, sizes = [], []
        for start, rows in analysis.max_b0_batches(n, 0):
            assert rows.dtype == np.int64 and rows.shape[1] == 1 << n
            assert rows.size <= 1 << 16
            starts.append(start)
            sizes.append(len(rows))
        assert starts == [sum(sizes[:i]) for i in range(len(sizes))]
        assert sum(sizes) == (1 << n) - 1

    def test_batch_size_does_not_change_the_family(self, monkeypatch):
        want = analysis.max_b0_family(6, 1)
        for cells in (1, 200, 1 << 20):
            monkeypatch.setattr(limits, "OUTPUT_BATCH_CELLS", cells)
            assert analysis.max_b0_family(6, 1) == want

    def test_coefficients_are_python_ints(self):
        assert all(type(c) is int for c in analysis.max_b0_family(5, 0)[3].coeffs)

    def test_site_range_checked_before_any_shift(self):
        with pytest.raises(BellkitError, match="from 3 sites upward"):
            analysis.max_b0_family(0, 0)
        with pytest.raises(CapExceededError, match="capped at 14 sites"):
            next(analysis.max_b0_batches(10**20, 0))
        with pytest.raises(CapExceededError, match="capped at 14 sites"):
            analysis.max_b0_family(10**20, 0)


class TestFullTermBoundLink:
    @pytest.mark.parametrize("n", [2, 3])
    def test_odd_parity_members_have_half_scale_bound(self, n):
        # popcount(v) odd forces odd coefficients, hence a full-term
        # member whose standard form keeps the bound 2^(n-1)
        half = 1 << (n - 1)
        for u in range(1 << half):
            for v in range(1 << half):
                if v.bit_count() % 2 == 0:
                    continue
                p = poly.bell_poly(poly.UVIndex(n, u, v))
                assert analysis.term_count(p.coeffs) == 1 << n
                sf = ineq.standard_form(p)
                assert ineq.bound(sf) == half
