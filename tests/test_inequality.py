import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bellkit import analysis, inequality as ineq, limits
from bellkit import polynomial as poly
from bellkit.errors import BellkitError, CapExceededError
from conftest import (
    bfs_canonical,
    bfs_orbit,
    butterfly,
    coefficients_by_expansion,
    default_generators,
    formula_matrix,
    negate,
    observable_flip,
    read_golden,
    signs_of_code,
    site_permutation,
    traditional_text,
    value_flip,
)

CHSH = ineq.CoefficientVector(2, (1, 1, 1, -1))
MABK_RAW = ineq.CoefficientVector(3, (2, 0, 0, -2, 0, 2, 2, 0))
MABK = ineq.CoefficientVector(3, (1, 0, 0, -1, 0, 1, 1, 0))
THREE_SITE_MIXED = ineq.CoefficientVector(3, (3, 1, 1, -1, -1, 1, 1, -1))


class TestCoefficientVector:
    def test_zero_sum_rejected(self):
        with pytest.raises(BellkitError):
            ineq.CoefficientVector(1, (1, -1))

    def test_length_must_match_sites(self):
        with pytest.raises(BellkitError):
            ineq.CoefficientVector(2, (1, 1))

    def test_from_ints_infers_sites(self):
        v = ineq.CoefficientVector.from_ints([1, 1, 1, -1])
        assert v.n_sites == 2

    def test_from_ints_rejects_bad_length(self):
        with pytest.raises(BellkitError):
            ineq.CoefficientVector.from_ints([1, 2, 3])

    def test_from_ints_takes_the_site_count_of_its_base(self):
        v = ineq.CoefficientVector.from_ints([1, 1, 1, -1], n_sites=2)
        assert type(v) is ineq.CoefficientVector
        assert v == ineq.CoefficientVector(2, (1, 1, 1, -1))
        # with the count given it zero-pads, as BellPolynomial.from_ints does
        assert ineq.CoefficientVector.from_ints([3, 1], n_sites=2).coeffs == (3, 1, 0, 0)
        with pytest.raises(BellkitError):
            ineq.CoefficientVector.from_ints([1, 1, 1, -1], n_sites=1)

    def test_hashable(self):
        assert len({CHSH, ineq.CoefficientVector(2, (1, 1, 1, -1))}) == 1


class TestFromSignVector:
    def test_chsh_worked_example(self):
        assert ineq.from_sign_vector((-1, 1, 1, 1)).coeffs == (2, -2, -2, -2)

    def test_single_site_column_sums(self):
        assert ineq.from_sign_vector((1, 1)).coeffs == (2, 0)

    def test_matrix_row_input(self):
        row = formula_matrix(3)[5]
        assert ineq.from_sign_vector(row).coeffs == (0, 0, 0, 0, 0, 8, 0, 0)

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_expansion_oracle_exhaustively(self, n):
        for code in range(1 << (1 << n)):
            got = ineq.from_sign_vector(signs_of_code(code, n))
            assert list(got.coeffs) == coefficients_by_expansion(code, n)

    def test_matches_expansion_oracle_sampled(self):
        rng = np.random.default_rng(7)
        for n in (3, 4):
            for code in rng.integers(0, 1 << (1 << n), size=12).tolist():
                got = ineq.from_sign_vector(signs_of_code(code, n))
                assert list(got.coeffs) == coefficients_by_expansion(code, n)

    def test_rejects_non_sign_values(self):
        with pytest.raises(BellkitError):
            ineq.from_sign_vector((1, 0, 1, 1))
        # neither truncated to a sign nor parsed from text
        for signs in [(1.5, -1), ("1", "-1")]:
            with pytest.raises(BellkitError, match="entries must be"):
                ineq.from_sign_vector(signs)

    def test_rejects_bad_length(self):
        with pytest.raises(BellkitError):
            ineq.from_sign_vector((1, 1, 1))

    @pytest.mark.parametrize("n", range(5, 15))
    def test_matches_butterfly(self, n):
        rng = np.random.default_rng(n)
        for _ in range(4):
            signs = rng.choice([-1, 1], size=1 << n).tolist()
            assert ineq.from_sign_vector(signs).coeffs == butterfly(signs)

    @pytest.mark.parametrize("n", [15, 20])
    def test_record_cap(self, n):
        # past the cap the vector is rejected before any transform work
        with pytest.raises(CapExceededError,
                           match=f"sign vectors capped at 14 sites, got {n}"):
            ineq.from_sign_vector([1] * (1 << n))

    @pytest.mark.parametrize("n", [-1, 0])
    def test_code_decoding_rejects_site_count_below_one(self, n):
        with pytest.raises(BellkitError, match="site count must be at least 1"):
            ineq.sign_vector_from_code(0, n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_raw_invariants_exhaustive(self, n):
        order = 1 << n
        for code in range(1 << order):
            coeffs = ineq.from_sign_vector(signs_of_code(code, n)).coeffs
            assert all(c % 2 == 0 for c in coeffs)
            assert all(abs(c) <= order for c in coeffs)
            assert abs(sum(coeffs)) == order
            if any(abs(c) == order for c in coeffs):
                assert sum(1 for c in coeffs if c != 0) == 1

    @pytest.mark.parametrize("n", [4, 5])
    def test_raw_invariants_sampled(self, n):
        order = 1 << n
        rng = np.random.default_rng(n)
        for code in rng.integers(0, 1 << order, size=400).tolist():
            coeffs = ineq.from_sign_vector(signs_of_code(code, n)).coeffs
            assert all(c % 2 == 0 for c in coeffs)
            assert all(abs(c) <= order for c in coeffs)
            assert abs(sum(coeffs)) == order


class TestBound:
    def test_chsh(self):
        assert ineq.bound(CHSH) == 2

    def test_three_site_example(self):
        assert ineq.bound(THREE_SITE_MIXED) == 4

    def test_single_term(self):
        for n in (1, 2, 3, 4):
            coeffs = (1 << n,) + (0,) * ((1 << n) - 1)
            assert ineq.bound(ineq.CoefficientVector(n, coeffs)) == 1 << n


class TestStandardForm:
    def test_mabk_division_by_two(self):
        assert ineq.standard_form(MABK_RAW).coeffs == MABK.coeffs

    def test_sign_flip_forced(self):
        assert ineq.standard_form((2, -2, -2, -2)).coeffs == (-1, 1, 1, 1)

    def test_already_standard(self):
        assert ineq.standard_form(THREE_SITE_MIXED).coeffs == THREE_SITE_MIXED.coeffs

    def test_type_validates(self):
        with pytest.raises(BellkitError):
            ineq.StandardForm(2, (2, -2, -2, -2))
        with pytest.raises(BellkitError):
            ineq.StandardForm(2, (1, -1, -1, -1))

    @given(st.integers(0, 255))
    def test_idempotent_and_scale_relation(self, code):
        v = ineq.from_sign_vector(signs_of_code(code, 3))
        sf = ineq.standard_form(v)
        assert ineq.standard_form(sf).coeffs == sf.coeffs
        g = math.gcd(*(abs(c) for c in v.coeffs))
        assert ineq.bound(sf) * g == ineq.bound(v)


class TestBowtie:
    def test_mabk_worked_example(self):
        out = ineq.bowtie((1, 1, 1, -1), (1, -1, -1, -1))
        assert out.coeffs == (2, 0, 0, -2, 0, 2, 2, 0)
        assert out.n_sites == 3

    def test_trivial_partner_worked_example(self):
        out = ineq.bowtie((1, 1, 1, -1), (2, 0, 0, 0))
        assert out.coeffs == (3, 1, 1, -1, -1, 1, 1, -1)

    def test_self_combination_cancels(self):
        out = ineq.bowtie(CHSH, CHSH)
        assert out.coeffs == (2, 2, 2, -2, 0, 0, 0, 0)

    def test_unequal_bounds_rejected(self):
        with pytest.raises(BellkitError, match=r"equal \|value at 1\|"):
            ineq.bowtie((1, 1, 1, -1), (1, 0, 0, 0))

    def test_opposite_sums_lift(self):
        # the lift sums to twice the first operand's sum, never to zero
        a, b = (1, 1, 1, -1), (-1, -1, -1, 1)
        out = ineq.bowtie(a, b)
        assert type(out) is ineq.CoefficientVector
        assert out.coeffs == (0, 0, 0, 0, 2, 2, 2, -2)
        lift = poly.bowtie(poly.BellPolynomial(2, a), poly.BellPolynomial(2, b))
        assert type(lift) is poly.BellPolynomial
        assert lift.coeffs == out.coeffs

    def test_zero_sum_operands(self):
        s = (1, 0, -1, 0)
        with pytest.raises(BellkitError, match="coefficient sum is zero"):
            ineq.bowtie(s, s)
        p = poly.BellPolynomial(2, s)
        assert poly.bowtie(p, p).coeffs == (2, 0, -2, 0, 0, 0, 0, 0)

    def test_lift_has_the_record_type_of_the_first_operand(self):
        p = poly.BellPolynomial(2, CHSH.coeffs)
        assert type(poly.bowtie(CHSH, p)) is ineq.CoefficientVector
        assert type(poly.bowtie(p, CHSH)) is poly.BellPolynomial
        # a standard form's self-lift has common factor 2: the vector lift
        # is a plain vector, the record lift fails the standard-form check
        sf = ineq.standard_form(CHSH)
        out = ineq.bowtie(sf, sf)
        assert type(out) is ineq.CoefficientVector
        assert out.coeffs == (2, 2, 2, -2, 0, 0, 0, 0)
        with pytest.raises(BellkitError, match="coprime"):
            poly.bowtie(sf, sf)

    def test_site_count_mismatch_rejected(self):
        with pytest.raises(BellkitError):
            ineq.bowtie((1, 1), (1, 1, 1, -1))

    @pytest.mark.parametrize("n", [1, 2])
    def test_reproduces_next_size_exhaustively(self, n):
        smaller = [v for _, v in ineq.enumerate_inequalities(n)]
        lifted = {
            ineq.bowtie(a, b).coeffs for a in smaller for b in smaller
        }
        target = {v.coeffs for _, v in ineq.enumerate_inequalities(n + 1)}
        assert lifted == target


class TestEnumerate:
    def test_single_site_order_and_values(self):
        items = list(ineq.enumerate_inequalities(1))
        assert [(code, v.coeffs) for code, v in items] == [
            (0, (2, 0)), (1, (0, -2)), (2, (0, 2)), (3, (-2, 0)),
        ]

    def test_two_site_structure(self):
        items = list(ineq.enumerate_inequalities(2))
        assert len(items) == 16
        assert [code for code, _ in items] == list(range(16))
        one_term = [v for _, v in items
                    if sum(1 for c in v.coeffs if c) == 1]
        full_term = [v for _, v in items
                     if all(c != 0 for c in v.coeffs)]
        assert len(one_term) == 8 and len(full_term) == 8
        assert all(max(abs(c) for c in v.coeffs) == 4 for v in one_term)
        assert all(set(map(abs, v.coeffs)) == {2} for v in full_term)

    def test_three_site_count_distinct(self):
        vectors = {v.coeffs for _, v in ineq.enumerate_inequalities(3)}
        assert len(vectors) == 256

    def test_batch_size_invisible(self, monkeypatch):
        want = {n: [(c, v.coeffs) for c, v in ineq.enumerate_inequalities(n)]
                for n in (2, 3)}
        for n, batch_size in ((2, 3), (3, 32)):
            monkeypatch.setattr(limits, "ENUM_BATCH_ROWS", batch_size)
            assert [(c, v.coeffs) for c, v in ineq.enumerate_inequalities(n)] == want[n]
        blocks = {}
        for batch_size in (1, 1000, 8192):
            monkeypatch.setattr(limits, "ENUM_BATCH_ROWS", batch_size)
            batches = list(ineq.coefficient_batches(4))
            assert [start for start, _ in batches] == list(
                range(0, 1 << 16, batch_size))
            blocks[batch_size] = np.concatenate([block for _, block in batches])
        assert np.array_equal(blocks[1], blocks[1000])
        assert np.array_equal(blocks[1], blocks[8192])
        codes = np.arange(1 << 16)
        signs = 1 - 2 * ((codes[:, None] >> np.arange(16)) & 1)
        assert np.array_equal(blocks[1], signs @ formula_matrix(4))

    @pytest.mark.parametrize("batch_size", [1000, 1024, 8192])
    def test_first_five_site_batches(self, batch_size, monkeypatch):
        monkeypatch.setattr(limits, "ENUM_BATCH_ROWS", batch_size)
        batches = list(itertools.islice(ineq.coefficient_batches(5, stream=True), 3))
        assert [start for start, _ in batches] == [0, batch_size, 2 * batch_size]
        codes = np.arange(3 * batch_size)
        signs = 1 - 2 * ((codes[:, None] >> np.arange(32)) & 1)
        rows = np.concatenate([block for _, block in batches])
        assert np.array_equal(rows, signs @ formula_matrix(5))

    def test_records_are_the_batch_rows(self):
        rows = np.concatenate([block for _, block in ineq.coefficient_batches(3)])
        items = list(ineq.enumerate_inequalities(3))
        assert [code for code, _ in items] == list(range(256))
        assert [v.coeffs for _, v in items] == [tuple(r) for r in rows.tolist()]

    def test_batch_checks_are_lazy(self):
        batches = ineq.coefficient_batches(6, stream=True)
        with pytest.raises(CapExceededError):
            next(batches)
        for n in (0, 5):
            with pytest.raises(BellkitError):
                next(ineq.coefficient_batches(n))

    def test_streaming_flag_required_beyond_four_sites(self):
        with pytest.raises(BellkitError):
            next(ineq.enumerate_inequalities(5))
        stream = ineq.enumerate_inequalities(5, stream=True)
        code, v = next(stream)
        assert code == 0 and v.coeffs[0] == 32
        stream.close()

    def test_cap(self):
        with pytest.raises(CapExceededError):
            next(ineq.enumerate_inequalities(6, stream=True))



class TestTraditionalNotation:
    def test_chsh_golden(self):
        rendered = ineq.to_traditional((1, -1, -1, -1))
        assert rendered + "\n" == read_golden("chsh_traditional.txt")

    def test_mabk_golden(self):
        rendered = ineq.to_traditional(MABK)
        assert rendered + "\n" == read_golden("mabk_traditional.txt")

    def test_trivial_single_site(self):
        assert ineq.to_traditional((1, 0)) == "|E(1)| ≤ 1"

    def test_multi_digit_coefficient(self):
        rendered = ineq.to_traditional(THREE_SITE_MIXED)
        assert rendered.startswith("|3E(1,1,1) + E(1,1,2)")
        assert rendered.endswith("− E(2,2,2)| ≤ 4")

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_member_matches_term_by_term(self, n):
        for _, v in ineq.enumerate_inequalities(n):
            for w in (v, ineq.standard_form(v)):
                assert ineq.to_traditional(w) == traditional_text(w.coeffs)

    def test_scaled_and_negative_terms(self):
        for coeffs in ((-1, 0), (0, -7), (-12, 3, 0, -1), (5, -5, 5, 1)):
            assert ineq.to_traditional(coeffs) == traditional_text(coeffs)


class TestStandardRows:
    """The row-wise standard form against ``standard_form`` one row at a time."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("scale", [1, -3, 6])
    def test_every_member(self, n, scale):
        block = scale * np.concatenate(
            [b for _, b in ineq.coefficient_batches(n)])
        want = [ineq.standard_form(row).coeffs for row in block.tolist()]
        got = ineq._standard_rows(block)
        assert got.dtype == np.int64
        assert [tuple(row) for row in got.tolist()] == want


class TestReverseObservables:
    def test_reverses_vector(self):
        assert ineq.reverse_observables(CHSH).coeffs == (-1, 1, 1, 1)

    @given(st.integers(0, 255))
    def test_involution(self, code):
        v = ineq.from_sign_vector(signs_of_code(code, 3))
        assert ineq.reverse_observables(ineq.reverse_observables(v)) == v


class TestSymmetries:
    def test_site_swap_fixed_point(self):
        swapped = site_permutation(CHSH, (1, 0))
        assert swapped == CHSH

    def test_site_permutation_moves_digits(self):
        v = ineq.CoefficientVector(2, (10, 20, 30, 41))
        swapped = site_permutation(v, (1, 0))
        assert swapped.coeffs == (10, 30, 20, 41)

    def test_observable_flip(self):
        v = ineq.CoefficientVector(1, (3, 1))
        assert observable_flip(v, 0).coeffs == (1, 3)

    def test_value_flip(self):
        flipped = value_flip(CHSH, 0, 0)
        assert flipped.coeffs == (-1, -1, 1, -1)

    def test_bad_permutation_rejected(self):
        with pytest.raises(BellkitError):
            site_permutation(CHSH, (0, 0))

    def test_chsh_orbit_is_all_full_term_vectors(self):
        orbit = {v.coeffs for v in ineq.symmetry_orbit(CHSH)}
        full_term = {
            ineq.standard_form(v).coeffs
            for _, v in ineq.enumerate_inequalities(2)
            if all(c != 0 for c in v.coeffs)
        }
        assert orbit == full_term | {tuple(-c for c in t) for t in full_term}
        assert len(orbit) == 8

    def test_negation_always_in_orbit(self):
        members = [v for _, v in ineq.enumerate_inequalities(3)]
        for v in [CHSH, MABK, THREE_SITE_MIXED] + members[::17]:
            orbit = ineq.symmetry_orbit(v)
            assert v in orbit and negate(v) in orbit

    def test_orbit_stays_inside_family(self):
        # raw-scale member: twice the lifted vector (raw sums are +-8 here)
        raw = ineq.CoefficientVector(3, tuple(2 * c for c in MABK_RAW.coeffs))
        family = {v.coeffs for _, v in ineq.enumerate_inequalities(3)}
        assert raw.coeffs in family
        orbit = ineq.symmetry_orbit(raw)
        assert {v.coeffs for v in orbit} <= family

    def test_canonical_shared_across_orbit(self):
        rep = ineq.canonical(CHSH)
        assert rep.coeffs == (-1, 1, 1, 1)
        for member in ineq.symmetry_orbit(CHSH):
            assert ineq.canonical(member) == rep


def assert_matches_oracle(vectors):
    """Table orbit and canonical form equal the generator BFS for each vector.

    An orbit is the orbit of each of its elements, so one BFS serves every
    later vector that lies inside it.
    """
    seen = []
    for v in vectors:
        orbit, rep = next(((o, r) for o, r in seen if v in o), (None, None))
        if orbit is None:
            orbit = bfs_orbit(v)
            rep = min((ineq.standard_form(m) for m in orbit),
                      key=lambda s: s.coeffs)
            seen.append((orbit, rep))
        assert ineq.symmetry_orbit(v) == orbit
        assert ineq.canonical(v) == rep


class TestRelabelingOracle:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_member(self, n):
        assert_matches_oracle(
            [v for _, v in ineq.enumerate_inequalities(n)])

    def test_seeded_four_site_members(self):
        rng = np.random.default_rng(4)
        codes = rng.integers(0, 1 << 16, 200)
        assert_matches_oracle(
            [ineq.from_sign_vector(signs_of_code(int(c), 4)) for c in codes])

    def test_canonical_is_bfs_canonical(self):
        for v in (CHSH, MABK, THREE_SITE_MIXED):
            assert ineq.canonical(v) == bfs_canonical(v)

    def test_non_member_vectors(self):
        rng = np.random.default_rng(11)
        checked = 0
        for n in (1, 2, 3):
            for _ in range(40):
                values = [int(x) for x in rng.integers(-4, 5, 1 << n)]
                scale = int(rng.choice([1, 6, 1 << 70]))
                if sum(values) == 0:
                    continue
                v = ineq.CoefficientVector(n, tuple(scale * x for x in values))
                try:
                    expected = bfs_orbit(v)
                except BellkitError:
                    with pytest.raises(BellkitError, match="sum is zero"):
                        ineq.symmetry_orbit(v)
                    with pytest.raises(BellkitError, match="sum is zero"):
                        ineq.canonical(v)
                    continue
                assert ineq.symmetry_orbit(v) == expected
                assert ineq.canonical(v) == bfs_canonical(v)
                checked += 1
        assert checked >= 20

    @pytest.mark.parametrize("cells", [1, 1 << 30], ids=["one-permutation", "one-block"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_block_size_is_invisible(self, monkeypatch, n, cells):
        monkeypatch.setattr(limits, "OUTPUT_BATCH_CELLS", cells)
        rng = np.random.default_rng(n)
        for code in rng.integers(0, 1 << (1 << n), 4):
            v = ineq.from_sign_vector(signs_of_code(int(code), n))
            assert ineq.canonical(v) == bfs_canonical(v)

    @pytest.mark.parametrize("n, blocks", [(3, 1), (4, 3), (5, 120)])
    def test_blocks_stack_whole_permutations(self, n, blocks):
        # one block per site permutation was 6 blocks at three sites, 24 at four
        v = ineq.from_sign_vector(signs_of_code(0x9E3779B9 % (1 << (1 << n)), n))
        sizes = [block.size for block in ineq._orbit_blocks(v)[1]]
        assert len(sizes) == blocks
        assert max(sizes) <= max(limits.OUTPUT_BATCH_CELLS, 2 ** (3 * n + 1))
        assert sum(sizes) == math.factorial(n) * 2 ** (3 * n + 1)

    def test_huge_multiple_keeps_exact_integers(self):
        big = ineq.CoefficientVector(2, tuple((1 << 70) * c for c in CHSH.coeffs))
        assert ineq.symmetry_orbit(big) == bfs_orbit(big)
        assert ineq.canonical(big) == ineq.canonical(CHSH)

    def test_zero_sum_image_rejected(self):
        # (1, 1, 0, 0) sums to 2, but flipping site 2's outcomes gives (1, -1, 0, 0)
        with pytest.raises(BellkitError):
            bfs_orbit((1, 1, 0, 0))
        with pytest.raises(BellkitError, match="coefficient sum is zero"):
            ineq.symmetry_orbit((1, 1, 0, 0))
        with pytest.raises(BellkitError, match="coefficient sum is zero"):
            ineq.canonical((1, 1, 0, 0))

    def test_int64_guard(self):
        top = 1 << 62
        below = ineq.CoefficientVector(1, (top, top - 1))  # sum |b| = 2^63 - 1
        assert ineq.symmetry_orbit(below) == bfs_orbit(below)
        assert ineq.canonical(below) == bfs_canonical(below)
        for v in [(top, top + 1), (3 * top, 1)]:
            with pytest.raises(BellkitError, match="below 2\\^63"):
                ineq.symmetry_orbit(v)
            with pytest.raises(BellkitError, match="below 2\\^63"):
                ineq.canonical(v)

    def test_six_site_cap(self):
        v = ineq.from_sign_vector(signs_of_code(12345, 6))
        start = time.perf_counter()
        with pytest.raises(CapExceededError):
            ineq.symmetry_orbit(v)
        with pytest.raises(CapExceededError):
            ineq.canonical(v)
        assert time.perf_counter() - start < 1

    def test_five_site_canonical(self):
        v = ineq.from_sign_vector(signs_of_code(0x9E3779B9, 5))
        start = time.perf_counter()
        rep = ineq.canonical(v)
        assert time.perf_counter() - start < 5
        assert rep.coeffs <= ineq.standard_form(v).coeffs
        for g in default_generators(5):
            assert ineq.canonical(g(v)) == rep


def assert_valid_rows(records):
    """Rows built without checks equal their validated reconstruction."""
    records = list(records)
    assert records
    for x in records:
        assert type(x)(x.n_sites, x.coeffs) == x


class TestTrustedRows:
    """Every row built by ``_trusted`` passes its own type's checks."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_enumeration_and_transforms(self, n):
        vectors = [v for _, v in ineq.enumerate_inequalities(n)]
        assert_valid_rows(vectors)
        assert_valid_rows(ineq.from_sign_vector(signs_of_code(code, n))
                          for code in range(1 << (1 << n)))
        assert_valid_rows(ineq.standard_form(v) for v in vectors)
        assert_valid_rows(ineq.reverse_observables(v) for v in vectors)
        assert_valid_rows(ineq.reverse_observables(ineq.standard_form(v))
                          for v in vectors)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_orbits(self, n):
        for _, v in ineq.enumerate_inequalities(n):
            assert_valid_rows(ineq.symmetry_orbit(v))
            assert_valid_rows([ineq.canonical(v)])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bell_poly(self, n):
        half = 1 << (n - 1)
        assert_valid_rows(poly.bell_poly(poly.UVIndex(n, u, v))
                          for u in range(1 << half) for v in range(1 << half))

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("k", [0, 1])
    def test_max_b0_family(self, n, k):
        assert_valid_rows(analysis.max_b0_family(n, k))

    def test_bowtie_lifts_standard_forms(self):
        forms = {ineq.standard_form(v) for _, v in ineq.enumerate_inequalities(2)}
        for a in forms:
            for b in forms:
                try:
                    lift = poly.bowtie(a, b)
                except BellkitError:
                    continue
                assert_valid_rows([lift, ineq.bowtie(a, b)])
