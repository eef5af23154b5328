import copy
import dataclasses
import functools
import hashlib
import itertools
import json
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bellkit import inequality as ineq
from bellkit import polynomial as poly
from bellkit.errors import BellkitError, CapExceededError
from bellkit.limits import MATERIALIZE_MAX_SITES
from conftest import butterfly, poly_from_factors, poly_mul, read_golden, signs_of_code


def family_indices(n):
    half = 1 << (n - 1)
    return itertools.product(range(1 << half), repeat=2)


class TestSummandPoly:
    def test_two_site_minus(self):
        assert poly.summand_poly(2, 1).coeffs == (1, 0, -1, 0)
        assert str(poly.summand_poly(2, 1)) == "1-z^2"

    def test_three_site_expansion(self):
        assert poly.summand_poly(3, 3).coeffs == (1, 0, -1, 0, -1, 0, 1, 0)

    def test_single_site_unit(self):
        assert poly.summand_poly(1, 0).coeffs == (1, 1 - 1)
        assert str(poly.summand_poly(1, 0)) == "1"

    def test_index_range(self):
        with pytest.raises(BellkitError):
            poly.summand_poly(3, 4)
        with pytest.raises(BellkitError):
            poly.summand_poly(2, -1)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_factored_product(self, n):
        # independent expansion of (1 +- z^(2^(n-1))) ... (1 +- z^2)
        for k in range(1 << (n - 1)):
            exponents = [1 << (i + 1) for i in range(n - 1)]
            signs = [-1 if (k >> i) & 1 else 1 for i in range(n - 1)]
            expanded = poly_from_factors(exponents, signs)
            expanded += [0] * ((1 << n) - len(expanded))
            assert list(poly.summand_poly(n, k).coeffs) == expanded

    @pytest.mark.parametrize("n", range(1, 7))
    def test_structure(self, n):
        for k in range(1 << (n - 1)):
            coeffs = poly.summand_poly(n, k).coeffs
            assert all(coeffs[i] == 0 for i in range(1, len(coeffs), 2))
            assert all(coeffs[i] in (-1, 1) for i in range(0, len(coeffs), 2))
            if n >= 1:
                assert coeffs[(1 << n) - 2] in (-1, 1)  # degree 2^n - 2


class TestSummandCoefficients:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_first_summand_all_plus(self, n):
        evens = poly.summand_poly(n, 0).coeffs[0::2]
        assert set(evens) == {1}

    @pytest.mark.parametrize("n", range(2, 7))
    def test_half_split_for_higher_summands(self, n):
        for k in range(1, 1 << (n - 1)):
            evens = poly.summand_poly(n, k).coeffs[0::2]
            assert sum(1 for c in evens if c == 1) == len(evens) // 2

    @pytest.mark.parametrize("n", range(1, 7))
    def test_summands_sum_to_constant(self, n):
        total = [0] * (1 << n)
        for k in range(1 << (n - 1)):
            for i, c in enumerate(poly.summand_poly(n, k).coeffs):
                total[i] += c
        assert total[0] == 1 << (n - 1)
        assert all(c == 0 for c in total[1:])

    @pytest.mark.parametrize("n", range(1, 7))
    def test_values_at_special_points(self, n):
        for k in range(1 << (n - 1)):
            p = poly.summand_poly(n, k)
            assert poly.evaluate(p, 0) == 1
            if k == 0:
                assert poly.evaluate(p, 1) == 1 << (n - 1)
            else:
                assert poly.evaluate(p, 1) == 0
                assert poly.evaluate(p, -1) == 0


class TestColumnPoly:
    def test_single_site_columns(self):
        assert poly.column_poly(1, 0).coeffs == (1, 1)
        assert poly.column_poly(1, 1).coeffs == (1, -1)
        assert str(poly.column_poly(1, 1)) == "1-z"

    @pytest.mark.parametrize("n", range(2, 6))
    def test_stretching_gives_summands(self, n):
        # substituting z^2 for z in column k (n-1 sites) gives summand k
        for k in range(1 << (n - 1)):
            col = poly.column_poly(n - 1, k).coeffs
            stretched = [0] * (1 << n)
            stretched[0::2] = col
            assert list(poly.summand_poly(n, k).coeffs) == stretched

    def test_index_range(self):
        with pytest.raises(BellkitError):
            poly.column_poly(2, 4)

    def test_site_range(self):
        # the site check runs before 1 << n_sites, which fails for n < 0
        with pytest.raises(BellkitError, match="site count must be at least 1"):
            poly.column_poly(-1, 0)


N1_TABLE = {(0, 0): "1", (0, 1): "z", (1, 0): "-1", (1, 1): "-z"}


class TestBellPolyFamily:
    def test_single_site_table(self):
        for (u, v), text in N1_TABLE.items():
            assert str(poly.bell_poly(poly.UVIndex(1, u, v))) == text

    def test_two_site_table_golden(self):
        table = {}
        for line in read_golden("buv_table_n2.txt").splitlines():
            u, v, text = line.split(" ", 2)
            table[(int(u), int(v))] = text
        assert len(table) == 16
        for (u, v), text in table.items():
            assert str(poly.bell_poly(poly.UVIndex(2, u, v))) == text

    def test_four_site_even_example(self):
        got = poly.bell_poly(poly.UVIndex(4, 14, 0)).coeffs
        assert got == (2, 0, 2, 0, 2, 0, 2, 0, -6, 0, 2, 0, 2, 0, 2, 0)

    def test_four_site_full_term_example(self):
        got = poly.bell_poly(poly.UVIndex(4, 0, 14)).coeffs
        assert got == (5, 3, 1, -1, 1, -1, 1, -1, -3, 3, 1, -1, 1, -1, 1, -1)

    def test_index_validation(self):
        with pytest.raises(BellkitError):
            poly.UVIndex(2, 4, 0)
        with pytest.raises(BellkitError):
            poly.UVIndex(2, 0, -1)

    @pytest.mark.parametrize("u, v", [(1.5, 0), (0, 1.0), ("1", 0)])
    def test_index_must_be_an_integer(self, u, v):
        # 1.5 and 1.0 passed the range check; "1" raised TypeError
        with pytest.raises(BellkitError, match="must be an integer"):
            poly.UVIndex(2, u, v)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_boundary_values(self, n):
        half = 1 << (n - 1)
        for u, v in family_indices(n):
            p = poly.bell_poly(poly.UVIndex(n, u, v))
            sign = -1 if u & 1 else 1
            sign_alt = -1 if (u ^ v) & 1 else 1
            assert poly.evaluate(p, 1) == sign * half
            assert poly.evaluate(p, -1) == sign_alt * half
            at_zero = sum(
                (-1 if (u >> k) & 1 else 1) * (1 - ((v >> k) & 1))
                for k in range(half)
            )
            assert poly.evaluate(p, 0) == at_zero

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_height_bounded_by_value_at_one(self, n):
        for u, v in family_indices(n):
            coeffs = poly.bell_poly(poly.UVIndex(n, u, v)).coeffs
            peak = 1 << (n - 1)
            assert all(abs(c) <= peak for c in coeffs)
            if any(abs(c) == peak for c in coeffs):
                assert sum(1 for c in coeffs if c != 0) == 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_completeness_against_sign_vectors(self, n):
        family = set()
        for u, v in family_indices(n):
            family.add(poly.bell_poly(poly.UVIndex(n, u, v)).coeffs)
        halved = set()
        for code in range(1 << (1 << n)):
            raw = ineq.from_sign_vector(signs_of_code(code, n)).coeffs
            halved.add(tuple(c // 2 for c in raw))
        assert len(family) == 1 << (1 << n)
        assert family == halved


class TestEvaluate:
    def test_exact_fraction(self):
        p = poly.BellPolynomial(2, (1, 1, 1, -1))
        assert poly.evaluate(p, Fraction(1, 2)) == Fraction(13, 8)

    def test_integer_stays_integer(self):
        p = poly.BellPolynomial(2, (1, 1, 1, -1))
        value = poly.evaluate(p, 3)
        assert value == 1 + 3 + 9 - 27
        assert isinstance(value, int)


class TestIndexTransforms:
    def test_negate_two_site_example(self):
        idx = poly.negate_index(poly.UVIndex(2, 0, 1))
        assert (idx.u, idx.v) == (3, 1)
        a = poly.bell_poly(poly.UVIndex(2, 0, 1)).coeffs
        b = poly.bell_poly(idx).coeffs
        assert b == tuple(-c for c in a)

    def test_negate_single_site(self):
        idx = poly.negate_index(poly.UVIndex(1, 0, 0))
        assert (idx.u, idx.v) == (1, 0)
        assert poly.bell_poly(idx).coeffs == (-1, 0)

    def test_reflect_two_site_example(self):
        idx = poly.reflect_index(poly.UVIndex(2, 0, 2))
        assert (idx.u, idx.v) == (2, 2)
        original = poly.bell_poly(poly.UVIndex(2, 0, 2)).coeffs
        reflected = poly.bell_poly(idx).coeffs
        assert reflected == tuple(
            -c if k % 2 else c for k, c in enumerate(original)
        )

    @given(st.integers(1, 3), st.data())
    def test_involutions(self, n, data):
        limit = 1 << (1 << (n - 1))
        u = data.draw(st.integers(0, limit - 1))
        v = data.draw(st.integers(0, limit - 1))
        idx = poly.UVIndex(n, u, v)
        assert poly.negate_index(poly.negate_index(idx)) == idx
        assert poly.reflect_index(poly.reflect_index(idx)) == idx

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_transform_identities_exhaustive(self, n):
        for u, v in family_indices(n):
            idx = poly.UVIndex(n, u, v)
            base = poly.bell_poly(idx).coeffs
            negated = poly.bell_poly(poly.negate_index(idx)).coeffs
            assert negated == tuple(-c for c in base)
            reflected = poly.bell_poly(poly.reflect_index(idx)).coeffs
            assert reflected == tuple(
                -c if k % 2 else c for k, c in enumerate(base)
            )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_even_odd_characterization(self, n):
        all_ones = (1 << (1 << (n - 1))) - 1
        for u, v in family_indices(n):
            coeffs = poly.bell_poly(poly.UVIndex(n, u, v)).coeffs
            is_even = all(coeffs[k] == 0 for k in range(1, len(coeffs), 2))
            is_odd = all(coeffs[k] == 0 for k in range(0, len(coeffs), 2))
            assert is_even == (v == 0)
            assert is_odd == (v == all_ones)

    def test_reflect_fixes_even_members(self):
        idx = poly.UVIndex(3, 5, 0)
        assert poly.reflect_index(idx) == idx


class TestConstantCoeff:
    def test_two_site_examples(self):
        assert poly.constant_coeff(poly.UVIndex(2, 0, 0)) == 2
        assert poly.constant_coeff(poly.UVIndex(2, 0, 1)) == 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_expansion_exhaustive(self, n):
        for u, v in family_indices(n):
            idx = poly.UVIndex(n, u, v)
            assert poly.constant_coeff(idx) == poly.bell_poly(idx).coeffs[0]


class TestBowtie:
    def test_chsh_pair_worked_example(self):
        a = poly.BellPolynomial(2, (1, 1, 1, -1))
        b = poly.BellPolynomial(2, (1, -1, -1, -1))
        assert str(poly.bowtie(a, b)) == "2-2z^3+2z^5+2z^6"

    def test_trivial_partner_worked_example(self):
        a = poly.BellPolynomial(2, (1, 1, 1, -1))
        b = poly.BellPolynomial(2, (2, 0, 0, 0))
        assert str(poly.bowtie(a, b)) == "3+z+z^2-z^3-z^4+z^5+z^6-z^7"

    def test_self_combination_doubles(self):
        a = poly.BellPolynomial(2, (1, 1, 1, -1))
        out = poly.bowtie(a, a)
        assert out.coeffs == (2, 2, 2, -2, 0, 0, 0, 0)

    def test_bound_condition(self):
        a = poly.BellPolynomial(2, (1, 1, 1, -1))
        b = poly.BellPolynomial(2, (1, 0, 0, 0))
        with pytest.raises(BellkitError):
            poly.bowtie(a, b)

    @pytest.mark.parametrize("n", [1, 2])
    def test_agrees_with_vector_lift_on_all_pairs(self, n):
        # oracle: (1 + z^m) A(z) + (1 - z^m) B(z) multiplied out term by term
        m = 1 << n
        plus = [1] + [0] * (m - 1) + [1]
        minus = [1] + [0] * (m - 1) + [-1]
        members = [
            poly.bell_poly(poly.UVIndex(n, u, v)) for u, v in family_indices(n)
        ]
        for a in members:
            for b in members:
                lifted = poly.bowtie(a, b)
                expanded = [x + y for x, y in zip(poly_mul(plus, list(a.coeffs)),
                                                  poly_mul(minus, list(b.coeffs)))]
                assert list(lifted.coeffs) == expanded[:2 * m]
                assert not any(expanded[2 * m:])
                assert type(lifted) is poly.BellPolynomial
                via_vectors = ineq.bowtie(a, b)
                assert type(via_vectors) is ineq.CoefficientVector
                assert via_vectors.coeffs == lifted.coeffs
                assert via_vectors.n_sites == lifted.n_sites == n + 1


class TestNormalize:
    def test_constant_member(self):
        p = poly.bell_poly(poly.UVIndex(2, 0, 0))
        normalized = poly.normalize(p)
        assert normalized.coeffs == (Fraction(1), 0, 0, 0)

    def test_values_on_unit_points(self):
        p = poly.bell_poly(poly.UVIndex(2, 0, 2))
        normalized = poly.normalize(p)
        assert sum(normalized.coeffs) == 1
        alternating = sum(
            c if i % 2 == 0 else -c for i, c in enumerate(normalized.coeffs)
        )
        assert abs(alternating) == 1

    def test_three_site_lift(self):
        p = poly.BellPolynomial(3, (2, 0, 0, -2, 0, 2, 2, 0))
        normalized = poly.normalize(p)
        assert normalized.coeffs == (
            Fraction(1, 2), 0, 0, Fraction(-1, 2),
            0, Fraction(1, 2), Fraction(1, 2), 0,
        )

    def test_rejects_non_family_scale(self):
        with pytest.raises(BellkitError):
            poly.normalize(poly.summand_poly(2, 1))

    @pytest.mark.parametrize("n_sites, coeffs", [
        (0, (Fraction(1),)),
        (-1, (Fraction(1),)),
    ])
    def test_rejects_site_counts_below_one(self, n_sites, coeffs):
        with pytest.raises(BellkitError, match="site count must be at least 1"):
            poly.NormalizedBellPolynomial(n_sites, coeffs)

    @pytest.mark.parametrize("coeffs", [
        (1.0, 0.0),
        (Fraction(1), 0.0),
        ("1", "0"),
        (None, 1),
    ])
    def test_rejects_inexact_coefficients(self, coeffs):
        # floats would make the |value| 1 checks inexact
        with pytest.raises(BellkitError, match="integers or fractions"):
            poly.NormalizedBellPolynomial(1, coeffs)

    def test_accepts_ints_and_fractions(self):
        assert poly.NormalizedBellPolynomial(1, (1, Fraction(0))).coeffs == (1, 0)


def records():
    """One of each slotted record type, built by its validating constructor."""
    return [
        poly.BellPolynomial(2, (1, 2, 0, -3)),
        poly.UVIndex(3, 5, 9),
        ineq.CoefficientVector(1, (1, 1)),
        ineq.StandardForm(2, (1, 1, 1, -1)),
    ]


class TestRecordSlots:
    """The bulk records carry no per-instance dict and still copy and pickle."""

    @pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
    def test_no_instance_dict(self, record):
        assert not hasattr(record, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.n_sites = 1

    @pytest.mark.parametrize("clone", [lambda r: pickle.loads(pickle.dumps(r)),
                                       copy.deepcopy], ids=["pickle", "deepcopy"])
    @pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
    def test_clone_keeps_type_equality_and_hash(self, record, clone):
        twin = clone(record)
        assert type(twin) is type(record)
        assert twin == record and hash(twin) == hash(record)


class TestBridge:
    """The record chain BellPolynomial <- CoefficientVector <- StandardForm.

    An inequality is a Bell polynomial with B(1) != 0, so no conversion
    functions are needed between the two views.
    """

    def test_round_trip_examples(self):
        v = ineq.CoefficientVector(2, (1, 1, 1, -1))
        assert isinstance(v, poly.BellPolynomial)
        assert str(v) == "1+z+z^2-z^3"
        p = poly.BellPolynomial(v.n_sites, v.coeffs)
        # equality still needs the same record type
        assert p != v
        assert ineq.CoefficientVector(p.n_sites, p.coeffs) == v
        assert isinstance(ineq.standard_form(p), poly.BellPolynomial)

    def test_pure_power(self):
        p = poly.BellPolynomial(2, (0, 0, 2, 0))
        assert str(p) == "2z^2"
        v = ineq.CoefficientVector(p.n_sites, p.coeffs)
        assert v.coeffs == (0, 0, 2, 0)
        assert str(v) == "2z^2"
        assert ineq.bound(p) == ineq.bound(v) == 2

    def test_round_trip_whole_table(self):
        for u, v in family_indices(2):
            p = poly.bell_poly(poly.UVIndex(2, u, v))
            vector = ineq.CoefficientVector(p.n_sites, p.coeffs)
            assert poly.BellPolynomial(vector.n_sites, vector.coeffs) == p
            assert str(vector) == str(p)
            assert ineq.bound(p) == abs(poly.evaluate(p, 1))

    def test_zero_sum_rejected_at_vector_side(self):
        p = poly.summand_poly(2, 1)
        assert poly.evaluate(p, 1) == 0
        with pytest.raises(BellkitError, match="coefficient sum is zero"):
            ineq.CoefficientVector(p.n_sites, p.coeffs)
        with pytest.raises(BellkitError, match="coefficient sum is zero"):
            ineq.bound(p)


class TestCoefficientStructure:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_zero_sign_number(self, n):
        half = 1 << (n - 1)
        for v in range(1 << half):
            coeffs = poly.bell_poly(poly.UVIndex(n, 0, v)).coeffs
            assert coeffs[0] == half - coeffs[1]
            for j in range(1, half):
                assert coeffs[2 * j] == -coeffs[2 * j + 1]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_parity_number_sum_rules(self, n):
        for u, v in family_indices(n):
            coeffs = poly.bell_poly(poly.UVIndex(n, u, v)).coeffs
            if v == 0:
                assert all(c == 0 for c in coeffs[1::2])
            if v % 2 == 0:
                assert sum(coeffs[1::2]) == 0
            else:
                assert sum(coeffs[0::2]) == 0

    @pytest.mark.parametrize("n", [2, 3])
    def test_coefficient_parity_follows_v_popcount(self, n):
        # needs 2^(n-1) even, so two sites at least
        for u, v in family_indices(n):
            coeffs = poly.bell_poly(poly.UVIndex(n, u, v)).coeffs
            if v.bit_count() % 2 == 0:
                assert all(c % 2 == 0 for c in coeffs)
            else:
                assert all(c % 2 == 1 for c in coeffs)


@functools.cache
def factored_summands(n):
    """Every s_k for n sites, expanded from its factors (no package code)."""
    exponents = [1 << (i + 1) for i in range(n - 1)]
    summands = []
    for k in range(1 << (n - 1)):
        signs = [-1 if (k >> i) & 1 else 1 for i in range(n - 1)]
        summands.append(poly_from_factors(exponents, signs))
    return summands


def member_by_expansion(n, u, v):
    """sum_k (-1)^(u_k) z^(v_k) s_k(z), one summand at a time."""
    coeffs = [0] * (1 << n)
    for k, summand in enumerate(factored_summands(n)):
        sign = -1 if (u >> k) & 1 else 1
        shift = (v >> k) & 1
        for power, c in enumerate(summand):
            coeffs[power + shift] += sign * c
    return tuple(coeffs)


class TestBellPolyExpansion:
    """``bell_poly`` (row masks) against the paper's term-by-term sum."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_pair(self, n):
        for u, v in family_indices(n):
            got = poly.bell_poly(poly.UVIndex(n, u, v)).coeffs
            assert got == member_by_expansion(n, u, v), (u, v)

    @pytest.mark.parametrize("n", range(4, 10))
    def test_seeded_pairs(self, n):
        rng = random.Random(n)
        half = 1 << (n - 1)
        for _ in range(50):
            u, v = rng.getrandbits(half), rng.getrandbits(half)
            got = poly.bell_poly(poly.UVIndex(n, u, v)).coeffs
            assert got == member_by_expansion(n, u, v), (u, v)


class TestBellPolyPaths:
    """The tabulated half spectra (N <= MATERIALIZE_MAX_SITES) and the per-call ones.

    The digests were frozen from the fused row-mask loop that ``bell_poly``
    ran before it summed P(u) + M(u XOR v): the sha256 of every member's
    comma-separated coefficients, one line each, over every (u, v) pair in
    order up to four sites and over 16 pairs drawn from
    random.Random(f"bell_poly {N}") above.
    """

    DIGESTS = json.loads(read_golden("bell_poly_sha256.json"))

    @staticmethod
    def pairs(n):
        if n <= MATERIALIZE_MAX_SITES:
            return family_indices(n)
        rng = random.Random(f"bell_poly {n}")
        half = 1 << (n - 1)
        return [(rng.getrandbits(half), rng.getrandbits(half)) for _ in range(16)]

    @pytest.mark.parametrize("n", range(1, 15))
    def test_digest(self, n):
        digest = hashlib.sha256()
        for u, v in self.pairs(n):
            coeffs = poly.bell_poly(poly.UVIndex(n, u, v)).coeffs
            digest.update((",".join(map(str, coeffs)) + "\n").encode())
        assert digest.hexdigest() == self.DIGESTS[str(n)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 9, 14])
    def test_against_butterfly(self, n):
        # the member with halves a and b is H c / 2, even powers first
        rng = random.Random(f"butterfly {n}")
        half = 1 << (n - 1)
        for _ in range(4):
            a, b = rng.getrandbits(half), rng.getrandbits(half)
            member = poly.bell_poly(poly.UVIndex(n, a, a ^ b)).coeffs
            want = butterfly(signs_of_code(a | b << half, n))
            assert tuple(2 * x for x in member[0::2] + member[1::2]) == want


class TestSignCombinationSum:
    @given(st.lists(st.integers(1, 24), min_size=1, max_size=6))
    def test_all_sign_choices_sum_to_power_of_two(self, exponents):
        n = len(exponents)
        total = [0] * (sum(exponents) + 1)
        for choice in itertools.product((1, -1), repeat=n):
            expanded = poly_from_factors(exponents, list(choice))
            for i, c in enumerate(expanded):
                total[i] += c
        assert total[0] == 1 << n
        assert all(c == 0 for c in total[1:])


def render_oracle(coeffs):
    """``render`` spelled out: sign, magnitude unless 1 off the constant, power."""
    text = ""
    for power, c in enumerate(coeffs):
        if c:
            sign = "-" if c < 0 else "+" if text else ""
            magnitude = "" if abs(c) == 1 and power else str(abs(c))
            variable = {0: "", 1: "z"}.get(power, f"z^{power}")
            text += sign + magnitude + variable
    return text or "0"


class TestRendering:
    def test_zero(self):
        assert poly.render((0, 0)) == "0"

    def test_term_rule(self):
        assert poly.term(1, "", True) == "1"
        assert poly.term(-1, "", True) == "-1"
        assert poly.term(-1, "z", False) == "-z"
        assert poly.term(12, "z^3", False) == "+12z^3"
        assert poly.term(-2, "E(1)", True, " + ", " − ") == "−2E(1)"
        assert poly.term(1, "E(1,2)", False, " + ", " − ") == " + E(1,2)"

    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=12))
    def test_matches_oracle(self, coeffs):
        assert poly.render(coeffs) == render_oracle(coeffs)

    def test_leading_negative_constant(self):
        assert poly.render((-1, 1, 1, 1)) == "-1+z+z^2+z^3"

    def test_from_ints_pads(self):
        p = poly.BellPolynomial.from_ints([3, 1])
        assert p.n_sites == 1 and p.coeffs == (3, 1)
        p = poly.BellPolynomial.from_ints([1, 2, 3])
        assert p.n_sites == 2 and p.coeffs == (1, 2, 3, 0)

    def test_from_ints_overflow(self):
        with pytest.raises(BellkitError):
            poly.BellPolynomial.from_ints([1, 2, 3], n_sites=1)


class TestRecordSiteChecks:
    """Record constructors answer any site count with a BellkitError."""

    @pytest.mark.parametrize("record", [poly.BellPolynomial, poly.NormalizedBellPolynomial])
    def test_huge_site_count_is_compared_by_bit_length(self, record):
        # 1 << 10**20 used to raise OverflowError in the check's own message,
        # and str() a ValueError past its digit limit
        with pytest.raises(BellkitError, match=r"expected 2\^100000000000000000000 "
                                               r"coefficients, got 0"):
            record(10**20, ())
        with pytest.raises(BellkitError,
                           match=r"^expected 2\^<20001-bit integer> coefficients, got 0$"):
            record((1 << 20000) + 1, ())

    @pytest.mark.parametrize("count", [0, 3, 5, 8])
    def test_wrong_length(self, count):
        with pytest.raises(BellkitError, match=f"expected 2\\^2 coefficients, got {count}"):
            poly.BellPolynomial(2, (1,) * count)

    @pytest.mark.parametrize("from_ints", [poly.BellPolynomial.from_ints,
                                           ineq.CoefficientVector.from_ints])
    @pytest.mark.parametrize("n_sites", [15, 40, 10**20])
    def test_from_ints_capped_before_padding(self, from_ints, n_sites):
        # padding to 2^40 entries used to raise MemoryError
        with pytest.raises(CapExceededError, match="capped at 14 sites"):
            from_ints([1, 1], n_sites=n_sites)

    @pytest.mark.parametrize("n_sites", [0, -1])
    def test_from_ints_needs_a_site(self, n_sites):
        with pytest.raises(BellkitError, match="site count must be at least 1"):
            poly.BellPolynomial.from_ints([1], n_sites=n_sites)

    def test_bowtie_lifts_past_the_record_cap(self):
        # the record has no cap, so two 14-site records still lift to 15 sites
        a = poly.BellPolynomial.from_ints([1], n_sites=14)
        lifted = poly.bowtie(a, a)
        assert lifted.n_sites == 15
        assert lifted.coeffs[0] == 2 and sum(lifted.coeffs) == 2
