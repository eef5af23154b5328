"""Acceptance suite: one test (and one printed line) per criterion.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the line per
criterion; timing budgets are asserted inside the tests.
"""
import itertools
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from bellkit import analysis, hadamard, inequality as ineq, kernels, lhv
from bellkit import polynomial as poly
from conftest import read_golden

BASE = [sys.executable, "-m", "bellkit"]

H4_DISPLAY = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]


def _pass(number: int, label: str) -> None:
    print(f"PASS criterion {number:02d}: {label}")


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    """Run each kernel and one CLI command before the timed sections.

    First-call costs (imports, a cold file cache) then do not count
    against the runtime budgets.
    """
    ineq.from_sign_vector([1, 1, 1, -1])
    kernels.classify_batch(np.arange(4, dtype=np.int64), 4)
    kernels.lhv_max_range(np.array([1, 1, 1, -1], np.int64), 2, 0, 2)
    subprocess.run(BASE + ["classify", "--n", "1"], capture_output=True,
                   check=True)


def test_criterion_01_hadamard_fidelity():
    start = time.perf_counter()
    out = subprocess.run(BASE + ["hadamard", "--n", "2", "--format", "json"],
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout)["payload"]["entries"] == H4_DISPLAY
    ascii_out = subprocess.run(BASE + ["hadamard", "--n", "2"],
                               capture_output=True, text=True, check=True)
    assert ascii_out.stdout == read_golden("hadamard_n2_ascii.txt")
    for n in range(11):
        entries = hadamard.build(n).entries.astype(np.float64)
        # exact: entries are +-1 and row sums stay far below 2**53
        product = entries @ entries.T
        assert (product == (1 << n) * np.eye(1 << n)).all()
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _pass(1, f"H4 reproduced, orthogonality to 10 sites in {elapsed:.2f}s")


def test_criterion_02_chsh_generation():
    raw = ineq.from_sign_vector((-1, 1, 1, 1))
    assert raw.coeffs == (2, -2, -2, -2)
    halved = ineq.CoefficientVector(2, tuple(c // 2 for c in raw.coeffs))
    rendered = ineq.to_traditional(halved)
    assert rendered + "\n" == read_golden("chsh_traditional.txt")
    _pass(2, "CHSH coefficients and byte-exact traditional rendering")


def test_criterion_03_bowtie_worked_examples():
    first = ineq.bowtie((1, 1, 1, -1), (1, -1, -1, -1))
    assert first.coeffs == (2, 0, 0, -2, 0, 2, 2, 0)
    second = ineq.bowtie((1, 1, 1, -1), (2, 0, 0, 0))
    assert second.coeffs == (3, 1, 1, -1, -1, 1, 1, -1)
    a = poly.BellPolynomial(2, (1, 1, 1, -1))
    assert str(poly.bowtie(a, poly.BellPolynomial(2, (1, -1, -1, -1)))) \
        == "2-2z^3+2z^5+2z^6"
    assert str(poly.bowtie(a, poly.BellPolynomial(2, (2, 0, 0, 0)))) \
        == "3+z+z^2-z^3-z^4+z^5+z^6-z^7"
    _pass(3, "both lift examples exact on vectors and polynomials")


def test_criterion_04_completeness_cross_check():
    start = time.perf_counter()
    for n, expected in ((2, 16), (3, 256)):
        half = 1 << (n - 1)
        family = {
            poly.bell_poly(poly.UVIndex(n, u, v)).coeffs
            for u in range(1 << half) for v in range(1 << half)
        }
        halved = {
            tuple(c // 2 for c in v.coeffs)
            for _, v in ineq.enumerate_inequalities(n)
        }
        assert len(family) == len(halved) == expected
        assert family == halved
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _pass(4, f"index family equals sign-vector family in {elapsed:.2f}s")


def test_criterion_05_two_site_table():
    for line in read_golden("buv_table_n2.txt").splitlines():
        u, v, text = line.split(" ", 2)
        assert str(poly.bell_poly(poly.UVIndex(2, int(u), int(v)))) == text
    _pass(5, "all sixteen two-site polynomials match the table")


def test_criterion_06_four_site_examples():
    even = poly.bell_poly(poly.UVIndex(4, 14, 0))
    assert even.coeffs == (2, 0, 2, 0, 2, 0, 2, 0, -6, 0, 2, 0, 2, 0, 2, 0)
    full = poly.bell_poly(poly.UVIndex(4, 0, 14))
    assert full.coeffs == (5, 3, 1, -1, 1, -1, 1, -1, -3, 3, 1, -1, 1, -1, 1, -1)
    assert analysis.term_count(full.coeffs) == 16
    _pass(6, "four-site examples coefficient-exact")


def test_criterion_07_coefficient_structure_suite():
    start = time.perf_counter()
    for n in (1, 2, 3, 4):
        half = 1 << (n - 1)
        all_ones = (1 << half) - 1

        # summand coefficient facts
        assert set(poly.summand_poly(n, 0).coeffs[0::2]) == {1}
        summed = [0] * (1 << n)
        for k in range(half):
            coeffs = poly.summand_poly(n, k).coeffs
            if k > 0:
                evens = coeffs[0::2]
                assert sum(1 for c in evens if c == 1) == len(evens) // 2
            for i, c in enumerate(coeffs):
                summed[i] += c
        assert summed[0] == half and all(c == 0 for c in summed[1:])

        for u, v in itertools.product(range(1 << half), repeat=2):
            coeffs = poly.bell_poly(poly.UVIndex(n, u, v)).coeffs
            # evaluation identities
            assert sum(coeffs) == (-1 if u & 1 else 1) * half
            alternating = sum(c if i % 2 == 0 else -c
                              for i, c in enumerate(coeffs))
            assert alternating == (-1 if (u ^ v) & 1 else 1) * half
            assert coeffs[0] == sum(
                (-1 if (u >> k) & 1 else 1) * (1 - ((v >> k) & 1))
                for k in range(half)
            )
            # coefficient structure rules
            if u == 0:
                assert coeffs[0] == half - coeffs[1]
                for j in range(1, half):
                    assert coeffs[2 * j] == -coeffs[2 * j + 1]
            if v == 0:
                assert all(c == 0 for c in coeffs[1::2])
            if v % 2 == 0:
                assert sum(coeffs[1::2]) == 0
            else:
                assert sum(coeffs[0::2]) == 0
            if n >= 2:  # parity rule needs an even summand count
                parity = v.bit_count() & 1
                assert all(c % 2 == parity for c in coeffs)
            # even/odd characterization
            assert (v == 0) == all(c == 0 for c in coeffs[1::2])
            assert (v == all_ones) == all(c == 0 for c in coeffs[0::2])
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _pass(7, f"structure suite exhaustive to 4 sites in {elapsed:.2f}s")


def test_criterion_08_lhv_tightness():
    start = time.perf_counter()
    for n in (1, 2, 3, 4):
        for _, v in ineq.enumerate_inequalities(n):
            assert lhv.max_lhv(v) == 1 << n
    for coeffs in ((1, 1, 1, -1), (1, 0, 0, -1, 0, 1, 1, 0)):
        sf = ineq.standard_form(coeffs)
        assert ineq.bound(sf) == 2
        assert lhv.is_tight(sf, 2)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _pass(8, f"every member to 4 sites tight at the raw scale in {elapsed:.2f}s")


def test_criterion_09_counting():
    for n in (2, 3):
        report = analysis.classify(n)
        assert report.trivial_classes == 1 << n
        assert 2 * report.full_term == report.total
    for n in (1, 2, 3, 4):
        report = analysis.classify(n)
        expected = math.comb(1 << n, 1 << (n - 1))
        assert all(c == expected for c in report.zero_counts)
    ratio = float(analysis.zero_probability(8)) \
        / analysis.zero_probability_asymptotic(8)
    assert 0.9 <= ratio <= 1.1
    for n in range(2, 7):
        assert analysis.verify_binomial_identity(n)
    _pass(9, "trivial/full-term/zero counts and exact identity verified")


def test_criterion_10_max_b0_construction():
    members = analysis.max_b0_family(3, 0)
    golden = read_golden("max_b0_n3.txt").splitlines()
    assert {str(p) for p in members} == set(golden)
    assert len(members) == 7
    reversed_family = {p.coeffs for p in analysis.max_b0_family(3, 1)}
    via_reverse = {
        ineq.reverse_observables(p).coeffs
        for p in members
    }
    assert reversed_family == via_reverse
    for p in members:
        assert analysis.term_count(p.coeffs) == 8
        assert all(c % 2 == 1 for c in p.coeffs)
        assert lhv.is_tight(p, 4)
    _pass(10, "seven members exact, reversal closes the second family")


def test_criterion_11_singlet_fixture():
    table = lhv.expectation_table()
    for i in range(3):
        for j in range(3):
            expected = 1.0 if i == j else -0.5
            assert abs(table[i, j] - expected) <= 1e-12
    rng = np.random.default_rng(2024)
    for phi in rng.uniform(-2 * math.pi, 2 * math.pi, size=100):
        assert abs(lhv.tilt_identity(float(phi))) < 1e-12
    _pass(11, "singlet table and tilt identity within 1e-12")


def test_criterion_12_scale_check():
    start = time.perf_counter()
    out = subprocess.run(BASE + ["enum", "--n", "4"], capture_output=True,
                         text=True, check=True)
    enum_elapsed = time.perf_counter() - start
    lines = out.stdout.splitlines()
    assert len(lines) == 65536
    for probe in (lines[0], lines[4095], lines[-1]):
        payload = json.loads(probe)["payload"]
        assert payload["bound"] == 16
        assert 1 <= payload["terms"] <= 16
    assert enum_elapsed < 60.0

    classify_args = BASE + ["classify", "--n", "5", "--sample", "10000000",
                            "--seed", "1"]
    start = time.perf_counter()
    first = subprocess.run(classify_args, capture_output=True, text=True,
                           check=True)
    classify_elapsed = time.perf_counter() - start
    assert classify_elapsed < 600.0
    second = subprocess.run(classify_args, capture_output=True, text=True,
                            check=True)
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)["payload"]
    assert payload["total"] == 10_000_000
    assert payload["mode"] == "sample"
    _pass(12, f"enum n=4 in {enum_elapsed:.1f}s, "
              f"classify n=5 sample in {classify_elapsed:.1f}s, reproducible")
