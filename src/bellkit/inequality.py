"""Correlation Bell inequalities as exact integer coefficient vectors.

A coefficient vector (b_0, ..., b_{2^N-1}) encodes the constraint

    |sum_k b_k E(k)| <= |sum_k b_k|

on the full-correlation expectation values E(k) of N sites with two
+-1-valued observables each. The index k is read as N binary digits,
site 1 first (most significant); digit d_i selects the observable used
at site i. The complete family for N sites is generated by applying the
order-2^N Sylvester transform to every +-1 sign vector c; such raw
vectors have even entries and coefficient sum +-2^N.

``CoefficientVector`` is a ``polynomial.BellPolynomial`` whose value at
z = 1, the coefficient sum, is nonzero; ``StandardForm`` further has
coprime entries and a positive sum. Rows built here from valid input
(enumeration, transforms, orbit images) skip the re-validation.

Sign vectors are encoded as bitmasks: bit j set means c_j = -1. The
enumeration order is the numeric order of these codes.

Relabeling the experiment acts on the coefficients as one group:

* permuting sites permutes the index digits,
* relabeling the two observables at a site flips that site's digit,
* flipping the outcome signs of one observable at one site negates all
  coefficients whose digit there selects that observable,
* global negation.

Together these are all maps b'(k) = sigma(k) * b(g(k)) with g a digit
permutation followed by an XOR translation (n! * 2^n index maps) and
sigma a row of +-H_n (2^(n+1) sign rows), n! * 2^n * 2^(n+1) elements
in all (245,760 at five sites). ``symmetry_orbit`` and ``canonical``
apply that whole group as two cached integer tables, up to five sites.
"""
from __future__ import annotations

import itertools
import math
import numbers
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache

import numpy as np

from . import hadamard, kernels, limits, polynomial
from .errors import BellkitError
from .limits import (MATERIALIZE_MAX_SITES, ORBIT_MAX_SITES, RECORD_MAX_SITES,
                     STREAM_MAX_SITES, check_sites)
from .polynomial import BellPolynomial

MINUS = "−"  # sign used by the traditional rendering
LEQ = "≤"


class CoefficientVector(BellPolynomial):
    """One Bell inequality: a Bell polynomial B with B(1) != 0.

    Vectors with coefficient sum zero are rejected outright; no member
    of the generated family has one, so accepting them would only mask
    caller bugs.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        if sum(self.coeffs) == 0:
            raise BellkitError("coefficient sum is zero: not a Bell inequality")

    @classmethod
    def from_ints(cls, values: Iterable[int],
                  n_sites: int | None = None) -> "CoefficientVector":
        """Build from a plain sequence; without n_sites its length must be 2^N."""
        if n_sites is not None:
            return super().from_ints(values, n_sites)
        coeffs = tuple(int(v) for v in values)
        return cls(site_count(len(coeffs)), coeffs)


def site_count(n_coeffs: int) -> int:
    """N for 2^N coefficients; other counts are an error."""
    n = (n_coeffs - 1).bit_length()
    if n_coeffs < 2 or n_coeffs != 1 << n:
        raise BellkitError(
            f"coefficient count must be a power of two >= 2, got {n_coeffs}"
        )
    return n


class StandardForm(CoefficientVector):
    """Coefficient vector with coprime entries and positive sum."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if math.gcd(*(abs(c) for c in self.coeffs)) != 1:
            raise BellkitError("standard form requires coprime coefficients")
        if sum(self.coeffs) < 0:
            raise BellkitError("standard form requires a positive coefficient sum")


def _as_vector(v: BellPolynomial | Sequence[int]) -> CoefficientVector:
    if isinstance(v, CoefficientVector):
        return v
    if isinstance(v, BellPolynomial):
        return CoefficientVector(v.n_sites, v.coeffs)
    return CoefficientVector.from_ints(v)


def setting_digits(k: int, n_sites: int) -> tuple[int, ...]:
    """Per-site observable digits of index k, site 1 first."""
    return tuple((k >> (n_sites - 1 - i)) & 1 for i in range(n_sites))


def sign_vector_from_code(code: int, n_sites: int) -> tuple[int, ...]:
    """Decode a bitmask into the sign vector c (bit j set -> c_j = -1)."""
    check_sites("sign vectors", n_sites, RECORD_MAX_SITES)
    length = 1 << n_sites
    if not 0 <= code < (1 << length):
        raise BellkitError(f"code {code} out of range for {n_sites} sites")
    return tuple(1 - 2 * ((code >> j) & 1) for j in range(length))


def from_sign_vector(c: Sequence[int]) -> CoefficientVector:
    """Coefficients of the inequality selected by the sign vector c.

    H c: even entries, |entry| <= 2^N and sum +-2^N. With a and b the
    codes of the halves of c it is [W(a) + W(b), W(a) - W(b)], twice
    ``polynomial.bell_poly`` of (u, v) = (a, a XOR b), even powers first.
    """
    signs = tuple(c)
    n = (len(signs) - 1).bit_length()
    if len(signs) < 2 or len(signs) != 1 << n:
        raise BellkitError("sign vector length must be a power of two >= 2")
    check_sites("sign vectors", n, RECORD_MAX_SITES)
    if not all(isinstance(x, numbers.Real) and x in (1, -1) for x in signs):
        raise BellkitError("sign vector entries must be +1 or -1")
    code = int("".join("1" if x == -1 else "0" for x in reversed(signs)), 2)
    half = len(signs) // 2
    a, b = code & ((1 << half) - 1), code >> half
    member = polynomial.bell_poly(polynomial.UVIndex(n, a, a ^ b)).coeffs
    even_first = member[0::2] + member[1::2]
    return CoefficientVector._trusted(n, tuple(2 * x for x in even_first))


def bound(v: CoefficientVector | Sequence[int]) -> int:
    """Right-hand side |sum_k b_k| of the inequality (scale-covariant)."""
    return abs(sum(_as_vector(v).coeffs))


def standard_form(v: CoefficientVector | Sequence[int]) -> StandardForm:
    """Divide by the gcd and orient the sum positive. Idempotent."""
    v = _as_vector(v)
    g = math.gcd(*(abs(c) for c in v.coeffs))
    coeffs = tuple(c // g for c in v.coeffs)
    if sum(coeffs) < 0:
        coeffs = tuple(-c for c in coeffs)
    return StandardForm._trusted(v.n_sites, coeffs)


def bowtie(a: CoefficientVector | Sequence[int],
           b: CoefficientVector | Sequence[int]) -> CoefficientVector:
    """Lift two N-site inequalities of equal bound to one (N+1)-site one.

    ``polynomial.bowtie`` on the two vectors: pairwise sums, then pairwise
    differences. The callers must pre-scale the arguments to equal
    |coefficient sum|. The lift sums to twice a's sum, so it is never
    zero, but standard forms can lift to even entries: a is passed on as
    a plain vector, so the lift is one too.
    """
    a, b = _as_vector(a), _as_vector(b)
    return polynomial.bowtie(CoefficientVector(a.n_sites, a.coeffs), b)


def coefficient_batches(n_sites: int, *,
                        stream: bool = False) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (first code, int64 rows) for every sign vector, in code order.

    Row i of a batch is the raw coefficient vector of code start + i; a
    batch holds ``limits.ENUM_BATCH_ROWS`` codes, the last one possibly
    fewer. Materializing is reasonable up to N = 4 (65 536 rows); N = 5 means
    2^32 rows and must be requested explicitly with ``stream=True``.
    The checks run when the first batch is requested.
    """
    check_sites("enumeration", n_sites, STREAM_MAX_SITES)
    if n_sites > MATERIALIZE_MAX_SITES and not stream:
        raise BellkitError(
            f"{n_sites} sites means 2^{1 << n_sites} items; pass stream=True"
        )

    total = 1 << (1 << n_sites)
    step = limits.ENUM_BATCH_ROWS
    for start in range(0, total, step):
        codes = np.arange(start, min(start + step, total), dtype=np.int64)
        yield start, kernels.sylvester_rows(codes, 1 << n_sites)


def enumerate_inequalities(n_sites: int, *, stream: bool = False
                           ) -> Iterator[tuple[int, CoefficientVector]]:
    """Yield (code, vector) for every sign vector, in code order.

    The records of ``coefficient_batches``, which takes the same
    arguments and makes the same checks.
    """
    for start, block in coefficient_batches(n_sites, stream=stream):
        for code, row in enumerate(block.tolist(), start):
            yield code, CoefficientVector._trusted(n_sites, tuple(row))


def _standard_rows(block: np.ndarray) -> np.ndarray:
    """``standard_form`` of every row of an int64 block with nonzero row sums."""
    rows = block // np.gcd.reduce(block, axis=1)[:, None]
    rows[rows.sum(axis=1) < 0] *= -1
    return rows


@lru_cache(maxsize=None)
def _setting_labels(n_sites: int) -> tuple[str, ...]:
    """The term label E(d_1,...,d_N) of every index, digits 1-based."""
    return tuple("E(" + ",".join(str(d + 1) for d in setting_digits(k, n_sites)) + ")"
                 for k in range(1 << n_sites))


def to_traditional(v: CoefficientVector | Sequence[int]) -> str:
    """Render with 1-based observable digits, e.g. |E(1,1) - E(1,2)| <= 2."""
    v = _as_vector(v)
    terms = [(c, label) for c, label in zip(v.coeffs, _setting_labels(v.n_sites)) if c]
    text = "".join(polynomial.term(c, label, i == 0, " + ", f" {MINUS} ")
                   for i, (c, label) in enumerate(terms))
    return f"|{text}| {LEQ} {bound(v)}"


@lru_cache(maxsize=None)
def _term_table(n_sites: int) -> np.ndarray:
    """``kernels.token_table`` of every term c E(k) of n sites, |c| <= 2^n.

    Row (k * (2^(n+1) + 1) + c + 2^n) * 2 + first is the term c E(k) of
    ``to_traditional``, and the empty token for c = 0.
    """
    v = 1 << n_sites
    return kernels.token_table([polynomial.term(c, label, first, " + ", f" {MINUS} ")
                                if c else ""
                                for label in _setting_labels(n_sites)
                                for c in range(-v, v + 1) for first in (False, True)])


def _traditional_terms(block: np.ndarray) -> np.ndarray:
    """The terms of every row of an int64 block as one byte matrix.

    Entries lie in [-2^n, 2^n] and every row has a nonzero one; the
    matrix is the text between the bars of ``to_traditional``.
    """
    n_sites = site_count(block.shape[1])
    v = 1 << n_sites
    positions = np.arange(block.shape[1])
    first = positions == (block != 0).argmax(axis=1)[:, None]
    index = (positions * (2 * v + 1) + block + v) * 2 + first
    return kernels.lookup(_term_table(n_sites), index)


def reverse_observables(v: CoefficientVector | Sequence[int]) -> CoefficientVector:
    """Swap the observable labels 1 and 2 everywhere: reverse the vector."""
    v = _as_vector(v)
    return CoefficientVector._trusted(v.n_sites, v.coeffs[::-1])


# -- relabeling group ---------------------------------------------------------

@lru_cache(maxsize=None)
def _relabelings(n_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """The relabeling group of n sites as two read-only int64 tables.

    Every relabeling maps b to b'(k) = sigma(k) * b(g(k)). ``index_maps``
    has shape (n!, 2^n, 2^n): entry [p, t, k] is g(k) for the site
    permutation p of the index digits followed by the translation k ^ t
    (the observable swaps). ``sign_rows`` has shape (2^(n+1), 2^n): the
    rows of +-H_n (the value flips, with and without global negation).
    """
    order = 1 << n_sites
    ks = np.arange(order, dtype=np.int64)
    weights = 1 << np.arange(n_sites - 1, -1, -1, dtype=np.int64)
    digits = (ks[:, None] >> (n_sites - 1 - np.arange(n_sites))) & 1
    permuted = np.array([digits[:, list(perm)] @ weights
                         for perm in itertools.permutations(range(n_sites))])
    index_maps = permuted[:, None, :] ^ ks[None, :, None]
    h = hadamard.build(n_sites).entries.astype(np.int64)
    sign_rows = np.concatenate([h, -h])
    index_maps.flags.writeable = False
    sign_rows.flags.writeable = False
    return index_maps, sign_rows


def _orbit_blocks(v: CoefficientVector) -> tuple[int, Iterator[np.ndarray]]:
    """The gcd of v and the orbit of v / gcd, one site permutation at a time.

    Each block holds the 2^(n+1) * 2^n images under one site permutation
    combined with every translation and sign row (repeats included).
    """
    check_sites("symmetry orbits", v.n_sites, ORBIT_MAX_SITES)
    g = math.gcd(*v.coeffs)
    reduced = [c // g for c in v.coeffs]
    # every image entry and row sum is bounded by sum |b_k|
    if sum(abs(c) for c in reduced) >= 1 << 63:
        raise BellkitError(
            "symmetry orbits need the sum of |coefficients| / gcd below 2^63"
        )
    b = np.array(reduced, dtype=np.int64)
    index_maps, sign_rows = _relabelings(v.n_sites)
    # an image sums to +-(H b)[a] for some a, and every a occurs
    if not np.all(sign_rows @ b):
        raise BellkitError("coefficient sum is zero: not a Bell inequality")
    blocks = ((sign_rows[:, None, :] * b[perm_maps][None]).reshape(-1, len(b))
              for perm_maps in index_maps)
    return g, blocks


def symmetry_orbit(v: CoefficientVector | Sequence[int]) -> frozenset[CoefficientVector]:
    """Every relabeling of v: site permutations, observable swaps, value flips, negation."""
    v = _as_vector(v)
    g, blocks = _orbit_blocks(v)
    rows = set()
    for block in blocks:
        rows.update(map(tuple, block.tolist()))
    return frozenset(CoefficientVector._trusted(v.n_sites, tuple(g * c for c in row))
                     for row in rows)


def canonical(v: CoefficientVector | Sequence[int]) -> StandardForm:
    """Lexicographically smallest standard form over the symmetry orbit.

    The orbit is closed under negation and every image has the gcd of
    v, so the standard forms are the images of v / gcd with positive sum.
    """
    v = _as_vector(v)
    _, blocks = _orbit_blocks(v)
    best = None
    for block in blocks:
        rows = block[block.sum(axis=1) > 0]
        for j in range(rows.shape[1]):
            rows = rows[rows[:, j] == rows[:, j].min()]
            if len(rows) == 1:
                break
        candidate = tuple(rows[0].tolist())
        if best is None or candidate < best:
            best = candidate
    return StandardForm._trusted(v.n_sites, best)
