"""Bell inequalities as exact integer coefficient vectors: the records and their text.

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
coprime entries and a positive sum. Rows built from valid input
(enumeration, transforms, orbit images) skip the re-validation.

Sign vectors are encoded as bitmasks: bit j set means c_j = -1. The
enumeration order is the numeric order of these codes.

Everything here is Python ints and loads no numpy; the batched half of
the family (enumeration, batch text, the relabeling group) is
``inequality``, which re-exports these names.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from functools import lru_cache

from . import polynomial
from .errors import BellkitError
from .limits import RECORD_MAX_SITES, check_index, check_integers, check_sites
from .polynomial import BellPolynomial

MINUS = "−"  # sign used by the traditional rendering
LEQ = "≤"


class CoefficientVector(BellPolynomial):
    """One Bell inequality: a Bell polynomial B with B(1) != 0.

    Vectors with coefficient sum zero are rejected outright; no member
    of the generated family has one, so accepting them would only mask
    caller bugs.
    """

    __slots__ = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if sum(self.coeffs) == 0:
            raise BellkitError("coefficient sum is zero: not a Bell inequality")

    @classmethod
    def from_ints(cls, values: Iterable[int],
                  n_sites: int | None = None) -> "CoefficientVector":
        """Build from integers; without n_sites there must be 2^N of them."""
        if n_sites is not None:
            return super().from_ints(values, n_sites)
        coeffs = tuple(check_integers("coefficients", values))
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

    __slots__ = ()

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
    """Per-site observable digits of index k in [0, 2^n_sites), site 1 first."""
    n_sites = check_sites("setting digits", n_sites, RECORD_MAX_SITES, least=0)
    k = check_index("index", k, 1 << n_sites)
    return tuple((k >> (n_sites - 1 - i)) & 1 for i in range(n_sites))


def sign_vector_from_code(code: int, n_sites: int) -> tuple[int, ...]:
    """Decode a bitmask into the sign vector c (bit j set -> c_j = -1)."""
    n_sites = check_sites("sign vectors", n_sites, RECORD_MAX_SITES)
    length = 1 << n_sites
    code = check_index("code", code, 1 << length)
    return tuple(1 - 2 * ((code >> j) & 1) for j in range(length))


def from_sign_vector(c: Sequence[int]) -> CoefficientVector:
    """Coefficients of the inequality selected by the sign vector c.

    H c: even entries, |entry| <= 2^N and sum +-2^N. With a and b the
    codes of the halves of c it is [W(a) + W(b), W(a) - W(b)], twice
    ``polynomial.bell_poly`` of (u, v) = (a, a XOR b), even powers first.
    """
    signs = check_integers("sign vector entries", c)
    n = (len(signs) - 1).bit_length()
    if len(signs) < 2 or len(signs) != 1 << n:
        raise BellkitError("sign vector length must be a power of two >= 2")
    check_sites("sign vectors", n, RECORD_MAX_SITES)
    if not {*signs} <= {1, -1}:
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


def reverse_observables(v: CoefficientVector | Sequence[int]) -> CoefficientVector:
    """Swap the observable labels 1 and 2 everywhere: reverse the vector."""
    v = _as_vector(v)
    return CoefficientVector._trusted(v.n_sites, v.coeffs[::-1])
