"""The single-variable polynomial view of Bell inequalities.

A coefficient vector (b_0, ..., b_{2^N-1}) is read as the polynomial
B(z) = sum_k b_k z^k. The whole family for N sites decomposes into
2^(N-1) summand polynomials

    s_k(z) = (1 +- z^(2^(N-1))) (1 +- z^(2^(N-2))) ... (1 +- z^2),

where the signs are the bits of k (low factor exponent 2 driven by bit
0). Each s_k is even with +-1 coefficients and degree 2^N - 2. Every
member of the family is then

    B(z) = sum_k (-1)^(u_k) z^(v_k) s_k(z)

for a pair (u, v) of 2^(N-1)-bit integers: the "sign number" u chooses
each summand's sign, the "parity number" v whether it lands on even or
odd powers. Bit k of u and v (least significant = k = 0) drives summand
k. Useful consequences, all exact:

    B(1)  = (-1)^(u_0) 2^(N-1)
    B(-1) = (-1)^(u_0 + v_0) 2^(N-1)
    B(0)  = sum_k (-1)^(u_k) (1 - v_k)
    -B    has index (u with all bits flipped, v)
    B(-z) has index (u XOR v, v)

Summand k is column k of the order-2^(N-1) sign matrix H spread onto the
even powers, so with sigma = (-1)^u bitwise the even coefficients of B
are H sigma(1 - v) and the odd ones H sigma v. Writing W(c) for the
(N-1)-site transform of the sign-vector code c (entry i is
2^(N-1) - 2 popcount(c XOR r_i), r_i the -1 mask of row i), that is

    B_(u,v) = interleave(W(u) + W(u XOR v), W(u) - W(u XOR v)) / 2,

even coefficients first. With d_c,i = popcount(c XOR r_i), r_i the row
masks of ``hadamard.sylvester_masks``, that is the row F(a, b) of the
pairs (2^(N-1) - d_a,i - d_b,i, d_b,i - d_a,i) for a = u, b = u XOR v.
F is a term in a plus a term in b, so it is one vector sum of two half
spectra, B_(u,v) = P(u) + M(u XOR v), with P(a) = F(a, 0) - F(0, 0) and
M(b) = F(0, b). Up to ``MATERIALIZE_MAX_SITES`` sites (halves of at most
8 bits) ``bell_poly`` adds P and M from per-length tables of at most 256
rows each, built on first use; above that it computes F(a, b) on every
call and caches nothing, since one 14-site row alone holds 2^14 ints.
``gen`` reads the N-site transform of a code with halves a and b off
B_(a, a XOR b).

``BellPolynomial`` is also the base of the coefficient-vector records in
``coefficients``: an inequality is a Bell polynomial with B(1) != 0.
Everything here uses exact integer (or dyadic rational) arithmetic.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub

from . import hadamard
from .errors import BellkitError
from .limits import (MATERIALIZE_MAX_SITES, RECORD_MAX_SITES, check_index,
                     check_integer, check_integers, check_sites, int_text)


def _check_shape(record) -> None:
    """Store the record's site count as an int and check its coefficient count.

    numpy ints pass; a site count such as 2.0 or "2" is a BellkitError.
    """
    object.__setattr__(record, "n_sites", check_integer("site count", record.n_sites))
    if record.n_sites < 1:
        raise BellkitError("site count must be at least 1")
    # compared by bit length: a huge n_sites never computes 1 << n_sites
    count = len(record.coeffs)
    if count.bit_length() != record.n_sites + 1 or count & (count - 1):
        raise BellkitError(f"expected 2^{int_text(record.n_sites)} coefficients, got {count}")


@dataclass(frozen=True, slots=True)
class BellPolynomial:
    """Integer polynomial of degree < 2^n_sites, stored densely."""

    n_sites: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_shape(self)
        # map over the C-level check: records are built by the thousand
        if not all(map(int.__instancecheck__, self.coeffs)):
            raise BellkitError("coefficients must be integers")

    @classmethod
    def from_ints(cls, values, n_sites: int | None = None) -> "BellPolynomial":
        """Build from ascending integers, zero-padding to length 2^n.

        numpy ints pass; floats and strings are a BellkitError.
        """
        coeffs = check_integers("coefficients", values)
        if n_sites is None:
            n_sites = max(1, (len(coeffs) - 1).bit_length())
        n_sites = check_sites("polynomial records", n_sites, RECORD_MAX_SITES)
        length = 1 << n_sites
        if len(coeffs) > length:
            raise BellkitError(f"{len(coeffs)} coefficients exceed degree < {length}")
        coeffs += [0] * (length - len(coeffs))
        return cls(n_sites, tuple(coeffs))

    @classmethod
    def _trusted(cls, n_sites: int, coeffs: tuple[int, ...]) -> "BellPolynomial":
        """Build without any check: only for rows valid by construction."""
        # the slot descriptors bypass the frozen __setattr__, and they are
        # inherited by every record subtype
        record = object.__new__(cls)
        _set_sites(record, n_sites)
        _set_coeffs(record, coeffs)
        return record

    def __str__(self) -> str:
        return render(self.coeffs)


_set_sites = BellPolynomial.n_sites.__set__
_set_coeffs = BellPolynomial.coeffs.__set__


def term(c: int, label: str, first: bool, plus: str = "+", minus: str = "-") -> str:
    """One nonzero term of a sum, "+2z^3" or, with other signs, " − E(1,2)".

    A first term keeps only a stripped minus; the magnitude 1 is written
    only for the constant term, whose label is empty.
    """
    if first:
        sign = minus.strip() if c < 0 else ""
    else:
        sign = plus if c > 0 else minus
    return sign + ("" if abs(c) == 1 and label else str(abs(c))) + label


def power_label(power: int) -> str:
    """The label of z^power in a term: empty for 1, bare z for power 1."""
    return "" if power == 0 else "z" if power == 1 else f"z^{power}"


def render(coeffs) -> str:
    """Ascending-power text form: explicit signs, bare z for power 1."""
    terms = [(c, power_label(power)) for power, c in enumerate(coeffs) if c]
    return "".join(term(c, label, i == 0) for i, (c, label) in enumerate(terms)) or "0"


@dataclass(frozen=True, slots=True)
class UVIndex:
    """Sign number u and parity number v, each with 2^(n_sites-1) bits."""

    n_sites: int
    u: int
    v: int

    def __init__(self, n_sites: int, u: int, v: int) -> None:
        # exact ints in range, the common case, skip the calls; the slot
        # descriptors bypass the frozen __setattr__
        if not (type(n_sites) is int and type(u) is int and type(v) is int
                and 1 <= n_sites <= RECORD_MAX_SITES):
            n_sites = check_sites("family construction", n_sites, RECORD_MAX_SITES)
            u, v = check_integer("u", u), check_integer("v", v)
        limit = 1 << (1 << (n_sites - 1))
        if not (0 <= u < limit and 0 <= v < limit):
            raise BellkitError(f"u and v must lie in [0, {limit}) for {n_sites} sites")
        _set_index_sites(self, n_sites)
        _set_u(self, u)
        _set_v(self, v)

    @property
    def summands(self) -> int:
        return 1 << (self.n_sites - 1)


_set_index_sites = UVIndex.n_sites.__set__
_set_u = UVIndex.u.__set__
_set_v = UVIndex.v.__set__


def summand_poly(n_sites: int, k: int) -> BellPolynomial:
    """The k-th summand polynomial: even, +-1 coefficients, degree 2^N - 2."""
    n_sites = check_sites("summand construction", n_sites, RECORD_MAX_SITES)
    k = check_index("summand index", k, 1 << (n_sites - 1))
    coeffs = [0] * (1 << n_sites)
    coeffs[0::2] = (hadamard.entry(j, k) for j in range(1 << (n_sites - 1)))
    return BellPolynomial(n_sites, tuple(coeffs))


def column_poly(n_sites: int, k: int) -> BellPolynomial:
    """Column k of the order-2^N sign matrix read as a polynomial.

    All 2^N rows contribute one power each; with that full range the
    substitution z -> z^2 turns column k at n-1 sites into summand k at
    n sites.
    """
    n_sites = check_sites("column construction", n_sites, RECORD_MAX_SITES)
    length = 1 << n_sites
    k = check_index("column index", k, length)
    coeffs = tuple(hadamard.entry(j, k) for j in range(length))
    return BellPolynomial(n_sites, coeffs)


def _member_row(a: int, b: int, half: int) -> tuple[int, ...]:
    """F(a, b): the pairs (half - d_a,i - d_b,i, d_b,i - d_a,i), d_c,i = popcount(c XOR r_i)."""
    coeffs = []
    for r in hadamard.sylvester_masks(half):
        da, db = (a ^ r).bit_count(), (b ^ r).bit_count()
        coeffs += (half - da - db, db - da)
    return tuple(coeffs)


@functools.cache
def _half_tables(n_sites: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The half spectra P(a) = F(a, 0) - F(0, 0) and M(b) = F(0, b) of every half code.

    F is a term in a plus a term in b, so P(a) + M(b) = F(a, b). At most
    256 rows of 16 ints each, for halves of at most 8 bits.
    """
    half = 1 << (n_sites - 1)
    zero = _member_row(0, 0, half)
    codes = range(1 << half)
    return (tuple(tuple(map(sub, _member_row(c, 0, half), zero)) for c in codes),
            tuple(_member_row(0, c, half) for c in codes))


def bell_poly(index: UVIndex) -> BellPolynomial:
    """Family member for (u, v): signed summands, shifted onto odd powers.

    With sigma = (-1)^u and tau = (-1)^(u XOR v) bitwise, sigma(1 - v) is
    (sigma + tau) / 2 and sigma v is (sigma - tau) / 2, so

        B_(u,v) = interleave(W(u) + W(u XOR v), W(u) - W(u XOR v)) / 2

    with W(c)[i] = 2^(N-1) - 2 d_c, d_c = popcount(c XOR r_i) the Hamming
    distance to row mask r_i. Halved, the pair (2i, 2i + 1) is
    (2^(N-1) - d_a - d_b, d_b - d_a) for a = u and b = u XOR v: the row
    F(a, b) of ``_member_row``. Up to ``MATERIALIZE_MAX_SITES`` sites it
    is the sum P(a) + M(b) of two tabulated half spectra.
    """
    n, a = index.n_sites, index.u
    b = a ^ index.v
    if n <= MATERIALIZE_MAX_SITES:
        p_table, m_table = _half_tables(n)
        coeffs = tuple(map(add, p_table[a], m_table[b]))
    else:
        coeffs = _member_row(a, b, 1 << (n - 1))
    return BellPolynomial._trusted(n, coeffs)


def evaluate(p: BellPolynomial, z):
    """Horner evaluation; exact for int or Fraction arguments."""
    result = 0
    for c in reversed(p.coeffs):
        result = result * z + c
    return result


def negate_index(index: UVIndex) -> UVIndex:
    """Flip every bit of the sign number: the polynomial negates."""
    mask = (1 << index.summands) - 1
    return UVIndex(index.n_sites, index.u ^ mask, index.v)


def reflect_index(index: UVIndex) -> UVIndex:
    """Replace u by u XOR v: the polynomial's argument flips sign."""
    return UVIndex(index.n_sites, index.u ^ index.v, index.v)


def constant_coeff(index: UVIndex) -> int:
    """Constant coefficient straight from the index pair.

    Counts, among the zero bits of v, how many u-bits are zero minus how
    many are one: <~u, ~v> - <u, ~v> with popcount scalar products over
    the 2^(N-1)-bit window.
    """
    mask = (1 << index.summands) - 1
    u_flip = ~index.u & mask
    v_flip = ~index.v & mask
    return (u_flip & v_flip).bit_count() - (index.u & v_flip).bit_count()


def bowtie(a: BellPolynomial, b: BellPolynomial) -> BellPolynomial:
    """(1 + z^(2^N)) A(z) + (1 - z^(2^N)) B(z), one site more.

    The coefficients are the pairwise sums of a and b, then the pairwise
    differences. The lift is built by the validating constructor of
    type(a), so it has a's record type and meets that type's checks.
    """
    if a.n_sites != b.n_sites:
        raise BellkitError("operands must have the same site count")
    if abs(sum(a.coeffs)) != abs(sum(b.coeffs)):
        raise BellkitError(
            "operands must have equal |value at 1|; pre-scale one of them"
        )
    sums = tuple(map(add, a.coeffs, b.coeffs))
    diffs = tuple(map(sub, a.coeffs, b.coeffs))
    return type(a)(a.n_sites + 1, sums + diffs)


@dataclass(frozen=True)
class NormalizedBellPolynomial:
    """Family member scaled to |value| exactly 1 at both z = 1 and z = -1."""

    n_sites: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        _check_shape(self)
        # floats would make the |value| 1 checks inexact
        if not all(isinstance(c, (int, Fraction)) for c in self.coeffs):
            raise BellkitError("coefficients must be integers or fractions")
        at_one = sum(self.coeffs)
        at_minus_one = sum(c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs))
        if abs(at_one) != 1 or abs(at_minus_one) != 1:
            raise BellkitError(
                "normalized polynomials must have |value| 1 at z = 1 and z = -1"
            )


def normalize(p: BellPolynomial) -> NormalizedBellPolynomial:
    """Scale by 2^(1-N) in exact dyadic arithmetic."""
    denominator = 1 << (p.n_sites - 1)
    return NormalizedBellPolynomial(
        p.n_sites, tuple(Fraction(c, denominator) for c in p.coeffs)
    )
