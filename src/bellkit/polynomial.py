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

even coefficients first; ``bell_poly`` computes exactly this from the
row masks of ``hadamard.sylvester_masks``. ``gen`` reads the N-site
transform of a code with halves a and b off B_(a, a XOR b).

``BellPolynomial`` is also the base of the coefficient-vector records in
``inequality``: an inequality is a Bell polynomial with B(1) != 0.
Everything here uses exact integer (or dyadic rational) arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import hadamard
from .errors import BellkitError
from .limits import RECORD_MAX_SITES, check_sites


@dataclass(frozen=True)
class BellPolynomial:
    """Integer polynomial of degree < 2^n_sites, stored densely."""

    n_sites: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n_sites < 1:
            raise BellkitError("site count must be at least 1")
        if len(self.coeffs) != 1 << self.n_sites:
            raise BellkitError(
                f"expected {1 << self.n_sites} coefficients, got {len(self.coeffs)}"
            )
        if not all(isinstance(c, int) for c in self.coeffs):
            raise BellkitError("coefficients must be integers")

    @classmethod
    def from_ints(cls, values, n_sites: int | None = None) -> "BellPolynomial":
        """Build from ascending coefficients, zero-padding to length 2^n."""
        coeffs = [int(v) for v in values]
        if n_sites is None:
            n_sites = max(1, (len(coeffs) - 1).bit_length())
        length = 1 << n_sites
        if len(coeffs) > length:
            raise BellkitError(f"{len(coeffs)} coefficients exceed degree < {length}")
        coeffs += [0] * (length - len(coeffs))
        return cls(n_sites, tuple(coeffs))

    @classmethod
    def _trusted(cls, n_sites: int, coeffs: tuple[int, ...]) -> "BellPolynomial":
        """Build without any check: only for rows valid by construction."""
        record = object.__new__(cls)
        object.__setattr__(record, "n_sites", n_sites)
        object.__setattr__(record, "coeffs", coeffs)
        return record

    def __str__(self) -> str:
        return render(self.coeffs)


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


@dataclass(frozen=True)
class UVIndex:
    """Sign number u and parity number v, each with 2^(n_sites-1) bits."""

    n_sites: int
    u: int
    v: int

    def __post_init__(self) -> None:
        check_sites("family construction", self.n_sites, RECORD_MAX_SITES)
        limit = 1 << (1 << (self.n_sites - 1))
        if not (0 <= self.u < limit and 0 <= self.v < limit):
            raise BellkitError(
                f"u and v must lie in [0, {limit}) for {self.n_sites} sites"
            )

    @property
    def summands(self) -> int:
        return 1 << (self.n_sites - 1)


def summand_poly(n_sites: int, k: int) -> BellPolynomial:
    """The k-th summand polynomial: even, +-1 coefficients, degree 2^N - 2."""
    check_sites("summand construction", n_sites, RECORD_MAX_SITES)
    if not 0 <= k < (1 << (n_sites - 1)):
        raise BellkitError(
            f"summand index {k} out of range for {n_sites} sites"
        )
    coeffs = [0] * (1 << n_sites)
    coeffs[0::2] = (hadamard.entry(j, k) for j in range(1 << (n_sites - 1)))
    return BellPolynomial(n_sites, tuple(coeffs))


def column_poly(n_sites: int, k: int) -> BellPolynomial:
    """Column k of the order-2^N sign matrix read as a polynomial.

    All 2^N rows contribute one power each; with that full range the
    substitution z -> z^2 turns column k at n-1 sites into summand k at
    n sites.
    """
    check_sites("column construction", n_sites, RECORD_MAX_SITES)
    length = 1 << n_sites
    if not 0 <= k < length:
        raise BellkitError(f"column index {k} out of range for {n_sites} sites")
    coeffs = tuple(hadamard.entry(j, k) for j in range(length))
    return BellPolynomial(n_sites, coeffs)


def bell_poly(index: UVIndex) -> BellPolynomial:
    """Family member for (u, v): signed summands, shifted onto odd powers.

    With sigma = (-1)^u and tau = (-1)^(u XOR v) bitwise, sigma(1 - v) is
    (sigma + tau) / 2 and sigma v is (sigma - tau) / 2, so

        B_(u,v) = interleave(W(u) + W(u XOR v), W(u) - W(u XOR v)) / 2

    with W(c)[i] = 2^(N-1) - 2 popcount(c XOR r_i) over the row masks r_i.
    """
    half = index.summands
    a, b = index.u, index.u ^ index.v
    coeffs = []
    for r in hadamard.sylvester_masks(half):
        wa = half - 2 * (a ^ r).bit_count()
        wb = half - 2 * (b ^ r).bit_count()
        coeffs += ((wa + wb) // 2, (wa - wb) // 2)
    return BellPolynomial._trusted(index.n_sites, tuple(coeffs))


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
    sums = tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
    diffs = tuple(x - y for x, y in zip(a.coeffs, b.coeffs))
    return type(a)(a.n_sites + 1, sums + diffs)


@dataclass(frozen=True)
class NormalizedBellPolynomial:
    """Family member scaled to |value| exactly 1 at both z = 1 and z = -1."""

    n_sites: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != 1 << self.n_sites:
            raise BellkitError(
                f"expected {1 << self.n_sites} coefficients, got {len(self.coeffs)}"
            )
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
