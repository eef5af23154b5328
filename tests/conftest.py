"""Shared test helpers: small independent oracles.

Everything here is written the slow, obvious way on purpose. The
helpers avoid the package's transform/recursion code paths so that
tests comparing against them are genuine cross-checks, not tautologies.
"""
from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from pathlib import Path
from typing import Callable

import numpy as np
from hypothesis import settings

from bellkit import kernels
from bellkit.errors import BellkitError
from bellkit.inequality import (
    CoefficientVector,
    StandardForm,
    _as_vector,
    _relabelings,
    setting_digits,
    standard_form,
)

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

GOLDEN = Path(__file__).parent / "golden"


def read_golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def popcount_parity(x: int) -> int:
    count = 0
    while x:
        count += x & 1
        x >>= 1
    return count & 1


def formula_matrix(n_sites: int) -> np.ndarray:
    """Dense sign matrix straight from the parity formula (no recursion)."""
    order = 1 << n_sites
    return np.array(
        [[-1 if popcount_parity(j & k) else 1 for k in range(order)]
         for j in range(order)],
        dtype=np.int64,
    )


def butterfly(values: Sequence[int]) -> tuple[int, ...]:
    """Sylvester transform of one vector by the in-place butterfly.

    Stage h combines the entry pairs whose indices differ in bit log2(h)
    into their sum and difference: the oracle for
    ``inequality.from_sign_vector``, which reads H c off a Bell polynomial.
    """
    a = list(values)
    h = 1
    while h < len(a):
        for start in range(0, len(a), 2 * h):
            for i in range(start, start + h):
                a[i], a[i + h] = a[i] + a[i + h], a[i] - a[i + h]
        h *= 2
    return tuple(a)


def scan_census(n_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """``kernels.classify_batch`` over every N-site code at once.

    The full-range scan that ``analysis.classify`` ran before it summed
    over classes of N - 1 sites: the oracle for the class census up to
    N = 4 (65,536 codes). Returns (zero counts, histogram).
    """
    return kernels.classify_batch(np.arange(1 << (1 << n_sites)), 1 << n_sites)


def ea_generators(n_sites: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Generators (index map g, sign row sigma) of the extended affine group EA(n).

    The first 3n generate the relabeling group, read off
    ``inequality._relabelings``: the adjacent site swaps, the translations
    k ^ e_i, the sign rows H[e_i] and global negation. The transvection
    k -> k ^ ((k >> 1) & 1) (n >= 2) and the swaps generate GL(n, 2).
    """
    index_maps, sign_rows = _relabelings(n_sites)
    perms = list(itertools.permutations(range(n_sites)))  # the identity first
    gens = []
    for i in range(n_sites - 1):
        swap = list(range(n_sites))
        swap[i], swap[i + 1] = swap[i + 1], swap[i]
        gens.append((index_maps[perms.index(tuple(swap)), 0], sign_rows[0]))
    for i in range(n_sites):
        gens.append((index_maps[0, 1 << i], sign_rows[0]))
        gens.append((index_maps[0, 0], sign_rows[1 << i]))
    gens.append((index_maps[0, 0], sign_rows[1 << n_sites]))
    if n_sites >= 2:
        k = np.arange(1 << n_sites)
        gens.append((k ^ ((k >> 1) & 1), sign_rows[0]))
    return gens


def code_image(codes: np.ndarray, g: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """The codes of c'(j) = sigma(j) * c(g(j)), for every sign-vector code c.

    Conjugating by H swaps the translations and the sign rows, so a
    relabeling acts on sign vectors by the same map as on coefficients;
    the transvection is a linear change of the variables j.
    """
    image = np.full(codes.size, sum(1 << j for j, s in enumerate(sigma) if s < 0),
                    dtype=codes.dtype)
    for j, source in enumerate(g.tolist()):
        image ^= ((codes >> source) & 1) << j
    return image


def signs_of_code(code: int, n_sites: int) -> tuple[int, ...]:
    return tuple(1 - 2 * ((code >> j) & 1) for j in range(1 << n_sites))


def coefficients_by_expansion(code: int, n_sites: int) -> list[int]:
    """Transform via the defining sum over +-1 tuples, one term at a time.

    Index j of the sign vector encodes the tuple (h_1, ..., h_N) through
    h_i = 1 - 2 j_i with j_1 as the most significant digit. Coefficient
    k is sum over tuples of h_1^{k_1} ... h_N^{k_N} c(h).
    """
    out = []
    for k in range(1 << n_sites):
        k_digits = [(k >> (n_sites - 1 - i)) & 1 for i in range(n_sites)]
        total = 0
        for h in itertools.product((1, -1), repeat=n_sites):
            j = 0
            for h_i in h:
                j = (j << 1) | ((1 - h_i) // 2)
            c_j = 1 - 2 * ((code >> j) & 1)
            term = c_j
            for h_i, k_i in zip(h, k_digits):
                term *= h_i ** k_i
            total += term
        out.append(total)
    return out


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    # the factors of poly_from_factors are sparse binomials
    b_terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        for j, y in b_terms:
            out[i + j] += x * y
    return out


def poly_from_factors(exponents: list[int], signs: list[int]) -> list[int]:
    """Expand prod_i (1 + signs[i] * z^exponents[i])."""
    poly = [1]
    for exp, sign in zip(exponents, signs):
        factor = [0] * (exp + 1)
        factor[0] = 1
        factor[exp] = sign
        poly = poly_mul(poly, factor)
    return poly


def traditional_text(coeffs: Sequence[int]) -> str:
    """Traditional notation term by term, digits straight from ``setting_digits``.

    The reference for ``inequality.to_traditional`` and ``enum --format
    traditional``: "|2E(1,1) − E(1,2)| ≤ 2", zero terms skipped, no
    magnitude written for +-1.
    """
    n_sites = len(coeffs).bit_length() - 1
    text = ""
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        digits = ",".join(str(d + 1) for d in setting_digits(k, n_sites))
        term = ("" if abs(c) == 1 else str(abs(c))) + "E(" + digits + ")"
        if text == "":
            text = term if c > 0 else "−" + term
        elif c > 0:
            text = text + " + " + term
        else:
            text = text + " − " + term
    return "|" + text + "| ≤ " + str(abs(sum(coeffs)))


# -- relabeling oracle: per-element transforms closed by a BFS ----------------
#
# The slow reference for ``inequality.symmetry_orbit`` and ``canonical``,
# which act with the whole relabeling group as one table instead.


def negate(v: CoefficientVector) -> CoefficientVector:
    return CoefficientVector(v.n_sites, tuple(-c for c in v.coeffs))


def site_permutation(v: CoefficientVector, perm: Sequence[int]) -> CoefficientVector:
    """Permute sites: new digit i is the old digit perm[i] (0-based)."""
    n = v.n_sites
    if sorted(perm) != list(range(n)):
        raise BellkitError(f"not a permutation of {n} sites: {perm!r}")
    out = [0] * len(v.coeffs)
    for k, c in enumerate(v.coeffs):
        digits = setting_digits(k, n)
        k2 = 0
        for i in range(n):
            k2 = (k2 << 1) | digits[perm[i]]
        out[k2] = c
    return CoefficientVector(n, tuple(out))


def observable_flip(v: CoefficientVector, site: int) -> CoefficientVector:
    """Swap the two observables at the given site (0-based)."""
    n = v.n_sites
    if not 0 <= site < n:
        raise BellkitError(f"site {site} out of range")
    bit = 1 << (n - 1 - site)
    out = [0] * len(v.coeffs)
    for k, c in enumerate(v.coeffs):
        out[k ^ bit] = c
    return CoefficientVector(n, tuple(out))


def value_flip(v: CoefficientVector, site: int, observable: int) -> CoefficientVector:
    """Negate the outcome signs of one observable at one site."""
    n = v.n_sites
    if not 0 <= site < n:
        raise BellkitError(f"site {site} out of range")
    if observable not in (0, 1):
        raise BellkitError("observable must be 0 or 1")
    shift = n - 1 - site
    coeffs = tuple(
        -c if ((k >> shift) & 1) == observable else c
        for k, c in enumerate(v.coeffs)
    )
    return CoefficientVector(n, coeffs)


Transform = Callable[[CoefficientVector], CoefficientVector]


def default_generators(n_sites: int) -> list[Transform]:
    """Adjacent site swaps, observable relabelings, value flips, negation."""
    gens: list[Transform] = [negate]
    for i in range(n_sites):
        gens.append(lambda v, i=i: observable_flip(v, i))
        for obs in (0, 1):
            gens.append(lambda v, i=i, obs=obs: value_flip(v, i, obs))
    for i in range(n_sites - 1):
        perm = list(range(n_sites))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        gens.append(lambda v, perm=tuple(perm): site_permutation(v, perm))
    return gens


def bfs_orbit(
    v: CoefficientVector | Sequence[int],
    generators: Iterable[Transform] | None = None,
) -> frozenset[CoefficientVector]:
    """Closure of v under the generators (global negation always included)."""
    v = _as_vector(v)
    gens = list(generators) if generators is not None else default_generators(v.n_sites)
    if negate not in gens:
        gens.append(negate)
    seen = {v}
    frontier = [v]
    while frontier:
        current = frontier.pop()
        for g in gens:
            image = g(current)
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    return frozenset(seen)


def bfs_canonical(
    v: CoefficientVector | Sequence[int],
    generators: Iterable[Transform] | None = None,
) -> StandardForm:
    """Lexicographically smallest standard form over the symmetry orbit."""
    orbit = bfs_orbit(v, generators)
    return min((standard_form(m) for m in orbit), key=lambda s: s.coeffs)
