"""The whole family of Bell inequalities in numpy batches, and its relabeling group.

The records themselves (``CoefficientVector``, ``StandardForm``), their
transforms and their text are Python ints in ``coefficients``, which
loads no numpy; this module re-exports them, so ``inequality.X`` names
every one. What is here needs numpy: the complete family for N sites,
one batch of sign-vector codes at a time (``coefficient_batches``,
``enumerate_inequalities``), the standard forms and traditional text of
whole batches, and the relabeling group.

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
from collections.abc import Iterator, Sequence
from functools import lru_cache

from . import hadamard, kernels, limits, polynomial
from ._numpy import np
# the numpy-free records, re-exported so that inequality.X names them all
from .coefficients import (LEQ, MINUS, CoefficientVector, StandardForm, _as_vector,
                           _setting_labels, bound, bowtie, from_sign_vector,
                           reverse_observables, setting_digits, sign_vector_from_code,
                           site_count, standard_form, to_traditional)
from .errors import BellkitError
from .limits import MATERIALIZE_MAX_SITES, ORBIT_MAX_SITES, STREAM_MAX_SITES, check_sites


def coefficient_batches(n_sites: int, *,
                        stream: bool = False) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (first code, int64 rows) for every sign vector, in code order.

    Row i of a batch is the raw coefficient vector of code start + i; a
    batch holds ``limits.ENUM_BATCH_ROWS`` codes, the last one possibly
    fewer. Materializing is reasonable up to N = 4 (65 536 rows); N = 5 means
    2^32 rows and must be requested explicitly with ``stream=True``.
    The checks run when the first batch is requested.
    """
    n_sites = check_sites("enumeration", n_sites, STREAM_MAX_SITES)
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
    n_sites = check_sites("enumeration", n_sites, STREAM_MAX_SITES)
    for start, block in coefficient_batches(n_sites, stream=stream):
        for code, row in enumerate(block.tolist(), start):
            yield code, CoefficientVector._trusted(n_sites, tuple(row))


def _standard_rows(block: np.ndarray) -> np.ndarray:
    """``standard_form`` of every row of an int64 block with nonzero row sums."""
    rows = block // np.gcd.reduce(block, axis=1)[:, None]
    rows[rows.sum(axis=1) < 0] *= -1
    return rows


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
    """The gcd of v and the orbit of v / gcd, whole site permutations at a time.

    Each block stacks the 2^(n+1) * 2^n images under every translation
    and sign row (repeats included) of as many site permutations as fit
    in ``limits.OUTPUT_BATCH_CELLS`` entries, at least one: 1 block at
    three sites, 3 at four, 120 at five.
    """
    check_sites("symmetry orbits", v.n_sites, ORBIT_MAX_SITES)
    g = math.gcd(*v.coeffs)
    reduced = [c // g for c in v.coeffs]
    # every image entry and row sum is bounded by sum |b_k|
    if sum(map(abs, reduced)) >= 1 << 63:
        raise BellkitError(
            "symmetry orbits need the sum of |coefficients| / gcd below 2^63"
        )
    b = np.array(reduced, dtype=np.int64)
    index_maps, sign_rows = _relabelings(v.n_sites)
    # an image sums to +-(H b)[a] for some a, and every a occurs
    if not np.all(sign_rows @ b):
        raise BellkitError("coefficient sum is zero: not a Bell inequality")
    step = max(1, limits.OUTPUT_BATCH_CELLS // (sign_rows.size * len(b)))
    blocks = ((sign_rows[None, :, None, :] * b[index_maps[start:start + step]][:, None])
              .reshape(-1, len(b)) for start in range(0, len(index_maps), step))
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
