"""Hot numeric kernels, vectorized with numpy.

Three inner loops dominate the package's runtime:

* the length-2^N butterfly transform applied to batches of sign vectors
  (enumeration, completeness cross-checks),
* streaming classification statistics over millions of sign vectors,
* the brute-force search over all deterministic measurement strategies.
"""
from __future__ import annotations

import numpy as np

ACTIVE_BACKEND = "numpy"


def signs_from_codes(codes: np.ndarray, length: int) -> np.ndarray:
    """Decode bitmask codes into rows of +-1 signs (bit j set -> entry j is -1)."""
    codes = np.asarray(codes, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(length, dtype=np.int64)) & 1
    return (1 - 2 * bits).astype(np.int64)


def wht_rows(a: np.ndarray) -> np.ndarray:
    """In-place butterfly transform of every row; row length must be a power of 2.

    Equivalent to multiplying each row by the order-matching Sylvester
    matrix, since stage h combines index pairs differing in bit log2(h).
    """
    rows, n = a.shape
    h = 1
    while h < n:
        b = a.reshape(rows, n // (2 * h), 2, h)
        x = b[:, :, 0, :].copy()
        b[:, :, 0, :] += b[:, :, 1, :]
        b[:, :, 1, :] *= -1
        b[:, :, 1, :] += x
        h *= 2
    return a


def classify_batch(codes: np.ndarray, length: int):
    """Transform a batch of sign-vector codes and accumulate statistics.

    Returns (zero_counts, term_histogram, one_term_positions):
    zero_counts[k] counts transforms with a zero at position k,
    term_histogram[t] counts transforms with exactly t nonzero entries,
    one_term_positions[k] counts 1-term transforms whose term sits at k.
    """
    a = wht_rows(signs_from_codes(codes, length))
    zero_mask = a == 0
    zero_counts = zero_mask.sum(axis=0).astype(np.int64)
    terms = length - zero_mask.sum(axis=1)
    hist = np.bincount(terms, minlength=length + 1).astype(np.int64)
    one_term = np.flatnonzero(terms == 1)
    if one_term.size:
        pos = np.abs(a[one_term]).argmax(axis=1)
        one_pos = np.bincount(pos, minlength=length).astype(np.int64)
    else:
        one_pos = np.zeros(length, dtype=np.int64)
    return zero_counts, hist, one_pos


def lhv_max_range(coeffs: np.ndarray, n_sites: int,
                  m0_start: int, m0_stop: int) -> int:
    """Max |sum_k coeffs[k] * prod_i A_i(k_i)| over a strategy sub-range.

    Strategies are pairs of n-bit masks (m0, m1); bit b of m_j set means
    the site reading digit bit b assigns -1 to its observable j. The
    per-term sign is the popcount parity of (m0 & ~k) | (m1 & k). Kept
    free of the butterfly-transform code path on purpose: this is the
    independent check of everything the transform produces.
    """
    length = 1 << n_sites
    mask = length - 1
    ks = np.arange(length, dtype=np.int64)
    pm = 1 - 2 * (np.bitwise_count(ks).astype(np.int64) & 1)
    m1 = ks[:, None]
    best = 0
    for m0 in range(m0_start, m0_stop):
        idx = (((m0 & ~ks)[None, :] | (m1 & ks[None, :])) & mask)
        values = pm[idx] @ coeffs
        best = max(best, int(np.abs(values).max()))
    return best


def wht_vector(values) -> np.ndarray:
    """Butterfly transform of a single integer vector (returns a new array)."""
    a = np.array(values, dtype=np.int64).reshape(1, -1)
    return wht_rows(a)[0]
