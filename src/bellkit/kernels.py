"""Hot numeric kernels, vectorized with numpy.

Two inner loops dominate the package's runtime:

* building and printing the rows of the family, one batch of codes at a
  time (``enum``),
* streaming classification statistics over millions of sign vectors.

Both read the row masks r_k of ``hadamard.sylvester_masks``, the module
every sign comes from: entry k of the transform of code c is
2^N - 2 popcount(c XOR r_k) (the Walsh-spectrum / first-order
Reed-Muller distance identity). ``sylvester_rows`` builds whole rows
from it; the census needs only its zeros, Hamming distances of exactly
2^(N-1), so a census batch costs a few bytes per code.

Rows become text without per-row Python: every token of a line comes
from a small vocabulary, so a batch is a few NUL-padded byte matrices
(``token_table`` and ``lookup``, ``decimal_digits``) side by side, and
``join_rows`` keeps their non-NUL bytes in row-major order.

The butterfly ``wht_rows``, the sign decoder ``signs_from_codes`` and
the strategy scan ``lhv_max_range`` are on no production path: ``gen``
reads its member off ``polynomial.bell_poly`` and ``lhv.max_lhv``
contracts site by site. They are the tests' oracles, and they stay here
only because the benchmark harness traces them by name.
"""
from __future__ import annotations

import numpy as np

from . import hadamard

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


def sylvester_rows(codes: np.ndarray, length: int) -> np.ndarray:
    """Int64 transform rows of sign-vector codes, one row per code.

    Entry k of row c is length - 2 popcount(c XOR r_k), the identity of
    the module docstring; length is a power of two from 2 to 64.
    """
    c = np.asarray(codes).astype(np.uint64)
    masks = np.array(hadamard.sylvester_masks(length), dtype=np.uint64)
    return length - 2 * np.bitwise_count(c[:, None] ^ masks).astype(np.int64)


def classify_batch(codes: np.ndarray, length: int):
    """Accumulate transform statistics for a batch of sign-vector codes.

    Returns (zero_counts, term_histogram, one_term_positions):
    zero_counts[k] counts transforms with a zero at position k,
    term_histogram[t] counts transforms with exactly t nonzero entries,
    one_term_positions[k] counts 1-term transforms whose term sits at k.
    The transform itself is never formed (see the module docstring);
    length is a power of two from 2 to 64.
    """
    c = np.asarray(codes).astype(np.uint64)
    half = length // 2
    masks = np.array(hadamard.sylvester_masks(length), dtype=np.uint64)
    zero_counts = np.empty(length, dtype=np.int64)
    zeros = np.zeros(c.size, dtype=np.uint8)
    for k, r in enumerate(masks):
        z = np.bitwise_count(c ^ r) == half
        zero_counts[k] = np.count_nonzero(z)
        zeros += z
    terms = length - zeros
    hist = np.bincount(terms, minlength=length + 1).astype(np.int64)
    # a 1-term code has exactly one k whose distance is not length / 2
    one_term = c[terms == 1]
    pos = (np.bitwise_count(one_term[:, None] ^ masks) != half).argmax(axis=1)
    one_pos = np.bincount(pos, minlength=length).astype(np.int64)
    return zero_counts, hist, one_pos


def lhv_max_range(coeffs: np.ndarray, n_sites: int,
                  m0_start: int, m0_stop: int) -> int:
    """Max |sum_k coeffs[k] * prod_i A_i(k_i)| over a strategy sub-range.

    Strategies are pairs of n-bit masks (m0, m1); bit b of m_j set means
    the site reading digit bit b assigns -1 to its observable j. The
    per-term sign is the popcount parity of (m0 & ~k) | (m1 & k).
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


def token_table(texts: list[str]) -> np.ndarray:
    """The UTF-8 bytes of text i as row i of a read-only uint8 table.

    Shorter rows are padded with NUL bytes, which ``join_rows`` drops,
    so no text may hold one.
    """
    encoded = [text.encode() for text in texts]
    width = max(map(len, encoded))
    return np.frombuffer(b"".join(b.ljust(width, b"\0") for b in encoded),
                         dtype=np.uint8).reshape(len(encoded), width)


def lookup(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Tokens table[index[i, j]] side by side: a (rows, columns * width) matrix."""
    return np.take(table, index, axis=0).reshape(len(index), -1)


def decimal_digits(values: np.ndarray) -> np.ndarray:
    """Decimal text of integers in [0, 10^10) as (rows, 10) right-aligned digits.

    Leading zeros are NUL bytes; 0 keeps its one digit.
    """
    v = np.asarray(values, dtype=np.int64)[:, None]
    powers = 10 ** np.arange(9, -1, -1, dtype=np.int64)
    shown = (v >= powers) | (powers == 1)
    return np.where(shown, v // powers % 10 + ord("0"), 0).astype(np.uint8)


def join_rows(pieces: list) -> str:
    """Every row's pieces in order, rows in order, as one text; NUL bytes dropped.

    A piece is a (rows, w) uint8 byte matrix, or a str that every row
    shares.
    """
    pieces = [np.frombuffer(p.encode(), dtype=np.uint8)[None] if isinstance(p, str)
              else p for p in pieces]
    rows = max(len(p) for p in pieces)
    matrix = np.concatenate([np.broadcast_to(p, (rows, p.shape[1])) for p in pieces],
                            axis=1)
    return matrix.tobytes().translate(None, b"\0").decode()
