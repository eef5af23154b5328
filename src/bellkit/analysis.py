"""Census of the inequality family: term counts, zeros, special members.

For N sites the family has 2^(2^N) members (one per sign vector). Facts
checked or reported here, all scale-invariant:

* a member is "t-term" when exactly t coefficients are nonzero;
  "full-term" means t = 2^N, "trivial" means t = 1;
* the trivial members collapse to exactly 2^N classes under scalar
  equivalence, one per expectation value;
* at least half of all members are full-term for N >= 2 (exactly half
  for N = 2 and N = 3; the exact fraction for N = 4 is 33664/65536,
  about 51.4 %, a computed result of this module);
* the share of members with a zero at any fixed position is exactly
  C(2^N, 2^(N-1)) / 2^(2^N), approaching 1/sqrt(2^(N-1) pi) from below.

Counting is exhaustive through N = 4 (and optionally N = 5); N = 5
defaults to a seeded uniform sample with a reported standard error.
"""
from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import hadamard, kernels, limits
from .errors import BellkitError, CapExceededError
from .inequality import CoefficientVector, _as_vector
from .limits import (IDENTITY_MAX_SITES, MATERIALIZE_MAX_SITES, RECORD_MAX_SITES,
                     SAMPLE_MAX_SIZE, STREAM_MAX_SITES, check_sites)
from .polynomial import BellPolynomial

DEFAULT_SAMPLE_SIZE = 10_000_000


def term_count(v: CoefficientVector | Sequence[int]) -> int:
    """Number of expectation values appearing (nonzero coefficients)."""
    return sum(1 for c in _as_vector(v).coeffs if c != 0)


@dataclass(frozen=True)
class ClassificationReport:
    """Counting results over the family (or a uniform sample of it)."""

    n_sites: int
    mode: str  # "exhaustive" or "sample"
    total: int
    histogram: tuple[int, ...]  # histogram[t] = number of t-term members
    full_term: int
    trivial_classes: int | None  # scalar-equivalence classes; exhaustive only
    zero_counts: tuple[int, ...]  # per position k
    seed: int | None = None
    full_term_stderr: float | None = None

    @property
    def full_term_fraction(self) -> float:
        return self.full_term / self.total


def _reduce_batches(
    batches: Iterator[np.ndarray],
    length: int,
    jobs: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    zero = np.zeros(length, dtype=np.int64)
    hist = np.zeros(length + 1, dtype=np.int64)
    one_pos = np.zeros(length, dtype=np.int64)

    def accumulate(result) -> None:
        z, h, o = result
        np.add(zero, z, out=zero)
        np.add(hist, h, out=hist)
        np.add(one_pos, o, out=one_pos)

    if jobs <= 1:
        for codes in batches:
            accumulate(kernels.classify_batch(codes, length))
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            window: list = []
            for codes in batches:
                window.append(pool.submit(kernels.classify_batch, codes, length))
                if len(window) > jobs:
                    accumulate(window.pop(0).result())
            for fut in window:
                accumulate(fut.result())
    return zero, hist, one_pos


def classify(
    n_sites: int,
    *,
    exhaustive: bool | None = None,
    sample_size: int | None = None,
    seed: int = 0,
    jobs: int = 1,
) -> ClassificationReport:
    """Count term statistics over the family.

    Exhaustive by default up to 4 sites. Five sites defaults to a fixed
    seed uniform sample (2^32 members are countable exhaustively, but
    slowly; pass ``exhaustive=True`` to insist). The sample is drawn in
    fixed-size blocks, so results depend only on (sample_size, seed),
    which is capped at ``SAMPLE_MAX_SIZE`` draws.
    """
    check_sites("classification", n_sites, STREAM_MAX_SITES)
    if seed < 0:
        raise BellkitError(f"seed must be nonnegative, got {seed}")
    if jobs < 1:
        raise BellkitError(f"jobs must be at least 1, got {jobs}")
    length = 1 << n_sites
    if exhaustive is None:
        exhaustive = n_sites <= MATERIALIZE_MAX_SITES and sample_size is None
    if exhaustive and sample_size is not None:
        raise BellkitError("choose either exhaustive counting or a sample size")

    if exhaustive:
        total = 1 << length

        def draw(start: int, stop: int) -> np.ndarray:
            return np.arange(start, stop, dtype=np.int64)
    else:
        total = DEFAULT_SAMPLE_SIZE if sample_size is None else int(sample_size)
        if total < 1:
            raise BellkitError("sample size must be positive")
        if total > SAMPLE_MAX_SIZE:
            raise CapExceededError(
                f"sample size capped at {SAMPLE_MAX_SIZE}, got {total}"
            )
        rng = np.random.default_rng(seed)

        def draw(start: int, stop: int) -> np.ndarray:
            return rng.integers(0, 1 << length, size=stop - start, dtype=np.int64)

    step = limits.CENSUS_BATCH_CODES
    batches = (draw(start, min(start + step, total))
               for start in range(0, total, step))
    # never more workers than batches: one batch runs on the calling thread
    zero, hist, one_pos = _reduce_batches(batches, length, min(jobs, -(-total // step)))
    full = int(hist[length])
    p = full / total
    report = ClassificationReport(
        n_sites=n_sites,
        mode="exhaustive" if exhaustive else "sample",
        total=total,
        histogram=tuple(int(x) for x in hist),
        full_term=full,
        trivial_classes=int(np.count_nonzero(one_pos)) if exhaustive else None,
        zero_counts=tuple(int(x) for x in zero),
        seed=None if exhaustive else seed,
        full_term_stderr=None if exhaustive else math.sqrt(p * (1 - p) / total),
    )
    if exhaustive:
        _check_exhaustive(report)
    return report


def _check_exhaustive(report: ClassificationReport) -> None:
    """Counting facts every exhaustive census must satisfy."""
    n, total = report.n_sites, report.total
    if sum(report.histogram) != total:
        raise BellkitError("histogram does not sum to the population size")
    if report.trivial_classes != 1 << n:
        raise BellkitError(
            f"expected {1 << n} trivial classes, counted {report.trivial_classes}"
        )
    if n >= 2 and 2 * report.full_term < total:
        raise BellkitError("fewer than half of the members are full-term")
    if n in (2, 3) and 2 * report.full_term != total:
        raise BellkitError(f"full-term count must be exactly half for N={n}")
    length = 1 << n
    per_position = math.comb(length, length // 2)
    if any(z != per_position for z in report.zero_counts):
        raise BellkitError(
            f"every position must be zero in C({length}, {length // 2}) members"
        )
    zeros_by_term = sum((length - t) * h for t, h in enumerate(report.histogram))
    if zeros_by_term != sum(report.zero_counts):
        raise BellkitError("histogram zeros disagree with the per-position zeros")
    if report.histogram[1] != 2 * length:
        raise BellkitError(f"expected {2 * length} one-term members")


def zero_probability(n_sites: int, k: int = 0) -> Fraction:
    """Exact share of members whose coefficient at position k is zero.

    Independent of k: C(2^N, 2^(N-1)) / 2^(2^N).
    """
    check_sites("zero probability", n_sites, RECORD_MAX_SITES)
    length = 1 << n_sites
    if not 0 <= k < length:
        raise BellkitError(f"position {k} out of range")
    return Fraction(math.comb(length, length // 2), 1 << length)


def zero_probability_asymptotic(n_sites: int) -> float:
    """Large-N estimate 1/sqrt(2^(N-1) pi) of the zero probability."""
    check_sites("zero probability", n_sites, RECORD_MAX_SITES)
    return 1.0 / math.sqrt((1 << (n_sites - 1)) * math.pi)


def binomial_identity_sides(n_sites: int) -> tuple[int, int]:
    """Both sides of the even-overlap counting identity, exactly.

    Left: sum_k C(2^(N-1), 2k) C(2k, k) 2^(2^(N-1) - 2k) with k running
    while 2k <= 2^(N-1). Right: C(2^N, 2^(N-1)).
    """
    check_sites("binomial identity", n_sites, IDENTITY_MAX_SITES)
    half = 1 << (n_sites - 1)
    lhs = sum(
        math.comb(half, 2 * k) * math.comb(2 * k, k) * (1 << (half - 2 * k))
        for k in range(half // 2 + 1)
    )
    return lhs, math.comb(1 << n_sites, half)


def verify_binomial_identity(n_sites: int) -> bool:
    """Exact big-integer check that the two identity sides agree."""
    lhs, rhs = binomial_identity_sides(n_sites)
    return lhs == rhs


def max_b0_pair(p: int) -> tuple[int, int]:
    """(u, v) index pair of max-b0 member p, in construction order.

    v = 2^((p + 1) // 2) has a single set bit; u is zero or, for even
    p > 0, a copy of that bit (bit 0 of u must stay zero). The N-site
    family is pairs 0 .. 2^N - 2.
    """
    v = 1 << ((p + 1) // 2)
    return (v if p and p % 2 == 0 else 0), v


def max_b0_batches(n_sites: int, k: int) -> Iterator[tuple[int, np.ndarray]]:
    """(first pair index, int64 rows) of ``max_b0_family``, in ``max_b0_pair`` order.

    For v = 2^i, W(0) = 2^(N-1) e_0 and W(v) = W(0) - 2 H[i] in the
    interleave of ``polynomial.bell_poly``, with H[i] Sylvester row i of
    order 2^(N-1), the parity of popcount(i AND j). So the member has
    even coefficients 2^(N-1) e_0 - H[i] and odd coefficients H[i] for
    u = 0, -H[i] for u = v; k = 1 reverses each row. A batch holds at
    most ``limits.OUTPUT_BATCH_CELLS`` coefficients, and every batch
    meets the family's self-checks before it is yielded.
    """
    if n_sites < 3:
        raise BellkitError("the construction applies from 3 sites upward")
    if k not in (0, 1):
        raise BellkitError("the repeated observable digit must be 0 or 1")
    check_sites("family construction", n_sites, RECORD_MAX_SITES)
    half = 1 << (n_sites - 1)
    total = 2 * half - 1
    j = np.arange(half)
    step = max(1, limits.OUTPUT_BATCH_CELLS >> n_sites)
    count = 0
    for start in range(0, total, step):
        p = np.arange(start, min(start + step, total))[:, None]
        h = np.where(hadamard.parity((p + 1) // 2, j), -1, 1)
        rows = np.empty((len(p), 2 * half), dtype=np.int64)
        rows[:, 0::2] = -h
        rows[:, 0] += half
        rows[:, 1::2] = np.where((p % 2 == 0) & (p > 0), -h, h)
        if np.any(rows[:, 0] != half - 1):
            raise BellkitError("construction lost the maximal coefficient")
        if not np.all(rows & 1):
            raise BellkitError("construction produced an even coefficient")
        count += len(rows)
        yield start, rows[:, ::-1] if k else rows
    if count != total:
        raise BellkitError("unexpected family size")


def max_b0_family(n_sites: int, k: int) -> list[BellPolynomial]:
    """All standard-form members whose E(k,k,...,k) coefficient is maximal.

    For k = 0 these are the members with constant coefficient
    2^(N-1) - 1 (the value 2^(N-1) itself only occurs in the trivial
    member, which reduces to coefficient 1). They correspond to a parity
    number with a single set bit and a sign number that is either zero
    or a copy of that bit (see ``max_b0_pair``), so there are exactly
    2^N - 1 of them, all full-term with odd coefficients. For k = 1 the
    observable enumeration is reversed, which reverses every coefficient
    vector. The rows come from the closed form of ``max_b0_batches``.
    """
    # row by row: the lists of a whole batch at once would raise peak memory
    return [BellPolynomial._trusted(n_sites, tuple(row.tolist()))
            for _, rows in max_b0_batches(n_sites, k) for row in rows]
