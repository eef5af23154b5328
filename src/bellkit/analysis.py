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

Counting is exhaustive unless a sample size is given; a seeded uniform
sample reports a standard error.

The exhaustive census never scans the 2^(2^N) codes. Write an N-site
code as a | b << 2^(N-1), with a and b codes of N - 1 sites; its
transform is [W(a) + W(b), W(a) - W(b)] (the paper's recursive
generation). An element of the extended affine group EA(N-1) (linear
change of variables, translation, added linear function, complement)
applied to a and b together permutes and signs both Walsh spectra
alike, so the term count of the pair is unchanged, and the histogram
is the sum over the EA classes C of (N-1)-site codes of |C| times the
census of the 2^(2^(N-1)) partners of one representative: 8 partner
sums of 65,536 codes at N = 5 (Berlekamp & Welch's eight classes; the
relabeling group leaves 39). The classes are the groups of codes with
the same sorted |W|, found with one ``np.unique``: the key is an EA
invariant, and up to four variables it separates the classes. XOR
with a row mask permutes the codes, so every zero count is
C(2^N, 2^(N-1)).
"""
from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from . import hadamard, kernels, limits
from ._numpy import np
from .coefficients import CoefficientVector, _as_vector, site_count
from .errors import BellkitError, CapExceededError
from .limits import (IDENTITY_MAX_SITES, MATERIALIZE_MAX_SITES, RECORD_MAX_SITES,
                     SAMPLE_MAX_SIZE, STREAM_MAX_SITES, check_index, check_integer, check_sites)
from .polynomial import BellPolynomial


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


def _spectrum_key(codes: np.ndarray, length: int) -> np.ndarray:
    """Each code's sorted |W|, as one uint8 row of sorted (length - |W_i|) / 2.

    Entry i of the Walsh spectrum is length - 2 d_i, with d_i =
    popcount(c XOR r_i) the distance to Sylvester row mask r_i, so
    min(d_i, length - d_i) is (length - |W_i|) / 2. EA(n) permutes and
    signs W, so the sorted row is the same for every code of a class.
    """
    masks = np.array(hadamard.sylvester_masks(length), dtype=codes.dtype)
    d = np.bitwise_count(codes[:, None] ^ masks)
    return np.sort(np.minimum(d, length - d), axis=1)


def _affine_classes(n_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """(smallest code, size) of every EA(n) class of n-site sign-vector codes, in code order.

    The codes are grouped by ``_spectrum_key``, an EA(n) invariant that
    up to four variables also tells the classes apart: 1, 2, 3 and 8 of
    them (Berlekamp & Welch, IEEE Trans. Inf. Theory 18 (1972) 203).
    One ``np.unique`` over the key rows, each viewed as one 2^n-byte
    value, gives the first code and the size of every group.
    """
    n_sites = check_sites("affine classes", n_sites, MATERIALIZE_MAX_SITES, least=0)
    order = 1 << n_sites
    key = _spectrum_key(np.arange(1 << order, dtype=np.uint32), order)
    _, reps, sizes = np.unique(key.view(np.dtype((np.void, order))).ravel(),
                               return_index=True, return_counts=True)
    in_code_order = np.argsort(reps)
    reps, sizes = reps[in_code_order], sizes[in_code_order]
    # |EA(n)| = |GL(n, 2)| * 2^n translations * 2^n linear functions * 2
    group_order = math.prod(order - (1 << i) for i in range(n_sites)) * order * order * 2
    if sizes.sum() != 1 << order or any(group_order % int(s) for s in sizes):
        raise BellkitError("affine classes do not partition the codes")
    return reps, sizes


def _orbit_census(n_sites: int) -> np.ndarray:
    """Exact term histogram of the N-site family.

    The histogram sums |C| times the census of rep_C | b << 2^(N-1) over
    every (N-1)-site code b, class by class (see the module docstring).
    The one-term members are the 2^(N+1) codes of +-(Sylvester row),
    which must be all of them.
    """
    length = 1 << n_sites
    half = length // 2
    reps, sizes = _affine_classes(n_sites - 1)
    partners = np.arange(1 << half, dtype=np.uint32) << half
    hist = np.zeros(length + 1, dtype=np.int64)
    for rep, size in zip(reps.tolist(), sizes.tolist()):
        hist += size * kernels.classify_batch(partners | rep, length)[1]
    rows = np.array(hadamard.sylvester_masks(length), dtype=np.uint32)
    full = np.uint32((1 << length) - 1)
    _, one_hist = kernels.classify_batch(np.concatenate([rows, rows ^ full]), length)
    if one_hist[1] != 2 * length or one_hist[1] != hist[1]:
        raise BellkitError("the one-term members are not the signed Sylvester rows")
    return hist


def _sample_census(length: int, total: int, seed: int, jobs: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(zero count per position, term histogram) of ``total`` seeded draws.

    The codes are drawn in blocks of ``limits.CENSUS_BATCH_CODES``, so the
    counts depend only on (total, seed). Up to ``jobs`` workers count the
    blocks, with at most jobs + 1 blocks drawn and not yet counted.
    """
    rng = np.random.default_rng(seed)
    step = limits.CENSUS_BATCH_CODES
    # uint32 draws take the same buffered 32-bit path as int64 draws
    # below 2^32, so the seeded sample is unchanged at half the bytes,
    # and the kernel reads them without a copy
    batches = (rng.integers(0, 1 << length, size=min(step, total - start),
                            dtype=np.uint32)
               for start in range(0, total, step))
    zero = np.zeros(length, dtype=np.int64)
    hist = np.zeros(length + 1, dtype=np.int64)

    def accumulate(result) -> None:
        z, h = result
        np.add(zero, z, out=zero)
        np.add(hist, h, out=hist)

    # never more workers than batches: one batch runs on the calling thread
    jobs = min(jobs, -(-total // step))
    if jobs == 1:
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
    return zero, hist


def classify(
    n_sites: int,
    *,
    sample_size: int | None = None,
    seed: int = 0,
    jobs: int = 1,
) -> ClassificationReport:
    """Count term statistics over the family, or over a seeded uniform sample of it.

    Without a sample size the census is exact: it comes from the EA
    classes of N - 1 sites (see the module docstring), runs on the
    calling thread and checks itself against ``_check_exhaustive``.
    A sample of up to ``SAMPLE_MAX_SIZE`` draws depends only on
    (sample_size, seed); ``jobs`` workers count its batches.
    """
    n_sites = check_sites("classification", n_sites, STREAM_MAX_SITES)
    seed, jobs = check_integer("seed", seed), check_integer("jobs", jobs)
    if seed < 0:
        raise BellkitError(f"seed must be nonnegative, got {seed}")
    if jobs < 1:
        raise BellkitError(f"jobs must be at least 1, got {jobs}")
    length = 1 << n_sites
    if sample_size is None:
        hist = _orbit_census(n_sites)
        report = ClassificationReport(
            n_sites=n_sites, mode="exhaustive", total=1 << length,
            histogram=tuple(hist.tolist()), full_term=int(hist[length]),
            trivial_classes=length, zero_counts=(math.comb(length, length // 2),) * length)
        _check_exhaustive(report)
        return report
    total = check_integer("sample size", sample_size)
    if total < 1:
        raise BellkitError("sample size must be positive")
    if total > SAMPLE_MAX_SIZE:
        raise CapExceededError(f"sample size capped at {SAMPLE_MAX_SIZE}, got {total}")
    zero, hist = _sample_census(length, total, seed, jobs)
    p = int(hist[length]) / total
    return ClassificationReport(
        n_sites=n_sites, mode="sample", total=total, histogram=tuple(hist.tolist()),
        full_term=int(hist[length]), trivial_classes=None, zero_counts=tuple(zero.tolist()),
        seed=seed, full_term_stderr=math.sqrt(p * (1 - p) / total))


def _check_exhaustive(report: ClassificationReport) -> None:
    """Counting facts every exhaustive census must satisfy."""
    n, total = report.n_sites, report.total
    if sum(report.histogram) != total:
        raise BellkitError("histogram does not sum to the population size")
    if n >= 2 and 2 * report.full_term < total:
        raise BellkitError("fewer than half of the members are full-term")
    if n in (2, 3) and 2 * report.full_term != total:
        raise BellkitError(f"full-term count must be exactly half for N={n}")
    length = 1 << n
    # every position is zero in C(L, L/2) members
    per_position = math.comb(length, length // 2)
    zeros_by_term = sum((length - t) * h for t, h in enumerate(report.histogram))
    if zeros_by_term != length * per_position:
        raise BellkitError(f"histogram zeros differ from {length} C({length}, {length // 2})")
    if report.histogram[1] != 2 * length:
        raise BellkitError(f"expected {2 * length} one-term members")
    # two positions k != k' are both zero in C(L/2, L/4)^2 members, since
    # r_k ^ r_k' is another row mask
    both_zero = math.comb(length // 2, length // 4) ** 2
    squares = sum((length - t) ** 2 * h for t, h in enumerate(report.histogram))
    if n >= 2 and squares != length * per_position + length * (length - 1) * both_zero:
        raise BellkitError("histogram zeros fail the second-moment identity")


def zero_probability(n_sites: int, k: int = 0) -> Fraction:
    """Exact share of members whose coefficient at position k is zero.

    Independent of k: C(2^N, 2^(N-1)) / 2^(2^N).
    """
    n_sites = check_sites("zero probability", n_sites, RECORD_MAX_SITES)
    length = 1 << n_sites
    check_index("position", k, length)
    return Fraction(math.comb(length, length // 2), 1 << length)


def zero_probability_asymptotic(n_sites: int) -> float:
    """Large-N estimate 1/sqrt(2^(N-1) pi) of the zero probability."""
    n_sites = check_sites("zero probability", n_sites, RECORD_MAX_SITES)
    return 1.0 / math.sqrt((1 << (n_sites - 1)) * math.pi)


def binomial_identity_sides(n_sites: int) -> tuple[int, int]:
    """Both sides of the even-overlap counting identity, exactly.

    Left: sum_k C(2^(N-1), 2k) C(2k, k) 2^(2^(N-1) - 2k) with k running
    while 2k <= 2^(N-1). Right: C(2^N, 2^(N-1)).
    """
    n_sites = check_sites("binomial identity", n_sites, IDENTITY_MAX_SITES)
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
    p = check_integer("pair index", p)
    if p < 0:
        raise BellkitError(f"pair index must be nonnegative, got {p}")
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
    n_sites = check_sites("family construction", n_sites, RECORD_MAX_SITES)
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
    # row by row: the lists of a whole batch at once would raise peak memory;
    # the site count read off the row length is an int whatever type n_sites has
    return [BellPolynomial._trusted(site_count(rows.shape[1]), tuple(row.tolist()))
            for _, rows in max_b0_batches(n_sites, k) for row in rows]
