"""Default size caps and batch sizes.

The caps keep accidental huge requests from exhausting memory or CPU.
Every check runs before anything of the requested size is allocated.
The batch sizes bound the memory of every streamed computation; callers
read them as ``limits.X`` at call time.
"""
from __future__ import annotations

import operator

from .errors import BellkitError, CapExceededError

# dense 2^13 x 2^13 int8 matrix is ~64 MiB
DENSE_MAX_SITES = 13
# full in-memory enumeration: 2^16 vectors of length 16
MATERIALIZE_MAX_SITES = 4
# streaming enumeration / classification: 2^32 sign vectors
STREAM_MAX_SITES = 5
# classify --sample: the five-site family size, several minutes of counting
SAMPLE_MAX_SIZE = 1 << 32
# any single record of 2^N coefficients (sign vector, summand, family
# member, LHV input): 2^14 entries; the LHV contraction is 14 * 2^14 additions
RECORD_MAX_SITES = 14
# relabeling orbits: 5! * 2^5 * 2^6 = 245,760 group elements
ORBIT_MAX_SITES = 5
# binomial identity: C(2^13, 2^12) has 2,466 digits and C(2^14, 2^13) has
# 4,932, past the interpreter's 4,300-digit limit on int-to-text conversion
IDENTITY_MAX_SITES = 13

# sign-vector codes per census batch; no count or seeded sample depends on
# it. A batch holds 11 bytes per code from draw to histogram (the uint32
# draw, uint32 and uint8 scratch), 1.4 MiB at 2^17: inside a 2 MiB L2
# cache per worker. At 2^16 the workers spend more time handing over the GIL.
CENSUS_BATCH_CODES = 1 << 17
# coefficient rows per ``coefficient_batches`` batch; no row depends on it
ENUM_BATCH_ROWS = 1 << 10
# entries per ``hadamard`` batch, coefficients per max-b0 batch; no output
# depends on it
OUTPUT_BATCH_CELLS = 1 << 16


def check_integer(what: str, value: object) -> int:
    """value as an int by ``operator.index``: numpy ints pass, 2.0 and "2" are a BellkitError."""
    if type(value) is int:  # the common case skips the call
        return value
    try:
        return operator.index(value)
    except TypeError:
        raise BellkitError(f"{what} must be an integer, got {value!r}") from None


def check_index(what: str, value: object, stop: int) -> int:
    """value as an int in [0, stop), the one index-range check; otherwise a BellkitError."""
    value = check_integer(what, value)
    if not 0 <= value < stop:
        # 2^(2^14), the code count at the record cap, has more digits than str() prints
        if stop > 1 << 64 and not stop & (stop - 1):
            stop = f"2^{stop.bit_length() - 1}"
        raise BellkitError(f"{what} {value} out of range [0, {stop})")
    return value


def check_integers(what: str, values) -> list[int]:
    """Every value as an int by ``operator.index``, in one map: ``check_integer`` for a sequence."""
    try:
        values = iter(values)
    except TypeError:
        raise BellkitError(
            f"{what} must be a sequence of integers, got {type(values).__name__}"
        ) from None
    try:
        return list(map(operator.index, values))
    except TypeError:
        raise BellkitError(f"{what} must be integers") from None


def check_sites(what: str, n_sites: int, max_sites: int, least: int = 1) -> int:
    """n_sites as an int; raise unless least <= n_sites <= max_sites.

    The one site-range check: every function that takes a site count
    calls it first, before any work sized by 2^n_sites. Too few sites is
    a BellkitError, too many a CapExceededError, and a site count that
    is not an integer a BellkitError.
    """
    n_sites = check_integer("site count", n_sites)
    if n_sites < least:
        raise BellkitError(f"site count must be at least {least}")
    if n_sites > max_sites:
        raise CapExceededError(
            f"{what} capped at {max_sites} sites, got {n_sites}"
        )
    return n_sites
