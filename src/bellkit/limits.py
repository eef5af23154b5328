"""Default size caps.

The caps keep accidental huge requests from exhausting memory or CPU.
Every check runs before anything of the requested size is allocated.
"""
from __future__ import annotations

from .errors import CapExceededError

# dense 2^13 x 2^13 int8 matrix is ~64 MiB
DENSE_MAX_SITES = 13
# full in-memory enumeration: 2^16 vectors of length 16
MATERIALIZE_MAX_SITES = 4
# streaming enumeration / classification: 2^32 sign vectors
STREAM_MAX_SITES = 5
# any single record of 2^N coefficients (sign vector, summand, family
# member, LHV input): 2^14 entries; the LHV contraction is 14 * 2^14 additions
RECORD_MAX_SITES = 14
# relabeling orbits: 5! * 2^5 * 2^6 = 245,760 group elements
ORBIT_MAX_SITES = 5
# binomial identity: C(2^13, 2^12) has 2,466 digits and C(2^14, 2^13) has
# 4,932, past the interpreter's 4,300-digit limit on int-to-text conversion
IDENTITY_MAX_SITES = 13


def check_sites(what: str, n_sites: int, max_sites: int) -> None:
    """Raise CapExceededError when n_sites exceeds max_sites."""
    if n_sites > max_sites:
        raise CapExceededError(
            f"{what} capped at {max_sites} sites, got {n_sites}"
        )
