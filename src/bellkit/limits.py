"""Default size caps.

The caps keep accidental huge requests from exhausting memory or CPU.
"""
from __future__ import annotations

# dense 2^13 x 2^13 int8 matrix is ~64 MiB
DENSE_MAX_SITES = 13
# full in-memory enumeration: 2^16 vectors of length 16
MATERIALIZE_MAX_SITES = 4
# streaming enumeration / classification: 2^32 sign vectors
STREAM_MAX_SITES = 5
# brute-force LHV search: 4^14 / 2 strategies
LHV_MAX_SITES = 14
# relabeling orbits: 5! * 2^5 * 2^6 = 245,760 group elements
ORBIT_MAX_SITES = 5
