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
# LHV bound: 2^14 coefficients, contracted in 14 * 2^14 additions
LHV_MAX_SITES = 14
# relabeling orbits: 5! * 2^5 * 2^6 = 245,760 group elements
ORBIT_MAX_SITES = 5
