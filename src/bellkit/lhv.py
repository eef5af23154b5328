"""Local bounds from deterministic models.

A deterministic strategy fixes every observable outcome in advance: one
value in {-1, +1} per (site, observable) pair, 2N values in total. These
strategies are the vertices of the local correlation polytope, and since
the maximum of a linear functional over a convex set is attained at a
vertex, randomized local models never exceed deterministic ones.

Of the 4^N strategies only 2^N sign patterns matter for full
correlations. With s_i = [A_i(0) != A_i(1)], the product
prod_i A_i(k_i) equals (prod_i A_i(0)) * (-1)^(s.k), so every strategy
value is +-(H_N b)[s]: the local full-correlation vectors are the rows
of +-H_N (Werner & Wolf, PRA 64, 032112 (2001)). ``max_lhv`` contracts
one site at a time, keeping the outcome pairs (1, 1) and (1, -1); the
other two only flip the sign. Each step is two whole-list passes over
Python ints, exact for any coefficients and, at up to a few hundred
entries, cheaper than numpy's per-call overhead. It shares no code with
the transforms that generate inequalities (``kernels.sylvester_rows``
and ``polynomial.bell_poly``), so they cross-check each other. Nothing
here loads numpy but ``expectation_table``, when called.

The singlet fixtures model two spin measurements at angles theta_i and
eta_j on a rotationally invariant entangled pair, whose product
expectation is -cos(theta_i - eta_j). Single-site expectations vanish by
state symmetry (not computed here). Tilting one apparatus by any angle
phi leaves the mean over all nine setting pairs at zero because
cos(pi/3 + phi) + cos(pi + phi) + cos(5*pi/3 + phi) == 0.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from operator import add, sub
from typing import TYPE_CHECKING

from .coefficients import CoefficientVector, _as_vector, setting_digits
from .errors import BellkitError
from .limits import RECORD_MAX_SITES, check_index, check_integer, check_integers, check_sites

if TYPE_CHECKING:
    import numpy as np

TILT_ANGLES = (math.pi / 3, math.pi, 5 * math.pi / 3)


@dataclass(frozen=True)
class DeterministicStrategy:
    """Fixed outcomes: values[i] = (A_i(0), A_i(1)) for site i (0-based)."""

    n_sites: int
    values: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_sites", check_integer("site count", self.n_sites))
        if self.n_sites < 1:
            raise BellkitError("site count must be at least 1")
        # stored as plain ints: numpy ints pass, 1.0 is an error
        try:
            values = tuple(tuple(check_integers("strategy values", pair)) for pair in self.values)
        except TypeError:  # self.values is not iterable
            raise BellkitError("strategy values must be a sequence of pairs, "
                               f"got {type(self.values).__name__}") from None
        if len(values) != self.n_sites:
            raise BellkitError(f"expected {self.n_sites} value pairs")
        if not all(len(pair) == 2 and {*pair} <= {-1, 1} for pair in values):
            raise BellkitError("strategy values must be +1 or -1")
        object.__setattr__(self, "values", values)

    def encode(self) -> int:
        """Pack into 2N bits: low-N mask for observable 0, high-N for 1.

        Within each mask, site i occupies bit n_sites-1-i (the same
        position its digit has in a setting index); a set bit means -1.
        """
        m0 = m1 = 0
        for i, (a0, a1) in enumerate(self.values):
            bit = 1 << (self.n_sites - 1 - i)
            if a0 == -1:
                m0 |= bit
            if a1 == -1:
                m1 |= bit
        return m0 | (m1 << self.n_sites)

    @classmethod
    def decode(cls, n_sites: int, code: int) -> "DeterministicStrategy":
        n_sites = check_sites("strategy codes", n_sites, RECORD_MAX_SITES)
        code = check_index("strategy code", code, 1 << (2 * n_sites))
        m0 = code & ((1 << n_sites) - 1)
        m1 = code >> n_sites
        values = []
        for i in range(n_sites):
            bit = 1 << (n_sites - 1 - i)
            values.append((-1 if m0 & bit else 1, -1 if m1 & bit else 1))
        return cls(n_sites, tuple(values))


def strategy_value(v: CoefficientVector | Sequence[int],
                   s: DeterministicStrategy) -> int:
    """sum_k b_k prod_i A_i(k_i) for one strategy, in plain integer math."""
    v = _as_vector(v)
    if v.n_sites != s.n_sites:
        raise BellkitError("vector and strategy site counts differ")
    total = 0
    for k, c in enumerate(v.coeffs):
        if c == 0:
            continue
        product = 1
        for i, digit in enumerate(setting_digits(k, v.n_sites)):
            product *= s.values[i][digit]
        total += c * product
    return total


def max_lhv(v: CoefficientVector | Sequence[int], *, jobs: int = 1) -> int:
    """Largest |strategy value| over every deterministic strategy.

    Costs N * 2^N additions of Python ints; ``jobs`` is accepted and has
    no effect.
    """
    v = _as_vector(v)
    check_sites("strategy search", v.n_sites, RECORD_MAX_SITES)
    # a contract limit, not an arithmetic one: the contraction is exact for
    # any integers, but ``verify`` has always refused larger inputs
    if sum(map(abs, v.coeffs)) >= 1 << 63:
        raise BellkitError(
            "strategy search needs the sum of |coefficients| below 2^63"
        )
    # written out, not via the hadamard row masks: it must stay independent of
    # the generator. Each step contracts the last site: pairs (2j, 2j + 1)
    # give their sum at j and their difference at j + 2^(N-1).
    t = list(v.coeffs)
    for _ in range(v.n_sites):
        lo, hi = t[0::2], t[1::2]
        t = [*map(add, lo, hi), *map(sub, lo, hi)]
    return max(map(abs, t))


def is_tight(v: CoefficientVector | Sequence[int], claimed_bound: int) -> bool:
    """True when some deterministic strategy attains exactly the claim."""
    return max_lhv(v) == claimed_bound


# -- singlet fixtures ---------------------------------------------------------

@dataclass(frozen=True)
class SingletSetup:
    """Measurement angles (radians) for the two-site singlet fixture."""

    thetas: tuple[float, float, float] = (0.0, 2 * math.pi / 3, 4 * math.pi / 3)
    etas: tuple[float, float, float] = (math.pi, 5 * math.pi / 3, math.pi / 3)


def singlet_expectation(setup: SingletSetup, i: int, j: int) -> float:
    """Product expectation -cos(theta_i - eta_j); +1 on the diagonal."""
    i, j = check_index("angle index", i, 3), check_index("angle index", j, 3)
    return -math.cos(setup.thetas[i] - setup.etas[j])


def expectation_table(setup: SingletSetup | None = None,
                      phi: float = 0.0) -> np.ndarray:
    """3x3 table of product expectations, second apparatus tilted by phi."""
    from ._numpy import np

    phi = _reduce_angle(phi)
    setup = setup or SingletSetup()
    return np.array(
        [[-math.cos(setup.thetas[i] - setup.etas[j] - phi) for j in range(3)]
         for i in range(3)]
    )


def tilt_identity(phi: float) -> float:
    """cos(pi/3 + phi) + cos(pi + phi) + cos(5*pi/3 + phi); zero for all phi."""
    phi = _reduce_angle(phi)
    return sum(math.cos(angle + phi) for angle in TILT_ANGLES)


def _reduce_angle(phi: float) -> float:
    """phi modulo 2 pi, sign kept; exact, and the identity for |phi| < 2 pi.

    Adding a small angle to a huge phi would round the small one away.
    """
    try:
        phi = float(phi)
    except OverflowError:
        raise BellkitError("phi is too large for a float") from None
    except (TypeError, ValueError):
        raise BellkitError(f"phi must be a real number, got {phi!r}") from None
    if not math.isfinite(phi):
        raise BellkitError(f"phi must be finite, got {phi}")
    return math.fmod(phi, math.tau)
