"""Sylvester-type Hadamard matrices over {-1, +1}.

The order-2^N matrix has entries (-1)^<j,k> where <j,k> is the GF(2)
scalar product of the binary expansions of the row and column indices,
i.e. the parity of popcount(j AND k). The same matrix arises from the
block recursion

    H_1 = (1),    H_2n = [[H_n, H_n], [H_n, -H_n]],

equivalently as the N-fold Kronecker power of H_2. Matrices of this
family are symmetric, normalized (first row and column all +1) and
orthogonal: H @ H.T == 2^N * I, which also makes |det H| maximal among
matrices with entries bounded by 1.

Site digits follow the convention of writing an index k < 2^N in binary
with the site-1 digit as the most significant bit. The GF(2) product is
digit-position symmetric, so entries do not depend on that choice, but
every module that interprets indices digit-wise shares it.

Every sign in the package comes from here: ``entry`` for one entry,
``parity`` for numpy index grids, ``sylvester_masks`` for every row as
the bitmask of its -1 entries, and ``build`` for the dense int8 matrix
(capped at N = 13). H @ c is ``coefficients.from_sign_vector``.

Importing this module loads no numpy, so the integer modules can use
it: ``parity``, ``build`` and ``kronecker`` import numpy when called.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import limits
from .errors import BellkitError
from .limits import DENSE_MAX_SITES, check_index, check_integer, check_sites, int_text

if TYPE_CHECKING:
    import numpy as np


def gf2_dot(j: int, k: int) -> int:
    """GF(2) scalar product of the binary expansions: popcount(j & k) mod 2."""
    j, k = check_integer("index", j), check_integer("index", k)
    if j < 0 or k < 0:
        raise BellkitError("indices must be nonnegative")
    return (j & k).bit_count() & 1


def entry(j: int, k: int) -> int:
    """Matrix entry (-1)^gf2_dot(j, k), valid for any nonnegative indices."""
    return -1 if gf2_dot(j, k) else 1


def parity(j: np.ndarray, k: np.ndarray) -> np.ndarray:
    """gf2_dot over broadcast integer arrays, as uint8: 1 where the entry is -1."""
    from ._numpy import np

    return np.bitwise_count(j & k) & 1


@functools.cache
def sylvester_masks(length: int) -> tuple[int, ...]:
    """Bitmask r_k of the -1 entries of row k (bit j is gf2_dot(j, k)), every k < length.

    Built by the doubling H_2w = [[H_w, H_w], [H_w, -H_w]], once per length.
    """
    rows, w = (0,), 1
    while w < length:
        ones = (1 << w) - 1
        rows = (tuple(r | r << w for r in rows)
                + tuple(r | (r ^ ones) << w for r in rows))
        w *= 2
    return rows


@dataclass(frozen=True, eq=False)
class HadamardMatrix:
    """Dense order-2^N matrix with entries in {-1, +1}."""

    order: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        order = check_integer("order", self.order)
        if order < 1 or order & (order - 1):
            raise BellkitError(f"order must be a power of two, got {int_text(order)}")
        if getattr(self.entries, "shape", None) != (order, order):
            raise BellkitError("entry array does not match the declared order")
        object.__setattr__(self, "order", order)
        self.entries.flags.writeable = False

    @property
    def n_sites(self) -> int:
        return self.order.bit_length() - 1

    def entry(self, j: int, k: int) -> int:
        """Single entry, computed on demand with bounds checking."""
        return entry(check_index("row", j, self.order), check_index("column", k, self.order))


def build(n_sites: int) -> HadamardMatrix:
    """Dense int8 matrix of order 2^n_sites from ``parity``, in bounded row batches."""
    from ._numpy import np

    n_sites = check_sites("dense construction", n_sites, DENSE_MAX_SITES, least=0)
    order = 1 << n_sites
    h = np.empty((order, order), dtype=np.int8)
    k = np.arange(order)
    step = max(1, limits.OUTPUT_BATCH_CELLS // order)
    for start in range(0, order, step):
        h[start:start + step] = 1 - 2 * parity(k[start:start + step, None], k).view(np.int8)
    return HadamardMatrix(order, h)


def kronecker(a: HadamardMatrix, b: HadamardMatrix) -> HadamardMatrix:
    """Kronecker product; block (i, j) of the result is a[i, j] * b."""
    from ._numpy import np

    check_sites("Kronecker product", a.n_sites + b.n_sites, DENSE_MAX_SITES, least=0)
    return HadamardMatrix(a.order * b.order,
                          np.kron(a.entries, b.entries).astype(np.int8))

