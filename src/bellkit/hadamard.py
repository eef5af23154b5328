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

``build`` materializes the dense matrix (int8, capped at N = 13) and
``entry`` computes single entries on demand without it. The product
H @ c for a sign vector c is ``inequality.from_sign_vector``, a
matrix-free butterfly transform.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BellkitError
from .limits import DENSE_MAX_SITES, check_sites


def gf2_dot(j: int, k: int) -> int:
    """GF(2) scalar product of the binary expansions: popcount(j & k) mod 2."""
    if j < 0 or k < 0:
        raise BellkitError("indices must be nonnegative")
    return (j & k).bit_count() & 1


def entry(j: int, k: int) -> int:
    """Matrix entry (-1)^gf2_dot(j, k), valid for any nonnegative indices."""
    return -1 if gf2_dot(j, k) else 1


@dataclass(frozen=True, eq=False)
class HadamardMatrix:
    """Dense order-2^N matrix with entries in {-1, +1}."""

    order: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        if self.order < 1 or self.order & (self.order - 1):
            raise BellkitError(f"order must be a power of two, got {self.order}")
        if self.entries.shape != (self.order, self.order):
            raise BellkitError("entry array does not match the declared order")
        self.entries.flags.writeable = False

    @property
    def n_sites(self) -> int:
        return self.order.bit_length() - 1

    def entry(self, j: int, k: int) -> int:
        """Single entry, computed on demand with bounds checking."""
        if not (0 <= j < self.order and 0 <= k < self.order):
            raise BellkitError(
                f"index ({j}, {k}) out of range for order {self.order}"
            )
        return entry(j, k)


def build(n_sites: int) -> HadamardMatrix:
    """Dense matrix of order 2^n_sites via the block-doubling recursion."""
    check_sites("dense construction", n_sites, DENSE_MAX_SITES, least=0)
    h = np.array([[1]], dtype=np.int8)
    for _ in range(n_sites):
        h = np.block([[h, h], [h, -h]])
    return HadamardMatrix(1 << n_sites, h)


def kronecker(a: HadamardMatrix, b: HadamardMatrix) -> HadamardMatrix:
    """Kronecker product; block (i, j) of the result is a[i, j] * b."""
    check_sites("Kronecker product", a.n_sites + b.n_sites, DENSE_MAX_SITES, least=0)
    return HadamardMatrix(a.order * b.order,
                          np.kron(a.entries, b.entries).astype(np.int8))

