"""Correlation Bell inequalities for N qubits with two observables per site.

The package builds the complete family of full-correlation Bell
inequalities from sign-matrix transforms, mirrors it as single-variable
polynomials indexed by sign/parity number pairs, verifies every member
against a brute-force search over local deterministic strategies, and
counts structural statistics of the family. See the README for the CLI.
"""
import os
import sys

# Every matrix product here is on int64, so numpy never calls BLAS, and an
# OpenBLAS pool would only add a busy-waiting thread and its buffers per
# extra core. Load numpy with one BLAS thread, then restore the environment
# for the caller and its children. A caller who set a count, or imported
# numpy first, keeps what they chose.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in _BLAS_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .analysis import (
    ClassificationReport,
    binomial_identity_sides,
    classify,
    max_b0_family,
    term_count,
    verify_binomial_identity,
    zero_probability,
    zero_probability_asymptotic,
)
from .errors import BellkitError, CapExceededError
from .hadamard import HadamardMatrix, build, entry, gf2_dot, kronecker
from .inequality import (
    CoefficientVector,
    StandardForm,
    bound,
    bowtie,
    canonical,
    enumerate_inequalities,
    from_sign_vector,
    reverse_observables,
    sign_vector_from_code,
    standard_form,
    symmetry_orbit,
    to_traditional,
)
from .lhv import (
    DeterministicStrategy,
    SingletSetup,
    expectation_table,
    is_tight,
    max_lhv,
    singlet_expectation,
    strategy_value,
    tilt_identity,
)
from .polynomial import (
    BellPolynomial,
    NormalizedBellPolynomial,
    UVIndex,
    bell_poly,
    column_poly,
    constant_coeff,
    evaluate,
    negate_index,
    normalize,
    reflect_index,
    summand_poly,
)
from .polynomial import bowtie as bowtie_poly

__version__ = "0.1.0"

__all__ = [
    "BellkitError",
    "BellPolynomial",
    "CapExceededError",
    "ClassificationReport",
    "CoefficientVector",
    "DeterministicStrategy",
    "HadamardMatrix",
    "NormalizedBellPolynomial",
    "SingletSetup",
    "StandardForm",
    "UVIndex",
    "bell_poly",
    "binomial_identity_sides",
    "bound",
    "bowtie",
    "bowtie_poly",
    "build",
    "canonical",
    "classify",
    "column_poly",
    "constant_coeff",
    "enumerate_inequalities",
    "entry",
    "evaluate",
    "expectation_table",
    "from_sign_vector",
    "gf2_dot",
    "is_tight",
    "kronecker",
    "max_b0_family",
    "max_lhv",
    "negate_index",
    "normalize",
    "reflect_index",
    "reverse_observables",
    "sign_vector_from_code",
    "singlet_expectation",
    "standard_form",
    "strategy_value",
    "summand_poly",
    "symmetry_orbit",
    "term_count",
    "tilt_identity",
    "to_traditional",
    "zero_probability",
    "zero_probability_asymptotic",
]
