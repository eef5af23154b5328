"""Correlation Bell inequalities for N qubits with two observables per site.

The package builds the complete family of full-correlation Bell
inequalities from sign-matrix transforms, mirrors it as single-variable
polynomials indexed by sign/parity number pairs, verifies every member
against a brute-force search over local deterministic strategies, and
counts structural statistics of the family. See the README for the CLI.

Every public name resolves on first use from its home module, so
``import bellkit`` loads no numpy; numpy loads with the first batch
module (``kernels``, ``analysis``, ``inequality`` or ``cli``).
"""
import importlib

__version__ = "0.1.0"

# home module -> the public names it defines; ``bowtie_poly`` is polynomial.bowtie
_EXPORTS = {
    "analysis": ("ClassificationReport", "binomial_identity_sides", "classify",
                 "max_b0_family", "term_count", "verify_binomial_identity",
                 "zero_probability", "zero_probability_asymptotic"),
    "coefficients": ("CoefficientVector", "StandardForm", "bound", "bowtie",
                     "from_sign_vector", "reverse_observables", "sign_vector_from_code",
                     "standard_form", "to_traditional"),
    "errors": ("BellkitError", "CapExceededError"),
    "hadamard": ("HadamardMatrix", "build", "entry", "gf2_dot", "kronecker"),
    "inequality": ("canonical", "enumerate_inequalities", "symmetry_orbit"),
    "lhv": ("DeterministicStrategy", "SingletSetup", "expectation_table", "is_tight",
            "max_lhv", "singlet_expectation", "strategy_value", "tilt_identity"),
    "polynomial": ("BellPolynomial", "NormalizedBellPolynomial", "UVIndex", "bell_poly",
                   "bowtie_poly", "column_poly", "constant_coeff", "evaluate",
                   "negate_index", "normalize", "reflect_index", "summand_poly"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# verify_binomial_identity is importable but has never been in __all__
__all__ = sorted(_HOME.keys() - {"verify_binomial_identity"})


# Not cached in globals(): every lookup sees the home module's attribute,
# also while a test or the benchmark's tracer has replaced it there.
def __getattr__(name: str):
    """The public name from its home module, imported on first use (PEP 562)."""
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f"{__name__}.{home}")
    return getattr(module, "bowtie" if name == "bowtie_poly" else name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
