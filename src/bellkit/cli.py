"""Command-line interface.

JSON output is one record per line on stdout, each shaped as

    {"schema_version": 1, "command": <subcommand>, "payload": {...}}

with exact integers throughout (never floats for coefficients or
counts). Validation problems produce a machine-readable error record on
stderr and exit code 2; usage errors exit with 64. Text-style formats
(ascii grids, shorthand, traditional notation, tables) print plain
lines instead of records.

Every command that prints one record ends in ``_out``, the one switch
between ``--format json`` and ``--format text``. ``hadamard``, ``enum``
and ``construct`` stream their output a batch at a time instead.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction

from . import analysis, hadamard, inequality, kernels, lhv, limits, polynomial
from ._numpy import np
from .errors import BellkitError
from .limits import DENSE_MAX_SITES, check_sites

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # no option name starts with a digit, so "-2,-2,-2,2", "-1/2",
        # "-2.5" and "-.5" are option values
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _text(convert, value) -> str:
    """convert(value), with the interpreter's limit on printing an integer as an error."""
    try:
        return convert(value)
    except ValueError:
        # the interpreter's guard against quadratic int-to-text conversion
        raise BellkitError(
            f"value has more than {sys.get_int_max_str_digits()} digits, "
            "the limit for printing an integer"
        ) from None


def _record(command: str, body: dict, part: str = "payload") -> str:
    """One JSON record line, without its newline: a payload or an error."""
    return _text(functools.partial(json.dumps, ensure_ascii=False),
                 {"schema_version": SCHEMA_VERSION, "command": command, part: body})


def _out(args, payload: dict, text) -> int:
    """Print text() for ``--format text``, else payload as one record; JSON never calls text."""
    print(text() if args.format == "text" else _record(args.command, payload))
    return EXIT_OK


def _parse_int(text: str) -> int:
    """Accept decimal, 0x.., 0o.. and 0b.. integer literals."""
    try:
        return int(text, 0)
    except ValueError:
        raise BellkitError(f"not an integer: {text!r}") from None


def _parse_coeffs(text: str, record=inequality.CoefficientVector):
    """2^N comma-separated integers as ``record(N, coeffs)``.

    Inequalities reject a zero coefficient sum; polynomials
    (``record=polynomial.BellPolynomial``) accept it.
    """
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise BellkitError(
            f"coefficients must be comma-separated integers: {text!r}"
        ) from None
    return record(inequality.site_count(len(values)), values)


def _default_jobs() -> int:
    return os.cpu_count() or 1


def _jobs(text: str) -> int:
    """--jobs value: at least 1; larger than the CPU count means the CPU count."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return min(jobs, _default_jobs())


# -- subcommand handlers ------------------------------------------------------

# per format: the +1 and -1 cells, the cell separator, the row starts
# (first row, later rows) and the row end
_GRID_TEXT = {
    "ascii": ("+", "-", "", ["", ""], "\n"),
    "pbm": ("1", "0", " ", ["", ""], "\n"),
    "json": ("1", "-1", ", ", ["[", ", ["], "]"),
}


def _cmd_hadamard(args) -> int:
    """Write the sign matrix a batch of rows at a time, from popcount(j AND k) parity."""
    n = check_sites("dense construction", args.n, DENSE_MAX_SITES, least=0)
    order = 1 << n
    plus, minus, sep, starts, end = _GRID_TEXT[args.format]
    cells = kernels.token_table([plus + sep, plus, minus + sep, minus])
    starts = kernels.token_table(starts)
    head, tail = _record("hadamard", {"n": n, "order": order,
                                      "entries": []}).split("[]")
    head, tail = {"ascii": ("", ""), "pbm": (f"P1\n{order} {order}\n", ""),
                  "json": (head + "[", "]" + tail + "\n")}[args.format]
    k = np.arange(order)
    step = max(1, limits.OUTPUT_BATCH_CELLS // order)
    sys.stdout.write(head)
    for start in range(0, order, step):
        j = np.arange(start, min(start + step, order))[:, None]
        index = 2 * hadamard.parity(j, k) + (k == order - 1)
        sys.stdout.write(kernels.join_rows([kernels.lookup(starts, j > 0),
                                            kernels.lookup(cells, index), end]))
    sys.stdout.write(tail)
    return EXIT_OK


def _cmd_gen(args) -> int:
    code = _parse_int(args.c)
    c = inequality.sign_vector_from_code(code, args.n)
    v = inequality.from_sign_vector(c)
    sf = inequality.standard_form(v)
    payload = {"n": v.n_sites, "c": code, "coeffs": list(v.coeffs),
               "bound": inequality.bound(v), "terms": analysis.term_count(v),
               "standard_form": list(sf.coeffs),
               "standard_bound": inequality.bound(sf)}
    return _out(args, payload, lambda: inequality.to_traditional(sf))


@functools.lru_cache(maxsize=None)
def _number_tokens(n: int, suffix: str = "") -> np.ndarray:
    """``kernels.token_table`` of f"{v}{suffix}" for v = -2^n .. 2^n, row v + 2^n."""
    return kernels.token_table([f"{v}{suffix}" for v in range(-(1 << n), (1 << n) + 1)])


def _coeff_tokens(n: int, block: np.ndarray) -> list[np.ndarray]:
    """The entries of every row, in [-2^n, 2^n], comma-separated: two byte matrices."""
    shift = 1 << n
    return [kernels.lookup(_number_tokens(n, ", "), block[:, :-1] + shift),
            kernels.lookup(_number_tokens(n), block[:, -1:] + shift)]


def _enum_text(n: int, start: int, block: np.ndarray, fmt: str) -> str:
    """The ``enum`` lines of the rows of codes start, start + 1, ..., as one text.

    Every entry, row sum and term count lies in [-2^n, 2^n], as in every
    family member and its standard form, so each is one token of
    ``_number_tokens``; JSON lines are ``_record``'s text.
    """
    shift = 1 << n
    numbers = _number_tokens(n)
    bound = kernels.lookup(numbers, np.abs(block.sum(axis=1, keepdims=True)) + shift)
    if fmt == "traditional":
        return kernels.join_rows(["|", inequality._traditional_terms(block),
                                  f"| {inequality.LEQ} ", bound, "\n"])
    coeffs = _coeff_tokens(n, block)
    if fmt == "shorthand":
        return kernels.join_rows(["(", *coeffs, ")\n"])
    codes = kernels.decimal_digits(np.arange(start, start + len(block)))
    terms = kernels.lookup(numbers, np.count_nonzero(block, axis=1, keepdims=True) + shift)
    return kernels.join_rows([
        f'{{"schema_version": {SCHEMA_VERSION}, "command": "enum", "payload": '
        f'{{"n": {n}, "c": ', codes, ', "coeffs": [', *coeffs, '], "bound": ', bound,
        ', "terms": ', terms, "}}\n"])


def _cmd_enum(args) -> int:
    """Render each batch of rows as one text and write it at once."""
    for start, block in inequality.coefficient_batches(args.n, stream=args.stream):
        if args.standard_form:
            block = inequality._standard_rows(block)
        sys.stdout.write(_enum_text(args.n, start, block, args.format))
    return EXIT_OK


def _cmd_poly_buv(args) -> int:
    poly = polynomial.bell_poly(polynomial.UVIndex(args.n, args.u, args.v))
    payload = {"n": args.n, "u": args.u, "v": args.v, "coeffs": list(poly.coeffs),
               "poly": _text(str, poly)}
    return _out(args, payload, lambda: payload["poly"])


def _cmd_poly_s(args) -> int:
    poly = polynomial.summand_poly(args.n, args.k)
    payload = {"n": args.n, "k": args.k, "coeffs": list(poly.coeffs),
               "poly": _text(str, poly)}
    return _out(args, payload, lambda: payload["poly"])


def _cmd_poly_bowtie(args) -> int:
    a = _parse_coeffs(args.a, polynomial.BellPolynomial)
    b = _parse_coeffs(args.b, polynomial.BellPolynomial)
    if args.n is not None and a.n_sites != args.n:
        raise BellkitError(
            f"--a has {a.n_sites} sites, but --n {args.n} was given"
        )
    poly = polynomial.bowtie(a, b)
    payload = {"n": poly.n_sites, "coeffs": list(poly.coeffs), "poly": _text(str, poly)}
    return _out(args, payload, lambda: payload["poly"])


def _cmd_poly_eval(args) -> int:
    poly = _parse_coeffs(args.coeffs, polynomial.BellPolynomial)
    try:
        z = Fraction(args.z)
    except (ValueError, ZeroDivisionError):
        raise BellkitError(f"not a rational number: {args.z!r}") from None
    value = _text(str, Fraction(polynomial.evaluate(poly, z)))
    return _out(args, {"coeffs": list(poly.coeffs), "z": str(z), "value": value},
                lambda: value)


def _cmd_verify(args) -> int:
    v = _parse_coeffs(args.coeffs)
    bound = inequality.bound(v)
    claimed = bound if args.bound is None else args.bound
    maximum = lhv.max_lhv(v)
    tight = maximum == claimed
    payload = {"n": v.n_sites, "coeffs": list(v.coeffs), "bound": bound,
               "claimed_bound": claimed, "max_lhv": maximum, "tight": tight}
    return _out(args, payload, lambda: (
        f"max_lhv {maximum}, claimed {claimed}, tight {'true' if tight else 'false'}"))


def _cmd_singlet(args) -> int:
    setup = lhv.SingletSetup()
    table = lhv.expectation_table(setup, phi=args.phi)
    payload = {"phi": args.phi, "thetas": list(setup.thetas), "etas": list(setup.etas),
               "table": table.tolist(), "mean": table.mean()}

    def text() -> str:
        rows = (f"i={i}  " + "  ".join(f"{x:+.4f}" for x in row) for i, row in enumerate(table))
        return "\n".join([f"phi = {args.phi:.6f}", "      j=0      j=1      j=2", *rows,
                          f"mean = {payload['mean']:+.2e}"])

    return _out(args, payload, text)


def _cmd_classify(args) -> int:
    report = analysis.classify(args.n, sample_size=args.sample, seed=args.seed,
                               jobs=args.jobs)
    payload = {
        "n": report.n_sites,
        "mode": report.mode,
        "total": report.total,
        "histogram": list(report.histogram),
        "full_term": report.full_term,
        "full_term_fraction": report.full_term_fraction,
        "trivial_classes": report.trivial_classes,
        "zero_counts": list(report.zero_counts),
    }
    if report.mode == "sample":
        payload["seed"] = report.seed
        payload["full_term_stderr"] = report.full_term_stderr

    def text() -> str:
        spread = ("" if report.full_term_stderr is None
                  else f" +- {report.full_term_stderr:.6f}")
        trivial = ([] if report.trivial_classes is None
                   else [f"trivial classes: {report.trivial_classes}"])
        nonzero = ", ".join(f"{t}: {c}" for t, c in enumerate(report.histogram) if c)
        return "\n".join([
            f"n={report.n_sites} mode={report.mode} total={report.total}",
            f"full-term: {report.full_term} ({report.full_term_fraction:.6f}{spread})",
            *trivial, f"terms histogram: {nonzero}",
            "zero counts: " + ", ".join(map(str, report.zero_counts))])

    return _out(args, payload, text)


@functools.lru_cache(maxsize=None)
def _sign_terms(n: int) -> np.ndarray:
    """``kernels.token_table`` of the term c z^p, c = -1, +1, at row 2p + (c > 0).

    Power 0 is the first term: every member shown is full-term.
    """
    return kernels.token_table([polynomial.term(c, polynomial.power_label(p), p == 0)
                                for p in range(1 << n) for c in (-1, 1)])


def _cmd_construct(args) -> int:
    """Render each batch of members as one text and write it at once.

    Every coefficient is +-1 but b_0 = 2^(N-1) - 1, the last one for
    k = 1, so that term is one string and the others come from
    ``_sign_terms``. u is 0 or v, and v = 2^i (up to 2,466 digits) serves
    two pairs, so each distinct number becomes decimal text once per
    batch; the lines equal those of ``_record`` and ``str``.
    """
    n, k = args.n, args.k
    for start, rows in analysis.max_b0_batches(n, k):
        length = rows.shape[1]
        b0 = polynomial.term(length // 2 - 1, polynomial.power_label(k * (length - 1)),
                             k == 0)
        index = 2 * np.arange(length) + (rows > 0)
        terms = kernels.lookup(_sign_terms(n), index[:, 1:] if k == 0 else index[:, :-1])
        poly = [b0, terms] if k == 0 else [terms, b0]
        if args.format == "text":
            sys.stdout.write(kernels.join_rows([*poly, "\n"]))
            continue
        pairs = map(analysis.max_b0_pair, range(start, start + len(rows)))
        decimal = functools.cache(str)
        uv = kernels.token_table([f'{decimal(u)}, "v": {decimal(v)}' for u, v in pairs])
        sys.stdout.write(kernels.join_rows([
            f'{{"schema_version": {SCHEMA_VERSION}, "command": "construct", "payload": '
            f'{{"n": {n}, "k": {k}, "u": ', uv, ', "coeffs": [', *_coeff_tokens(n, rows),
            '], "poly": "', *poly, '"}}\n']))
    return EXIT_OK


def _cmd_identity(args) -> int:
    lhs, rhs = analysis.binomial_identity_sides(args.n)
    equal = lhs == rhs
    return _out(args, {"n": args.n, "lhs": lhs, "rhs": rhs, "equal": equal},
                lambda: f"{lhs} == {rhs}: {'true' if equal else 'false'}")


# -- parser wiring ------------------------------------------------------------

def _add_jobs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=_jobs, default=_default_jobs(),
                   help="worker threads for the batches of classify --sample; "
                        "the exact census runs on the calling thread, and enum "
                        "and verify accept and ignore it. At least 1 (default "
                        f"and upper limit: the CPU count, {_default_jobs()})")


def _add_format(p: argparse.ArgumentParser, choices=("json", "text"),
                default: str = "json") -> None:
    p.add_argument("--format", choices=choices, default=default)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bellkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hadamard", help="print a sign matrix")
    p.add_argument("--n", type=int, required=True)
    _add_format(p, choices=("ascii", "json", "pbm"), default="ascii")
    p.set_defaults(handler=_cmd_hadamard)

    p = sub.add_parser("gen", help="one inequality from a sign-vector bitmask")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", required=True,
                   help="bitmask (bit j set means c_j = -1); 0b/0x prefixes ok")
    _add_format(p)
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("enum", help="enumerate the whole family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--stream", action="store_true",
                   help="required beyond 4 sites (huge output)")
    p.add_argument("--standard-form", action="store_true")
    _add_jobs(p)
    _add_format(p, choices=("json", "shorthand", "traditional"))
    p.set_defaults(handler=_cmd_enum)

    p = sub.add_parser("poly", help="polynomial operations")
    poly_sub = p.add_subparsers(dest="poly_command", required=True)

    q = poly_sub.add_parser("buv", help="family member for a (u, v) pair")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--u", type=int, required=True)
    q.add_argument("--v", type=int, required=True)
    _add_format(q)
    q.set_defaults(handler=_cmd_poly_buv)

    q = poly_sub.add_parser("s", help="summand polynomial")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    _add_format(q)
    q.set_defaults(handler=_cmd_poly_s)

    q = poly_sub.add_parser("bowtie", help="lift two polynomials one site up")
    q.add_argument("--n", type=int, default=None)
    q.add_argument("--a", required=True, help="comma-separated coefficients")
    q.add_argument("--b", required=True, help="comma-separated coefficients")
    _add_format(q)
    q.set_defaults(handler=_cmd_poly_bowtie)

    q = poly_sub.add_parser("eval", help="exact evaluation at a rational point")
    q.add_argument("--coeffs", required=True)
    q.add_argument("--z", required=True, help="rational, e.g. 2, -1, 1/2")
    _add_format(q)
    q.set_defaults(handler=_cmd_poly_eval)

    p = sub.add_parser("verify", help="brute-force LHV bound of a vector")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--bound", type=int, default=None)
    _add_jobs(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("singlet", help="singlet expectation table")
    p.add_argument("--phi", type=float, default=0.0,
                   help="tilt of the second apparatus, radians")
    _add_format(p)
    p.set_defaults(handler=_cmd_singlet)

    p = sub.add_parser("classify", help="term-count census of the family")
    p.add_argument("--n", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exhaustive", action="store_true",
                       help="the default: kept so that scripts which pass it still work")
    group.add_argument("--sample", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    _add_jobs(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("construct", help="special-member constructions")
    construct_sub = p.add_subparsers(dest="construct_command", required=True)
    q = construct_sub.add_parser(
        "max-b0", help="members maximizing the repeated-setting coefficient"
    )
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--k", type=int, choices=(0, 1), required=True)
    _add_format(q)
    q.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("identity", help="exact binomial identity check")
    p.add_argument("--n", type=int, required=True)
    _add_format(p)
    p.set_defaults(handler=_cmd_identity)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BellkitError as exc:
        print(_record(args.command, {"message": str(exc)}, "error"), file=sys.stderr)
        return EXIT_INVALID
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
