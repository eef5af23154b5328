"""Output checks that share no code with bellkit.

Every check here rebuilds the expected answer from first principles: the
dense Sylvester matrix with entries (-1)^popcount(j & k), closed-form
census identities, and the Werner-Wolf / Zukowski-Brukner fact that every
raw family member has local maximum exactly 2^N and is tight.

Each check returns a list of problems; an empty list means the output
passed. A request whose check reports a problem counts as failed.
"""
from __future__ import annotations

import hashlib
import json
import math
from functools import lru_cache

import numpy as np

MINUS = "−"
LEQ = "≤"

# Exhaustive N=4 term-count histogram of the 65,536 family members.
N4_HISTOGRAM = {1: 32, 4: 1120, 8: 3840, 10: 26880, 16: 33664}
ZERO_SIGMAS = 5.0


@lru_cache(maxsize=None)
def sylvester(n_sites: int) -> np.ndarray:
    """Dense order-2^N Sylvester matrix, int64, read-only."""
    k = np.arange(1 << n_sites, dtype=np.int64)
    parity = np.bitwise_count(k[:, None] & k[None, :]).astype(np.int64) & 1
    h = 1 - 2 * parity
    h.flags.writeable = False
    return h


def sign_rows(codes, length: int) -> np.ndarray:
    """Rows of +-1 signs; bit j of a code set means sign j is -1."""
    codes = np.asarray(codes, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(length, dtype=np.int64)) & 1
    return 1 - 2 * bits


def members(n_sites: int, codes) -> np.ndarray:
    """Raw family members H c for each code, one per row (int64)."""
    return sign_rows(codes, 1 << n_sites) @ sylvester(n_sites)


def scaled_members_ok(n_sites: int, rows: np.ndarray, scale: int) -> np.ndarray:
    """Per row: is H x equal to scale * (+-1 vector)? H is symmetric.

    float64 products are exact here: every entry stays far below 2^53.
    """
    h = sylvester(n_sites).astype(np.float64)
    back = np.asarray(rows, dtype=np.float64) @ h
    return np.all(np.abs(back) == scale, axis=1)


# -- enumerate ------------------------------------------------------------------

def check_enum_records(n_sites: int, lines, first_code: int = 0) -> list[str]:
    """JSON enum records against the dense Sylvester product, in code order."""
    count = len(lines)
    length = 1 << n_sites
    codes = np.empty(count, dtype=np.int64)
    coeffs = np.empty((count, length), dtype=np.int64)
    bounds = np.empty(count, dtype=np.int64)
    terms = np.empty(count, dtype=np.int64)
    problems: list[str] = []
    for i, line in enumerate(lines):
        try:
            record = json.loads(line)
            payload = record["payload"]
            if record["schema_version"] != 1 or record["command"] != "enum":
                raise ValueError("wrong record header")
            if payload["n"] != n_sites or len(payload["coeffs"]) != length:
                raise ValueError("wrong size")
            codes[i] = payload["c"]
            coeffs[i] = payload["coeffs"]
            bounds[i] = payload["bound"]
            terms[i] = payload["terms"]
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"record {i}: {exc}")
            if len(problems) > 5:
                return problems
    if problems:
        return problems
    want_codes = np.arange(first_code, first_code + count, dtype=np.int64)
    if not np.array_equal(codes, want_codes):
        return [f"codes are not {first_code}..{first_code + count - 1} in order"]
    want = members(n_sites, want_codes)
    bad = np.flatnonzero(np.any(coeffs != want, axis=1))
    problems += [f"code {codes[i]}: coefficients differ" for i in bad[:5]]
    bad = np.flatnonzero(bounds != np.abs(want.sum(axis=1)))
    problems += [f"code {codes[i]}: wrong bound" for i in bad[:5]]
    want_terms = np.count_nonzero(want, axis=1)
    bad = np.flatnonzero(terms != want_terms)
    problems += [f"code {codes[i]}: wrong term count" for i in bad[:5]]
    return problems


def standard_form(row) -> tuple[int, ...]:
    """Divide by the gcd and make the coefficient sum positive."""
    values = [int(x) for x in row]
    g = math.gcd(*values)
    values = [x // g for x in values]
    if sum(values) < 0:
        values = [-x for x in values]
    return tuple(values)


def traditional(coeffs, n_sites: int) -> str:
    """|E(1,1) − E(1,2) ...| ≤ bound, 1-based observable digits."""
    parts: list[str] = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        digits = ",".join(str(((k >> (n_sites - 1 - i)) & 1) + 1)
                          for i in range(n_sites))
        term = ("" if abs(c) == 1 else str(abs(c))) + f"E({digits})"
        if not parts:
            parts.append(term if c > 0 else MINUS + term)
        else:
            parts.append(f" {'+' if c > 0 else MINUS} {term}")
    return f"|{''.join(parts)}| {LEQ} {abs(sum(coeffs))}"


def standard_traditional_text(n_sites: int) -> bytes:
    """Expected stdout of `enum --n N --standard-form --format traditional`."""
    rows = members(n_sites, np.arange(1 << (1 << n_sites), dtype=np.int64))
    lines = [traditional(standard_form(row), n_sites) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def text_digest(data: bytes) -> dict:
    return {"lines": data.count(b"\n"), "sha256": hashlib.sha256(data).hexdigest()}


def check_text(data: bytes, expected: dict) -> list[str]:
    got = text_digest(data)
    if got != expected:
        return [f"text output {got} differs from expected {expected}"]
    return []


# -- census ---------------------------------------------------------------------

def _classify_payload(lines, n_sites: int, mode: str) -> dict:
    if len(lines) != 1:
        raise ValueError(f"expected one record, got {len(lines)}")
    record = json.loads(lines[0])
    payload = record["payload"]
    if record["command"] != "classify" or payload["n"] != n_sites:
        raise ValueError("wrong record header")
    if payload["mode"] != mode:
        raise ValueError(f"mode {payload['mode']!r}, expected {mode!r}")
    return payload


def check_census_exhaustive4(lines) -> list[str]:
    try:
        p = _classify_payload(lines, 4, "exhaustive")
    except (ValueError, KeyError, TypeError) as exc:
        return [str(exc)]
    problems = []
    hist = {t: c for t, c in enumerate(p["histogram"]) if c}
    if hist != N4_HISTOGRAM:
        problems.append(f"histogram {hist}")
    if p["total"] != 1 << 16 or p["full_term"] != N4_HISTOGRAM[16]:
        problems.append("total or full-term count is wrong")
    if p["trivial_classes"] != 16:
        problems.append(f"trivial classes {p['trivial_classes']}")
    if p["zero_counts"] != [math.comb(16, 8)] * 16:
        problems.append("exhaustive zero counts differ from C(16, 8)")
    return problems


def check_census_sample(lines, n_sites: int, size: int, seed: int) -> list[str]:
    """Sample census: identities plus a per-position zero-count σ bound."""
    try:
        p = _classify_payload(lines, n_sites, "sample")
    except (ValueError, KeyError, TypeError) as exc:
        return [str(exc)]
    length = 1 << n_sites
    hist, zeros = p["histogram"], p["zero_counts"]
    problems = []
    if p["total"] != size or p["seed"] != seed:
        problems.append("total or seed not echoed")
    if len(hist) != length + 1 or len(zeros) != length or sum(hist) != size:
        return problems + ["histogram does not cover the sample"]
    if sum((length - t) * c for t, c in enumerate(hist)) != sum(zeros):
        problems.append("sum_t (2^N - t) hist[t] != sum_k zero_counts[k]")
    if p["full_term"] != hist[length]:
        problems.append("full-term count differs from the histogram")
    prob = math.comb(length, length // 2) / 2 ** length
    mean = size * prob
    sigma = math.sqrt(size * prob * (1 - prob))
    far = [k for k, z in enumerate(zeros) if abs(z - mean) > ZERO_SIGMAS * sigma]
    if far:
        problems.append(f"zero counts beyond {ZERO_SIGMAS}σ at positions {far}")
    return problems


# -- LHV --------------------------------------------------------------------------

def check_verify(lines, coeffs) -> list[str]:
    """Raw member: max_lhv and bound are exactly 2^N, and tight."""
    n_sites = (len(coeffs) - 1).bit_length()
    try:
        if len(lines) != 1:
            raise ValueError(f"expected one record, got {len(lines)}")
        p = json.loads(lines[0])["payload"]
        got = (p["max_lhv"], p["bound"], p["claimed_bound"], p["tight"])
        echoed = p["coeffs"] == [int(c) for c in coeffs]
    except (ValueError, KeyError, TypeError) as exc:
        return [str(exc)]
    want = (1 << n_sites, 1 << n_sites, 1 << n_sites, True)
    problems = [] if got == want else [f"(max_lhv, bound, claimed, tight) = {got}"]
    if not echoed:
        problems.append("coefficients not echoed")
    return problems


# -- structure (in-process API results) ----------------------------------------------

def check_max_lhv(values, n_sites: int) -> list[str]:
    want = 1 << n_sites
    return [f"max_lhv request {i}: {v}, expected {want}"
            for i, v in enumerate(values) if v != want]


def check_canonical(inputs, results, n_sites: int) -> list[str]:
    """Standard form, no larger than the input's own, shared with -v, a member."""
    by_input = dict(zip(inputs, results))
    problems = []
    rows = []
    for i, (v, c) in enumerate(zip(inputs, results)):
        c = tuple(c.coeffs)
        rows.append(c)
        neg = by_input.get(tuple(-x for x in v))
        if math.gcd(*c) != 1 or sum(c) <= 0:
            problems.append(f"canonical request {i}: not in standard form")
        elif c > standard_form(v):
            problems.append(f"canonical request {i}: larger than the input's standard form")
        elif neg is not None and tuple(neg.coeffs) != c:
            problems.append(f"canonical request {i}: differs from the negated input's")
    back = np.abs(np.asarray(rows, dtype=np.float64)
                  @ sylvester(n_sites).astype(np.float64))
    bad = np.flatnonzero(np.any(back != back[:, :1], axis=1) | (back[:, 0] == 0))
    problems += [f"canonical request {i}: not a scaled family member" for i in bad]
    return problems


def check_bell_poly(pairs, polys, n_sites: int) -> list[str]:
    """Half of a family member, with the closed-form values at 1, -1 and 0."""
    half = 1 << (n_sites - 1)
    p = np.asarray([q.coeffs for q in polys], dtype=np.int64)
    u = np.asarray([a for a, _ in pairs], dtype=np.int64)
    v = np.asarray([b for _, b in pairs], dtype=np.int64)
    ubits = (u[:, None] >> np.arange(half)) & 1
    vbits = (v[:, None] >> np.arange(half)) & 1
    alternating = 1 - 2 * (np.arange(1 << n_sites) & 1)
    ok = scaled_members_ok(n_sites, p, half)
    ok &= p.sum(axis=1) == (1 - 2 * (u & 1)) * half
    ok &= p @ alternating == (1 - 2 * ((u ^ v) & 1)) * half
    ok &= p[:, 0] == ((1 - 2 * ubits) * (1 - vbits)).sum(axis=1)
    _, first, counts = np.unique(p, axis=0, return_index=True, return_counts=True)
    distinct = np.zeros(len(p), dtype=bool)
    distinct[first[counts == 1]] = True
    ok &= distinct
    return [f"bell_poly request {i}: (u, v) = {pairs[i]} gives a wrong member"
            for i in np.flatnonzero(~ok)]


def check_max_b0(polys, n_sites: int, k: int) -> list[str]:
    """2^N - 1 distinct odd members whose E(k,...,k) coefficient is 2^(N-1) - 1."""
    half = 1 << (n_sites - 1)
    p = np.asarray([q.coeffs for q in polys], dtype=np.int64)
    if p.shape != ((1 << n_sites) - 1, 1 << n_sites):
        return [f"max_b0_family({n_sites}, {k}): shape {p.shape}"]
    problems = []
    column = 0 if k == 0 else -1
    if not np.all(p[:, column] == half - 1):
        problems.append("repeated-setting coefficient is not maximal")
    if not np.all(p % 2 == 1):
        problems.append("even coefficient")
    if not np.all(scaled_members_ok(n_sites, p, half)):
        problems.append("not half of a family member")
    if len(np.unique(p, axis=0)) != len(p):
        problems.append("repeated member")
    return [f"max_b0_family({n_sites}, {k}): " + "; ".join(problems)] if problems else []


def check_bowtie(inputs, results, n_sites: int) -> list[str]:
    """(1 + z^m) A + (1 - z^m) B is [a + b, a - b], a member one site up."""
    a = np.asarray([x for x, _ in inputs], dtype=np.int64)
    b = np.asarray([y for _, y in inputs], dtype=np.int64)
    r = np.asarray([q.coeffs for q in results], dtype=np.int64)
    ok = np.all(r == np.hstack([a + b, a - b]), axis=1)
    ok &= scaled_members_ok(n_sites + 1, r, 1 << n_sites)
    return [f"bowtie request {i}: wrong lift" for i in np.flatnonzero(~ok)]
