import argparse
import hashlib
import itertools
import json
import math
import os
import random
import resource
import subprocess
import sys
import threading

import numpy as np
import pytest

from bellkit import analysis, cli, hadamard, inequality, kernels, lhv, limits
from bellkit import polynomial as poly
from conftest import GOLDEN, read_golden, traditional_text

BASE = [sys.executable, "-m", "bellkit"]


def run_cli(*args, expect_code=0):
    out = subprocess.run(BASE + list(args), capture_output=True, text=True)
    assert out.returncode == expect_code, out.stderr
    return out


def records(stdout):
    return [json.loads(line) for line in stdout.splitlines()]


class TestHadamardCommand:
    def test_ascii_golden(self):
        out = run_cli("hadamard", "--n", "2")
        assert out.stdout == read_golden("hadamard_n2_ascii.txt")

    def test_json(self):
        out = run_cli("hadamard", "--n", "1", "--format", "json")
        record = json.loads(out.stdout)
        assert record["schema_version"] == 1
        assert record["command"] == "hadamard"
        assert record["payload"]["entries"] == [[1, 1], [1, -1]]

    def test_pbm(self):
        out = run_cli("hadamard", "--n", "1", "--format", "pbm")
        assert out.stdout.splitlines() == ["P1", "2 2", "1 1", "1 0"]

    def test_cap_is_validation_error(self):
        out = run_cli("hadamard", "--n", "20", expect_code=2)
        error = json.loads(out.stderr)
        assert error["command"] == "hadamard"
        assert "capped" in error["error"]["message"]

    def test_negative_site_count(self, capsys):
        assert cli.main(["hadamard", "--n", "-1"]) == cli.EXIT_INVALID
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["error"]["message"] == "site count must be at least 0"

    def test_ascii_grid(self, capsys):
        assert cli.main(["hadamard", "--n", "1"]) == cli.EXIT_OK
        assert capsys.readouterr().out == "++\n+-\n"

    def test_pbm_shape(self, capsys):
        for n in (0, 1, 3):
            assert cli.main(["hadamard", "--n", str(n), "--format", "pbm"]) == cli.EXIT_OK
            lines = capsys.readouterr().out.splitlines()
            order = 1 << n
            assert lines[:2] == ["P1", f"{order} {order}"]
            assert [len(row.split()) for row in lines[2:]] == [order] * order
            assert all(set(row.split()) <= {"0", "1"} for row in lines[2:])

    @pytest.mark.parametrize("batch_cells", [1, 5, 1 << 16])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 6])
    def test_formats_match_scalar_entries(self, n, batch_cells, capsys, monkeypatch):
        # batches of one row and of a few rows cross row starts in every format
        monkeypatch.setattr(limits, "OUTPUT_BATCH_CELLS", batch_cells)
        order = 1 << n
        rows = [[hadamard.entry(j, k) for k in range(order)] for j in range(order)]
        want = {
            "ascii": "".join("".join("+" if e > 0 else "-" for e in row) + "\n"
                             for row in rows),
            "pbm": f"P1\n{order} {order}\n" + "".join(
                " ".join("1" if e > 0 else "0" for e in row) + "\n" for row in rows),
            "json": json.dumps({"schema_version": 1, "command": "hadamard",
                                "payload": {"n": n, "order": order,
                                            "entries": hadamard.build(n).entries.tolist()}})
                    + "\n",
        }
        for fmt, text in want.items():
            assert cli.main(["hadamard", "--n", str(n), "--format", fmt]) == cli.EXIT_OK
            assert capsys.readouterr().out == text, fmt


class TestHadamardOutput:
    """Streamed ``hadamard`` output against digests of the dense renderers' output."""

    DIGESTS = json.loads(read_golden("hadamard_stdout_sha256.json"))

    @pytest.mark.parametrize("command", [c for c in DIGESTS if int(c.split()[2]) <= 12])
    def test_digest(self, command, capsys):
        assert cli.main(command.split()) == cli.EXIT_OK
        out, err = capsys.readouterr()
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[command]

    @pytest.mark.parametrize("fmt", ["ascii", "pbm", "json"])
    def test_dense_cap_in_bounded_memory(self, fmt):
        # the dense renderers needed 479-1,057 MiB of memory at 13 sites and
        # ran out of it under this limit
        command = f"hadamard --n 13 --format {fmt}"
        proc = subprocess.Popen(BASE + command.split(), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE,
                                preexec_fn=lambda: _limit_memory(512 << 20))
        timer = threading.Timer(60, proc.kill)
        timer.start()
        try:
            digest = hashlib.sha256()
            for chunk in iter(lambda: proc.stdout.read(1 << 20), b""):
                digest.update(chunk)
            stderr = proc.stderr.read()
            proc.wait()
        finally:
            timer.cancel()
            proc.kill()
            proc.stdout.close()
            proc.stderr.close()
        assert (proc.returncode, stderr) == (0, b"")
        assert digest.hexdigest() == self.DIGESTS[command]


class TestGenCommand:
    def test_chsh_golden_bytes(self):
        out = run_cli("gen", "--n", "2", "--c", "0b0001")
        assert out.stdout == (GOLDEN / "cli_gen_chsh.json").read_text()

    def test_accepts_decimal_and_hex(self):
        a = run_cli("gen", "--n", "2", "--c", "1").stdout
        b = run_cli("gen", "--n", "2", "--c", "0x1").stdout
        assert a == b

    def test_text_renders_standard_form(self):
        out = run_cli("gen", "--n", "2", "--c", "0b0111", "--format", "text")
        assert out.stdout.strip().startswith("|")

    def test_code_out_of_range(self):
        run_cli("gen", "--n", "1", "--c", "16", expect_code=2)

    @pytest.mark.parametrize("n", ["-1", "0"])
    def test_site_count_below_one(self, n):
        out = run_cli("gen", "--n", n, "--c", "0", expect_code=2)
        error = json.loads(out.stderr)
        assert error["command"] == "gen"
        assert error["error"]["message"] == "site count must be at least 1"


class TestGenOutput:
    """``gen`` output against digests of the butterfly transform's output.

    The code at N sites is random.Random(N).getrandbits(2^N), passed in
    hex. Fourteen sites in JSON has no digest: its code has 4,933
    decimal digits, past the interpreter's int-to-text limit, so it is
    an error record.
    """

    DIGESTS = json.loads(read_golden("gen_stdout_sha256.json"))

    @pytest.mark.parametrize("command", DIGESTS)
    def test_digest(self, command, capsys):
        n = int(command.split()[2])
        code = random.Random(n).getrandbits(1 << n)
        assert cli.main([*command.split(), "--c", hex(code)]) == cli.EXIT_OK
        out, err = capsys.readouterr()
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[command]

    def test_fourteen_site_json_is_an_error_record(self, capsys):
        # the record's "c" is past the int-to-text limit; it used to be a traceback
        code = random.Random(14).getrandbits(1 << 14)
        argv = ["gen", "--n", "14", "--c", hex(code), "--format", "json"]
        assert cli.main(argv) == cli.EXIT_INVALID
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["error"]["message"] == (
            f"value has more than {sys.get_int_max_str_digits()} digits, "
            "the limit for printing an integer")


class TestEnumCommand:
    def test_single_site_records(self):
        out = run_cli("enum", "--n", "1")
        payloads = [r["payload"] for r in records(out.stdout)]
        assert [p["c"] for p in payloads] == [0, 1, 2, 3]
        assert [p["coeffs"] for p in payloads] == [
            [2, 0], [0, -2], [0, 2], [-2, 0]]
        assert all(p["bound"] == 2 and p["terms"] == 1 for p in payloads)

    def test_standard_form_flag(self):
        out = run_cli("enum", "--n", "1", "--standard-form")
        payloads = [r["payload"] for r in records(out.stdout)]
        assert [p["coeffs"] for p in payloads] == [
            [1, 0], [0, 1], [0, 1], [1, 0]]
        assert all(p["bound"] == 1 for p in payloads)

    def test_shorthand_format(self):
        out = run_cli("enum", "--n", "1", "--format", "shorthand")
        assert out.stdout.splitlines() == [
            "(2, 0)", "(0, -2)", "(0, 2)", "(-2, 0)"]

    def test_traditional_format(self):
        out = run_cli("enum", "--n", "1", "--format", "traditional")
        assert out.stdout.splitlines()[0] == "|2E(1)| ≤ 2"

    def test_standard_traditional_golden_bytes(self):
        # the UTF-8 bytes of the minus and the less-or-equal signs
        out = subprocess.run(BASE + ["enum", "--n", "2", "--standard-form", "--format",
                                     "traditional"], capture_output=True)
        assert (out.returncode, out.stderr) == (0, b"")
        assert out.stdout == (GOLDEN / "enum_n2_standard_traditional.txt").read_bytes()

    def test_round_trip_into_verify_and_poly(self):
        out = run_cli("enum", "--n", "2")
        for record in records(out.stdout):
            payload = record["payload"]
            coeff_arg = ",".join(str(c) for c in payload["coeffs"])
            verified = json.loads(
                run_cli("verify", "--coeffs", coeff_arg).stdout)["payload"]
            assert verified["tight"] is True
            assert verified["bound"] == payload["bound"]
            evaluated = json.loads(run_cli(
                "poly", "eval", "--coeffs", coeff_arg, "--z", "1",
            ).stdout)["payload"]
            assert int(evaluated["value"]) == sum(payload["coeffs"])

    def test_stream_required_beyond_four_sites(self):
        run_cli("enum", "--n", "5", expect_code=2)

    def test_cap_exceeded(self):
        out = run_cli("enum", "--n", "6", "--stream", expect_code=2)
        assert "capped" in json.loads(out.stderr)["error"]["message"]


def enum_head(args, lines):
    """Run ``enum``, read its first lines, close the pipe like ``| head``.

    Returns (the lines read, exit code, stderr).
    """
    proc = subprocess.Popen(BASE + ["enum", *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    head = b"".join(proc.stdout.readline() for _ in range(lines))
    proc.stdout.close()
    try:
        _, stderr = proc.communicate(timeout=60)
    finally:
        proc.kill()
    return head, proc.returncode, stderr


def enum_line(n, code, coeffs, fmt):
    """One ``enum`` line without its newline, from plain str operations."""
    if fmt == "shorthand":
        return "(" + ", ".join(str(c) for c in coeffs) + ")"
    if fmt == "traditional":
        return traditional_text(coeffs)
    payload = {"n": n, "c": code, "coeffs": list(coeffs), "bound": abs(sum(coeffs)),
               "terms": sum(1 for c in coeffs if c)}
    return json.dumps({"schema_version": 1, "command": "enum", "payload": payload},
                      ensure_ascii=False)


def enum_oracle(n, fmt, standard, limit=None):
    """The first ``limit`` ``enum`` lines (all by default), one record at a time.

    Records, standard forms, bounds, term counts and traditional text
    come from the public API.
    """
    lines = []
    records = inequality.enumerate_inequalities(n, stream=n > 4)
    for code, v in itertools.islice(records, limit):
        out = inequality.standard_form(v) if standard else v
        if fmt == "shorthand":
            lines.append(enum_line(n, code, out.coeffs, fmt))
        elif fmt == "traditional":
            lines.append(inequality.to_traditional(out))
        else:
            payload = {"n": n, "c": code, "coeffs": list(out.coeffs),
                       "bound": inequality.bound(out),
                       "terms": analysis.term_count(out)}
            lines.append(json.dumps({"schema_version": 1, "command": "enum",
                                     "payload": payload}, ensure_ascii=False))
    return lines


class TestEnumOutput:
    """Batched ``enum`` output against the per-record path and frozen digests."""

    DIGESTS = json.loads(read_golden("enum_stdout_sha256.json"))

    @pytest.mark.parametrize("command", [c for c in DIGESTS if "--stream" not in c])
    def test_four_site_digest(self, command):
        out = subprocess.run(BASE + command.split(), capture_output=True)
        assert (out.returncode, out.stderr) == (0, b"")
        assert hashlib.sha256(out.stdout).hexdigest() == self.DIGESTS[command]

    def test_five_site_stream_digest(self):
        # 70,000 lines cross batch boundaries at both 1,024 and 8,192 rows
        head, code, stderr = enum_head(["--n", "5", "--stream"], 70_000)
        assert (code, stderr) == (0, b"")
        digest = self.DIGESTS["enum --n 5 --stream | head -n 70000"]
        assert hashlib.sha256(head).hexdigest() == digest

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_record_oracle(self, n, capsys):
        for fmt in ("json", "shorthand", "traditional"):
            for standard in (False, True):
                argv = ["enum", "--n", str(n), "--format", fmt]
                assert cli.main(argv + ["--standard-form"] * standard) == 0
                lines = capsys.readouterr().out.splitlines()
                assert lines == enum_oracle(n, fmt, standard), (fmt, standard)

    @pytest.mark.parametrize("fmt", ["json", "shorthand", "traditional"])
    @pytest.mark.parametrize("standard", [False, True])
    def test_five_site_stream_head(self, fmt, standard):
        # two batches of the stream, line by line against the record path
        args = ["--n", "5", "--stream", "--format", fmt] + ["--standard-form"] * standard
        head, code, stderr = enum_head(args, 2048)
        assert (code, stderr) == (0, b"")
        assert head.decode().splitlines() == enum_oracle(5, fmt, standard, 2048)

    def test_record_helper_matches_json_dumps(self):
        payload = {"n": 2, "c": 7, "coeffs": [-2, 2, 0, 4], "bound": 4, "terms": 3}
        record = {"schema_version": cli.SCHEMA_VERSION, "command": "enum",
                  "payload": payload}
        assert cli._enum_text(2, 7, np.array([[-2, 2, 0, 4]]), "json") == (
            json.dumps(record, ensure_ascii=False) + "\n")

    def test_last_five_site_json_batch(self):
        start = (1 << 32) - 1024
        block = kernels.sylvester_rows(np.arange(start, 1 << 32), 32)
        lines = cli._enum_text(5, start, block, "json").splitlines()
        assert lines == [enum_line(5, code, row, "json")
                         for code, row in enumerate(block.tolist(), start)]

    @pytest.mark.parametrize("fmt", ["json", "shorthand", "traditional"])
    def test_edge_rows_match_scalar_oracles(self, fmt):
        # first nonzero at the last position, magnitudes 1, 10, 16 and 32,
        # all-negative rows; every row sum stays within [-32, 32]
        rows = [[0] * 31 + [32], [0] * 31 + [-32], [0] * 30 + [-1, 1],
                [10, -16, 1, -1] + [0] * 27 + [32], [32, -16, -10, 1] + [0] * 28,
                [-1] * 32, [-10, -16, -1] + [0] * 29, [-32] + [0] * 31,
                [0, -10] + [0] * 29 + [-16], [16, 16] + [-1] * 30]
        text = cli._enum_text(5, 41, np.array(rows, dtype=np.int64), fmt)
        assert text.splitlines() == [enum_line(5, code, row, fmt)
                                     for code, row in enumerate(rows, 41)]
        two_site = [[-2, 0, 0, 0], [0, 0, 0, -4], [1, -1, -1, -1]]
        text = cli._enum_text(2, 0, np.array(two_site, dtype=np.int64), fmt)
        assert text.splitlines() == [enum_line(2, code, row, fmt)
                                     for code, row in enumerate(two_site)]


class TestBrokenPipe:
    """A reader that stops early, before or inside a batch, is a normal exit."""

    @pytest.mark.parametrize("lines", [1, 70_000])
    @pytest.mark.parametrize("args", [
        [], ["--standard-form", "--format", "traditional"]])
    def test_exit_zero_and_quiet(self, args, lines):
        head, code, stderr = enum_head(["--n", "5", "--stream", *args], lines)
        assert head.count(b"\n") == lines
        assert (code, stderr) == (0, b"")

    @pytest.mark.parametrize("fmt", ["ascii", "pbm", "json"])
    def test_hadamard(self, fmt):
        # like `| head -c 100`: the reader leaves inside the first batch
        proc = subprocess.Popen(BASE + ["hadamard", "--n", "13", "--format", fmt],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        try:
            _, stderr = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert (proc.returncode, stderr) == (0, b"")


class TestPolyCommand:
    def test_buv_json(self):
        out = run_cli("poly", "buv", "--n", "2", "--u", "0", "--v", "2")
        payload = json.loads(out.stdout)["payload"]
        assert payload["coeffs"] == [1, 1, 1, -1]
        assert payload["poly"] == "1+z+z^2-z^3"

    def test_buv_text(self):
        out = run_cli("poly", "buv", "--n", "4", "--u", "14", "--v", "0",
                      "--format", "text")
        assert out.stdout.strip() == \
            "2+2z^2+2z^4+2z^6-6z^8+2z^10+2z^12+2z^14"

    def test_summand(self):
        out = run_cli("poly", "s", "--n", "3", "--k", "3")
        assert json.loads(out.stdout)["payload"]["poly"] == "1-z^2-z^4+z^6"

    @pytest.mark.parametrize("n, u, v", [(4, 173, 58), (5, 51966, 4660)],
                             ids=["tabulated", "per-call"])
    def test_buv_golden_bytes(self, n, u, v, capsys):
        argv = ["poly", "buv", "--n", str(n), "--u", str(u), "--v", str(v)]
        assert cli.main(argv) == cli.EXIT_OK
        assert capsys.readouterr().out == read_golden(f"cli_poly_buv_n{n}.json")

    def test_bowtie_golden_bytes(self):
        out = run_cli("poly", "bowtie", "--n", "2",
                      "--a", "1,1,1,-1", "--b", "1,-1,-1,-1")
        assert out.stdout == (GOLDEN / "cli_poly_bowtie_mabk.json").read_text()

    def test_bowtie_second_example(self):
        out = run_cli("poly", "bowtie", "--a", "1,1,1,-1", "--b", "2,0,0,0",
                      "--format", "text")
        assert out.stdout.strip() == "3+z+z^2-z^3-z^4+z^5+z^6-z^7"

    def test_bowtie_site_count_check(self):
        run_cli("poly", "bowtie", "--n", "3",
                "--a", "1,1,1,-1", "--b", "2,0,0,0", expect_code=2)

    def test_eval_exact_rational(self):
        out = run_cli("poly", "eval", "--coeffs", "1,1,1,-1", "--z", "1/2")
        payload = json.loads(out.stdout)["payload"]
        assert payload["value"] == "13/8"

    def test_eval_bad_rational(self):
        run_cli("poly", "eval", "--coeffs", "1,1", "--z", "pi", expect_code=2)

    def test_eval_value_past_digit_limit(self):
        out = run_cli("poly", "eval", "--coeffs", "0,0,1,0",
                      "--z", "1" + "0" * 3000, expect_code=2)
        message = json.loads(out.stderr)["error"]["message"]
        assert f"more than {sys.get_int_max_str_digits()} digits" in message

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_bowtie_value_past_digit_limit(self, fmt, capsys):
        # each operand parses, but 2 (10^4300 - 1) has 4,301 digits
        big = "9" * 4300
        argv = ["poly", "bowtie", "--a", f"{big},1", "--b", f"{big},1", "--format", fmt]
        assert cli.main(argv) == cli.EXIT_INVALID
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["error"]["message"] == (
            f"value has more than {sys.get_int_max_str_digits()} digits, "
            "the limit for printing an integer")

    def test_zero_sum_output_feeds_back(self):
        out = run_cli("poly", "s", "--n", "2", "--k", "1")
        payload = json.loads(out.stdout)["payload"]
        assert payload["poly"] == "1-z^2"
        coeff_arg = ",".join(str(c) for c in payload["coeffs"])
        assert coeff_arg == "1,0,-1,0"
        out = run_cli("poly", "eval", "--coeffs", coeff_arg, "--z", "2")
        assert json.loads(out.stdout)["payload"]["value"] == "-3"
        out = run_cli("poly", "bowtie", "--a", coeff_arg, "--b", coeff_arg,
                      "--format", "text")
        assert out.stdout.strip() == "2-2z^2"

    @pytest.mark.parametrize("coeffs, message", [
        ("1,2,3", "power of two"),
        ("1", "power of two"),
        ("1,x", "integers"),
    ])
    def test_bad_coefficients_rejected(self, coeffs, message):
        for args in (("eval", "--coeffs", coeffs, "--z", "1"),
                     ("bowtie", "--a", coeffs, "--b", "1,1")):
            out = run_cli("poly", *args, expect_code=2)
            assert message in json.loads(out.stderr)["error"]["message"]


class TestVerifyCommand:
    def test_chsh_golden_bytes(self):
        out = run_cli("verify", "--coeffs", "1,1,1,-1")
        assert out.stdout == (GOLDEN / "cli_verify_chsh.json").read_text()

    def test_explicit_claim(self):
        out = run_cli("verify", "--coeffs", "1,1", "--bound", "3")
        payload = json.loads(out.stdout)["payload"]
        assert payload["max_lhv"] == 2 and payload["tight"] is False

    def test_text_format(self):
        out = run_cli("verify", "--coeffs", "1,0,0,-1,0,1,1,0",
                      "--format", "text")
        assert out.stdout.strip() == "max_lhv 2, claimed 2, tight true"

    def test_bad_coefficients(self):
        run_cli("verify", "--coeffs", "1,x", expect_code=2)

    def test_zero_sum_rejected(self):
        out = run_cli("verify", "--coeffs", "1,0,-1,0", expect_code=2)
        assert "coefficient sum is zero" in json.loads(out.stderr)["error"]["message"]

    @pytest.mark.parametrize("coeffs", [
        "4611686018427387904,4611686018427387904",
        "9223372036854775807,1,1,-1",
        "99999999999999999999,1",
    ])
    def test_coefficients_beyond_int64_rejected(self, coeffs):
        out = run_cli("verify", "--coeffs", coeffs, expect_code=2)
        error = json.loads(out.stderr)
        assert error["command"] == "verify"
        assert "2^63" in error["error"]["message"]


class TestSingletCommand:
    def test_default_table(self):
        out = run_cli("singlet")
        payload = json.loads(out.stdout)["payload"]
        for i in range(3):
            for j in range(3):
                expected = 1.0 if i == j else -0.5
                assert abs(payload["table"][i][j] - expected) < 1e-12
        assert abs(payload["mean"]) < 1e-12

    def test_tilted_table(self):
        out = run_cli("singlet", "--phi", "0.3")
        payload = json.loads(out.stdout)["payload"]
        assert abs(payload["table"][0][0] - 1.0) > 1e-3
        assert abs(payload["mean"]) < 1e-12

    def test_text_table(self):
        out = run_cli("singlet", "--format", "text")
        assert "i=2" in out.stdout

    @pytest.mark.parametrize("phi", ["0", "0.3", "-2.5", "1e308"])
    def test_finite_phi_is_strict_json(self, phi):
        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        out = run_cli("singlet", f"--phi={phi}")
        payload = json.loads(out.stdout, parse_constant=reject)["payload"]
        assert payload["phi"] == float(phi)
        assert all(math.isfinite(x) for row in payload["table"] for x in row)
        assert abs(payload["mean"]) < 1e-12

    @pytest.mark.parametrize("phi", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_non_finite_phi_rejected(self, phi, fmt):
        out = run_cli("singlet", f"--phi={phi}", "--format", fmt, expect_code=2)
        assert out.stdout == ""
        error = json.loads(out.stderr)
        assert error["command"] == "singlet"
        assert "finite" in error["error"]["message"]


class TestClassifyCommand:
    def test_exhaustive_small(self):
        out = run_cli("classify", "--n", "2")
        payload = json.loads(out.stdout)["payload"]
        assert payload["mode"] == "exhaustive"
        assert payload["full_term"] == 8
        assert payload["trivial_classes"] == 4
        assert payload["zero_counts"] == [6, 6, 6, 6]

    def test_five_site_exhaustive_golden(self, capsys):
        # frozen from the 2^32-code scan (246 s); the class census takes well under 1 s
        assert cli.main(["classify", "--n", "5", "--exhaustive"]) == cli.EXIT_OK
        out, err = capsys.readouterr()
        assert err == ""
        assert out == read_golden("cli_classify_n5_exhaustive.json")

    def test_five_site_exhaustive_text_golden(self, capsys):
        assert cli.main(["classify", "--n", "5", "--format", "text"]) == cli.EXIT_OK
        out, err = capsys.readouterr()
        assert err == ""
        assert out == read_golden("cli_classify_n5_exhaustive.txt")

    def test_five_site_default_is_exhaustive(self, capsys):
        # without --sample the census is exact, not a 10^7-draw estimate
        assert cli.main(["classify", "--n", "5"]) == cli.EXIT_OK
        out, err = capsys.readouterr()
        assert err == ""
        assert out == read_golden("cli_classify_n5_exhaustive.json")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_five_site_sample_golden(self, capsys, jobs):
        # frozen from int64 draws; the odd size leaves a partial last batch
        args = ["classify", "--n", "5", "--sample", "1000003", "--seed", "11", "--jobs", jobs]
        assert cli.main(args) == cli.EXIT_OK
        out, err = capsys.readouterr()
        assert err == ""
        assert out == read_golden("cli_classify_n5_sample.json")

    def test_sample_reproducible(self):
        args = ["classify", "--n", "4", "--sample", "5000", "--seed", "7"]
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_text_format(self):
        out = run_cli("classify", "--n", "2", "--format", "text")
        assert "full-term: 8" in out.stdout

    def test_cap(self):
        run_cli("classify", "--n", "6", expect_code=2)

    def test_text_format_zero_stderr(self):
        # a one-member sample has a standard error of exactly 0
        out = run_cli("classify", "--n", "5", "--sample", "1", "--format", "text")
        assert "+- 0.000000)" in out.stdout

    @pytest.mark.parametrize("mode", [["--sample", "10"], ["--exhaustive"]])
    def test_negative_seed(self, mode):
        out = run_cli("classify", "--n", "3", *mode, "--seed", "-1", expect_code=2)
        assert out.stdout == ""
        assert "seed" in json.loads(out.stderr)["error"]["message"]


class TestConstructCommand:
    def test_three_site_family_text_golden(self):
        out = run_cli("construct", "max-b0", "--n", "3", "--k", "0",
                      "--format", "text")
        assert out.stdout == read_golden("max_b0_n3.txt")

    def test_json_records_carry_index_pairs(self):
        out = run_cli("construct", "max-b0", "--n", "3", "--k", "0")
        payloads = [r["payload"] for r in records(out.stdout)]
        assert [(p["u"], p["v"]) for p in payloads] == [
            (0, 1), (0, 2), (2, 2), (0, 4), (4, 4), (0, 8), (8, 8)]

    def test_reversed_variant(self):
        out = run_cli("construct", "max-b0", "--n", "3", "--k", "1")
        payloads = [r["payload"] for r in records(out.stdout)]
        assert all(p["coeffs"][-1] == 3 for p in payloads)

    def test_too_few_sites(self):
        run_cli("construct", "max-b0", "--n", "2", "--k", "0", expect_code=2)

    @pytest.mark.parametrize("batch_cells", [1, 100, 1 << 16])
    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_formats_match_records(self, n, batch_cells, capsys, monkeypatch):
        # batches of one row and of a few rows, against one record at a time
        monkeypatch.setattr(limits, "OUTPUT_BATCH_CELLS", batch_cells)
        pairs = [analysis.max_b0_pair(p) for p in range(2**n - 1)]
        for k in (0, 1):
            members = analysis.max_b0_family(n, k)
            text = "".join(f"{p}\n" for p in members)
            lines = "".join(
                json.dumps({"schema_version": 1, "command": "construct",
                            "payload": {"n": n, "k": k, "u": u, "v": v,
                                        "coeffs": list(p.coeffs), "poly": str(p)}}) + "\n"
                for (u, v), p in zip(pairs, members))
            for fmt, want in (("text", text), ("json", lines)):
                argv = ["construct", "max-b0", "--n", str(n), "--k", str(k), "--format", fmt]
                assert cli.main(argv) == cli.EXIT_OK
                assert capsys.readouterr().out == want, (fmt, k)


class _Sha256Writer:
    """A stdout that keeps only the digest of what is written to it."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text):
        self.digest.update(text.encode())
        return len(text)

    def flush(self):
        pass


class TestConstructOutput:
    """Streamed ``construct`` output against digests of the record-at-a-time output."""

    DIGESTS = json.loads(read_golden("construct_stdout_sha256.json"))

    @pytest.mark.parametrize("command", DIGESTS)
    def test_digest(self, command, monkeypatch, capsys):
        out = _Sha256Writer()
        monkeypatch.setattr(sys, "stdout", out)
        assert cli.main(command.split()) == cli.EXIT_OK
        assert capsys.readouterr().err == ""
        assert out.digest.hexdigest() == self.DIGESTS[command]


class TestIdentityCommand:
    def test_exact(self):
        out = run_cli("identity", "--n", "6")
        payload = json.loads(out.stdout)["payload"]
        assert payload["equal"] is True
        assert payload["lhs"] == payload["rhs"]

    def test_text(self):
        out = run_cli("identity", "--n", "2", "--format", "text")
        assert out.stdout.strip() == "6 == 6: true"


def _limit_memory(limit=1 << 30):
    # a command that allocates 2^N entries before its cap check then fails
    # fast instead of taking all of the host's memory
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


class TestSiteCaps:
    @pytest.mark.parametrize("args, message", [
        (("gen", "--n", "40", "--c", "0"),
         "sign vectors capped at 14 sites, got 40"),
        (("poly", "s", "--n", "40", "--k", "0"),
         "summand construction capped at 14 sites, got 40"),
        (("poly", "buv", "--n", "40", "--u", "0", "--v", "0"),
         "family construction capped at 14 sites, got 40"),
        (("construct", "max-b0", "--n", "40", "--k", "0"),
         "family construction capped at 14 sites, got 40"),
        (("identity", "--n", "40"), "binomial identity capped at 13 sites, got 40"),
        (("identity", "--n", "14"), "binomial identity capped at 13 sites, got 14"),
        # too large to shift by: the check must come before any 1 << n
        (("classify", "--n", "9" * 20),
         f"classification capped at 5 sites, got {'9' * 20}"),
        (("construct", "max-b0", "--n", "9" * 20, "--k", "0"),
         f"family construction capped at 14 sites, got {'9' * 20}"),
        # indices past their range: limits.check_index
        (("gen", "--n", "2", "--c", "16"), "code 16 out of range [0, 16)"),
        (("gen", "--n", "14", "--c", "-1"), "code -1 out of range [0, 2^16384)"),
        (("poly", "s", "--n", "3", "--k", "4"), "summand index 4 out of range [0, 4)"),
    ])
    def test_checked_before_allocation(self, args, message):
        out = subprocess.run(BASE + list(args), capture_output=True, text=True,
                             preexec_fn=_limit_memory, timeout=60)
        assert out.returncode == 2, out.stderr
        error = json.loads(out.stderr)
        assert error["command"] == args[0]
        assert error["error"]["message"] == message

    def test_largest_family_member_fits(self):
        # at the record cap: 2^13 summands must fit in 1 GiB and 30 s
        u, v = (1 << 8192) // 3, (1 << 8192) // 5
        out = subprocess.run(BASE + ["poly", "buv", "--n", "14", "--u", str(u),
                                     "--v", str(v)], capture_output=True,
                             text=True, preexec_fn=_limit_memory, timeout=30)
        assert out.returncode == 0, out.stderr
        coeffs = json.loads(out.stdout)["payload"]["coeffs"]
        assert len(coeffs) == 1 << 14
        # B(1) = (-1)^(u_0) 2^13, B(-1) = (-1)^(u_0 + v_0) 2^13 and B(0)
        assert sum(coeffs) == (1 - 2 * (u & 1)) << 13
        assert sum(coeffs[0::2]) - sum(coeffs[1::2]) == (1 - 2 * ((u ^ v) & 1)) << 13
        assert coeffs[0] == poly.constant_coeff(poly.UVIndex(14, u, v))


def _leaves(parser, path=()):
    """(command path, parser) of every leaf subcommand under parser."""
    subparsers = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield path, parser
    for action in subparsers:
        for name, child in action.choices.items():
            yield from _leaves(child, path + (name,))


LEAVES = dict(_leaves(cli.build_parser()))
# a small valid invocation of every leaf subcommand, with each of its
# required options
BASELINES = {
    ("hadamard",): ["--n", "3"],
    ("gen",): ["--n", "3", "--c", "0"],
    ("enum",): ["--n", "3"],
    ("poly", "buv"): ["--n", "3", "--u", "0", "--v", "0"],
    ("poly", "s"): ["--n", "3", "--k", "0"],
    ("poly", "bowtie"): ["--a", "1,1", "--b", "1,1"],
    ("poly", "eval"): ["--coeffs", "1,1,1,-1", "--z", "2"],
    ("verify",): ["--coeffs", "1,1,1,-1"],
    ("singlet",): [],
    ("classify",): ["--n", "3"],
    ("construct", "max-b0"): ["--n", "3", "--k", "0"],
    ("identity",): ["--n", "3"],
}
# an accepted value at the cap of every leaf that takes a site count
_ONES = ",".join(["1"] * (1 << 13))
NEAR_CAP = {
    ("hadamard",): ["--n", "13", "--format", "json"],
    ("gen",): ["--n", "14", "--c", "0"],
    ("enum",): ["--n", "5", "--stream"],
    ("poly", "buv"): ["--n", "14", "--u", "0", "--v", "0"],
    ("poly", "s"): ["--n", "14", "--k", "0"],
    ("poly", "bowtie"): ["--n", "13", "--a", _ONES, "--b", _ONES],
    ("classify",): ["--n", "5", "--sample", "1024"],
    ("construct", "max-b0"): ["--n", "14", "--k", "0"],
    ("identity",): ["--n", "13"],
}
BOUNDARY_CASES = [
    pytest.param(path, action.option_strings[0], str(value),
                 id=f"{' '.join(path)} {action.option_strings[0]}={value}")
    for path, leaf in LEAVES.items()
    for action in leaf._actions
    if action.option_strings and action.type in (int, cli._jobs)
    for value in (-1, 0, 10**20)
]


class TestNearCapInChildProcess:
    """Accepted values at a cap: bounded memory and time, and a clean closed pipe."""

    def test_every_leaf_with_a_site_count_has_a_case(self):
        assert set(NEAR_CAP) == {path for path, leaf in LEAVES.items()
                                 if "--n" in leaf._option_string_actions}

    @pytest.mark.parametrize("path", NEAR_CAP, ids=lambda path: " ".join(
        arg if len(arg) < 100 else "..." for arg in (*path, *NEAR_CAP[path])))
    def test_closed_pipe(self, path):
        # run one at a time; the reader takes 100 bytes and closes the pipe
        argv = BASE + [*path, *NEAR_CAP[path]]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE,
                                preexec_fn=lambda: _limit_memory(512 << 20))
        timer = threading.Timer(20, proc.kill)
        timer.start()
        try:
            head = proc.stdout.read(100)
            proc.stdout.close()
            stderr = proc.stderr.read()
            proc.wait()
        finally:
            timer.cancel()
            proc.kill()
            proc.stderr.close()
        assert len(head) == 100
        assert b"Traceback" not in stderr
        assert (proc.returncode, stderr) == (0, b"")


class TestBoundarySweep:
    """Every integer option of every subcommand at -1, 0 and 10^20, in-process."""

    def test_every_leaf_has_a_baseline_with_its_required_options(self):
        assert set(LEAVES) == set(BASELINES)
        for path, leaf in LEAVES.items():
            for action in leaf._actions:
                if action.required and action.option_strings:
                    assert action.option_strings[0] in BASELINES[path], path

    @pytest.mark.parametrize("path", sorted(BASELINES), ids=" ".join)
    def test_baseline_runs(self, path, capsys):
        assert cli.main([*path, *BASELINES[path]]) == cli.EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("path, option, value", BOUNDARY_CASES)
    def test_exit_code_and_output(self, path, option, value, capsys):
        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        argv = [*path, *BASELINES[path]]
        if option in argv:
            argv[argv.index(option) + 1] = value
        else:
            argv += [option, value]
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        out, err = capsys.readouterr()
        assert code in (cli.EXIT_OK, cli.EXIT_INVALID, cli.EXIT_USAGE), err
        if code == cli.EXIT_OK:
            assert err == ""
        elif code == cli.EXIT_INVALID:
            assert out == ""
            assert err.count("\n") == 1
            record = json.loads(err)
            assert record["command"] == path[0]
            assert set(record) == {"schema_version", "command", "error"}
        else:
            assert "usage:" in err
        if LEAVES[path].get_default("format") == "json":
            for line in out.splitlines():
                json.loads(line, parse_constant=reject)


# the golden stdout of every format of every leaf that prints one record;
# None marks ``singlet``, whose floats come from the platform's math.cos
SINGLE_RECORDS = {
    "gen --n 2 --c 0b0001": "cli_gen_chsh.json",
    "gen --n 2 --c 0b0001 --format text": "cli_gen_chsh.txt",
    "poly buv --n 4 --u 173 --v 58": "cli_poly_buv_n4.json",
    "poly buv --n 4 --u 173 --v 58 --format text": "cli_poly_buv_n4.txt",
    "poly s --n 3 --k 3": "cli_poly_s_n3.json",
    "poly s --n 3 --k 3 --format text": "cli_poly_s_n3.txt",
    "poly bowtie --n 2 --a 1,1,1,-1 --b 1,-1,-1,-1": "cli_poly_bowtie_mabk.json",
    "poly bowtie --n 2 --a 1,1,1,-1 --b 1,-1,-1,-1 --format text": "cli_poly_bowtie_mabk.txt",
    "poly eval --coeffs 1,1,1,-1 --z 2": "cli_poly_eval_chsh.json",
    "poly eval --coeffs 1,1,1,-1 --z 2 --format text": "cli_poly_eval_chsh.txt",
    "verify --coeffs 1,1,1,-1": "cli_verify_chsh.json",
    "verify --coeffs 1,1,1,-1 --format text": "cli_verify_chsh.txt",
    "singlet --phi 0.3": None,
    "singlet --phi 0.3 --format text": None,
    "classify --n 5": "cli_classify_n5_exhaustive.json",
    "classify --n 5 --format text": "cli_classify_n5_exhaustive.txt",
    "classify --n 5 --sample 1 --seed 1 --format text": "cli_classify_n5_sample1.txt",
    "identity --n 3": "cli_identity_n3.json",
    "identity --n 3 --format text": "cli_identity_n3.txt",
}


def _singlet_stdout(argv):
    """``singlet``'s stdout, laid out here from ``lhv.expectation_table``."""
    phi = float(argv[argv.index("--phi") + 1])
    setup = lhv.SingletSetup()
    table = lhv.expectation_table(setup, phi=phi)
    if "text" not in argv:
        return json.dumps({"schema_version": 1, "command": "singlet", "payload": {
            "phi": phi, "thetas": list(setup.thetas), "etas": list(setup.etas),
            "table": table.tolist(), "mean": table.mean()}}) + "\n"
    return "".join([f"phi = {phi:.6f}\n", "      j=0      j=1      j=2\n",
                    *(f"i={i}  {row[0]:+.4f}  {row[1]:+.4f}  {row[2]:+.4f}\n"
                      for i, row in enumerate(table)),
                    f"mean = {table.mean():+.2e}\n"])


class TestSingleRecordOutput:
    """Byte-exact stdout of the commands that print one record, in each format."""

    def test_every_format_of_every_single_record_leaf_has_an_entry(self, capsys):
        # a leaf prints one record when its baseline prints one line
        want = set()
        for path, leaf in LEAVES.items():
            assert cli.main([*path, *BASELINES[path]]) == cli.EXIT_OK
            if capsys.readouterr().out.count("\n") == 1:
                formats = leaf._option_string_actions["--format"].choices
                want |= {(path, fmt) for fmt in formats}
        have = set()
        for command in SINGLE_RECORDS:
            argv = command.split()
            path = next(p for p in LEAVES if tuple(argv[:len(p)]) == p)
            fmt = (argv[argv.index("--format") + 1] if "--format" in argv
                   else LEAVES[path].get_default("format"))
            have.add((path, fmt))
        assert have == want

    @pytest.mark.parametrize("command", SINGLE_RECORDS)
    def test_stdout(self, command, capsys):
        argv = command.split()
        assert cli.main(argv) == cli.EXIT_OK
        out, err = capsys.readouterr()
        assert err == ""
        golden = SINGLE_RECORDS[command]
        assert out == (_singlet_stdout(argv) if golden is None else read_golden(golden))


class TestNegativeValues:
    """A token that starts with a minus and a digit is an option value."""

    def test_negative_decimal(self, capsys):
        assert cli.main(["singlet", "--phi", "-2.5"]) == cli.EXIT_OK
        spaced = capsys.readouterr()
        assert cli.main(["singlet", "--phi=-2.5"]) == cli.EXIT_OK
        assert capsys.readouterr() == spaced
        assert json.loads(spaced.out)["payload"]["phi"] == -2.5

    @pytest.mark.parametrize("z", ["-0.5", "-1/2", "-.5"])
    def test_negative_rational(self, z, capsys):
        argv = ["poly", "eval", "--coeffs", "1,1", "--z", z, "--format", "text"]
        assert cli.main(argv) == cli.EXIT_OK
        assert capsys.readouterr().out == "1/2\n"

    def test_negative_coefficient_list(self, capsys):
        assert cli.main(["verify", "--coeffs", "-2,-2,-2,2"]) == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert (payload["coeffs"], payload["max_lhv"]) == ([-2, -2, -2, 2], 4)

    def test_option_name_is_not_a_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["poly", "eval", "--coeffs", "1,1", "--z", "-x"])
        assert exc.value.code == cli.EXIT_USAGE
        assert "expected one argument" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_subcommand(self):
        run_cli("frobnicate", expect_code=64)

    def test_missing_required_argument(self):
        run_cli("gen", "--n", "2", expect_code=64)

    def test_bad_choice(self):
        run_cli("hadamard", "--n", "2", "--format", "svg", expect_code=64)


JOBS_COMMANDS = [
    ["enum", "--n", "1"],
    ["classify", "--n", "2"],
    ["verify", "--coeffs", "1,1,1,-1"],
]


class TestJobsOption:
    @pytest.mark.parametrize("command", JOBS_COMMANDS, ids=lambda c: c[0])
    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_below_one_is_usage_error(self, command, jobs):
        out = run_cli(*command, "--jobs", jobs, expect_code=64)
        assert "--jobs" in out.stderr

    @pytest.mark.parametrize("command", JOBS_COMMANDS, ids=lambda c: c[0])
    def test_above_cpu_count_is_clamped(self, command):
        jobs = str((os.cpu_count() or 1) + 1)
        assert (run_cli(*command, "--jobs", jobs).stdout
                == run_cli(*command, "--jobs", "1").stdout)

    def test_type_clamps_large_values_to_cpu_count(self):
        assert cli._jobs(str(10**9)) == (os.cpu_count() or 1)
        assert cli._jobs("1") == 1
        with pytest.raises(argparse.ArgumentTypeError):
            cli._jobs("two")
