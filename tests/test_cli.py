"""End to end checks of the JSON command line front end.

Most cases drive cli.main in process and parse captured stdout; two tests
go through a real subprocess, for the module entry point and a closed pipe.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import fermatrc
from fermatrc import fermat, search
from fermatrc.cli import EXIT_BROKEN_PIPE, WINDOWS_LIMIT, main
from fermatrc.errors import WindowViolation
from fermatrc.fermat import Curve

SCHEMA = "fermat-rc/1"


def _run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def _run_json(capsys, *argv):
    code, out = _run(capsys, *argv)
    return code, json.loads(out)


@pytest.fixture
def curve_file(tmp_path, line44):
    path = tmp_path / "line44.json"
    path.write_text(json.dumps(line44.to_json()))
    return str(path)


@pytest.fixture
def off_surface_file(tmp_path, gf9):
    # (s, t, 0, 0, 0) misses the hypersurface: s^4 + t^4 is not zero
    data = {
        "p": 3,
        "r": 1,
        "N": 4,
        "e": 1,
        "field": gf9.to_json(),
        "curve": [[1, 0], [0, 1], [0, 0], [0, 0], [0, 0]],
    }
    path = tmp_path / "off.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def lifted_file(tmp_path, line44):
    path = tmp_path / "lifted.json"
    path.write_text(json.dumps(fermat.lift(line44).to_json()))
    return str(path)


def test_verify_reports_the_line(capsys, curve_file):
    code, payload = _run_json(capsys, "verify", "--curve", curve_file)
    assert code == 0
    assert payload == {
        "schema": SCHEMA,
        "valid": True,
        "p": 3,
        "r": 1,
        "N": 4,
        "e": 1,
        "span_dim": 1,
        "is_rnc": True,
    }


def test_verify_crosschecks_flags(capsys, curve_file):
    code, _ = _run_json(capsys, "verify", "--curve", curve_file, "--pr", "3", "--N", "4")
    assert code == 0
    code, payload = _run_json(capsys, "verify", "--curve", curve_file, "--pr", "4")
    assert code == 3 and payload["kind"] == "UsageError"
    code, payload = _run_json(capsys, "verify", "--curve", curve_file, "--N", "5")
    assert code == 3 and payload["kind"] == "UsageError"


def test_verify_rejects_off_surface(capsys, off_surface_file):
    code, payload = _run_json(capsys, "verify", "--curve", off_surface_file)
    assert code == 1
    assert payload["kind"] == "NotOnHypersurface"
    assert payload["schema"] == SCHEMA


def test_file_error_paths(capsys, tmp_path):
    code, payload = _run_json(capsys, "verify", "--curve", str(tmp_path / "nope.json"))
    assert code == 3 and payload["kind"] == "UsageError"

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, payload = _run_json(capsys, "verify", "--curve", str(bad))
    assert code == 3 and payload["kind"] == "UsageError"

    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2, 3]")
    code, payload = _run_json(capsys, "verify", "--curve", str(arr))
    assert code == 3 and payload["kind"] == "UsageError"

    short = tmp_path / "short.json"
    short.write_text(json.dumps({"p": 3}))
    code, payload = _run_json(capsys, "verify", "--curve", str(short))
    assert code == 3 and payload["kind"] == "UsageError"


def test_big_field_is_refused_quickly(capsys, tmp_path):
    big = tmp_path / "big.json"
    p = 2**64 - 59
    big.write_text(json.dumps({
        "p": p, "r": 1, "N": 4, "e": 1,
        "field": {"p": p, "n": 1, "modulus": [0, 1]},
        "curve": [[1, 0], [0, 1], [0, 0], [0, 0], [0, 0]],
    }))
    t0 = time.perf_counter()
    code, payload = _run_json(capsys, "verify", "--curve", str(big))
    assert time.perf_counter() - t0 < 2.0
    assert code == 1 and payload["kind"] == "InvalidField"


def test_parser_error_paths(capsys):
    code, payload = _run_json(capsys)
    assert code == 3 and payload["kind"] == "UsageError"
    code, payload = _run_json(capsys, "frobnicate")
    assert code == 3
    code, payload = _run_json(capsys, "windows", "--pr", "4", "--wat")
    assert code == 3
    code, payload = _run_json(capsys, "windows")
    assert code == 3


def test_splitting_all_bundles(capsys, curve_file):
    expected = {
        "tx": ([2, 1, -2], 3, 1, "TX"),
        "f": ([1, 1, 1, -2], 4, 1, "F"),
        "omega": ([-1, -1, -1, -2], 4, -5, "omega_P"),
        "tp": ([2, 1, 1, 1], 4, 5, "T_P"),
    }
    for bundle, (summands, rank, degree, label) in expected.items():
        code, payload = _run_json(
            capsys, "splitting", "--curve", curve_file, "--bundle", bundle
        )
        assert code == 0
        assert payload == {
            "schema": SCHEMA,
            "e": 1,
            "summands": summands,
            "rank": rank,
            "degree": degree,
            "bundle": label,
        }


def test_splitting_off_surface(capsys, off_surface_file):
    code, payload = _run_json(
        capsys, "splitting", "--curve", off_surface_file, "--bundle", "tx"
    )
    assert code == 1 and payload["kind"] == "NotOnHypersurface"

    # ambient bundles never need the hypersurface equation
    code, payload = _run_json(
        capsys, "splitting", "--curve", off_surface_file, "--bundle", "omega"
    )
    assert code == 0
    assert payload["rank"] == 4 and payload["degree"] == -5
    assert sum(payload["summands"]) == -5


def test_splitting_needs_known_bundle(capsys, curve_file):
    code, payload = _run_json(
        capsys, "splitting", "--curve", curve_file, "--bundle", "det"
    )
    assert code == 3 and payload["kind"] == "UsageError"


def test_classify_line(capsys, curve_file):
    code, payload = _run_json(capsys, "classify", "--curve", curve_file)
    assert code == 0
    assert payload == {
        "schema": SCHEMA,
        "e": 1,
        "splitting_TX": {"summands": [2, 1, -2], "rank": 3, "degree": 1,
                         "bundle": "TX"},
        "splitting_F": {"summands": [1, 1, 1, -2], "rank": 4, "degree": 1,
                        "bundle": "F"},
        "splitting_omega_P": {"summands": [-1, -1, -1, -2], "rank": 4,
                              "degree": -5, "bundle": "omega_P"},
        "free": False,
        "very_free": False,
        "h0_TX": 5,
        "h1_TX": 1,
        "chi": 4,
        "in_forbidden_window": True,
    }


def test_pretty_output_parses_identically(capsys, curve_file):
    _, plain = _run(capsys, "classify", "--curve", curve_file)
    _, pretty = _run(capsys, "--pretty", "classify", "--curve", curve_file)
    assert pretty.count("\n") > plain.count("\n")
    assert json.loads(plain) == json.loads(pretty)


def test_windows_defaults(capsys):
    code, payload = _run_json(capsys, "windows", "--pr", "4")
    assert code == 0
    assert payload == {
        "schema": SCHEMA,
        "pr": 4,
        "N": 5,
        "windows": [[0, 4], [5, 8], [10, 12]],
        "n0_bound": 12,
        "max": 15,
        "allowed": [5, 9, 10, 13, 14, 15],
    }


def test_windows_flag_errors(capsys):
    code, payload = _run_json(capsys, "windows", "--pr", "4", "--max", "9")
    assert code == 0 and payload["allowed"] == [5, 9]
    code, payload = _run_json(capsys, "windows", "--pr", "4", "--max", "0")
    assert code == 3
    code, payload = _run_json(capsys, "windows", "--pr", "6")
    assert code == 3 and payload["kind"] == "UsageError"


def test_windows_gate_refuses_quickly(capsys):
    # the default top p^r(p^r - 1) + 3 stays inside the gate up to p^r = 313
    start = time.monotonic()
    for argv in (["--pr", "1000003"], ["--pr", "997"], ["--pr", "4", "--max", "10000000"]):
        code, payload = _run_json(capsys, "windows", *argv)
        assert code == 1 and payload["kind"] == "SpaceTooLarge", argv
    assert time.monotonic() - start < 1
    code, payload = _run_json(capsys, "windows", "--pr", "997", "--max", str(WINDOWS_LIMIT))
    assert code == 0 and len(payload["windows"]) == 996


def test_tangent_line(capsys, curve_file):
    code, payload = _run_json(capsys, "tangent", "--curve", curve_file)
    assert code == 0
    assert payload == {
        "schema": SCHEMA,
        "e": 1,
        "h0_TX": 5,
        "cone_dim": 6,
        "expected": 4,
        "jump": True,
    }


def test_tangent_needs_diagonal(capsys, lifted_file):
    code, payload = _run_json(capsys, "tangent", "--curve", lifted_file)
    assert code == 3 and payload["kind"] == "UsageError"


def test_balanced_model_cli(capsys):
    code, payload = _run_json(
        capsys, "balanced-model", "--e", "9", "--N", "5", "--pr", "4"
    )
    assert code == 0
    assert payload == {
        "schema": SCHEMA,
        "e": 9,
        "N": 5,
        "pr": 4,
        "a": 10,
        "l": 1,
        "lprime": 4,
        "b1": 5,
        "b2": 1,
        "prediction": {"summands": [5, 1, 1, 1, 1], "rank": 5, "degree": 9,
                       "bundle": "F"},
    }
    code, payload = _run_json(
        capsys, "balanced-model", "--e", "0", "--N", "5", "--pr", "4"
    )
    assert code == 3 and payload["kind"] == "UsageError"


def test_balanced_model_on_a_large_prime_is_fast(capsys):
    t0 = time.perf_counter()
    code, payload = _run_json(
        capsys, "balanced-model", "--e", "1", "--N", "3", "--pr", str(10**18 + 3)
    )
    assert code == 0 and payload["pr"] == 10**18 + 3
    assert time.perf_counter() - t0 < 1


def test_probe_vanishing_cli(capsys):
    code, payload = _run_json(
        capsys, "probe-vanishing", "--pr", "3", "--e", "1", "--budget", "5"
    )
    assert code == 0
    assert payload == {
        "schema": SCHEMA,
        "p": 3,
        "r": 1,
        "N": 4,
        "e": 1,
        "all_vanish": True,
        "trials": 5,
        "exponents": [2],
        "counterexample": None,
    }

    code, payload = _run_json(
        capsys, "probe-vanishing", "--pr", "3", "--e", "3", "--budget", "5"
    )
    assert code == 0
    assert payload["all_vanish"] is False
    witness = payload["counterexample"]
    assert set(witness) == {"curve", "j", "t_exponent", "coefficient"}
    assert witness["coefficient"] != 0

    code, payload = _run_json(
        capsys, "probe-vanishing", "--pr", "3", "--e", "1", "--budget", "0"
    )
    assert code == 3


def test_search_lines_cli(capsys):
    code, payload = _run_json(capsys, "search", "--strategy", "lines", "--pr", "3")
    assert code == 0
    assert payload["strategy"] == "lines"
    assert payload["count"] == 1 and len(payload["found"]) == 1
    curve = Curve.from_json(payload["found"][0])
    assert curve.e == 1 and curve.on_x

    code, payload = _run_json(
        capsys, "search", "--strategy", "lines", "--pr", "3", "--e", "2"
    )
    assert code == 3
    code, payload = _run_json(capsys, "search", "--strategy", "lines")
    assert code == 3

    start = time.monotonic()
    code, payload = _run_json(
        capsys, "search", "--strategy", "lines", "--pr", "3", "--N", "40"
    )
    assert code == 1 and payload["kind"] == "SpaceTooLarge"
    assert time.monotonic() - start < 1


def test_search_alternating_cli(capsys):
    code, payload = _run_json(
        capsys, "search", "--pr", "3", "--e", "2", "--seed", "1", "--budget", "300"
    )
    assert code == 0
    assert payload["strategy"] == "alternating"
    assert payload["count"] == 1
    curve = Curve.from_json(payload["found"][0])
    assert curve.e == 2 and curve.on_x


def test_search_covers_cli(capsys, curve_file):
    code, payload = _run_json(
        capsys,
        "search", "--strategy", "covers", "--curve", curve_file,
        "--e", "2", "--budget", "3", "--seed", "7",
    )
    assert code == 0 and payload["count"] == 3
    for blob in payload["found"]:
        curve = Curve.from_json(blob)
        assert curve.e == 2 and curve.on_x

    code, payload = _run_json(
        capsys, "search", "--strategy", "covers", "--pr", "3", "--e", "2"
    )
    assert code == 3 and payload["kind"] == "UsageError"
    code, payload = _run_json(
        capsys, "search", "--pr", "3", "--e", "1", "--curve", curve_file
    )
    assert code == 3


def test_search_exhaustive_cli(capsys):
    code, payload = _run_json(
        capsys, "search", "--strategy", "exhaustive", "--pr", "3", "--N", "3",
        "--e", "1",
    )
    assert code == 0
    assert payload["count"] == len(payload["found"]) >= 1
    for blob in payload["found"]:
        curve = Curve.from_json(blob)
        assert curve.e == 1 and curve.on_x and curve.params.N == 3

    code, payload = _run_json(
        capsys, "search", "--strategy", "exhaustive", "--pr", "3", "--e", "3"
    )
    assert code == 1 and payload["kind"] == "SpaceTooLarge"


def test_survey_stream(capsys):
    code, out = _run(capsys, "survey", "--pr", "3", "--max", "1", "--budget", "2",
                     "--seed", "3")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines() if line]
    assert 1 <= len(rows) <= 2
    for row in rows:
        assert row["schema"] == SCHEMA
        assert row["e"] == 1
        assert row["source"] in {"lines", "alternating", "exhaustive", "covers"}
        curve = Curve.from_json(row["curve"])
        assert curve.on_x
        assert "splitting_TX" in row["report"]

    code, again = _run(capsys, "survey", "--pr", "3", "--max", "1", "--budget", "2",
                       "--seed", "3")
    assert again == out

    code, payload = _run_json(capsys, "survey", "--pr", "3", "--max", "0",
                              "--budget", "2")
    assert code == 3
    code, payload = _run_json(capsys, "survey", "--pr", "3", "--max", "1",
                              "--budget", "0")
    assert code == 3


def test_survey_max_costs_no_memory(capsys):
    # the degree range is never listed, so a huge --max costs what --max 1 does
    _, want = _run(capsys, "survey", "--pr", "3", "--max", "1", "--budget", "1")
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        code, out = _run(capsys, "survey", "--pr", "3", "--max", str(10**12),
                         "--budget", "1")
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and out == want
    assert elapsed < 2
    assert peak < 4 * 2**20


def test_survey_output_is_unchanged(capsys):
    # digest recorded before the survey streamed its rows
    code, out = _run(capsys, "survey", "--pr", "3", "--max", "2", "--budget", "4",
                     "--seed", "2")
    assert code == 0
    assert [json.loads(line)["source"] for line in out.splitlines()] == [
        "lines", "alternating", "alternating", "covers",
    ]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8833e367d29521331e17f450b42db9dad16cfc9ef05913157d025d7df8567812"
    )


def test_survey_keeps_rows_written_before_an_error(capsys, monkeypatch):
    classify, calls = search.classify, []

    def failing_second(curve):
        calls.append(curve)
        if len(calls) == 2:
            raise WindowViolation("injected")
        return classify(curve)

    monkeypatch.setattr(search, "classify", failing_second)
    code, out = _run(capsys, "survey", "--pr", "3", "--max", "1", "--budget", "2")
    assert code == 2
    row, error = [json.loads(line) for line in out.splitlines()]
    assert row["source"] == "lines" and "report" in row
    assert error == {
        "schema": SCHEMA,
        "kind": "WindowViolation",
        "message": "injected",
        "e": 1,
        "source": "alternating",
    }


def test_module_entry_point():
    # the child imports the same package as this process, installed or not
    src = str(Path(fermatrc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "fermatrc.cli", "windows", "--pr", "4"],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 0
    assert json.loads(done.stdout)["allowed"] == [5, 9, 10, 13, 14, 15]

    missing = subprocess.run(
        [sys.executable, "-m", "fermatrc.cli", "verify", "--curve", "no/such.json"],
        capture_output=True, text=True, env=env,
    )
    assert missing.returncode == 3
    assert json.loads(missing.stdout)["kind"] == "UsageError"


def test_closed_pipe_exits_quietly():
    src = str(Path(fermatrc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)  # each row must reach the pipe by its own flush
    # the third row comes from the e = 1 scan, long after the reader is gone
    proc = subprocess.Popen(
        [sys.executable, "-m", "fermatrc.cli", "survey", "--pr", "3", "--max", "1",
         "--budget", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = json.loads(proc.stdout.readline())
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == EXIT_BROKEN_PIPE
    assert first["source"] == "lines"
    assert err == b""
