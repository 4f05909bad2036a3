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
from fermatrc.ff import FieldCtx

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


# each edit puts a float, a boolean or a string where a curve file holds an
# integer, which int() would truncate, read as 1 or parse
_NOT_INTEGERS = {
    "e float": lambda d: d.update(e=1.5),
    "e true": lambda d: d.update(e=True),
    "p string": lambda d: d.update(p="3"),
    "r false": lambda d: d.update(r=False),
    "N float": lambda d: d.update(N=4.0),
    "coefficient float": lambda d: d["curve"][0].__setitem__(0, 0.5),
    "coefficient true": lambda d: d["curve"][1].__setitem__(1, True),
    "coefficient string": lambda d: d["curve"][2].__setitem__(1, "1"),
    "form string": lambda d: d["curve"].__setitem__(0, "10"),
    "curve string": lambda d: d.update(curve="1,0"),
    "field p float": lambda d: d["field"].update(p=3.0),
    "field n true": lambda d: d["field"].update(n=True),
    "modulus float": lambda d: d["field"].update(modulus=[1, 0, 1.0]),
    "field list": lambda d: d.update(field=[3, 2]),
}


@pytest.mark.parametrize("edit", sorted(_NOT_INTEGERS))
def test_curve_files_take_json_integers_only(capsys, tmp_path, line44, edit):
    data = line44.to_json()
    _NOT_INTEGERS[edit](data)
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(data))
    code = main(["classify", "--curve", str(path)])
    out, err = capsys.readouterr()
    assert code in (1, 3) and json.loads(out)["kind"] in ("UsageError", "InvalidField")
    assert err == ""


def test_oversized_curve_files_are_refused_at_once(capsys, tmp_path, line44):
    # (N + 1)(d*e + 1) against 4,096, or 2,048 over GF(729) and 256 over
    # GF(3^12); d = 4
    refused = [
        {"N": 1000, "e": 250},  # an Omega matrix of about 1,000 x 250,000
        {"N": 1000, "e": 2},
        {"e": 205},
        {"e": 103, "field": {"p": 3, "n": 6}},
        {"e": 13, "field": {"p": 3, "n": 12}},
        # p^r = 2^31 over GF(2): validating would build a list of 2^31 + 2 entries
        {"p": 2, "r": 31, "field": {"p": 2, "n": 1}},
        {"r": 10**18},
    ]
    # under the gate, so the record is read on and its five forms are too few
    accepted = [{"N": 818}, {"e": 204}, {"N": 408, "field": {"p": 3, "n": 6}}]
    start = time.monotonic()
    for edit, kind in [(x, "SpaceTooLarge") for x in refused] + [
        (x, "DegreeMismatch") for x in accepted
    ]:
        path = tmp_path / "big.json"
        path.write_text(json.dumps({**line44.to_json(), **edit}))
        code, payload = _run_json(capsys, "classify", "--curve", str(path))
        assert code == 1 and payload["kind"] == kind, edit
    assert time.monotonic() - start < 1


def test_overlong_integer_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "long.json"
    path.write_text('{"p": ' + "1" * 5000 + "}")
    code, payload = _run_json(capsys, "verify", "--curve", str(path))
    assert code == 3 and payload["kind"] == "UsageError"


def test_search_flags_that_size_the_work_are_gated(capsys):
    refused = [
        # a dense kernel basis about 200,000 wide on each side
        ["search", "--pr", "3", "--N", "100000", "--e", "1", "--budget", "1"],
        # one round of 17.7 million cells, whatever the budget
        ["search", "--pr", "3", "--N", "2100", "--e", "1", "--budget", "1"],
        # 1,805,568,402 and 36,288,252 tuples: hours and minutes of scanning
        ["search", "--strategy", "exhaustive", "--pr", "3", "--N", "4", "--e", "2"],
        ["search", "--strategy", "exhaustive", "--pr", "4", "--N", "5", "--e", "1"],
        ["probe-vanishing", "--pr", "3", "--e", "1", "--budget", str(10**9)],
    ]
    start = time.monotonic()
    for argv in refused:
        code, payload = _run_json(capsys, *argv)
        assert code == 1 and payload["kind"] == "SpaceTooLarge", argv
    assert time.monotonic() - start < 1
    for argv in (["search", "--pr", "3", "--e", "0"], ["probe-vanishing", "--pr", "3", "--e", "0"]):
        code, payload = _run_json(capsys, *argv)
        assert code == 3 and payload["kind"] == "UsageError", argv


@pytest.mark.slow
def test_moderate_alternating_search_runs_at_the_default_budget(capsys):
    # 1,000 rounds of 17,700 cells: the gate bounds one round, not the budget
    code, payload = _run_json(capsys, "search", "--pr", "3", "--e", "19")
    assert code == 0 and payload["strategy"] == "alternating"


def test_every_document_starts_with_the_schema(capsys):
    _, out = _run(capsys, "survey", "--pr", "3", "--max", "1", "--budget", "2")
    _, error = _run(capsys, "windows", "--pr", "1000003")
    for line in out.splitlines() + [error]:
        assert next(iter(json.loads(line))) == "schema"


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

    # the family is built before it is printed, so a huge one is refused
    start = time.monotonic()
    code, payload = _run_json(
        capsys,
        "search", "--strategy", "covers", "--curve", curve_file,
        "--e", "2", "--budget", "1000000",
    )
    assert code == 1 and payload["kind"] == "SpaceTooLarge"
    assert time.monotonic() - start < 1

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


# stdout sha256 recorded at an earlier commit: a refactor keeps them byte for byte
_SURVEY_DIGESTS = {
    "survey --pr 3 --max 3 --budget 30 --seed 11":
        "24f2a978b979163740fad4c455a9b75616bbb7efe5206bc4d389271cba9c3371",
    "survey --pr 4 --max 1 --budget 30 --seed 11":
        "6701df56eef0128b9dc99070fd880d0d69d82908d003927278890d0526eda02f",
}


@pytest.mark.parametrize("command", sorted(_SURVEY_DIGESTS))
def test_survey_digests_are_pinned(capsys, command):
    code, out = _run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _SURVEY_DIGESTS[command]


# (p, r, n, N) -> sha256 of each cover's file and classify stdout, recorded
# as for _SURVEY_DIGESTS; the splittings have up to three distinct summands
_CLASSIFY_DIGESTS = {
    (3, 1, 2, 4): "300e35ba003adee8936a2276ef58a26067a544251d7e15e960f2d3287f28518a",
    (2, 2, 4, 5): "25ccae2e2c4e6655eecd4c757726198ff9fe552cc4fd8fdcb7709f49fb764673",
    (3, 1, 6, 4): "b591908d3ae1aec9f6eb189f63a4453f111b4a86bd2d92ba27452179de6ceaee",
}


@pytest.mark.parametrize("field", sorted(_CLASSIFY_DIGESTS), ids=lambda f: f"GF({f[0]}^{f[2]})")
def test_classify_digests_are_pinned(capsys, tmp_path, field):
    p, r, n, N = field
    params = fermat.FermatParams.make(p, r, N, ctx=FieldCtx(p, n))
    line = fermat.make_line(params, *[fermat.roots_of_minus_one(params.ctx, params.d)[0]] * 2)
    text = []
    for e in (2, 3):
        covers = search.random_cover_family(search.SearchConfig(params, e, seed=e), line, 2)
        for i, cover in enumerate(covers):
            path = tmp_path / f"cover{e}_{i}.json"
            path.write_text(json.dumps(cover.to_json()))
            code, out = _run(capsys, "classify", "--curve", str(path))
            assert code == 0
            text.append(path.read_text() + "\n" + out)
    assert hashlib.sha256("".join(text).encode()).hexdigest() == _CLASSIFY_DIGESTS[field]


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
