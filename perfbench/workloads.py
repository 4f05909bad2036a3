"""The benchmark's workloads: inputs made from a seed, one pass of each
workload body, and the gates that check the program's outputs.

Every call into fermatrc goes through a package or module attribute
(``fr.classify``, ``cli.run``), never a name bound here, so the tracer's
patches of those namespaces see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from typing import Optional

import fermatrc as fr
from fermatrc import cli

SCHEMA = "fermat-rc/1"

# classify-grid cells as (p^r, e, extension degree n or None for the default
# field GF(p^(2r))), one row per field, largest field first.  X44 over
# GF(3^6) = GF(729) is the only field above the 512-element table bound, so
# the first row is the scalar fallback path.  The grid carries e = 2 so that
# each GF(729) cell has a GF(9) cell of the same degree to be compared with.
GRID = {
    "full": [(3, e, 6) for e in (2, 4)]
    + [(pr, e, None) for pr in (8, 7, 4, 3) for e in (2, 4, 8)],
    "min": [(3, 2, 6), (4, 2, None), (3, 2, None)],
}

# survey argv before --seed.  On X44, --max 3 keeps every source producing
# rows (lines, alternating, the e = 1 exhaustive scan, covers) and makes the
# alternating solver try e = 3, while one pass stays short enough to repeat
# within a run.  On X55 the solver misses at e = 2 and 3 on most seeds and
# hits on others, which moved a pass by a third from seed to seed, so X55
# stays at e = 1, where it always hits and line enumeration dominates.
SURVEYS = {
    "survey-x44": {
        "full": ["survey", "--pr", "3", "--max", "3", "--budget", "30"],
        "min": ["survey", "--pr", "3", "--max", "1", "--budget", "2"],
    },
    "survey-x55": {
        "full": ["survey", "--pr", "4", "--max", "1", "--budget", "30"],
        "min": ["survey", "--pr", "4", "--max", "1", "--budget", "2"],
    },
}

WORKLOADS = ("classify-grid",) + tuple(SURVEYS)
SIZES = ("full", "min")


@dataclass
class PassResult:
    """One pass of a workload body."""

    wall_s: float
    first_row_s: float
    curves: int
    attempted: int
    failed: int
    output: str
    problems: list = field(default_factory=list)


def line_tx(N: int) -> tuple[int, ...]:
    """f*T_X of the standard line on the diagonal Fermat X in P^N (N = d),
    as the repository's line fixtures record it: (2, 1^(N-3), 2-N)."""
    return (2,) + (1,) * (N - 3) + (2 - N,)


def forbidden(N: int, e: int) -> bool:
    """Degree e lies in a window (mN, (m+1)(N-1)], 0 <= m <= N-3."""
    return any(m * N < e <= (m + 1) * (N - 1) for m in range(N - 2))


# classify-grid


@dataclass
class Cell:
    pr: int
    e: int
    n: Optional[int]
    curve: object

    @property
    def label(self) -> str:
        field_name = f"GF({self.curve.ctx.q})"
        return f"p^r={self.pr} e={self.e} {field_name}"


def grid_inputs(seed: int, size: str) -> list[Cell]:
    """One seeded random cover of degree e of the standard line per cell.

    The line comes from make_line with roots of -1, which is instant, not
    from enumerate_standard_lines, which takes minutes on GF(49) and GF(64).
    """
    lines = {}
    cells = []
    for idx, (pr, e, n) in enumerate(GRID[size]):
        if (pr, n) not in lines:
            p, r = fr.prime_power(pr)
            ctx = fr.FieldCtx(p, n) if n is not None else None
            params = fr.FermatParams.make(p, r, pr + 1, ctx)
            params.ctx.tables()
            root = fr.roots_of_minus_one(params.ctx, params.d)[0]
            lines[(pr, n)] = fr.make_line(params, root, root)
        line = lines[(pr, n)]
        config = fr.SearchConfig(line.params, e, fr.derive_seed(seed, idx))
        cells.append(Cell(pr, e, n, fr.random_cover_family(config, line, 1)[0]))
    return cells


def check_cell(cell: Cell, report, reference) -> list[str]:
    """Gates on one classify report; reference is the default-field report
    of the same degree for a cell over another field model."""
    N = cell.curve.params.N
    d = cell.pr + 1
    tx = report.splitting_TX
    problems = []
    expect = tuple(sorted((cell.e * a for a in line_tx(N)), reverse=True))
    if tx.summands != expect:
        problems.append(f"{cell.label}: TX {tx.summands}, expected {expect}")
    if tx.rank != N - 1 or tx.degree != cell.e * (N + 1 - d):
        problems.append(f"{cell.label}: TX rank {tx.rank} degree {tx.degree}")
    if cell.n is not None:
        if reference is None:
            problems.append(f"{cell.label}: no default-field answer to compare")
        elif report.to_json() != reference.to_json():
            problems.append(f"{cell.label}: answer differs from the default field's")
    return problems


def grid_pass(cells: list[Cell]) -> PassResult:
    """Classify every cell once.  The first row of the grid is complete when
    every cell of its first field is classified."""
    first_field = (cells[0].pr, cells[0].n)
    first_row_len = next(
        (k for k, c in enumerate(cells) if (c.pr, c.n) != first_field), len(cells)
    )
    reports: list = []
    errors: list[str] = []
    first = None
    t0 = time.perf_counter()
    for cell in cells:
        try:
            reports.append(fr.classify(cell.curve))
        except Exception as exc:  # any raise is a failed operation, not a crash
            reports.append(None)
            errors.append(f"{cell.label}: classify raised {exc!r}")
        if len(reports) == first_row_len:
            first = time.perf_counter() - t0
    wall = time.perf_counter() - t0
    failed = 0
    problems = list(errors)
    by_degree = {c.e: r for c, r in zip(cells, reports) if c.n is None and c.pr == 3}
    for cell, report in zip(cells, reports):
        if report is None:
            failed += 1
            continue
        reference = by_degree.get(cell.e) if cell.n is not None else None
        cell_problems = check_cell(cell, report, reference)
        failed += bool(cell_problems)
        problems += cell_problems
    output = json.dumps([None if r is None else r.to_json() for r in reports])
    done = sum(r is not None for r in reports)
    return PassResult(wall, first, done, len(cells), failed, output, problems)


# surveys


class _Stdout(io.StringIO):
    """Collects the survey's standard output and notes when the first row
    is complete, i.e. when the first newline is written."""

    def __init__(self):
        super().__init__()
        self.first_row_at: Optional[float] = None

    def write(self, s: str) -> int:
        n = super().write(s)
        if self.first_row_at is None and "\n" in s:
            self.first_row_at = time.perf_counter()
        return n


def survey_argv(workload: str, seed: int, size: str) -> list[str]:
    return SURVEYS[workload][size] + ["--seed", str(seed)]


def _flag(argv: list[str], name: str) -> int:
    return int(argv[argv.index(name) + 1])


def check_survey(argv: list[str], rc: int, text: str) -> list[str]:
    """Gates on one survey run's exit code and JSONL rows."""
    if rc != 0:
        return [f"survey exited {rc}: {text.strip()[:200]}"]
    pr, top, budget = _flag(argv, "--pr"), _flag(argv, "--max"), _flag(argv, "--budget")
    N = d = pr + 1  # the survey's default, diagonal instance
    quota = max(1, budget // top)
    problems = []
    per_degree: dict[int, int] = {}
    lines = text.splitlines()
    if len(lines) > budget:
        problems.append(f"{len(lines)} rows exceed the budget {budget}")
    for k, line in enumerate(lines, 1):
        try:
            row = json.loads(line)
            e, schema, report = row["e"], row["schema"], row["report"]
            tx = report["splitting_TX"]
            very_free, rank, degree, summands = (
                report["very_free"], tx["rank"], tx["degree"], sum(tx["summands"])
            )
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"row {k} is malformed: {exc!r}")
            continue
        if schema != SCHEMA:
            problems.append(f"row {k} has schema {schema!r}, not {SCHEMA}")
        per_degree[e] = per_degree.get(e, 0) + 1
        if very_free and forbidden(N, e):
            problems.append(f"row {k}: very free in a forbidden window at e={e}")
        expect = e * (N + 1 - d)
        if rank != N - 1 or degree != expect or summands != expect:
            problems.append(f"row {k}: TX rank {rank} degree {degree}")
    missing = sorted(set(range(1, top + 1)) - set(per_degree))
    if missing:
        problems.append(f"no rows at degrees {missing}")
    over = {e: c for e, c in per_degree.items() if c > quota}
    if over:
        problems.append(f"rows over the quota {quota}: {over}")
    return problems


def survey_pass(argv: list[str]) -> PassResult:
    out = _Stdout()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.run(argv)
    except Exception as exc:  # a crash is a failed survey run
        return PassResult(time.perf_counter() - t0, 0.0, 0, 1, 1, "", [f"survey raised {exc!r}"])
    wall = time.perf_counter() - t0
    text = out.getvalue()
    first = (out.first_row_at or time.perf_counter()) - t0
    problems = check_survey(argv, rc, text)
    rows = len(text.splitlines()) if rc == 0 else 0
    return PassResult(wall, first, rows, 1, bool(problems), text, problems)


def source_counts(text: str) -> dict:
    counts: dict[str, int] = {}
    for line in text.splitlines():
        try:
            src = json.loads(line).get("source", "?")
        except ValueError:
            src = "?"
        counts[src] = counts.get(src, 0) + 1
    return counts


# dispatch


def make_inputs(workload: str, seed: int, size: str):
    if workload == "classify-grid":
        return grid_inputs(seed, size)
    return survey_argv(workload, seed, size)


def run_pass(workload: str, inputs) -> PassResult:
    if workload == "classify-grid":
        return grid_pass(inputs)
    return survey_pass(inputs)
