"""fermatrc benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it imports the package from the
checkout's ``src/`` and needs no build.  Workloads (see workloads.py):
classify-grid, survey-x44 and survey-x55.  Each runs closed loop, one call
at a time, in this single process.

With ``--trace 0`` the run sets the workload up several times (this process
and fresh child processes, since set-up includes the import), then repeats
the workload body for ``--seconds`` seconds, at least twice, and reports
the end-to-end metrics.  With ``--trace 1`` it alternates an untraced pass
with a traced one (inputs rebuilt under the tracer) and reports the
per-layer metrics and the tracing overhead.  Every pass is checked; any
failed check makes the exit code 1.  The last line of standard output is
one JSON object; a human-readable summary goes to standard error.
"""

import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 5  # set-ups per untraced run, this process included
DEADLINE_S = 170  # a run that is still going then fails instead of hanging

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "curves_per_s": "1/s",
    "first_row_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}

# Reported by traced runs next to the per-layer metrics.
TRACE_UNITS = {
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "min"), default="full",
                    help="min shrinks every workload for the self-test")
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up, print it and exit")
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 1 << 64:
        ap.error("--seed must be a 64-bit unsigned integer")
    return args


def timed_setup(workload: str, seed: int, size: str):
    """Import the package, build field tables and make the inputs."""
    t0 = time.perf_counter()
    import workloads

    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; one of {workloads.WORKLOADS}")
    inputs = workloads.make_inputs(workload, seed, size)
    return time.perf_counter() - t0, inputs


def child_setups(args, count: int) -> list[float]:
    """Set-up times of ``count`` fresh processes, run one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    times = []
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"set-up process failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def repeat(step, seconds: float, at_least: int) -> list:
    """Call step until another call would overrun ``seconds``; at least
    ``at_least`` calls."""
    results, spans = [], []
    start = time.perf_counter()
    while True:
        gc.collect()  # every pass starts from the same collector state
        t = time.perf_counter()
        results.append(step())
        spans.append(time.perf_counter() - t)
        if len(results) >= at_least and time.perf_counter() - start + max(spans) > seconds:
            return results


class Tally:
    """Operations attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, result, reference_output: str, label: str) -> None:
        self.attempted += result.attempted
        failed = result.failed
        problems = list(result.problems)
        if result.output != reference_output:
            problems.append("output differs from the first pass")
            failed = max(failed, 1)
        self.failed += failed
        self.problems += [f"{label}: {p}" for p in problems]


def untraced_run(args, workloads, inputs, setup_s: float):
    setups = [setup_s] + child_setups(args, SETUP_SAMPLES - 1)
    passes = repeat(lambda: workloads.run_pass(args.workload, inputs), args.seconds, 2)
    tally = Tally()
    for k, p in enumerate(passes, 1):
        tally.add(p, passes[0].output, f"pass {k}")
    walls = [p.wall_s for p in passes]
    wall = statistics.median(walls)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "curves_per_s": statistics.median(p.curves for p in passes) / wall,
        "first_row_s": statistics.median(p.first_row_s for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_ratio": (tally.attempted - tally.failed) / tally.attempted,
    }
    summary = {
        "passes": len(passes),
        "wall_s": walls,
        "first_row_s": [p.first_row_s for p in passes],
        "setup_s": setups,
        "curves_per_pass": passes[0].curves,
    }
    if args.workload != "classify-grid":
        summary["rows_by_source"] = workloads.source_counts(passes[0].output)
    units = END_TO_END_UNITS
    return tally, {k: (v, units[k]) for k, v in metrics.items()}, summary


def traced_run(args, workloads, inputs):
    from tracer import PER_LAYER, Tracer, layer_metrics

    def step():
        plain = workloads.run_pass(args.workload, inputs)
        tr = Tracer()
        with tr:
            traced_inputs = workloads.make_inputs(args.workload, args.seed, args.size)
            traced = workloads.run_pass(args.workload, traced_inputs)
        return plain, traced, tr

    pairs = repeat(step, args.seconds, 1)
    reference = pairs[0][0].output
    tally = Tally()
    for k, (plain, traced, _) in enumerate(pairs, 1):
        tally.add(plain, reference, f"untraced pass {k}")
        tally.add(traced, reference, f"traced pass {k}")
    tracers = [tr for _, _, tr in pairs]
    counts = tracers[0].counts()
    for k, tr in enumerate(tracers[1:], 2):
        if tr.counts() != counts:
            tally.failed += 1
            tally.problems.append(f"traced pass {k}: work counts {tr.counts()} != {counts}")
    per_pass = [layer_metrics(tr) for tr in tracers]
    values = {}
    for name, unit, _ in PER_LAYER:
        series = [m[name] for m in per_pass]
        exact = unit != "s"  # counts and ratios repeat; times take the median
        values[name] = (series[0] if exact else statistics.median(series), unit)
    traced_wall = statistics.median(t.wall_s for _, t, _ in pairs)
    plain_wall = statistics.median(p.wall_s for p, _, _ in pairs)
    trace_values = {
        "trace.traced_wall_s": traced_wall,
        "trace.untraced_wall_s": plain_wall,
        "trace.overhead_s": traced_wall - plain_wall,
    }
    values.update((k, (v, TRACE_UNITS[k])) for k, v in trace_values.items())
    summary = {"pairs": len(pairs), "work_counts": counts,
               "traced_wall_s": [t.wall_s for _, t, _ in pairs],
               "untraced_wall_s": [p.wall_s for p, _, _ in pairs]}
    return tally, values, summary


def _give_up(signum, frame):
    raise SystemExit(f"perfbench: run still going after {DEADLINE_S} s")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fermatrc" / "__init__.py").is_file():
        print(f"perfbench: no fermatrc sources under {SRC}; run it in a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup_s, inputs = timed_setup(args.workload, args.seed, args.size)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    import workloads

    signal.signal(signal.SIGALRM, _give_up)
    signal.alarm(DEADLINE_S)
    try:
        if args.trace:
            tally, values, summary = traced_run(args, workloads, inputs)
        else:
            tally, values, summary = untraced_run(args, workloads, inputs, setup_s)
    finally:
        signal.alarm(0)
    summary = {"workload": args.workload, "seed": args.seed, "size": args.size,
               "trace": args.trace, **summary, "problems": tally.problems[:20]}
    print(json.dumps(summary), file=sys.stderr)
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
