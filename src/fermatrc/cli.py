"""Command line front end.

Every command reads JSON (curve files carry their own field description)
and writes a single JSON document to standard output; survey writes one
JSON object per line, flushed as each row is classified.  Exit codes: 0
success, 1 domain error, 2 internal certificate failure, 3 usage error,
141 (128 + SIGPIPE) when the reader closes standard output early, as
`head` does.  Error payloads carry a "kind" field naming the error class;
an error partway through a survey follows the rows already written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from . import fermat, search, splitbundle
from .classify import (
    balanced_model,
    classify,
    coefficient_vanishing_probe,
    forbidden_windows,
    prime_power,
    tangent_report,
)
from .errors import FermatRCError, SpaceTooLarge, UsageError
from .fermat import Curve, FermatParams

SCHEMA = "fermat-rc/1"

# exit code when standard output closes early: what a shell reports for a
# process killed by SIGPIPE
EXIT_BROKEN_PIPE = 141

# windows refuses a --pr or a --max above this: the report lists p^r - 1
# windows and checks every degree up to --max
WINDOWS_LIMIT = 100_000

_BUNDLES = {
    "tx": ("TX", splitbundle.splitting_tx),
    "f": ("F", splitbundle.splitting_f),
    "omega": ("omega_P", splitbundle.splitting_omega_p),
    "tp": ("T_P", splitbundle.splitting_t_p),
}


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of printing usage and exiting."""

    def error(self, message):
        raise UsageError(message)


def _add_seed(sp) -> None:
    sp.add_argument("--seed", type=int, default=0, help="64-bit PRNG seed")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="fermatrc", description=__doc__)
    p.add_argument("--pretty", action="store_true", help="indent JSON output")
    sub = p.add_subparsers(dest="command", metavar="COMMAND",
                           parser_class=_Parser)

    sp = sub.add_parser("verify",
                        help="validate a curve file against its hypersurface")
    sp.add_argument("--curve", required=True, metavar="FILE")
    sp.add_argument("--pr", type=int, help="expected p^r (cross-checked)")
    sp.add_argument("--N", type=int, help="expected ambient dimension")

    sp = sub.add_parser("splitting",
                        help="splitting type of a pullback bundle")
    sp.add_argument("--curve", required=True, metavar="FILE")
    sp.add_argument("--bundle", required=True, choices=sorted(_BUNDLES))
    sp.add_argument("--pr", type=int)
    sp.add_argument("--N", type=int)

    sp = sub.add_parser("classify",
                        help="full free/very-free classification report")
    sp.add_argument("--curve", required=True, metavar="FILE")
    sp.add_argument("--pr", type=int)
    sp.add_argument("--N", type=int)

    sp = sub.add_parser("windows",
                        help="forbidden degree windows on the diagonal")
    sp.add_argument("--pr", type=int, required=True)
    sp.add_argument("--max", type=int, default=None,
                    help="top of the reported degree range")

    sp = sub.add_parser("tangent",
                        help="tangent dimension versus the expected one")
    sp.add_argument("--curve", required=True, metavar="FILE")
    sp.add_argument("--pr", type=int)
    sp.add_argument("--N", type=int)

    sp = sub.add_parser("balanced-model",
                        help="predicted splitting under a balanced restriction")
    sp.add_argument("--e", type=int, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--pr", type=int, required=True)

    sp = sub.add_parser("probe-vanishing",
                        help="sample tuples and test forced coefficient vanishing")
    sp.add_argument("--pr", type=int, required=True)
    sp.add_argument("--N", type=int, default=None, help="default p^r + 1")
    sp.add_argument("--e", type=int, required=True)
    sp.add_argument("--budget", type=int, default=100, help="trials")
    _add_seed(sp)

    sp = sub.add_parser("search",
                        help="find curves on the hypersurface")
    sp.add_argument("--strategy", choices=search.STRATEGIES, default="alternating")
    sp.add_argument("--pr", type=int, default=None)
    sp.add_argument("--N", type=int, default=None, help="default p^r + 1")
    sp.add_argument("--e", type=int, default=1)
    sp.add_argument("--budget", type=int, default=1000,
                    help="iterations (alternating) or family size (covers)")
    sp.add_argument("--curve", metavar="FILE", help="base curve for covers")
    _add_seed(sp)

    sp = sub.add_parser("survey",
                        help="classify curves across degrees, one JSON row per line")
    sp.add_argument("--pr", type=int, required=True)
    sp.add_argument("--N", type=int, default=None, help="default p^r + 1")
    sp.add_argument("--max", type=int, required=True, help="degrees 1..max")
    sp.add_argument("--budget", type=int, default=100,
                    help="total classified curves")
    _add_seed(sp)

    return p


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"{path} must hold a JSON object")
    return data


def _load_curve(path: str, args, require_on_x: bool) -> Curve:
    data = _load_json(path)
    try:
        curve = Curve.from_json(data, on_hypersurface=require_on_x)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed curve file {path}: {exc}") from exc
    pr_flag = getattr(args, "pr", None)
    if pr_flag is not None and curve.params.pr != pr_flag:
        raise UsageError(
            f"--pr {pr_flag} does not match the file's p^r = {curve.params.pr}"
        )
    n_flag = getattr(args, "N", None)
    if n_flag is not None and curve.params.N != n_flag:
        raise UsageError(f"--N {n_flag} does not match the file's N = {curve.params.N}")
    return curve


def _params_from_flags(pr: Optional[int], N: Optional[int]) -> FermatParams:
    if pr is None:
        raise UsageError("--pr is required when no curve file is given")
    p, r = prime_power(pr)
    return FermatParams.make(p, r, N if N is not None else pr + 1)


def _check_e(e: int) -> None:
    if e < 1:
        raise UsageError("--e must be >= 1")


def _seed(args) -> int:
    seed = getattr(args, "seed", 0)
    if not 0 <= seed < 1 << 64:
        raise UsageError("--seed must fit in 64 bits")
    return seed


def _cmd_verify(args):
    curve = _load_curve(args.curve, args, require_on_x=True)
    span_dim, rnc = fermat.is_rnc(curve)
    return {
        "valid": True,
        "p": curve.params.p,
        "r": curve.params.r,
        "N": curve.params.N,
        "e": curve.e,
        "span_dim": span_dim,
        "is_rnc": rnc,
    }


def _cmd_splitting(args):
    curve = _load_curve(args.curve, args, require_on_x=False)
    label, op = _BUNDLES[args.bundle]
    st = op(curve)
    return {"e": curve.e, **st.to_json(label)}


def _cmd_classify(args):
    curve = _load_curve(args.curve, args, require_on_x=False)
    report = classify(curve)
    return {"e": curve.e, **report.to_json()}


def _cmd_windows(args):
    if args.pr > WINDOWS_LIMIT:
        raise SpaceTooLarge(f"--pr {args.pr} exceeds the windows gate {WINDOWS_LIMIT}")
    model = forbidden_windows(args.pr)
    top = args.max if args.max is not None else model.n0_bound + 3
    if top < 1:
        raise UsageError("--max must be >= 1")
    if top > WINDOWS_LIMIT:
        raise SpaceTooLarge(
            f"degrees up to {top} exceed the windows gate {WINDOWS_LIMIT}; pass a smaller --max"
        )
    return {
        "pr": model.pr,
        "N": model.N,
        "windows": [[lo, hi] for lo, hi in model.windows],
        "n0_bound": model.n0_bound,
        "max": top,
        "allowed": model.allowed_degrees(top),
    }


def _cmd_tangent(args):
    curve = _load_curve(args.curve, args, require_on_x=False)
    report = tangent_report(curve)
    return {"e": curve.e, **report.to_json()}


def _cmd_balanced_model(args):
    pred = balanced_model(args.e, args.N, args.pr)
    return {
        "e": args.e,
        "N": args.N,
        "pr": args.pr,
        "a": pred.a,
        "l": pred.l,
        "lprime": pred.lprime,
        "b1": pred.b1,
        "b2": pred.b2,
        "prediction": pred.prediction.to_json("F"),
    }


def _cmd_probe_vanishing(args):
    params = _params_from_flags(args.pr, args.N)
    _check_e(args.e)
    if args.budget < 1:
        raise UsageError("--budget must be >= 1")
    report = coefficient_vanishing_probe(
        params, args.e, trials=args.budget, seed=_seed(args)
    )
    return {
        "p": params.p,
        "r": params.r,
        "N": params.N,
        "e": args.e,
        **report.to_json(),
    }


def _cmd_search(args):
    _check_e(args.e)
    if args.budget < 1:
        raise UsageError("--budget must be >= 1")
    if args.strategy == "covers":
        if args.curve is None:
            raise UsageError("covers strategy needs a base --curve file")
        base = _load_curve(args.curve, args, require_on_x=True)
        params = base.params
        config = search.SearchConfig(params, args.e, _seed(args), strategy="covers")
        found = search.random_cover_family(config, base, args.budget)
    else:
        if args.curve is not None:
            raise UsageError(f"the {args.strategy} strategy takes no --curve file")
        params = _params_from_flags(args.pr, args.N)
        if args.strategy == "lines":
            if args.e != 1:
                raise UsageError("lines have degree 1")
            found = search.enumerate_standard_lines(params)
        elif args.strategy == "exhaustive":
            config = search.SearchConfig(params, args.e, strategy="exhaustive")
            found = search.exhaustive_scan(config)
        else:
            config = search.SearchConfig(
                params, args.e, _seed(args), max_iter=args.budget
            )
            hit = search.alternating_solve(config)
            found = [] if hit is None else [hit]
    return {
        "strategy": args.strategy,
        "e": args.e,
        "count": len(found),
        "found": [c.to_json() for c in found],
    }


def _cmd_survey(args):
    params = _params_from_flags(args.pr, args.N)
    if args.max < 1:
        raise UsageError("--max must be >= 1")
    if args.budget < 1:
        raise UsageError("--budget must be >= 1")
    rows = search.survey(params, range(1, args.max + 1), args.budget, _seed(args))
    return (row.to_json() for row in rows)


_COMMANDS = {
    "verify": _cmd_verify,
    "splitting": _cmd_splitting,
    "classify": _cmd_classify,
    "windows": _cmd_windows,
    "tangent": _cmd_tangent,
    "balanced-model": _cmd_balanced_model,
    "probe-vanishing": _cmd_probe_vanishing,
    "search": _cmd_search,
    "survey": _cmd_survey,
}


def _emit(obj: dict, pretty: bool) -> None:
    """Print one document, its schema first."""
    print(json.dumps({"schema": SCHEMA, **obj}, indent=2 if pretty else None), flush=True)


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a command is required (see --help)")
        result = _COMMANDS[args.command](args)
        if args.command == "survey":
            for row in result:
                _emit(row, pretty=False)
        else:
            _emit(result, args.pretty)
        return 0
    except FermatRCError as exc:
        _emit({"kind": exc.kind, "message": str(exc), **exc.where}, pretty=False)
        return exc.exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return run(argv)
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so that the
        # interpreter's final flush of what is still buffered cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
