"""Command-line front end.

Subcommands: sieve, fixed, scaled, predict, reproduce.  Progress goes to
stderr, data to stdout or --out.  Exit codes: 0 success, 2 usage error,
3 numeric-range error, 4 I/O error, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
import time

from . import __version__
from . import fixed as fixed_mod
from . import predictors, scaled as scaled_mod, sweep
from .errors import CheckpointError, LongRunError, NumericRangeError
from .report import MomentReport, MomentRow, emit, render_table
from .sieve import MangoldtSieve, prime_count

LONG_RUN_SECONDS = 30 * 60


def _parse_ks(text: str) -> tuple[int, ...]:
    try:
        return sweep.check_ks(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad moment order list {text!r}: {exc}")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=_parse_ks, default=(2, 4, 6),
                   help="comma-separated moment orders (default 2,4,6)")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--segment-size", type=int, metavar="N",
                   help="integers per segment (default: the smallest power of two "
                        "that is at least 2^21, at least 16 times the window's width "
                        "at X and at least X / 2^20)")
    p.add_argument("--checkpoint", metavar="PATH")
    p.add_argument("--resume", action="store_true")
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--format", choices=["csv", "json"])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="psimoment",
        description="Moments of prime counts in short intervals",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", help="smoke-test the segmented sieve")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--count", action="store_true",
                   help="print the prime count and summatory value at limit")

    p = sub.add_parser("fixed", help="fixed-length window moments")
    p.add_argument("--x", type=_finite_float, required=True)
    p.add_argument("--h", type=_finite_float, required=True)
    p.add_argument("--mode", choices=["sum", "integral"], default="sum")
    _add_run_flags(p)

    p = sub.add_parser("scaled", help="proportional-window moment integral")
    p.add_argument("--x", type=_finite_float, required=True)
    p.add_argument("--delta", type=_finite_float, required=True)
    _add_run_flags(p)

    p = sub.add_parser("predict", help="evaluate asymptotic main terms")
    p.add_argument("--formula", choices=["ms", "thm-i", "thm-ii", "cramer"],
                   required=True)
    p.add_argument("--x", type=_finite_float, required=True)
    p.add_argument("--h", type=_finite_float)
    p.add_argument("--delta", type=_finite_float)
    p.add_argument("--k", type=_parse_ks, default=(2, 4, 6))
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--format", choices=["csv", "json"])

    p = sub.add_parser("reproduce", help="reproduce a published table")
    p.add_argument("table", choices=["ms-table", "scaled-1e8", "scaled-1e10"])
    p.add_argument("--confirm-long", action="store_true")
    _add_run_flags(p)

    return ap


# formula -> (its parameter flag, its predictors function, the report column
# it fills).  A moment report fills, for even k, the columns of the formulas
# that take its mode's parameter and make a claim there (no ValueError).
# The function is looked up when called, so a replaced one is the one called.
FORMULAS = {
    "thm-i": ("h", "fixed_main_term", "predicted_thm"),
    "ms": ("h", "fixed_main_term_from_one", "predicted_ms"),
    "thm-ii": ("delta", "scaled_main_term", "predicted_thm"),
}


def _build_report(mode, x, param, ks, actual, wall) -> MomentReport:
    flag = sweep.WINDOWS[mode][0]
    rows = []
    for k in ks:
        columns = {"predicted_thm": None, "predicted_ms": None}
        for want, name, column in FORMULAS.values():
            if want == flag and k % 2 == 0:
                try:
                    columns[column] = getattr(predictors, name)(x, param, k)
                except ValueError:
                    pass
        a = actual.get(k) if actual else None
        thm = columns["predicted_thm"]
        ratio = a / thm if (a is not None and thm) else None
        rows.append(MomentRow(k=k, actual=a, ratio=ratio, **columns))
    return MomentReport(mode=mode, x=x, h_or_delta=param, rows=tuple(rows),
                        wall_seconds=wall)


def _run_moments(args) -> MomentReport:
    """The report of a fixed or scaled command.

    The moment function is looked up in its module when the run starts, so
    a replaced module attribute (a test double, a tracer) is the one called.
    """
    run = dict(threads=args.threads, segment_size=args.segment_size,
               checkpoint=args.checkpoint, resume=args.resume)
    t0 = time.monotonic()
    if args.command == "scaled":
        mode, x, param = "scaled-integral", args.x, args.delta
        actual = scaled_mod.moment_integral_scaled(x, param, args.k, **run)
    elif args.mode == "integral":
        mode, x, param = "fixed-integral", args.x, args.h
        actual = fixed_mod.moment_integral_fixed(x, param, args.k, **run)
    elif args.x.is_integer() and args.h.is_integer():
        mode, x, param = "fixed-sum", int(args.x), int(args.h)
        actual = fixed_mod.moment_sum(x, param, args.k, **run)
    else:
        raise ValueError(f"sum mode needs integral --x and --h, got {args.x}, {args.h}")
    return _build_report(mode, x, param, args.k, actual, time.monotonic() - t0)


def _run_predict(args) -> tuple[MomentReport | None, str]:
    if args.formula == "cramer":
        if args.h is None:
            raise ValueError("--formula cramer requires --h")
        if args.out is not None or args.format is not None:
            raise ValueError("--formula cramer writes no report; drop --out and --format")
        short, cramer = predictors.cramer_variance(args.x, args.h)
        return None, (f"window variance  h*log(N/h) = {short:.6g}\n"
                      f"Cramer variance  h*log(N)   = {cramer:.6g}\n"
                      f"ratio = {short / cramer:.6f}\n")
    flag, name, column = FORMULAS[args.formula]
    param = getattr(args, flag)
    if param is None:
        raise ValueError(f"--formula {args.formula} requires --{flag}")
    rows, lines = [], []
    for k in args.k:
        value = getattr(predictors, name)(args.x, param, k)
        columns = {"predicted_thm": None, "predicted_ms": None, column: value}
        rows.append(MomentRow(k=k, actual=None, ratio=None, **columns))
        lines.append(f"k={k}  {value:.6g}\n")
    return MomentReport(mode=f"predict-{args.formula}", x=args.x, h_or_delta=param,
                        rows=tuple(rows), wall_seconds=0.0), "".join(lines)


REPRODUCE_TABLES = {
    "ms-table": ("fixed-sum", 10**10, 10**5),
    "scaled-1e8": ("scaled-integral", 10**8, 1e-4),
    "scaled-1e10": ("scaled-integral", 10**10, 1e-5),
}


def _run_reproduce(args) -> tuple[MomentReport, str]:
    mode, x, param = REPRODUCE_TABLES[args.table]
    t0 = time.monotonic()
    try:  # sweep.run, as the public functions take no time limit
        actual = sweep.run(mode, x, param, args.k, None, args.threads, args.segment_size,
                           args.checkpoint, args.resume,
                           math.inf if args.confirm_long else LONG_RUN_SECONDS)
    except LongRunError as exc:
        raise ValueError(f"{exc}; re-run with --confirm-long to proceed") from None
    report = _build_report(mode, x, param, args.k, actual, time.monotonic() - t0)
    return report, render_table(report)


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "resume", False) and not args.checkpoint:
        parser.error("--resume needs --checkpoint")
    try:
        if args.command == "sieve":
            if args.limit < 2:
                raise ValueError("--limit must be >= 2")
            if args.count:
                count, psi = MangoldtSieve().pi_and_psi(args.limit)
                print(f"primes<={args.limit}: {count}")
                print(f"psi({args.limit}) = {psi:.17g}")
            else:
                print(prime_count(args.limit))
            return 0
        if args.command in ("fixed", "scaled"):
            report, text = _run_moments(args), ""
        elif args.command == "predict":
            report, text = _run_predict(args)
        else:
            report, text = _run_reproduce(args)
        # A report asked for, or the only output, moves the human text to stderr.
        wanted = args.out is not None or args.format is not None or not text
        (sys.stderr if wanted else sys.stdout).write(text)
        if wanted:
            emit(report, args.format or "csv", args.out)
        return 0
    except (ValueError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericRangeError as exc:
        print(f"numeric-range error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    except KeyboardInterrupt:
        checkpoint = getattr(args, "checkpoint", None)
        print("interrupted" + (f"; re-run with --resume to continue from {checkpoint}"
                               if checkpoint else ""), file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
