"""Command-line front end for sweeps and restricted-isometry diagnostics.

Subcommands: ``sweep-m``, ``sweep-tau``, ``rip-estimate``, ``rip-bound``,
``fit-rate``. Results go to ``--out`` (or stdout when omitted or ``-``) as
CSV or JSON. Exit codes: 0 success; 2 input from the caller that a rule
rejects, a :class:`pocs.ConfigError` naming the field (``rip-bound``
included, when the bound has no finite value); 3 I/O error; 4 a numerical
failure or any error that is not the caller's. ``main(argv)`` may be called
repeatedly in one process; it builds its parser once per process.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Sequence

from . import experiments, rip
from .core import ConfigError, VarianceConvention
from .experiments import SweepConfig


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=256, help="signal dimension")
    p.add_argument("--trials", type=int, default=10_000, help="trials per cell")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--out", default=None, metavar="PATH", help="output file ('-' = stdout)")
    p.add_argument("--workers", type=int, default=1, metavar="N", help="parallel workers")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``pocs`` parser, built on the first call and shared by every later one.

    ``main`` parses each call with this one object, so it must not be mutated.
    """
    parser = argparse.ArgumentParser(
        prog="pocs",
        description="Phase-only compressive sensing sweeps and diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    schemes = [c.value for c in VarianceConvention]

    sm = sub.add_parser("sweep-m", help="direction error vs measurement count")
    sm.add_argument("--s", type=int, action="append", required=True,
                    help="sparsity level (repeatable)")
    sm.add_argument("--log2-ratio", dest="log2_ratio", type=float, action="append",
                    required=True, help="log2(m/n) grid point (repeatable)")
    sm.add_argument("--scheme", choices=schemes, action="append",
                    help="measurement scheme (repeatable; default both)")
    _add_common(sm)

    st = sub.add_parser("sweep-tau", help="direction error vs phase-noise amplitude")
    st.add_argument("--s", type=int, required=True, help="sparsity level")
    st.add_argument("--m", type=int, required=True, help="measurement count")
    st.add_argument("--tau", type=float, action="append", required=True,
                    help="phase-noise bound in radians (repeatable)")
    _add_common(st)

    re_ = sub.add_parser("rip-estimate", help="empirical distortion lower bound")
    re_.add_argument("--m", type=int, required=True)
    re_.add_argument("--n", type=int, required=True)
    re_.add_argument("--s", type=int, required=True)
    re_.add_argument("--probes", type=int, default=1000, help="random probe count")
    re_.add_argument("--seed", type=int, default=0)
    re_.add_argument("--out", default=None, metavar="PATH")
    re_.add_argument("--format", choices=("csv", "json"), default="json")

    rb = sub.add_parser("rip-bound", help="closed-form minimum measurement count")
    rb.add_argument("--delta", type=float, required=True, help="target distortion")
    rb.add_argument("--s", type=int, required=True)
    rb.add_argument("--n", type=int, required=True)
    rb.add_argument("--eta", type=float, default=0.01, help="failure probability")

    fr = sub.add_parser("fit-rate", help="decay exponent of error vs m")
    fr.add_argument("--in", dest="input_path", required=True, metavar="PATH",
                    help="sweep result (csv or json)")
    fr.add_argument("--scheme", choices=schemes, required=True)
    fr.add_argument("--s", type=int, required=True)
    fr.add_argument("--min-log2-ratio", dest="min_log2_ratio", type=float,
                    default=float("-inf"), help="use grid points at or above this ratio")
    fr.add_argument("--n", type=int, default=None,
                    help="signal dimension (needed with csv input)")

    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path in (None, "-"):
        sys.stdout.write(text)
        return
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _report_text(report: dict, fmt: str) -> str:
    if fmt == "json":
        return experiments._json_text(report)
    return experiments._csv_text(list(report), [report.values()])


def _sweep_config(args: argparse.Namespace) -> SweepConfig:
    common = dict(n=args.n, trials=args.trials, master_seed=args.seed)
    if args.command == "sweep-m":
        if args.scheme:  # else SweepConfig's default: every scheme
            common["schemes"] = tuple(args.scheme)
        return SweepConfig(
            sparsity_levels=tuple(args.s), log2_m_over_n=tuple(args.log2_ratio), **common
        )
    return SweepConfig(
        sparsity_levels=(args.s,), m=args.m, tau_grid=tuple(args.tau), schemes=("po",), **common
    )


def _dispatch(args: argparse.Namespace) -> None:
    if args.command in ("sweep-m", "sweep-tau"):
        # looked up per call: tests and the benchmark tracer patch these attributes
        render = experiments.render_json if args.format == "json" else experiments.render_csv
        _emit(render(experiments.run_sweep(_sweep_config(args), workers=args.workers)), args.out)
    elif args.command == "rip-estimate":
        report = experiments.rip_estimate_report(
            args.m, args.n, args.s, args.probes, args.seed
        )
        _emit(_report_text(report, args.format), args.out)
    elif args.command == "rip-bound":
        print(rip.sample_complexity_bound(args.delta, args.s, args.n, args.eta))
    else:  # fit-rate
        cells, n = experiments.load_sweep_cells(args.input_path)
        slope = experiments.fit_rate(
            cells, args.scheme, args.s, n if args.n is None else args.n, args.min_log2_ratio
        )
        print(f"{slope:.10g}")


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _dispatch(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # a fault that is not the caller's, a numpy ValueError say
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
