"""Command-line harness for refinement studies, rate fits, and the Gorny
inequality campaign.

Exit codes: 0 all checks pass, 2 some refinement levels failed to solve
or a bad argument (as argparse uses it; ``fit`` also when its rows file
has no rows of the tag or too few usable ones for the model), 3 the
bound-shape check (or the Gorny campaign) failed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from rbfstudy.bounds import fit_gaussian_rate, fit_mq_rate, fit_report_dict
from rbfstudy.study import (
    StudyConfig,
    VALUE_TAG,
    check_bounds,
    read_rows_csv,
    run_gorny_campaign,
    run_study,
    write_rows_csv,
    write_summary_json,
)

EXIT_OK = 0
EXIT_PARTIAL = 2
EXIT_USAGE = 2
EXIT_CHECK_FAILED = 3


def _cmd_run(args) -> int:
    config = StudyConfig.load_json(args.config)
    result = run_study(config)
    report = None
    if config.check_enabled and config.deriv_orders:
        try:
            report = check_bounds(result)
        except ValueError as exc:
            print(f"bound check skipped: {exc}", file=sys.stderr)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows_path = out / "rows.csv"
    summary_path = out / "summary.json"
    write_rows_csv(result, rows_path)
    write_summary_json(result, report, summary_path)

    if args.verbose:
        for row in result.rows:
            if row.alpha_tag == VALUE_TAG:
                print(
                    f"level {row.level}: d={row.d:.6g} N={row.n_points} "
                    f"sup_error={row.sup_error:.6g} cond={row.cond_estimate:.3e}"
                )
                stats = result.mp_stats.get(row.level)
                if stats:
                    print(
                        f"  mp: dps={stats['dps']} assembly={stats['assembly_s']:.3f}s "
                        f"lu={stats['lu_s']:.3f}s sweep={stats['sweep_s']:.3f}s "
                        f"kernel memo {stats['distinct']} distinct of {stats['pairs']} pairs, "
                        f"study memo {stats['memo_size']}"
                    )
    print(f"wrote {rows_path} and {summary_path}")

    if report is not None and not report.passed:
        print(
            f"bound-shape check failed: pass fraction {report.pass_fraction:.3f} "
            f"< {config.check_min_pass_fraction}",
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILED
    if result.failed_levels:
        print(f"{result.failed_levels} level(s) failed to solve", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_fit(args) -> int:
    rows = read_rows_csv(args.rows)
    tags = list(dict.fromkeys(row["alpha"] for row in rows))
    if args.alpha not in tags:
        print(f"rbfstudy fit: no rows tagged {args.alpha!r} in {args.rows}; its tags are "
              f"{', '.join(map(repr, tags)) or 'none'}", file=sys.stderr)
        return EXIT_USAGE
    samples = [
        (row["d"], row["sup_error"])
        for row in rows
        if row["alpha"] == args.alpha
        and math.isfinite(row["sup_error"])
        and row["sup_error"] > 0.0
    ]
    try:
        fit = fit_mq_rate(samples) if args.model == "mq" else fit_gaussian_rate(samples)
    except ValueError as exc:
        print(f"rbfstudy fit: cannot fit the {args.model} model to the {len(samples)} rows "
              f"tagged {args.alpha!r} with a finite positive error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(json.dumps(fit_report_dict(fit, len(samples)), indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_gorny(args) -> int:
    result = run_gorny_campaign(args.trials, args.seed)
    print(
        json.dumps(
            {
                "trials": result.trials,
                "violations": result.violations,
                "worst_ratio": result.worst_ratio,
            },
            indent=2,
            sort_keys=True,
        )
    )
    return EXIT_OK if result.violations == 0 else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbfstudy",
        description="Refinement studies of kernel-interpolation error decay.",
    )
    parser.add_argument("--verbose", action="store_true", help="print per-level details")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a refinement study from a JSON config")
    run_p.add_argument("--config", required=True, help="path to the study config JSON")
    run_p.add_argument("--out", required=True, help="output directory for rows.csv and summary.json")
    # accepted after the subcommand too; SUPPRESS keeps the root default intact
    run_p.add_argument("--verbose", action="store_true", default=argparse.SUPPRESS)
    run_p.set_defaults(func=_cmd_run)

    fit_p = sub.add_parser("fit", help="fit a decay model to a rows CSV")
    fit_p.add_argument("--rows", required=True, help="path to a rows CSV")
    fit_p.add_argument("--model", required=True, choices=("mq", "gaussian"))
    fit_p.add_argument("--alpha", default=VALUE_TAG, help="row tag to fit (default: value rows)")
    fit_p.set_defaults(func=_cmd_fit)

    gorny_p = sub.add_parser("gorny", help="random campaign checking the derivative inequality")
    gorny_p.add_argument("--trials", type=int, default=1000)
    gorny_p.add_argument("--seed", type=int, default=0)
    gorny_p.set_defaults(func=_cmd_gorny)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
