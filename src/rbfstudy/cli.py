"""Command-line harness for refinement studies, rate fits, and the Gorny
inequality campaign.

Exit codes: 0 all checks pass, 2 some refinement levels failed to solve
or a bad argument (as argparse uses it; also a config ``run`` cannot read
or refuses, an output directory ``run`` cannot make, or a rows file
``fit`` cannot read or fit, each reported in one line), 3 the bound-shape
check (or the Gorny campaign) failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from rbfstudy.bounds import fit_rate, fit_report_dict, usable_samples
from rbfstudy.kernels import KernelFamily
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
    try:
        config = StudyConfig.load_json(args.config)
    except OSError as exc:
        print(f"rbfstudy run: cannot read {args.config}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"rbfstudy run: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"rbfstudy run: cannot make directory {out}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    result = run_study(config)
    report = None
    if config.check_enabled and config.deriv_orders:
        try:
            report = check_bounds(result)
        except ValueError as exc:
            print(f"bound check skipped: {exc}", file=sys.stderr)

    rows_path = out / "rows.csv"
    summary_path = out / "summary.json"
    write_rows_csv(result, rows_path)
    write_summary_json(result, report, summary_path)

    if args.verbose:
        for record in result.levels:
            print(f"level {record.level}: d={record.d:.6g} N={record.n_points} "
                  f"sup_error={record.errors[0]:.6g} cond={record.cond_estimate:.3e}"
                  + (f" failed: {record.failure}" if record.failure else ""))
            if record.mp:
                print("  mp: dps={dps} assembly={assembly_s:.3f}s lu={lu_s:.3f}s "
                      "sweep={sweep_s:.3f}s kernel memo {distinct} distinct of {pairs} pairs, "
                      "study memo {memo_size}".format(**record.mp))
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
    try:
        rows = read_rows_csv(args.rows)
    except OSError as exc:
        print(f"rbfstudy fit: cannot read {args.rows}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"rbfstudy fit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    tags = list(dict.fromkeys(row["alpha"] for row in rows))
    if args.alpha not in tags:
        print(f"rbfstudy fit: no rows tagged {args.alpha!r} in {args.rows}; its tags are "
              f"{', '.join(map(repr, tags)) or 'none'}", file=sys.stderr)
        return EXIT_USAGE
    kernels = list(dict.fromkeys(row["kernel"] for row in rows))
    families = [family.value for family in KernelFamily]
    if len(kernels) > 1 or kernels[0] not in families:
        print(f"rbfstudy fit: the rows of {args.rows} must name one kernel of "
              f"{', '.join(families)}; they name {', '.join(map(repr, kernels))}", file=sys.stderr)
        return EXIT_USAGE
    family = KernelFamily(kernels[0])
    samples = usable_samples((row["d"], row["sup_error"])
                             for row in rows if row["alpha"] == args.alpha)
    try:
        fit = fit_rate(family, samples)
    except ValueError as exc:
        print(f"rbfstudy fit: cannot fit the {family.value} model to the {len(samples)} rows "
              f"tagged {args.alpha!r} with a finite positive error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(json.dumps(fit_report_dict(fit, len(samples)), indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_gorny(args) -> int:
    result = run_gorny_campaign(args.trials, args.seed)
    print(json.dumps(dataclasses.asdict(result), indent=2, sort_keys=True))
    return EXIT_OK if result.violations == 0 else EXIT_CHECK_FAILED


def positive_int(text: str) -> int:
    """argparse type of a count: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbfstudy",
        description="Refinement studies of kernel-interpolation error decay.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a refinement study from a JSON config")
    run_p.add_argument("--config", required=True, help="path to the study config JSON")
    run_p.add_argument("--out", required=True, help="output directory for rows.csv and summary.json")
    run_p.add_argument("--verbose", action="store_true", help="print per-level details")
    run_p.set_defaults(func=_cmd_run)

    fit_p = sub.add_parser("fit", help="fit its kernel's decay model to a rows CSV")
    fit_p.add_argument("--rows", required=True, help="path to a rows CSV of one kernel")
    fit_p.add_argument("--alpha", default=VALUE_TAG, help="row tag to fit (default: value rows)")
    fit_p.set_defaults(func=_cmd_fit)

    gorny_p = sub.add_parser("gorny", help="random campaign checking the derivative inequality")
    gorny_p.add_argument("--trials", type=positive_int, default=1000)
    gorny_p.add_argument("--seed", type=int, default=0)
    gorny_p.set_defaults(func=_cmd_gorny)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
