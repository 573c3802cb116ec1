"""Benchmark of rbfstudy refinement studies.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload and metric, as a table

A run starts one workload process after another (closed loop, one study
at a time, BLAS on one thread) for as long as whole rounds fit in
``--seconds``, so every run attempts whole rounds of the same levels. Each
process imports the program, validates the configs and runs the studies as
``rbfstudy run`` does. Untraced runs report the mean ``study_s`` over the
run's rounds and the medians of ``setup_s`` and ``peak_rss_mb``; traced
runs alternate untraced and traced processes and report the per-layer
metrics, with the tracing overhead. The outputs of
the first round are checked against independent references (see
``reference.py``) and every round's ``rows.csv`` must be byte-identical.
The last line printed is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

WORK = workloads.BENCH_DIR / ".work"
CHILD_TIMEOUT_S = 150
ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
EXIT_CODES = {0: "ok", 2: "levels failed to solve", 3: "bound-shape check failed"}

END_TO_END = {"study_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def study_time(rounds: list[dict]) -> float:
    """Mean study time per round: the run's total study time over its
    rounds, the reciprocal of its study throughput. The host switches
    between fast and slow states within seconds, so single rounds are
    bimodal and the median of a run's few rounds jumps between the two;
    the mean weighs them by the time spent in each."""
    return statistics.fmean(r["study_s"] for r in rounds)


def spawn(work: Path, tag: str, jobs: list[tuple[Path, Path]], mode: str) -> dict:
    """Run one workload process (see study_process.py for the modes); its
    setup time is measured from just before the spawn to its first study
    call."""
    result_path = work / f"{tag}.json"
    argv = [sys.executable, str(workloads.BENCH_DIR / "study_process.py"), str(result_path),
            mode, json.dumps([[str(config), str(out)] for config, out in jobs])]
    with open(work / f"{tag}.log", "w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=ENV,
                                cwd=workloads.ROOT)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SystemExit(f"{tag}: workload process timed out; see {log.name}")
    if code != 0:
        raise SystemExit(f"{tag}: workload process exited with {code}; see {log.name}")
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["study_start"] - spawned
    result["study_s"] = result["study_end"] - result["study_start"]
    result["traced"] = mode == "traced"
    return result


def run_rounds(work: Path, studies: dict[str, Path], seconds: float, trace: bool):
    """Whole rounds of one study process each, for as many as fit in
    ``seconds`` at the mean round time so far (at least one; two when
    traced, where untraced and traced processes alternate, starting
    untraced). Returns the processes and their output directories."""
    spawn(work, "warmup", [(config, None) for config in studies.values()], "setup")
    rounds, outs = [], []
    start = time.monotonic()
    while True:
        i = len(rounds)
        out = {name: work / f"round{i}" / name for name in studies}
        mode = "traced" if trace and i % 2 == 1 else "plain"
        rounds.append(spawn(work, f"round{i}", [(studies[n], out[n]) for n in studies], mode))
        outs.append(out)
        elapsed = time.monotonic() - start
        if len(rounds) >= (2 if trace else 1) and elapsed * (i + 2) / (i + 1) > seconds:
            return rounds, outs


def check(configs: dict[str, dict], rounds: list[dict], outs: list[dict]) -> tuple[bool, int]:
    """Correctness of the outputs and the number of failed levels per round."""
    import reference

    workloads.import_program()
    from rbfstudy.study import StudyConfig, build_approximand

    correct, failed = True, 0
    for i, result in enumerate(rounds):
        if result["exit_codes"] != rounds[0]["exit_codes"]:
            print(f"round {i}: exit codes {result['exit_codes']} differ from round 0")
            correct = False
    for (name, config), code in zip(configs.items(), rounds[0]["exit_codes"]):
        print(f"{name}: exit {code} ({EXIT_CODES.get(code, 'unexpected')})")
        correct &= code in EXIT_CODES
        first = (outs[0][name] / "rows.csv").read_bytes()
        for i, out in enumerate(outs[1:], 1):
            if (out[name] / "rows.csv").read_bytes() != first:
                print(f"{name}: round {i} rows.csv differs from round 0"
                      f"{' (traced)' if rounds[i]['traced'] else ''}")
                correct = False
        expansion = build_approximand(StudyConfig.from_dict(config))
        f = reference.Approximand(expansion.centers.points, expansion.weights,
                                  expansion.poly_coeffs)
        for problem in reference.check_approximand(config, f):
            print(f"{name}: approximand: {problem}")
            correct = False
        verdicts = reference.check_levels(reference.read_rows(outs[0][name] / "rows.csv"),
                                          reference.expected_levels(config, f))
        for level, reasons in enumerate(verdicts):
            if reasons:
                failed += 1
                print(f"{name}: level {level} failed: {'; '.join(reasons)}")
    return correct, failed


def run_workload(args) -> int:
    configs = workloads.configs(args.workload, args.seed)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    studies = {}
    for name, config in configs.items():
        studies[name] = work / f"{name}.json"
        studies[name].write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")

    rounds, outs = run_rounds(work, studies, args.seconds, args.trace == 1)
    correct, failed = check(configs, rounds, outs)
    levels = sum(len(c["refinement"].get("spacings") or c["refinement"]["counts"])
                 for c in configs.values())

    plain = [r for r in rounds if not r["traced"]]
    if args.trace:
        import tracing

        traced = [r for r in rounds if r["traced"]]
        metrics = tracing.median_metrics([tracing.layer_metrics(r["spans"]) for r in traced])
        metrics["trace.overhead_s"] = study_time(traced) - study_time(plain)
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = {k: statistics.median(r[k] for r in plain) for k in END_TO_END}
        metrics["study_s"] = study_time(plain)
        units = END_TO_END
    print(f"{args.workload}: {len(rounds)} rounds, {levels} levels per round, "
          f"{failed} failed per round")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": levels * len(rounds),
        "failed": failed * len(rounds),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "MB" if name.endswith("_mb") else "count"


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced; a table of
    every metric."""
    status = 0
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=workloads.ROOT,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload}: failed\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            print(f"{workload} ({'traced' if trace else 'untraced'}): "
                  f"correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"  {workload}/{name} = {m['value']:.6g} {m['unit']}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="per-layer metrics instead of end-to-end (with --workload)")
    args = parser.parse_args()
    if not (workloads.SRC / "rbfstudy").is_dir():
        raise SystemExit(f"no rbfstudy sources under {workloads.SRC}")
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
