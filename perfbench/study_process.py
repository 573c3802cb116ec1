"""One workload process: what a user of ``rbfstudy run`` waits for.

Imports the program, validates every config, then drives ``rbfstudy.cli``
once per study (run the study, check the bounds where enabled, write
``rows.csv`` and ``summary.json``). Writes its clock readings, exit codes,
peak RSS and, when traced, its spans to a JSON file. The parent reads the
clock readings against its own: CLOCK_MONOTONIC is shared by all processes.

    python3 perfbench/study_process.py RESULT.json MODE JOBS

MODE is ``plain``, ``traced``, or ``setup`` (stop after validating). JOBS
is a JSON list of [config path, output directory] pairs.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import workloads


def main(argv: list[str]) -> int:
    result_path, mode, jobs = argv[0], argv[1], json.loads(argv[2])
    workloads.import_program()
    from rbfstudy import cli
    from rbfstudy.study import StudyConfig

    run = cli.main
    tracer = None
    if mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        run = tracer.wrap(cli.main, "cli.main")
    for config, _ in jobs:
        StudyConfig.load_json(config)

    start = time.monotonic()
    codes = [] if mode == "setup" else [
        run(["run", "--config", config, "--out", out]) for config, out in jobs
    ]
    end = time.monotonic()
    result = {
        "study_start": start,
        "study_end": end,
        "exit_codes": codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "spans": tracer.spans if tracer else None,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
