"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 child.py SCENARIO SEED OUT_DIR RESULT_JSON MODE

Runs ``rumornet simulate`` through its public entry point
``rumornet.expcli.cli.main`` and writes RESULT_JSON with the exit code, the
set-up time (first line of this file to the start of the verb: importing
numpy and the CLI, then parsing the scenario), the wall time of the ``main``
call and of the verb inside it, the CPU time of the ``main`` call, and the
process's peak resident memory.  MODE is ``0`` for a plain run; ``1`` wraps
the layers' public functions first (see tracer.py) and writes the recorded
spans into RESULT_JSON as well; ``setup`` stops at the start of the verb, to
sample the set-up time alone.  ``rumornet`` must be importable (the caller
puts the checkout's ``src`` on PYTHONPATH).
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> int:
    scenario_path, seed, out_dir, result_path, mode = argv
    import numpy  # noqa: F401  (part of the set-up a user pays)
    from rumornet.expcli import cli

    marks: dict[str, float] = {}
    verb = cli._cmd_simulate

    def timed_verb(scenario):
        marks["verb_start"] = time.perf_counter()
        if mode == "setup":
            return 0
        try:
            return verb(scenario)
        finally:
            marks["verb_end"] = time.perf_counter()

    cli._cmd_simulate = timed_verb
    tracer = None
    if mode == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    argv_cli = ["simulate", "--config", scenario_path, "--seed", seed, "--out", out_dir, "--workers", "1"]
    call_start, cpu_start = time.perf_counter(), time.process_time()
    code = cli.main(argv_cli)
    call_end, cpu_end = time.perf_counter(), time.process_time()
    result = {
        "exit_code": code,
        "setup_s": marks.get("verb_start", call_end) - T0,
        "call_s": call_end - call_start,
        "call_cpu_s": cpu_end - cpu_start,
        "verb_s": marks.get("verb_end", call_end) - marks.get("verb_start", call_end),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
