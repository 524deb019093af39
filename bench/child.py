"""One benchmark pass in a fresh interpreter.

Started by run.py with ``PYTHONPATH`` pointing at the checkout's ``src``.
Imports ``finring.cli`` and builds its parser first, and reports the
monotonic clock reading at that moment so the parent can compute set-up
time from its own reading taken just before the process was started.

Then it reads a job from stdin -- ``{"requests": [argv, ...], "trace": bool,
"spans_path": str | null}`` -- runs each request through
``finring.cli.main(argv)`` one after another, and prints one JSON object
with per-request exit codes, latencies and outputs on stdout.

Between requests, outside the timed region, it runs ``gc.collect()``.  A
command-line process starts with an empty heap, but finring's rings hold
caches in reference cycles that only the cyclic collector frees; without
the collection a later request would pay for, and the peak memory would
include, the garbage of the earlier ones (417 MB instead of 120 MB on one
ring-sweep pass).
"""

import sys
import time


def run_request(cli, argv):
    import contextlib
    import io
    import traceback

    out, err = io.StringIO(), io.StringIO()
    trace_text = None
    start = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an uncaught error reaches the user as a traceback
        code = 1
        trace_text = traceback.format_exc()
    latency = time.perf_counter_ns() - start
    return {
        "code": code,
        "latency_ns": latency,
        "stdout": out.getvalue(),
        "stderr": err.getvalue()[:2000],
        "traceback": trace_text,
    }


def main():
    from finring import cli

    cli.build_parser()
    setup_done = time.monotonic()
    # everything below is imported after the set-up measurement on purpose
    import gc
    import json
    import resource

    job = json.load(sys.stdin)
    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    for i, argv in enumerate(job["requests"]):
        if tracer is not None:
            tracer.current_request = i
        results.append(run_request(cli, argv))
        gc.collect()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = {
        "setup_done": setup_done,
        "peak_rss_kb": peak_rss_kb,
        "results": results,
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
        report["trace"]["problems"] = tracer.check_invariants(
            {i: r["latency_ns"] for i, r in enumerate(results)}
        )
        if job.get("spans_path"):
            tracer.dump(job["spans_path"])
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
