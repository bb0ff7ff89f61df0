"""One benchmark client process: a fresh interpreter that serves requests.

    python3 perfbench/worker.py SRC --setup-only
    python3 perfbench/worker.py SRC REQUESTS [--trace TRACE_OUT]

Imports `opwords` from SRC and prints `ready <import seconds>` once the first
request could be issued.  Then it reads request indices from stdin, one a
line; for each it runs that request of REQUESTS through `opwords.cli.main`
and answers with one JSON line: exit code, report text, latency, and the
mean time of the calibration kernel run just before and after.  `end`
makes it answer with its peak RSS and exit.  Export paths are relative, so
each worker writes its exports under its own working directory.  With
--trace the layer boundaries are wrapped before the first request (see
tracing.py) and the spans are written to TRACE_OUT at the end.
"""
import contextlib
import gc
import io
import json
import os
import resource
import sys
import time


def calibration() -> float:
    """Seconds for a fixed closure of 625 words, the kind of tuple and set
    work the requests do, with the collector off so the heap left by the
    requests does not weigh in."""
    import oracle  # here, so that set-up time covers opwords alone

    gc.disable()
    try:
        start = time.perf_counter()
        oracle.reference_closure("N", ((0, 0), (0, 1)), 7)
        return time.perf_counter() - start
    finally:
        gc.enable()


def run(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    raised = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed request, not a failed run
            rc, raised = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    return {"rc": rc, "seconds": seconds, "stdout": out.getvalue(),
            "stderr": err.getvalue()[-2000:], "raised": raised}


def main(argv: list[str]) -> int:
    src = argv[0]
    if not os.path.isfile(os.path.join(src, "opwords", "__init__.py")):
        print(f"error: no opwords package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    start = time.perf_counter()
    import opwords.cli as cli

    cli.build_parser()
    print(f"ready {time.perf_counter() - start!r}", flush=True)
    if argv[1] == "--setup-only":
        return 0

    with open(argv[1], encoding="utf-8") as handle:
        requests = json.load(handle)
    tracer = None
    if argv[2:3] == ["--trace"]:
        import tracing

        tracer = tracing.install()
    for line in sys.stdin:
        if line.strip() == "end":
            break
        index = int(line)
        if tracer is not None:
            tracer.request = index
        before = calibration()
        result = run(cli, list(requests[index]["argv"]))
        result["kernel"] = (before + calibration()) / 2
        print(json.dumps(result), flush=True)
    if tracer is not None:
        with open(argv[3], "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"maxrss_kb": rss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
