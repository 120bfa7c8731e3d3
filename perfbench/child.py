"""One program process of the benchmark.

    child.py [--spans FILE --op N] cli ARGV...   run `quivernc ARGV...` once
    child.py [--spans FILE] session              serve map queries from stdin

Untraced, `cli` mode does exactly what the `quivernc` console script does.
With `--spans`, the tracer wraps the package first and the spans go to FILE
when the process ends. The last stderr line is always `peak_rss_kb N`.

In `session` mode the process prints `ready`, then reads one JSON request per
line, `{"op": N, "argv": [...]}`, runs `quivernc.cli.main(argv)` with stdout
captured, and answers with one JSON line `{"rc", "out", "err", "seconds"}`,
where `seconds` is the wall time of the call itself. Timing the call here
leaves out the pipe round trip, whose wake-ups on a loaded two-vCPU machine
cost more than a cheap query.
"""

import contextlib
import io
import json
import sys
import time
import traceback


def serve(main, tracer) -> int:
    print("ready", flush=True)
    for line in sys.stdin:
        req = json.loads(line)
        if tracer is not None:
            tracer.op = req["op"]
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(req["argv"])
            except SystemExit as exc:  # argparse rejects the arguments
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # the session must answer every query
                rc = -1
                traceback.print_exc()
        seconds = time.perf_counter() - t0
        print(json.dumps({"rc": rc, "out": out.getvalue(), "err": err.getvalue(),
                          "seconds": seconds}), flush=True)
    return 0


def peak_rss_kb() -> int:
    """Peak resident set of this program image. ru_maxrss would also count
    the parent's resident set, which Linux copies into it at exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run(argv: list[str]) -> int:
    spans = tracer = None
    if argv[0] == "--spans":
        spans, argv = argv[1], argv[2:]
        import tracer as tracing
        tracer = tracing.install()
    if argv[0] == "--op":
        tracer.op, argv = int(argv[1]), argv[2:]
    from quivernc.cli import main
    try:
        if argv[0] == "session":
            return serve(main, tracer)
        return main(argv[1:])
    finally:
        if tracer is not None:
            tracer.dump(spans)
        print(f"peak_rss_kb {peak_rss_kb()}", file=sys.__stderr__, flush=True)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
