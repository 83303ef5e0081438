"""One benchmark round in a fresh interpreter.

Protocol: the worker imports legknots and builds the CLI parser, prints
``READY`` and reads one JSON job from stdin:
``{"requests": [...], "expected": [...], "trace": bool, "spans_path": str}``.
It answers every request in order, checks each answer against the
reference, and prints one JSON result line.  An empty request list only
measures set-up.
"""

import contextlib
import io
import json
import resource
import sys
import time

import answers
import calibrate
from legknots import checks, cli


def execute(request) -> dict:
    """Send one request to the program and return its raw answer."""
    if request[0] == "check":
        ok, detail = checks.run_check(request[1])
        return {"ok": ok, "detail": detail}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(request + ["--json"])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_round(requests, expected, tracer=None) -> dict:
    """Answer and check every request, taking host-speed samples meanwhile
    (bench/calibrate.py) and leaving their time out of the latencies.  In a
    traced round each sample is a span of its own, outside every layer, so
    that no layer's self time holds it."""
    latencies, spans, failed, problems, details = [], [], [], [], {}
    sampler = calibrate.Sampler(calibrate.sample if tracer is None else tracer.span("calibrate.sample", calibrate.sample))
    sampler.start()
    clock = time.perf_counter
    try:
        for index, (request, want) in enumerate(zip(requests, expected)):
            if tracer is not None:
                tracer.request = index
            sent = clock()
            try:
                answer = execute(request)
            except (Exception, SystemExit) as exc:  # a crash or a rejected argv fails the request, not the run
                answer = None
                problems.append(f"{answers.request_key(request)}: {type(exc).__name__}: {exc}")
            done = clock()
            latencies.append(done - sent - sampler.spent(sent, done))
            spans.append((sent, done))
            if not answers.matches(want, answer):
                failed.append(index)
            if answer is not None and "detail" in answer:
                details[request[1]] = answer["detail"]
    finally:
        sampler.stop()
    return {
        "wall_s": sum(latencies),
        "latencies_s": latencies,
        "spans": spans,
        "calibration": sampler.samples,
        "failed": failed,
        "problems": problems[:10],
        "details": details,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main() -> int:
    cli.build_parser()
    print("READY", flush=True)
    job = json.loads(sys.stdin.read())
    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    result = run_round(job["requests"], job["expected"], tracer)
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.write(job["spans_path"])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
