"""legknots benchmark: cold-start workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload verify --seed 1 --seconds 40 --trace 0

Every round runs in a fresh interpreter (bench/worker.py), so every
``lru_cache`` starts empty, as it does for a CLI user.  Rounds are closed
loop, one request at a time, single-threaded.  End-to-end times are scaled
to the reference host's speed (bench/calibrate.py).  Untraced runs repeat the
round while another fits in ``--seconds`` (at least one) and report
end-to-end metrics; a traced run makes one untraced and one traced round
and reports per-layer metrics.  The last stdout line is the JSON result;
the line before it describes the run.  Per-run records and span files go
to bench/out/.  See bench/METRICS.md.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import answers
import calibrate
import workloads
from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
# Set-up-only interpreter spawns per run, besides the rounds: half before the
# rounds and half after, because the host's speed drifts over seconds and
# samples from one stretch of it share its error.
SETUP_SAMPLES = 30
# Host-speed samples the harness takes before each spawn and after it.
SPAWN_SAMPLES = 2
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    pass


# ---- environment


def git_sha(root: Path):
    """HEAD of the checkout's git repository, or None outside one."""
    # The ceiling keeps git from reporting a repository that merely encloses the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "legknots").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# ---- rounds


class Worker:
    """Spawns fresh worker interpreters and times their set-up, with
    host-speed samples before each spawn and while each worker waits for
    its job."""

    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        self.setups = []
        self.spans = []  # (spawned, ready) of each set-up
        self.calibration = []  # (start, seconds) of each sample
        self.env = dict(os.environ)
        # Cache bytecode as an installed package does; the warm-up spawn fills it.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src

    def run(self, job: dict):
        """The result dict of one worker process."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline passed")
        self._calibrate()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py")],
            cwd=self.root,
            env=self.env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        watchdog = threading.Timer(remaining, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            span = (start, time.perf_counter())
            if ready != "READY\n":
                raise BenchError(f"worker failed to start: {ready!r}")
            self._calibrate()
            proc.stdin.write(json.dumps(job))
            proc.stdin.close()
            output = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        if code != 0 or not output.strip():
            raise BenchError(f"worker exited with code {code}")
        self.setups.append(span[1] - span[0])
        self.spans.append(span)
        return json.loads(output.strip().splitlines()[-1])

    def _calibrate(self):
        for _ in range(SPAWN_SAMPLES):
            self.calibration.append((time.perf_counter(), calibrate.sample()))

    def setup_only(self) -> None:
        self.run({"requests": [], "expected": []})

    def setup_s(self) -> float:
        """Median set-up time at reference speed."""
        return statistics.median(calibrate.scaled(self.setups, self.spans, self.calibration))


# ---- metrics


def scaled_latencies(rnd: dict) -> list:
    """A round's request latencies at reference speed."""
    return calibrate.scaled(rnd["latencies_s"], rnd["spans"], rnd["calibration"])


def end_to_end(setup_s: float, rounds) -> dict:
    scaled = [scaled_latencies(r) for r in rounds]
    # Each request's median over the rounds, so that a burst of machine noise
    # in one round does not move the percentiles.
    latencies = [statistics.median(lats) for lats in zip(*scaled)]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(sum(lats) for lats in scaled), "s"),
        "req_p50_ms": (1000 * deciles[4], "ms"),
        "req_p90_ms": (1000 * deciles[8], "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }


def per_layer(requests, plain: dict, traced: dict) -> dict:
    layers = traced["layers"]
    calls = layers["function_calls"]
    presentations = layers["yields"].get("diagram.enumerate_presentations", 0)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layers["self_s"][layer], "s")
        metrics[f"{layer}.calls"] = (layers["calls"][layer], "count")
        metrics[f"{layer}.errors"] = (layers["errors"][layer], "count")
    metrics.update(
        {
            "invariants.evals_per_presentation": (
                layers["invariant_evals"] / presentations if presentations else 0.0,
                "ratio",
            ),
            "linalg.solve_calls": (calls.get("linalg.solve_fraction", 0), "count"),
            "linalg.signature_calls": (calls.get("linalg.signature_symmetric", 0), "count"),
            "linalg.det_calls": (calls.get("linalg.det_bareiss", 0), "count"),
            "cf.expansions_per_knot": (
                calls.get("cf.complementary_expansions", 0) / layers["distinct_knots"]
                if layers["distinct_knots"]
                else 0.0,
                "ratio",
            ),
            "diagram.presentations": (presentations, "count"),
            "diagram.chains_for_calls": (calls.get("diagram.chains_for", 0), "count"),
            "classify.class_of_calls": (calls.get("classify.class_of", 0), "count"),
            "classify.level_cache_hit_ratio": (layers["level_cache_hit_ratio"], "ratio"),
            "floer.hfk_cache_hit_ratio": (layers["hfk_cache_hit_ratio"], "ratio"),
            "floer.snf_calls": (calls.get("floer.smith_invariant_factors", 0), "count"),
            "floer.snf_cells": (layers["snf_cells"], "count"),
            "lens.reductions": (calls.get("lens.reduce_to_lens_chain", 0), "count"),
        }
    )
    # Per-check times come from the untraced round; 0 where no check ran.
    check_s = {req[1]: lat for req, lat in zip(requests, plain["latencies_s"]) if req[0] == "check"}
    for name in workloads.VERIFY_CHECKS:
        metrics[f"checks.{name}.s"] = (check_s.get(name, 0.0), "s")
    for name in workloads.BUDGETED_CHECKS:
        timing = answers.budget(plain["details"].get(name, ""))
        margin = timing[1] / timing[0] if timing and timing[0] > 0 else 0.0
        metrics[f"checks.{name}.budget_margin"] = (margin, "ratio")
    # Scaled, so that a change of the host's speed between the two rounds cancels.
    overhead = sum(scaled_latencies(traced)) / sum(scaled_latencies(plain)) - 1
    metrics["trace.overhead_frac"] = (overhead, "fraction")
    return metrics


# ---- main


def parse_args(argv):
    parser = argparse.ArgumentParser(description="legknots benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test size (self-tests only)")
    return parser.parse_args(argv)


def run(args, root: Path) -> tuple[dict, dict]:
    """(result line, run description) of one benchmark run; the full record
    goes to bench/out/."""
    reference = json.loads((BENCH / "reference.json").read_text())
    requests = workloads.make_requests(args.workload, args.seed, reference["pools"], args.tiny)
    expected = [reference["answers"][answers.request_key(req)] for req in requests]
    job = {"requests": requests, "expected": expected}
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    worker = Worker(root, time.monotonic() + RUN_DEADLINE_S)

    worker.setup_only()  # warm the bytecode cache; not a sample
    worker.setups.clear()
    worker.spans.clear()
    for _ in range(SETUP_SAMPLES // 2):
        worker.setup_only()
    rounds = []
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        rounds.append(worker.run(job))
        now = time.perf_counter()
        if args.trace or (now - started) + (now - round_start) > args.seconds:
            break  # another round of the same length would not fit
    for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2):
        worker.setup_only()
    if args.trace:
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        traced = worker.run({**job, "trace": True, "spans_path": str(spans)})
        rounds.append(traced)
        metrics = per_layer(requests, rounds[0], traced)
    else:
        metrics = end_to_end(worker.setup_s(), rounds)

    attempted = len(requests) * len(rounds)
    failed = sum(len(r["failed"]) for r in rounds)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(root),
        "src_sha256": src_digest(root),
        "reference_source": reference["source"],
        "reference_size": len(reference["answers"]),
        "requests_per_round": {
            w: len(workloads.make_requests(w, args.seed, reference["pools"], args.tiny))
            for w in workloads.WORKLOADS
        },
        "rounds": len(rounds),
        # Unscaled medians, and each round's host speed relative to the reference.
        "raw_setup_s": statistics.median(worker.setups),
        "raw_wall_s": statistics.median(r["wall_s"] for r in rounds),
        "host_speed": [calibrate.factor([s for _, s in r["calibration"]]) for r in rounds if r["calibration"]],
        "error_rate": failed / attempted,
        "problems": [p for r in rounds for p in r["problems"]][:10],
    }
    record = {
        "info": info,
        "result": result,
        "raw_setups_s": worker.setups,
        "setup_spans": worker.spans,
        "harness_calibration": worker.calibration,
        "rounds": [
            {key: r[key] for key in ("wall_s", "latencies_s", "spans", "calibration", "failed", "peak_rss_mb", "details")}
            for r in rounds
        ],
        "requests": [answers.request_key(req) for req in requests],
        "layers": rounds[-1].get("layers"),
    }
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    return result, info


def main(argv=None) -> int:
    args = parse_args(argv)
    root = BENCH.parent
    if not (root / "src" / "legknots" / "cli.py").is_file():
        print(f"error: no legknots sources under {root / 'src'}", file=sys.stderr)
        return 2
    try:
        result, info = run(args, root)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"run_info": info}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
