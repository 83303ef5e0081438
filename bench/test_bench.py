"""Self-tests of the benchmark harness.

    python3 -m pytest bench -q

Smoke runs use ``--tiny`` request lists; they check the output format,
not the timings.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import answers  # noqa: E402
import calibrate  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((BENCH / "reference.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = result_line(bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--tiny"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["verify", "floer-large-q"])
def test_smoke_traced_run_reports_every_per_layer_metric(workload):
    result = result_line(bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1", "--tiny"))
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_requests_depend_only_on_seed():
    pools = REFERENCE["pools"]
    for workload in workloads.WORKLOADS:
        first = workloads.make_requests(workload, 7, pools)
        assert first == workloads.make_requests(workload, 7, pools)
        assert all(answers.request_key(req) in REFERENCE["answers"] for req in first)
    assert len(workloads.make_requests("deep-knots", 7, pools)) >= 100
    floer = workloads.make_requests("floer-large-q", 7, pools)
    assert len(floer) >= 100 and len({tuple(req) for req in floer}) == len(floer)
    assert floer != workloads.make_requests("floer-large-q", 8, pools)


def _round(workload):
    requests = workloads.make_requests(workload, 1, REFERENCE["pools"], tiny=True)
    expected = [REFERENCE["answers"][answers.request_key(req)] for req in requests]
    return worker.run_round(requests, expected)


def _cold_round(tracer=None):
    """A tiny floer-large-q round with every legknots cache emptied first,
    so that it lasts long enough for host-speed samples."""
    for name, module in list(sys.modules.items()):
        if name.startswith("legknots."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
    requests = workloads.make_requests("floer-large-q", 1, REFERENCE["pools"], tiny=True)
    expected = [REFERENCE["answers"][answers.request_key(req)] for req in requests]
    return worker.run_round(requests, expected, tracer)


def test_host_speed_samples_are_left_out_of_the_latencies():
    result = _cold_round()
    assert result["calibration"] and all(seconds > 0 for _, seconds in result["calibration"])
    spent = sum(end - start for start, end in result["spans"]) - sum(result["latencies_s"])
    in_requests = sum(
        seconds
        for began, seconds in result["calibration"]
        if any(start <= began < end for start, end in result["spans"])
    )
    assert spent == pytest.approx(in_requests)


def test_traced_round_records_each_host_speed_sample_as_a_span():
    wrapped = []

    def span(name, fn):
        def timed():
            wrapped.append(name)
            return fn()

        return timed

    result = _cold_round(tracer=types.SimpleNamespace(span=span))
    assert result["calibration"] and wrapped == ["calibrate.sample"] * len(result["calibration"])


def test_scaling_divides_out_the_host_speed():
    ref = calibrate.REFERENCE_S
    spans = [(0.0, 1.0), (10.0, 11.0)]
    # Each request is scaled by the samples near it, not by the whole round's.
    samples = [(0.5, ref), (10.5, 2 * ref), (10.6, 2 * ref)]
    assert calibrate.scaled([1.0, 4.0], spans, samples) == pytest.approx([1.0, 2.0])
    # With no sample near it, by the round's mean.
    assert calibrate.scaled([3.0], [(20.0, 21.0)], samples) == pytest.approx([3.0 * 3 / 5])


def test_corrupted_cli_response_raises_error_rate(monkeypatch):
    assert _round("floer-large-q")["failed"] == []
    real_main = worker.cli.main

    def corrupted_main(argv):
        code = real_main(argv)
        print(" ", end="")  # one extra byte on stdout
        return code

    monkeypatch.setattr(worker.cli, "main", corrupted_main)
    result = _round("floer-large-q")
    assert len(result["failed"]) / len(result["latencies_s"]) > 0


def test_corrupted_check_response_raises_error_rate(monkeypatch):
    real_run_check = worker.checks.run_check
    monkeypatch.setattr(
        worker.checks, "run_check", lambda name: (real_run_check(name)[0], "tampered")
    )
    assert _round("verify")["failed"]


def test_rejected_argv_is_a_failed_request():
    requests = workloads.make_requests("floer-large-q", 1, REFERENCE["pools"], tiny=True)
    expected = [REFERENCE["answers"][answers.request_key(req)] for req in requests]
    result = worker.run_round([["no-such-subcommand"], *requests], [expected[0], *expected])
    assert result["failed"] == [0]
    assert "SystemExit" in result["problems"][0]


def test_budget_miss_alone_is_not_an_error():
    expected = REFERENCE["answers"]["check cf-complementarity"]
    slow = expected["detail"].replace("<t>s", "1.50s")
    assert answers.matches(expected, {"ok": False, "detail": slow})
    assert not answers.matches(expected, {"ok": False, "detail": slow.replace("12032", "12031")})


def test_known_red_is_expected_to_fail():
    assert REFERENCE["answers"]["check tight-count-steps"]["ok"] is False
