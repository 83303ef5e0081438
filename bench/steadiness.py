"""Run-to-run spread of the end-to-end metrics, for choosing bounds.

    python3 bench/steadiness.py

Runs bench/run.py untraced once per seed (seeds 1-10) on each workload
of BENCHMARK.json for its run_seconds, and reports, per metric, the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread: the distance between the quartiles as a share of the median.
It also records how long each run took.  The summary is printed and
written to bench/out/steadiness.json and, as a markdown table, to
bench/out/steadiness.md.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        values = {name: [] for name in bounds}
        run_s = []
        for seed in SEEDS:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            run_s.append(time.perf_counter() - start)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect answers")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        rows = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            rows[name] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median,
                "bound": bounds[name],
                "values": vals,
            }
            print(f"  {name:12s} median {median:.4f} q1 {q1:.4f} q3 {q3:.4f} "
                  f"spread {rows[name]['spread']:.4f} (bound {bounds[name]})", flush=True)
        print(f"  runs took {min(run_s):.1f}-{max(run_s):.1f} s", flush=True)
        summary[workload] = {"metrics": rows, "run_s": run_s}
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(summary, indent=1) + "\n")
    lines = [
        "| workload | metric | median | q1 | q3 | spread | bound |",
        "|---|---|---|---|---|---|---|",
    ]
    for workload, entry in summary.items():
        for name, row in entry["metrics"].items():
            lines.append(
                f"| {workload} | {name} | {row['median']:.4g} | {row['q1']:.4g} | {row['q3']:.4g} "
                f"| {row['spread']:.3f} | {row['bound']} |"
            )
    (out / "steadiness.md").write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
