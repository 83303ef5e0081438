"""Rebuild ``reference.json``: the candidate pools and the expected answer of
every request any seed can draw.

Run from the repository root on the commit whose outputs are the
reference (a few minutes on 2 CPUs):

    python3 bench/make_reference.py

The pools are fixed by structure, not by timing: deep knots by the work
estimate prod|tb| * m^2 (m = linking-matrix size), Floer pairs by the
number of staircase generators.
"""

import json
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import answers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from legknots import diagram, floer  # noqa: E402

DEEP_MAX_Q = 60
DEEP_WORK = (200, 640)  # prod|tb| * m^2: 10 chain shapes, about 0.5-1.7 s of requests per knot
FLOER_MAX_PRODUCT = 2000
FLOER_GENERATORS = (200, 300)  # about 0.05-0.15 s per hfk request


def deep_pool() -> list[list[int]]:
    rows = []
    for q in range(3, DEEP_MAX_Q + 1):
        for p in range(2, q):
            if math.gcd(p, q) != 1:
                continue
            tbs1, tbs2 = diagram.chains_for(p, q)
            prod = math.prod(abs(tb) for tb in tbs1 + tbs2)
            size = len(tbs1) + len(tbs2) + 2
            work = prod * size * size
            if DEEP_WORK[0] <= work <= DEEP_WORK[1]:
                rows.append([p, q, prod, size, work])
    return sorted(rows, key=lambda row: (row[4], row[0], row[1]))


def floer_pool() -> list[list[int]]:
    rows = []
    for q in range(3, FLOER_MAX_PRODUCT // 2 + 1):
        for p in range(2, min(q, FLOER_MAX_PRODUCT // q + 1)):
            if math.gcd(p, q) != 1:
                continue
            generators = len(floer.alexander_exponents(p, q))
            if FLOER_GENERATORS[0] <= generators <= FLOER_GENERATORS[1]:
                rows.append([p, q, generators])
    return sorted(rows, key=lambda row: (row[2], row[0], row[1]))


def main() -> int:
    pools = {"deep-knots": deep_pool(), "floer-large-q": floer_pool()}
    requests = [["check", name] for name in workloads.VERIFY_CHECKS]
    requests += [req for p, q, *_ in pools["deep-knots"] for req in workloads.knot_requests(p, q)]
    requests += [["hfk", str(p), str(q)] for p, q, _ in pools["floer-large-q"]]
    expected = {}
    for i, request in enumerate(requests):
        answer = worker.execute(request)
        if answer.get("exit", 0) != 0:
            raise SystemExit(f"reference request failed: {request}: {answer['stderr']}")
        expected[answers.request_key(request)] = answers.expected_answer(answer)
        if i % 50 == 0:
            print(f"{i}/{len(requests)} {answers.request_key(request)}", file=sys.stderr, flush=True)
    reference = {
        "source": {"git_sha": run.git_sha(ROOT), "src_sha256": run.src_digest(ROOT)},
        "pools": pools,
        "answers": expected,
    }
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"{len(expected)} reference answers", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
