"""Seeded request lists for the three benchmark workloads.

A request is a list of strings.  ``["check", name]`` runs one verification
check through ``checks.run_check``; anything else is CLI argv, sent as
``cli.main(argv + ["--json"])``.  Generation is pure stdlib over the
candidate pools stored in ``reference.json``, so the program under test
sees only the finished requests.
"""

import random

WORKLOADS = ("verify", "deep-knots", "floer-large-q")

# The acceptance suite as it stood when the benchmark was defined, in
# registry order.  A check added later does not join the workload.
VERIFY_CHECKS = (
    "cf-complementarity",
    "tb-contract",
    "smooth-topology",
    "transverse-counts",
    "t58-locations",
    "hfk-towers",
    "d3-range",
    "lens-surjectivity",
    "tight-count-steps",
    "bottoms-and-positive-stabs",
    "randomized-properties",
)
# Checks with a stated time budget, whose detail reports "in X.XXs (budget Ns)".
BUDGETED_CHECKS = ("cf-complementarity", "tb-contract", "hfk-towers")
# Three quick checks, for the smoke runs of the self-tests.
TINY_CHECKS = ("smooth-topology", "transverse-counts", "t58-locations")

FLOER_PAIRS = 100  # one (p, q) per stratum of the pool


def knot_requests(p: int, q: int) -> list[list[str]]:
    """The ten queries each deep knot receives, in order."""
    knot = [str(p), str(q)]
    reqs = [["enumerate", *knot, "--level", str(level)] for level in range(4)]
    reqs += [["classify", *knot, "--level", str(level)] for level in range(1, 5)]
    reqs += [["transverse", *knot], ["match", *knot]]
    return reqs


def _strata(pool, count: int):
    """Split a pool sorted by cost into `count` contiguous, near-equal strata."""
    size, extra = divmod(len(pool), count)
    out, start = [], 0
    for i in range(count):
        end = start + size + (1 if i < extra else 0)
        out.append(pool[start:end])
        start = end
    return out


def _shapes(pool):
    """Group deep knots by chain shape (prod |tb|, matrix size): knots of one
    shape have the same presentation counts and matrix sizes."""
    groups: dict = {}
    for row in pool:
        groups.setdefault((row[2], row[3]), []).append(row)
    return list(groups.values())


def _draw(strata, rng: random.Random):
    """One item from each stratum, in seeded order.

    Drawing per stratum keeps the work of a draw, and the spread of its
    request sizes, nearly the same for every seed, so run-to-run spread
    reflects the program, not the draw.
    """
    picks = [rng.choice(stratum) for stratum in strata]
    rng.shuffle(picks)
    return picks


def make_requests(workload: str, seed: int, pools: dict, tiny: bool = False) -> list[list[str]]:
    """The request list of one round; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify":
        return [["check", name] for name in (TINY_CHECKS if tiny else VERIFY_CHECKS)]
    if workload == "deep-knots":
        # pool rows: [p, q, prod |tb|, matrix size, work estimate], by estimate
        pool = pools["deep-knots"]
        knots = [pool[0]] if tiny else _draw(_shapes(pool), rng)
        return [req for p, q, *_ in knots for req in knot_requests(p, q)]
    if workload == "floer-large-q":
        # pool rows: [p, q, staircase generators], by generator count
        pool = pools["floer-large-q"]
        pairs = pool[:3] if tiny else _draw(_strata(pool, FLOER_PAIRS), rng)
        return [["hfk", str(p), str(q)] for p, q, _ in pairs]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
