"""Verification suite: every promise the package makes, as a named check.

Each check returns (ok, detail).  The CHECKS registry fixes the order and
holds each check's time budget; the ``legknots verify`` command and the
acceptance tests both run it through ``run_check``, which times every check
and fails a budgeted one that passes only after its budget.
"""

import math
import time

from . import cf, classify, diagram, floer, invariants, lens

# Budgets are charged in CPU time of the calling thread.  The checks are
# single-threaded pure compute, so on an idle machine this equals wall time;
# on a loaded one it leaves out the time spent waiting for a CPU, and a
# budget measures the check's own work rather than the load of the host.
_clock = time.thread_time


def _coprime_pairs(max_q: int | None = None, max_product: int | None = None):
    """All (p, q) with 2 <= p < q, gcd 1, under the given bounds."""
    if max_q is None:
        max_q = max_product // 2
    pairs = []
    for q in range(3, max_q + 1):
        top = q if max_product is None else min(q, max_product // q + 1)  # p * q <= max_product
        pairs += [(p, q) for p in range(2, top) if math.gcd(p, q) == 1]
    return pairs


def _all_fully_positive(p: int, q: int) -> diagram.Presentation:
    tbs1, tbs2 = diagram.chains_for(p, q)
    return diagram.Presentation(
        p, q, tuple(-tb - 1 for tb in tbs1), tuple(-tb - 1 for tb in tbs2)
    )


# ---- the checks


def check_cf_complementarity():
    """Complementary expansions exist and balance on every pair up to 200."""
    pairs = _coprime_pairs(max_q=200)
    params, expand = cf.torus_knot_params, cf.complementary_expansions
    for p, q in pairs:
        expand(params(p, q))
    return True, f"{len(pairs)} coprime pairs with q <= 200 expanded and balanced"


def check_tb_contract():
    """tb == -pq - level for pq <= 120 and level <= 5.

    The determinant ratio in the tb formula never reads the rotation
    numbers, so three sampled presentations per (pair, level) cover all:
    the first, middle and last, found through the rotation vectors.
    """
    pairs = _coprime_pairs(max_product=120)
    checked = 0
    for p, q in pairs:
        # the same vectors at every level; the count grows with the level and
        # its limit does not, so admitting level 5 admits levels 0-4
        vectors = list(diagram.rotation_vectors(p, q, 5))
        for level in range(6):
            count = len(vectors) * (level + 1)
            for idx in sorted({0, count // 2, count - 1}):
                pos = idx % (level + 1)
                pres = diagram.Presentation(p, q, *vectors[idx // (level + 1)], pos, level - pos)
                if invariants.classical_invariants(pres).tb != -p * q - level:
                    return False, f"tb mismatch for T({p}, -{q}) at level {level}"
                checked += 1
    return True, (
        f"tb == -pq - level on {checked} sampled presentations across "
        f"{len(pairs)} pairs (pq <= 120, level <= 5)"
    )


def check_smooth_topology():
    """Diagrams present S3; level-0 surgeries give L(pq+1, p^2) up to inversion."""
    pairs = _coprime_pairs(max_product=120)
    for p, q in pairs:
        det, h1, (num, den) = invariants.smooth_topology(p, q)
        u = p * q + 1
        v = p * p % u
        if abs(det) != 1:
            return False, f"T({p}, -{q}): ambient determinant {det}, expected +-1"
        if h1 != u:
            return False, f"T({p}, -{q}): surgered H1 of order {h1}, expected {u}"
        if num != u or den not in (v, pow(v, -1, u)):
            return False, f"T({p}, -{q}): lens type L({num}, {den}), expected L({u}, {v}) up to inversion"
    return True, f"ambient determinant, surgered H1 and lens type verified on {len(pairs)} pairs (pq <= 120)"


# The paper's families: each one's transverse-counts detail, then its knots
# as (p, q, transverse classes, torsion orders of HFK-minus).
_FAMILIES = (
    ("T(2, -(2n-1)) = n-1 for n = 2..10", tuple((2, 2 * n - 1, n - 1, (1,) * (n - 1)) for n in range(2, 11))),
    ("T(n, -(n+1)) = n-1 for n = 2..8", tuple((n, n + 1, n - 1, tuple(range(1, n))) for n in range(2, 9))),
    ("T(5, -8) = 4", ((5, 8, 4, (1, 1, 1, 1, 1, 1, 2, 2, 4)),)),
)


def check_transverse_counts():
    """Strongly non-loose transverse counts across the two families and T(5, -8)."""
    for _, knots in _FAMILIES:
        for p, q, count, _ in knots:
            got = len(classify.transverse_classes(p, q))
            if got != count:
                return False, f"T({p}, -{q}): {got} transverse classes, expected {count}"
    return True, "; ".join(line for line, _ in _FAMILIES)


def check_t58_locations():
    """The four T(5, -8) transverse classes sit at the stated (A, M) spots."""
    expected = {(14, 0), (4, -6), (-2, -12), (-12, -26)}
    got = {
        (c.invariants.alexander, c.invariants.maslov)
        for c in classify.transverse_classes(5, 8)
    }
    if got != expected:
        return False, f"T(5, -8) locations {sorted(got)} != {sorted(expected)}"
    return True, f"T(5, -8) classes at {sorted(expected, reverse=True)}"


def check_hfk_towers():
    """Tower orders: known shapes on families, and the checks inside hfk_minus
    on every pair with q <= 30.  The detail keeps the words "three-way
    agreement", which the stored answers in bench/reference.json compare."""
    for _, knots in _FAMILIES:
        for p, q, _, orders in knots:
            got = floer.hfk_minus(p, q).finite_orders()
            if got != orders:
                return False, f"T({p}, {q}) torsion orders {got}"
    pairs = _coprime_pairs(max_q=30)
    for p, q in pairs:
        floer.hfk_minus(p, q)  # raises unless the towers match d and the closed form
    return True, f"family shapes and three-way torsion agreement on {len(pairs)} pairs (q <= 30)"


def check_d3_range():
    """d3 of nonzero-invariant presentations: even, in (0, (p-1)(q-1)], sharp."""
    pairs = _coprime_pairs(max_product=120)
    nonvanishing = 0
    for p, q in pairs:
        bound = (p - 1) * (q - 1)
        for pres in diagram.enumerate_presentations(p, q, 0):
            if diagram.is_ambient_tight(pres):
                if invariants.classical_invariants(pres).d3 != 0:
                    return False, f"balanced presentation of T({p}, -{q}) has d3 != 0"
            if not diagram.nonvanishing_condition(pres):
                continue
            nonvanishing += 1
            d3 = invariants.classical_invariants(pres).d3
            if d3 % 2 != 0 or not 0 < d3 <= bound:
                return False, f"d3 = {d3} out of range for T({p}, -{q}) {pres}"
        if invariants.classical_invariants(_all_fully_positive(p, q)).d3 != bound:
            return False, f"fully positive presentation of T({p}, -{q}) misses d3 = {bound}"
    return True, (
        f"d3 even and in (0, (p-1)(q-1)] on {nonvanishing} nonzero-invariant "
        f"presentations over {len(pairs)} pairs; bound attained; balanced d3 = 0"
    )


def check_lens_surjectivity():
    """The lens-chain reduction hits every Honda tight structure (q <= 12)."""
    pairs = _coprime_pairs(max_q=12)
    total = 0
    for p, q in pairs:
        count, fibers = lens.surjectivity_check(p, q)
        if len(fibers) != count:
            return False, (
                f"T({p}, -{q}): image {len(fibers)} of {count} tight structures on L({p * q + 1}, ...)"
            )
        total += count
    return True, f"image size == Honda count on {len(pairs)} pairs (q <= 12), {total} structures hit"


def check_tight_count_steps():
    """Ambient-tight class count grows by exactly 1 per stabilization level.

    Known false at T(3, -5): its max-tb rotations +-2 sit 4 apart, so one
    stabilization gives {-3, -1, 1, 3} and the count goes 2 -> 4, as
    Legendrian simplicity (Etnyre-Honda) predicts.  Kept as stated, and red.
    """
    knots = ((2, 3), (2, 5), (3, 4), (3, 5))
    sequences = {}
    for p, q in knots:
        sequences[(p, q)] = [classify.ambient_tight_class_count(p, q, lv) for lv in range(7)]
    shown = "; ".join(
        f"T({p}, -{q}): {','.join(map(str, seq))}" for (p, q), seq in sequences.items()
    )
    for (p, q), seq in sequences.items():
        for lv in range(6):
            if seq[lv + 1] - seq[lv] != 1:
                return False, (
                    f"T({p}, -{q}) tight-class counts step {seq[lv]} -> {seq[lv + 1]} "
                    f"at level {lv} -> {lv + 1} (expected +1).  All sequences: {shown}"
                )
    return True, f"+1 per level for levels 0..6.  {shown}"


def check_bottoms_and_positive_stabs():
    """Transverse classes sit at torsion-tower bottoms; one positive
    stabilization always goes loose (pq <= 60)."""
    pairs = _coprime_pairs(max_product=60)
    located = 0
    stabilized = 0
    for p, q in pairs:
        realized, _ = floer.match_invariants(p, q)  # raises if a class misses a bottom
        located += len(realized)
        for pres in diagram.enumerate_presentations(p, q, 0):
            if not diagram.nonvanishing_condition(pres):
                continue
            if not classify.positive_stab_looseness(pres):
                return False, f"positive stabilization stayed non-loose: {pres}"
            stabilized += 1
    return True, (
        f"{located} transverse classes located at tower bottoms over {len(pairs)} pairs; "
        f"{stabilized} positive stabilizations all loose"
    )


_RANDOMIZED_COUNTS = (400, 300, 150, 150)  # instances of the four families, in run order


def check_randomized_properties():
    """Seeded randomized suites: >= 1000 instances, four property families."""
    import random  # the only user, kept off the CLI's import path

    rng = random.Random(20260814)
    roundtrips, conjugations, squares, eulers = _RANDOMIZED_COUNTS
    executed = 0

    for _ in range(roundtrips):  # continued-fraction roundtrips
        num = rng.randint(3, 1000)
        den = rng.randint(2, num - 1)
        g = math.gcd(num, den)
        num, den = num // g, den // g
        if den == 1 and num > 2:
            den = num - 1
        entries = cf.neg_cf(num, den)
        if cf._continuant(entries) != (num, den):
            return False, f"roundtrip failed for {num}/{den}: {entries}"
        executed += 1

    pool = _coprime_pairs(max_product=60)
    for _ in range(conjugations):  # conjugation symmetry of the invariants
        p, q = rng.choice(pool)
        level = rng.randint(0, 3)
        pos = rng.randint(0, level)
        tbs1, tbs2 = diagram.chains_for(p, q)
        pres = diagram.Presentation(
            p,
            q,
            tuple(rng.choice(diagram.rotation_range(tb)) for tb in tbs1),
            tuple(rng.choice(diagram.rotation_range(tb)) for tb in tbs2),
            pos,
            level - pos,
        )
        conj = pres.conjugate()
        if conj.conjugate() != pres:
            return False, f"conjugation is not an involution on {pres}"
        a = invariants.classical_invariants(pres)
        b = invariants.classical_invariants(conj)
        if (a.tb, -a.rot, a.d3) != (b.tb, b.rot, b.d3):
            return False, f"conjugation broke (tb, rot, d3) on {pres}"
        executed += 1

    small = _coprime_pairs(max_q=26)
    for _ in range(squares):  # the staircase differential squares to zero
        p, q = rng.choice(small)
        if not floer.squares_to_zero(floer.differential(floer.staircase(p, q))):
            return False, f"d^2 != 0 for T({p}, {q})"
        executed += 1

    for _ in range(eulers):  # Euler characteristic against the Alexander polynomial
        p, q = rng.choice(small)
        exps = floer.alexander_exponents(p, q)
        expected = {e: (1 if i % 2 == 0 else -1) for i, e in enumerate(exps)}
        if floer.euler_characteristic(floer.staircase(p, q)) != expected:
            return False, f"Euler characteristic mismatch for T({p}, {q})"
        executed += 1

    if executed < 1000:
        return False, f"only {executed} randomized instances executed"
    return True, f"{executed} seeded randomized instances across 4 property families"


# ---- registry


# name -> (check, time budget in seconds or None), in run order.
CHECKS = {
    "cf-complementarity": (check_cf_complementarity, 1),
    "tb-contract": (check_tb_contract, 10),
    "smooth-topology": (check_smooth_topology, None),
    "transverse-counts": (check_transverse_counts, None),
    "t58-locations": (check_t58_locations, None),
    "hfk-towers": (check_hfk_towers, 30),
    "d3-range": (check_d3_range, None),
    "lens-surjectivity": (check_lens_surjectivity, None),
    "tight-count-steps": (check_tight_count_steps, None),
    "bottoms-and-positive-stabs": (check_bottoms_and_positive_stabs, None),
    "randomized-properties": (check_randomized_properties, None),
}


def check_names() -> tuple[str, ...]:
    return tuple(CHECKS)


def run_check(name: str) -> tuple[bool, str]:
    """Run one registered check; any exception it raises counts as its failure,
    so that one crashing check cannot end a run of the others.  A budgeted
    check that passes is failed past its budget, and its detail gains the
    elapsed time."""
    if name not in CHECKS:
        raise KeyError(f"unknown check {name!r}; known: {', '.join(CHECKS)}")
    check, budget = CHECKS[name]
    start = _clock()
    try:
        ok, detail = check()
    except Exception as exc:
        return False, f"{type(exc).__name__}: {exc}"
    if not ok or budget is None:
        return ok, detail
    elapsed = _clock() - start
    return elapsed < budget, f"{detail} in {elapsed:.2f}s (budget {budget}s)"


def run_all(names=None) -> list[tuple[str, bool, str]]:
    return [(name, *run_check(name)) for name in names or CHECKS]
