"""Acceptance gate: the eleven headline criteria, one test per criterion.

Each test prints its own PASS/FAIL line (bypassing capture so the line is
always visible) and then asserts, so a red criterion is both readable in
the log and an honest test failure.  Criteria 01-08, 10 and 11 run their
named check through ``run_check``.  Criterion 09 tests the ambient-tight
classes against the count that Legendrian simplicity predicts; the check
``tight-count-steps`` states a +1 step per level, which is false at
T(3, -5), so it stays red under ``legknots verify`` and is not run here.
"""

from legknots.checks import run_check
from legknots.classify import ambient_tight_class_count, classify_level


def _criterion(capsys, number, name):
    _report(capsys, number, name, *run_check(name))


def _report(capsys, number, name, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {number:02d} [{name}]: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_01_cf_complementarity(capsys):
    """Complementary expansions for all coprime 2 <= p < q <= 200, < 1 s."""
    _criterion(capsys, 1, "cf-complementarity")


def test_criterion_02_tb_contract(capsys):
    """tb == -pq - level for pq <= 120, level <= 5, < 10 s."""
    _criterion(capsys, 2, "tb-contract")


def test_criterion_03_smooth_topology(capsys):
    """|det Q| = 1 and surgered L(pq+1, p^2) up to inversion, pq <= 120."""
    _criterion(capsys, 3, "smooth-topology")


def test_criterion_04_transverse_counts(capsys):
    """n-1 classes for T(2,-(2n-1)) n <= 10 and T(n,-(n+1)) n <= 8; 4 for T(5,-8)."""
    _criterion(capsys, 4, "transverse-counts")


def test_criterion_05_t58_locations(capsys):
    """T(5,-8) classes at (14,0), (4,-6), (-2,-12), (-12,-26) exactly."""
    _criterion(capsys, 5, "t58-locations")


def test_criterion_06_hfk_towers(capsys):
    """Known tower multisets; for q <= 30, d^2 = 0, the homology of the sphere,
    each tower against the homology of the associated graded, the closed-form
    orders and the Euler characteristic; < 30 s."""
    _criterion(capsys, 6, "hfk-towers")


def test_criterion_07_d3_range(capsys):
    """d3 even in (0, (p-1)(q-1)], sharp at all-positive; balanced d3 = 0."""
    _criterion(capsys, 7, "d3-range")


def test_criterion_08_lens_surjectivity(capsys):
    """Reduction image == Honda count for all coprime 2 <= p < q <= 12."""
    _criterion(capsys, 8, "lens-surjectivity")


def _max_tb_rotations(p, q):
    """Rotation numbers of the tb = -pq realizations of T(p, -q) in tight S3.

    Etnyre-Honda's max-tb set, in this package's normalization.
    """
    return {sign * (q - p - 2 * k * p) for k in range(q // p) for sign in (1, -1)}


def _stabilized_rotations(rotations, level):
    """Rotations reached by `level` stabilizations: r - level, r - level + 2, ..., r + level."""
    return {r + shift for r in rotations for shift in range(-level, level + 1, 2)}


def test_criterion_09_tight_count_steps(capsys):
    """Ambient-tight classes of T(2,-3), T(2,-5), T(3,-4), T(3,-5), levels 0..6.

    Negative torus knots are Legendrian simple in tight S3 (Etnyre-Honda,
    Knots and contact geometry I, 2001), so at tb = -pq - l the tight classes
    are one per rotation number in the union of {r - l, r - l + 2, ..., r + l}
    over the max-tb rotations r = +-(q - p - 2kp), 0 <= k < q // p.  The test
    asserts exactly one tight class at each such (tb, rot) and none elsewhere,
    so the count at each level, and hence each step of the count, equals that
    union's.  The step is +1 except at T(3,-5), level 0 -> 1, where the two
    max-tb rotations +-2 sit 4 apart and the count goes 2 -> 4.
    """
    problems = []
    sequences = []
    for p, q in ((2, 3), (2, 5), (3, 4), (3, 5)):
        base = _max_tb_rotations(p, q)
        counts = []
        for level in range(7):
            got = sorted(
                (cls.invariants.tb, cls.invariants.rot)
                for cls in classify_level(p, q, level)
                if cls.verdict == "tight"
            )
            expected = sorted((-p * q - level, r) for r in _stabilized_rotations(base, level))
            if got != expected:
                problems.append(f"T({p}, -{q}) level {level}: (tb, rot) {got} != {expected}")
            count = ambient_tight_class_count(p, q, level)
            if count != len(expected):
                problems.append(f"T({p}, -{q}) level {level}: {count} classes, expected {len(expected)}")
            counts.append(count)
        sequences.append(f"T({p}, -{q}): {','.join(map(str, counts))}")
    detail = "; ".join(problems) if problems else (
        "tight counts match Legendrian simplicity for levels 0..6.  " + "; ".join(sequences)
    )
    _report(capsys, 9, "tight-count-steps", not problems, detail)


def test_criterion_10_bottoms_and_positive_stabs(capsys):
    """Classes land on U-torsion bottoms; a positive stabilization is loose."""
    _criterion(capsys, 10, "bottoms-and-positive-stabs")


def test_criterion_11_randomized_properties(capsys):
    """>= 1000 seeded instances: CF roundtrip, conjugation, d^2 = 0, Euler."""
    _criterion(capsys, 11, "randomized-properties")
