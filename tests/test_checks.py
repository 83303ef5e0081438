"""The verify checks can fail: each `return False` runs, with its detail, when
one module-level name the check reads is patched."""

import inspect
import re

import pytest

from legknots import cf, checks, classify, diagram, floer, invariants, lens
from legknots.checks import run_check
from legknots.invariants import ClassicalInvariants
from oracles import coprime_pairs


def _no_involution():
    """Presentation whose conjugate is a positive stabilization, so that
    conjugating twice does not give the presentation back."""

    class Presentation(diagram.Presentation):
        __slots__ = ()

        def conjugate(self):
            return self.stabilize(pos=1)

    return Presentation


@pytest.fixture(autouse=True)
def cold_hfk():
    """hfk_minus with its cache cleared before and after the test's patch."""
    floer.hfk_minus.cache_clear()
    yield
    floer.hfk_minus.cache_clear()


@pytest.mark.parametrize(
    "check, module, name, fake, detail",
    [
        (
            "transverse-counts", classify, "transverse_classes", lambda p, q: (),
            "T(2, -3): 0 transverse classes, expected 1",
        ),
        (
            "t58-locations", classify, "transverse_classes", lambda p, q: (),
            "T(5, -8) locations [] != [(-12, -26), (-2, -12), (4, -6), (14, 0)]",
        ),
        (
            "hfk-towers", floer, "hfk_minus", lambda p, q: floer.GradedModule(()),
            "T(2, 3) torsion orders ()",
        ),
        (
            "bottoms-and-positive-stabs", classify, "positive_stab_looseness", lambda pres: False,
            "positive stabilization stayed non-loose: Presentation(p=2, q=3, rots1=(1,), rots2=(1, 0), "
            "stab_pos=0, stab_neg=0)",
        ),
        (
            "randomized-properties", floer, "squares_to_zero", lambda d: False,
            "d^2 != 0 for T(11, 23)",  # the seeded draw of its first instance
        ),
        (
            "randomized-properties", floer, "euler_characteristic", lambda complex_: {},
            "Euler characteristic mismatch for T(2, 3)",
        ),
        (
            "tb-contract", invariants, "classical_invariants", lambda pres: ClassicalInvariants(0, 0, 0, 0, 0),
            "tb mismatch for T(2, -3) at level 0",
        ),
        (
            "smooth-topology", invariants, "smooth_topology", lambda p, q: (0, 7, (7, 4)),
            "T(2, -3): ambient determinant 0, expected +-1",
        ),
        (
            "smooth-topology", invariants, "smooth_topology", lambda p, q: (1, 5, (7, 4)),
            "T(2, -3): surgered H1 of order 5, expected 7",
        ),
        (
            "smooth-topology", invariants, "smooth_topology", lambda p, q: (-1, 7, (7, 3)),
            "T(2, -3): lens type L(7, 3), expected L(7, 4) up to inversion",
        ),
        (
            "d3-range", invariants, "classical_invariants", lambda pres: ClassicalInvariants(0, 0, 1, 0, 0),
            "balanced presentation of T(2, -3) has d3 != 0",
        ),
        (
            "d3-range", invariants, "classical_invariants", lambda pres: ClassicalInvariants(0, 0, 0, 0, 0),
            "d3 = 0 out of range for T(2, -3) Presentation(p=2, q=3, rots1=(1,), rots2=(1, 0), "
            "stab_pos=0, stab_neg=0)",
        ),
        (
            # a balanced presentation, d3 = 0, in place of the fully positive one
            "d3-range", checks, "_all_fully_positive", lambda p, q: diagram.Presentation(p, q, (1,), (-1, 0)),
            "fully positive presentation of T(2, -3) misses d3 = 2",
        ),
        (
            "lens-surjectivity", lens, "surjectivity_check",
            lambda p, q: (1, []),
            "T(2, -3): image 0 of 1 tight structures on L(7, ...)",
        ),
        (
            "randomized-properties", cf, "_continuant", lambda entries: (0, 0),
            "roundtrip failed for 376/175: (3, 2, 2, 2, 2, 2, 3, 2, 3, 2, 3)",  # the first seeded draw
        ),
        (
            "randomized-properties", diagram, "Presentation", _no_involution(),
            "conjugation is not an involution on Presentation(p=2, q=9, rots1=(-1,), rots2=(1, 3), "
            "stab_pos=2, stab_neg=1)",
        ),
        (
            "randomized-properties", invariants, "classical_invariants",
            lambda pres: ClassicalInvariants(0, 1, 0, 0, 0),
            "conjugation broke (tb, rot, d3) on Presentation(p=2, q=9, rots1=(-1,), rots2=(1, 3), "
            "stab_pos=2, stab_neg=1)",
        ),
        (
            # one continued-fraction roundtrip fewer than the 1000 instances
            "randomized-properties", checks, "_RANDOMIZED_COUNTS", (399, 300, 150, 150),
            "only 999 randomized instances executed",
        ),
    ],
    ids=["transverse-counts", "t58-locations", "hfk-towers", "bottoms-and-positive-stabs",
         "randomized-d-squared", "randomized-euler", "tb-contract", "smooth-topology",
         "smooth-topology-h1", "smooth-topology-lens", "d3-balanced", "d3-out-of-range",
         "d3-bound-missed", "lens-surjectivity",
         "randomized-cf-roundtrip", "randomized-involution", "randomized-conjugation", "randomized-count"],
)
def test_check_returns_false(monkeypatch, check, module, name, fake, detail):
    monkeypatch.setattr(module, name, fake)
    assert run_check(check) == (False, detail)


def test_tight_count_steps_passes_on_plus_one_sequences(monkeypatch):
    monkeypatch.setattr(classify, "ambient_tight_class_count", lambda p, q, level: level + 1)
    assert run_check("tight-count-steps") == (True, (
        "+1 per level for levels 0..6.  T(2, -3): 1,2,3,4,5,6,7; T(2, -5): 1,2,3,4,5,6,7; "
        "T(3, -4): 1,2,3,4,5,6,7; T(3, -5): 1,2,3,4,5,6,7"
    ))
    monkeypatch.undo()
    assert run_check("tight-count-steps")[0] is False  # the real counts step 2 -> 4 at T(3, -5)


# every bound a check passes to _coprime_pairs
BOUNDS = [("max_q", 200), ("max_q", 30), ("max_q", 26), ("max_q", 12), ("max_product", 120), ("max_product", 60)]


def test_bounds_are_the_checks_own():
    used = re.findall(r"_coprime_pairs\((max_q|max_product)=(\d+)\)", inspect.getsource(checks))
    assert {(name, int(value)) for name, value in used} == set(BOUNDS)


@pytest.mark.parametrize("name, value", BOUNDS, ids=[f"{name}={value}" for name, value in BOUNDS])
def test_coprime_pairs_match_brute_force(name, value):
    assert checks._coprime_pairs(**{name: value}) == coprime_pairs(**{name: value})
