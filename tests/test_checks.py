"""The floer-side verify checks can fail: each `return False` runs, with its
detail, when one module-level name the check reads is patched."""

import pytest

from legknots import classify, floer
from legknots.checks import run_check


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
    ],
    ids=["transverse-counts", "t58-locations", "hfk-towers", "bottoms-and-positive-stabs",
         "randomized-d-squared", "randomized-euler"],
)
def test_check_returns_false(monkeypatch, check, module, name, fake, detail):
    monkeypatch.setattr(module, name, fake)
    assert run_check(check) == (False, detail)
