"""Property tests over random valid presentations (levels 0-3), and over the
exit codes of the knot subcommands."""

import contextlib
import io
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from legknots.cli import main  # noqa: E402
from legknots.diagram import Presentation, chains_for, rotation_range  # noqa: E402
from legknots.invariants import classical_invariants, d3_surgered  # noqa: E402
from oracles import invariants_oracle  # noqa: E402


def _pairs(max_product):
    return [
        (p, q)
        for q in range(3, max_product // 2 + 1)
        for p in range(2, q)
        if p * q <= max_product and math.gcd(p, q) == 1
    ]


@st.composite
def presentations(draw, pairs=_pairs(60)):
    p, q = draw(st.sampled_from(pairs))
    level = draw(st.integers(0, 3))
    pos = draw(st.integers(0, level))
    tbs1, tbs2 = chains_for(p, q)
    rots1 = tuple(draw(st.sampled_from(rotation_range(tb))) for tb in tbs1)
    rots2 = tuple(draw(st.sampled_from(rotation_range(tb))) for tb in tbs2)
    return Presentation(p, q, rots1, rots2, pos, level - pos)


@settings(max_examples=200, deadline=None)
@given(presentations())
def test_conjugation_symmetry(pres):
    a = classical_invariants(pres)
    b = classical_invariants(pres.conjugate())
    assert (b.tb, b.rot, b.d3) == (a.tb, -a.rot, a.d3)


@settings(max_examples=150, deadline=None)
@given(presentations(_pairs(200)))
def test_kernel_matches_fraction_oracle(pres):
    tb, rot, d3, surgered = invariants_oracle(pres)
    inv = classical_invariants(pres)
    assert (inv.tb, inv.rot, inv.d3) == (tb, rot, d3)
    assert d3_surgered(pres) == surgered


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["params", "hfk", "match", "lens"]),
    st.integers(-3, 20),
    st.integers(-3, 20),
)
def test_knot_commands_exit_0_or_2(command, p, q):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(p), str(q)])
    assert code in (0, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
