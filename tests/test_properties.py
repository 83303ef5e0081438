"""Property tests over random valid presentations (pq <= 60, levels 0-3),
and over the exit codes of the knot subcommands."""

import contextlib
import io
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from legknots.cli import main  # noqa: E402
from legknots.diagram import Presentation, chains_for, rotation_range  # noqa: E402
from legknots.invariants import classical_invariants  # noqa: E402

PAIRS = [
    (p, q) for q in range(3, 31) for p in range(2, q) if p * q <= 60 and math.gcd(p, q) == 1
]


@st.composite
def presentations(draw):
    p, q = draw(st.sampled_from(PAIRS))
    level = draw(st.integers(0, 3))
    pos = draw(st.integers(0, level))
    tbs1, tbs2 = chains_for(p, q)
    rots1 = tuple(draw(st.sampled_from(rotation_range(tb))) for tb in tbs1)
    rots2 = tuple(draw(st.sampled_from(rotation_range(tb))) for tb in tbs2)
    return Presentation(p, q, rots1, rots2, pos, level - pos)


@settings(max_examples=200, deadline=None)
@given(presentations())
def test_json_roundtrip(pres):
    assert Presentation.from_json(pres.to_json()) == pres


@settings(max_examples=200, deadline=None)
@given(presentations())
def test_conjugation_symmetry(pres):
    a = classical_invariants(pres)
    b = classical_invariants(pres.conjugate())
    assert (b.tb, b.rot, b.d3) == (a.tb, -a.rot, a.d3)


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
