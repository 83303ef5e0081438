"""Property tests over random valid presentations (levels 0-3), over the
exit codes of the knot subcommands, and of the CLI's JSON renderer, hfk's
tower template and the presentation and class records against json.dumps."""

import contextlib
import io
import json
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from legknots import cli  # noqa: E402
from legknots.cli import _render, main  # noqa: E402
from legknots.diagram import Presentation, chains_for, rotation_range  # noqa: E402
from legknots.floer import GradedModule, Tower  # noqa: E402
from legknots.classify import classify_level, transverse_classes  # noqa: E402
from legknots.invariants import classical_invariants, d3_surgered, presentations_with_invariants  # noqa: E402
from oracles import (  # noqa: E402
    class_dict,
    coprime_pairs,
    invariants_dict,
    invariants_oracle,
    presentation_dict,
)


@st.composite
def presentations(draw, pairs=coprime_pairs(60)):
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
@given(presentations(coprime_pairs(200)))
def test_kernel_matches_fraction_oracle(pres):
    tb, rot, d3, surgered = invariants_oracle(pres)
    inv = classical_invariants(pres)
    assert (inv.tb, inv.rot, inv.d3) == (tb, rot, d3)
    assert d3_surgered(classical_invariants(pres)) == 4 * (tb - 1) * surgered


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


_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**80), 2**80)
    | st.text(st.characters(codec="utf-8"))
)
_json_payloads = st.recursive(
    _json_scalars,
    lambda children: st.lists(children, max_size=10)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(st.characters(codec="utf-8"), max_size=6), children, max_size=4),
    max_leaves=30,
)


@settings(max_examples=100, deadline=None)
@given(_json_payloads)
@example([[], {}, (), {"": None}])
@example([-(2**70)])
@example({"\x00\u00e9\n": "\x1f\U0001f600"})
def test_render_matches_json_dumps(payload):
    expected = json.dumps(payload, indent=2, sort_keys=True)
    assert _render(payload) == expected


def test_render_refuses_unsupported_types():
    for value in ({1, 2}, Fraction(1, 2), 1.5):
        with pytest.raises(TypeError):
            _render({"members": value})


_towers = st.lists(
    st.builds(
        Tower,
        st.none() | st.integers(1, 10**6),
        st.integers(-(10**6), 10**6),
        st.integers(-(10**6), 10**6),
    ),
    max_size=8,
).map(tuple)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 10**4), st.integers(3, 10**4), _towers)
@example(2, 3, ())
@example(2, 3, (Tower(1, 1, 0), Tower(None, -1, -2)))
def test_hfk_text_matches_json_dumps(p, q, towers):
    """hfk renders its towers from a template, outside _render, into the
    bytes json.dumps gives for the payload of one dict per tower."""
    expected = json.dumps(
        {
            "p": p,
            "q": q,
            "towers": [
                {"order": t.order, "bottom_A": t.bottom_alexander, "bottom_M": t.bottom_maslov}
                for t in towers
            ],
        },
        indent=2,
        sort_keys=True,
    )
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out):
        patch.setattr(cli, "hfk_minus", lambda p, q: GradedModule(towers))
        assert main(["hfk", str(p), str(q), "--json"]) == 0
    assert out.getvalue() == expected + "\n"


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(coprime_pairs(60)), st.integers(0, 2))
@example((2, 3), 0)
@example((5, 8), 2)
def test_records_match_json_dumps(pair, level):
    """cli builds the presentation and class records itself; their text is
    json.dumps of the record structure stated in the oracles."""
    p, q = pair
    knot = [str(p), str(q)]
    expected = {
        "enumerate": {"p": p, "q": q, "level": level, "presentations": [
            {"presentation": presentation_dict(pres), "invariants": invariants_dict(inv)}
            for pres, inv in presentations_with_invariants(p, q, level)
        ]},
        "classify": {"p": p, "q": q, "level": level,
                     "classes": [class_dict(cls) for cls in classify_level(p, q, level)]},
        "transverse": {"p": p, "q": q, "classes": [class_dict(cls) for cls in transverse_classes(p, q)]},
    }
    for command, payload in expected.items():
        argv = [command, *knot, "--json"] + (["--level", str(level)] if command != "transverse" else [])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        assert out.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n"
