"""What the runtime modules import, and the value types they define.

Every name a runtime module imports is used in that module; the CLI loads
none of dataclasses, fractions, decimal, random and json; every value type
is immutable and slotted.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import legknots
from legknots import cf, classify, diagram, floer, invariants, lens

MODULES = sorted(
    path for path in Path(legknots.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never loaded elsewhere."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in loaded]


def test_finds_an_unused_import():
    source = "import json\nfrom .cf import neg_cf, honda_count\n\nprint(neg_cf(8, 5))\n"
    assert unused_imports(source) == ["json (line 1)", "honda_count (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_cli_import_leaves_out_heavy_stdlib_modules():
    # -S keeps the host's site hooks out of sys.modules
    heavy = {"dataclasses", "fractions", "decimal", "random", "json"}
    script = (
        "import sys; import legknots.cli; legknots.cli.build_parser(); "
        f"print(sorted({heavy!r} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(legknots.__file__).parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


_PRES = diagram.Presentation(2, 3, (1,), (1, 0))
VALUES = [
    (cf.TorusKnotParams, lambda: cf.torus_knot_params(5, 8), "p"),
    (diagram.Presentation, lambda: _PRES, "stab_pos"),
    (invariants.ClassicalInvariants, lambda: invariants.classical_invariants(_PRES), "tb"),
    (classify.EquivClass, lambda: classify.transverse_classes(5, 8)[0], "size"),
    (lens.LensChain, lambda: lens.reduce_to_lens_chain(_PRES), "rots"),
    (floer.StaircaseComplex, lambda: floer.staircase(5, 8), "gaps"),
    (floer.Tower, lambda: floer.hfk_minus(5, 8).towers[0], "order"),
    (floer.GradedModule, lambda: floer.hfk_minus(5, 8), "towers"),
]


@pytest.mark.parametrize("kind,make,field", VALUES, ids=[kind.__name__ for kind, _, _ in VALUES])
def test_value_types_are_immutable_and_slotted(kind, make, field):
    value = make()
    assert type(value) is kind
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    assert not hasattr(value, "__dict__")
