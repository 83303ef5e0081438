"""Pinned outputs: SHA-256 of the CLI's JSON and text stdout, and the public names."""

import hashlib

import pytest

import legknots
from legknots import cli
from legknots.cli import main

JSON_DIGESTS = {
    ("params", "5", "8"): "db30375d31772a50c02bdf29fe466cb41e8ff20310be1c07cece674ed85c5a66",
    ("enumerate", "5", "8", "--level", "1"): (
        "97d6533ed7e228c67087568f60ba54751969b5727719cb4e9ba93f4277eb0ba9"
    ),
    ("classify", "3", "5", "--level", "2"): (
        "e64b56e3dff2e83251b70ab963635dba025f1d09805aae7634b6c953a3454c40"
    ),
    ("transverse", "5", "8"): "95425b5092c8dad310fd834cda84b61f29fb1449bf5bb530338a608f98b6a237",
    ("hfk", "5", "8"): "9cad1cb65ded338a730b8611879e7f988bd1fec9065beaa07e47734074499612",
    ("lens", "3", "4"): "5d4f8f42d4abe9f98d62e45fd272d65b7df7ce8ccf91b537ae9f4456532a832c",
    ("match", "5", "8"): "57853dea61e822b70b3cb7027cb5fa5739bcf76d8ba72104640d08855c7963f0",
    ("cf", "17", "5"): "991282775448a737d3ceaaa58291d0e3459a158fc7fdcf6db9a0a58cf935f4b3",
}

TEXT_DIGESTS = {
    ("params", "5", "8"): "b894299e2b465b8c81f1dfd9861f985ccb20c06398a072c955cfe0e36c0d31e7",
    ("enumerate", "5", "8", "--level", "1"): (
        "2804b0e697fe025f5b50c767d865e6a638337828236dbf211aca10658c5c0e29"
    ),
    ("classify", "3", "5", "--level", "2"): (
        "c0843bf9e184b6ac994eb5edfe90d1545e7ce46624f9986349d76498f76f4bf1"
    ),
    ("transverse", "5", "8"): "9558f6019ca299f80be35cc7f7e433289a847be2f83a11482816fb7e97d02aa2",
    ("hfk", "5", "8"): "d5efeef43543895df2e9b880d0b077339d87364c3159af16c0bbf07fdc496ab3",
    ("lens", "3", "4"): "7dfd60f66227ff431a3d490350d88aa38075d42402e97374847431d05ce79524",
    ("match", "5", "8"): "b9501a566bb54940bd4dc18b4d92625dfa71291b5c9709b0d558de06fcca4681",
    ("cf", "17", "5"): "dec0aed0830b95c05aa563111118e66fa40a5361769880b2a52f5058ca3dfe44",
}

PUBLIC_NAMES = [
    "ClassicalInvariants",
    "EquivClass",
    "GradedModule",
    "Presentation",
    "TorusKnotParams",
    "Tower",
    "VerificationError",
    "chain_tbs",
    "check_names",
    "classical_invariants",
    "classify_level",
    "complementary_expansions",
    "enumerate_presentations",
    "hfk_minus",
    "honda_count",
    "match_invariants",
    "neg_cf",
    "run_all",
    "surjectivity_check",
    "torus_knot_params",
    "transverse_classes",
]


@pytest.mark.parametrize("argv", sorted(JSON_DIGESTS), ids=" ".join)
def test_json_stdout_digest(capsys, argv):
    assert main([*argv, "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == JSON_DIGESTS[argv]


@pytest.mark.parametrize("argv", sorted(TEXT_DIGESTS), ids=" ".join)
def test_text_stdout_digest(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TEXT_DIGESTS[argv]


@pytest.mark.parametrize("argv", sorted(TEXT_DIGESTS), ids=" ".join)
def test_text_report_built_only_when_printed(monkeypatch, argv):
    calls = []
    emit = cli._emit

    def counting_emit(args, payload, report):
        emit(args, payload, lambda: calls.append(argv) or report())

    monkeypatch.setattr(cli, "_emit", counting_emit)
    for flags in (["--json"], ["--quiet"], ["--quiet", "--json"]):
        assert main([*argv, *flags]) == 0
    assert calls == []
    assert main(list(argv)) == 0
    assert calls == [argv]


@pytest.mark.parametrize("argv", sorted(JSON_DIGESTS), ids=" ".join)
def test_out_file_equals_json_stdout(capsys, tmp_path, argv):
    target = tmp_path / "payload.json"
    assert main([*argv, "--json", "--out", str(target)]) == 0
    assert target.read_bytes() == capsys.readouterr().out.encode()


def test_public_names():
    assert sorted(legknots.__all__) == PUBLIC_NAMES
    for name in legknots.__all__:
        assert getattr(legknots, name) is not None
