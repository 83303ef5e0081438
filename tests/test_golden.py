"""Pinned outputs: SHA-256 of the CLI's JSON and text stdout, and the public names."""

import hashlib

import pytest

import legknots
from legknots import cli
from legknots.cli import main

JSON_DIGESTS = {
    ("params", "5", "8"): "db30375d31772a50c02bdf29fe466cb41e8ff20310be1c07cece674ed85c5a66",
    # the one ratio with denominator 1: chain 1's coefficient "-2/1"
    ("params", "2", "3"): "adb737e2932e7fcc001973196d3f2201c1b7a5450f09b032edbb2d4981d5e82d",
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
    ("enumerate", "5", "8", "--level", "3"): (
        "948749a65896545826921250e9a54bc7da7c3a6e3841c4357ecbcfffc4fa6a45"
    ),
    ("classify", "5", "8", "--level", "4"): (
        "7ab9d3b9de40238e7e8c0dccaf83578e8c0c3a697a0d94cd508cdcdaaa021b79"
    ),
    # two-digit stabilization counts: '"stab_neg": 10' sorts before '"stab_neg": 9'
    ("classify", "2", "5", "--level", "12"): (
        "e74e69d5f2fb0bf235eaf64f9ef31ed30e74103192e9ab7a578d6ac44e66ed29"
    ),
    # two-digit rotation numbers: T(2, -23) has rot from -10 to 10
    ("classify", "2", "23", "--level", "2"): (
        "1922ebfc7d23a31f809e5baac6b481042bd7e6524e29f45ccd7e316b2c3f181f"
    ),
    ("transverse", "2", "23"): "1271045016a018aa178e380bbc87bac757309fa1f4f8fdfccd7d5bd05a36aab8",
    # the largest staircases: T(97, 103) and T(2, 4999), the pq cap of the Floer layer
    ("hfk", "97", "103"): "364cea17bc9a92da6f54caf73769de1166a0ea8a83910290cd3c3d9ca9773a8c",
    ("hfk", "2", "4999"): "a066bafed91c5b7c373216562028d954126e74a6319f3934b333097bda76860d",
}

TEXT_DIGESTS = {
    ("params", "5", "8"): "b894299e2b465b8c81f1dfd9861f985ccb20c06398a072c955cfe0e36c0d31e7",
    # the text drops that denominator: "coefficient -2"
    ("params", "2", "3"): "8b0f08141e5042b5e8602dc35edd2a302c0c3b07089ef02bf5fdc3e8ed53396c",
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
    ("enumerate", "5", "8", "--level", "3"): (
        "70671900745b3c4e105b46bfe01247deceb84ad9b9baab0c1790c2cbc9ef65ac"
    ),
    ("classify", "5", "8", "--level", "4"): (
        "5fc157b0097bb65d8303e172fd52f5740bfcbe58ea73f87a54c310aa9f642c65"
    ),
    ("classify", "2", "5", "--level", "12"): (
        "16e948ddadd88d1b996f4ac7c64650b69861a6a9d52c2aeac690813a92316561"
    ),
    ("classify", "2", "23", "--level", "2"): (
        "2a97f4370791a475a08ff64b95dc740e7984982b0d498eb89e73d7ac157efd4f"
    ),
    ("transverse", "2", "23"): "64c3bf1d015fd05eb91f23698be483b1be3cf155931970575d3f69024e52d340",
    ("hfk", "97", "103"): "a5af0999ab9d2385a433bbd98491c8b53f54699c182e583512db2d089e981552",
    ("hfk", "2", "4999"): "24e469ad703031f3fe5c34067b5acecddfca943ac3e8d44a9a8d21b1b8ad7653",
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
    "classify_level",
    "complementary_expansions",
    "hfk_minus",
    "match_invariants",
    "neg_cf",
    "presentations_with_invariants",
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
