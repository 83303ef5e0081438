"""Command-line behavior: output shapes, determinism, exit codes."""

import argparse
import itertools
import json
import re
import time
import tracemalloc
from pathlib import Path

import pytest

from legknots import checks, cli
from legknots.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cf_command(capsys):
    code, out, _ = run(capsys, "cf", "8", "5")
    assert code == 0
    assert "[2, 3, 2]" in out


def test_cf_json(capsys):
    code, out, _ = run(capsys, "cf", "8", "5", "--json")
    assert code == 0
    assert json.loads(out) == {"num": 8, "den": 5, "entries": [2, 3, 2]}


def test_params_command(capsys):
    code, out, _ = run(capsys, "params", "5", "8", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["q_prime"] == 5 and data["genus"] == 14
    assert data["chains"][0]["coefficient"] == "-5/2"


def test_enumerate_counts_and_invariants(capsys):
    code, out, _ = run(capsys, "enumerate", "2", "3", "--json")
    data = json.loads(out)
    assert code == 0
    assert len(data["presentations"]) == 4
    for item in data["presentations"]:
        assert item["invariants"]["tb"] == -6
        assert set(item["invariants"]) == {"tb", "rot", "d3", "A", "M"}


def test_enumerate_json_roundtrip(capsys):
    code, out, _ = run(capsys, "enumerate", "5", "8", "--level", "1", "--json")
    assert code == 0
    # the record of Presentation(5, 8, (-2, 0), (1, -1, 0), 1, 0)
    (data,) = [
        record for record in (item["presentation"] for item in json.loads(out)["presentations"])
        if [chain["rot"] for chain in record["chains"]] == [[-2, 0], [1, -1, 0]] and record["stab_pos"] == 1
    ]
    assert data["chains"][0] == {"tb": [-3, -1], "rot": [-2, 0]}


def test_classify_command(capsys):
    code, out, _ = run(capsys, "classify", "2", "3", "--level", "1", "--json")
    data = json.loads(out)
    assert code == 0
    assert sum(cls["size"] for cls in data["classes"]) == 8
    flags = data["classes"][0]["flags"]
    assert set(flags) == {"tight_ambient", "loose", "strongly_nonloose", "transverse"}


def test_transverse_command(capsys):
    code, out, _ = run(capsys, "transverse", "5", "8", "--json")
    data = json.loads(out)
    assert code == 0
    got = {(cls["invariants"]["A"], cls["invariants"]["M"]) for cls in data["classes"]}
    assert got == {(14, 0), (4, -6), (-2, -12), (-12, -26)}


def test_transverse_table_shows_bigradings(capsys):
    code, out, _ = run(capsys, "transverse", "5", "8")
    assert code == 0
    assert "(A, M) = (14, 0)" in out


def test_hfk_command(capsys):
    code, out, _ = run(capsys, "hfk", "3", "4", "--json")
    data = json.loads(out)
    assert code == 0
    orders = sorted((t["order"] for t in data["towers"]), key=lambda o: (o is None, o))
    assert orders == [1, 2, None]


def test_hfk_table_renders_towers(capsys):
    code, out, _ = run(capsys, "hfk", "2", "3")
    assert code == 0
    assert "F[U]/U^1" in out and "F[U] tower" in out


def test_match_command(capsys):
    code, out, _ = run(capsys, "match", "5", "8", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["transverse_count"] == 4 and data["bottom_count"] == 9


def test_lens_command(capsys):
    code, out, _ = run(capsys, "lens", "2", "3", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["honda_count"] == data["image_size"] == 3


def test_verify_single_check(capsys):
    code, out, _ = run(capsys, "verify", "--only", "cf-complementarity")
    assert code == 0
    assert out.startswith("[PASS] cf-complementarity")
    assert "1/1 checks passed" in out


def test_verify_reports_failures_with_exit_1(capsys):
    code, out, _ = run(capsys, "verify", "--only", "tight-count-steps")
    assert code == 1
    assert out.startswith("[FAIL] tight-count-steps")


def test_output_is_byte_stable(capsys):
    _, first, _ = run(capsys, "classify", "3", "4", "--level", "2", "--json")
    _, second, _ = run(capsys, "classify", "3", "4", "--level", "2", "--json")
    assert first == second


def test_out_writes_json_payload(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "lens", "2", "5", "--out", str(target), "--quiet")
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["ok"]


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["explode"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["cf", "8"])
    assert exc.value.code == 2


def test_unknown_only_name_exits_2_through_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--only", "no-such-check"])
    assert exc.value.code == 2
    assert "invalid choice: 'no-such-check'" in capsys.readouterr().err


@pytest.mark.parametrize("runner", [checks.run_check, lambda name: checks.run_all([name])])
def test_unknown_check_name_raises_key_error(runner):
    with pytest.raises(KeyError, match="no-such-check"):
        runner("no-such-check")


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == "legknots 0.1.0\n"


def test_version_is_stated_once():
    # pip metadata takes the version from legknots.__version__, which --version prints
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    tables = dict(block.partition("\n")[::2] for block in re.split(r"^(?=\[)", text, flags=re.M))
    assert not re.search(r"^version\s*=", tables["[project]"], re.M)
    assert re.search(r'^dynamic = \["version"\]$', tables["[project]"], re.M)
    assert re.search(
        r'^version = \{attr = "legknots\.__version__"\}$', tables["[tool.setuptools.dynamic]"], re.M
    )


def test_value_errors_exit_2(capsys):
    code, _, err = run(capsys, "cf", "8", "6")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "params", "4", "6")
    assert code == 2


def test_verification_failures_exit_1(capsys):
    # classify at a level is fine, but verify on the known open step fails
    code, _, _ = run(capsys, "verify", "--only", "tight-count-steps", "--quiet")
    assert code == 1


def test_lens_not_surjective_exits_1(capsys, monkeypatch):
    # the report is printed first, then the failure goes to stderr
    count, fibers = cli.surjectivity_check(2, 3)
    monkeypatch.setattr(cli, "surjectivity_check", lambda p, q: (count + 1, fibers))
    code, out, err = run(capsys, "lens", "2", "3")
    assert code == 1
    assert out == "L(7, 4): Honda count 4, image size 3 -> NOT surjective\nfiber sizes: 1,2,1\n"
    assert err == "verification failed: lens reduction not surjective for T(2, -3)\n"


@pytest.mark.parametrize("command", ["enumerate", "classify"])
def test_negative_level_exits_2(capsys, command):
    code, out, err = run(capsys, command, "2", "3", "--level", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_overlong_cf_exits_2(capsys):
    # 10^8/(10^8 - 1) has 10^8 - 1 entries; the expansion stops at cf.MAX_ENTRIES
    code, out, err = run(capsys, "cf", "100000000", "99999999")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_overlong_cf_builds_no_run_of_twos(capsys):
    # the run of 10^8 - 1 twos is refused before it is built: no 800 MB list
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = main(["cf", "100000000", "99999999"])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and capsys.readouterr().out == ""
    assert elapsed < 1 and peak < 2**20


@pytest.mark.parametrize("command", ["enumerate", "classify"])
def test_oversized_level_exits_2(capsys, command):
    code, out, err = run(capsys, command, "2", "3", "--level", "100000000")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("hfk", "2", "4"),  # not coprime
        ("hfk", "3", "9"),
        ("hfk", "2", "100001"),  # pq above floer.MAX_PQ, refused before any work
        ("match", "2", "100001"),
    ],
)
def test_bad_floer_pairs_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["enumerate", "classify", "transverse", "lens"])
def test_long_chains_exit_2_at_once(capsys, command):
    # T(499, -500) has 502 surgery curves, refused before the cubic kernel
    start = time.perf_counter()
    code, out, err = run(capsys, command, "499", "500")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "502 surgery curves" in err and err.count("\n") == 1


def test_longest_admitted_chain_answers(capsys):
    # T(61, -62) has diagram.MAX_CURVES = 64 surgery curves and n - 1 = 60 transverse classes
    code, out, _ = run(capsys, "transverse", "61", "62", "--json")
    assert code == 0 and len(json.loads(out)["classes"]) == 60


def test_unwritable_out_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "cf", "8", "5", "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_crashing_check_is_one_fail_line(capsys, monkeypatch):
    def crash():
        raise RuntimeError("boom")

    # Every other check is stubbed, without a budget, so that the test
    # measures the runner only.
    stubbed = {
        name: (crash if name == "t58-locations" else (lambda name=name: (True, name)), None)
        for name in checks.CHECKS
    }
    monkeypatch.setattr(checks, "CHECKS", stubbed)
    results = checks.run_all()
    assert [name for name, _, _ in results] == list(stubbed)
    for name, ok, detail in results:
        if name == "t58-locations":
            assert (ok, detail) == (False, "RuntimeError: boom")
        else:
            assert (ok, detail) == (True, name)
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert "[FAIL] t58-locations - RuntimeError: boom" in out
    assert f"{len(stubbed) - 1}/{len(stubbed)} checks passed" in out


@pytest.mark.parametrize("name,budget", [("cf-complementarity", 1), ("tb-contract", 10), ("hfk-towers", 30)])
def test_check_past_its_budget_fails(monkeypatch, name, budget):
    ticks = itertools.count(0, budget)  # each clock read is one full budget later
    monkeypatch.setattr(checks, "_clock", lambda: next(ticks))
    ok, detail = checks.run_check(name)
    assert ok is False
    assert detail.endswith(f"(budget {budget}s)")


def test_verify_text_report_unchanged_by_out(capsys, tmp_path):
    target = tmp_path / "v.json"
    _, plain, _ = run(capsys, "verify", "--only", "smooth-topology")
    code, mirrored, _ = run(capsys, "verify", "--only", "smooth-topology", "--out", str(target))
    assert code == 0 and mirrored == plain
    assert mirrored.startswith("[PASS] smooth-topology")
    assert [entry["name"] for entry in json.loads(target.read_text())] == ["smooth-topology"]


@pytest.mark.parametrize("mode", [[], ["--quiet"]])
def test_json_is_not_rendered_when_unused(capsys, monkeypatch, mode):
    def refuse(*_):
        raise AssertionError("JSON rendered but not used")

    monkeypatch.setattr(cli, "_render", refuse)
    monkeypatch.setattr(cli, "_tower_json", refuse)  # hfk's template, outside _render
    monkeypatch.setattr(cli, "_records", refuse)  # the records are built only for the JSON
    for command in (
        ("enumerate", "5", "8", "--level", "2"), ("classify", "3", "5", "--level", "2"),
        ("transverse", "5", "8"), ("hfk", "5", "8"), ("match", "5", "8"), ("lens", "3", "4"),
        ("params", "5", "8"), ("cf", "17", "5"), ("verify", "--only", "t58-locations"),
    ):
        code, out, _ = run(capsys, *command, *mode)
        assert code == 0, command
        assert (out == "") == bool(mode), command


# keys of the match, lens and params payloads: the math layers return plain values
_PAYLOAD_KEYS = ("transverse_count", "bottom_count", "unrealized", "honda_count", "image_size", "fibers",
                 "seifert_constants")


def test_payload_keys_live_in_cli_alone():
    package = Path(cli.__file__).parent
    for path in sorted(package.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        quoted = [key for key in _PAYLOAD_KEYS if f'"{key}"' in text or f"'{key}'" in text]
        assert quoted == (list(_PAYLOAD_KEYS) if path.name == "cli.py" else []), path.name


def test_parser_reuse_keeps_no_state(capsys):
    """The parser is built once; parse results must not leak between calls."""
    for check in ("smooth-topology", "t58-locations"):
        code, out, _ = run(capsys, "verify", "--only", check, "--json")
        assert code == 0
        assert [entry["name"] for entry in json.loads(out)] == [check]
    run(capsys, "classify", "3", "5", "--level", "3", "--json")
    _, out, _ = run(capsys, "classify", "3", "5", "--json")
    assert json.loads(out)["level"] == 1
    _, before, _ = run(capsys, "enumerate", "2", "3", "--level", "1", "--json")
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "2", "--level", "2"])
    assert exc.value.code == 2
    capsys.readouterr()
    _, after, _ = run(capsys, "enumerate", "2", "3", "--level", "1", "--json")
    assert after == before


USAGES = {
    None: (
        "usage: legknots [-h] [--version]\n"
        "                {cf,params,enumerate,classify,transverse,hfk,match,lens,verify}\n"
        "                ...\n"
    ),
    "cf": "usage: legknots cf [-h] [--json] [--out FILE] [--quiet] num den\n",
    "params": "usage: legknots params [-h] [--json] [--out FILE] [--quiet] p q\n",
    "enumerate": (
        "usage: legknots enumerate [-h] [--json] [--out FILE] [--quiet] [--level LEVEL]\n"
        "                          p q\n"
    ),
    "classify": (
        "usage: legknots classify [-h] [--json] [--out FILE] [--quiet] [--level LEVEL]\n"
        "                         p q\n"
    ),
    "transverse": "usage: legknots transverse [-h] [--json] [--out FILE] [--quiet] p q\n",
    "hfk": "usage: legknots hfk [-h] [--json] [--out FILE] [--quiet] p q\n",
    "match": "usage: legknots match [-h] [--json] [--out FILE] [--quiet] p q\n",
    "lens": "usage: legknots lens [-h] [--json] [--out FILE] [--quiet] p q\n",
    "verify": "usage: legknots verify [-h] [--json] [--out FILE] [--quiet] [--only CHECK]\n",
}


def test_parser_usages_are_pinned(monkeypatch):
    """Every subcommand keeps its operands and flags, in order.  The words are
    compared, not the lines: 3.13's argparse wraps the top-level usage
    differently, keeping "..." on the line of the subcommand names."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
    parser = cli.build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == [name for name in USAGES if name]
    assert parser.format_usage().split() == USAGES[None].split()
    for name, command in sub.choices.items():
        assert command.format_usage().split() == USAGES[name].split()
