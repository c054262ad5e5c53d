"""Command-line behavior: exit codes, golden reports, round-trips."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lunadata.cli import (
    COMMANDS,
    ParseError,
    datum_document,
    emit_vector,
    parse_datum,
    parse_group,
    parse_rational,
    parse_vector,
    run,
)
from lunadata.luna_core import luna_datum
from lunadata.root_datum import build_root_datum

from conftest import FIXTURE_NAMES, fixture_path

GOLDEN_DIR = Path(__file__).parent / "golden"


def invoke(capsys, *argv):
    code = run([str(a) for a in argv])
    return code, capsys.readouterr().out


def report_without_path(text: str):
    report = json.loads(text)
    assert "input" not in report or report["input"].pop("path")
    return report


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_preset_resolution():
    assert parse_group("Spin7") == build_root_datum([("B", 3, "simply_connected")])
    assert parse_group("PGL2xPGL2") == build_root_datum(
        [("A", 1, "adjoint"), ("A", 1, "adjoint")])
    assert parse_group({"factors": [["A", 2, "adjoint"]], "torus_rank": 1}) \
        == build_root_datum([("A", 2, "adjoint")], 1)


def test_group_document_round_trip_for_factor_groups():
    from lunadata.cli import group_document

    group = build_root_datum(
        [("B", 2, "simply_connected"), ("A", 1, "adjoint")], torus_rank=1)
    assert parse_group(group_document(group)) == group
    assert group_document(parse_group("Spin7")) == "Spin7"


def test_vector_named_and_dense_forms():
    group = parse_group("Spin5")
    named = parse_vector(group, {"a1": 1, "a2": 2})
    dense = parse_vector(group, [1, 2])
    assert named == dense
    back = emit_vector(group, named)
    assert back == {"a1": 1, "a2": 2}
    half = parse_vector(parse_group("SL2xSL2"), {"a1": "1/2", "a2": "1/2"})
    assert half == (1, 1)


def test_vector_rejects_non_characters():
    group = parse_group("PGL2xPGL2")
    with pytest.raises(Exception):
        parse_vector(group, {"a1": "1/2", "a2": "1/2"})
    with pytest.raises(Exception):
        parse_vector(group, {"b9": 1})


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_documents_round_trip(name):
    with fixture_path(name).open("rb") as handle:
        document = json.load(handle)
    _, datum = parse_datum(document)
    canonical = datum_document(datum)
    once = json.dumps(canonical, indent=2)
    _, reparsed = parse_datum(json.loads(once))
    twice = json.dumps(datum_document(reparsed), indent=2)
    assert once == twice  # canonical form is a fixed point, byte for byte


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_validate_exit_codes(capsys, tmp_path):
    code, out = invoke(capsys, "validate", fixture_path("spin7_ex51"))
    assert code == 0
    assert json.loads(out)["result"]["valid"] is True
    # an axiom violation is a well-formed negative: exit 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "group": "Spin5",
        "M": [{"a1": 1}, {"a2": 1}],
        "Sigma": [{"a1": 1}],
        "Sp": [],
        "Da": [],
    }))
    code, out = invoke(capsys, "validate", bad)
    assert code == 1
    payload = json.loads(out)["result"]
    assert payload["valid"] is False and payload["violations"]


def test_parse_error_exit_code(capsys, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run(["validate", str(broken)]) == 2
    capsys.readouterr()
    short_rho = tmp_path / "short.json"
    short_rho.write_text(json.dumps({
        "group": "Spin5",
        "M": [{"a1": 1}, {"a2": 1}],
        "Sigma": [{"a1": 1}, {"a2": 1}],
        "Sp": [],
        "Da": [{"label": "D", "rho": [1]}],
    }))
    assert run(["validate", str(short_rho)]) == 2
    capsys.readouterr()
    # rho given on a1 and 2a1 with values that contradict each other
    inconsistent_rho = tmp_path / "inconsistent.json"
    inconsistent_rho.write_text(json.dumps({
        "group": "SL2",
        "M": [{"a1": 1}, {"a1": 2}],
        "Sigma": [{"a1": 1}],
        "Sp": [],
        "Da": [{"label": "D+", "rho": [1, 1]}, {"label": "D-", "rho": [1, 5]}],
    }))
    assert run(["validate", str(inconsistent_rho)]) == 2
    capsys.readouterr()
    assert run(["no-such-command", str(broken)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("text", [
    "[" * 200_000 + "]" * 200_000,
    '{"group": "Spin5", "M": [[' + "1" * 5000 + ', 0]], "Sigma": [], "Sp": []}',
], ids=["deep_nesting", "long_integer_literal"])
def test_json_past_the_decoder_limits_is_malformed(capsys, tmp_path, text):
    target = tmp_path / "datum.json"
    target.write_text(text)
    assert run(["validate", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed JSON")
    assert captured.err.count("\n") == 1


def test_rationals_in_the_documented_grammar():
    assert parse_rational("-3/6") == Q(-1, 2)
    assert parse_rational("+2") == 2 and parse_rational("007") == 7
    assert parse_rational(-4) == -4


@pytest.mark.parametrize("spelling", ["0.5", "1e3", " 3", "3 ", "1_0", "\u0661",
                                      "\uff11", "1e10000000", "1/0", "1/-2",
                                      "1/2/3", "", "+"])
def test_rationals_outside_the_grammar_are_parse_errors(capsys, tmp_path,
                                                        spelling):
    document = json.loads(fixture_path("spin5_wasserman14").read_text())
    document["Da"][0]["rho"] = [spelling, 0]
    target = tmp_path / "datum.json"
    target.write_text(json.dumps(document))
    start = time.perf_counter()
    with pytest.raises(ParseError):
        parse_rational(spelling)
    assert run(["validate", str(target)]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: not a rational number: {spelling!r}\n"


def test_connected_exit_codes(capsys):
    code, out = invoke(capsys, "connected", fixture_path("sl2sl2_ex54"))
    assert code == 1
    assert json.loads(out)["result"]["connected"] is False
    code, out = invoke(capsys, "connected", fixture_path("pgl2pgl2_ex55"))
    assert code == 0
    assert json.loads(out)["result"]["connected"] is True


@pytest.mark.parametrize("spelling", ["a01", "a+1", "a 1", "a1 ", "a\u0661",
                                      "a1_0"])
def test_simple_root_names_are_read_only_as_emitted(capsys, tmp_path, spelling):
    # G itself over A10: Sp holds every simple root, written as emitted
    names = [f"a{i}" for i in range(1, 11)]
    document = {"group": {"factors": [["A", 10, "simply_connected"]]},
                "M": [], "Sigma": [], "Sp": names, "Da": []}
    target = tmp_path / "datum.json"
    target.write_text(json.dumps(document))
    assert run(["validate", str(target)]) == 0
    # int() would read each spelling as a1 or a10, already in Sp
    document["Sp"] = names + [spelling]
    target.write_text(json.dumps(document))
    assert run(["validate", str(target)]) == 2
    capsys.readouterr()


INVALID_SPIN5 = {
    "group": "Spin5",
    "M": [{"a1": 1}, {"a2": 1}],
    "Sigma": [{"a1": 1}],
    "Sp": [],
    "Da": [],
}


def test_invalid_datum_blocks_derived_commands(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(INVALID_SPIN5))
    code, out = invoke(capsys, "normalizer", bad)
    assert code == 1
    assert json.loads(out)["result"]["valid"] is False


@pytest.mark.parametrize("command,flag", [
    ("quotient", "--subspace"),
    ("check-colored-subspace", "--subspace"),
    ("check-pair", "--pair"),
    ("subdatum", "--pair"),
    ("stein", "--pair"),
])
def test_an_invalid_datum_is_reported_before_its_flag_file_is_read(
        capsys, tmp_path, command, flag):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(INVALID_SPIN5))
    code = run([command, str(bad), flag, f"{tmp_path / 'missing.json'}:D+a1"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["result"]["valid"] is False
    assert captured.err == ""


def _sl2sl2_document(first, second):
    return {
        "group": "SL2xSL2",
        "M": [{"a1": 2}, {"a2": 1}],
        "Sigma": [{"a1": 2}, {"a2": 1}],
        "Sp": [],
        "Da": [{"label": first, "rho": [0, 1]}, {"label": second, "rho": [0, 1]}],
    }


def test_identity_component_with_da_labels_like_the_split_ones(capsys, tmp_path):
    target = tmp_path / "datum.json"
    target.write_text(json.dumps(_sl2sl2_document("D_a1+", "D_a1-")))
    code, out = invoke(capsys, "identity-component", target)
    assert code == 0
    labels = [c["label"] for c in json.loads(out)["result"]["datum"]["Da"]]
    assert sorted(labels) == ["D_a1+", "D_a1+'", "D_a1-", "D_a1-'"]


def test_root_names_print_in_index_order(capsys, tmp_path):
    # in string order a10 would come before a2
    group = build_root_datum([("A", 10, "simply_connected")])
    omega_1, omega_5 = (tuple(int(j == i) for j in range(10)) for i in (0, 4))
    a = group.simple_roots
    sum_2_10 = tuple(x + y for x, y in zip(a[1], a[9]))
    target = tmp_path / "datum.json"
    target.write_text(json.dumps(datum_document(
        luna_datum(group, [omega_1, omega_5], [], {1, 2, 9}, []))))
    code, out = invoke(capsys, "identity-component", target)
    assert code == 0
    assert json.loads(out)["result"]["datum"]["Sp"] == ["a2", "a3", "a10"]
    # alpha_2 and alpha_10 share the type-b color of their sum
    target.write_text(json.dumps(datum_document(
        luna_datum(group, [sum_2_10], [sum_2_10], set(), []))))
    code, out = invoke(capsys, "colors", target)
    assert code == 0
    assert ["a2", "a10"] in [c["moved"] for c in json.loads(out)["result"]["colors"]]
    code, out = invoke(capsys, "spherical-roots", target)
    assert code == 0
    spp = [r["spp"] for r in json.loads(out)["result"]["roots"]]
    assert ["a8", "a10"] in spp
    assert all(names == sorted(names, key=lambda n: int(n[1:])) for names in spp)


def test_da_label_of_a_derived_color_is_a_parse_error(capsys, tmp_path):
    target = tmp_path / "datum.json"
    target.write_text(json.dumps(_sl2sl2_document("D_a1", "Y")))
    for command in ("validate", "colors", "identity-component"):
        assert run([command, str(target)]) == 2
        err = capsys.readouterr().err
        assert "reserved" in err and "Traceback" not in err


def test_a_label_that_is_not_a_string_is_a_parse_error(capsys, tmp_path):
    target = tmp_path / "datum.json"
    for label in (None, 7, ["D"], {"a": 1}, True):
        target.write_text(json.dumps(_sl2sl2_document(label, "Y")))
        for command in ("validate", "colors", "identity-component"):
            assert run([command, str(target)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "not a string" in captured.err
            assert "Traceback" not in captured.err


@pytest.mark.parametrize("label", ["D,1", "x:y", ""])
def test_a_label_that_pair_flags_cannot_name_is_a_parse_error(capsys, tmp_path,
                                                              label):
    # --pair and --subspace split FILE:COLORS at the last ':' and the labels
    # at ',', dropping empty ones, so such a label could never be chosen
    document = json.loads(fixture_path("spin5_wasserman14").read_text())
    document["Da"][0]["label"] = label
    target = tmp_path / "datum.json"
    target.write_text(json.dumps(document))
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"M": [{"a2": 2}]}))
    with pytest.raises(ParseError):
        parse_datum(document)
    for argv in (["validate"], ["check-pair", "--pair", f"{pair}:{label}"]):
        assert run([argv[0], str(target), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"color label {label!r}" in captured.err
        assert "Traceback" not in captured.err


# The flag each command reads besides its datum file, and a value of it that
# spin5_wasserman14 accepts; is-subdatum reads a second datum file instead
FLAG_OF = {"quotient": "subspace", "check-colored-subspace": "subspace",
           "check-pair": "pair", "subdatum": "pair", "stein": "pair",
           "enumerate-finite": "bound"}
SPIN5_INPUTS = GOLDEN_DIR / "inputs" / "spin5_wasserman14"
FLAG_VALUES = {"subspace": f"{SPIN5_INPUTS}.subspace.json:D+a2,D-a1",
               "pair": f"{SPIN5_INPUTS}.pair.json:D+a1",
               "bound": "2"}


def _spin5_argv(command):
    """The command on spin5_wasserman14 with everything it reads."""
    fixture = str(fixture_path("spin5_wasserman14"))
    if command == "is-subdatum":
        return [command, f"{SPIN5_INPUTS}.subdatum.json", fixture]
    flag = FLAG_OF.get(command)
    return [command, fixture] + ([f"--{flag}", FLAG_VALUES[flag]] if flag else [])


@pytest.mark.parametrize("command", [c for c in COMMANDS if c != "is-subdatum"])
def test_a_second_datum_file_is_a_usage_error(capsys, command):
    argv = _spin5_argv(command)
    assert run([*argv[:2], argv[1], *argv[2:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "takes one datum file" in captured.err


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_without_what_it_reads_is_a_usage_error(capsys, command):
    # the datum file alone: a usage error exactly for the commands that read
    # a flag or a second file, and an answer for every other command
    code = run([command, str(fixture_path("spin5_wasserman14"))])
    captured = capsys.readouterr()
    if command in FLAG_OF:
        assert code == 2 and captured.out == ""
        assert f"requires --{FLAG_OF[command]}" in captured.err
    elif command == "is-subdatum":
        assert code == 2 and captured.out == ""
        assert "needs two datum files" in captured.err
    else:
        assert code in (0, 1) and captured.err == ""


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_ignores_the_flags_it_does_not_take(capsys, command):
    # it reads none of them: each one alone is a usage error that names the
    # flag before its value, a missing file or a bound below 1, is looked at
    argv = _spin5_argv(command)
    assert run(argv) in (0, 1)
    capsys.readouterr()
    for flag, value in (("bound", "0"), ("pair", "missing.json:"),
                        ("subspace", "missing.json:")):
        if FLAG_OF.get(command) != flag:
            assert run(argv + [f"--{flag}", value]) == 2
            assert capsys.readouterr() == (
                "", f"error: {command} does not take --{flag}\n")


def test_help_and_usage_exit_codes(capsys):
    assert run(["--help"]) == 0
    assert run(["validate", "--help"]) == 0
    assert run([]) == 2
    assert run(["frobnicate", str(fixture_path("spin5_wasserman14"))]) == 2
    capsys.readouterr()


def test_check_pair_exit_codes(capsys, tmp_path):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"M": [{"a2": 2}]}))
    code, out = invoke(capsys, "check-pair", fixture_path("spin5_wasserman14"),
                       "--pair", f"{pair}:D+a1")
    assert code == 0
    payload = json.loads(out)["result"]
    assert payload == {"distinguished": True,
                       "colored_subspace_pair": False,
                       "distinguished_subgroup_pair": False}
    code, out = invoke(capsys, "check-pair", fixture_path("spin5_wasserman14"),
                       "--pair", f"{pair}:")
    assert code == 1
    assert json.loads(out)["result"]["distinguished"] is False


def test_enumerate_finite_cli(capsys):
    code, out = invoke(capsys, "enumerate-finite",
                       fixture_path("spin5_wasserman14"), "--bound", 1)
    assert code == 0
    assert json.loads(out)["result"]["count"] == 1
    assert run(["enumerate-finite", str(fixture_path("g2_ex53"))]) == 2
    capsys.readouterr()
    assert run(["enumerate-finite", str(fixture_path("g2_ex53")),
                "--bound", "0"]) == 2
    capsys.readouterr()


def test_is_subdatum_cli(capsys):
    code, out = invoke(capsys, "is-subdatum", fixture_path("spin7_ex52"),
                       fixture_path("spin7_ex51"))
    assert code == 0
    assert json.loads(out)["result"]["is_subdatum"] is True
    code, out = invoke(capsys, "is-subdatum", fixture_path("spin7_ex51"),
                       fixture_path("spin7_ex52"))
    assert code == 1


def test_is_subdatum_cli_rejects_an_invalid_candidate(capsys, tmp_path):
    # Sigma with a repeated root fails validation, so it is no subdatum
    document = json.loads(fixture_path("spin7_ex51").read_text())
    document["Sigma"].insert(0, document["Sigma"][0])
    candidate = tmp_path / "dup.json"
    candidate.write_text(json.dumps(document))
    code, out = invoke(capsys, "validate", candidate)
    assert code == 1
    code, out = invoke(capsys, "is-subdatum", candidate,
                       fixture_path("spin7_ex51"))
    assert code == 1
    assert json.loads(out)["result"] == {"is_subdatum": False, "witness": None}


def test_is_subdatum_cli_over_different_groups_is_a_usage_error(capsys):
    code = run(["is-subdatum", str(fixture_path("g2_ex53")),
                str(fixture_path("spin7_ex51"))])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "different ambient groups" in captured.err


def test_quotient_cli(capsys, tmp_path):
    # the colored line spanned by rho(D+a1) in the Spin5 fixture
    sub = tmp_path / "subspace.json"
    sub.write_text(json.dumps({"basis": [[1, 1]]}))
    code, out = invoke(capsys, "quotient", fixture_path("spin5_wasserman14"),
                       "--subspace", f"{sub}:D+a1")
    assert code == 0
    payload = json.loads(out)["result"]["datum"]
    assert payload["Sigma"] == [{"a2": 1}]
    code, out = invoke(capsys, "quotient", fixture_path("spin5_wasserman14"),
                       "--subspace", f"{sub}:")
    assert code == 1


def test_stein_cli(capsys, tmp_path):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"M": [{"a2": 2}]}))
    code, out = invoke(capsys, "stein", fixture_path("spin5_wasserman14"),
                       "--pair", f"{pair}:D+a1")
    assert code == 0
    payload = json.loads(out)["result"]
    assert payload["finite_part"]["index"] == 2
    assert payload["colored_subspace"]["colors"] == ["D+a1"]


@pytest.mark.parametrize("command,flag", [
    ("quotient", "--subspace"),
    ("check-colored-subspace", "--subspace"),
    ("check-pair", "--pair"),
    ("subdatum", "--pair"),
    ("stein", "--pair"),
])
def test_unknown_color_label_is_a_usage_error(capsys, tmp_path, command, flag):
    target = tmp_path / "target.json"
    if flag == "--subspace":
        target.write_text(json.dumps({"basis": [[1, 1]]}))
    else:
        target.write_text(json.dumps({"M": [{"a2": 2}]}))
    code = run([command, str(fixture_path("spin5_wasserman14")),
                flag, f"{target}:nope"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "unknown color label 'nope'" in captured.err


@pytest.mark.parametrize("command,flag,document", [
    ("check-pair", "--pair", {"M": 5}),
    ("subdatum", "--pair", {"M": "a2"}),
    ("stein", "--pair", {"M": {"a2": 2}}),
    ("quotient", "--subspace", {"basis": 5}),
    ("check-colored-subspace", "--subspace", {"basis": None}),
])
def test_malformed_auxiliary_documents_are_usage_errors(capsys, tmp_path,
                                                         command, flag, document):
    target = tmp_path / "target.json"
    target.write_text(json.dumps(document))
    code = run([command, str(fixture_path("spin5_wasserman14")),
                flag, f"{target}:D+a1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "must be a list" in captured.err


@pytest.mark.parametrize("group", [
    {"factors": [["B", "3", "simply_connected"]]},
    {"factors": [["B", True, "simply_connected"]]},
    {"factors": [[2, 3, "simply_connected"]]},
    {"factors": [["B", 3, None]]},
    {"factors": [["B", 3, "simply_connected"]], "torus_rank": True},
    {"factors": [], "torus_rank": "1"},
])
def test_malformed_group_documents_are_parse_errors(capsys, tmp_path, group):
    with pytest.raises(ParseError):
        parse_group(group)
    document = tmp_path / "datum.json"
    document.write_text(json.dumps({
        "group": group, "M": [], "Sigma": [], "Sp": [], "Da": []}))
    assert run(["validate", str(document)]) == 2
    assert run(["spherical-roots", str(document)]) == 2
    assert capsys.readouterr().out == ""


def test_text_format_runs(capsys):
    code, out = invoke(capsys, "colors", fixture_path("g2_ex53"),
                       "--format", "text")
    assert code == 0
    assert "D_a1" in out and "2a" in out


# ---------------------------------------------------------------------------
# Golden reports
# ---------------------------------------------------------------------------

GOLDEN_CASES = [
    ("validate_spin7_ex51", ["validate", fixture_path("spin7_ex51")]),
    ("colors_g2_ex53", ["colors", fixture_path("g2_ex53")]),
    # the one fixture whose own colors join two roots: D_a1a2 moves a1 and a2
    ("colors_pgl2pgl2_ex55", ["colors", fixture_path("pgl2pgl2_ex55")]),
    ("normalizer_spin7_ex51", ["normalizer", fixture_path("spin7_ex51")]),
    ("connected_sl2sl2_ex54", ["connected", fixture_path("sl2sl2_ex54")]),
    ("enumerate_spin5_bound2",
     ["enumerate-finite", fixture_path("spin5_wasserman14"), "--bound", 2]),
    ("spherical_roots_pgl2pgl2",
     ["spherical-roots", fixture_path("pgl2pgl2_ex55")]),
    ("distinguished_spin7_ex51",
     ["distinguished-roots", fixture_path("spin7_ex51")]),
    ("valuation_cone_g2_ex53", ["valuation-cone", fixture_path("g2_ex53")]),
]


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_reports(capsys, name, argv):
    _, out = invoke(capsys, *argv)
    expected = (GOLDEN_DIR / f"{name}.json").read_text()
    assert report_without_path(out) == report_without_path(expected)


def test_valuation_cone_golden_is_byte_identical(capsys, monkeypatch):
    # recorded from the root of the checkout, where the input path is relative;
    # g2_ex53 is the fixture whose valuation-cone rays are not orthogonal
    monkeypatch.chdir(GOLDEN_DIR.parents[1])
    _, out = invoke(capsys, "valuation-cone", "src/lunadata/fixtures/g2_ex53.json")
    assert out == (GOLDEN_DIR / "valuation_cone_g2_ex53.json").read_text()


def test_enumerate_finite_stops_at_the_index_of_the_normalizer_lattice():
    # spin5 has [M : Z Sigma(N)] = 2, so every accepted index divides 2 and
    # a bound of 100000 reports what bound 2 does, in a fresh process
    root = GOLDEN_DIR.parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "lunadata.cli", "enumerate-finite",
         "src/lunadata/fixtures/spin5_wasserman14.json", "--bound", "100000"],
        cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout == (GOLDEN_DIR / "enumerate_spin5_bound2.json").read_text()


_LEAST_BAD_ENTRY = """
from lunadata.luna_core import luna_datum
from lunadata.root_datum import bourbaki_orderings, preset, subdiagram
g = preset("Spin5")
for call in (lambda: luna_datum(g, [(1, 0), (0, 1)], [], {"x", "y", "z"}),
             lambda: subdiagram(g, {"p", "q", "r"}),
             lambda: bourbaki_orderings(g, {"p", "q", "r"})):
    try:
        call()
    except ValueError as exc:
        print(type(exc).__name__, exc)
"""


@pytest.mark.parametrize("seed", ["0", "1", "38", "45"])
def test_an_error_names_the_least_bad_entry_under_every_hash_seed(seed):
    # several bad labels or indices are read from a set, whose order follows
    # the hash seed; the error names the least by repr all the same
    root = GOLDEN_DIR.parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONHASHSEED": seed}
    inputs = "tests/golden/inputs/spin5_wasserman14"
    for argv in (["quotient", "--subspace", f"{inputs}.subspace.json:Xa,Yb,Zc"],
                 ["check-pair", "--pair", f"{inputs}.pair.json:Xa,Yb"]):
        done = subprocess.run(
            [sys.executable, "-m", "lunadata.cli", argv[0],
             "src/lunadata/fixtures/spin5_wasserman14.json", *argv[1:]],
            cwd=root, env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (
            2, "error: unknown color label 'Xa'\n")
    done = subprocess.run([sys.executable, "-c", _LEAST_BAD_ENTRY], env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout.splitlines() == [
        "DatumStructureError no simple root with index 'x'",
        "ValueError no simple root with index 'p'",
        "ValueError no simple root with index 'p'"]


# The pair commands, with the pair, subspace and candidate files kept in
# tests/golden/inputs/; each report is byte-identical to the one recorded
# from the root of the checkout.
PAIR_COLORS = {"spin5_wasserman14": "D+a1", "sl2sl2_ex54": "D+"}
SUBSPACE_COLORS = {"spin5_wasserman14": "D+a2,D-a1", "sl2sl2_ex54": "D-a1,D-a2"}


def _pair_golden_argv(command, name):
    fixture = f"src/lunadata/fixtures/{name}.json"
    inputs = "tests/golden/inputs"
    if command == "is-subdatum":
        return [command, f"{inputs}/{name}.subdatum.json", fixture]
    if command == "quotient":
        return [command, fixture, "--subspace",
                f"{inputs}/{name}.subspace.json:{SUBSPACE_COLORS[name]}"]
    return [command, fixture, "--pair",
            f"{inputs}/{name}.pair.json:{PAIR_COLORS[name]}"]


@pytest.mark.parametrize("name", sorted(PAIR_COLORS))
@pytest.mark.parametrize("command", ["check-pair", "subdatum", "stein",
                                     "quotient", "is-subdatum"])
def test_pair_command_goldens_are_byte_identical(capsys, monkeypatch,
                                                 command, name):
    monkeypatch.chdir(GOLDEN_DIR.parents[1])
    code, out = invoke(capsys, *_pair_golden_argv(command, name))
    assert code == 0
    golden = GOLDEN_DIR / f"{command.replace('-', '_')}_{name}.json"
    assert out == golden.read_text()


# ---------------------------------------------------------------------------
# Robustness: corrupted datum documents
# ---------------------------------------------------------------------------

FUZZ_COMMANDS = (
    ["validate"], ["colors"], ["valuation-cone"], ["spherical-roots"],
    ["normalizer"], ["identity-component"], ["connected"],
    ["distinguished-roots"], ["enumerate-finite", "--bound", "1"],
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.floats(-2, 2, allow_nan=False)
    | st.sampled_from(["a1", "t1", "1/2", "0/0", "D+", "Spin5", "adjoint"])
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["a1", "a2", "label", "rho", "factors"])
                      | st.text(max_size=2), inner, max_size=3),
    max_leaves=6)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(FIXTURE_NAMES), command=st.sampled_from(FUZZ_COMMANDS),
       key=st.sampled_from(["group", "M", "Sigma", "Sp", "Da"]),
       index=st.none() | st.integers(0, 3), value=json_values)
def test_corrupted_documents_keep_the_exit_code_contract(
        fuzz_dir, name, command, key, index, value):
    # one field, or one element of M, Sigma or Da, replaced by any JSON value
    document = json.loads(fixture_path(name).read_text())
    if index is not None and key in ("M", "Sigma", "Da") and document[key]:
        document[key][index % len(document[key])] = value
    else:
        document[key] = value
    path = fuzz_dir / "datum.json"
    path.write_text(json.dumps(document))
    assert run([command[0], str(path), *command[1:]]) in (0, 1, 2)


AUX_COMMANDS = (
    ("check-pair", "--pair"), ("subdatum", "--pair"), ("stein", "--pair"),
    ("quotient", "--subspace"), ("check-colored-subspace", "--subspace"),
    ("is-subdatum", None),
)


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(AUX_COMMANDS), name=st.sampled_from(FIXTURE_NAMES),
       key=st.sampled_from(["group", "M", "Sigma", "Sp", "Da", "basis", None]),
       index=st.none() | st.integers(0, 3), value=json_values)
def test_corrupted_second_documents_keep_the_exit_code_contract(
        fuzz_dir, command, name, key, index, value):
    # the --pair or --subspace document, or the ambient datum of is-subdatum,
    # with one field or one list element replaced (the whole document if no key)
    command, flag = command
    if flag == "--pair":
        main, document = "spin5_wasserman14", {"M": [{"a2": 2}]}
    elif flag == "--subspace":
        main, document = "spin5_wasserman14", {"basis": [[1, 1]]}
    else:
        main, document = name, json.loads(fixture_path(name).read_text())
    if key is None:
        document = value
    elif index is not None and isinstance(document.get(key), list) \
            and document[key]:
        document[key][index % len(document[key])] = value
    else:
        document[key] = value
    path = fuzz_dir / "second.json"
    path.write_text(json.dumps(document))
    if flag is None:
        argv = [command, str(fixture_path(main)), str(path)]
    else:
        argv = [command, str(fixture_path(main)), flag, f"{path}:D+a1"]
    assert run(argv) in (0, 1, 2)
