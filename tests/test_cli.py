import importlib
import json
from fractions import Fraction

import pytest

from liecohom import JacobiError, StructureError, parse_algebra
from liecohom.cli import main
from liecohom.serialization import parse_one_form, parse_rational

HEISENBERG_DOC = {
    "dim": 3,
    "basis": ["e1", "e2", "e3"],
    "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "1"}}],
}

SOL3_DOC = {
    "dim": 3,
    "brackets": [
        {"i": 1, "j": 2, "coeffs": {"2": "1"}},
        {"i": 1, "j": 3, "coeffs": {"3": "-1"}},
    ],
}

BROKEN_DOC = {
    "dim": 3,
    "brackets": [
        {"i": 1, "j": 2, "coeffs": {"1": "1"}},
        {"i": 1, "j": 3, "coeffs": {"3": "1"}},
    ],
}


@pytest.fixture
def heis_file(tmp_path):
    path = tmp_path / "heisenberg.json"
    path.write_text(json.dumps(HEISENBERG_DOC))
    return str(path)


@pytest.fixture
def sol3_file(tmp_path):
    path = tmp_path / "sol3.json"
    path.write_text(json.dumps(SOL3_DOC))
    return str(path)


@pytest.fixture
def euclid_file(tmp_path):
    path = tmp_path / "euclid3.json"
    assert main(["example", "euclid3", "--emit", str(path)]) == 0
    return str(path)


def test_parse_rational_strict():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    for bad in ("1/0", "1.5", "x", "", "1/2/3", "\u0663"):
        with pytest.raises(StructureError):
            parse_rational(bad)


def test_parse_one_form():
    omega = parse_one_form("1,0,-1/2", 3)
    assert omega.coeffs == (1, 0, Fraction(-1, 2))
    with pytest.raises(StructureError):
        parse_one_form("1,0", 3)


def test_parse_algebra_roundtrip():
    g = parse_algebra(json.dumps(HEISENBERG_DOC))
    assert g.bracket_basis(1, 2) == (0, 0, 1)


def test_parse_algebra_rejects_bad_documents():
    with pytest.raises(StructureError):
        parse_algebra("not json {")
    with pytest.raises(StructureError):
        parse_algebra(json.dumps({"brackets": []}))
    with pytest.raises(StructureError):
        parse_algebra(json.dumps({"dim": 0}))
    bad_coeff = {"dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": {"1": "1/0"}}]}
    with pytest.raises(StructureError):
        parse_algebra(json.dumps(bad_coeff))
    with pytest.raises(JacobiError):
        parse_algebra(json.dumps(BROKEN_DOC))


def test_validate_ok(heis_file, capsys):
    assert main(["validate", heis_file]) == 0
    assert capsys.readouterr().out.strip() == "OK"


def test_validate_jacobi_failure_lists_triple(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(BROKEN_DOC))
    assert main(["validate", str(path)]) == 1
    assert "(1, 2, 3)" in capsys.readouterr().err


def test_validate_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": {"1": "1/0"}}]}))
    assert main(["validate", str(path)]) == 1
    assert "1/0" in capsys.readouterr().err


def test_cohomology_command(sol3_file, capsys):
    assert main(["cohomology", sol3_file, "--omega", "1,0,0", "--reps"]) == 0
    out = capsys.readouterr().out
    assert "betti = [0, 1, 1, 0]" in out
    assert "e2" in out
    assert "e1^e2" in out


def test_cohomology_non_closed_form_exits_2(heis_file, capsys):
    assert main(["cohomology", heis_file, "--omega", "0,0,1"]) == 2


def test_cohomology_builds_representatives_only_with_reps(sol3_file, capsys, monkeypatch):
    # the package exports a function named cohomology, so fetch the module itself
    module = importlib.import_module("liecohom.cohomology")

    def refuse(*args):
        raise AssertionError("representatives built although --reps was not given")

    monkeypatch.setattr(module, "_representatives_from", refuse)
    assert main(["cohomology", sol3_file, "--omega", "1,0,0"]) == 0
    assert capsys.readouterr().out == "omega = (1,0,0)\nbetti = [0, 1, 1, 0]\n"
    assert main(["cohomology", sol3_file, "--omega", "1,0,0", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"omega": ["1", "0", "0"],
                                                   "betti": [0, 1, 1, 0]}
    # the stub is live: --reps does reach it
    with pytest.raises(AssertionError):
        main(["cohomology", sol3_file, "--omega", "1,0,0", "--reps"])


def test_weights_not_triangularizable_exits_2(euclid_file, capsys):
    assert main(["weights", euclid_file]) == 2
    assert "triangulariz" in capsys.readouterr().err


def test_weights_json(sol3_file, capsys):
    assert main(["weights", sol3_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["k"] == 1
    assert doc["weight_sum_zero"] is True
    assert sorted(tuple(w) for w in doc["weights"]) \
        == [("-1", "0", "0"), ("0", "0", "0"), ("1", "0", "0")]


def test_omega_set_command(sol3_file, capsys):
    assert main(["omega-set", sol3_file]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["(-1,0,0)", "(0,0,0)", "(1,0,0)"]


def test_scan_command(sol3_file, capsys):
    assert main(["scan", sol3_file, "--direction", "1,0,0", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["critical"] == ["-1", "0", "1"]
    assert doc["generic"]["betti"] == [0, 0, 0, 0]


def test_novikov_command(sol3_file, capsys):
    assert main(["novikov", sol3_file, "--omega", "1,0,0", "--lambda", "1",
                 "--morse", "0,0,0,0"]) == 0
    out = capsys.readouterr().out
    assert "VIOLATED" in out
    assert "critical" in out


def test_json_output_is_byte_stable(sol3_file, capsys):
    for args in (
        ["cohomology", sol3_file, "--omega", "1,0,0", "--reps", "--json"],
        ["weights", sol3_file, "--json"],
        ["omega-set", sol3_file, "--json"],
        ["scan", sol3_file, "--direction", "1,0,0", "--json"],
        ["novikov", sol3_file, "--omega", "1,0,0", "--lambda", "2",
         "--morse", "0,0,0,0", "--json"],
    ):
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    args = ["cohomology", sol3_file, "--omega", "1,0,0", "--reps", "--json"]
    assert main(args) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["betti"] == [0, 1, 1, 0]
    assert doc["representatives"][1] == [[{"indices": [2], "coeff": "1"}]]


def test_example_emit_roundtrip(tmp_path, capsys):
    path = tmp_path / "sol3.json"
    assert main(["example", "sol3", "--param", "k=1/2", "--emit", str(path)]) == 0
    capsys.readouterr()
    assert main(["validate", str(path)]) == 0
    g = parse_algebra(path.read_text())
    assert g.bracket_basis(1, 2) == (0, Fraction(1, 2), 0)


def test_example_prints_summary(capsys):
    assert main(["example", "heisenberg3"]) == 0
    out = capsys.readouterr().out
    assert "heisenberg3" in out
    assert "[e1,e2] = 1*e3" in out


def test_example_bad_parameter_exits_1(capsys):
    assert main(["example", "sol3", "--param", "k=0"]) == 1


def test_novikov_rejects_fractional_morse_counts(sol3_file, capsys):
    assert main(["novikov", sol3_file, "--omega", "1,0,0", "--lambda", "1",
                 "--morse", "0,1/2,0,0"]) == 1
    assert "integer" in capsys.readouterr().err


def test_missing_file_exits_3(capsys):
    assert main(["validate", "/nonexistent/algebra.json"]) == 3


@pytest.mark.parametrize("doc", [
    {"dim": True},
    {"dim": 2, "brackets": [{"i": True, "j": 2, "coeffs": {"2": "1"}}]},
    {"dim": 2, "brackets": [{"i": 1, "j": True, "coeffs": {"2": "1"}}]},
    {"dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": {"2": True}}]},
    {"dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": {"2": False}}]},
])
def test_json_booleans_are_rejected_with_exit_1(tmp_path, capsys, doc):
    with pytest.raises(StructureError):
        parse_algebra(json.dumps(doc))
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    ('{"dim": 3, "dim": 2}', "'dim' appears twice"),
    ('{"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "1", "3": "5"}}]}',
     "'3' appears twice"),
    ('{"dim": 3, "brackets": [{"i": 1, "j": 2, "i": 1, "coeffs": {"3": "1"}}]}',
     "'i' appears twice"),
    ('{"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"2": "1", "02": "5"}}]}',
     "target index 2 twice"),
    ('{"dim": 11, "brackets": [{"i": 1, "j": 2, "coeffs": {"1_0": "1"}}]}',
     "non-integer target index '1_0'"),
    ('{"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {" 3": "1"}}]}',
     "non-integer target index ' 3'"),
    ('{"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"\u0663": "1"}}]}',
     "non-integer target index"),
    ('{"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "\u0663"}}]}',
     "not a rational literal"),
])
def test_ambiguous_json_is_rejected_with_exit_1(tmp_path, capsys, text, message):
    with pytest.raises(StructureError, match=message):
        parse_algebra(text)
    path = tmp_path / "ambiguous.json"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert message in capsys.readouterr().err


def test_plain_decimal_target_indices_still_parse():
    doc = '{"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"03": "1/2"}}]}'
    assert parse_algebra(doc).bracket_basis(1, 2) == (0, 0, Fraction(1, 2))


def test_json_integer_coefficients_still_parse():
    doc = {"dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": {"2": 3}}]}
    assert parse_algebra(json.dumps(doc)).bracket_basis(1, 2) == (0, 3)


@pytest.mark.parametrize("command", [
    ["cohomology", "{file}", "--omega", "-1,0,0", "--reps", "--json"],
    ["scan", "{file}", "--direction", "-1,0,0", "--json"],
    ["novikov", "{file}", "--omega", "-1,0,0", "--lambda", "-2",
     "--morse", "0,0,0,0", "--json"],
])
def test_negative_values_after_a_space(sol3_file, capsys, command):
    spaced = [sol3_file if a == "{file}" else a for a in command]
    assert main(spaced) == 0
    out_spaced = capsys.readouterr().out
    joined = []
    for a in spaced:
        if joined and joined[-1] in ("--omega", "--direction", "--lambda"):
            joined[-1] = f"{joined[-1]}={a}"
        else:
            joined.append(a)
    assert main(joined) == 0
    assert capsys.readouterr().out == out_spaced
    assert json.loads(out_spaced)


def test_negative_omega_on_the_command_line(sol3_file, capsys):
    assert main(["cohomology", sol3_file, "--omega", "-1,0,0"]) == 0
    out = capsys.readouterr().out
    assert "omega = (-1,0,0)" in out
    assert "betti = [0, 1, 1, 0]" in out


@pytest.mark.parametrize("argv,code", [
    (["cohomology", "{file}"], 1),
    (["cohomology", "{file}", "--omega", "1,0,0", "--bogus"], 1),
    (["frobnicate", "{file}"], 1),
    ([], 1),
    (["--help"], 0),
    (["cohomology", "--help"], 0),
    (["--version"], 0),
])
def test_usage_errors_exit_1_and_help_exits_0(sol3_file, capsys, argv, code):
    with pytest.raises(SystemExit) as exc:
        main([sol3_file if a == "{file}" else a for a in argv])
    assert exc.value.code == code
    captured = capsys.readouterr()
    if code:
        assert "usage: liecohom" in captured.err and "error:" in captured.err
    else:
        assert captured.out
