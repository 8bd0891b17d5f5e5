import importlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from liecohom import JacobiError, StructureError, parse_algebra
from liecohom.cli import main
from liecohom.linalg import _exact as parse_rational
from liecohom.exterior import ExteriorForm
from liecohom.serialization import format_form, parse_one_form

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

# [e1, e3] = e3, [e1, e4] = 2 e4, [e2, e4] = -e4: a complement of dimension 2
K2_DOC = {
    "dim": 4,
    "brackets": [
        {"i": 1, "j": 3, "coeffs": {"3": "1"}},
        {"i": 1, "j": 4, "coeffs": {"4": "2"}},
        {"i": 2, "j": 4, "coeffs": {"4": "-1"}},
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
    item = {"i": 1, "j": 2, "coeffs": {"2": "1"}}
    for doc in ([1], {"dim": 2, "brackets": item},
                *({"dim": 2, "brackets": [{k: v for k, v in item.items() if k != key}]}
                  for key in item),
                {"dim": 2, "brackets": [item, item]},
                {"dim": 2, "brackets": [item | {"coeffs": ["1"]}]},
                {"dim": 2, "brackets": [item | {"coeffs": {"3": "1"}}]}):
        with pytest.raises(StructureError):
            parse_algebra(json.dumps(doc))


@pytest.mark.parametrize("basis", ["e1e2e3", ["e1", "e2"], ["e1", "e2", 3], {"a": 1, "b": 2, "c": 3}])
def test_bad_basis_names_exit_1(tmp_path, capsys, basis):
    doc = HEISENBERG_DOC | {"basis": basis}
    with pytest.raises(StructureError):
        parse_algebra(json.dumps(doc))
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_format_form_renders_each_kind_of_coefficient():
    assert format_form(ExteriorForm(3, 2)) == "0"
    assert format_form(ExteriorForm.scalar(3, "-5/2")) == "-5/2"
    assert format_form(ExteriorForm(3, 2, {(1, 2): -1, (1, 3): "1/2", (2, 3): 1})) == (
        "-e1^e2 + 1/2 e1^e3 + e2^e3")
    assert format_form(ExteriorForm(3, 1, {(1,): "-1/2", (3,): 2})) == "-1/2 e1 + 2 e3"


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


def test_non_utf8_document_exits_1(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"dim": 2, "basis": ["\xff", "b"]}')
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid JSON") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-32"])
def test_documents_in_every_json_encoding_parse(tmp_path, capsys, encoding):
    path = tmp_path / "heisenberg.json"
    path.write_bytes(json.dumps(HEISENBERG_DOC).encode(encoding))
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == "OK\n"


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


def test_weights_and_scan_print_text(tmp_path, capsys):
    path = tmp_path / "k2.json"
    path.write_text(json.dumps(K2_DOC))
    assert main(["weights", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "closed block size k = 2",
        "alpha_1 = (0,0,0,0)",
        "alpha_2 = (0,0,0,0)",
        "alpha_3 = (-1,0,0,0)",
        "alpha_4 = (-2,1,0,0)",
        "weight sum zero: False",
    ]
    assert main(["scan", str(path), "--direction", "1,0,0,0"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "lambda =        0  betti = [1, 2, 1, 0, 0]",
        "lambda =        1  betti = [0, 1, 2, 1, 0]",
        "generic =        2  betti = [0, 0, 0, 0, 0]",
    ]


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


@pytest.mark.parametrize("param", ["n=1_0", "k=1e5000", "k"])
def test_example_parameters_outside_the_grammar_exit_1(capsys, param):
    name = "abelian" if param.startswith("n=") else "sol3"
    assert main(["example", name, "--param", param]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# Python 3.11 and the 3.10 security releases refuse int() of a digit string
# past a limit (4300 digits by default); 0 switches the limit off
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(DIGIT_LIMIT == 0, reason="no limit on integer string conversion")
@pytest.mark.parametrize("where", ["coefficient", "json integer", "target index", "omega",
                                   "lambda", "morse", "param k", "param n"])
def test_integers_over_the_digit_limit_exit_1(tmp_path, capsys, heis_file, where):
    big = "7" * (DIGIT_LIMIT + 700)
    coeffs = {"coefficient": f'{{"3": "{big}"}}', "json integer": f'{{"3": {big}}}',
              "target index": f'{{"{big}": "1"}}'}.get(where, '{"3": "1"}')
    path = tmp_path / "big.json"
    path.write_text(f'{{"dim": 3, "brackets": [{{"i": 1, "j": 2, "coeffs": {coeffs}}}]}}')
    argv = {
        "omega": ["cohomology", heis_file, f"--omega={big},0,0"],
        "lambda": ["novikov", heis_file, "--omega=0,0,0", f"--lambda={big}", "--morse=1,2,2,1"],
        "morse": ["novikov", heis_file, "--omega=0,0,0", "--lambda=1", f"--morse=1,{big},2,1"],
        "param k": ["example", "sol3", "--param", f"k={big}"],
        "param n": ["example", "abelian", "--param", f"n={big}"],
    }.get(where, ["validate", str(path)])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.skipif(DIGIT_LIMIT == 0, reason="no limit on integer string conversion")
def test_example_value_over_the_digit_limit_exits_1(capsys):
    # C(15000, 7500) has 4514 digits, past the default limit of 4300
    assert main(["example", "abelian", "--param", "n=15000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "--emit" in captured.err


@pytest.mark.parametrize("text", [
    '{"dim": 1000000000000000000000000000000, "brackets": []}',
    '{"dim": 9223372036854775808}',
    "[" * 100_000 + "]" * 100_000,
    '{"dim": 200000, "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "1"}}]}',
], ids=["dim 10^30", "dim 2^63", "nested 100000 deep", "dim over the limit"])
def test_documents_no_answer_can_follow_exit_1(text, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(text)
    start = time.perf_counter()
    assert main(["validate", str(path)]) == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


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


def test_cli_import_leaves_dataclasses_and_inspect_out():
    # each CLI query is a new process, so every module the import pulls in
    # is paid per query
    import liecohom
    src = os.path.dirname(os.path.dirname(liecohom.__file__))
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    code = "import sys, liecohom.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
