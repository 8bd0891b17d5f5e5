"""Seeded mutation fuzz of the command line.

Valid documents and argument strings are mutated: values swapped for other
types, huge or non-ASCII numbers, keys deleted, nested or repeated, the text
truncated, invalid UTF-8 inserted. Every case must get an answer or a
documented refusal: exit code 0, 1 or 2, stderr that starts with ``error:`` or
``usage:`` when the code is nonzero, and no exception out of ``main``. Most
cases run in process; a few run the whole CLI as a child process under an
address-space limit that acts only on that child.
"""

import json
import os
import random
import subprocess
import sys
import time

import pytest

import liecohom
from liecohom.cli import main

SEED = 14
CASES = 400
CHILD_CASES = 4

DOCS = {
    "sol3": {"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"2": "1"}},
                                    {"i": 1, "j": 3, "coeffs": {"3": "-1"}}]},
    "h3": {"dim": 3, "basis": ["x", "y", "z"],
           "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "1"}}]},
    "k2": {"dim": 4, "brackets": [{"i": 1, "j": 3, "coeffs": {"3": "1"}},
                                  {"i": 1, "j": 4, "coeffs": {"4": 2}},
                                  {"i": 2, "j": 4, "coeffs": {"4": "-1"}}]},
    "rational": {"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"2": "1/3"}},
                                        {"i": 1, "j": 3, "coeffs": {"3": "-2/5"}}]},
}

# stands in for an integer token of 5,000 digits, past the interpreter's
# default limit on decimal conversion, which json.dumps would refuse to write
LONG = "<long>"
VALUES = ["3", 1.5, True, None, [], 10 ** 30, 2 ** 63, "١", "1e3", "1/0", LONG]
TOKENS = ["3", "1.5", "true", "null", "", str(10 ** 30), str(2 ** 63), "١", "1e3",
          "1/0", "7" * 5000, "-1", "1/3", "1_0", " 2", "x"]
BAD_BYTES = [b"\xff", b"\xc3\x28", b"\xed\xa0\x80", b"\xf8\x88\x80\x80\x80", b"\x80"]


def _slots(node):
    """Every (container, key) pair below ``node``, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


def _mutate_doc(rng: random.Random, doc: dict) -> bytes:
    doc = json.loads(json.dumps(doc))
    for _ in range(rng.randint(1, 2)):
        slots = list(_slots(doc))
        if not slots:
            break
        node, key = rng.choice(slots)
        kind = rng.choice(("swap", "swap", "delete", "nest"))
        if kind == "swap":
            node[key] = rng.choice(VALUES)
        elif kind == "delete":
            del node[key]
        else:
            node[key] = rng.choice(([node[key]], {"x": node[key]}))
    text = json.dumps(doc).replace(json.dumps(LONG), "7" * 5000).encode()
    kind = rng.choice(("none", "none", "truncate", "bytes", "repeat"))
    if kind == "truncate":
        text = text[:rng.randrange(len(text) + 1)]
    elif kind == "bytes":
        at = rng.randrange(len(text) + 1)
        text = text[:at] + rng.choice(BAD_BYTES) + text[at:]
    elif kind == "repeat" and text.startswith(b"{"):
        text = b'{"dim": 3, ' + text[1:]
    return text


def _mutate_arg(rng: random.Random, parts: list[str]) -> str:
    parts = list(parts)
    kind = rng.choice(("keep", "swap", "swap", "drop", "add"))
    if kind == "swap":
        parts[rng.randrange(len(parts))] = rng.choice(TOKENS)
    elif kind == "drop" and len(parts) > 1:
        parts.pop()
    elif kind == "add":
        parts.append(rng.choice(TOKENS))
    return ",".join(parts)


def _argv(rng: random.Random, path: str, dim: int) -> list[str]:
    zeros, first = ["0"] * dim, ["1"] + ["0"] * (dim - 1)
    command = rng.choice(("validate", "cohomology", "weights", "omega-set", "scan",
                          "novikov", "example"))
    if command == "cohomology":
        argv = [command, path, "--omega", _mutate_arg(rng, rng.choice((zeros, first)))]
        argv += rng.sample(["--reps", "--json"], rng.randint(0, 2))
    elif command == "scan":
        argv = [command, path, "--direction", _mutate_arg(rng, first)]
    elif command == "novikov":
        argv = [command, path, "--omega", _mutate_arg(rng, first),
                "--lambda", _mutate_arg(rng, ["2"]),
                "--morse", _mutate_arg(rng, ["1"] * (dim + 1))]
    elif command == "example":
        name, key, value = rng.choice((("sol3", "k", "2"), ("abelian", "n", "3")))
        argv = [command, name, "--param", f"{key}={_mutate_arg(rng, [value])}"]
    else:
        argv = [command, path] + (["--json"] if command != "validate" else [])
    return argv


def _cases(tmp_path, count: int, seed: int):
    """``count`` mutated (argv, document bytes) pairs, each document in its own file."""
    rng = random.Random(seed)
    for k in range(count):
        name = rng.choice(sorted(DOCS))
        text = _mutate_doc(rng, DOCS[name])
        path = tmp_path / f"case{k}.json"
        path.write_bytes(text)
        yield _argv(rng, str(path), DOCS[name]["dim"]), text


def _outcome_problem(code, err: str) -> str | None:
    if code not in (0, 1, 2):
        return f"exit code {code!r}"
    if code and not err.startswith(("error:", "usage:")):
        return f"stderr {err[:200]!r}"
    return None


def test_mutated_documents_and_arguments_get_an_answer_or_a_refusal(tmp_path, capsys):
    start = time.perf_counter()
    problems = []
    for argv, text in _cases(tmp_path, CASES, SEED):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # any escape is what the fuzz looks for
            capsys.readouterr()
            problems.append((argv, text[:120], repr(exc)[:200]))
            continue
        problem = _outcome_problem(code, capsys.readouterr().err)
        if problem:
            problems.append((argv, text[:120], problem))
    assert not problems, problems
    assert time.perf_counter() - start < 4


def _decodes(text: bytes) -> bool:
    try:
        text.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
def test_whole_cli_under_an_address_space_limit(tmp_path):
    src = os.path.dirname(os.path.dirname(liecohom.__file__))
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    picked = {True: [], False: []}
    for argv, text in _cases(tmp_path, 100, SEED + 1):
        group = picked[_decodes(text)]
        if len(group) < CHILD_CASES // 2:
            group.append((argv, text))
    for argv, text in picked[True] + picked[False]:
        out = subprocess.run([sys.executable, "-m", "liecohom", *argv], env=env,
                             capture_output=True, text=True, errors="replace", timeout=30,
                             preexec_fn=_limit_address_space)
        assert "Traceback" not in out.stderr, (argv, text[:120], out.stderr[-2000:])
        assert _outcome_problem(out.returncode, out.stderr) is None, (argv, out.stderr)
