"""JSON wire format for algebras, forms and results.

The algebra document looks like

    {"dim": 3,
     "basis": ["e1", "e2", "e3"],
     "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "1"}}]}

with every coefficient an exact rational string "p" or "p/q". Omitted
brackets are zero; "basis" may be left out and defaults to e1..en. Parsing
is strict: a denominator of zero, a stray float, a key repeated in one JSON
object, a target index that is not plain ASCII decimal or that names the
same basis vector twice ("2" next to "02") is a StructureError, not a
silent approximation or a last-one-wins choice.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Mapping

from .algebra import LieAlgebra, OneForm
from .errors import StructureError
from .exterior import ExteriorForm

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$", re.ASCII)


def _is_int(value) -> bool:
    """A JSON integer; JSON booleans are Python ints too and do not count."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_rational(text) -> Fraction:
    """Parse "p" or "p/q" exactly; anything else is a StructureError."""
    if _is_int(text):
        return Fraction(text)
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise StructureError(f"not a rational literal: {text!r}")
    text = text.strip()
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise StructureError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def algebra_from_dict(doc: Mapping) -> LieAlgebra:
    if not isinstance(doc, Mapping):
        raise StructureError("algebra document must be a JSON object")
    if "dim" not in doc:
        raise StructureError("algebra document is missing \"dim\"")
    dim = doc["dim"]
    if not _is_int(dim) or dim < 1:
        raise StructureError(f"\"dim\" must be an integer >= 1, got {dim!r}")
    names = doc.get("basis")
    if names is not None:
        if (not isinstance(names, list)
                or not all(isinstance(s, str) for s in names)):
            raise StructureError("\"basis\" must be a list of strings")
        if len(names) != dim:
            raise StructureError(f"\"basis\" has {len(names)} names, expected {dim}")
    brackets = {}
    raw = doc.get("brackets", [])
    if not isinstance(raw, list):
        raise StructureError("\"brackets\" must be a list")
    for item in raw:
        if not isinstance(item, Mapping) or not {"i", "j", "coeffs"} <= set(item):
            raise StructureError(
                "each bracket needs \"i\", \"j\" and \"coeffs\" fields")
        i, j = item["i"], item["j"]
        if not (_is_int(i) and _is_int(j) and 1 <= i < j <= dim):
            raise StructureError(
                f"bracket indices ({i!r},{j!r}) must satisfy 1 <= i < j <= {dim}")
        if (i, j) in brackets:
            raise StructureError(f"duplicate bracket entry for ({i},{j})")
        coeffs = item["coeffs"]
        if not isinstance(coeffs, Mapping):
            raise StructureError(f"bracket ({i},{j}) \"coeffs\" must be an object")
        vec = [Fraction(0)] * dim
        seen = set()
        for key, value in coeffs.items():
            # plain ASCII decimal only: int() would also take "1_0", " 3" and other scripts' digits
            if not (isinstance(key, str) and key.isascii() and key.isdigit()):
                raise StructureError(
                    f"bracket ({i},{j}) has a non-integer target index {key!r}")
            k = int(key)
            if not 1 <= k <= dim:
                raise StructureError(
                    f"bracket ({i},{j}) target index {k} out of range 1..{dim}")
            if k in seen:
                raise StructureError(
                    f"bracket ({i},{j}) names target index {k} twice")
            seen.add(k)
            vec[k - 1] = parse_rational(value)
        brackets[(i, j)] = vec
    return LieAlgebra.from_brackets(dim, brackets, names=names)


def algebra_to_dict(g: LieAlgebra) -> dict:
    items = []
    for (i, j), coeffs in g.brackets:
        entry = {str(k + 1): format_rational(c)
                 for k, c in enumerate(coeffs) if c != 0}
        items.append({"i": i, "j": j, "coeffs": entry})
    return {"dim": g.dim, "basis": list(g.basis_names), "brackets": items}


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a repeated key is an error, not last-one-wins."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise StructureError(f"key {key!r} appears twice in one JSON object")
        doc[key] = value
    return doc


def parse_algebra(text: str) -> LieAlgebra:
    """Parse and validate the JSON algebra document.

    Raises StructureError on syntax or schema problems and JacobiError when
    the table fails the Jacobi identity.
    """
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise StructureError(f"invalid JSON: {exc}") from None
    return algebra_from_dict(doc)


def parse_one_form(text: str, dim: int) -> OneForm:
    """Comma-separated rationals in the dual basis, e.g. "1,0,-1/2"."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != dim:
        raise StructureError(
            f"one-form has {len(parts)} coefficients, expected {dim}")
    return OneForm([parse_rational(p) for p in parts])


def one_form_to_list(omega: OneForm) -> list[str]:
    return [format_rational(c) for c in omega.coeffs]


def form_to_terms(xi: ExteriorForm) -> list[dict]:
    """Stable JSON shape for a form: sorted list of index/coefficient terms."""
    return [{"indices": list(idx), "coeff": format_rational(c)}
            for idx, c in sorted(xi.terms.items())]


def format_form(xi: ExteriorForm) -> str:
    """Human-readable rendering like "-1/2 e1^e3 + e2^e3"."""
    if xi.is_zero():
        return "0"
    parts = []
    for idx, c in sorted(xi.terms.items()):
        if not idx:
            parts.append(format_rational(c))
            continue
        mono = "^".join(f"e{i}" for i in idx)
        if c == 1:
            parts.append(mono)
        elif c == -1:
            parts.append(f"-{mono}")
        else:
            parts.append(f"{format_rational(c)} {mono}")
    return " + ".join(parts).replace("+ -", "- ")
