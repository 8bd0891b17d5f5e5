"""JSON wire format for algebras, forms and results.

The algebra document looks like

    {"dim": 3,
     "basis": ["e1", "e2", "e3"],
     "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "1"}}]}

with every coefficient an exact rational string "p" or "p/q" (or a JSON
integer), read by ``linalg._exact`` like every other number the package
takes. Omitted brackets are zero; "basis" may be left out and defaults to
e1..en. Parsing is strict: a denominator of zero, a stray float, a key
repeated in one JSON object, a target index that is not plain ASCII decimal
or that names the same basis vector twice ("2" next to "02") is a
StructureError, not a silent approximation or a last-one-wins choice.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Mapping

from .algebra import LieAlgebra, OneForm, _dimension
from .errors import StructureError
from .exterior import ExteriorForm
from .linalg import _exact, _int


def parse_decimal(text, message: str) -> int:
    """A plain ASCII decimal string as an int, else a StructureError that
    reads ``message`` and the repr of ``text``. int() alone would also take
    "1_0", " 3" and other scripts' digits."""
    if not (isinstance(text, str) and text.isascii() and text.isdigit()):
        raise StructureError(f"{message} {text!r}")
    return _int(text)


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def algebra_from_dict(doc: Mapping) -> LieAlgebra:
    if not isinstance(doc, Mapping):
        raise StructureError("algebra document must be a JSON object")
    if "dim" not in doc:
        raise StructureError("algebra document is missing \"dim\"")
    dim = _dimension(doc["dim"])
    brackets = {}
    raw = doc.get("brackets", [])
    if not isinstance(raw, list):
        raise StructureError("\"brackets\" must be a list")
    for item in raw:
        if not isinstance(item, Mapping) or not {"i", "j", "coeffs"} <= set(item):
            raise StructureError(
                "each bracket needs \"i\", \"j\" and \"coeffs\" fields")
        i, j = item["i"], item["j"]
        if not (type(i) is int and type(j) is int and 1 <= i < j <= dim):
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
            k = parse_decimal(key, f"bracket ({i},{j}) has a non-integer target index")
            if not 1 <= k <= dim:
                raise StructureError(
                    f"bracket ({i},{j}) target index {k} out of range 1..{dim}")
            if k in seen:
                raise StructureError(
                    f"bracket ({i},{j}) names target index {k} twice")
            seen.add(k)
            vec[k - 1] = _exact(value)
        brackets[(i, j)] = vec
    return LieAlgebra.from_brackets(dim, brackets, names=doc.get("basis"))


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
    if not isinstance(text, (str, bytes, bytearray)):
        raise StructureError(f"expected a JSON document as text, got a {type(text).__name__}")
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, an integer past the interpreter's digit limit, or
        # nesting deeper than the interpreter's recursion limit
        raise StructureError(f"invalid JSON: {exc}") from None
    return algebra_from_dict(doc)


def parse_one_form(text: str, dim: int) -> OneForm:
    """Comma-separated rationals in the dual basis, e.g. "1,0,-1/2"."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != dim:
        raise StructureError(
            f"one-form has {len(parts)} coefficients, expected {dim}")
    return OneForm(parts)


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
