"""Exact linear algebra over the rationals.

Everything here works with ``fractions.Fraction`` entries and never rounds.
Every value that is not yet a Fraction becomes one through ``_exact``, the
package's one rational grammar: ints and other exact rationals, and strings
"p" or "p/q" in ASCII digits. A float, a bool, a decimal or exponent string
and anything else is refused rather than converted. ``RationalMatrix``
stores sparse rows, one ``{column: Fraction}`` map of the nonzero entries
per row, and the elimination reads those rows directly, so the cost of a
matrix follows its nonzeros rather than its shape.

Rank, kernels, linear solves against many right-hand sides at once (a
single preimage and an inverse are such solves), canonical span bases and
greedy span extension all go through one fraction-free elimination on
sparse integer rows, ``_echelon``: each row is a ``{column: int}`` map, a
row with no entry in the pivot column is left untouched, and every updated
row is divided by its content. Each row then stays the primitive multiple
of the row Bareiss elimination would hold, so intermediate entries are
bounded by minors of the input instead of letting numerators explode.

The public functions clear each rational row's denominators first
(``_integer_rows``). The cohomology path does not need to: the exterior
module assembles the twisted differential as int rows at one common scale,
and hands them to ``_echelon`` and ``_kernel`` as they are.

Pivot columns are taken in ascending order and are always the greedy
independent column set, so every function is deterministic: the same matrix
always yields the same kernel basis, the same preimage and the same span
extension, bit for bit.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from typing import Iterable, Sequence

from .errors import StructureError

Vector = tuple[Fraction, ...]
SparseRow = dict[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


_RATIONAL_RE = re.compile(r"[+-]?\d+(/\d+)?", re.ASCII)


def _int(text: str) -> int:
    """int() of a checked digit string; past the interpreter's limit on
    integer string conversion it is a StructureError, not a ValueError."""
    try:
        return int(text)
    except ValueError:
        raise StructureError(f"integer literal of {len(text.lstrip('+-'))} digits is over the "
                             "interpreter's limit for integer conversion") from None


def _exact(x) -> Fraction:
    """A value that is not yet a Fraction, as one; the only way a number
    enters the package.

    An int, a Fraction or another ``numbers.Rational`` is taken as it is. A
    string must read "p" or "p/q" in ASCII digits, with an optional sign and
    surrounding whitespace; a zero denominator or a literal past the
    interpreter's digit limit is refused. A float is already rounded, a bool
    is not a number, and a decimal or exponent string, a ``Decimal``,
    ``None`` or anything else is no exact rational: each is a StructureError.
    """
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, str):
        text = x.strip()
        if _RATIONAL_RE.fullmatch(text):
            num, _, den = text.partition("/")
            q = _int(den) if den else 1
            if q == 0:
                raise StructureError(f"zero denominator in {text!r}")
            return Fraction(_int(num), q)
    elif isinstance(x, Rational) and not isinstance(x, bool):
        return Fraction(x)
    raise StructureError(f"not a rational literal: {x!r}")


def vector(values: Iterable) -> Vector:
    """Coerce an iterable of rationals (ints, strings, Fractions) to a Vector;
    a string or bytes value, or one that is not iterable, is a StructureError."""
    if isinstance(values, (str, bytes, bytearray)) or not hasattr(values, "__iter__"):
        raise StructureError(f"expected a sequence of coefficients, got a {type(values).__name__}")
    return tuple(v if type(v) is Fraction else _exact(v) for v in values)


def zero_vector(n: int) -> Vector:
    return (_ZERO,) * n


def unit_vector(n: int, j: int) -> Vector:
    """The j-th standard basis vector of Q^n, 0-based."""
    v = [_ZERO] * n
    v[j] = _ONE
    return tuple(v)


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_scale(c, v: Vector) -> Vector:
    c = c if type(c) is Fraction else _exact(c)
    return tuple(c * a for a in v)


def vec_is_zero(v: Vector) -> bool:
    return all(a == 0 for a in v)


def _nonzeros(v: Vector) -> SparseRow:
    """The nonzero entries of a vector, by position."""
    return {j: x for j, x in enumerate(v) if x}


def _dense(entries: SparseRow, n: int) -> Vector:
    """The length-n vector with the given nonzero entries."""
    out = [_ZERO] * n
    for j, x in entries.items():
        out[j] = x
    return tuple(out)


class RationalMatrix:
    """Matrix of exact rationals stored as sparse rows.

    Row i is a ``{column: Fraction}`` map of its nonzero entries. A zero is
    never stored, so two matrices are equal exactly when their shapes and
    row maps are, and every operation costs in proportion to the nonzeros.
    ``row``, ``column``, ``to_rows`` and indexing are dense views.
    Instances are treated as immutable; all operations return new matrices.
    """

    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, rows: int, cols: int, entries: Sequence[Sequence] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if entries is None:
            data = [{} for _ in range(rows)]
        else:
            if len(entries) != rows:
                raise ValueError(f"expected {rows} rows, got {len(entries)}")
            data = []
            for r in entries:
                r = vector(r)
                if len(r) != cols:
                    raise ValueError(f"expected {cols} columns, got {len(r)}")
                data.append(_nonzeros(r))
        self.rows, self.cols, self._rows = rows, cols, data

    @classmethod
    def _adopt(cls, rows: int, cols: int, data: list[SparseRow]) -> "RationalMatrix":
        """Adopt sparse rows the package built: Fraction values, no zero
        stored, every key below ``cols``. Nothing is checked or copied.

        A scaled matrix that only goes into an elimination may hold ints."""
        m = cls.__new__(cls)
        m.rows, m.cols, m._rows = rows, cols, data
        return m

    @classmethod
    def from_rows(cls, entries: Sequence[Sequence]) -> "RationalMatrix":
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        return cls(rows, cols, entries)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence]) -> "RationalMatrix":
        cols = len(columns)
        rows = len(columns[0]) if cols else 0
        data: list[SparseRow] = [{} for _ in range(rows)]
        for j, c in enumerate(columns):
            c = vector(c)
            if len(c) != rows:
                raise ValueError(f"expected columns of length {rows}, got {len(c)}")
            for i, x in enumerate(c):
                if x:
                    data[i][j] = x
        return cls._adopt(rows, cols, data)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._adopt(n, n, [{i: _ONE} for i in range(n)])

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        # indexing a range checks bounds and resolves negative indices
        return self._rows[i].get(range(self.cols)[j], _ZERO)

    def row(self, i: int) -> Vector:
        return _dense(self._rows[i], self.cols)

    def column(self, j: int) -> Vector:
        j = range(self.cols)[j]
        return tuple(r.get(j, _ZERO) for r in self._rows)

    def to_rows(self) -> list[list[Fraction]]:
        return [list(_dense(r, self.cols)) for r in self._rows]

    def transpose(self) -> "RationalMatrix":
        data: list[SparseRow] = [{} for _ in range(self.cols)]
        for i, r in enumerate(self._rows):
            for j, x in r.items():
                data[j][i] = x
        return RationalMatrix._adopt(self.cols, self.rows, data)

    def apply(self, v: Sequence) -> Vector:
        """Matrix-vector product."""
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        v = vector(v)
        return tuple(sum((x * v[j] for j, x in r.items()), _ZERO) for r in self._rows)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        data = []
        for r in self._rows:
            acc: SparseRow = {}
            for k, a in r.items():
                for j, b in other._rows[k].items():
                    acc[j] = acc[j] + a * b if j in acc else a * b
            data.append({j: x for j, x in acc.items() if x})
        return RationalMatrix._adopt(self.rows, other.cols, data)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        data = []
        for r1, r2 in zip(self._rows, other._rows):
            row = dict(r1)
            for j, x in r2.items():
                s = row.pop(j, _ZERO) + x
                if s:
                    row[j] = s
            data.append(row)
        return RationalMatrix._adopt(self.rows, self.cols, data)

    def scale(self, c) -> "RationalMatrix":
        c = c if type(c) is Fraction else _exact(c)
        if not c:
            return RationalMatrix(self.rows, self.cols)
        return RationalMatrix._adopt(self.rows, self.cols,
                                     [{j: c * x for j, x in r.items()} for r in self._rows])

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum((r.get(i, _ZERO) for i, r in enumerate(self._rows)), _ZERO)

    def is_zero(self) -> bool:
        return not any(self._rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self._rows == other._rows

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"


def _integer_rows(rows: Iterable[SparseRow]) -> list[dict[int, int]]:
    """Sparse rows with each row's denominators cleared.

    The rows must store no zero. Row scaling by a positive integer changes
    neither rank nor solution sets, so elimination on these rows answers
    questions about the rational rows.
    """
    out = []
    for row in rows:
        mult = lcm(*(q.denominator for q in row.values()))
        out.append({j: q.numerator * (mult // q.denominator) for j, q in row.items()})
    return out


def _augment(M: RationalMatrix, columns: Iterable[SparseRow]) -> list[SparseRow]:
    """Sparse rows of ``[M | columns]``, each column a map over the rows of M."""
    rows = [dict(r) for r in M._rows]
    for k, v in enumerate(columns, start=M.cols):
        for i, x in v.items():
            rows[i][k] = x
    return rows


def _eliminate(row: dict[int, int], pivot_row: dict[int, int], c: int) -> dict[int, int]:
    """Primitive multiple of ``p * row - row[c] * pivot_row`` with p = pivot_row[c].

    The result has no entry in column ``c``; it is divided by its content, which
    keeps it the primitive multiple of the corresponding Bareiss row.
    """
    p, f = pivot_row[c], row[c]
    g = gcd(p, f)
    a, b = p // g, f // g
    out = {j: a * v for j, v in row.items()}
    for j, v in pivot_row.items():
        x = out.get(j, 0) - b * v
        if x:
            out[j] = x
        else:
            del out[j]
    content = gcd(*out.values()) if out else 1
    if content > 1:
        out = {j: v // content for j, v in out.items()}
    return out


def _echelon(rows: list[dict[int, int]]) -> tuple[list[dict[int, int]], list[int]]:
    """Fraction-free forward elimination over sparse integer rows.

    Rows are grouped by leading column and the columns are visited in
    ascending order, so the pivot columns are the greedy independent column
    set. In each group the shortest row (first on ties) becomes the pivot row
    and the others are reduced against it; rows leading further right are not
    touched. Empty rows are skipped and no input row is changed. Returns the
    pivot rows and their pivot columns, ascending.
    """
    rows = [r for r in rows if r]
    groups: dict[int, list[dict[int, int]]] = {}
    for r in rows:
        groups.setdefault(min(r), []).append(r)
    echelon: list[dict[int, int]] = []
    pivots: list[int] = []
    # a reduced row only leads further right, so one left-to-right sweep suffices
    for c in range(max((max(r) for r in rows), default=-1) + 1):
        group = groups.pop(c, None)
        if group is None:
            continue
        pivot_row = min(group, key=len)
        for r in group:
            if r is not pivot_row:
                r = _eliminate(r, pivot_row, c)
                if r:
                    groups.setdefault(min(r), []).append(r)
        echelon.append(pivot_row)
        pivots.append(c)
    return echelon, pivots


def _reduce(echelon: list[dict[int, int]], pivots: list[int]) -> None:
    """Clear every pivot column above its pivot, in place.

    Afterwards row i has entries only in its pivot column and in non-pivot
    columns: it is the i-th row of the reduced echelon form times an integer.
    """
    for k in range(len(pivots) - 1, 0, -1):
        c, pivot_row = pivots[k], echelon[k]
        for i in range(k):
            if c in echelon[i]:
                echelon[i] = _eliminate(echelon[i], pivot_row, c)


def rank(M: RationalMatrix) -> int:
    """Rank over the rationals via fraction-free elimination."""
    return len(_echelon(_integer_rows(M._rows))[1])


def _kernel(rows: list[dict[int, int]], cols: int) -> list[SparseRow]:
    """The ``kernel_basis`` vectors of the integer rows as sparse maps, in
    free-column order; ``cols`` is the number of columns."""
    echelon, pivots = _echelon(rows)
    _reduce(echelon, pivots)
    pivot_set = set(pivots)
    basis = {f: {f: _ONE} for f in range(cols) if f not in pivot_set}
    for row, c in zip(echelon, pivots):
        d = row[c]
        for j, x in row.items():
            if j != c:
                basis[j][c] = Fraction(-x, d)
    return list(basis.values())


def kernel_basis(M: RationalMatrix) -> list[Vector]:
    """Deterministic basis of the right null space.

    One basis vector per free column, in ascending column order; the free
    coordinate is set to 1, the other free coordinates to 0, and the pivot
    coordinates are read off the reduced echelon form, so ``M @ v == 0``
    holds exactly for every returned ``v``.
    """
    return [_dense(v, M.cols) for v in _kernel(_integer_rows(M._rows), M.cols)]


def solve(M: RationalMatrix, targets: Sequence[Sequence]) -> list[Vector] | None:
    """Preimages ``u`` with ``M u == t`` for every target ``t``, or None when
    some target lies outside the image.

    One elimination of ``[M | targets]`` answers them all. The pivot columns
    of ``M`` come first and are its greedy independent column set, so some
    target column is a pivot exactly when some target leaves the image.
    Otherwise the reduced echelon form holds each target's coordinates on
    the pivot columns of ``M``, the same ones a solve against that target
    alone reads off. Each solution is the minimal pivot one: free variables
    are pinned to zero, which makes the choice deterministic.
    """
    targets = [vector(t) for t in targets]
    if any(len(t) != M.rows for t in targets):
        raise ValueError("target length does not match row count")
    if not targets:
        return []
    echelon, pivots = _echelon(_integer_rows(_augment(M, map(_nonzeros, targets))))
    if pivots and pivots[-1] >= M.cols:
        return None
    _reduce(echelon, pivots)
    solutions: list[SparseRow] = [{} for _ in targets]
    for row, c in zip(echelon, pivots):
        for j, x in row.items():
            if j >= M.cols:
                solutions[j - M.cols][c] = Fraction(x, row[c])
    return [_dense(u, M.cols) for u in solutions]


def in_image(M: RationalMatrix, target: Sequence) -> Vector | None:
    """The minimal pivot preimage of one target (see ``solve``), or None."""
    solutions = solve(M, [target])
    return None if solutions is None else solutions[0]


def invert(M: RationalMatrix) -> RationalMatrix:
    """Inverse of a square matrix; raises ValueError if singular."""
    if M.rows != M.cols:
        raise ValueError("only square matrices can be inverted")
    columns = solve(M, [unit_vector(M.rows, j) for j in range(M.rows)])
    if columns is None:
        raise ValueError("singular matrix")
    return RationalMatrix.from_columns(columns)


def span_basis(vectors: Iterable[Sequence], ambient: int) -> list[Vector]:
    """Canonical basis of the span: nonzero rows of the reduced row echelon form.

    Canonical means two spanning sets of the same subspace produce the same
    output, which makes subspace equality a plain list comparison.
    """
    rows = [vector(v) for v in vectors]
    if any(len(r) != ambient for r in rows):
        raise ValueError("vector length does not match ambient dimension")
    echelon, pivots = _echelon(_integer_rows(map(_nonzeros, rows)))
    _reduce(echelon, pivots)
    return [_dense({j: Fraction(x, row[c]) for j, x in row.items()}, ambient)
            for row, c in zip(echelon, pivots)]


def extend_independent(base: Sequence[Sequence], candidates: Iterable[Sequence],
                       ambient: int) -> list[Vector]:
    """Candidates that enlarge the span of ``base`` and of those picked before.

    One elimination picks them all: with the vectors as the columns of
    ``[base | candidates]``, the pivot columns are the greedy independent
    column set, so the pivots past ``base`` are exactly the candidates a
    sequential scan would keep. The returned vectors are the candidates
    themselves (not canonicalized), in scan order.
    """
    cands = [vector(v) for v in candidates]
    columns = [vector(v) for v in base] + cands
    if any(len(v) != ambient for v in columns):
        raise ValueError("vector length does not match ambient dimension")
    rows = _augment(RationalMatrix(ambient, 0), map(_nonzeros, columns))
    _, pivots = _echelon(_integer_rows(rows))
    shift = len(columns) - len(cands)
    return [cands[c - shift] for c in pivots if c >= shift]
