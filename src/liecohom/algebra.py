"""Lie algebras given by rational structure constants.

An algebra is stored as its dimension, basis names and the bracket table
``{(i, j): coefficient vector}`` for 1 <= i < j <= n; antisymmetry is
implicit and the Jacobi identity is checked at construction time. All
indices facing the user are 1-based (matching the e_1 ... e_n notation),
coordinates are plain tuples of Fractions.

Every value is immutable after construction and every operation is a pure
function, so concurrent use needs no coordination.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

from .errors import JacobiError, StructureError
from .linalg import (
    RationalMatrix,
    Vector,
    in_image,
    invert,
    kernel_basis,
    rank,
    span_basis,
    unit_vector,
    vec_add,
    vec_is_zero,
    vec_scale,
    vector,
    zero_vector,
)


@dataclass(frozen=True)
class OneForm:
    """Element of the dual space, as coefficients in the dual basis e^1..e^n."""

    coeffs: Vector

    def __init__(self, coeffs: Sequence):
        object.__setattr__(self, "coeffs", vector(coeffs))

    @classmethod
    def zero(cls, n: int) -> "OneForm":
        return cls(zero_vector(n))

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return vec_is_zero(self.coeffs)

    def evaluate(self, v: Sequence) -> Fraction:
        """Pairing with a vector of the algebra."""
        return sum((a * b for a, b in zip(self.coeffs, vector(v), strict=True) if a),
                   Fraction(0))

    def __add__(self, other: "OneForm") -> "OneForm":
        return OneForm(vec_add(self.coeffs, other.coeffs))

    def __neg__(self) -> "OneForm":
        return OneForm(vec_scale(-1, self.coeffs))

    def __sub__(self, other: "OneForm") -> "OneForm":
        return self + (-other)

    def scale(self, c) -> "OneForm":
        return OneForm(vec_scale(c, self.coeffs))


@dataclass(frozen=True)
class Subspace:
    """Subspace of Q^n with a canonical (reduced echelon) basis.

    Two Subspace values are equal exactly when the subspaces coincide.
    """

    ambient_dim: int
    basis: tuple[Vector, ...]

    @classmethod
    def span(cls, ambient_dim: int, vectors: Sequence[Sequence]) -> "Subspace":
        return cls(ambient_dim, tuple(span_basis(vectors, ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Sequence) -> bool:
        if self.dim == 0:
            return vec_is_zero(vector(v))
        m = RationalMatrix.from_columns([list(b) for b in self.basis])
        return in_image(m, vector(v)) is not None

    def is_zero(self) -> bool:
        return self.dim == 0


@dataclass(frozen=True)
class JacobiDefect:
    """One failing Jacobi triple: the cyclic sum over (i, j, k) is ``defect``."""

    triple: tuple[int, int, int]
    defect: Vector

    def __str__(self) -> str:
        parts = [f"{c}*e{m + 1}" for m, c in enumerate(self.defect) if c != 0]
        return f"jacobi defect on {self.triple}: " + " + ".join(parts)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    defects: tuple[JacobiDefect, ...] = ()

    def __str__(self) -> str:
        if self.ok:
            return "OK"
        return "; ".join(str(d) for d in self.defects)


def _normalize_brackets(dim: int, brackets: Mapping) -> dict[tuple[int, int], Vector]:
    """Shape-check a raw bracket table and coerce coefficients to Fractions.

    Raises StructureError for anything malformed; this is deliberately
    separate from the Jacobi check so callers can tell the two apart.
    """
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise StructureError(f"dimension must be an integer >= 1, got {dim!r}")
    table: dict[tuple[int, int], Vector] = {}
    for key, coeffs in brackets.items():
        try:
            i, j = key
        except (TypeError, ValueError):
            raise StructureError(f"bracket key {key!r} is not an index pair") from None
        if type(i) is not int or type(j) is not int:
            raise StructureError(f"bracket key {key!r} is not a pair of integers")
        if not (1 <= i < j <= dim):
            raise StructureError(
                f"bracket indices ({i},{j}) must satisfy 1 <= i < j <= {dim}")
        try:
            v = vector(coeffs)
        except (TypeError, ValueError, ZeroDivisionError):
            raise StructureError(f"bracket ({i},{j}) has a non-rational coefficient") from None
        if len(v) != dim:
            raise StructureError(
                f"bracket ({i},{j}) has {len(v)} coefficients, expected {dim}")
        if not vec_is_zero(v):
            table[(i, j)] = v
    return table


class AlgebraClass(enum.Enum):
    ABELIAN = "abelian"
    NILPOTENT = "nilpotent"
    SOLVABLE = "solvable"
    NON_SOLVABLE = "non_solvable"


@dataclass(frozen=True, eq=True)
class LieAlgebra:
    """Validated Lie algebra; construct through :meth:`from_brackets`."""

    dim: int
    basis_names: tuple[str, ...]
    brackets: tuple[tuple[tuple[int, int], Vector], ...]
    _table: dict = field(compare=False, repr=False, default_factory=dict)

    def __post_init__(self):
        self._table.update(dict(self.brackets))

    @classmethod
    def from_brackets(cls, dim: int, brackets: Mapping,
                      names: Sequence[str] | None = None) -> "LieAlgebra":
        """Build an algebra from a ``{(i, j): coeff vector}`` table.

        Raises StructureError for a malformed table and JacobiError, with
        the full report, when the table fails the Jacobi identity.
        """
        table = _normalize_brackets(dim, brackets)
        if names is None:
            names = tuple(f"e{i}" for i in range(1, dim + 1))
        else:
            names = tuple(str(s) for s in names)
            if len(names) != dim:
                raise StructureError(f"expected {dim} basis names, got {len(names)}")
        g = cls(dim, names, tuple(sorted(table.items())))
        report = _jacobi_report(g)
        if not report.ok:
            raise JacobiError(report)
        return g

    def bracket_basis(self, i: int, j: int) -> Vector:
        """[e_i, e_j] for 1-based indices in any order."""
        if type(i) is not int or type(j) is not int:
            raise StructureError(f"basis indices must be integers: ({i!r},{j!r})")
        if not (1 <= i <= self.dim and 1 <= j <= self.dim):
            raise StructureError(f"basis index out of range: ({i},{j})")
        if i == j:
            return zero_vector(self.dim)
        if i < j:
            return self._table.get((i, j), zero_vector(self.dim))
        return vec_scale(-1, self._table.get((j, i), zero_vector(self.dim)))

    def bracket(self, x: Sequence, y: Sequence) -> Vector:
        """[x, y] for coordinate vectors, by bilinearity."""
        x, y = vector(x), vector(y)
        if len(x) != self.dim or len(y) != self.dim:
            raise StructureError(f"bracket needs two vectors of length {self.dim}")
        out = list(zero_vector(self.dim))
        for (i, j), v in self.brackets:
            xi, xj = x[i - 1], x[j - 1]
            if not (xi or xj):
                continue
            c = xi * y[j - 1] - xj * y[i - 1]
            if c:
                for m, a in enumerate(v):
                    if a:
                        out[m] += c * a
        return tuple(out)

    def ad(self, x: Sequence) -> RationalMatrix:
        """Matrix of ad(x): columns are [x, e_j] in basis coordinates."""
        cols = [self.bracket(x, unit_vector(self.dim, j)) for j in range(self.dim)]
        return RationalMatrix.from_columns([list(c) for c in cols])


def _jacobi_report(g: LieAlgebra) -> ValidationReport:
    """Every triple i < j < k whose cyclic sum [[e_i, e_j], e_k] + ... is nonzero."""
    def nested(a: int, b: int, c: int) -> Vector:
        return g.bracket(g.bracket_basis(a, b), unit_vector(g.dim, c - 1))

    defects = []
    for i, j, k in combinations(range(1, g.dim + 1), 3):
        total = vec_add(vec_add(nested(i, j, k), nested(j, k, i)), nested(k, i, j))
        if not vec_is_zero(total):
            defects.append(JacobiDefect((i, j, k), total))
    return ValidationReport(ok=not defects, defects=tuple(defects))


def validate_lie_algebra(dim: int, brackets: Mapping) -> ValidationReport:
    """Check a raw structure-constant table against the Jacobi identity.

    Malformed tables raise StructureError; Jacobi failures are reported
    exhaustively in the returned report, one entry per bad triple, which is
    friendlier than fail-fast when authoring a new algebra.
    """
    try:
        LieAlgebra.from_brackets(dim, brackets)
    except JacobiError as exc:
        return exc.report
    return ValidationReport(ok=True)


def derived_subalgebra(g: LieAlgebra) -> Subspace:
    """Span of all bracket values [g, g]."""
    return Subspace.span(g.dim, [v for _, v in g.brackets])


def closed_one_forms(g: LieAlgebra) -> Subspace:
    """Annihilator of [g, g] inside the dual space.

    A one-form is closed exactly when it kills every bracket, so this space
    has dimension n - dim [g, g] = b1.
    """
    der = derived_subalgebra(g)
    if der.dim == 0:
        return Subspace.span(g.dim, [unit_vector(g.dim, j) for j in range(g.dim)])
    m = RationalMatrix.from_rows([list(b) for b in der.basis])
    return Subspace.span(g.dim, [list(v) for v in kernel_basis(m)])


def _bracket_span(g: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    vecs = [g.bracket(x, y) for x in a.basis for y in b.basis]
    return Subspace.span(g.dim, [list(v) for v in vecs])


def derived_series(g: LieAlgebra) -> list[Subspace]:
    """g, [g, g], [[g, g], [g, g]], ... up to the first term that does not shrink.

    The last term is 0 exactly when g is solvable.
    """
    series = [Subspace.span(g.dim, [unit_vector(g.dim, j) for j in range(g.dim)])]
    term = derived_subalgebra(g)
    while term.dim < series[-1].dim:
        series.append(term)
        # [x, x] = 0 and [y, x] = -[x, y], so each unordered pair spans enough
        term = Subspace.span(g.dim, [g.bracket(x, y) for x, y in combinations(term.basis, 2)])
    return series


def classify(g: LieAlgebra) -> AlgebraClass:
    """Most specific of abelian / nilpotent / solvable / non_solvable.

    Nilpotency is decided by the lower central series, solvability by the
    derived series; abelian algebras are exactly those with an empty bracket
    table.
    """
    if not g.brackets:
        return AlgebraClass.ABELIAN
    full = Subspace.span(g.dim, [unit_vector(g.dim, j) for j in range(g.dim)])

    term = derived_subalgebra(g)
    while True:
        nxt = _bracket_span(g, full, term)
        if nxt.dim == term.dim:
            break
        term = nxt
    if term.dim == 0:
        return AlgebraClass.NILPOTENT
    if derived_series(g)[-1].dim == 0:
        return AlgebraClass.SOLVABLE
    return AlgebraClass.NON_SOLVABLE


def is_unimodular(g: LieAlgebra) -> bool:
    """True when trace(ad e_i) = 0 for every basis vector."""
    return all(g.ad(unit_vector(g.dim, j)).trace() == 0 for j in range(g.dim))


def change_basis(g: LieAlgebra, m: RationalMatrix) -> LieAlgebra:
    """Rewrite the algebra in the basis whose vectors are the columns of ``m``.

    Raises ValueError when ``m`` is singular. The result is re-validated,
    although Jacobi holds automatically (it is basis-independent).
    """
    if (m.rows, m.cols) != (g.dim, g.dim):
        raise ValueError(f"change of basis must be {g.dim}x{g.dim}")
    minv = invert(m)
    brackets = {}
    for a in range(1, g.dim + 1):
        for b in range(a + 1, g.dim + 1):
            old = g.bracket(m.column(a - 1), m.column(b - 1))
            new = minv.apply(old)
            if not vec_is_zero(new):
                brackets[(a, b)] = new
    return LieAlgebra.from_brackets(g.dim, brackets, names=g.basis_names)


def pullback_one_form(omega: OneForm, m: RationalMatrix) -> OneForm:
    """Coefficients of a one-form in the new basis given by the columns of ``m``.

    The j-th new coefficient is omega evaluated on the j-th new basis vector,
    i.e. the transpose of ``m`` applied to the old coefficients.
    """
    return OneForm(m.transpose().apply(omega.coeffs))


def random_invertible(n: int, rng) -> RationalMatrix:
    """Random invertible matrix with entries in -3..3; used by tests for basis changes."""
    while True:
        m = RationalMatrix(n, n, [[rng.randint(-3, 3) for _ in range(n)]
                                  for _ in range(n)])
        if rank(m) == n:
            return m
