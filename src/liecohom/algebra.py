"""Lie algebras given by rational structure constants.

An algebra is stored as its dimension, basis names and the bracket table
``{(i, j): coefficient vector}`` for 1 <= i < j <= n; antisymmetry is
implicit and the Jacobi identity is checked at construction time. All
indices facing the user are 1-based (matching the e_1 ... e_n notation),
coordinates are plain tuples of Fractions. Each algebra's one private copy
of its table is an integer image: the lcm ``L`` of all coefficient denominators
and, per stored pair, the nonzero ``(m, L * C_ij^m)`` as ints. Brackets, the
Jacobi check, closedness and ``d_w`` sum over it; a change of basis is one solve.

Every value is immutable after construction and every operation is a pure
function. The one exception is a private memo: the weight data of an algebra
(``weights.adapted_basis``) is computed once per algebra object and stored on
it, and its exceptional set once per weight data object. A memo never
changes ``==`` or ``hash``, and ``dataclasses.replace`` builds a new empty
one. Concurrent use still needs no lock: two threads that race on an empty
memo each compute the same value, and the first one stored is kept.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Mapping, Sequence

from .errors import JacobiError, StructureError
from .linalg import (
    RationalMatrix,
    Vector,
    in_image,
    kernel_basis,
    rank,
    solve,
    span_basis,
    unit_vector,
    vec_add,
    vec_is_zero,
    vec_scale,
    vector,
    zero_vector,
)

# unused here, kept importable because perfbench/tracer.py wraps this name
from .linalg import invert  # noqa: F401


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
        except StructureError as exc:
            raise StructureError(f"bracket ({i},{j}): {exc}") from None
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
    # built per instance, never passed in, so ``dataclasses.replace`` shares
    # neither the integer table nor the memo with the algebra it copies
    # the lcm L of all coefficient denominators, and each stored bracket as
    # ((m, L * C_ij^m), ...) over its nonzero 0-based positions m
    _scale: int = field(init=False, compare=False, repr=False)
    _int_table: dict = field(init=False, compare=False, repr=False)
    # the WeightData of this algebra once ``weights.adapted_basis`` succeeds
    _weight_memo: list = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        scale = lcm(*(c.denominator for _, v in self.brackets for c in v if c))
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_int_table", {
            key: tuple((m, c.numerator * (scale // c.denominator))
                       for m, c in enumerate(v) if c)
            for key, v in self.brackets})
        object.__setattr__(self, "_weight_memo", [])

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
        return self.bracket(unit_vector(self.dim, i - 1), unit_vector(self.dim, j - 1))

    def bracket(self, x: Sequence, y: Sequence) -> Vector:
        """[x, y] for coordinate vectors, by bilinearity, summed in ints."""
        x, y = vector(x), vector(y)
        if len(x) != self.dim or len(y) != self.dim:
            raise StructureError(f"bracket needs two vectors of length {self.dim}")
        # x and y with their denominators cleared, against the table at scale L
        dx, dy = lcm(*(q.denominator for q in x)), lcm(*(q.denominator for q in y))
        x = [q.numerator * (dx // q.denominator) for q in x]
        y = [q.numerator * (dy // q.denominator) for q in y]
        out = [0] * self.dim
        for (i, j), terms in self._int_table.items():
            xi, xj = x[i - 1], x[j - 1]
            if not (xi or xj):
                continue
            c = xi * y[j - 1] - xj * y[i - 1]
            if c:
                for m, a in terms:
                    out[m] += c * a
        return tuple(Fraction(v, self._scale * dx * dy) for v in out)

    def ad(self, x: Sequence) -> RationalMatrix:
        """Matrix of ad(x): columns are [x, e_j] in basis coordinates."""
        cols = [self.bracket(x, unit_vector(self.dim, j)) for j in range(self.dim)]
        return RationalMatrix.from_columns([list(c) for c in cols])


def _jacobi_report(g: LieAlgebra) -> ValidationReport:
    """Every triple i < j < k whose cyclic sum [[e_i, e_j], e_k] + ... is nonzero.

    A triple none of whose three pairs has a stored bracket sums to zero, so
    only the triples that contain a stored pair are visited, in sorted order.
    The sums run over the integer table, at scale L^2; only a nonzero sum is
    divided back into the exact defect.
    """
    # [e_a, e_b] for a != b in either order, as (0-based m, L * C_ab^m)
    signed = {}
    for (i, j), terms in g._int_table.items():
        signed[i, j] = terms
        signed[j, i] = tuple((m, -x) for m, x in terms)

    defects = []
    triples = {tuple(sorted((i, j, k))) for (i, j), _ in g.brackets
               for k in range(1, g.dim + 1) if k != i and k != j}
    for i, j, k in sorted(triples):
        acc: dict[int, int] = {}
        # [[e_a, e_b], e_c] summed over the three cyclic orders
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, x in signed.get((a, b), ()):
                for out, y in signed.get((m + 1, c), ()):
                    acc[out] = acc.get(out, 0) + x * y
        if any(acc.values()):
            square = g._scale * g._scale
            defect = tuple(Fraction(acc.get(m, 0), square) for m in range(g.dim))
            defects.append(JacobiDefect((i, j, k), defect))
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

    One solve of ``m u = [m e_a, m e_b]`` gives every new bracket u. Its first
    targets, the unit vectors, make a singular ``m`` raise ValueError even when
    every bracket is zero. The result is re-validated, although Jacobi holds
    automatically (it is basis-independent).
    """
    n = g.dim
    if (m.rows, m.cols) != (n, n):
        raise ValueError(f"change of basis must be {n}x{n}")
    pairs = list(combinations(range(n), 2))
    solved = solve(m, [unit_vector(n, j) for j in range(n)]
                   + [g.bracket(m.column(a), m.column(b)) for a, b in pairs])
    if solved is None:
        raise ValueError("singular matrix")
    brackets = {(a + 1, b + 1): v for (a, b), v in zip(pairs, solved[n:])
                if not vec_is_zero(v)}
    return LieAlgebra.from_brackets(n, brackets, names=g.basis_names)


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
