"""Lie algebras given by rational structure constants.

An algebra is stored as its dimension, basis names and one integer image of
its bracket table: the lcm ``L`` of all coefficient denominators and, per nonzero
[e_i, e_j] with i < j in sorted order, its nonzero ``(m, L * C_ij^m)`` over 0-based
m. Every way to make an algebra hands a sparse ``{(i, j): {m: C_ij^m}}`` map to
one step that makes the record and checks the Jacobi identity once (on packed
ints). Indices facing the user are 1-based (e_1 ... e_n), coordinates are tuples
of Fractions, and the dense Fraction table ``brackets`` is built only on request.

Every value is immutable after construction and every operation is a pure
function; the one exception is ``_memo``, which caches a fact of an object on it.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from itertools import combinations, product
from math import lcm
from typing import Mapping, Sequence

from .errors import JacobiError, StructureError, _require_types
from .linalg import (
    RationalMatrix,
    Vector,
    _augment,
    _dense,
    _echelon,
    _exact,
    _integer_rows,
    _iterable,
    _kernel,
    _reduce,
    in_image,
    kernel_basis,
    rank,
    span_basis,
    unit_vector,
    vector,
    zero_vector,
)

# unused here, kept importable because perfbench/tracer.py wraps this name
from .linalg import invert  # noqa: F401


def _memo(obj, name: str, build):
    """``build(obj)``, built on the first call and then the same object on every
    call: kept in ``obj.__dict__`` under ``name``, outside the ``_record`` fields
    that ``==``, ``hash`` and ``repr`` read and the constructor takes. A failure
    is not kept; threads racing on a first call return the first value stored."""
    try:
        return obj.__dict__[name]
    except KeyError:
        return obj.__dict__.setdefault(name, build(obj))


def _record(cls):
    """Make ``cls`` a frozen value class. Its own annotations, in order, are its
    fields, and a class attribute is a field's default. Adds, unless ``cls``
    defines them: ``__init__`` by position or keyword, then ``__post_init__``
    if defined; ``__eq__`` on fields for the same class; ``hash`` of the field
    tuple; a ``Name(field=value, ...)`` repr; assignment and deletion raising
    AttributeError. ``__post_init__`` sets derived attributes with
    ``object.__setattr__``."""
    names, own = tuple(cls.__annotations__), cls.__dict__
    params = ", ".join(f"{n}=_d_{n}" if n in own else n for n in names)
    space = {"_set": object.__setattr__, **{f"_d_{n}": own[n] for n in names if n in own}}
    mine = "(" + "".join(f"self.{n}, " for n in names) + ")"
    body = "".join(f"    _set(self, {n!r}, {n})\n" for n in names)
    post = "    self.__post_init__()\n" if "__post_init__" in own else ""
    init = "" if "__init__" in own else f"def __init__(self, {params}):\n{body}{post}"
    exec(init + "def __eq__(self, other):\n    if other.__class__ is self.__class__:\n"
         f"        return {mine} == {mine.replace('self.', 'other.')}\n"
         "    return NotImplemented\n"
         f"def __hash__(self):\n    return hash({mine})\n", space)

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for fn in (space.get("__init__"), space["__eq__"], space["__hash__"], __repr__, __setattr__,
               __delattr__):
        if fn and fn.__name__ not in own:
            setattr(cls, fn.__name__, fn)
    return cls


@_record
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
        return not any(self.coeffs)

    def evaluate(self, v: Sequence) -> Fraction:
        """Pairing with a vector of the algebra."""
        if len(v := vector(v)) != self.dim:
            raise ValueError(f"cannot pair a one-form of dimension {self.dim} "
                             f"with a vector of length {len(v)}")
        return sum((a * b for a, b in zip(self.coeffs, v) if a), Fraction(0))

    def __add__(self, other: "OneForm") -> "OneForm":
        if not isinstance(other, OneForm):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError(f"cannot add one-forms of dimensions {self.dim} and {other.dim}")
        return OneForm(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "OneForm":
        return OneForm(tuple(-a if a else a for a in self.coeffs))

    def __sub__(self, other: "OneForm") -> "OneForm":
        return self + (-other) if isinstance(other, OneForm) else NotImplemented

    def scale(self, c) -> "OneForm":
        c = c if type(c) is Fraction else _exact(c)
        return OneForm(tuple(c * a if a else a for a in self.coeffs))


@_record
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
        columns = RationalMatrix(self.dim, self.ambient_dim, self.basis).transpose()
        return in_image(columns, v) is not None

    def is_zero(self) -> bool:
        return self.dim == 0


@_record
class JacobiDefect:
    """One failing Jacobi triple: the cyclic sum over (i, j, k) is ``defect``."""

    triple: tuple[int, int, int]
    defect: Vector

    def __str__(self) -> str:
        parts = [f"{c}*e{m + 1}" for m, c in enumerate(self.defect) if c != 0]
        return f"jacobi defect on {self.triple}: " + " + ".join(parts)


@_record
class ValidationReport:
    ok: bool
    defects: tuple[JacobiDefect, ...] = ()

    def __str__(self) -> str:
        if self.ok:
            return "OK"
        return "; ".join(str(d) for d in self.defects)


MAX_DIM = 100_000  # the largest dimension taken; it admits the catalog's abelian 15000


def _dimension(dim) -> int:
    """``dim`` if it is an int in 1..MAX_DIM, else a StructureError, raised before
    anything of that size is built."""
    if type(dim) is not int or not 1 <= dim <= MAX_DIM:
        raise StructureError(f"dimension must be an integer in 1..{MAX_DIM}, got {dim!r}")
    return dim


def _normalize_brackets(dim: int, brackets: Mapping) -> dict[tuple[int, int], dict[int, Fraction]]:
    """Shape-check a raw bracket table and coerce it to ``{(i, j): {m: C_ij^m}}``.

    Raises StructureError for anything malformed; this is deliberately
    separate from the Jacobi check so callers can tell the two apart.
    """
    _dimension(dim)
    if not isinstance(brackets, Mapping):
        raise StructureError(f"brackets must be a mapping, got a {type(brackets).__name__}")
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
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
        table[(i, j)] = {m: c for m, c in enumerate(v) if c}
    return table


def _built(dim: int, table: Mapping[tuple[int, int], Mapping[int, Fraction]],
           names: Sequence[str] | None = None) -> "LieAlgebra":
    """The algebra of a ``{(i, j): {m: C_ij^m}}`` map (i < j, 0-based m, Fractions,
    zeros allowed) and ``names`` (default e1..en), the one step from a bracket map
    to the record. StructureError for bad names, JacobiError if the Jacobi identity
    fails."""
    if names is None:
        names = tuple(f"e{i}" for i in range(1, dim + 1))
    else:
        names = tuple(_iterable(names, "basis names"))
        if not all(isinstance(s, str) for s in names):
            raise StructureError(f"basis names must be strings, got {names!r}")
        if len(names) != dim:
            raise StructureError(f"expected {dim} basis names, got {len(names)}")
    scale = lcm(*(c.denominator for v in table.values() for c in v.values()))
    g = LieAlgebra(dim, names, scale, tuple(
        (key, tuple((m, c.numerator * (scale // c.denominator)) for m, c in sorted(v.items()) if c))
        for key, v in sorted(table.items()) if any(v.values())))
    if not (report := _jacobi_report(g)).ok:
        raise JacobiError(report)
    return g


class AlgebraClass(enum.Enum):
    ABELIAN = "abelian"
    NILPOTENT = "nilpotent"
    SOLVABLE = "solvable"
    NON_SOLVABLE = "non_solvable"


@_record
class LieAlgebra:
    """Validated Lie algebra; construct through :meth:`from_brackets`. The constructor
    takes L (``_scale``) and the int table as sorted ``((i, j), ((m, L * C_ij^m), ...))``
    pairs (``_int_table``) unchecked."""

    dim: int
    basis_names: tuple[str, ...]
    _scale: int
    _int_table: tuple[tuple[tuple[int, int], tuple[tuple[int, int], ...]], ...]

    @classmethod
    def from_brackets(cls, dim: int, brackets: Mapping,
                      names: Sequence[str] | None = None) -> "LieAlgebra":
        """Build an algebra from a ``{(i, j): coeff vector}`` table.

        Raises StructureError for a malformed table and JacobiError, with
        the full report, when the table fails the Jacobi identity.
        """
        return _built(dim, _normalize_brackets(dim, brackets), names)

    @property
    def brackets(self) -> tuple[tuple[tuple[int, int], Vector], ...]:
        """The nonzero [e_i, e_j], i < j, as sorted ``((i, j), dense Fraction tuple)``
        pairs; read-only, built on the first call (``_memo``)."""
        return _memo(self, "_brackets", lambda g: tuple(
            (key, _dense({m: Fraction(c, g._scale) for m, c in terms}, g.dim))
            for key, terms in g._int_table))

    def bracket_basis(self, i: int, j: int) -> Vector:
        """[e_i, e_j] for 1-based indices in any order."""
        if type(i) is not int or type(j) is not int:
            raise StructureError(f"basis indices must be integers: ({i!r},{j!r})")
        if not (1 <= i <= self.dim and 1 <= j <= self.dim):
            raise StructureError(f"basis index out of range: ({i},{j})")
        return self.bracket(unit_vector(self.dim, i - 1), unit_vector(self.dim, j - 1))

    def bracket(self, x: Sequence, y: Sequence) -> Vector:
        """[x, y] for coordinate vectors, by bilinearity over the int table."""
        x, y = vector(x), vector(y)
        if len(x) != self.dim or len(y) != self.dim:
            raise StructureError(f"bracket needs two vectors of length {self.dim}")
        out = self._int_bracket(dict(enumerate(x)), dict(enumerate(y)))
        return tuple(Fraction(out.get(m, 0)) / self._scale for m in range(self.dim))

    def _int_bracket(self, x: dict[int, int], y: dict[int, int]) -> dict[int, int]:
        """L [x, y] for sparse rows ``{0-based index: int}``, summed over the table at scale L,
        with no zero stored; bilinear, so Fraction rows give it in Fractions."""
        out: dict[int, int] = {}
        for (i, j), terms in self._int_table:
            if c := x.get(i - 1, 0) * y.get(j - 1, 0) - x.get(j - 1, 0) * y.get(i - 1, 0):
                for m, a in terms:
                    out[m] = out.get(m, 0) + c * a
        return {m: v for m, v in out.items() if v}


def _inner_diagonal(g: LieAlgebra) -> list:
    """The x whose ad x is diagonal in the given basis, with their action.

    Such an x acts by [x, e_i] = a_i(x) e_i. The x are the kernel of the
    integer system [x, e_i]_m = 0 for every m != i, read off the table at
    scale L. Returns a basis of them as pairs (a, x) of 0-based sparse int
    rows, a = L * (a_1(x) .. a_n(x)): the nonzero a are independent, and the
    x with a = {} (ad x = 0) are a basis of the center. Each row lies in one
    direct factor of the given basis, as ``cohomology._live`` needs. Built once (``_memo``).
    """
    return _memo(g, "_inner_diagonal", _diagonal_elements)


def _diagonal_elements(g: LieAlgebra) -> list:
    n = g.dim
    # off[i, m]: the coefficients of the x_j in [x, e_i]_m; diag[i]: in L a_i(x)
    off: dict[tuple[int, int], dict[int, int]] = {}
    diag: dict[int, dict[int, int]] = {}
    for (i, j), terms in g._int_table:
        for m, c in terms:
            # [e_i, e_j] = sum (c / L) e_m: x_i feeds [x, e_j], and -x_j feeds [x, e_i]
            for src, dst, v in ((i - 1, j - 1, c), (j - 1, i - 1, -c)):
                row = diag.setdefault(dst, {}) if m == dst else off.setdefault((dst, m), {})
                row[src] = v
    # in a random basis the rows of [x, e_1] and [x, e_2] often leave x = 0 alone
    if len(_echelon([r for (i, _), r in off.items() if i < 2])[1]) == n:
        return []
    # [a | x] per kernel vector: in echelon form the rows that lead inside a
    # have independent a, and the rows that lead inside x span a = 0
    rows = []
    for x in _integer_rows(_kernel(list(off.values()), n)):
        a = {i: s for i, d in diag.items() if (s := sum(x.get(j, 0) * v for j, v in d.items()))}
        rows.append(a | {n + j: v for j, v in x.items()})
    return [({i: v for i, v in row.items() if i < n}, {j - n: v for j, v in row.items() if j >= n})
            for row in _echelon(rows)[0]]


def _jacobi_report(g: LieAlgebra) -> ValidationReport:
    """Every triple i < j < k whose cyclic sum [[e_i, e_j], e_k] + ... is nonzero.

    Visits, in sorted order, the triples with a term [[e_a, e_b], e_c] whose [e_a, e_b]
    holds an e_m with a stored [e_m, e_c]. Sums run over the int table at scale L^2 on
    packed ints, [e_m, e_c] as sum_out L C_mc^out 2^(r s), r the position of out among the
    sorted indices the brackets hold, s the bit length of 3 W M^2 (W the most terms of a bracket, M
    the largest |L C|). Each entry of a triple's sum adds at most 3 W products of size <= M^2,
    so it is below 2^s in size: the lowest nonzero entry would leave a nonzero remainder mod
    2^s, and the packed sum is zero exactly when every entry is. A nonzero triple is summed
    again entry by entry.
    """
    table, n = g._int_table, g.dim
    # [e_a, e_b] for a != b in either order, as (0-based m, L * C_ab^m), and the
    # indices that share a stored bracket with each index
    signed, partners = {}, {}
    for (i, j), terms in table:
        signed[i, j], signed[j, i] = terms, tuple((m, -x) for m, x in terms)
        partners.setdefault(i, []).append(j)
        partners.setdefault(j, []).append(i)
    triples = set()
    for (a, b), terms in table:
        for c in set().union(*(partners.get(m + 1, ()) for m, _ in terms)) - {a, b}:
            triples.add((c, a, b) if c < a else (a, c, b) if c < b else (a, b, c))
    if not triples:
        return ValidationReport(ok=True)
    position = {m: r for r, m in enumerate(sorted({m for _, terms in table for m, _ in terms}))}
    top = max(abs(x) for _, terms in table for _, x in terms)
    s = (3 * max(len(terms) for _, terms in table) * top * top).bit_length()
    packed = {}  # packed[c][m - 1]: [e_m, e_c] as one int, for the e_m a bracket holds
    for (i, j), terms in table:
        if i - 1 in position or j - 1 in position:
            p = sum([y << position[out] * s for out, y in terms])
            packed.setdefault(j, {})[i - 1], packed.setdefault(i, {})[j - 1] = p, -p
    defects = []
    for i, j, k in sorted(triples):
        # [[e_a, e_b], e_c] summed over the three cyclic orders
        total = 0
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            if col := packed.get(c):
                for m, x in signed.get((a, b), ()):
                    total += x * col.get(m, 0)
        if total:
            acc: dict[int, int] = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for m, x in signed.get((a, b), ()):
                    for out, y in signed.get((m + 1, c), ()):
                        acc[out] = acc.get(out, 0) + x * y
            defect = tuple(Fraction(acc.get(m, 0), g._scale * g._scale) for m in range(n))
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
    _require_types((g, LieAlgebra))
    return Subspace.span(g.dim, [_dense(dict(terms), g.dim) for _, terms in g._int_table])


def closed_one_forms(g: LieAlgebra) -> Subspace:
    """Annihilator of [g, g] inside the dual space.

    A one-form is closed exactly when it kills every bracket, so this space
    has dimension n - dim [g, g] = b1.
    """
    der = derived_subalgebra(g)
    return Subspace.span(g.dim, kernel_basis(RationalMatrix(der.dim, g.dim, der.basis)))


def derived_series(g: LieAlgebra) -> list[Subspace]:
    """g, [g, g], [[g, g], [g, g]], ... up to the first term that does not shrink.

    The last term is 0 exactly when g is solvable. Each term after g is read
    off its int rows (``_series_rows``).
    """
    # the unit vectors are their own reduced echelon basis
    return [Subspace(g.dim, tuple(unit_vector(g.dim, j) for j in range(g.dim)))] + [
        Subspace(g.dim, tuple(_dense({j: Fraction(x, r[min(r)]) for j, x in r.items()}, g.dim)
                              for r in rows)) for rows in _series_rows(g)]


def _series_rows(g: LieAlgebra, lower: bool = False) -> list[list[dict[int, int]]]:
    """The terms after g of the derived series, or with ``lower`` of the lower central
    series, up to the first that does not shrink, each as the int rows of its reduced
    echelon basis (row i is the i-th basis vector times an int). The first spans the
    int table; each next one, the int brackets (``LieAlgebra._int_bracket``) of the
    last one's rows with each other, or with each e_j, j in a stored bracket (others give 0)."""
    n, series, rows = g.dim, [], [dict(terms) for _, terms in g._int_table]
    units = [{i - 1: 1} for i in sorted({i for p, _ in g._int_table for i in p})] if lower else []
    while True:
        echelon, pivots = _echelon(rows)
        if len(pivots) == (len(series[-1]) if series else n):
            return series
        _reduce(echelon, pivots)
        series.append(echelon)
        # derived: [x, x] = 0 and [y, x] = -[x, y], so each unordered pair spans enough
        rows = [g._int_bracket(x, y)
                for x, y in (product(units, echelon) if lower else combinations(echelon, 2))]


def classify(g: LieAlgebra) -> AlgebraClass:
    """Most specific of abelian / nilpotent / solvable / non_solvable.

    Nilpotency is decided by the lower central series, solvability by the
    derived series (``_series_rows``): each ends at 0 exactly then. Abelian
    algebras are exactly those with an empty bracket table.
    """
    _require_types((g, LieAlgebra))
    if not g._int_table:
        return AlgebraClass.ABELIAN
    for lower, kind in ((True, AlgebraClass.NILPOTENT), (False, AlgebraClass.SOLVABLE)):
        if (series := _series_rows(g, lower)) and not series[-1]:
            return kind
    return AlgebraClass.NON_SOLVABLE


def is_unimodular(g: LieAlgebra) -> bool:
    """True when trace(ad e_i) = 0 for every basis vector.

    Read off the integer table: a stored [e_i, e_j] adds its e_j coefficient
    to tr ad e_i and, as [e_j, e_i] = -[e_i, e_j], minus its e_i coefficient
    to tr ad e_j.
    """
    _require_types((g, LieAlgebra))
    trace = [0] * g.dim
    for (i, j), terms in g._int_table:
        for m, c in terms:
            if m == j - 1:
                trace[i - 1] += c
            elif m == i - 1:
                trace[j - 1] -= c
    return not any(trace)


def change_basis(g: LieAlgebra, m: RationalMatrix) -> LieAlgebra:
    """Rewrite the algebra in the basis whose vectors are the columns of ``m``.

    In ints: with D the lcm of the denominators of ``m``, one elimination of
    ``[D m | L D^2 [m e_a, m e_b]]`` (targets from ``_int_bracket`` on the columns of
    D m) gives every new bracket times L D. ``m`` is singular, a ValueError, exactly
    when a column of D m is no pivot. The result is re-validated, although Jacobi
    holds automatically (it is basis-independent).
    """
    _require_types((g, LieAlgebra), (m, RationalMatrix))
    n = g.dim
    if (m.rows, m.cols) != (n, n):
        raise ValueError(f"change of basis must be {n}x{n}")
    d = lcm(*(q.denominator for r in m._rows for q in r.values()))
    dm = [{j: q.numerator * (d // q.denominator) for j, q in r.items()} for r in m._rows]
    cols = [{i: r[j] for i, r in enumerate(dm) if j in r} for j in range(n)]
    pairs = list(combinations(range(n), 2))
    echelon, pivots = _echelon(_augment(RationalMatrix._adopt(n, n, dm), (
        g._int_bracket(cols[a], cols[b]) for a, b in pairs)))
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    _reduce(echelon, pivots)
    scales = [row[i] * g._scale * d for i, row in enumerate(echelon)]
    return _built(n, {(a + 1, b + 1): {i: Fraction(row[k], q) for i, (row, q)
                                       in enumerate(zip(echelon, scales)) if k in row}
                      for k, (a, b) in enumerate(pairs, n)}, g.basis_names)


def pullback_one_form(omega: OneForm, m: RationalMatrix) -> OneForm:
    """Coefficients of a one-form in the new basis given by the columns of ``m``.

    The j-th new coefficient is omega evaluated on the j-th new basis vector:
    one pass over the sparse rows of ``m`` adds omega_i times row i if omega_i != 0.
    """
    _require_types((omega, OneForm), (m, RationalMatrix))
    if omega.dim != m.rows:
        raise ValueError(f"cannot pull back a one-form of dimension {omega.dim} "
                         f"along a change of basis of dimension {m.rows}")
    out = [Fraction(0)] * m.cols
    for w, row in zip(omega.coeffs, m._rows):
        if w:
            for j, x in row.items():
                out[j] += w * x
    return OneForm(out)


def random_invertible(n: int, rng) -> RationalMatrix:
    """Random invertible matrix with entries in -3..3; used by tests for basis changes."""
    while True:
        m = RationalMatrix(n, n, [[rng.randint(-3, 3) for _ in range(n)]
                                  for _ in range(n)])
        if rank(m) == n:
            return m
