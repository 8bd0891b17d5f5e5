"""Exterior algebra of the dual space and its differentials.

Forms are stored sparsely: a map from strictly increasing 1-based index
tuples to nonzero rational coefficients. The basis of each graded piece is
ordered lexicographically, which fixes every matrix layout once and for all.

Two differentials live here. The plain one acts on generators by

    d e^k = - sum_{i<j} C_ij^k e^i ^ e^j

and extends by the graded Leibniz rule; it squares to zero exactly when the
Jacobi identity holds. The twisted differential adds a wedge with a closed
one-form, d_w = d + w ^ . ; closedness of w is a hard precondition because
d_w fails to square to zero otherwise.

The matrices of d_w are assembled in integer arithmetic. The algebra keeps
its bracket table scaled by the lcm L of its denominators (``LieAlgebra``);
one scale S = lcm(L, denominators of w) turns d e^k and w into int tables,
and every image row is S times the row of d_w. Rank, kernel and the pivots
of a solve do not change under that scaling, so the elimination reads the
int rows as they are; ``differential_matrices`` divides by S to give the
rational matrices of d_w itself.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterable, Mapping, Sequence

from .algebra import LieAlgebra, OneForm
from .errors import NonClosedFormError, StructureError
from .linalg import RationalMatrix, Vector, _exact, _integer_rows, _nonzeros


def sort_sign(indices: Sequence[int]) -> tuple[tuple[int, ...], int] | None:
    """Sorted tuple and permutation sign, or None when an index repeats."""
    seq = list(indices)
    sign = 1
    # insertion sort; counts transpositions, fine at these sizes
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and seq[j - 1] == seq[j]:
            return None
    return tuple(seq), sign


class ExteriorForm:
    """Homogeneous element of the exterior algebra on e^1 .. e^n."""

    __slots__ = ("dim", "degree", "terms")

    def __init__(self, dim: int, degree: int, terms: Mapping[tuple[int, ...], Fraction] | None = None):
        if type(dim) is not int or type(degree) is not int:
            raise StructureError(f"dimension and degree must be integers, got {dim!r}, {degree!r}")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        self.dim = dim
        self.degree = degree
        clean: dict[tuple[int, ...], Fraction] = {}
        for idx, c in (terms or {}).items():
            if any(type(i) is not int for i in idx):
                raise StructureError(f"index tuple {idx!r} must hold integers")
            idx = tuple(idx)
            c = c if type(c) is Fraction else _exact(c)
            if c == 0:
                continue
            if len(idx) != degree:
                raise ValueError(f"index tuple {idx} does not match degree {degree}")
            if any(not 1 <= i <= dim for i in idx):
                raise ValueError(f"index out of range in {idx}")
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise ValueError(f"index tuple {idx} is not strictly increasing")
            clean[idx] = c
        self.terms = clean

    @classmethod
    def zero(cls, dim: int, degree: int) -> "ExteriorForm":
        return cls(dim, degree)

    @classmethod
    def scalar(cls, dim: int, value) -> "ExteriorForm":
        return cls(dim, 0, {(): value})

    @classmethod
    def basis(cls, dim: int, indices: Sequence[int]) -> "ExteriorForm":
        """The basis form e^{i_1} ^ ... ^ e^{i_p} for increasing indices."""
        return cls(dim, len(indices), {tuple(indices): Fraction(1)})

    @classmethod
    def from_one_form(cls, omega: OneForm) -> "ExteriorForm":
        return cls(omega.dim, 1,
                   {(i + 1,): c for i, c in enumerate(omega.coeffs) if c != 0})

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, indices: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(indices), Fraction(0))

    def __add__(self, other: "ExteriorForm") -> "ExteriorForm":
        if (self.dim, self.degree) != (other.dim, other.degree):
            raise ValueError("cannot add forms of different dimension or degree")
        out = dict(self.terms)
        for idx, c in other.terms.items():
            out[idx] = out.get(idx, Fraction(0)) + c
        return ExteriorForm(self.dim, self.degree, out)

    def __neg__(self) -> "ExteriorForm":
        return self.scale(-1)

    def __sub__(self, other: "ExteriorForm") -> "ExteriorForm":
        return self + (-other)

    def scale(self, c) -> "ExteriorForm":
        c = c if type(c) is Fraction else _exact(c)
        return ExteriorForm(self.dim, self.degree,
                            {idx: c * v for idx, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExteriorForm):
            return NotImplemented
        return (self.dim, self.degree, self.terms) == (other.dim, other.degree, other.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return f"ExteriorForm({self.dim}, {self.degree}, 0)"
        parts = []
        for idx in sorted(self.terms):
            mono = "^".join(f"e{i}" for i in idx) if idx else "1"
            parts.append(f"{self.terms[idx]}*{mono}")
        return "ExteriorForm(" + " + ".join(parts) + ")"


def wedge(a: ExteriorForm, b: ExteriorForm) -> ExteriorForm:
    """Graded-commutative product; a^b = (-1)^{deg a deg b} b^a.

    Degrees above the ambient dimension are allowed and give the zero form
    of the formal degree.
    """
    if a.dim != b.dim:
        raise ValueError("wedge of forms over different ambient dimensions")
    out: dict[tuple[int, ...], Fraction] = {}
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            merged = sort_sign(ia + ib)
            if merged is None:
                continue
            idx, sign = merged
            # the constructor drops the entries that cancel
            out[idx] = out.get(idx, Fraction(0)) + sign * ca * cb
    return ExteriorForm(a.dim, a.degree + b.degree, out)


def _generator_differentials(dim: int, brackets: Iterable[tuple[tuple[int, int], Vector]]):
    """d e^k as sparse 2-forms, one per generator, from the bracket table."""
    gens: list[dict[tuple[int, int], Fraction]] = [dict() for _ in range(dim)]
    for (i, j), coeffs in brackets:
        for k, c in enumerate(coeffs):
            if c != 0:
                gens[k][(i, j)] = -c
    return gens


def _check_form(g: LieAlgebra, xi: ExteriorForm) -> None:
    if not isinstance(xi, ExteriorForm):
        raise StructureError(f"expected an ExteriorForm, got {type(xi).__name__}")
    if xi.dim != g.dim:
        raise ValueError("form dimension does not match the algebra")


def ce_differential(g: LieAlgebra, xi: ExteriorForm) -> ExteriorForm:
    """Chevalley-Eilenberg differential of a form, one degree up."""
    _check_form(g, xi)
    gens = _generator_differentials(g.dim, g.brackets)
    out: dict[tuple[int, ...], Fraction] = {}
    for idx, c in xi.terms.items():
        for t, k in enumerate(idx):
            pos_sign = -1 if t % 2 else 1
            for (i, j), dc in gens[k - 1].items():
                merged = sort_sign(idx[:t] + (i, j) + idx[t + 1:])
                if merged is None:
                    continue
                new_idx, sign = merged
                out[new_idx] = out.get(new_idx, Fraction(0)) + pos_sign * sign * c * dc
    return ExteriorForm(g.dim, xi.degree + 1, out)


def is_closed(g: LieAlgebra, omega: OneForm) -> bool:
    """Whether d omega = 0, i.e. omega kills every bracket.

    Reads the integer table with w's denominators cleared, so each sum is
    over ints and is a positive multiple of w([e_i, e_j]).
    """
    if omega.dim != g.dim:
        raise ValueError("one-form length does not match the algebra dimension")
    w = _integer_rows([_nonzeros(omega.coeffs)])[0]
    return not any(sum(w[m] * x for m, x in terms if m in w)
                   for terms in g._int_table.values())


def _require_closed(g: LieAlgebra, omega: OneForm) -> None:
    # every twisted-complex query passes here first, so its types are checked here
    if not (isinstance(g, LieAlgebra) and isinstance(omega, OneForm)):
        raise StructureError(f"expected a LieAlgebra and a OneForm, got "
                             f"{type(g).__name__} and {type(omega).__name__}")
    if not is_closed(g, omega):
        raise NonClosedFormError(
            "twisting one-form is not closed; the deformed differential would "
            "not square to zero")


def deformed_differential(g: LieAlgebra, omega: OneForm, xi: ExteriorForm) -> ExteriorForm:
    """d_w(xi) = d(xi) + w ^ xi for a closed one-form w."""
    _require_closed(g, omega)
    return ce_differential(g, xi) + wedge(ExteriorForm.from_one_form(omega), xi)


def _check_degree(p, n: int) -> None:
    """A degree of the complex on n generators: an int in 0..n."""
    if type(p) is not int:
        raise StructureError(f"degree must be an integer, got {p!r}")
    if not 0 <= p <= n:
        raise ValueError(f"degree {p} out of range 0..{n}")


def form_basis(n: int, p: int) -> list[tuple[int, ...]]:
    """Lexicographically ordered index tuples spanning degree p."""
    return list(combinations(range(1, n + 1), p))


def form_to_coords(xi: ExteriorForm) -> Vector:
    basis = form_basis(xi.dim, xi.degree)
    return tuple(xi.terms.get(idx, Fraction(0)) for idx in basis)


def coords_to_form(n: int, p: int, coords: Sequence) -> ExteriorForm:
    basis = form_basis(n, p)
    if len(coords) != len(basis):
        raise ValueError("coordinate length does not match the graded dimension")
    return ExteriorForm(n, p, dict(zip(basis, coords)))


@dataclass(frozen=True)
class DifferentialMatrices:
    """Degree-by-degree matrices of d_w in the lexicographic bases.

    ``matrices[p]`` maps degree p to degree p+1 and has binomial(n, p+1)
    rows by binomial(n, p) columns, for p = 0 .. n-1.
    """

    algebra: LieAlgebra
    omega: OneForm
    matrices: tuple[RationalMatrix, ...]

    def matrix(self, p: int) -> RationalMatrix:
        n = self.algebra.dim
        _check_degree(p, n)
        if p == n:
            # top degree maps to the zero space
            return RationalMatrix(0, 1)
        return self.matrices[p]


def _monomial_image(idx: tuple[int, ...], gens, wedge_terms) -> dict[tuple[int, ...], int]:
    """S * d_w e^idx by index arithmetic, as {target index tuple: int}, where
    S is the scale of the tables (``_differential_tables``).

    Replacing e^k at position t by the 2-form e^i ^ e^j and sorting gives the
    sign (-1)^(t + a + b), where a and b count the remaining indices below i
    and below j; w_m e^m ^ e^idx gets (-1)^a for the a indices below m. Both
    tables carry each coefficient next to its negative, and a target's first
    contribution is stored as it is. Contributions may cancel to zero.
    """
    out: dict[tuple[int, ...], int] = {}
    for t, k in enumerate(idx):
        rest = idx[:t] + idx[t + 1:]
        for i, j, c, neg in gens[k - 1]:
            if i in rest or j in rest:
                continue
            a, b = bisect_left(rest, i), bisect_left(rest, j)
            new = rest[:a] + (i,) + rest[a:b] + (j,) + rest[b:]
            term = neg if (t + a + b) % 2 else c
            old = out.get(new)
            out[new] = term if old is None else old + term
    for m, c, neg in wedge_terms:
        if m in idx:
            continue
        a = bisect_left(idx, m)
        new = idx[:a] + (m,) + idx[a:]
        term = neg if a % 2 else c
        old = out.get(new)
        out[new] = term if old is None else old + term
    return out


def _differential_tables(g: LieAlgebra, omega: OneForm):
    """The ``gens`` and ``wedge_terms`` tables ``_monomial_image`` reads and
    their scale S; raises NonClosedFormError unless d omega = 0.

    S is the lcm of the algebra's scale L and the denominators of w, and
    every entry is S times a coefficient of d_w, as an int. ``gens[k - 1]``
    lists d e^k as (i, j, c, -c) for its nonzero coefficients c = -S C_ij^k
    at e^i ^ e^j, in sorted order; ``wedge_terms`` lists (m, c, -c) for
    c = S w_m at the nonzero coefficients of w.
    """
    _require_closed(g, omega)
    scale = lcm(g._scale, *(c.denominator for c in omega.coeffs))
    up = scale // g._scale
    gens = [[] for _ in range(g.dim)]
    for (i, j), terms in sorted(g._int_table.items()):
        for m, x in terms:
            gens[m].append((i, j, -up * x, up * x))
    scaled = [(m + 1, int(c * scale)) for m, c in enumerate(omega.coeffs) if c]
    wedge_terms = [(m, x, -x) for m, x in scaled]
    return gens, wedge_terms, scale


def _image_rows(sources: Sequence, targets: Sequence, tables) -> list[dict[int, int]]:
    """S * d_w of each source monomial as one sparse int row keyed by target
    position, with no zero stored; ``tables`` is what ``_differential_tables``
    returns."""
    gens, wedge_terms, _ = tables
    col_of = {idx: c for c, idx in enumerate(targets)}
    return [{col_of[t]: x for t, x in _monomial_image(idx, gens, wedge_terms).items() if x}
            for idx in sources]


def _degree_matrix(n: int, p: int, tables) -> RationalMatrix:
    """S * d_w at degree p in the lexicographic bases, from its image rows."""
    source, target = form_basis(n, p), form_basis(n, p + 1)
    rows = _image_rows(source, target, tables)
    return RationalMatrix._adopt(len(source), len(target), rows).transpose()


def differential_matrices(g: LieAlgebra, omega: OneForm) -> DifferentialMatrices:
    """Materialize d_w on every degree; requires d omega = 0. Each matrix is
    the transpose of its degree's image rows divided by their scale S: no
    dense grid is ever built."""
    tables = _differential_tables(g, omega)
    unscale = Fraction(1, tables[2])
    return DifferentialMatrices(g, omega, tuple(_degree_matrix(g.dim, p, tables).scale(unscale)
                                                for p in range(g.dim)))
