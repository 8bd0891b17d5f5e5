"""Exterior algebra of the dual space and its differentials.

Forms are stored sparsely: a map from strictly increasing 1-based index
tuples to nonzero rational coefficients. The basis of each graded piece is
ordered lexicographically, which fixes every matrix layout once and for all.
Inside the package a monomial e^I is one int, the mask with bit i set for each
i in I (bit 0 unused), and a sign is a popcount parity: e^m ^ e^I moves e^m past
the (I & (2^m - 1)).bit_count() factors below it. Only a form leaving the package
gets its index tuples back (``_indices``).

One differential lives here, d_w = d + w ^ . for a closed one-form w. Its
plain part acts on generators by

    d e^k = - sum_{i<j} C_ij^k e^i ^ e^j

and extends by the graded Leibniz rule; it squares to zero exactly when the
Jacobi identity holds. Closedness of w is a hard precondition because d_w
squares to dw ^ . ; each twisted query tests it once, in ``_wedge_terms``, on
the ints that also give w's wedge terms. Forms, image rows and matrices all read
d_w off ``_monomial_image``; ``ce_differential`` is d_w at w = 0. Every solve
eliminates the image rows, and ``differential_matrices`` is the only
lexicographic matrix built from them.

The matrices of d_w are assembled in integer arithmetic. The algebra keeps
its bracket table scaled by the lcm L of its denominators (``LieAlgebra``);
one scale S = lcm(L, denominators of w) turns d e^k and w into int tables,
and every image row is S times the row of d_w. Rank, kernel and the pivots
of a solve do not change under that scaling, so the elimination reads the
int rows as they are; ``differential_matrices`` divides by S to give the
rational matrices of d_w itself.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from itertools import combinations
from math import lcm

from .algebra import LieAlgebra, OneForm, _memo, _record
from .errors import NonClosedFormError, StructureError, _require_types
from .linalg import RationalMatrix, _exact, _iterable


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
        if dim < 0 or degree < 0:
            raise ValueError("dimension and degree must be nonnegative")
        terms = {} if terms is None else terms
        if not isinstance(terms, Mapping):
            raise StructureError(f"terms must be a mapping, got {type(terms).__name__}")
        self.dim = dim
        self.degree = degree
        clean: dict[tuple[int, ...], Fraction] = {}
        for idx, c in terms.items():
            self._check_index(idx)
            c = c if type(c) is Fraction else _exact(c)
            if c != 0:
                clean[idx] = c
        self.terms = clean

    def _check_index(self, idx) -> None:
        """A StructureError unless ``idx`` is a tuple of ints; a ValueError
        unless it is a strictly increasing ``degree``-tuple in 1..dim."""
        if type(idx) is not tuple or any(type(i) is not int for i in idx):
            raise StructureError(f"index tuple {idx!r} must be a tuple of integers")
        if len(idx) != self.degree:
            raise ValueError(f"index tuple {idx} does not match degree {self.degree}")
        if any(not 1 <= i <= self.dim for i in idx):
            raise ValueError(f"index out of range in {idx}")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError(f"index tuple {idx} is not strictly increasing")

    @classmethod
    def _adopt(cls, dim: int, degree: int, terms: dict) -> "ExteriorForm":
        """Adopt terms the package built (sorted tuples, nonzero Fractions) unchecked."""
        form = cls.__new__(cls)
        form.dim, form.degree, form.terms = dim, degree, terms
        return form

    @classmethod
    def zero(cls, dim: int, degree: int) -> "ExteriorForm":
        return cls(dim, degree)

    @classmethod
    def scalar(cls, dim: int, value) -> "ExteriorForm":
        return cls(dim, 0, {(): value})

    @classmethod
    def basis(cls, dim: int, indices: Sequence[int]) -> "ExteriorForm":
        """The basis form e^{i_1} ^ ... ^ e^{i_p} for increasing indices."""
        idx = tuple(_iterable(indices, "indices"))
        return cls(dim, len(idx), {idx: Fraction(1)})

    @classmethod
    def from_one_form(cls, omega: OneForm) -> "ExteriorForm":
        return cls(omega.dim, 1,
                   {(i + 1,): c for i, c in enumerate(omega.coeffs) if c != 0})

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, indices: Sequence[int]) -> Fraction:
        idx = tuple(_iterable(indices, "indices"))
        self._check_index(idx)
        return self.terms.get(idx, Fraction(0))

    def __add__(self, other: "ExteriorForm") -> "ExteriorForm":
        if not isinstance(other, ExteriorForm):
            return NotImplemented
        if (self.dim, self.degree) != (other.dim, other.degree):
            raise ValueError("cannot add forms of different dimension or degree")
        out = dict(self.terms)
        for idx, c in other.terms.items():
            out[idx] = out.get(idx, Fraction(0)) + c
        return ExteriorForm(self.dim, self.degree, out)

    def __neg__(self) -> "ExteriorForm":
        return self.scale(-1)

    def __sub__(self, other: "ExteriorForm") -> "ExteriorForm":
        return self + (-other) if isinstance(other, ExteriorForm) else NotImplemented

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
    _require_types((a, ExteriorForm), (b, ExteriorForm))
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


def _check_form(g: LieAlgebra, xi: ExteriorForm) -> None:
    if not isinstance(xi, ExteriorForm):
        raise StructureError(f"expected an ExteriorForm, got {type(xi).__name__}")
    if xi.dim != g.dim:
        raise ValueError("form dimension does not match the algebra")


def ce_differential(g: LieAlgebra, xi: ExteriorForm) -> ExteriorForm:
    """Chevalley-Eilenberg differential of a form, one degree up."""
    _require_types((g, LieAlgebra))
    return deformed_differential(g, OneForm.zero(g.dim), xi)


def is_closed(g: LieAlgebra, omega: OneForm) -> bool:
    """Whether d omega = 0, i.e. omega kills every bracket (``_wedge_terms``)."""
    try:
        _wedge_terms(g, omega)
    except NonClosedFormError:
        return False
    return True


def deformed_differential(g: LieAlgebra, omega: OneForm, xi: ExteriorForm) -> ExteriorForm:
    """d_w(xi) = d(xi) + w ^ xi for a closed one-form w, summed over the
    monomial images of xi and divided by their scale S."""
    gens, wedge_terms, scale = _differential_tables(g, omega)
    _check_form(g, xi)
    out: dict[int, Fraction] = {}
    for idx, c in xi.terms.items():
        for new, x in _monomial_image(sum(1 << i for i in idx), gens, wedge_terms).items():
            out[new] = out.get(new, 0) + c * x
    return ExteriorForm._adopt(g.dim, xi.degree + 1,
                               {_indices(t): v / scale for t, v in out.items() if v})


def _check_degree(p, n: int) -> None:
    """A degree of the complex on n generators: an int in 0..n."""
    if type(p) is not int:
        raise StructureError(f"degree must be an integer, got {p!r}")
    if not 0 <= p <= n:
        raise ValueError(f"degree {p} out of range 0..{n}")


def form_basis(n: int, p: int) -> list[tuple[int, ...]]:
    """Lexicographically ordered index tuples spanning degree p."""
    return list(combinations(range(1, n + 1), p))


@_record
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


def _indices(mask: int) -> tuple[int, ...]:
    """The increasing index tuple of the monomial ``mask``."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _masks(indices, p: int) -> list[int]:
    """The monomials of the p-subsets of the ascending ``indices``, in lexicographic order."""
    return list(map(sum, combinations([1 << i for i in indices], p)))


def _monomial_image(mask: int, gens, wedge_terms) -> dict[int, int]:
    """S * d_w e^I as {target mask: int}, S the scale of the tables.

    Replacing e^k in e^I by e^i ^ e^j and sorting gives the sign (-1)^(t + a + b),
    t, a and b the other indices of I below k, i and j; a + b has the parity of
    those strictly between i and j. w_m e^m ^ e^I gets (-1)^a for the a indices
    below m. Each table entry holds the mask of the indices its sign counts.
    Contributions may cancel to zero.
    """
    out: dict[int, int] = {}
    left = mask
    while left:
        low = left & -left
        left ^= low
        rest = mask ^ low
        for ij, odd, c in gens[low]:
            if not rest & ij:
                out[rest | ij] = out.get(rest | ij, 0) + (-c if (rest & odd).bit_count() & 1 else c)
    for m, odd, c in wedge_terms:
        if not mask & m:
            out[mask | m] = out.get(mask | m, 0) + (-c if (mask & odd).bit_count() & 1 else c)
    return out


def _gens(g: LieAlgebra) -> dict[int, list]:
    """The ``gens`` table at the algebra's scale L; each sign mask holds the
    indices below k and those strictly between i and j."""
    gens = {1 << k: [] for k in range(1, g.dim + 1)}
    for (i, j), terms in g._int_table:
        for m, x in terms:
            gens[2 << m].append((1 << i | 1 << j, (2 << m) - 1 ^ (1 << j) - (2 << i), -x))
    return gens


def _gens_at(g: LieAlgebra, scale: int) -> dict:
    """The ``gens`` table at scale S, a multiple of L: built at L once per algebra."""
    gens, q = _memo(g, "_gens", _gens), scale // g._scale
    return gens if q == 1 else {k: [(ij, b, q * c) for ij, b, c in t] for k, t in gens.items()}


def _wedge_terms(g: LieAlgebra, omega: OneForm):
    """``wedge_terms`` of the tables (``_differential_tables``) and their scale S =
    lcm(L, denominators of w), from the ints S w_m; the package's one closedness test:
    NonClosedFormError unless each bracket's sum of S w_m * L C_ij^m, S L w([e_i, e_j]), is 0."""
    _require_types((g, LieAlgebra), (omega, OneForm))
    if omega.dim != g.dim:
        raise ValueError("one-form length does not match the algebra dimension")
    scale = lcm(g._scale, *(c.denominator for c in omega.coeffs))
    w = [c.numerator * (scale // c.denominator) for c in omega.coeffs]
    if any(sum(w[m] * x for m, x in terms) for _, terms in g._int_table):
        raise NonClosedFormError("twisting one-form is not closed; the deformed "
                                 "differential would not square to zero")
    return [(2 << m, (2 << m) - 1, c) for m, c in enumerate(w) if c], scale


def _differential_tables(g: LieAlgebra, omega: OneForm):
    """The ``gens`` and ``wedge_terms`` tables ``_monomial_image`` reads and their
    scale S (``_wedge_terms``). ``gens[1 << k]`` lists d e^k as (1 << i | 1 << j,
    sign mask, c) for its nonzero c = -S C_ij^k, in sorted order (``_gens_at``);
    ``wedge_terms`` lists (1 << m, sign mask, S w_m) at the nonzero coefficients
    of w."""
    wedge_terms, scale = _wedge_terms(g, omega)
    return _gens_at(g, scale), wedge_terms, scale


def _image_rows(sources: Sequence, targets: Sequence, tables) -> list[dict[int, int]]:
    """S * d_w of each source mask as one sparse int row keyed by target
    position, with no zero stored; ``tables`` is what ``_differential_tables``
    returns."""
    gens, wedge_terms, _ = tables
    col_of = {mask: c for c, mask in enumerate(targets)}
    return [{col_of[t]: x for t, x in _monomial_image(mask, gens, wedge_terms).items() if x}
            for mask in sources]


def differential_matrices(g: LieAlgebra, omega: OneForm) -> DifferentialMatrices:
    """Materialize d_w on every degree; requires d omega = 0. Each matrix is
    the transpose of its degree's image rows divided by their scale S: no
    dense grid is ever built."""
    tables = _differential_tables(g, omega)
    unscale = Fraction(1, tables[2])
    bases = [_masks(range(1, g.dim + 1), p) for p in range(g.dim + 1)]
    return DifferentialMatrices(g, omega, tuple(
        RationalMatrix._adopt(len(s), len(t), _image_rows(s, t, tables)).transpose().scale(unscale)
        for s, t in zip(bases, bases[1:])))
