"""Cohomology of the twisted complex: Betti numbers and representatives.

Degree p cohomology is ker(d_w at p) modulo im(d_w at p-1); its dimension
comes from two exact ranks.

Ranks are taken with clearing, the "twist" of persistent homology
(Chen-Kerber 2011; Bauer 2021, Ripser). Degree p is eliminated by rows, one
per source monomial, with the target monomials in reverse lexicographic
order, so the pivots are the last entries of a basis of im d_p: the cleared
monomials of degree p+1. Each ends some z in im d_p, inside ker d_(p+1), so
its row in degree p+1 depends on earlier rows; skipping it keeps the rank.
One walk over the degrees assembles only the monomials that are not
cleared, and b^p is their number minus rank d_p.

Representatives are the ``kernel_basis`` vectors of d_p restricted to those
same monomials. A cleared monomial c is the lex-largest entry of some z in
im d_(p-1), inside ker d_p, so its column of d_p depends on earlier columns
and is never a pivot. Dropping it leaves every other kernel vector v_f
unchanged: v_f is 1 at its free column f and lives only on the pivots
before f. The kept free columns are exactly the free monomials outside the
cleared set, which is the greedy pick of the v_f modulo im d_(p-1), so every
kernel vector of the restricted d_p is a representative and the choice is
reproducible bit for bit.

Betti numbers split a direct sum first (Kunneth; Hochschild-Serre 1953).
Join the indices i, j and m of every nonzero C_ij^m: each component then
spans an ideal, since a bracket with an element of the component lands in
it, and distinct components commute, since no bracket joins them. So g is
the direct sum of its components a_1 .. a_r, and the cochain complex of g
with coefficients in the line of w is the graded tensor product of the
complexes of the a_s, each twisted by the restriction of w, which is closed
on it. Over Q the cohomology of a tensor product of complexes is the tensor
product of their cohomologies, so the Betti list of g is the convolution of
the factors' lists, and one acyclic factor makes every Betti number zero. A
one-index component is Q with differential w_i e^i ^ . : its Betti list is
(1, 1) when w_i = 0 and (0, 0) otherwise. Every larger component is walked
on its own slice of the tables, its indices renumbered in order.
Representatives are not split: ``cohomology`` walks the whole algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .algebra import LieAlgebra, OneForm
from .exterior import (
    ExteriorForm,
    _check_degree,
    _check_form,
    _degree_matrix,
    _differential_tables,
    _image_rows,
    _require_closed,
    coords_to_form,
    deformed_differential,
    form_basis,
    form_to_coords,
)
from .linalg import RationalMatrix, _echelon, _kernel, in_image

# unused here, kept importable because perfbench/tracer.py wraps these names
from .exterior import differential_matrices  # noqa: F401
from .linalg import kernel_basis, rank  # noqa: F401


@dataclass(frozen=True)
class CohomologyResult:
    """Betti numbers b^0..b^n and a basis of cocycle representatives per degree."""

    omega: OneForm
    betti: tuple[int, ...]
    representatives: tuple[tuple[ExteriorForm, ...], ...]


def _cleared_walk(n: int, tables):
    """Per degree p = 0 .. n of the complex on n generators whose differential
    is given by ``tables`` (``_differential_tables``): the monomials degree
    p-1 did not clear (reverse lexicographic order), their int image rows
    (S * d_w^p) and rank d_w^p."""
    sources, cleared = form_basis(n, 0), set()
    for p in range(n + 1):
        targets = form_basis(n, p + 1)[::-1]
        kept = [idx for idx in sources if idx not in cleared]
        rows = _image_rows(kept, targets, tables)
        _, pivots = _echelon(rows)
        yield kept, rows, len(pivots)
        sources, cleared = targets, {targets[c] for c in pivots}


def _walked_betti(n: int, tables) -> list[int]:
    return [len(kept) - r for kept, _, r in _cleared_walk(n, tables)]


def _components(g: LieAlgebra) -> list[list[int]]:
    """The index sets of the direct factors of g in its given basis, each
    ascending, smallest first: one union-find pass over the bracket table."""
    parent = list(range(g.dim + 1))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for (i, j), terms in g._int_table.items():
        for m in (j, *(m + 1 for m, _ in terms)):
            parent[root(m)] = root(i)
    groups: dict[int, list[int]] = {}
    for i in range(1, g.dim + 1):
        groups.setdefault(root(i), []).append(i)
    return sorted(groups.values(), key=len)


def _factor_tables(tables, indices: list[int]):
    """The slice of ``tables`` on one component, its ascending ``indices``
    renumbered 1..k in order, which keeps every table sorted."""
    gens, wedge_terms, scale = tables
    label = {i: a for a, i in enumerate(indices, 1)}
    return ([[(label[i], label[j], c, neg) for i, j, c, neg in gens[m - 1]] for m in indices],
            [(label[m], c, neg) for m, c, neg in wedge_terms if m in label], scale)


def _convolve(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def betti_numbers(g: LieAlgebra, omega: OneForm) -> list[int]:
    """Exact dimensions of the twisted cohomology in degrees 0..n, as the
    convolution of the Betti lists of the direct factors (module docstring)."""
    tables = _differential_tables(g, omega)
    components = _components(g)
    if len(components) == 1:
        return _walked_betti(g.dim, tables)
    zero = [0] * (g.dim + 1)
    singles = {c[0] for c in components if len(c) == 1}
    # tables[1] lists w by its nonzero coefficients
    if any(m in singles for m, _, _ in tables[1]):
        return zero
    # s untwisted singletons give (1, 1) each: C(s, p)
    s = len(singles)
    betti = [comb(s, p) for p in range(s + 1)]
    for indices in components[s:]:
        factor = _walked_betti(len(indices), _factor_tables(tables, indices))
        if not any(factor):
            return zero
        betti = _convolve(betti, factor)
    return betti


def _representatives_from(n: int, p: int, kept: list, rows: list) -> list[ExteriorForm]:
    """The kernel vectors of d_w^p on the kept monomials, lexicographic order.

    ``rows`` are their int image rows; ker(S * d_w^p) = ker d_w^p.
    """
    d_p = RationalMatrix._adopt(len(rows), comb(n, p + 1), rows).transpose()
    return [ExteriorForm(n, p, {kept[i]: x for i, x in sorted(v.items())})
            for v in _kernel(d_p._rows, d_p.cols)]


def representatives(g: LieAlgebra, omega: OneForm, p: int) -> list[ExteriorForm]:
    """Deterministic cocycle basis of the degree-p cohomology."""
    # the types first: a degree is only checked against an algebra
    _require_closed(g, omega)
    _check_degree(p, g.dim)
    return list(cohomology(g, omega).representatives[p])


def cohomology(g: LieAlgebra, omega: OneForm) -> CohomologyResult:
    """Betti numbers plus representatives for every degree in one pass."""
    tables = _differential_tables(g, omega)
    betti, reps = [], []
    for p, (kept, rows, r) in enumerate(_cleared_walk(g.dim, tables)):
        betti.append(len(kept) - r)
        # _kernel reads its free columns in lexicographic order
        reps.append(tuple(_representatives_from(g.dim, p, kept[::-1], rows[::-1]))
                    if betti[-1] else ())
    return CohomologyResult(omega=omega, betti=tuple(betti), representatives=tuple(reps))


def is_cocycle(g: LieAlgebra, omega: OneForm, xi: ExteriorForm) -> bool:
    """Whether d_w(xi) = 0."""
    return deformed_differential(g, omega, xi).is_zero()


def is_coboundary(g: LieAlgebra, omega: OneForm, xi: ExteriorForm) -> ExteriorForm | None:
    """A primitive eta with d_w(eta) = xi, or None when xi is not exact.

    The primitive is the minimal pivot solution, hence reproducible; only
    degree p-1 is assembled, and above the top degree it is zero. The matrix
    assembled is S * d_w, which has the same pivots, so its solution u gives
    the primitive S * u.
    """
    tables = _differential_tables(g, omega)
    _check_form(g, xi)
    p = xi.degree
    if p == 0:
        # nothing maps into degree 0, so no primitive ever exists
        return None
    sol = in_image(_degree_matrix(g.dim, p - 1, tables), form_to_coords(xi))
    return None if sol is None else coords_to_form(g.dim, p - 1, [tables[2] * x for x in sol])


def euler_characteristic(result: CohomologyResult) -> int:
    """Alternating sum of the Betti numbers."""
    return sum((-1) ** p * b for p, b in enumerate(result.betti))
