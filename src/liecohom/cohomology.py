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


def _cleared_walk(g: LieAlgebra, omega: OneForm):
    """Per degree p = 0 .. n: the monomials degree p-1 did not clear (reverse
    lexicographic order), their int image rows (S * d_w^p) and rank d_w^p."""
    tables = _differential_tables(g, omega)
    sources, cleared = form_basis(g.dim, 0), set()
    for p in range(g.dim + 1):
        targets = form_basis(g.dim, p + 1)[::-1]
        kept = [idx for idx in sources if idx not in cleared]
        rows = _image_rows(kept, targets, tables)
        _, pivots = _echelon(rows)
        yield kept, rows, len(pivots)
        sources, cleared = targets, {targets[c] for c in pivots}


def betti_numbers(g: LieAlgebra, omega: OneForm) -> list[int]:
    """Exact dimensions of the twisted cohomology in degrees 0..n."""
    return [len(kept) - r for kept, _, r in _cleared_walk(g, omega)]


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
    betti, reps = [], []
    for p, (kept, rows, r) in enumerate(_cleared_walk(g, omega)):
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
