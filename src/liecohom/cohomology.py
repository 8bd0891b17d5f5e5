"""Cohomology of the twisted complex: Betti numbers and representatives.

Degree p cohomology is ker(d_w at p) modulo im(d_w at p-1); its dimension
comes from two exact ranks.

Ranks are taken with clearing, the "twist" of persistent homology
(Chen-Kerber 2011; Bauer 2021, Ripser). Degree p is eliminated by rows, one
per source monomial, with the target monomials in reverse lexicographic
order, so the pivots are the last entries of a basis of im d_p: the cleared
monomials of degree p+1. Each ends some z in im d_p, inside ker d_(p+1), so
its row in degree p+1 depends on earlier rows; skipping it keeps the rank.

Representatives are the kernel vector of each free monomial that is not a
cleared pivot. The ``kernel_basis`` vector v_f of d_p at a free column f
ends at f: it is 1 there and nonzero elsewhere only at pivots before f. A
coboundary ending at f lies in ker d_p, so up to a scalar it is v_f plus
earlier kernel vectors; and a coboundary equal to v_f minus earlier kernel
vectors ends at f. So the greedy pick of the v_f, in order, modulo
im d_(p-1) and the earlier picks, keeps v_f exactly when f is not cleared,
and one assembly per degree feeds both the cleared elimination and the
kernel. The choice is reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .algebra import LieAlgebra, OneForm
from .exterior import (
    ExteriorForm,
    _check_form,
    _degree_matrix,
    _differential_tables,
    _image_rows,
    coords_to_form,
    deformed_differential,
    form_basis,
    form_to_coords,
)
from .linalg import RationalMatrix, SparseRow, _echelon, _integer_rows, _kernel, in_image

# unused here, kept importable because perfbench/tracer.py wraps these names
from .exterior import differential_matrices  # noqa: F401
from .linalg import kernel_basis, rank  # noqa: F401


@dataclass(frozen=True)
class CohomologyResult:
    """Betti numbers b^0..b^n and a basis of cocycle representatives per degree."""

    omega: OneForm
    betti: tuple[int, ...]
    representatives: tuple[tuple[ExteriorForm, ...], ...]


def _betti(ranks: list[int]) -> list[int]:
    """b^p = dim ker d_w^p - dim im d_w^(p-1) = C(n, p) - rank_p - rank_(p-1),
    from the ranks of d_w^0 .. d_w^(n-1)."""
    n, ranks = len(ranks), [0, *ranks, 0]
    return [comb(n, p) - ranks[p + 1] - ranks[p] for p in range(n + 1)]


def _pivot_targets(rows: list[SparseRow], targets: list[tuple[int, ...]]) -> set:
    """The targets at the pivot columns: the last entries of a basis of the span."""
    _, pivots = _echelon(_integer_rows(rows))
    return {targets[c] for c in pivots}


def _cleared_ranks(g: LieAlgebra, omega: OneForm) -> list[int]:
    """rank d_w^p for p = 0 .. n-1, each degree cleared by the one below."""
    tables = _differential_tables(g, omega)
    ranks, sources, cleared = [], form_basis(g.dim, 0), set()
    for p in range(1, g.dim + 1):
        targets = form_basis(g.dim, p)[::-1]
        rows = _image_rows([idx for idx in sources if idx not in cleared], targets, tables)
        sources, cleared = targets, _pivot_targets(rows, targets)
        ranks.append(len(cleared))
    return ranks


def betti_numbers(g: LieAlgebra, omega: OneForm) -> list[int]:
    """Exact dimensions of the twisted cohomology in degrees 0..n."""
    return _betti(_cleared_ranks(g, omega))


def _representatives_from(n: int, p: int, rows: list, cleared: set) -> list[ExteriorForm]:
    """The kernel vector of each free monomial of d_w^p outside ``cleared``."""
    sources = form_basis(n, p)
    d_p = RationalMatrix._adopt(len(rows), comb(n, p + 1), rows).transpose()
    return [ExteriorForm(n, p, {sources[i]: x for i, x in sorted(v.items())})
            for f, v in _kernel(d_p).items() if sources[f] not in cleared]


def representatives(g: LieAlgebra, omega: OneForm, p: int) -> list[ExteriorForm]:
    """Deterministic cocycle basis of the degree-p cohomology."""
    reps = cohomology(g, omega).representatives
    if not 0 <= p < len(reps):
        raise ValueError(f"degree {p} out of range 0..{len(reps) - 1}")
    return list(reps[p])


def cohomology(g: LieAlgebra, omega: OneForm) -> CohomologyResult:
    """Betti numbers plus representatives for every degree in one pass."""
    tables = _differential_tables(g, omega)
    n = g.dim
    # degree p: the image rows of every monomial and the monomials cleared by degree p-1
    rows, cleared = [], [set()]
    for p in range(n + 1):
        sources, targets = form_basis(n, p), form_basis(n, p + 1)[::-1]
        rows.append(_image_rows(sources, targets, tables))
        kept = [r for idx, r in zip(sources, rows[p]) if idx not in cleared[p]]
        cleared.append(_pivot_targets(kept, targets))
    # rank d_w^p is the number of monomials it clears
    betti = _betti([len(c) for c in cleared[1:n + 1]])
    reps = tuple(tuple(_representatives_from(n, p, rows[p], cleared[p])) if b else ()
                 for p, b in enumerate(betti))
    return CohomologyResult(omega=omega, betti=tuple(betti), representatives=reps)


def is_cocycle(g: LieAlgebra, omega: OneForm, xi: ExteriorForm) -> bool:
    """Whether d_w(xi) = 0."""
    return deformed_differential(g, omega, xi).is_zero()


def is_coboundary(g: LieAlgebra, omega: OneForm, xi: ExteriorForm) -> ExteriorForm | None:
    """A primitive eta with d_w(eta) = xi, or None when xi is not exact.

    The primitive is the minimal pivot solution, hence reproducible; only
    degree p-1 is assembled, and above the top degree it is zero.
    """
    tables = _differential_tables(g, omega)
    _check_form(g, xi)
    p = xi.degree
    if p == 0:
        # nothing maps into degree 0, so no primitive ever exists
        return None
    sol = in_image(_degree_matrix(g.dim, p - 1, tables), form_to_coords(xi))
    return None if sol is None else coords_to_form(g.dim, p - 1, sol)


def euler_characteristic(result: CohomologyResult) -> int:
    """Alternating sum of the Betti numbers."""
    return sum((-1) ** p * b for p, b in enumerate(result.betti))
