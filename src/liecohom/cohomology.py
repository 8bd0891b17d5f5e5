"""Cohomology of the twisted complex: Betti numbers and representatives.

Degree p cohomology is ker(d_w at p) modulo im(d_w at p-1); its dimension
comes from two exact ranks. Representatives are picked deterministically:
the kernel basis vectors that enlarge the span of [image columns | kept so
far], in order. One elimination of [image columns | kernel basis] picks
them all, so reruns and platforms agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .algebra import LieAlgebra, OneForm
from .exterior import (
    DifferentialMatrices,
    ExteriorForm,
    coords_to_form,
    deformed_differential,
    differential_matrices,
    form_to_coords,
)
from .linalg import extend_independent, in_image, kernel_basis, rank


@dataclass(frozen=True)
class CohomologyResult:
    """Betti numbers b^0..b^n and a basis of cocycle representatives per degree."""

    omega: OneForm
    betti: tuple[int, ...]
    representatives: tuple[tuple[ExteriorForm, ...], ...]


def _betti(mats: DifferentialMatrices) -> list[int]:
    """b^p = dim ker d_w^p - dim im d_w^(p-1) = C(n, p) - rank_p - rank_(p-1)."""
    n = mats.algebra.dim
    ranks = [0] + [rank(mats.matrix(p)) for p in range(n)] + [0]
    return [comb(n, p) - ranks[p + 1] - ranks[p] for p in range(n + 1)]


def betti_numbers(g: LieAlgebra, omega: OneForm) -> list[int]:
    """Exact dimensions of the twisted cohomology in degrees 0..n."""
    return _betti(differential_matrices(g, omega))


def _representatives_from(mats: DifferentialMatrices, p: int) -> list[ExteriorForm]:
    n = mats.algebra.dim
    image_cols = []
    if p > 0:
        below = mats.matrix(p - 1)
        image_cols = [below.column(j) for j in range(below.cols)]
    picked = extend_independent(image_cols, kernel_basis(mats.matrix(p)), comb(n, p))
    return [coords_to_form(n, p, v) for v in picked]


def representatives(g: LieAlgebra, omega: OneForm, p: int) -> list[ExteriorForm]:
    """Deterministic cocycle basis of the degree-p cohomology."""
    if not 0 <= p <= g.dim:
        raise ValueError(f"degree {p} out of range 0..{g.dim}")
    return _representatives_from(differential_matrices(g, omega), p)


def cohomology(g: LieAlgebra, omega: OneForm) -> CohomologyResult:
    """Betti numbers plus representatives for every degree in one pass."""
    mats = differential_matrices(g, omega)
    betti = tuple(_betti(mats))
    reps = tuple(tuple(_representatives_from(mats, p)) for p in range(g.dim + 1))
    return CohomologyResult(omega=omega, betti=betti, representatives=reps)


def is_cocycle(g: LieAlgebra, omega: OneForm, xi: ExteriorForm) -> bool:
    """Whether d_w(xi) = 0."""
    return deformed_differential(g, omega, xi).is_zero()


def is_coboundary(g: LieAlgebra, omega: OneForm, xi: ExteriorForm) -> ExteriorForm | None:
    """A primitive eta with d_w(eta) = xi, or None when xi is not exact.

    The primitive is the minimal pivot solution, hence reproducible.
    """
    p = xi.degree
    if p == 0:
        # nothing maps into degree 0, so no primitive ever exists
        return None
    mats = differential_matrices(g, omega)
    sol = in_image(mats.matrix(p - 1), form_to_coords(xi))
    if sol is None:
        return None
    return coords_to_form(g.dim, p - 1, sol)


def euler_characteristic(result: CohomologyResult) -> int:
    """Alternating sum of the Betti numbers."""
    return sum((-1) ** p * b for p, b in enumerate(result.betti))
