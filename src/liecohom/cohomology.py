"""Cohomology of the twisted complex: Betti numbers and representatives.

Degree p cohomology is ker(d_w at p) modulo im(d_w at p-1); its dimension
comes from two exact ranks, or, where representatives are built anyway,
from their count. Representatives are picked deterministically:
the kernel basis vectors that enlarge the span of [image columns | kept so
far], in order. One elimination of the sparse rows of [d_w at p-1 | kernel
basis] picks them all, so reruns and platforms agree exactly, and each
representative is built from its nonzero coordinates alone.
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
    form_basis,
    form_to_coords,
)
from .linalg import RationalMatrix, in_image, kernel_modulo_image, rank

# unused here, kept importable because perfbench/tracer.py wraps this name
from .linalg import kernel_basis  # noqa: F401


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
    # nothing maps into degree 0: its image is the one-row, no-column matrix
    below = mats.matrix(p - 1) if p > 0 else RationalMatrix(1, 0)
    basis = form_basis(n, p)
    return [ExteriorForm(n, p, {basis[i]: x for i, x in sorted(v.items())})
            for v in kernel_modulo_image(mats.matrix(p), below)]


def representatives(g: LieAlgebra, omega: OneForm, p: int) -> list[ExteriorForm]:
    """Deterministic cocycle basis of the degree-p cohomology."""
    if not 0 <= p <= g.dim:
        raise ValueError(f"degree {p} out of range 0..{g.dim}")
    return _representatives_from(differential_matrices(g, omega), p)


def cohomology(g: LieAlgebra, omega: OneForm) -> CohomologyResult:
    """Betti numbers plus representatives for every degree in one pass."""
    mats = differential_matrices(g, omega)
    reps = tuple(tuple(_representatives_from(mats, p)) for p in range(g.dim + 1))
    # d_w squares to zero, so each degree's representatives are a basis of H^p
    return CohomologyResult(omega=omega, betti=tuple(map(len, reps)), representatives=reps)


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
