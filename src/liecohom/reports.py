"""Line scans along a twisting direction and Morse-count comparisons.

A scan fixes a closed direction form and asks for which multiples the
twisted cohomology can survive. The critical multipliers are read off the
finite exceptional set, every critical row is evaluated exactly, and one
provably generic multiplier is evaluated as a control row.

The Morse-count report compares user-supplied counts of index-p zeros
against the twisted Betti numbers degree by degree; off the critical set
they are all zero, so only a critical multiple is walked. The underlying
inequality m_p >= b_p is only promised for sufficiently large multipliers,
so the report flags multipliers that collide with the critical set rather
than pretending the bound applies.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .algebra import LieAlgebra, OneForm, _record
from .cohomology import _betti_along, betti_numbers
from .errors import ComputationDomainError, NonClosedFormError, StructureError, _require_types
from .exterior import _wedge_terms, is_closed
from .linalg import _exact, vector
from .weights import WeightData, _pack, adapted_basis, omega_set


@_record
class ScanRow:
    lam: Fraction
    betti: tuple[int, ...]


@_record
class ScanTable:
    """Betti numbers along the line lambda * direction.

    ``rows`` covers every critical multiplier in ascending order; ``generic``
    is evaluated at 1 + max |critical|, which provably avoids the critical
    set.
    """

    direction: OneForm
    critical_lambdas: tuple[Fraction, ...]
    rows: tuple[ScanRow, ...]
    generic: ScanRow


def _critical_multipliers(data: WeightData, direction: OneForm) -> list[Fraction]:
    """Solutions of -lambda * direction in the exceptional set, plus zero. With the direction
    cleared to g D at scale S, D primitive, an element s / T (packed as P(s), ``OmegaSet``) is
    -lambda times it exactly when s = c D for an int c, that is when P(s) = c P(D) and every
    |c D_i| is inside the fields; then lambda = -c S / (g T). The c are sorted before any
    Fraction is built."""
    omegas, scale = omega_set(data), lcm(*(c.denominator for c in direction.coeffs))
    d = [c.numerator * (scale // c.denominator) for c in direction.coeffs]
    g = gcd(*d)
    d, half, found = [x // g for x in d], 1 << (omegas._width - 1), {0}
    top, unit = max(map(abs, d)), _pack(d, omegas._width)
    # a D outside the fields has no nonzero multiple inside them
    for s in omegas._sums if top < half else ():
        c, r = divmod(s, unit)
        if not r and abs(c) * top < half:
            found.add(c)
    return [Fraction(-c * scale, g * omegas._scale) for c in sorted(found, reverse=True)]


def scan_line(g: LieAlgebra, direction: OneForm) -> ScanTable:
    """Evaluate the twisted Betti numbers at every critical multiple.

    Requires a nonzero closed direction and a rationally triangularizable
    algebra (the critical set comes from the weight data).
    """
    _require_types((g, LieAlgebra), (direction, OneForm))
    if direction.is_zero():
        raise ComputationDomainError("scan direction must be a nonzero one-form")
    if not is_closed(g, direction):
        raise NonClosedFormError("scan direction must be a closed one-form")
    data = adapted_basis(g)
    criticals = _critical_multipliers(data, direction)
    lams = criticals + [1 + max(abs(lam) for lam in criticals)]
    rows = [ScanRow(lam, tuple(b)) for lam, b in zip(lams, _betti_along(g, direction, lams))]
    return ScanTable(direction=direction, critical_lambdas=tuple(criticals),
                     rows=tuple(rows[:-1]), generic=rows[-1])


@_record
class NovikovReport:
    """Degree-by-degree comparison of Morse counts against Betti numbers.

    ``holds[p]`` is m_p >= b_p at the scaled form lambda * omega.
    ``lambda_critical`` records whether -lambda*omega lies in the exceptional
    set (None when the weight data is unavailable); the inequality is only
    asserted for sufficiently large multipliers, so a critical lambda is a
    warning, not a contradiction.
    """

    omega: OneForm
    lam: Fraction
    betti: tuple[int, ...]
    morse_counts: tuple[int, ...]
    holds: tuple[bool, ...]
    lambda_critical: bool | None

    @property
    def all_hold(self) -> bool:
        return all(self.holds)

    @property
    def violations(self) -> tuple[int, ...]:
        return tuple(p for p, ok in enumerate(self.holds) if not ok)


def novikov_report(g: LieAlgebra, omega: OneForm, lam,
                   morse_counts) -> NovikovReport:
    """Compare Morse counts against the Betti numbers of lambda * omega: all 0, unwalked,
    where -lambda * omega lies outside the exceptional set (``vanishing_predicate``)."""
    _require_types((g, LieAlgebra), (omega, OneForm))
    lam = _exact(lam)
    counts = vector(morse_counts)
    if fractional := [q for q in counts if q.denominator != 1]:
        raise StructureError(f"Morse counts must be integers, got {fractional[0]}")
    counts = tuple(q.numerator for q in counts)
    if len(counts) != g.dim + 1:
        raise StructureError(
            f"need {g.dim + 1} Morse counts (degrees 0..{g.dim}), got {len(counts)}")
    if any(m < 0 for m in counts):
        raise StructureError("Morse counts must be nonnegative")
    scaled = omega.scale(lam)
    _wedge_terms(g, scaled)  # the length and closedness checks of ``betti_numbers``, first
    critical: bool | None
    try:
        critical = omega_set(adapted_basis(g))._has(scaled.coeffs, -1)
    except ComputationDomainError:
        critical = None
    betti = (0,) * (g.dim + 1) if critical is False else tuple(betti_numbers(g, scaled))
    holds = tuple(m >= b for m, b in zip(counts, betti))
    return NovikovReport(omega=omega, lam=lam, betti=betti,
                         morse_counts=counts, holds=holds,
                         lambda_critical=critical)
