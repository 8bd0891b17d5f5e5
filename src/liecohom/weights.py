"""Adapted bases, weight one-forms and the finite exceptional set.

For a solvable algebra the adjoint action on the derived subalgebra can be
brought to triangular form. This module constructs such a flag over the
rationals: it repeatedly finds a common eigenvector of the whole algebra
acting on the current quotient of [g, g], records the eigenvalue functional,
and quotients it away. Soundness of each step rests on the classical
invariance lemma for weight spaces of ideals, so the generators are consumed
along a chain of subalgebras refined from the derived series.

The recorded weight alpha_i is the coefficient form of the dual relation

    d e~^i = alpha_i ^ e~^i + (terms in e~^1 .. e~^{i-1}),

i.e. the negative of the adjoint eigenvalue functional of the i-th flag
line. With this orientation the finite set of all subset sums of weights
controls vanishing: if -w lies outside it, the whole twisted cohomology is
zero. Everything stays rational; an irrational or complex eigenvalue is
reported as NotTriangularizableError instead of being approximated.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Sequence

from .algebra import LieAlgebra, OneForm, Subspace, derived_series
from .errors import NonClosedFormError, NotSolvableError, NotTriangularizableError
from .linalg import (
    RationalMatrix,
    Vector,
    extend_independent,
    kernel_basis,
    rank,
    solve,
    span_basis,
    unit_vector,
)

# unused here, kept importable because perfbench/tracer.py wraps these names
from .algebra import classify, derived_subalgebra  # noqa: F401
from .linalg import in_image  # noqa: F401


@dataclass(frozen=True)
class WeightData:
    """Change of basis to the adapted flag basis plus the weight one-forms.

    ``adapted_change`` has the new basis vectors as columns (old coordinates);
    positions 1..k span a complement of [g, g], positions k+1..n walk down
    the invariant flag inside [g, g]. ``weights`` are in the original dual
    coordinates; the first k are zero, and every weight kills [g, g].
    """

    adapted_change: RationalMatrix
    weights: tuple[OneForm, ...]
    k: int

    @property
    def dim(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class OmegaSet:
    """Finite set of one-forms: all nonempty subset sums of the weights."""

    elements: frozenset[OneForm]

    def __contains__(self, omega: OneForm) -> bool:
        return omega in self.elements

    def __len__(self) -> int:
        return len(self.elements)

    def sorted_elements(self) -> list[OneForm]:
        return sorted(self.elements, key=lambda f: f.coeffs)


class Vanishing(enum.Enum):
    GUARANTEED_TRIVIAL = "guaranteed_trivial"
    POSSIBLY_NONTRIVIAL = "possibly_nontrivial"


def _char_poly(a: RationalMatrix) -> list[Fraction]:
    """Coefficients c_0..c_m of det(x I - A), by the trace recursion.

    Exact over the rationals; the only divisions are by integers 1..m.
    """
    m = a.rows
    coeffs = [Fraction(0)] * (m + 1)
    coeffs[m] = Fraction(1)
    mk = RationalMatrix.identity(m)
    for k in range(1, m + 1):
        am = a @ mk
        c = -am.trace() / k
        coeffs[m - k] = c
        mk = am + RationalMatrix.identity(m).scale(c)
    return coeffs


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _rational_roots(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """Distinct rational roots, ascending, via the rational root theorem.

    The polynomial is cleared to a primitive integer polynomial first; zero
    roots are stripped off before enumerating p/q candidates.
    """
    mult = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * mult) for c in coeffs]
    while ints and ints[-1] == 0:
        ints.pop()
    if not ints:
        raise ValueError("zero polynomial has every rational as a root")
    roots = set()
    low = 0
    while low < len(ints) and ints[low] == 0:
        low += 1
    if low > 0:
        roots.add(Fraction(0))
        ints = ints[low:]
    if len(ints) > 1:
        content = 0
        for c in ints:
            content = gcd(content, c)
        ints = [c // content for c in ints]
        for p in _divisors(ints[0]):
            for q in _divisors(ints[-1]):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    if cand in roots:
                        continue
                    acc = Fraction(0)
                    for c in reversed(ints):
                        acc = acc * cand + c
                    if acc == 0:
                        roots.add(cand)
    return sorted(roots)


def _derived_chain_basis(series: list[Subspace]) -> list[Vector]:
    """Basis b_1..b_n such that every suffix span is an ideal of the previous.

    Built by completing upwards through the derived series: the suffixes
    interpolate consecutive derived terms, and any subspace squeezed between
    D_{i+1} and D_i satisfies [D_i, U] <= D_{i+1} <= U.
    """
    n = series[0].ambient_dim
    basis: list[Vector] = []
    # deepest term first; new vectors are prepended. The series of a solvable
    # algebra ends at 0 and basis spans each deeper term, so the extension
    # picks exactly dim(shallower) - dim(deeper) vectors.
    for shallower in reversed(series[:-1]):
        basis = extend_independent(basis, shallower.basis, n) + basis
    return basis


def _coordinates(columns: list[Vector], targets: list[Vector]) -> list[Vector]:
    """Coordinates of every target on the independent ``columns``."""
    coords = solve(RationalMatrix.from_columns(columns), targets)
    if coords is None:
        raise AssertionError("vector unexpectedly outside an invariant subspace")
    return coords


def adapted_basis(g: LieAlgebra) -> WeightData:
    """Construct the flag basis and weights for a solvable algebra.

    Raises NotSolvableError for non-solvable input and
    NotTriangularizableError when some step meets a characteristic
    polynomial without a rational root. All tie-breaks are fixed (smallest
    eigenvalue first, first independent generator first), so the output is
    deterministic.
    """
    series = derived_series(g)
    if series[-1].dim != 0:
        raise NotSolvableError("adapted basis requires a solvable Lie algebra")
    n = g.dim
    der = series[1]
    k = n - der.dim
    chain = _derived_chain_basis(series)
    flag: list[Vector] = []
    adjoint_funcs: list[Vector] = []

    while len(flag) < der.dim:
        # quot + flag is a basis of [g, g], so coordinates on it are unique and
        # the first q_dim of them are coordinates in the quotient by the flag
        quot = extend_independent(flag, der.basis, n)
        q_dim = len(quot)
        columns = quot + flag
        chain_coords = _coordinates(columns, [g.bracket(b, q) for b in chain for q in quot])
        chain_actions = [
            RationalMatrix.from_columns([c[:q_dim] for c in chain_coords[i:i + q_dim]])
            for i in range(0, len(chain_coords), q_dim)
        ]
        space = [unit_vector(q_dim, j) for j in range(q_dim)]
        for action in reversed(chain_actions):
            # matrix of the action on the invariant span(space), in its coordinates
            restricted = RationalMatrix.from_columns(
                _coordinates(space, [action.apply(s) for s in space]))
            roots = _rational_roots(_char_poly(restricted))
            if not roots:
                raise NotTriangularizableError(
                    "adjoint action has no rational eigenvalue on the current "
                    "invariant subspace; the algebra is not rationally "
                    "triangularizable")
            lam = roots[0]
            shifted = restricted + RationalMatrix.identity(len(space)).scale(-lam)
            inner = kernel_basis(shifted)
            lifted = [
                tuple(sum((c * s[i] for c, s in zip(coords, space)), Fraction(0))
                      for i in range(q_dim))
                for coords in inner
            ]
            space = span_basis(lifted, q_dim)
        vq = space[0]
        v = tuple(sum((vq[c] * quot[c][i] for c in range(q_dim)), Fraction(0))
                  for i in range(n))
        pivot = next(j for j, c in enumerate(vq) if c != 0)
        eigenvalues = []
        # [e_i, v] modulo the flag, in quot coordinates, is ad(e_i) applied to vq
        for image in _coordinates(columns, [g.bracket(unit_vector(n, i), v)
                                            for i in range(n)]):
            lam = image[pivot] / vq[pivot]
            if any(image[j] != lam * vq[j] for j in range(q_dim)):
                raise AssertionError("flag vector is not a joint eigenvector")
            eigenvalues.append(lam)
        adjoint_funcs.append(tuple(eigenvalues))
        flag.append(v)

    complement = extend_independent(der.basis, [unit_vector(n, j) for j in range(n)], n)
    columns = complement + list(reversed(flag))
    change = RationalMatrix.from_columns([list(c) for c in columns])
    if rank(change) != n:
        raise AssertionError("adapted basis vectors are not independent")
    # dual-basis orientation: weights are the negatives of the adjoint
    # eigenvalue functionals
    weights = [OneForm.zero(n)] * k + [
        OneForm(tuple(-c for c in func)) for func in reversed(adjoint_funcs)
    ]
    for w in weights:
        if any(w.evaluate(v) != 0 for v in der.basis):
            raise AssertionError("weights must vanish on the derived subalgebra")
    return WeightData(adapted_change=change, weights=tuple(weights), k=k)


def omega_set(data: WeightData) -> OmegaSet:
    """All sums of weights over nonempty index subsets, deduplicated.

    The zero form belongs to the set whenever some weight is zero, which for
    a solvable algebra is always the case (the closed block is nonempty).
    """
    sums: set[OneForm] = set()
    # after j weights, sums holds the nonempty subset sums of the first j
    for w in data.weights:
        sums |= {s + w for s in sums} | {w}
    return OmegaSet(frozenset(sums))


def _adapted_coords(data: WeightData, omega: OneForm) -> Vector:
    """Coefficients of a one-form in the adapted dual basis."""
    return data.adapted_change.transpose().apply(omega.coeffs)


def _require_closed_weightwise(data: WeightData, omega: OneForm) -> None:
    # positions k+1..n of the adapted basis span [g, g], so a closed form is
    # exactly one with no coefficients there
    coords = _adapted_coords(data, omega)
    if any(c != 0 for c in coords[data.k:]):
        raise NonClosedFormError("one-form is not closed (does not kill [g, g])")


def vanishing_predicate(data: WeightData, omega: OneForm) -> Vanishing:
    """GuaranteedTrivial when -omega avoids the exceptional set.

    One-directional: PossiblyNontrivial makes no claim either way.
    """
    _require_closed_weightwise(data, omega)
    if -omega in omega_set(data):
        return Vanishing.POSSIBLY_NONTRIVIAL
    return Vanishing.GUARANTEED_TRIVIAL


def r0_spectrum(data: WeightData, omega: OneForm, p: int) -> list[Fraction]:
    """Diagonal spectrum of the leading curvature operator at degree p.

    For each increasing p-tuple the value is the squared norm of the weight
    subset sum shifted by omega, with the adapted dual basis declared
    orthonormal. Sorted ascending; the minimum is zero exactly when some
    p-subset of weights sums to -omega.
    """
    n = data.dim
    if not 0 <= p <= n:
        raise ValueError(f"degree {p} out of range 0..{n}")
    _require_closed_weightwise(data, omega)
    values = []
    for subset in combinations(range(n), p):
        total = omega
        for i in subset:
            total = total + data.weights[i]
        coords = _adapted_coords(data, total)
        values.append(sum((c * c for c in coords), Fraction(0)))
    return sorted(values)


def weight_sum_check(data: WeightData) -> bool:
    """Whether the weights sum to zero; agrees with unimodularity."""
    total = OneForm.zero(data.dim)
    for w in data.weights:
        total = total + w
    return total.is_zero()
