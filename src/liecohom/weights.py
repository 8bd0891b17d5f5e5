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

from .algebra import (
    AlgebraClass,
    LieAlgebra,
    OneForm,
    Subspace,
    classify,
    derived_subalgebra,
)
from .errors import NonClosedFormError, NotSolvableError, NotTriangularizableError
from .linalg import (
    RationalMatrix,
    Vector,
    extend_independent,
    in_image,
    kernel_basis,
    rank,
    span_basis,
    unit_vector,
)


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


def _derived_chain_basis(g: LieAlgebra) -> list[Vector]:
    """Basis b_1..b_n such that every suffix span is an ideal of the previous.

    Built by completing upwards through the derived series: the suffixes
    interpolate consecutive derived terms, and any subspace squeezed between
    D_{i+1} and D_i satisfies [D_i, U] <= D_{i+1} <= U.
    """
    n = g.dim
    series = [Subspace.span(n, [unit_vector(n, j) for j in range(n)])]
    while True:
        current = series[-1]
        if current.dim == 0:
            break
        nxt = Subspace.span(
            n, [g.bracket(x, y) for x in current.basis for y in current.basis])
        if nxt.dim == current.dim:
            break
        series.append(nxt)
    basis: list[Vector] = []
    # deepest term first; new vectors are prepended. The series of a solvable
    # algebra ends at 0 and basis spans each deeper term, so the extension
    # picks exactly dim(shallower) - dim(deeper) vectors.
    for shallower in reversed(series[:-1]):
        basis = extend_independent(basis, shallower.basis, n) + basis
    return basis


def _solve_columns(columns: list[Vector], target: Vector) -> Vector:
    m = RationalMatrix.from_columns([list(c) for c in columns])
    sol = in_image(m, target)
    if sol is None:
        raise AssertionError("vector unexpectedly outside an invariant subspace")
    return sol


def _quotient_action(g: LieAlgebra, x: Vector, quot: list[Vector],
                     flag: list[Vector]) -> RationalMatrix:
    """Matrix of ad(x) on span(quot) modulo span(flag), in quot coordinates."""
    columns = quot + flag
    cols_out = []
    for q in quot:
        coords = _solve_columns(columns, g.bracket(x, q))
        cols_out.append(coords[:len(quot)])
    return RationalMatrix.from_columns([list(c) for c in cols_out])


def _restrict(a: RationalMatrix, sub: list[Vector]) -> RationalMatrix:
    """Matrix of ``a`` on span(sub) in sub coordinates; sub must be invariant."""
    cols = [_solve_columns(sub, a.apply(s)) for s in sub]
    return RationalMatrix.from_columns([list(c) for c in cols])


def adapted_basis(g: LieAlgebra) -> WeightData:
    """Construct the flag basis and weights for a solvable algebra.

    Raises NotSolvableError for non-solvable input and
    NotTriangularizableError when some step meets a characteristic
    polynomial without a rational root. All tie-breaks are fixed (smallest
    eigenvalue first, first independent generator first), so the output is
    deterministic.
    """
    if classify(g) is AlgebraClass.NON_SOLVABLE:
        raise NotSolvableError("adapted basis requires a solvable Lie algebra")
    n = g.dim
    der = derived_subalgebra(g)
    k = n - der.dim
    chain = _derived_chain_basis(g)
    flag: list[Vector] = []
    adjoint_funcs: list[Vector] = []

    while len(flag) < der.dim:
        quot = extend_independent(flag, der.basis, n)
        q_dim = len(quot)
        chain_actions = [_quotient_action(g, b, quot, flag) for b in chain]
        space = [unit_vector(q_dim, j) for j in range(q_dim)]
        for action in reversed(chain_actions):
            restricted = _restrict(action, space)
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
        eigenvalues = []
        for i in range(n):
            image = _quotient_action(g, unit_vector(n, i), quot, flag).apply(vq)
            pivot = next(j for j, c in enumerate(vq) if c != 0)
            lam = image[pivot] / vq[pivot]
            if any(image[j] != lam * vq[j] for j in range(q_dim)):
                raise AssertionError("flag vector is not a joint eigenvector")
            eigenvalues.append(lam)
        adjoint_funcs.append(tuple(eigenvalues))
        flag.append(tuple(sum((vq[c] * quot[c][i] for c in range(q_dim)), Fraction(0))
                          for i in range(n)))

    complement = extend_independent(der.basis, [unit_vector(n, j) for j in range(n)], n)
    columns = complement + list(reversed(flag))
    change = RationalMatrix.from_columns([list(c) for c in columns])
    assert rank(change) == n
    # dual-basis orientation: weights are the negatives of the adjoint
    # eigenvalue functionals
    weights = [OneForm.zero(n)] * k + [
        OneForm(tuple(-c for c in func)) for func in reversed(adjoint_funcs)
    ]
    for w in weights:
        assert all(w.evaluate(v) == 0 for v in der.basis), \
            "weights must vanish on the derived subalgebra"
    return WeightData(adapted_change=change, weights=tuple(weights), k=k)


def omega_set(data: WeightData) -> OmegaSet:
    """All sums of weights over nonempty index subsets, deduplicated.

    The zero form belongs to the set whenever some weight is zero, which for
    a solvable algebra is always the case (the closed block is nonempty).
    """
    n = data.dim
    sums = set()
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            total = OneForm.zero(n)
            for i in subset:
                total = total + data.weights[i]
            sums.add(total)
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
