"""Adapted bases, weight one-forms and the finite exceptional set.

For a solvable algebra the adjoint action on the derived subalgebra can be
brought to triangular form. This module constructs such a flag over the
rationals: it repeatedly finds a common eigenvector of the whole algebra
acting on the current quotient of [g, g], records the eigenvalue functional,
and quotients it away. Soundness of each step rests on the classical
invariance lemma: a common eigenspace of an ideal is invariant under the
whole algebra. Every subspace that contains [g, g] is an ideal, so the
actions can be taken in any fixed order: first [g, g], which acts
nilpotently (Lie's theorem) and so has one joint kernel as its common
eigenspace, then the k vectors of a complement of [g, g], one at a time.
Only those k need eigenvalues. The adjoint action on [g, g] is tabulated
once per call, and every flag step reads that table. An action on an
invariant subspace of a quotient of [g, g] has a characteristic polynomial
dividing the one on [g, g], so one characteristic polynomial per complement
element on [g, g] holds every eigenvalue a step can meet. Its rational
roots are isolated exactly with Sturm sequences, at a cost polynomial in
the bit size of the coefficients.

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
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Sequence

from .algebra import LieAlgebra, OneForm, derived_series, pullback_one_form
from .errors import NonClosedFormError, NotSolvableError, NotTriangularizableError
from .exterior import _check_degree
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
    # the OmegaSet of these weights once ``omega_set`` has computed it
    _omega_memo: list = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_omega_memo", [])

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


def _remainder(a: list[int], b: list[int]) -> list[int]:
    """Primitive positive multiple of the remainder of ``a`` by ``b``.

    Integer pseudo-division on coefficient lists written leading term first:
    every step scales the running remainder by |lc(b)| > 0, so the result
    has the signs of the true remainder and no fraction appears.
    """
    lead, sign = abs(b[0]), (1 if b[0] > 0 else -1)
    r = list(a)
    while len(r) >= len(b):
        q = sign * r[0]
        r = [lead * x - q * y for x, y in zip(r, b + [0] * (len(r) - len(b)))]
        while r and r[0] == 0:
            r.pop(0)
    content = gcd(*r) if r else 1
    return [x // content for x in r]


def _sturm(p: list[int]) -> list[list[int]]:
    """Sturm sequence p, p', -rem(p, p'), ... down to gcd(p, p')."""
    m = len(p) - 1
    seq = [p, [(m - i) * c for i, c in enumerate(p[:-1])]]
    while len(seq[-1]) > 1:
        r = _remainder(seq[-2], seq[-1])
        if not r:
            break
        seq.append([-x for x in r])
    return seq


def _evaluate(p: list[int], x: int) -> int:
    v = 0
    for c in p:
        v = v * x + c
    return v


def _variations(seq: list[list[int]], x: int) -> int:
    """Sign changes along the sequence evaluated at x, zeros skipped."""
    signs = [v > 0 for v in (_evaluate(p, x) for p in seq) if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _integer_roots(g: list[int]) -> list[int]:
    """Integer roots of a monic integer polynomial, leading coefficient first.

    The square-free part h = g / gcd(g, g') has the same roots, all simple,
    so V(a) - V(b) over its Sturm sequence counts its real roots in (a, b].
    Integer bisection inside the Cauchy bound 1 + max |h_i| shrinks every
    interval that holds a root to (y - 1, y], and then y is tested exactly.
    """
    d = _sturm(g)[-1]
    content = gcd(*d) if d[0] > 0 else -gcd(*d)
    d = [x // content for x in d]
    # the primitive gcd divides the monic g, so it is monic and g / d is exact
    h, r = [], list(g)
    while len(r) >= len(d):
        h.append(r[0])
        r = [x - r[0] * y for x, y in zip(r[1:], d[1:] + [0] * (len(r) - len(d)))]
    seq = _sturm(h)
    bound = 1 + max(abs(c) for c in h[1:])
    roots = []
    todo = [(-bound, _variations(seq, -bound), bound, _variations(seq, bound))]
    while todo:
        lo, v_lo, hi, v_hi = todo.pop()
        if v_lo == v_hi:
            continue
        if hi - lo == 1:
            if _evaluate(h, hi) == 0:
                roots.append(hi)
            continue
        mid = (lo + hi) // 2
        v_mid = _variations(seq, mid)
        todo += [(lo, v_lo, mid, v_mid), (mid, v_mid, hi, v_hi)]
    return roots


def _rational_roots(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """Distinct rational roots, ascending, at a cost polynomial in the bit size.

    The polynomial is cleared to a primitive integer polynomial f. With a the
    leading coefficient of f and m its degree, g(y) = a^(m-1) f(y/a) is monic
    over the integers, so the rational roots of f are y/a for the integer
    roots y of g, which Sturm isolation finds without enumerating divisors.
    A zero root of f stays a zero root of g.
    """
    mult = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * mult) for c in coeffs]
    while ints and ints[-1] == 0:
        ints.pop()
    if not ints:
        raise ValueError("zero polynomial has every rational as a root")
    if len(ints) == 1:
        return []
    content = gcd(*ints)
    ints = [c // content for c in ints]
    m, a = len(ints) - 1, ints[-1]
    g = [1] + [ints[i] * a ** (m - 1 - i) for i in range(m - 1, -1, -1)]
    return sorted(Fraction(y, a) for y in _integer_roots(g))


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
    deterministic. The result is computed once per algebra object and then
    returned from its memo; a failure is not stored and is raised again on
    every call.
    """
    if g._weight_memo:
        return g._weight_memo[0]
    series = derived_series(g)
    if series[-1].dim != 0:
        raise NotSolvableError("adapted basis requires a solvable Lie algebra")
    n = g.dim
    der = series[1]
    d, k = der.dim, n - der.dim
    complement = extend_independent(der.basis, [unit_vector(n, j) for j in range(n)], n)
    acting = complement + list(der.basis)
    # ad(x) on [g, g] in der.basis coordinates, for every acting x; the flag
    # below lives in these coordinates and makes no bracket. Among der.basis,
    # [b, b] = 0 and [b', b] = -[b, b'], so only the unordered pairs are solved.
    pairs = list(combinations(range(d), 2))
    solved = _coordinates(der.basis, [g.bracket(x, b) for x in complement for b in der.basis]
                          + [g.bracket(der.basis[i], der.basis[j]) for i, j in pairs])
    block = {(i, i): (Fraction(0),) * d for i in range(d)}
    for (i, j), c in zip(pairs, solved[k * d:]):
        block[i, j], block[j, i] = c, tuple(-x for x in c)
    table = solved[:k * d] + [block[i, j] for i in range(d) for j in range(d)]
    ad = [RationalMatrix.from_columns(table[i * d:(i + 1) * d]) for i in range(n)]
    # every rational eigenvalue a flag step can meet (see the module docstring)
    candidates = [_rational_roots(_char_poly(a)) for a in ad[:k]]
    units = [unit_vector(d, j) for j in range(d)]
    flag: list[Vector] = []
    adjoint_funcs: list[list[Fraction]] = []

    while len(flag) < d:
        # quot + flag is a basis of Q^d, so coordinates on it are unique and
        # the first q_dim of them are coordinates in the quotient by the flag
        quot = extend_independent(flag, units, d)
        q_dim = len(quot)
        coords = _coordinates(quot + flag, [a.apply(q) for a in ad for q in quot])
        actions = [
            RationalMatrix.from_columns([c[:q_dim] for c in coords[i:i + q_dim]])
            for i in range(0, len(coords), q_dim)
        ]
        # [g, g] acts nilpotently on a solvable algebra (Lie's theorem), so its
        # common eigenspace is the joint kernel of the actions of der.basis.
        # The action is linear in the acting element, so every basis of [g, g]
        # stacks to the same row space and this canonical kernel. Each joint
        # eigenspace found is invariant under every action, so the smallest
        # candidate that leaves a nonzero joint kernel is the smallest
        # rational eigenvalue of the next action restricted to it.
        stack = [r for action in actions[k:] for r in action.to_rows()]
        lams = [Fraction(0)] * n
        for i in reversed(range(k)):
            for lam in candidates[i]:
                shifted = (actions[i] + RationalMatrix.identity(q_dim).scale(-lam)).to_rows()
                if kernel_basis(RationalMatrix.from_rows(stack + shifted)):
                    stack += shifted
                    lams[i] = lam
                    break
            else:
                raise NotTriangularizableError(
                    "adjoint action has no rational eigenvalue on the current "
                    "invariant subspace; the algebra is not rationally "
                    "triangularizable")
        vq = span_basis(kernel_basis(RationalMatrix.from_rows(stack)), q_dim)[0]
        if any(a.apply(vq) != tuple(lam * c for c in vq) for a, lam in zip(actions, lams)):
            raise AssertionError("flag vector is not a joint eigenvector")
        adjoint_funcs.append(lams)
        flag.append(RationalMatrix.from_columns(quot).apply(vq))

    to_original = RationalMatrix.from_columns(der.basis)
    columns = complement + [to_original.apply(v) for v in reversed(flag)]
    change = RationalMatrix.from_columns([list(c) for c in columns])
    if rank(change) != n:
        raise AssertionError("adapted basis vectors are not independent")
    # dual-basis orientation: weight w is the negated adjoint eigenvalue
    # functional f, so <w, x> = -f(x) for every x in ``acting``: one solve
    carried = solve(RationalMatrix.from_rows(acting),
                    [[-c for c in func] for func in reversed(adjoint_funcs)])
    weights = [OneForm.zero(n)] * k + [OneForm(w) for w in carried]
    for w in weights:
        if any(w.evaluate(v) != 0 for v in der.basis):
            raise AssertionError("weights must vanish on the derived subalgebra")
    # a racing call may have stored an equal result first; keep that one
    g._weight_memo.append(WeightData(adapted_change=change, weights=tuple(weights), k=k))
    return g._weight_memo[0]


def omega_set(data: WeightData) -> OmegaSet:
    """All sums of weights over nonempty index subsets, deduplicated.

    The zero form belongs to the set whenever some weight is zero, which for
    a solvable algebra is always the case (the closed block is nonempty).
    The set is computed once per WeightData object and then returned from its
    memo.
    """
    if data._omega_memo:
        return data._omega_memo[0]
    sums: set[OneForm] = set()
    # after j weights, sums holds the nonempty subset sums of the first j
    for w in data.weights:
        sums |= {s + w for s in sums} | {w}
    data._omega_memo.append(OmegaSet(frozenset(sums)))
    return data._omega_memo[0]


def _require_closed_weightwise(data: WeightData, omega: OneForm) -> Vector:
    # omega in the adapted dual basis; positions k+1..n of the adapted basis
    # span [g, g], so a closed form is exactly one with no coefficients there
    coords = pullback_one_form(omega, data.adapted_change).coeffs
    if any(c != 0 for c in coords[data.k:]):
        raise NonClosedFormError("one-form is not closed (does not kill [g, g])")
    return coords


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
    _check_degree(p, data.dim)
    # the pullback is linear, so pull back omega and each weight once
    base = _require_closed_weightwise(data, omega)
    pulled = [pullback_one_form(w, data.adapted_change).coeffs for w in data.weights]
    values = [sum((sum(col) ** 2 for col in zip(base, *subset)), Fraction(0))
              for subset in combinations(pulled, p)]
    return sorted(values)


def weight_sum_check(data: WeightData) -> bool:
    """Whether the weights sum to zero; agrees with unimodularity."""
    total = OneForm.zero(data.dim)
    for w in data.weights:
        total = total + w
    return total.is_zero()
