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
Only those k need eigenvalues. A candidate is tested by one elimination of
an integer echelon of the joint eigenspace found so far plus the candidate's
shifted rows: rank below the quotient's dimension means it leaves a nonzero
joint kernel, and that echelon is the one the next action is tested on. The
actions on [g, g] are int rows with per-row scales, row i = R_i / s_i, read
off the integer brackets with no solve: in the reduced echelon basis of
[g, g] a vector's coordinates are its entries at the pivots. The step that
finds the eigenvector v deflates them by one elimination step, row_i -=
(v_i / v_s) row_s with row and column s dropped, for the last nonzero
coordinate s of v: a greedy pick of unit vectors modulo the enlarged flag
keeps every other coordinate, as v puts e_s, and no other, in the span of
those before it. An action on an invariant subspace of a quotient of [g, g]
has a characteristic polynomial dividing the one on [g, g], so the spectrum
of each complement element on [g, g] holds every eigenvalue a step can meet.
A triangular action yields its diagonal; any other, the integer roots of the
characteristic polynomial of D * action, D = lcm(s_i), divided by D, found
exactly by bisection between integer cuts of its derivatives' roots inside
Fujiwara's root bound, at a cost polynomial in the degree and the bits.

The recorded weight alpha_i is the coefficient form of the dual relation

    d e~^i = alpha_i ^ e~^i + (terms in e~^1 .. e~^{i-1}),

i.e. the negative of the adjoint eigenvalue functional of the i-th flag
line. With this orientation the finite set of all subset sums of weights
controls vanishing: if -w lies outside it, the whole twisted cohomology is
zero. That set is summed as int tuples, every weight times one lcm of their
denominators, and a OneForm is built only for each distinct sum. The flag, the
complement of [g, g] and the weights are read off int rows as well. Everything
stays rational; an irrational or complex eigenvalue is reported as
NotTriangularizableError instead of being approximated.
"""

from __future__ import annotations

import enum
from collections import Counter
from fractions import Fraction
from itertools import combinations, groupby
from math import gcd, lcm
from operator import add

from .algebra import LieAlgebra, OneForm, _memo, _record, _series_rows, pullback_one_form
from .errors import (NonClosedFormError, NotSolvableError, NotTriangularizableError,
                     _require_types)
from .exterior import _check_degree
from .linalg import RationalMatrix, Vector, _echelon, _integer_rows, _kernel, _reduce

# unused here, kept importable because perfbench/tracer.py wraps these names
from .algebra import classify, derived_subalgebra  # noqa: F401
from .linalg import extend_independent, in_image, kernel_basis, rank, span_basis  # noqa: F401


@_record
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

    def __post_init__(self):
        _require_types((self.adapted_change, RationalMatrix), (self.weights, tuple), (self.k, int))
        _require_types(*((w, OneForm) for w in self.weights))
        # ``_adapted_weights``: each weight's coefficients in the adapted dual basis, pulled back
        # once per instance and weight object (k zero weights: one) so that ``r0_spectrum`` need not
        once = {id(w): w for w in self.weights}
        once = {i: pullback_one_form(w, self.adapted_change).coeffs for i, w in once.items()}
        object.__setattr__(self, "_adapted_weights", tuple(once[id(w)] for w in self.weights))

    @property
    def dim(self) -> int:
        return len(self.weights)


@_record
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


def _eigenvalues(a: list[tuple[dict, int]]) -> list[Fraction]:
    """Distinct rational eigenvalues of a square action's rows, ascending.

    Row i is R_i / s_i for a sparse int row R_i and an int s_i > 0. A
    triangular action (row i's keys all >= i for every i, or all <= i) yields
    its diagonal. Otherwise B = D a is an int matrix, D = lcm(s_i). The trace
    recursion M_k = B M_(k-1) + c_(m-k+1) I, c_(m-k) = -tr(B M_k) / k gives
    its characteristic polynomial x^m + c_(m-1) x^(m-1) + ... + c_0 over
    sparse int rows; it is monic over Z, so each division by k is exact and
    every rational eigenvalue of ``a`` is an integer root of it divided by D.
    """
    if (all(min(r, default=i) >= i for i, (r, _) in enumerate(a))
            or all(max(r, default=i) <= i for i, (r, _) in enumerate(a))):
        return sorted({Fraction(r.get(i, 0), s) for i, (r, s) in enumerate(a)})
    scale = lcm(*(s for _, s in a))
    b = [{j: x * (scale // s) for j, x in r.items()} for r, s in a]
    poly, prod = [1], [{} for _ in b]
    for k in range(1, len(b) + 1):
        mk, prod = [r | {i: r.get(i, 0) + poly[-1]} for i, r in enumerate(prod)], []
        # B M_k = M_k B: row i combines the rows of B that row i of M_k names
        for r in mk:
            acc: dict[int, int] = {}
            for s, x in r.items():
                for j, y in b[s].items():
                    acc[j] = acc.get(j, 0) + x * y
            prod.append({j: v for j, v in acc.items() if v})
        poly.append(-sum(r.get(i, 0) for i, r in enumerate(prod)) // k)
    return sorted(Fraction(y, scale) for y in _integer_roots(poly))


def _evaluate(p: list[int], x: int) -> int:
    v = 0
    for c in p:
        v = v * x + c
    return v


def _integer_roots(p: list[int]) -> list[int]:
    """Distinct integer roots of an integer polynomial, leading coefficient
    first, in ascending order.

    Between adjacent real roots of q', q is strictly monotone (Rolle), so a
    sign change there marks its one root. The walk goes up the derivatives
    from the linear one to p and keeps integer cuts: every real root of the
    polynomial reached so far is a cut or lies strictly between two cuts at
    distance 1. At q, adjacent cuts at distance 2 or more hold no root of q',
    and integer bisection shrinks a sign change between them to distance 1;
    the outer ends are +-b, b / 2 >= Fujiwara's bound on |z|. A multiple root
    of q is a root of q', so every integer root of p ends as a cut.
    """
    chain = [p]
    while len(chain[-1]) > 2:
        m = len(chain[-1]) - 1
        chain.append([(m - i) * c for i, c in enumerate(chain[-1][:-1])])
    cuts: set[int] = set()
    for q in reversed(chain):
        b = 4 << max(((abs(c).bit_length() + k - 1) // k for k, c in enumerate(q[1:], 1)),
                     default=0)
        ends = sorted(cuts | {-b, b})
        values = [_evaluate(q, x) for x in ends]
        for u, v, fu, fv in zip(ends, ends[1:], values, values[1:]):
            if fu * fv < 0:
                while v - u > 1:
                    mid = (u + v) // 2
                    if _evaluate(q, mid) * fu > 0:
                        u = mid
                    else:
                        v = mid
                cuts |= {u, v}
    return sorted(x for x in cuts if _evaluate(p, x) == 0)


def _primitive(row: dict[int, int], scale: int) -> tuple[dict[int, int], int]:
    """``(R, s)`` for the row ``row / scale``, both divided by their gcd."""
    c = gcd(scale, *row.values())
    return {j: x // c for j, x in row.items()}, scale // c


def _shift(a: list[tuple[dict, int]], lam: Fraction) -> list[dict[int, int]]:
    """Int rows of the action less lam = p/q: row i is q R_i - p s_i e_i."""
    p, q, rows = lam.numerator, lam.denominator, []
    for i, (r, s) in enumerate(a):
        rows.append({j: q * x for j, x in r.items()})
        if d := rows[-1].pop(i, 0) - p * s:
            rows[-1][i] = d
    return rows


def _deflate(a: list[tuple[dict, int]], v: list[int], s: int) -> list[tuple[dict, int]]:
    """The action modulo its eigenvector ``v`` (ints), on the coordinates less ``s``:
    row_i - (v_i / v_s) row_s = (v_s s_s R_i - v_i s_i R_s) / (v_s s_s s_i)."""
    (pivot, s_s), rows = a[s], []
    for i, (r, s_i) in enumerate(a):
        if v[i] and i != s:
            f, h = abs(v[s]) * s_s, (v[i] if v[s] > 0 else -v[i]) * s_i
            r, s_i = {j: f * r.get(j, 0) - h * pivot.get(j, 0) for j in r.keys() | pivot}, f * s_i
        rows.append(_primitive({j - (j > s): x for j, x in r.items() if x and j != s}, s_i))
    return rows[:s] + rows[s + 1:]


def adapted_basis(g: LieAlgebra) -> WeightData:
    """Construct the flag basis and weights for a solvable algebra.

    Raises NotSolvableError for non-solvable input and
    NotTriangularizableError when some step meets a characteristic
    polynomial without a rational root. All tie-breaks are fixed (smallest
    eigenvalue first, first independent generator first), so the output is
    deterministic. The result is computed once per algebra (``_memo``); a
    failure is raised again on every call.
    """
    _require_types((g, LieAlgebra))
    return _memo(g, "_weight_data", _flag)


def _flag(g: LieAlgebra) -> WeightData:
    series = _series_rows(g)
    if not series or series[-1]:
        raise NotSolvableError("adapted basis requires a solvable Lie algebra")
    n, der = g.dim, series[0]
    k = n - len(der)
    # a greedy pick of unit vectors modulo [g, g] keeps e_j unless some vector of [g, g]
    # ends at j: a pivot of der's echelon with the columns reversed, ``tails`` reduced
    tails, ends = _echelon([{n - 1 - j: x for j, x in r.items()} for r in der])
    _reduce(tails, ends)
    tails, ends = [{n - 1 - j: x for j, x in r.items()} for r in tails], [n - 1 - c for c in ends]
    complement = sorted(set(range(n)).difference(ends))
    # ad(x) on [g, g] in der.basis coordinates as int rows, for every acting x (the
    # complement, then der.basis): row r reads the brackets at pivot r of the reduced echelon
    # der.basis, cleared at one lcm D, at scale L * D * (x's scale); none when [g, g] = 0
    pivots = [min(r) for r in der]
    d = lcm(*(abs(r[p]) // gcd(*r.values()) for r, p in zip(der, pivots)))
    cleared = [[r.get(j, 0) * d // r[p] for j in range(n)] for r, p in zip(der, pivots)]
    actions = []
    for x, dx in ([([int(i == j) for i in range(n)], 1) for j in complement]
                  + [(b, d) for b in cleared]) if der else ():
        images = [g._int_bracket(x, b) for b in cleared]
        actions.append([_primitive({c: y[p] for c, y in enumerate(images) if y[p]},
                                   g._scale * d * dx) for p in pivots])
    # a zero der.basis action stays zero under ``_deflate``, adds no row to
    # ``cut`` and meets its eigenvalue 0 in the joint-eigenvector check
    actions = actions[:k] + [a for a in actions[k:] if any(r for r, _ in a)]
    # every rational eigenvalue a flag step can meet (see the module docstring)
    candidates = [_eigenvalues(a) for a in actions[:k]]
    # the der.basis vectors, cleared, whose images are the basis of the
    # quotient of [g, g] by the flag that ``actions`` act on
    quot = list(cleared)
    e, flag, weights = lcm(*(r[t] for r, t in zip(tails, ends))), [], []

    while quot:
        q_dim = len(quot)
        # [g, g] acts nilpotently on a solvable algebra (Lie's theorem), so its
        # common eigenspace is the joint kernel of the actions of der.basis
        # (of any basis: the action is linear in the acting element); ``cut``
        # is an integer echelon of rows with that kernel. Each joint eigenspace
        # is invariant under every action, so the smallest candidate whose
        # shifted rows, eliminated once with ``cut``, give rank below q_dim (a
        # nonzero joint kernel) is the smallest rational eigenvalue of the next
        # action on it, and that echelon is the new ``cut``.
        cut, _ = _echelon([r for action in actions[k:] for r, _ in action])
        lams = [Fraction(0)] * n
        for i in reversed(range(k)):
            for lam in candidates[i]:
                echelon, leads = _echelon(cut + _shift(actions[i], lam))
                if len(leads) < q_dim:
                    cut, lams[i] = echelon, lam
                    break
            else:
                raise NotTriangularizableError(
                    "adjoint action has no rational eigenvalue on the current "
                    "invariant subspace; the algebra is not rationally "
                    "triangularizable")
        # v: the joint kernel's first reduced echelon vector, primitive, with a positive lead
        basis, leads = _echelon(_integer_rows(_kernel(cut, q_dim)))
        _reduce(basis, leads)
        content = gcd(*basis[0].values()) * (1 if basis[0][leads[0]] > 0 else -1)
        v = [basis[0].get(j, 0) // content for j in range(q_dim)]
        # (R_i / s_i - p / q) v = 0 for each action's lam = p / q
        if any(lam.denominator * sum(x * v[j] for j, x in r.items()) != lam.numerator * s_i * v[i]
               for a, lam in zip(actions, lams) for i, (r, s_i) in enumerate(a)):
            raise AssertionError("flag vector is not a joint eigenvector")
        # dual-basis orientation: weight w is the negated adjoint eigenvalue functional f,
        # so w_j = -f(e_j) on the complement, and w kills [g, g]: a tail row r ending at t
        # gives w_t = -sum_(j != t) r_j w_j / r_t; in ints at scale E * lcm(denominators of f)
        scale = e * lcm(*(lam.denominator for lam in lams[:k]))
        w = {j: -lam.numerator * (scale // lam.denominator) for j, lam in zip(complement, lams)}
        w |= {t: -sum(x * w[j] for j, x in r.items() if j != t) // r[t]
              for r, t in zip(tails, ends)}
        if any(sum(x * w[j] for j, x in r.items()) for r in der):
            raise AssertionError("weights must vanish on the derived subalgebra")
        weights.append(OneForm([Fraction(w[j], scale) for j in range(n)]))
        column = (sum(c * b[j] for c, b in zip(v, quot) if c) for j in range(n))
        flag.append(({j: x for j, x in enumerate(column) if x}, d * v[leads[0]]))
        # a greedy pick of unit vectors modulo the enlarged flag keeps every
        # quotient coordinate but the last one v uses (module docstring)
        s = max(c for c, x in enumerate(v) if x)
        actions = [_deflate(a, v, s) for a in actions]
        del quot[s]

    # the columns of ``change``, each an int column at a scale; their rank on the ints
    columns = [({j: 1}, 1) for j in complement] + flag[::-1]
    if len(_echelon([col for col, _ in columns])[1]) != n:
        raise AssertionError("adapted basis vectors are not independent")
    change = RationalMatrix._adopt(n, n, [{j: Fraction(x, q) for j, x in col.items()}
                                          for col, q in columns]).transpose()
    return WeightData(adapted_change=change, weights=(OneForm.zero(n),) * k + tuple(weights[::-1]),
                      k=k)


def omega_set(data: WeightData) -> OmegaSet:
    """All sums of weights over nonempty index subsets, deduplicated.

    The zero form belongs to the set whenever some weight is zero, which for
    a solvable algebra is always the case (the closed block is nonempty).
    The sums are taken as int tuples at one denominator (``_subset_sums``), and
    a OneForm is built only for each distinct one. The set is computed once per
    WeightData object (``_memo``).
    """
    _require_types((data, WeightData))
    return _memo(data, "_omega_set", _subset_sums)


def _subset_sums(data: WeightData) -> OmegaSet:
    """The subset sums as int tuples at one denominator D, then one OneForm per distinct sum."""
    # each weight x as ints, times the lcm D of all denominators, with its multiplicity m;
    # a run of one object (the k zero weights of ``adapted_basis``) is counted before hashing
    runs = [(w, len(list(run))) for w, run in groupby(data.weights)]
    d = lcm(*(c.denominator for w, _ in runs for c in w.coeffs))
    groups: Counter[tuple[int, ...]] = Counter()
    for w, m in runs:
        groups[tuple(c.numerator * (d // c.denominator) for c in w.coeffs)] += m
    sums: set[tuple[int, ...]] = set()
    # after each x, sums holds the nonempty subset sums of the weights so far: a
    # choice of j of the m copies adds jx, and every jx of a zero x is x
    for x, m in groups.items():
        multiples = [tuple(j * c for c in x) for j in range(1, m + 1)] if any(x) else [x]
        sums |= {tuple(map(add, s, y)) for s in sums for y in multiples} | set(multiples)
    # one OneForm per distinct sum, its entries one shared Fraction per distinct int
    shared = {x: Fraction(x, d) for x in set().union(*sums)}
    return OmegaSet(frozenset(OneForm(tuple(map(shared.__getitem__, s))) for s in sums))


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
    _require_types((data, WeightData), (omega, OneForm))
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
    _require_types((data, WeightData), (omega, OneForm))
    _check_degree(p, data.dim)
    vectors = (_require_closed_weightwise(data, omega), *data._adapted_weights)
    # on ints: every vector times one lcm D of their denominators, each value times D^2
    d = lcm(*(c.denominator for v in vectors for c in v))
    base, *weights = ([c.numerator * (d // c.denominator) for c in v] for v in vectors)
    return [Fraction(v, d * d) for v in sorted(sum(sum(col) ** 2 for col in zip(base, *subset))
                                               for subset in combinations(weights, p))]


def weight_sum_check(data: WeightData) -> bool:
    """Whether the weights sum to zero; agrees with unimodularity."""
    _require_types((data, WeightData))
    return not any(map(sum, zip(*(w.coeffs for w in data.weights))))
