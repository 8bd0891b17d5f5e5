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
cleared, and b^p is their number minus rank d_p. The walk carries each e^I as
its int mask (``exterior``), in the order generated; only returned forms get tuples.

Representatives come out of the same elimination: kept row i also carries
a 1 in column t + i, past the t targets. The echelon rows that lead at t or
later, shifted back by t, are the relations among the kept rows in echelon
form, a basis of ker d_p on them. The rows run in reverse lexicographic
order, so the reduced relation led by i is the ``kernel_basis`` vector v_f:
1 at its lex-last monomial f, 0 at the other free columns of d_p. A cleared
monomial is the lex-largest entry of some z in im d_(p-1), inside ker d_p,
so its column of d_p is never a pivot and dropping it leaves every other v_f
unchanged. The kept free columns are the free monomials outside the cleared
set, the greedy pick of the v_f modulo im d_(p-1): every relation is a
representative, reproducible bit for bit.

Primitives are relations led by xi. ``is_coboundary`` puts the row of D * xi
(D the lcm of its denominators) ahead of the image rows of all degree p-1
monomials in reverse lexicographic order, each with its unit entry past the
t targets; xi is exact exactly when some relation leads at column t. A
relation leads at source f exactly when d_w e^f depends on the rows of the
monomials before f, so the free columns of the relations are the pivot
columns of d_(p-1) in lexicographic order. Reduced, the relation led by xi is
zero at every other relation pivot, and -S / (D * row[t]) times it is the
minimal pivot preimage of xi, the one ``in_image`` gives on the lex matrix.

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
one-index component {m} is Q with d_w 1 = w_m e^m: (1, 1) if w_m = 0, else
acyclic, which ends the query before any walk. A larger one is walked in its
own indices with the terms of w on them (d e^k names only indices of k's
component). Representatives are not split: ``cohomology`` walks the live
monomials (below) of the whole algebra.

Each factor is walked on its live monomials only (Hattori 1960; as a Morse
matching, Skoldberg 2006). Let x act diagonally in the given basis,
[x, e_i] = a_i e_i. Then L_x e^I = -a_I e^I with a_I the sum of the a_i over
I, and the twisted Cartan formula d_w i_x + i_x d_w = L_x + w(x) makes i_x
a contracting homotopy, up to the nonzero factor w(x) - a_I, on the span of
the e^I with a_I != w(x). L_x commutes with d_w, so these spans and the
live span, a_I = w(x), are subcomplexes and direct summands: the live span
carries all the cohomology. A nonzero C_ij^m forces a_i + a_j = a_m, since
ad x is a derivation, and w_m != 0 forces a_m = 0, since w kills [g, g]:
d_w sends each live monomial to live monomials only. So the live monomials
of every degree, in lexicographic order, form a complex of the same kind as
the full one, and the clearing argument above holds on it word for word.
The x with ad x = 0 are the center: one with w(x) != 0 leaves its factor no
live monomial (a_I = 0 for every I). A factor on which no x acts by nonzero
a_i is walked whole. The live walk gives the representatives of the full one:
d_w is block diagonal over the weight blocks (one per value of the a_I),
``_echelon`` and ``_reduce`` only combine rows with a common leading column,
hence rows of one block, and an acyclic block B keeps |B_p| - rk d_(p-1)|B
rows of rank rk d_p|B in degree p, which leave no relation.

A scan asks for many lam * w at once. An x with w(x) != 0 makes a_I(x) = lam w(x)
hold for lam = a_I(x) / w(x) alone, and one with w(x) = 0 asks a_I(x) = 0 at every
lam: a monomial of a factor that some x sees is live for at most one lam, and one
search, a target per lam, sorts them into buckets; a factor no x sees has one live set
for all. At lam = p / q, q gens and p wedge terms of w's tables give q S d_(lam w).
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, islice
from math import gcd, lcm

from .algebra import LieAlgebra, OneForm, _inner_diagonal, _memo, _record
from .errors import _require_types
from .exterior import (
    ExteriorForm,
    _check_degree,
    _check_form,
    _differential_tables,
    _gens_at,
    _image_rows,
    _indices,
    _masks,
    _wedge_terms,
    deformed_differential,
)
from .linalg import _echelon, _reduce

# unused here, kept importable because perfbench/tracer.py wraps these names
from .exterior import differential_matrices  # noqa: F401
from .linalg import in_image, kernel_basis, rank  # noqa: F401


@_record
class CohomologyResult:
    """Betti numbers b^0..b^n and a basis of cocycle representatives per degree."""

    omega: OneForm
    betti: tuple[int, ...]
    representatives: tuple[tuple[ExteriorForm, ...], ...]


def _cleared_walk(monomials: list, tables, relations: bool = False):
    """Per degree p of the complex spanned by ``monomials`` (per degree, in
    lexicographic order, closed under the differential given by ``tables``,
    see ``_differential_tables``): the monomials degree p-1 did not clear
    (reverse lexicographic order), the relations among their int image rows
    (S * d_w^p) if ``relations`` is set, else [], and rank d_w^p."""
    sources, cleared = monomials[0], set()
    for p in range(len(monomials)):
        targets = monomials[p + 1][::-1] if p + 1 < len(monomials) else []
        kept = [idx for idx in sources if idx not in cleared]
        rows, t = _image_rows(kept, targets, tables), len(targets)
        if relations:
            rows = [row | {t + i: 1} for i, row in enumerate(rows)]
        echelon, pivots = _echelon(rows)
        r = bisect_left(pivots, t)
        yield kept, [{j - t: x for j, x in row.items()} for row in echelon[r:]], r
        sources, cleared = targets, {targets[c] for c in pivots[:r]}


def _live_monomials(indices, rows: list, targets: list, top: int | None = None) -> list:
    """For each target t of ``targets``: per degree p = 0 .. top (default k), in lexicographic
    order, the p-subsets I of the k ascending ``indices`` with sum_(i in I) c_i = t_s
    for the s-th row c of ``rows`` (c_j the coefficient of the j-th index) and
    every s; all of them if there is no row. Equal targets share one list.

    The rows are packed into one: with B above twice every |sum_(i in I) c_i - t_s|,
    the sum of those differences times B^s is zero only when each difference is.
    One depth-first walk serves every target: it adds indices in ascending order,
    so each degree comes out in lexicographic order, and it leaves a branch as soon
    as the sums still reachable from the indices left miss the packed targets' range,
    or at degree ``top``.
    """
    k = len(indices)
    top = k if top is None else min(top, k)
    if not rows:
        return [[_masks(indices, p) for p in range(top + 1)]] * len(targets)
    span, divisors = [sum(map(abs, c)) for c in rows], [gcd(*c) or 1 for c in rows]
    base = 4 * max(span) + 1
    # a sum over I is an int multiple of gcd(c) of size at most sum |c|: no I meets a t off those
    keys = [None if any(abs(x) > m or x % d for x, m, d in zip(t, span, divisors))
            else sum(int(x) * base ** s for s, x in enumerate(t)) for t in targets]
    empty = [[] for _ in range(top + 1)]
    out = {key: [[] for _ in range(top + 1)] for key in keys if key is not None}
    if not out:
        return [empty] * len(targets)
    coeffs = [sum(c[i] * base ** s for s, c in enumerate(rows)) for i in range(k)]
    # a branch at index i can end on a packed target only if its sum lies in floor[i]
    # .. ceil[i]: the targets' range less the range of sums over subsets of i .. k-1
    floor, ceil = [min(out)], [max(out)]
    for v in reversed(coeffs):
        floor.append(floor[-1] - max(v, 0))
        ceil.append(ceil[-1] - min(v, 0))
    floor.reverse()
    ceil.reverse()

    def walk(start: int, chosen: int, acc: int, p: int) -> None:
        if (found := out.get(acc)) is not None:
            found[p].append(chosen)
        for i in range(start, k if p < top else start):
            now = acc + coeffs[i]
            if floor[i + 1] <= now <= ceil[i + 1]:
                walk(i + 1, chosen | 1 << indices[i], now, p + 1)

    if floor[0] <= 0 <= ceil[0]:
        walk(0, 0, 0, 0)
    return [out.get(key, empty) for key in keys]


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


def _binomials(n: int) -> list[int]:
    """C(n, 0) .. C(n, n), one product per entry: a binomial each takes a minute at n = 15000."""
    return list(accumulate(range(n), lambda c, p: c * (n - p) // (p + 1), initial=1))


def _convolve(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _live(g: LieAlgebra, twist, indices, lams: list, top: int | None = None) -> list:
    """Per multiplier lam of ``lams``, the live monomials I at lam * w of the factor on
    the ascending ``indices``, subsets of them of at most ``top`` (default all) elements:
    sum_(i in I) (S / L) * L * a_i(x) = lam * S * w(x) at the scale S of ``twist``
    (``_wedge_terms`` of w) for each acting x and each twisted central x (a = 0: no subset
    meets it); an x is the factor's by its first entry, as it lies in one
    (``_inner_diagonal``). One search serves every lam."""
    up = twist[1] // g._scale
    # (a, S * w(x)) for the x of this factor
    pairs = [(a, t) for a, x in _inner_diagonal(g) if next(iter(x)) + 1 in indices
             if (t := sum(c * x.get(m.bit_length() - 2, 0) for m, _, c in twist[0])) or a]
    return _live_monomials(indices, [[up * a.get(i - 1, 0) for i in indices] for a, _ in pairs],
                           [[lam * t for _, t in pairs] for lam in lams], top)


def _betti_along(g: LieAlgebra, omega: OneForm, lams: list) -> list[list[int]]:
    """Exact dimensions of the twisted cohomology of each lam * w in degrees 0..n, in one
    pass: the convolution of the factors' Betti lists, each walked on its bucket (module
    docstring). A twisted singleton, or a twisted center in a factor, gives zeros unwalked."""
    # the gens table only for a multiplier that is walked
    twist = _wedge_terms(g, omega)
    zero = [0] * (g.dim + 1)
    components = _memo(g, "_components", _components)
    # s singletons {m}: d 1 = lam w_m e^m, acyclic if lam w_m != 0, else (1, 1) each: C(s, p)
    s = sum(len(c) == 1 for c in components)
    twisted = {m.bit_length() - 1 for m, _, _ in twist[0]} & {c[0] for c in components[:s]}
    factors = components[s:]
    # twisted singletons leave only lam = 0: no search unless it is asked for
    lives = [_live(g, twist, indices, lams) for indices in factors if not twisted or 0 in lams]
    rows = [zero] * len(lams)
    for k, lam in enumerate(lams):
        # a factor with no live monomial is acyclic: zeros before any walk
        if lam and twisted or not all(any(live[k]) for live in lives):
            continue
        p, q = lam.numerator, lam.denominator
        gens = _gens_at(g, q * twist[1])
        betti = _binomials(s)
        for f, indices in enumerate(factors):
            # lam w ^ . on the factor: its own wedge terms
            wedge = [(m, b, p * c) for m, b, c in twist[0] if p and m.bit_length() - 1 in indices]
            # its nonempty degrees lo .. hi - 1 alone: an empty degree clears nothing above it
            live = lives[f][k]
            lo = next(d for d, m in enumerate(live) if m)
            hi = len(live) - next(d for d, m in enumerate(reversed(live)) if m)
            walk = _cleared_walk(live[lo:hi], (gens, wedge, q * twist[1]))
            factor = [0] * lo + [len(kept) - r for kept, _, r in walk] + [0] * (len(live) - hi)
            if not any(factor):
                betti = zero
                break
            betti = _convolve(betti, factor)
        rows[k] = betti
    return rows


def betti_numbers(g: LieAlgebra, omega: OneForm) -> list[int]:
    """Exact dimensions of the twisted cohomology in degrees 0..n (``_betti_along``)."""
    return _betti_along(g, omega, [1])[0]


def _representatives_from(n: int, p: int, kept: list, relations: list) -> list[ExteriorForm]:
    """The kernel vectors of d_w^p on the kept monomials, in lexicographic order:
    each relation of ``_cleared_walk``, reduced and divided by its pivot entry."""
    pivots = [min(row) for row in relations]
    _reduce(relations, pivots)
    return [ExteriorForm._adopt(n, p, {_indices(kept[i]): Fraction(row[i], row[c])
                                       for i in sorted(row)[::-1]})
            for row, c in zip(relations[::-1], pivots[::-1])]


def representatives(g: LieAlgebra, omega: OneForm, p: int) -> list[ExteriorForm]:
    """Deterministic cocycle basis of the degree-p cohomology."""
    # the types first: a degree is only checked against an algebra
    tables = _differential_tables(g, omega)
    _check_degree(p, g.dim)
    # the walk up to degree p reads degrees 0 .. p + 1 alone: none above is searched
    live = _live(g, tables[1:], range(1, g.dim + 1), [1], p + 1)[0]
    kept, relations, _ = next(islice(_cleared_walk(live, tables, True), p, None))
    return _representatives_from(g.dim, p, kept, relations)


def cohomology(g: LieAlgebra, omega: OneForm) -> CohomologyResult:
    """Betti numbers plus representatives for every degree in one pass."""
    tables = _differential_tables(g, omega)
    betti, reps = [], []
    walk = _cleared_walk(_live(g, tables[1:], range(1, g.dim + 1), [1])[0], tables, True)
    for p, (kept, relations, r) in enumerate(walk):
        betti.append(len(kept) - r)
        reps.append(tuple(_representatives_from(g.dim, p, kept, relations)) if betti[-1] else ())
    return CohomologyResult(omega=omega, betti=tuple(betti), representatives=tuple(reps))


def is_cocycle(g: LieAlgebra, omega: OneForm, xi: ExteriorForm) -> bool:
    """Whether d_w(xi) = 0."""
    return deformed_differential(g, omega, xi).is_zero()


def is_coboundary(g: LieAlgebra, omega: OneForm, xi: ExteriorForm) -> ExteriorForm | None:
    """A primitive eta with d_w(eta) = xi, or None when xi is not exact.

    The primitive is the minimal pivot solution, hence reproducible; only
    degree p-1 is assembled, and above the top degree it is zero. It is read
    off the relation led by D * xi, D the lcm of its denominators, among the
    image rows S * d_w of the degree p-1 monomials (module docstring).
    """
    tables = _differential_tables(g, omega)
    _check_form(g, xi)
    p = xi.degree
    if p == 0:
        # nothing maps into degree 0, so no primitive ever exists
        return None
    sources, targets = _masks(range(1, g.dim + 1), p - 1)[::-1], _masks(range(1, g.dim + 1), p)
    col_of, t = {mask: c for c, mask in enumerate(targets)}, len(targets)
    d = lcm(*(c.denominator for c in xi.terms.values()))
    rows = [{col_of[sum(1 << i for i in idx)]: int(d * c) for idx, c in xi.terms.items()}]
    rows += _image_rows(sources, targets, tables)
    echelon, pivots = _echelon([row | {t + i: 1} for i, row in enumerate(rows)])
    r = bisect_left(pivots, t)
    if pivots[r:r + 1] != [t]:
        # no relation involves xi: it is not exact
        return None
    relations = echelon[r:]
    _reduce(relations, pivots[r:])
    row = relations[0]
    unscale = Fraction(-tables[2], d * row[t])
    return ExteriorForm._adopt(g.dim, p - 1, {_indices(sources[j - t - 1]): unscale * row[j]
                                              for j in sorted(row, reverse=True)[:-1]})


def euler_characteristic(result: CohomologyResult) -> int:
    """Alternating sum of the Betti numbers."""
    _require_types((result, CohomologyResult))
    return sum((-1) ** p * b for p, b in enumerate(result.betti))
