from bisect import bisect_left
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from liecohom import (
    ExteriorForm,
    LieAlgebra,
    NotSolvableError,
    NotTriangularizableError,
    OneForm,
    WeightData,
    differential_matrices,
    load_example,
)
from liecohom.algebra import JacobiDefect, ValidationReport, derived_series
from liecohom.exterior import form_basis, sort_sign
from liecohom.linalg import (
    RationalMatrix,
    _eliminate,
    extend_independent,
    kernel_basis,
    rank,
    solve,
    span_basis,
    unit_vector,
    vector,
)


@pytest.fixture
def heisenberg3():
    return load_example("heisenberg3").algebra


@pytest.fixture
def sol3():
    return load_example("sol3", k=1).algebra


@pytest.fixture
def euclid3():
    return load_example("euclid3").algebra


@pytest.fixture
def abelian2():
    return load_example("abelian", n=2).algebra


@pytest.fixture
def sl2():
    # [h,e] = 2e, [h,f] = -2f, [e,f] = h with basis order (h, e, f)
    return LieAlgebra.from_brackets(3, {
        (1, 2): (0, 2, 0),
        (1, 3): (0, 0, -2),
        (2, 3): (1, 0, 0),
    })


@pytest.fixture
def affine2():
    # the nonabelian 2-dimensional algebra [e1,e2] = e2
    return LieAlgebra.from_brackets(2, {(1, 2): (0, 1)})


def one_form(*coeffs) -> OneForm:
    return OneForm([Fraction(c) for c in coeffs])


def closed_grid(g, lo=-2, hi=2):
    """All closed one-forms with integer coefficients in [lo, hi]."""
    from itertools import product

    from liecohom import is_closed

    forms = []
    for coeffs in product(range(lo, hi + 1), repeat=g.dim):
        omega = one_form(*coeffs)
        if is_closed(g, omega):
            forms.append(omega)
    return forms


def form_to_coords(xi):
    """The coordinates of a form in the lexicographic basis of its degree."""
    return tuple(xi.terms.get(idx, Fraction(0)) for idx in form_basis(xi.dim, xi.degree))


def coords_to_form(n, p, coords):
    """The degree-p form with the given lexicographic coordinates."""
    basis = form_basis(n, p)
    if len(coords) != len(basis):
        raise ValueError("coordinate length does not match the graded dimension")
    return ExteriorForm(n, p, dict(zip(basis, coords)))


def mask_indices(mask):
    """The index tuple of a monomial mask, bit i standing for index i, read
    off its binary digits."""
    return tuple(i for i, bit in enumerate(reversed(bin(mask))) if bit == "1")


def diag(n):
    # [e1, ej] = (j - 1) ej: solvable, not unimodular, closed forms only along e^1
    return LieAlgebra.from_brackets(n, {
        (1, j): tuple(Fraction(j - 1) if m == j - 1 else 0 for m in range(n))
        for j in range(2, n + 1)})


def unchecked_algebra(dim, brackets):
    """Algebra built by the plain ``LieAlgebra`` constructor, which skips the
    Jacobi check; only for tests that need a deliberately broken table. The
    dense ``brackets`` are turned into the constructor's scale L and int table."""
    dense = {key: vector(v) for key, v in sorted(brackets.items()) if any(vector(v))}
    scale = lcm(*(c.denominator for v in dense.values() for c in v))
    return LieAlgebra(dim, tuple(f"e{i}" for i in range(1, dim + 1)), scale, tuple(
        (key, tuple((m, int(c * scale)) for m, c in enumerate(v) if c)) for key, v in dense.items()))


def heisenberg5():
    return LieAlgebra.from_brackets(5, {(1, 2): (0, 0, 0, 0, 1), (3, 4): (0, 0, 0, 0, 1)})


def rational_sol3_plane():
    """sol3(7/3) + Q^2 in the basis random_invertible(5, Random(2)); its
    structure constants have the denominators 2, 31 and 62."""
    from random import Random

    from liecohom import change_basis
    from liecohom.algebra import random_invertible

    k = Fraction(7, 3)
    g = LieAlgebra.from_brackets(5, {(1, 2): (0, k, 0, 0, 0), (1, 3): (0, 0, -k, 0, 0)})
    return change_basis(g, random_invertible(5, Random(2)))


def pow2(n):
    # [e1, ej] = 2^(j-2) ej: its 2^(n-1) weight subset sums are all distinct
    return LieAlgebra.from_brackets(n, {
        (1, j): tuple(2 ** (j - 2) if m == j - 1 else 0 for m in range(n))
        for j in range(2, n + 1)})


def sol3_plus(k, m):
    # sol3(k) + Q^m: [e1, e2] = k e2, [e1, e3] = -k e3 and m central singletons
    n = 3 + m
    return LieAlgebra.from_brackets(n, {(1, 2): (0, k) + (0,) * (n - 2),
                                        (1, 3): (0, 0, -k) + (0,) * (n - 3)})


def sequential_subset_sums(data):
    """Reference for ``omega_set``: every weight, one at a time, added to every
    sum found so far, with no grouping of equal weights."""
    from liecohom import OmegaSet

    sums = set()
    for w in data.weights:
        sums |= {s + w for s in sums} | {w}
    return OmegaSet(frozenset(sums))


def oneform_subset_sums(data):
    """Reference for ``omega_set``, the grouped OneForm sums the package summed
    before it moved to int tuples: each distinct weight w with its multiplicity m
    adds its multiples w, 2w, .., mw (a zero w only itself) to every sum so far."""
    from collections import Counter
    from itertools import groupby

    from liecohom import OmegaSet

    groups = Counter()
    for w, run in groupby(data.weights):
        groups[w] += len(list(run))
    sums = set()
    for w, m in groups.items():
        multiples = [w.scale(j) for j in range(1, m + 1)] if any(w.coeffs) else [w]
        sums |= {s + x for s in sums for x in multiples} | set(multiples)
    return OmegaSet(frozenset(sums))


def multipliers_in(elements, direction):
    """Reference for ``reports._critical_multipliers``: zero and every lam with
    -lam * direction among the given one-forms."""
    d = direction.coeffs
    p = next(i for i, c in enumerate(d) if c)
    found = {Fraction(0)}
    for sigma in elements:
        lam = -sigma.coeffs[p] / d[p]
        if sigma == direction.scale(-lam):
            found.add(lam)
    return sorted(found)


def k2():
    # [e1, e3] = e3, [e1, e4] = 2 e4, [e2, e4] = -e4: a complement of dimension 2
    return LieAlgebra.from_brackets(4, {(1, 3): (0, 0, 1, 0), (1, 4): (0, 0, 0, 2),
                                        (2, 4): (0, 0, 0, -1)})


def sequential_extend(base, candidates, ambient):
    """Reference for extend_independent: re-rank the stack once per candidate."""
    stack = [list(v) for v in base]
    current = rank(RationalMatrix(len(stack), ambient, stack))
    picked = []
    for cand in candidates:
        trial = stack + [list(cand)]
        r = rank(RationalMatrix(len(trial), ambient, trial))
        if r > current:
            picked.append(tuple(Fraction(x) for x in cand))
            stack, current = trial, r
    return picked


def matrix_product(a, b):
    """Reference product of two matrices, summed over their dense rows."""
    assert a.cols == b.rows
    right = b.to_rows()
    out = []
    for r in a.to_rows():
        acc = [Fraction(0)] * b.cols
        for x, row in zip(r, right):
            if x:
                for j, y in enumerate(row):
                    acc[j] += x * y
        out.append(acc)
    return RationalMatrix(a.rows, b.cols, out)


def plus_diagonal(a, c):
    """Reference for a + c I, over the dense rows."""
    return RationalMatrix(a.rows, a.cols, [[x + c if i == j else x for j, x in enumerate(r)]
                                           for i, r in enumerate(a.to_rows())])


def identity(n):
    return RationalMatrix(n, n, [[int(i == j) for j in range(n)] for i in range(n)])


def ad(g, x):
    """Matrix of ad(x): columns are [x, e_j] in basis coordinates."""
    return RationalMatrix.from_columns([g.bracket(x, unit_vector(g.dim, j)) for j in range(g.dim)])


def trace(a):
    return sum((a[i, i] for i in range(a.rows)), Fraction(0))


def trace_form(g):
    """theta(x) = tr ad x; zero exactly on unimodular algebras."""
    return OneForm([trace(ad(g, unit_vector(g.dim, j))) for j in range(g.dim)])


def char_poly(a):
    """Reference characteristic polynomial: the coefficients c_0..c_m of
    det(x I - a), by the trace recursion over dense Fractions."""
    m = a.rows
    coeffs = [Fraction(0)] * (m + 1)
    coeffs[m] = Fraction(1)
    mk = identity(m)
    for k in range(1, m + 1):
        am = matrix_product(a, mk)
        coeffs[m - k] = -trace(am) / k
        mk = plus_diagonal(am, coeffs[m - k])
    return coeffs


def divisor_rational_roots(coeffs):
    """Reference for rational roots: try every p/q the rational root theorem
    allows (p divides the constant term, q the leading one).

    Trial division takes time proportional to the square root of the
    coefficients, so this only serves small test polynomials.
    """
    from math import gcd, lcm

    def divisors(n):
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

    mult = lcm(*(Fraction(c).denominator for c in coeffs))
    ints = [int(Fraction(c) * mult) for c in coeffs]
    while ints and ints[-1] == 0:
        ints.pop()
    roots = set()
    low = 0
    while ints[low] == 0:
        low += 1
    if low > 0:
        roots.add(Fraction(0))
        ints = ints[low:]
    content = gcd(*ints)
    ints = [c // content for c in ints]
    for p in divisors(ints[0]):
        for q in divisors(ints[-1]):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                acc = Fraction(0)
                for c in reversed(ints):
                    acc = acc * cand + c
                if acc == 0:
                    roots.add(cand)
    return sorted(roots)


def coordinates(columns, targets):
    """Reference coordinates of every target on the independent ``columns``:
    Gauss-Jordan elimination of [columns | targets] over dense Fractions."""
    m = len(columns)
    rows = [[Fraction(c[i]) for c in columns] + [Fraction(t[i]) for t in targets]
            for i in range(len(columns[0]))]
    for j in range(m):
        p = next(i for i in range(j, len(rows)) if rows[i][j])
        rows[j], rows[p] = rows[p], rows[j]
        rows[j] = [x / rows[j][j] for x in rows[j]]
        for i, r in enumerate(rows):
            if i != j and r[j]:
                rows[i] = [x - r[j] * y for x, y in zip(r, rows[j])]
    if any(any(r[m:]) for r in rows[m:]):
        raise AssertionError("vector unexpectedly outside an invariant subspace")
    return [tuple(r[m + t] for r in rows[:m]) for t in range(len(targets))]


def restricted_adapted_basis(g):
    """Reference for adapted_basis, as it was built before the adjoint table:
    at every flag step it brackets afresh, restricts each complement action
    to the current eigenspace, takes the smallest rational root of that
    restriction's characteristic polynomial and reads the eigenvalue
    functional off a second solve of [e_i, v]. Same outputs and errors.
    """
    series = derived_series(g)
    if series[-1].dim != 0:
        raise NotSolvableError("adapted basis requires a solvable Lie algebra")
    n = g.dim
    der = series[1]
    k = n - der.dim
    complement = extend_independent(der.basis, [unit_vector(n, j) for j in range(n)], n)
    acting = complement + list(der.basis)
    flag = []
    adjoint_funcs = []

    while len(flag) < der.dim:
        # quot + flag is a basis of [g, g], so coordinates on it are unique and
        # the first q_dim of them are coordinates in the quotient by the flag
        quot = extend_independent(flag, der.basis, n)
        q_dim = len(quot)
        columns = quot + flag
        coords = coordinates(columns, [g.bracket(b, q) for b in acting for q in quot])
        actions = [
            RationalMatrix.from_columns([c[:q_dim] for c in coords[i:i + q_dim]])
            for i in range(0, len(coords), q_dim)
        ]
        # [g, g] acts nilpotently on a solvable algebra (Lie's theorem), so its
        # common eigenspace is the joint kernel of the actions of der.basis.
        # The action is linear in the acting element, so every basis of [g, g]
        # stacks to the same row space and this canonical kernel.
        derived = [r for action in actions[k:] for r in action.to_rows()]
        space = span_basis(kernel_basis(RationalMatrix.from_rows(derived)), q_dim)
        for action in reversed(actions[:k]):
            # matrix of the action on the invariant span(space), in its coordinates
            restricted = RationalMatrix.from_columns(
                coordinates(space, [action.apply(s) for s in space]))
            roots = divisor_rational_roots(char_poly(restricted))
            if not roots:
                raise NotTriangularizableError(
                    "adjoint action has no rational eigenvalue on the current "
                    "invariant subspace; the algebra is not rationally "
                    "triangularizable")
            lam = roots[0]
            inner = kernel_basis(plus_diagonal(restricted, -lam))
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
        for image in coordinates(columns, [g.bracket(unit_vector(n, i), v)
                                            for i in range(n)]):
            lam = image[pivot] / vq[pivot]
            if any(image[j] != lam * vq[j] for j in range(q_dim)):
                raise AssertionError("flag vector is not a joint eigenvector")
            eigenvalues.append(lam)
        adjoint_funcs.append(tuple(eigenvalues))
        flag.append(v)

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


def reference_differential(g, omega, xi):
    """Reference for d_w(xi) = d(xi) + w ^ xi, in Fractions over the public
    bracket table: each e^k of each monomial is replaced by
    d e^k = -sum C_ij^k e^i ^ e^j, and w ^ e^I is summed term by term, with
    the signs of sorting the indices. It needs neither a closed w nor the
    Jacobi identity."""
    out = {}

    def add(indices, c):
        merged = sort_sign(indices)
        if merged is not None:
            idx, sign = merged
            out[idx] = out.get(idx, Fraction(0)) + sign * c

    for idx, c in xi.terms.items():
        for t, k in enumerate(idx):
            for (i, j), v in g.brackets:
                if v[k - 1]:
                    add(idx[:t] + (i, j) + idx[t + 1:], (-1) ** t * c * -v[k - 1])
        for m, w in enumerate(omega.coeffs, 1):
            if w:
                add((m,) + idx, w * c)
    return ExteriorForm(g.dim, xi.degree + 1, out)


def two_elimination_representatives(g, omega):
    """Reference for ``cohomology().representatives``: two eliminations per
    degree. The cleared monomials of degree p are the rows of d_(p-1) that
    raise the rank, taken in reverse lexicographic order; the representatives
    are the ``kernel_basis`` vectors of d_p restricted to the other columns."""
    mats = differential_matrices(g, omega)
    n, reps = g.dim, []
    for p in range(n + 1):
        basis = form_basis(n, p)
        cleared = set()
        if p > 0:
            below, picked = mats.matrix(p - 1).to_rows(), []
            for i in reversed(range(len(basis))):
                if rank(RationalMatrix.from_rows(picked + [below[i]])) > len(picked):
                    picked.append(below[i])
                    cleared.add(i)
        kept = [i for i in range(len(basis)) if i not in cleared]
        d_p = mats.matrix(p)
        vectors = kernel_basis(RationalMatrix.from_columns([d_p.column(i) for i in kept]))
        reps.append(tuple(ExteriorForm(n, p, {basis[kept[j]]: x for j, x in enumerate(v)})
                          for v in vectors))
    return tuple(reps)


def loop_reduce(echelon, pivots):
    """Reference for ``linalg._reduce``: for each pivot from the last one up,
    clear its column in every row above it."""
    for k in range(len(pivots) - 1, 0, -1):
        c, pivot_row = pivots[k], echelon[k]
        for i in range(k):
            if c in echelon[i]:
                echelon[i] = _eliminate(echelon[i], pivot_row, c)


def sweep_echelon(rows):
    """Reference for ``linalg._echelon``: the same groups and pivot rule, with
    the columns visited by one sweep over 0 .. the largest column."""
    rows = [r for r in rows if r]
    groups = {}
    for r in rows:
        groups.setdefault(min(r), []).append(r)
    echelon, pivots = [], []
    for c in range(max((max(r) for r in rows), default=-1) + 1):
        group = groups.pop(c, None)
        if group is None:
            continue
        pivot_row = min(group, key=len)
        for r in group:
            if r is not pivot_row:
                r = _eliminate(r, pivot_row, c)
                if r:
                    groups.setdefault(min(r), []).append(r)
        echelon.append(pivot_row)
        pivots.append(c)
    return echelon, pivots


def tuple_tables(g, omega, p=1, q=1):
    """Reference tables for ``tuple_monomial_image`` at lam = p / q, read off the
    public Fraction brackets: ``gens[k - 1]`` lists (i, j, -q S C_ij^k) in sorted
    (i, j) order, ``wedge_terms`` lists (m, p S w_m), and S is the lcm of every
    denominator of the brackets and of w."""
    scale = lcm(*(c.denominator for _, v in g.brackets for c in v),
                *(c.denominator for c in omega.coeffs))
    gens = [[] for _ in range(g.dim)]
    for (i, j), v in sorted(g.brackets):
        for k, c in enumerate(v):
            if c:
                gens[k].append((i, j, int(-q * scale * c)))
    return gens, [(m, int(p * scale * c)) for m, c in enumerate(omega.coeffs, 1) if c], q * scale


def tuple_monomial_image(idx, gens, wedge_terms):
    """Reference for ``exterior._monomial_image`` on index tuples, the kernel
    the package had before it moved to masks: S * d_w e^idx as {target
    tuple: int}. Replacing e^k at position t by e^i ^ e^j and sorting gives the
    sign (-1)^(t + a + b), a and b the remaining indices below i and below j;
    w_m e^m ^ e^idx gets (-1)^a for the a indices below m."""
    out = {}
    for t, k in enumerate(idx):
        rest = idx[:t] + idx[t + 1:]
        for i, j, c in gens[k - 1]:
            if i in rest or j in rest:
                continue
            a, b = bisect_left(rest, i), bisect_left(rest, j)
            new = rest[:a] + (i,) + rest[a:b] + (j,) + rest[b:]
            out[new] = out.get(new, 0) + (-c if (t + a + b) % 2 else c)
    for m, c in wedge_terms:
        if m in idx:
            continue
        a = bisect_left(idx, m)
        new = idx[:a] + (m,) + idx[a:]
        out[new] = out.get(new, 0) + (-c if a % 2 else c)
    return out


def fraction_change_basis(g, m):
    """Reference for ``algebra.change_basis``: one Fraction solve of
    ``m u = [m e_a, m e_b]`` with the brackets taken by ``g.bracket``, and the
    unit vectors as extra targets so that a singular ``m`` is refused."""
    n = g.dim
    if (m.rows, m.cols) != (n, n):
        raise ValueError(f"change of basis must be {n}x{n}")
    pairs = list(combinations(range(n), 2))
    solved = solve(m, [unit_vector(n, j) for j in range(n)]
                   + [g.bracket(m.column(a), m.column(b)) for a, b in pairs])
    if solved is None:
        raise ValueError("singular matrix")
    brackets = {(a + 1, b + 1): v for (a, b), v in zip(pairs, solved[n:]) if any(v)}
    return LieAlgebra.from_brackets(n, brackets, names=g.basis_names)


def entry_jacobi_report(g):
    """Reference for ``algebra._jacobi_report``: every triple that contains a
    stored pair, its cyclic sum added entry by entry over the int table."""
    signed = {}
    for (i, j), terms in g._int_table:
        signed[i, j] = terms
        signed[j, i] = tuple((m, -x) for m, x in terms)
    defects = []
    triples = {tuple(sorted((i, j, k))) for (i, j), _ in g.brackets
               for k in range(1, g.dim + 1) if k != i and k != j}
    for i, j, k in sorted(triples):
        acc = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, x in signed.get((a, b), ()):
                for out, y in signed.get((m + 1, c), ()):
                    acc[out] = acc.get(out, 0) + x * y
        if any(acc.values()):
            square = g._scale * g._scale
            defect = tuple(Fraction(acc.get(m, 0), square) for m in range(g.dim))
            defects.append(JacobiDefect((i, j, k), defect))
    return ValidationReport(ok=not defects, defects=tuple(defects))
