from fractions import Fraction

import pytest

from liecohom import (
    LieAlgebra,
    NotSolvableError,
    NotTriangularizableError,
    OneForm,
    load_example,
)
from liecohom.algebra import derived_series
from liecohom.linalg import (
    RationalMatrix,
    extend_independent,
    kernel_basis,
    rank,
    span_basis,
    unit_vector,
    vector,
)
from liecohom.weights import WeightData, _char_poly, _coordinates, _rational_roots


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


def diag(n):
    # [e1, ej] = (j - 1) ej: solvable, not unimodular, closed forms only along e^1
    return LieAlgebra.from_brackets(n, {
        (1, j): tuple(Fraction(j - 1) if m == j - 1 else 0 for m in range(n))
        for j in range(2, n + 1)})


def unchecked_algebra(dim, brackets):
    """Algebra built by the dataclass constructor, which skips the Jacobi
    check; only for tests that need a deliberately broken table."""
    return LieAlgebra(dim, tuple(f"e{i}" for i in range(1, dim + 1)),
                      tuple((key, vector(v)) for key, v in sorted(brackets.items())))


def heisenberg5():
    return LieAlgebra.from_brackets(5, {(1, 2): (0, 0, 0, 0, 1), (3, 4): (0, 0, 0, 0, 1)})


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


def divisor_rational_roots(coeffs):
    """Reference for _rational_roots: try every p/q the rational root theorem
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
        coords = _coordinates(columns, [g.bracket(b, q) for b in acting for q in quot])
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
