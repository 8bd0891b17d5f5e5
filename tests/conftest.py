from fractions import Fraction

import pytest

from liecohom import LieAlgebra, OneForm, load_example
from liecohom.linalg import RationalMatrix, rank, vector


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
