"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single pass/fail line (visible with -s or on failure) and
asserts the criterion. All comparisons are exact; there are no tolerances to
tune anywhere.
"""

import random
import time
from fractions import Fraction
from itertools import product

from liecohom import (
    ExteriorForm,
    LieAlgebra,
    NotTriangularizableError,
    OneForm,
    adapted_basis,
    betti_numbers,
    ce_differential,
    change_basis,
    cohomology,
    differential_matrices,
    euler_characteristic,
    is_closed,
    load_example,
    novikov_report,
    omega_set,
    r0_spectrum,
    representatives,
    scan_line,
    vanishing_predicate,
    weight_sum_check,
)
from liecohom.algebra import random_invertible
from liecohom.linalg import RationalMatrix, rank
from liecohom.weights import Vanishing

from conftest import form_to_coords, matrix_product, unchecked_algebra


def _report(num: int, description: str, passed: bool) -> None:
    print(f"criterion {num:2d}: {'PASS' if passed else 'FAIL'} - {description}")
    assert passed, f"criterion {num} failed: {description}"


def _f(*coeffs) -> OneForm:
    return OneForm([Fraction(c) for c in coeffs])


def _basis(*indices) -> ExteriorForm:
    return ExteriorForm.basis(3, indices)


def _same_span_mod_image(g, omega, p, given, expected) -> bool:
    mats = differential_matrices(g, omega)
    image = []
    if p > 0:
        below = mats.matrix(p - 1)
        image = [list(below.column(j)) for j in range(below.cols)]
    base = rank(RationalMatrix.from_columns(image)) if image else 0

    def stacked(forms):
        cols = image + [list(form_to_coords(f)) for f in forms]
        return rank(RationalMatrix.from_columns(cols))

    return (stacked(given) == stacked(expected)
            == stacked(list(given) + list(expected))
            and stacked(given) - base == len(given) == len(expected))


# pairs of (algebra, closed omega) evaluated while the suite runs; criterion 8
# sweeps them all again for the Euler characteristic
EXERCISED: list[tuple[LieAlgebra, OneForm]] = []


def _betti(g: LieAlgebra, omega: OneForm) -> list[int]:
    EXERCISED.append((g, omega))
    return betti_numbers(g, omega)


def _closed_grid(g: LieAlgebra, bound: int = 2) -> list[OneForm]:
    forms = []
    for coeffs in product(range(-bound, bound + 1), repeat=g.dim):
        omega = _f(*coeffs)
        if is_closed(g, omega):
            forms.append(omega)
    return forms


def test_criterion_01_heisenberg_trivial_coefficients():
    g = load_example("heisenberg3").algebra
    zero = OneForm.zero(3)
    ok = _betti(g, zero) == [1, 2, 2, 1]
    ok = ok and _same_span_mod_image(g, zero, 1, representatives(g, zero, 1),
                                     [_basis(1), _basis(2)])
    ok = ok and _same_span_mod_image(g, zero, 2, representatives(g, zero, 2),
                                     [_basis(1, 3), _basis(2, 3)])
    elapsed = min(_time_once(g, zero) for _ in range(5))
    ok = ok and elapsed < 0.010
    _report(1, f"heisenberg betti [1,2,2,1] with stated representatives "
               f"({elapsed * 1000:.2f} ms)", ok)


def _time_once(g, omega) -> float:
    start = time.perf_counter()
    betti_numbers(g, omega)
    return time.perf_counter() - start


def test_criterion_02_dixmier_vanishing():
    g = load_example("heisenberg3").algebra
    ok = all(_betti(g, _f(lam, 0, 0)) == [0, 0, 0, 0]
             for lam in (1, -1, Fraction(1, 2), 5))
    _report(2, "nonzero twists kill all heisenberg cohomology", ok)


def test_criterion_03_sol3_regression():
    g = load_example("sol3", k=1).algebra
    e1, zero = _f(1, 0, 0), OneForm.zero(3)
    ok = _betti(g, e1) == [0, 1, 1, 0]
    ok = ok and _betti(g, -e1) == [0, 1, 1, 0]
    ok = ok and _betti(g, zero) == [1, 1, 1, 1]
    ok = ok and _same_span_mod_image(g, e1, 1, representatives(g, e1, 1), [_basis(2)])
    ok = ok and _same_span_mod_image(g, e1, 2, representatives(g, e1, 2), [_basis(1, 2)])
    ok = ok and _same_span_mod_image(g, -e1, 1, representatives(g, -e1, 1), [_basis(3)])
    ok = ok and _same_span_mod_image(g, -e1, 2, representatives(g, -e1, 2), [_basis(1, 3)])
    _report(3, "sol3 betti tables and representatives at 0 and +-e1", ok)


def test_criterion_04_vanishing_sweep():
    g = load_example("sol3", k=1).algebra
    ok = True
    seen_closed = 0
    for a, b, c in product(range(-2, 3), repeat=3):
        omega = _f(a, b, c)
        if not is_closed(g, omega):
            ok = ok and (b, c) != (0, 0)
            continue
        ok = ok and (b, c) == (0, 0)
        seen_closed += 1
        nonzero = any(_betti(g, omega))
        ok = ok and (nonzero == (a in (-1, 0, 1)))
    ok = ok and seen_closed == 5
    _report(4, "sol3 sweep: cohomology survives only at a in {-1,0,1}", ok)


def test_criterion_05_weights_and_omega_set():
    g = load_example("sol3", k=1).algebra
    data = adapted_basis(g)
    weights = sorted(tuple(w.coeffs) for w in data.weights)
    ok = weights == sorted([(0, 0, 0), (-1, 0, 0), (1, 0, 0)])
    ok = ok and {tuple(w.coeffs) for w in omega_set(data).elements} \
        == {(0, 0, 0), (1, 0, 0), (-1, 0, 0)}
    ok = ok and weight_sum_check(data)
    euclid = load_example("euclid3").algebra
    try:
        adapted_basis(euclid)
        ok = False
    except NotTriangularizableError:
        pass
    _report(5, "sol3 weights {0,-e1,e1}, omega set {0,+-e1}, euclid3 not "
               "rationally triangularizable", ok)


def test_criterion_06_non_completely_solvable_cohomology():
    g = load_example("euclid3").algebra
    zero = OneForm.zero(3)
    betti = _betti(g, zero)
    ok = betti == [1, 1, 1, 1] and betti[1] == 1
    ok = ok and _same_span_mod_image(g, zero, 1, representatives(g, zero, 1),
                                     [_basis(1)])
    ok = ok and _same_span_mod_image(g, zero, 2, representatives(g, zero, 2),
                                     [_basis(2, 3)])
    ok = ok and _same_span_mod_image(g, zero, 3, representatives(g, zero, 3),
                                     [_basis(1, 2, 3)])
    _report(6, "euclid3 betti [1,1,1,1] with representatives e1, e2^e3, "
               "e1^e2^e3", ok)


def test_criterion_07_d_squared_and_jacobi():
    rng = random.Random(20250809)
    catalog = [
        load_example("abelian", n=2).algebra,
        load_example("abelian", n=3).algebra,
        load_example("heisenberg3").algebra,
        load_example("sol3", k=1).algebra,
        load_example("sol3", k=Fraction(1, 2)).algebra,
        load_example("euclid3").algebra,
    ]
    cases = list(catalog)
    for _ in range(100):
        base = rng.choice(catalog)
        cases.append(change_basis(base, random_invertible(base.dim, rng)))
    ok = True
    for g in cases:
        mats = differential_matrices(g, OneForm.zero(g.dim))
        for p in range(g.dim - 1):
            ok = ok and matrix_product(mats.matrix(p + 1), mats.matrix(p)).is_zero()
    broken = unchecked_algebra(3, {(1, 2): (1, 0, 0), (1, 3): (0, 0, 1)})
    dd_nonzero = any(
        not ce_differential(broken, ce_differential(broken, _basis(j))).is_zero()
        for j in (1, 2, 3))
    ok = ok and dd_nonzero
    _report(7, "d^2 = 0 on catalog plus 100 random basis changes; broken "
               "table has d^2 != 0 on degree one", ok)


def test_criterion_08_euler_characteristic():
    pairs = list(EXERCISED)
    for name, params in [("abelian", {"n": 2}), ("abelian", {"n": 3}),
                         ("heisenberg3", {}), ("sol3", {"k": 1}),
                         ("euclid3", {})]:
        g = load_example(name, **params).algebra
        pairs.extend((g, omega) for omega in _closed_grid(g))
    ok = bool(pairs)
    for g, omega in pairs:
        ok = ok and euler_characteristic(cohomology(g, omega)) == 0
    _report(8, f"euler characteristic zero on all {len(pairs)} exercised "
               "(algebra, omega) pairs", ok)


def test_criterion_09_duality():
    entries = [
        load_example("abelian", n=2).algebra,
        load_example("abelian", n=3).algebra,
        load_example("heisenberg3").algebra,
        load_example("sol3", k=1).algebra,
        load_example("euclid3").algebra,
    ]
    ok = True
    for g in entries:
        for omega in _closed_grid(g):
            ok = ok and _betti(g, omega) == _betti(g, -omega)[::-1]
    _report(9, "b^p at omega equals b^{n-p} at -omega on unimodular entries", ok)


def test_criterion_10_spectrum_linkage():
    g = load_example("sol3", k=1).algebra
    data = adapted_basis(g)
    exceptional = {(0, 0, 0), (1, 0, 0), (-1, 0, 0)}
    ok = True
    for omega in _closed_grid(g):
        zero_attained = any(min(r0_spectrum(data, omega, p)) == 0
                            for p in range(4))
        in_set = tuple((-omega).coeffs) in exceptional
        predicate = vanishing_predicate(data, omega)
        ok = ok and zero_attained == in_set
        ok = ok and (predicate is Vanishing.POSSIBLY_NONTRIVIAL) == in_set
    _report(10, "minimal spectrum value hits zero exactly on the exceptional "
                "set, matching the vanishing predicate", ok)


def test_criterion_11_scan_and_novikov():
    g = load_example("sol3", k=1).algebra
    table = scan_line(g, _f(1, 0, 0))
    rows = {row.lam: row.betti for row in table.rows}
    ok = table.critical_lambdas == (Fraction(-1), Fraction(0), Fraction(1))
    ok = ok and rows[Fraction(-1)] == (0, 1, 1, 0)
    ok = ok and rows[Fraction(0)] == (1, 1, 1, 1)
    ok = ok and rows[Fraction(1)] == (0, 1, 1, 0)
    ok = ok and table.generic.betti == (0, 0, 0, 0)
    report = novikov_report(g, _f(1, 0, 0), table.generic.lam, [0, 0, 0, 0])
    ok = ok and report.all_hold and report.lambda_critical is False
    _report(11, "scan reproduces the three critical rows plus a vanishing "
                "generic row; zero Morse counts hold at generic lambda", ok)
