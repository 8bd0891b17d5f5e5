import importlib
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecohom import (
    LieAlgebra,
    ComputationDomainError,
    NonClosedFormError,
    NotTriangularizableError,
    OneForm,
    StructureError,
    adapted_basis,
    betti_numbers,
    change_basis,
    closed_one_forms,
    load_example,
    novikov_report,
    omega_set,
    r0_spectrum,
    scan_line,
    vanishing_predicate,
)
from liecohom import weights
from liecohom.algebra import random_invertible
from liecohom.weights import Vanishing

from conftest import closed_grid, diag, k2, mask_indices, one_form, pow2, sol3_plus

# the module, not the function of the same name the package exports
cohomology_module = importlib.import_module("liecohom.cohomology")


def test_scan_sol3(sol3):
    table = scan_line(sol3, one_form(1, 0, 0))
    assert table.critical_lambdas == (Fraction(-1), Fraction(0), Fraction(1))
    betti_by_lambda = {row.lam: row.betti for row in table.rows}
    assert betti_by_lambda[Fraction(-1)] == (0, 1, 1, 0)
    assert betti_by_lambda[Fraction(0)] == (1, 1, 1, 1)
    assert betti_by_lambda[Fraction(1)] == (0, 1, 1, 0)
    assert table.generic.lam == Fraction(2)
    assert table.generic.betti == (0, 0, 0, 0)


def test_scan_criticals_scale_with_parameter():
    k = Fraction(1, 2)
    g = load_example("sol3", k=k).algebra
    table = scan_line(g, one_form(1, 0, 0))
    assert table.critical_lambdas == (-k, Fraction(0), k)


def test_scan_heisenberg(heisenberg3):
    table = scan_line(heisenberg3, one_form(1, 0, 0))
    assert table.critical_lambdas == (Fraction(0),)
    assert table.rows[0].betti == (1, 2, 2, 1)
    assert table.generic.betti == (0, 0, 0, 0)


def test_scan_abelian(abelian2):
    table = scan_line(abelian2, one_form(1, 0))
    assert table.critical_lambdas == (Fraction(0),)
    assert table.rows[0].betti == (1, 2, 1)
    assert table.generic.betti == (0, 0, 0)


def test_generic_row_vanishes_for_triangularizable_entries():
    cases = [
        load_example("abelian", n=2).algebra,
        load_example("abelian", n=3).algebra,
        load_example("heisenberg3").algebra,
        load_example("sol3", k=1).algebra,
        load_example("sol3", k=Fraction(-3)).algebra,
    ]
    for g in cases:
        direction = OneForm((1,) + (0,) * (g.dim - 1))
        table = scan_line(g, direction)
        assert table.generic.betti == (0,) * (g.dim + 1)
        assert table.generic.lam not in table.critical_lambdas


def test_scan_rejects_bad_directions(sol3, heisenberg3, euclid3):
    with pytest.raises(ComputationDomainError):
        scan_line(sol3, OneForm.zero(3))
    with pytest.raises(NonClosedFormError):
        scan_line(heisenberg3, one_form(0, 0, 1))
    with pytest.raises(NotTriangularizableError):
        scan_line(euclid3, one_form(1, 0, 0))


def test_novikov_holds_at_generic_lambda(sol3):
    report = novikov_report(sol3, one_form(1, 0, 0), 2, [0, 0, 0, 0])
    assert report.all_hold
    assert report.betti == (0, 0, 0, 0)
    assert report.lambda_critical is False


def test_novikov_equality_case(heisenberg3):
    report = novikov_report(heisenberg3, OneForm.zero(3), 0, [1, 2, 2, 1])
    assert report.all_hold
    assert report.betti == (1, 2, 2, 1)


def test_novikov_flags_critical_lambda(sol3):
    report = novikov_report(sol3, one_form(1, 0, 0), 1, [0, 0, 0, 0])
    assert not report.all_hold
    assert report.violations == (1, 2)
    assert report.lambda_critical is True


def test_novikov_verdict_is_monotone(sol3):
    rng = random.Random(101)
    omega = one_form(1, 0, 0)
    for _ in range(20):
        counts = [rng.randint(0, 2) for _ in range(4)]
        before = novikov_report(sol3, omega, 1, counts).holds
        p = rng.randrange(4)
        counts[p] += rng.randint(1, 2)
        after = novikov_report(sol3, omega, 1, counts).holds
        for x, y in zip(before, after):
            assert y or not x  # holds never flips to violated


def test_novikov_works_without_weight_data(euclid3):
    # the failed weight data is not stored, so the second call fails the same way
    for _ in range(2):
        report = novikov_report(euclid3, one_form(1, 0, 0), 3, [1, 1, 1, 1])
        assert report.lambda_critical is None
        assert report.betti == (0, 0, 0, 0)
        assert report.all_hold


def test_weight_queries_on_one_algebra_build_the_flag_once(monkeypatch):
    builds = []
    real = weights._series_rows
    monkeypatch.setattr(weights, "_series_rows", lambda g: builds.append(g) or real(g))
    g = diag(5)
    direction = one_form(1, 0, 0, 0, 0)
    table = scan_line(g, direction)
    omegas = omega_set(adapted_basis(g))
    spectrum = r0_spectrum(adapted_basis(g), direction.scale(3), 2)
    report = novikov_report(g, direction, 3, [1, 4, 6, 4, 1, 0])
    assert builds == [g]
    assert omega_set(adapted_basis(g)) is omegas
    # the shared data gives the answers a fresh algebra gives
    fresh = diag(5)
    assert table == scan_line(fresh, direction)
    assert omegas == omega_set(adapted_basis(fresh))
    assert spectrum == r0_spectrum(adapted_basis(fresh), direction.scale(3), 2)
    assert report == novikov_report(fresh, direction, 3, [1, 4, 6, 4, 1, 0])
    assert report.lambda_critical and min(spectrum) == 0


def test_novikov_input_validation(sol3):
    with pytest.raises(StructureError):
        novikov_report(sol3, one_form(1, 0, 0), 1, [0, 0, 0])
    with pytest.raises(StructureError):
        novikov_report(sol3, one_form(1, 0, 0), 1, [0, -1, 0, 0])
    with pytest.raises(NonClosedFormError):
        novikov_report(sol3, one_form(0, 1, 0), 1, [0, 0, 0, 0])
    # floats are already rounded and bools are not numbers: no silent coercion
    for lam, counts in ((0.1, [1, 1, 0, 2]), (True, [0, 0, 0, 0]), (1.0, [0, 0, 0, 0]),
                        (1, [1.9, True, 0, 2.5]), (1, [0, True, 0, 0]),
                        (1, [0, 2.0, 0, 0]), (1, [0, Fraction(1, 2), 0, 0]),
                        (1, [0, "3/2", 0, 0])):
        with pytest.raises(StructureError):
            novikov_report(sol3, one_form(1, 0, 0), lam, counts)
    # exact rationals and integral counts stay accepted
    report = novikov_report(sol3, one_form(1, 0, 0), Fraction(3, 2), [0, Fraction(2), "1", 0])
    assert report.lam == Fraction(3, 2) and report.morse_counts == (0, 2, 1, 0)
    # counts and multiplier share the package's one rational grammar
    assert novikov_report(sol3, one_form(1, 0, 0), 1, ["0", "2/2", "1", "0"]).morse_counts \
        == (0, 1, 1, 0)
    for lam, counts in (("1e0", [0, 0, 0, 0]), (None, [0, 0, 0, 0]),
                        (1, [0, "1e0", 0, 0]), (1, [0, None, 0, 0]),
                        # a string is not read as one count per digit
                        (1, "0110"), (1, b"0110"), (1, None), (1, 4)):
        with pytest.raises(StructureError):
            novikov_report(sol3, one_form(1, 0, 0), lam, counts)



def test_novikov_flags_a_critical_lambda_as_the_vanishing_predicate_does(sol3, heisenberg3,
                                                                          euclid3):
    for g in (sol3, heisenberg3, k2(), diag(4)):
        data = adapted_basis(g)
        for omega in closed_grid(g):
            for lam in (-1, Fraction(1, 2), 2):
                report = novikov_report(g, omega, lam, [0] * (g.dim + 1))
                assert report.lambda_critical is (vanishing_predicate(data, omega.scale(lam))
                                                  is Vanishing.POSSIBLY_NONTRIVIAL)
    # no rational flag: the flag is unknown, not False
    for omega in closed_grid(euclid3):
        assert novikov_report(euclid3, omega, 2, [0] * 4).lambda_critical is None


SCAN_FAMILIES = {
    "diag 5": lambda: diag(5),
    "pow2 5": lambda: pow2(5),
    "sol3(3) + Q^2": lambda: sol3_plus(3, 2),
    "sol3(1/2) + Q": lambda: sol3_plus(Fraction(1, 2), 1),
    "k2": k2,
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SCAN_FAMILIES)), st.booleans(), st.integers(0, 2**32 - 1))
def test_every_scan_row_is_the_betti_numbers_of_its_multiple(name, rebased, seed):
    """One pass serves every row: each equals betti_numbers at its own multiple,
    in the given basis (buckets) and in a random one (no x acts diagonally)."""
    rng = random.Random(seed)
    g = SCAN_FAMILIES[name]()
    if rebased:
        g = change_basis(g, random_invertible(g.dim, rng))
    basis = closed_one_forms(g).basis
    for _ in range(3):
        coeffs = [rng.randint(-2, 2) for _ in basis]
        if not any(coeffs):
            continue
        scale = Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2, 3]))
        direction = OneForm([scale * sum(c * b[i] for c, b in zip(coeffs, basis))
                             for i in range(g.dim)])
        table = scan_line(g, direction)
        for row in table.rows + (table.generic,):
            assert row.betti == tuple(betti_numbers(g, direction.scale(row.lam)))
        # the critical multipliers: lam with -lam * direction in the exceptional set, and 0
        omega = omega_set(adapted_basis(g)).elements
        i = next(i for i, c in enumerate(direction.coeffs) if c)
        found = {-s.coeffs[i] / direction.coeffs[i] for s in omega} | {Fraction(0)}
        assert table.critical_lambdas == tuple(sorted(
            lam for lam in found if not lam or direction.scale(-lam) in omega))


def test_a_bucket_need_not_hold_a_critical_multiplier(monkeypatch):
    """x = e1 alone acts diagonally, a = (0, 0, 1, 1), so along e^1 + e^2 the
    buckets are lam = |I & {3, 4}| in {0, 1, 2}; the exceptional set holds no
    multiple of the direction but zero, and the control row at lam = 1 walks
    its nonempty bucket to zeros."""
    g = LieAlgebra.from_brackets(4, {(1, 3): (0, 0, 1, 0), (1, 4): (0, 0, 0, 1),
                                     (2, 4): (0, 0, 1, 0)})
    direction = one_form(1, 1, 0, 0)
    walked = []
    real = cohomology_module._cleared_walk
    monkeypatch.setattr(cohomology_module, "_cleared_walk",
                        lambda live, *args: walked.append(live) or real(live, *args))
    table = scan_line(g, direction)
    assert table.critical_lambdas == (Fraction(0),)
    assert table.rows[0].betti == (1, 2, 1, 0, 0)
    assert (table.generic.lam, table.generic.betti) == (Fraction(1), (0, 0, 0, 0, 0))
    bucket = [{idx for p in range(5) for idx in combinations(range(1, 5), p)
               if len({3, 4} & set(idx)) == lam} for lam in range(3)]
    assert [{mask_indices(mask) for degree in live for mask in degree}
            for live in walked] == bucket[:2]
    assert all(bucket) and betti_numbers(g, direction.scale(2)) == [0] * 5


def test_one_scan_builds_the_tables_once_and_searches_each_factor_once(monkeypatch):
    # sol3(2) on e1, e3, e5 and diag 3 on e2, e4, e6, plus the singleton e7
    g = LieAlgebra.from_brackets(7, {(1, 3): (0, 0, 2, 0, 0, 0, 0), (1, 5): (0, 0, 0, 0, -2, 0, 0),
                                     (2, 4): (0, 0, 0, 1, 0, 0, 0), (2, 6): (0, 0, 0, 0, 0, 2, 0)})
    calls = []
    for name in ("_wedge_terms", "_live_monomials"):
        real = getattr(cohomology_module, name)
        monkeypatch.setattr(cohomology_module, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    table = scan_line(g, one_form(1, 1, 0, 0, 0, 0, 0))
    assert len(table.rows) > 1
    # one table for the direction, one search per factor of two or more indices
    assert sorted(calls) == ["_live_monomials", "_live_monomials", "_wedge_terms"]
