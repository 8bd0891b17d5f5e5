import random
from fractions import Fraction

import pytest

from liecohom import (
    ComputationDomainError,
    NonClosedFormError,
    NotTriangularizableError,
    OneForm,
    StructureError,
    adapted_basis,
    load_example,
    novikov_report,
    omega_set,
    r0_spectrum,
    scan_line,
)
from liecohom import weights

from conftest import diag, one_form


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
    real = weights.derived_series
    monkeypatch.setattr(weights, "derived_series", lambda g: builds.append(g) or real(g))
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

