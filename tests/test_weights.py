import random
from fractions import Fraction
from itertools import combinations

import pytest

from liecohom import (
    ExteriorForm,
    NonClosedFormError,
    NotSolvableError,
    NotTriangularizableError,
    OneForm,
    Vanishing,
    adapted_basis,
    betti_numbers,
    ce_differential,
    change_basis,
    closed_one_forms,
    derived_subalgebra,
    is_unimodular,
    load_example,
    omega_set,
    pullback_one_form,
    r0_spectrum,
    vanishing_predicate,
    weight_sum_check,
)
from liecohom.algebra import random_invertible
from liecohom.linalg import rank
from liecohom.weights import WeightData, _char_poly, _rational_roots

from conftest import closed_grid, diag, heisenberg5, one_form


def coeff_sets(forms):
    return {tuple(f.coeffs) for f in forms}


def test_char_poly_and_rational_roots():
    from liecohom.linalg import RationalMatrix

    a = RationalMatrix.from_rows([[1, 0], [0, -1]])
    assert _char_poly(a) == [Fraction(-1), Fraction(0), Fraction(1)]
    assert _rational_roots(_char_poly(a)) == [Fraction(-1), Fraction(1)]

    rot = RationalMatrix.from_rows([[0, 1], [-1, 0]])
    assert _char_poly(rot) == [Fraction(1), Fraction(0), Fraction(1)]
    assert _rational_roots(_char_poly(rot)) == []

    # x^3 - x^2: roots 0 and 1
    assert _rational_roots([Fraction(0), Fraction(0), Fraction(-1), Fraction(1)]) \
        == [Fraction(0), Fraction(1)]
    # 2x^2 - 3x + 1: roots 1/2 and 1
    assert _rational_roots([Fraction(1), Fraction(-3), Fraction(2)]) \
        == [Fraction(1, 2), Fraction(1)]
    # x^2 - 2 has no rational roots
    assert _rational_roots([Fraction(-2), Fraction(0), Fraction(1)]) == []


def test_sol3_weights(sol3):
    data = adapted_basis(sol3)
    assert data.k == 1
    assert data.weights[0].is_zero()
    assert coeff_sets(data.weights) == {(0, 0, 0), (-1, 0, 0), (1, 0, 0)}
    assert weight_sum_check(data)


def test_sol3_weights_scale_with_parameter():
    k = Fraction(-3)
    data = adapted_basis(load_example("sol3", k=k).algebra)
    assert coeff_sets(data.weights) == {(0, 0, 0), (k, 0, 0), (-k, 0, 0)}


def test_heisenberg_weights_all_trivial(heisenberg3):
    data = adapted_basis(heisenberg3)
    assert data.k == 2
    assert all(w.is_zero() for w in data.weights)
    assert coeff_sets(omega_set(data).elements) == {(0, 0, 0)}


def test_abelian_weights(abelian2):
    data = adapted_basis(abelian2)
    assert data.k == 2
    assert all(w.is_zero() for w in data.weights)


def test_affine2_weights_follow_dual_convention(affine2):
    # d e2 = -e1^e2, so the nonzero weight is -e1; its sum is nonzero,
    # matching non-unimodularity
    data = adapted_basis(affine2)
    assert coeff_sets(data.weights) == {(0, 0), (-1, 0)}
    assert not weight_sum_check(data)
    assert not is_unimodular(affine2)


def test_euclid3_is_not_rationally_triangularizable(euclid3):
    with pytest.raises(NotTriangularizableError):
        adapted_basis(euclid3)


def test_non_solvable_is_rejected(sl2):
    with pytest.raises(NotSolvableError):
        adapted_basis(sl2)


def test_weights_vanish_on_derived_subalgebra(heisenberg3, sol3, affine2):
    for g in (heisenberg3, sol3, affine2):
        data = adapted_basis(g)
        der = derived_subalgebra(g)
        for w in data.weights:
            assert all(w.evaluate(v) == 0 for v in der.basis)


def test_adapted_change_is_invertible_and_k_is_b1(heisenberg3, sol3, affine2):
    for g in (heisenberg3, sol3, affine2):
        data = adapted_basis(g)
        assert rank(data.adapted_change) == g.dim
        assert data.k == closed_one_forms(g).dim


def test_adapted_basis_triangularity(heisenberg3, sol3, affine2):
    """In the adapted basis, d e~^{k+s} - alpha_{k+s} ^ e~^{k+s} only uses
    indices below k+s."""
    rng = random.Random(83)
    cases = [heisenberg3, sol3, affine2]
    cases += [change_basis(sol3, random_invertible(3, rng)) for _ in range(5)]
    cases += [change_basis(heisenberg3, random_invertible(3, rng)) for _ in range(5)]
    # several flag steps, quotients of dimension > 2, chains longer than 4
    cases += [change_basis(h, random_invertible(5, rng)) for h in (diag(5), heisenberg5())]
    for g in cases:
        data = adapted_basis(g)
        adapted = change_basis(g, data.adapted_change)
        for i in range(data.k + 1, g.dim + 1):
            alpha = pullback_one_form(data.weights[i - 1], data.adapted_change)
            diff = ce_differential(adapted, ExteriorForm.basis(g.dim, (i,)))
            residual = diff - _wedge_one(alpha, g.dim, i)
            for idx in residual.terms:
                assert max(idx) <= i - 1, (g, i, residual)
        # the closed block really is closed
        for i in range(1, data.k + 1):
            assert ce_differential(adapted, ExteriorForm.basis(g.dim, (i,))).is_zero()


def _wedge_one(alpha: OneForm, dim: int, i: int) -> ExteriorForm:
    from liecohom import wedge

    return wedge(ExteriorForm.from_one_form(alpha), ExteriorForm.basis(dim, (i,)))


def test_omega_set_sol3(sol3):
    data = adapted_basis(sol3)
    assert coeff_sets(omega_set(data).elements) \
        == {(0, 0, 0), (1, 0, 0), (-1, 0, 0)}


def test_omega_set_is_order_independent(sol3):
    data = adapted_basis(sol3)
    rng = random.Random(89)
    for _ in range(5):
        weights = list(data.weights)
        rng.shuffle(weights)
        permuted = WeightData(adapted_change=data.adapted_change,
                              weights=tuple(weights), k=data.k)
        assert omega_set(permuted).elements == omega_set(data).elements


def test_vanishing_predicate(sol3, heisenberg3):
    data = adapted_basis(sol3)
    assert vanishing_predicate(data, one_form(2, 0, 0)) is Vanishing.GUARANTEED_TRIVIAL
    assert vanishing_predicate(data, one_form(-1, 0, 0)) is Vanishing.POSSIBLY_NONTRIVIAL
    hdata = adapted_basis(heisenberg3)
    assert vanishing_predicate(hdata, OneForm.zero(3)) is Vanishing.POSSIBLY_NONTRIVIAL
    with pytest.raises(NonClosedFormError):
        vanishing_predicate(hdata, one_form(0, 0, 1))


def test_vanishing_predicate_agrees_with_engine(sol3, heisenberg3, abelian2, affine2):
    for g in (sol3, heisenberg3, abelian2, affine2):
        data = adapted_basis(g)
        for omega in closed_grid(g):
            betti = betti_numbers(g, omega)
            verdict = vanishing_predicate(data, omega)
            if verdict is Vanishing.GUARANTEED_TRIVIAL:
                assert betti == [0] * (g.dim + 1)
            if any(betti):
                # converse sanity: survivors always sit inside the critical set
                assert -omega in omega_set(data)


def test_r0_spectrum_examples(sol3):
    data = adapted_basis(sol3)
    assert r0_spectrum(data, OneForm.zero(3), 1) == [0, 1, 1]
    assert r0_spectrum(data, one_form(-1, 0, 0), 1) == [0, 1, 4]
    assert r0_spectrum(data, OneForm.zero(3), 0) == [0]
    assert r0_spectrum(data, one_form(2, 0, 0), 0) == [4]


def test_r0_minimum_links_to_omega_set(sol3):
    data = adapted_basis(sol3)
    for omega in closed_grid(sol3):
        zero_attained = any(min(r0_spectrum(data, omega, p)) == 0
                            for p in range(4))
        assert zero_attained == (-omega in omega_set(data))


def test_weight_sum_matches_unimodularity(heisenberg3, sol3, affine2):
    rng = random.Random(97)
    for g in (heisenberg3, sol3, affine2):
        cases = [g] + [change_basis(g, random_invertible(g.dim, rng))
                       for _ in range(5)]
        for h in cases:
            assert weight_sum_check(adapted_basis(h)) == is_unimodular(h)


def jordan4():
    """ad(e1) acts on the abelian ideal with a 2x2 Jordan block at 1 and
    eigenvalue -2, so the eigenvalue-1 eigenspace is smaller than its
    multiplicity."""
    from liecohom import LieAlgebra

    return LieAlgebra.from_brackets(4, {
        (1, 2): (0, 1, 0, 0),
        (1, 3): (0, 1, 1, 0),
        (1, 4): (0, 0, 0, -2),
    })


def borel4():
    """Solvable with derived length three: [h,x]=x, [h,y]=y, [x,y]=z, [h,z]=2z."""
    from liecohom import LieAlgebra

    return LieAlgebra.from_brackets(4, {
        (1, 2): (0, 1, 0, 0),
        (1, 3): (0, 0, 1, 0),
        (1, 4): (0, 0, 0, 2),
        (2, 3): (0, 0, 0, 1),
    })


def test_jordan_block_flag():
    g = jordan4()
    data = adapted_basis(g)
    assert data.k == 1
    assert coeff_sets(data.weights) == {(0, 0, 0, 0), (-1, 0, 0, 0), (2, 0, 0, 0)}
    # -e1 has multiplicity two
    assert [tuple(w.coeffs) for w in data.weights].count((-1, 0, 0, 0)) == 2
    assert weight_sum_check(data) and is_unimodular(g)
    sums = coeff_sets(omega_set(data).elements)
    assert sums == {(a, 0, 0, 0) for a in (-2, -1, 0, 1, 2)}


def test_derived_length_three_flag():
    g = borel4()
    data = adapted_basis(g)
    assert data.k == 1
    assert [tuple(w.coeffs) for w in data.weights].count((-1, 0, 0, 0)) == 2
    assert [tuple(w.coeffs) for w in data.weights].count((-2, 0, 0, 0)) == 1
    assert not weight_sum_check(data)
    assert not is_unimodular(g)


def test_vanishing_consistency_on_four_dimensional_algebras():
    for g in (jordan4(), borel4()):
        data = adapted_basis(g)
        for omega in closed_grid(g):
            betti = betti_numbers(g, omega)
            if vanishing_predicate(data, omega) is Vanishing.GUARANTEED_TRIVIAL:
                assert betti == [0] * 5
            if any(betti):
                assert -omega in omega_set(data)


def test_triangularity_in_four_dimensions():
    from liecohom import ExteriorForm

    rng = random.Random(103)
    for base in (jordan4(), borel4()):
        for g in [base] + [change_basis(base, random_invertible(4, rng))
                           for _ in range(3)]:
            data = adapted_basis(g)
            adapted = change_basis(g, data.adapted_change)
            for i in range(data.k + 1, 5):
                alpha = pullback_one_form(data.weights[i - 1], data.adapted_change)
                diff = ce_differential(adapted, ExteriorForm.basis(4, (i,)))
                residual = diff - _wedge_one(alpha, 4, i)
                assert all(max(idx) <= i - 1 for idx in residual.terms)


def test_omega_set_matches_subset_enumeration(sol3):
    rng = random.Random(107)
    for g in (jordan4(), borel4(), diag(6), change_basis(sol3, random_invertible(3, rng))):
        data = adapted_basis(g)
        brute = set()
        for size in range(1, data.dim + 1):
            for subset in combinations(data.weights, size):
                total = OneForm.zero(data.dim)
                for w in subset:
                    total = total + w
                brute.add(total)
        assert omega_set(data).elements == brute
