import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liecohom import (
    ExteriorForm,
    LieAlgebra,
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
from liecohom.algebra import derived_series, random_invertible
from liecohom.linalg import rank
from liecohom.weights import WeightData, _char_poly, _rational_roots

from conftest import (
    closed_grid,
    diag,
    divisor_rational_roots,
    heisenberg5,
    k2,
    one_form,
    restricted_adapted_basis,
)


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


def _times(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


# factors as coefficient lists c_0, c_1, ...: q x - p, x itself, x^2 + c,
# x^2 - p for a prime p, and x^2 - r^2, which splits
_factor = st.one_of(
    st.tuples(st.integers(-8, 8), st.integers(1, 4)).map(
        lambda pq: [Fraction(-pq[0]), Fraction(pq[1])]),
    st.just([Fraction(0), Fraction(1)]),
    st.integers(1, 12).map(lambda c: [Fraction(c), Fraction(0), Fraction(1)]),
    st.sampled_from([2, 3, 5, 7]).map(lambda p: [Fraction(-p), Fraction(0), Fraction(1)]),
    st.integers(1, 6).map(lambda r: [Fraction(-r * r), Fraction(0), Fraction(1)]),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_factor, st.integers(1, 2)), min_size=1, max_size=3),
       st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool))
# -3 (3x + 4)(x - 4)(x^2 + 8): its Sturm sequence has negative leading
# coefficients, which the pseudo-remainders must not flip
@example([([Fraction(4), Fraction(3)], 1), ([Fraction(-4), Fraction(1)], 1),
          ([Fraction(8), Fraction(0), Fraction(1)], 1)], Fraction(-3))
# x^3 (x - 2/3): the zero root survives the monic transform
@example([([Fraction(0), Fraction(1)], 3), ([Fraction(-2), Fraction(3)], 1)], Fraction(1, 3))
def test_rational_roots_match_the_divisor_oracle(factors, lead):
    poly = [lead]
    for factor, multiplicity in factors:
        for _ in range(multiplicity):
            poly = _times(poly, factor)
    assert _rational_roots(poly) == divisor_rational_roots(poly)


def test_derived_algebra_acts_nilpotently(heisenberg3, sol3, euclid3, abelian2, affine2):
    """Lie's theorem, which lets adapted_basis take one joint kernel for
    [g, g]: on a solvable algebra every element of [g, g] acts nilpotently."""
    rng = random.Random(109)
    for base in (heisenberg3, sol3, euclid3, abelian2, affine2, diag(5), heisenberg5()):
        for g in (base, change_basis(base, random_invertible(base.dim, rng))):
            series = derived_series(g)
            assert series[-1].is_zero()
            for b in series[1].basis:
                ad = g.ad(b)
                power = ad
                for _ in range(g.dim - 1):
                    power = power @ ad
                assert power.is_zero(), (g, b)


def test_sol3_weights(sol3):
    data = adapted_basis(sol3)
    assert data.k == 1
    assert data.weights[0].is_zero()
    assert coeff_sets(data.weights) == {(0, 0, 0), (-1, 0, 0), (1, 0, 0)}
    assert weight_sum_check(data)


def test_sol3_weights_scale_with_parameter():
    # a divisor search over the constant term k^2 would never finish at 10^12 + 39
    for k in (Fraction(-3), Fraction(10**12 + 39)):
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

    # against pulling back every subset sum, after a basis change
    m = random_invertible(6, random.Random(3))
    data = adapted_basis(change_basis(diag(6), m))
    omega = pullback_one_form(one_form(2, 0, 0, 0, 0, 0), m)
    for p in range(7):
        oracle = []
        for subset in combinations(data.weights, p):
            total = omega
            for w in subset:
                total = total + w
            coords = pullback_one_form(total, data.adapted_change).coeffs
            oracle.append(sum((c * c for c in coords), Fraction(0)))
        assert r0_spectrum(data, omega, p) == sorted(oracle)


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


def upper_triangular(n):
    """Upper-triangular n x n matrices; basis E_ab (a <= b), lexicographic."""
    from liecohom import LieAlgebra

    idx = [(a, b) for a in range(n) for b in range(a, n)]
    brackets = {}
    for s, t in combinations(range(len(idx)), 2):
        (a, b), (c, d) = idx[s], idx[t]
        v = [0] * len(idx)
        if b == c:
            v[idx.index((a, d))] += 1
        if d == a:
            v[idx.index((c, b))] -= 1
        if any(v):
            brackets[(s + 1, t + 1)] = v
    return LieAlgebra.from_brackets(len(idx), brackets)


# adapted_change rows, weights and k, byte for byte: the tie-breaks are fixed,
# so the output is part of the contract. Each of the first four is taken
# after change_basis by random_invertible(n, Random(seed)).
GOLDEN_ADAPTED = [
    (jordan4, 0, 1,
     [[1, 1, 1, 1], [0, 0, 1, -4], [0, -1, -1, -1], [0, 0, 0, -15]],
     [[0, 0, 0, 0], [-3, 0, -3, 0], [-3, 0, -3, 0], [6, 0, 6, 0]]),
    (borel4, 1, 1,
     [[1, 0, 1, 1], [0, 1, 0, 0], [0, 0, 0, "-1/2"], [0, "-1/3", "2/3", "7/6"]],
     [[0, 0, 0, 0], [2, -1, -3, -3], [2, -1, -3, -3], [4, -2, -6, -6]]),
    (lambda: diag(5), 2, 1,
     [[1, 1, 1, 1, 1], [0, 0, "-1/3", "-5/12", "-17/10"], [0, 0, 0, "-1/4", "-4/5"],
      [0, 0, 0, 0, "-11/10"], [0, 1, "2/3", "5/6", "6/5"]],
     [[0, 0, 0, 0, 0], [-12, -12, 12, 12, 12], [-9, -9, 9, 9, 9], [-6, -6, 6, 6, 6],
      [-3, -3, 3, 3, 3]]),
    (heisenberg5, 3, 4,
     [[1, 0, 0, 0, 1], [0, 1, 0, 0, "-1/14"], [0, 0, 1, 0, "-15/28"],
      [0, 0, 0, 1, "-31/28"], [0, 0, 0, 0, "-11/28"]],
     [[0] * 5] * 5),
    (lambda: upper_triangular(3), None, 3,
     [[1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 1],
      [0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 1, 0, 0, 0]],
     [[0] * 6, [0] * 6, [0] * 6, [-1, 0, 0, 1, 0, 0], [0, 0, 0, -1, 0, 1],
      [-1, 0, 0, 0, 0, 1]]),
]


@pytest.mark.parametrize("make,seed,k,change,weights", GOLDEN_ADAPTED)
def test_adapted_basis_is_pinned(make, seed, k, change, weights):
    g = make()
    if seed is not None:
        g = change_basis(g, random_invertible(g.dim, random.Random(seed)))
    data = adapted_basis(g)
    assert data.k == k
    assert data.adapted_change.to_rows() == [[Fraction(x) for x in r] for r in change]
    assert [w.coeffs for w in data.weights] == [tuple(map(Fraction, w)) for w in weights]


def test_adapted_basis_errors_are_pinned(euclid3, sl2):
    with pytest.raises(NotTriangularizableError) as exc:
        adapted_basis(euclid3)
    assert str(exc.value) == (
        "adjoint action has no rational eigenvalue on the current invariant "
        "subspace; the algebra is not rationally triangularizable")
    with pytest.raises(NotSolvableError) as exc:
        adapted_basis(sl2)
    assert str(exc.value) == "adapted basis requires a solvable Lie algebra"


def _partly_rational():
    # [e1, e2] = e2 and a rotation on span(e3, e4): the first flag step finds
    # the eigenvalue 1, the second meets eigenvalues +-i and raises
    return LieAlgebra.from_brackets(4, {(1, 2): (0, 1, 0, 0), (1, 3): (0, 0, 0, 1),
                                        (1, 4): (0, 0, -1, 0)})


ORACLE_ALGEBRAS = {
    "abelian2": lambda: load_example("abelian", n=2).algebra,
    "affine2": lambda: LieAlgebra.from_brackets(2, {(1, 2): (0, 1)}),
    "heisenberg3": lambda: load_example("heisenberg3").algebra,
    "sol3": lambda: load_example("sol3", k=1).algebra,
    "euclid3": lambda: load_example("euclid3").algebra,
    "diag5": lambda: diag(5),
    "heisenberg5": heisenberg5,
    "k2": k2,
    "partly_rational": _partly_rational,
}


def _outcome(build, g):
    try:
        data = build(g)
    except (NotSolvableError, NotTriangularizableError) as exc:
        return type(exc), str(exc)
    return data.adapted_change.to_rows(), [w.coeffs for w in data.weights], data.k


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ORACLE_ALGEBRAS)), st.integers(0, 2**32 - 1))
def test_adapted_basis_matches_the_restricted_oracle(name, seed):
    g = ORACLE_ALGEBRAS[name]()
    g = change_basis(g, random_invertible(g.dim, random.Random(seed)))
    assert _outcome(adapted_basis, g) == _outcome(restricted_adapted_basis, g)
