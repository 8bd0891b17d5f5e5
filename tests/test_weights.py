import random
import sys
import threading
import time
from fractions import Fraction
from itertools import combinations
from math import lcm

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
from liecohom import weights as weights_module
from liecohom.algebra import derived_series, random_invertible
from liecohom.linalg import RationalMatrix, invert, rank
from liecohom.reports import _critical_multipliers
from liecohom.weights import WeightData, _eigenvalues

from conftest import (
    ad,
    char_poly,
    closed_grid,
    diag,
    divisor_rational_roots,
    heisenberg5,
    k2,
    matrix_product,
    multipliers_in,
    one_form,
    oneform_subset_sums,
    pow2,
    restricted_adapted_basis,
    sequential_subset_sums,
    sol3_plus,
)


def coeff_sets(forms):
    return {tuple(f.coeffs) for f in forms}


def companion(coeffs):
    """The companion matrix of the polynomial with coefficients c_0..c_m:
    its characteristic polynomial is that polynomial divided by c_m."""
    m = len(coeffs) - 1
    return RationalMatrix(m, m, [[Fraction(int(i == j + 1)) for j in range(m - 1)]
                                 + [-Fraction(coeffs[i]) / coeffs[m]] for i in range(m)])


def int_rows(m):
    """The rows of a matrix as ``_eigenvalues`` takes them: pairs (R_i, s_i)
    of a sparse int row and a positive int, row i being R_i / s_i."""
    rows = []
    for r in m._rows:
        s = lcm(*(x.denominator for x in r.values()))
        rows.append(({j: x.numerator * (s // x.denominator) for j, x in r.items()}, s))
    return rows


def test_char_poly_and_rational_roots():
    a = RationalMatrix.from_rows([[1, 0], [0, -1]])
    assert char_poly(a) == [Fraction(-1), Fraction(0), Fraction(1)]
    assert _eigenvalues(int_rows(a)) == [Fraction(-1), Fraction(1)]

    rot = RationalMatrix.from_rows([[0, 1], [-1, 0]])
    assert char_poly(rot) == [Fraction(1), Fraction(0), Fraction(1)]
    assert _eigenvalues(int_rows(rot)) == []

    # x^3 - x^2: roots 0 and 1
    assert _eigenvalues(int_rows(companion([0, 0, -1, 1]))) == [Fraction(0), Fraction(1)]
    # 2x^2 - 3x + 1: roots 1/2 and 1
    assert _eigenvalues(int_rows(companion([1, -3, 2]))) == [Fraction(1, 2), Fraction(1)]
    # x^2 - 2 has no rational roots
    assert _eigenvalues(int_rows(companion([-2, 0, 1]))) == []


def _times(p, q):
    out = [0] * (len(p) + len(q) - 1)
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
# -3 (3x + 4)(x - 4)(x^2 + 8): a negative leading coefficient, a root that is
# an integer only after the scaling by D, and a factor with no real root
@example([([Fraction(4), Fraction(3)], 1), ([Fraction(-4), Fraction(1)], 1),
          ([Fraction(8), Fraction(0), Fraction(1)], 1)], Fraction(-3))
# x^3 (x - 2/3): the zero root survives the monic transform
@example([([Fraction(0), Fraction(1)], 3), ([Fraction(-2), Fraction(3)], 1)], Fraction(1, 3))
def test_rational_roots_match_the_divisor_oracle(factors, lead):
    poly = [lead]
    for factor, multiplicity in factors:
        for _ in range(multiplicity):
            poly = _times(poly, factor)
    assert _eigenvalues(int_rows(companion(poly))) == divisor_rational_roots(poly)


# monic factors as (coefficients leading first, integer roots): x - r with
# |r| up to 2^80 or exactly +-2^m, x, x^2 + c and x^2 - p for a prime p
_int_factor = st.one_of(
    st.one_of(st.integers(-2**80, 2**80),
              st.tuples(st.sampled_from([1, -1]), st.integers(0, 80)).map(lambda sm: sm[0] << sm[1]))
    .map(lambda r: ([1, -r], {r})),
    st.just(([1, 0], {0})),
    st.integers(1, 10**9).map(lambda c: ([1, 0, c], set())),
    st.sampled_from([2, 3, 5, 7, 2**61 - 1]).map(lambda p: ([1, 0, -p], set())),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_int_factor, st.integers(1, 3)), max_size=5), st.sampled_from([1, -1, 3]))
# (x - 2^40)(x + 2^40 - 1): its root 2^40 is b / 4, where a bound without the
# factor 4 would end the walk
@example([(([1, -2**40], {2**40}), 1), (([1, 2**40 - 1], {1 - 2**40}), 1)], 1)
def test_integer_roots_of_products_of_factors(factors, lead):
    poly, roots = [lead], set()
    for (factor, rs), multiplicity in factors:
        for _ in range(multiplicity):
            poly = _times(poly, factor)
        roots |= rs
    assert weights_module._integer_roots(poly) == sorted(roots)


def test_integer_roots_examples():
    assert weights_module._integer_roots([3, -6]) == [2]
    assert weights_module._integer_roots([2, -3]) == []
    assert weights_module._integer_roots([5]) == []


@st.composite
def known_spectra(draw):
    """A block upper triangular matrix with rational entries, conjugated by
    random_invertible, and its eigenvalues: the diagonal entries outside the
    block [[0, 2], [1, 0]], whose characteristic polynomial x^2 - 2 has no
    rational root."""
    cell = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    diagonal = draw(st.lists(cell, max_size=5))
    blocks = [[[d]] for d in diagonal]
    if draw(st.booleans()):
        blocks.insert(draw(st.integers(0, len(blocks))), [[0, 2], [1, 0]])
    n = sum(map(len, blocks))
    rows, start = [], 0
    for block in blocks:
        end = start + len(block)
        rows += [[0] * start + r + [draw(cell) for _ in range(end, n)] for r in block]
        start = end
    p = random_invertible(n, random.Random(draw(st.integers(0, 2**32 - 1))))
    return matrix_product(matrix_product(p, RationalMatrix(n, n, rows)), invert(p)), diagonal


@settings(max_examples=100, deadline=None)
@given(known_spectra())
def test_eigenvalues_of_conjugated_triangular_matrices(case):
    m, diagonal = case
    assert (_eigenvalues(int_rows(m)) == sorted(set(diagonal))
            == divisor_rational_roots(char_poly(m)))


def _counting_roots(monkeypatch):
    """The polynomials ``_integer_roots`` is called on, from now on."""
    calls, real = [], weights_module._integer_roots
    monkeypatch.setattr(weights_module, "_integer_roots", lambda p: calls.append(p) or real(p))
    return calls


@st.composite
def triangular_actions(draw):
    """Rows (R_i, s_i) of an upper or lower triangular rational action whose
    diagonal repeats values, each scale a random multiple of its row's
    denominators, and that diagonal."""
    n = draw(st.integers(1, 6))
    diagonal = draw(st.lists(st.sampled_from([Fraction(-3, 2), Fraction(0), Fraction(1),
                                              Fraction(7, 3)]), min_size=n, max_size=n))
    upper, cell = draw(st.booleans()), st.fractions(min_value=-6, max_value=6, max_denominator=4)
    rows = []
    for i, d in enumerate(diagonal):
        entries = {i: d} | {j: draw(cell) for j in (range(i + 1, n) if upper else range(i))}
        s = lcm(*(x.denominator for x in entries.values())) * draw(st.integers(1, 3))
        rows.append(({j: int(x * s) for j, x in entries.items() if x}, s))
    return rows, diagonal


@settings(max_examples=100, deadline=None)
@given(triangular_actions())
# Jordan blocks: [[2, 1], [0, 2]], and [[2, 0], [5, 2]] with its first row at scale 3
@example(([({0: 2, 1: 1}, 1), ({1: 2}, 1)], [2, 2]))
@example(([({0: 6}, 3), ({0: 5, 1: 2}, 1)], [2, 2]))
def test_triangular_actions_read_their_diagonal(case):
    rows, diagonal = case
    n = len(rows)
    # the block [[0, 2], [1, 0]] (x^2 - 2, no rational root) leaves the action
    # triangular in neither direction, so it takes the characteristic polynomial
    mixed = rows + [({n + 1: 2}, 1), ({n: 1}, 1)]
    with pytest.MonkeyPatch.context() as mp:
        calls = _counting_roots(mp)
        read = _eigenvalues(rows)
        assert calls == []
        assert _eigenvalues(mixed) == read == sorted(set(diagonal))
        assert len(calls) == 1


def test_a_non_triangular_action_takes_the_characteristic_polynomial(monkeypatch):
    calls = _counting_roots(monkeypatch)
    with pytest.raises(NotTriangularizableError):
        adapted_basis(_partly_rational())
    assert len(calls) == 1
    adapted_basis(change_basis(diag(6), random_invertible(6, random.Random(1))))
    assert len(calls) == 2


def test_diagonal_actions_build_no_polynomial(monkeypatch):
    calls = _counting_roots(monkeypatch)
    pow2 = LieAlgebra.from_brackets(12, {
        (1, j): tuple(2 ** (j - 2) if m == j - 1 else 0 for m in range(12)) for j in range(2, 13)})
    k = 10**6 + 7
    for g, expected in ((pow2, [-(2 ** j) for j in range(10, -1, -1)]),
                        (load_example("sol3", k=k).algebra, [-k, k])):
        data = adapted_basis(g)
        assert sorted(w.coeffs[0] for w in data.weights[data.k:]) == expected
        assert not any(any(w.coeffs[1:]) for w in data.weights)
    assert calls == []


def test_derived_algebra_acts_nilpotently(heisenberg3, sol3, euclid3, abelian2, affine2):
    """Lie's theorem, which lets adapted_basis take one joint kernel for
    [g, g]: on a solvable algebra every element of [g, g] acts nilpotently."""
    rng = random.Random(109)
    for base in (heisenberg3, sol3, euclid3, abelian2, affine2, diag(5), heisenberg5()):
        for g in (base, change_basis(base, random_invertible(base.dim, rng))):
            series = derived_series(g)
            assert series[-1].is_zero()
            for b in series[1].basis:
                ad_b = ad(g, b)
                power = ad_b
                for _ in range(g.dim - 1):
                    power = matrix_product(power, ad_b)
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


def test_omega_set_length_counts_distinct_subset_sums():
    # k2's weights 0, 0, -e^1, -2e^1 + e^2 sum to four distinct forms
    omega = omega_set(adapted_basis(k2()))
    assert [w.coeffs for w in omega.sorted_elements()] == [
        (-3, 1, 0, 0), (-2, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 0)]
    assert len(omega) == 4


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


def test_a_one_form_of_the_wrong_length_names_both_dimensions(sol3):
    data = adapted_basis(sol3)
    short = OneForm((1, 0))
    for call in (lambda: pullback_one_form(short, data.adapted_change),
                 lambda: vanishing_predicate(data, short),
                 lambda: r0_spectrum(data, short, 1)):
        with pytest.raises(ValueError, match="dimension 2 .* dimension 3"):
            call()


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


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 7), st.integers(0, 2**32 - 1))
def test_grouped_subset_sums_equal_the_sequential_reference(n, seed):
    """Weights drawn with repeats from a few forms, zero among them: a repeat is
    the same object or an equal copy, next to its equals or apart from them."""
    rng = random.Random(seed)
    pool = [OneForm.zero(n)] + [OneForm([rng.randint(-2, 2) for _ in range(n)])
                                for _ in range(rng.randint(1, 3))]
    weights = []
    for _ in range(n):
        w = rng.choice(pool)
        weights.append(w if rng.random() < 0.5 else OneForm(w.coeffs))
    if rng.random() < 0.5:
        weights.sort(key=lambda w: w.coeffs)
    identity = RationalMatrix(n, n, [[int(i == j) for j in range(n)] for i in range(n)])
    data = WeightData(adapted_change=identity, weights=tuple(weights), k=rng.randint(0, n))
    assert omega_set(data) == sequential_subset_sums(data)


def test_grouped_subset_sums_on_repeated_weights_of_algebras():
    # [e1, ej] = c_j ej with repeated c_j, and central summands: weights with multiplicity
    repeated = LieAlgebra.from_brackets(7, {(1, j): tuple(c if m == j - 1 else 0 for m in range(7))
                                            for j, c in zip(range(2, 8), (1, 1, 1, 2, 2, -1))})
    for g in (repeated, sol3_plus(5, 4), load_example("abelian", n=9).algebra, heisenberg5(),
              change_basis(repeated, random_invertible(7, random.Random(5)))):
        data = adapted_basis(g)
        assert len(set(data.weights)) < len(data.weights)
        assert omega_set(data) == sequential_subset_sums(data)


OMEGA_FAMILIES = {
    "diag": lambda rng: diag(rng.randint(2, 9)),
    "pow2": lambda rng: pow2(rng.randint(2, 9)),
    "k2": lambda rng: k2(),
    "sol3a": lambda rng: sol3_plus(Fraction(rng.choice([-1, 1]) * rng.randint(1, 12),
                                            rng.randint(1, 3)), rng.randint(0, 3)),
    "abelian": lambda rng: load_example("abelian", n=rng.randint(1, 5)).algebra,
    "heisenberg3": lambda rng: load_example("heisenberg3").algebra,
    "sol3": lambda rng: load_example("sol3", k=rng.randint(1, 5)).algebra,
}


@settings(max_examples=70, deadline=None)
@given(st.sampled_from(sorted(OMEGA_FAMILIES)), st.booleans(), st.integers(0, 2**32 - 1))
def test_int_subset_sums_match_the_oneform_reference(family, rotate, seed):
    """Ω as int tuples against the OneForm sums, in the given basis and after a
    random change of basis, and the scan multipliers read off either set along
    random closed directions and along multiples of elements of Ω."""
    rng = random.Random(seed)
    g = OMEGA_FAMILIES[family](rng)
    if rotate:
        g = change_basis(g, random_invertible(g.dim, rng))
    data = adapted_basis(g)
    omegas, reference = omega_set(data), oneform_subset_sums(data)
    assert omegas.elements == reference.elements
    assert len(omegas) == len(reference)
    assert omegas.sorted_elements() == reference.sorted_elements()
    closed = [OneForm(v) for v in closed_one_forms(g).basis]
    directions = [sum((f.scale(rng.randint(-3, 3)) for f in closed), OneForm.zero(g.dim))
                  for _ in range(3)]
    directions += [rng.choice(reference.sorted_elements()).scale(Fraction(rng.choice([-2, 1, 3]),
                                                                          rng.randint(1, 3)))
                   for _ in range(3)]
    for direction in directions:
        if not direction.is_zero():
            assert (_critical_multipliers(data, direction)
                    == multipliers_in(reference.elements, direction))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 7), st.integers(0, 2**32 - 1))
def test_int_subset_sums_of_repeated_zero_and_rational_weights(n, seed):
    rng = random.Random(seed)
    pool = [OneForm.zero(n)] + [OneForm([Fraction(rng.randint(-4, 4), rng.randint(1, 6))
                                         for _ in range(n)]) for _ in range(rng.randint(1, 3))]
    weights = [rng.choice(pool) for _ in range(n)]
    weights = [w if rng.random() < 0.5 else OneForm(w.coeffs) for w in weights]
    identity = RationalMatrix(n, n, [[int(i == j) for j in range(n)] for i in range(n)])
    data = WeightData(adapted_change=identity, weights=tuple(weights), k=rng.randint(0, n))
    omegas, reference = omega_set(data), oneform_subset_sums(data)
    assert omegas.elements == reference.elements
    assert omegas.sorted_elements() == reference.sorted_elements()
    assert len(omegas) == len(reference) == len(sequential_subset_sums(data))


def test_abelian_1000_takes_its_complement_from_sparse_unit_rows():
    g = load_example("abelian", n=1000).algebra
    start = time.perf_counter()
    data = adapted_basis(g)
    assert time.perf_counter() - start < 0.1
    assert data.k == 1000
    change = data.adapted_change
    assert (change.rows, change.cols) == (1000, 1000)
    assert change._rows == [{i: 1} for i in range(1000)]
    assert len(data.weights) == 1000 and all(w.is_zero() for w in data.weights)
    assert omega_set(data).elements == {OneForm.zero(1000)}


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


@pytest.mark.parametrize("make,seed", [case[:2] for case in GOLDEN_ADAPTED],
                         ids=["jordan4", "borel4", "diag5", "heisenberg5", "upper3"])
def test_stored_adapted_weights_are_the_pullbacks(make, seed):
    g = make()
    if seed is not None:
        g = change_basis(g, random_invertible(g.dim, random.Random(seed)))
    data = adapted_basis(g)
    pulled = tuple(pullback_one_form(w, data.adapted_change).coeffs for w in data.weights)
    assert data._adapted_weights == pulled


@pytest.mark.parametrize("g", [load_example("abelian", n=12).algebra, diag(5), sol3_plus(2, 3),
                               change_basis(heisenberg5(), random_invertible(5, random.Random(3)))],
                         ids=["abelian12", "diag5", "sol3_plus", "heisenberg5"])
def test_adapted_weights_pull_back_each_weight_object_once(g, monkeypatch):
    """``_adapted_weights`` equals the per-weight pullback, with one pullback per
    weight object: the k zero weights of ``adapted_basis`` are one object, and
    equal weights that are distinct objects are pulled back each."""
    data = adapted_basis(g)
    calls = []
    real = weights_module.pullback_one_form
    monkeypatch.setattr(weights_module, "pullback_one_form",
                        lambda w, m: calls.append(w) or real(w, m))
    for weights in (data.weights, data.weights + tuple(OneForm(w.coeffs) for w in data.weights)):
        calls.clear()
        copy = WeightData(data.adapted_change, weights, data.k)
        assert copy._adapted_weights == tuple(real(w, data.adapted_change).coeffs for w in weights)
        assert len(calls) == len({id(w) for w in weights})
    assert len({id(w) for w in data.weights[:data.k]}) == 1


@pytest.mark.parametrize("make,seed", [case[:2] for case in GOLDEN_ADAPTED],
                         ids=["jordan4", "borel4", "diag5", "heisenberg5", "upper3"])
def test_replace_pulls_the_new_weights_back(make, seed):
    g = make()
    if seed is not None:
        g = change_basis(g, random_invertible(g.dim, random.Random(seed)))
    data = adapted_basis(g)
    rng = random.Random(0)
    permuted = list(data.weights)
    rng.shuffle(permuted)
    doubled = [w + w for w in data.weights]
    halved = data.adapted_change.scale(Fraction(1, 2))
    omega = OneForm.zero(g.dim)
    for changes in ({"weights": tuple(permuted)}, {"weights": tuple(doubled)},
                    {"adapted_change": halved}):
        fields = {"adapted_change": data.adapted_change, "weights": data.weights,
                  "k": data.k, **changes}
        # a copy of data through the constructor, one field replaced
        replaced = WeightData(*fields.values())
        fresh = WeightData(**fields)
        change = fields["adapted_change"]
        assert replaced._adapted_weights == fresh._adapted_weights \
            == tuple(pullback_one_form(w, change).coeffs for w in fields["weights"])
        assert [r0_spectrum(replaced, omega, p) for p in range(g.dim + 1)] \
            == [r0_spectrum(fresh, omega, p) for p in range(g.dim + 1)]


def test_adapted_basis_errors_are_pinned(euclid3, sl2):
    with pytest.raises(NotTriangularizableError) as exc:
        adapted_basis(euclid3)
    assert str(exc.value) == (
        "adjoint action has no rational eigenvalue on the current invariant "
        "subspace; the algebra is not rationally triangularizable")
    with pytest.raises(NotSolvableError) as exc:
        adapted_basis(sl2)
    assert str(exc.value) == "adapted basis requires a solvable Lie algebra"


@pytest.mark.parametrize("seed", [5, 6])
@pytest.mark.parametrize("make", [case[0] for case in GOLDEN_ADAPTED],
                         ids=["jordan4", "borel4", "diag5", "heisenberg5", "upper3"])
def test_memoized_weight_data_equals_a_fresh_computation(make, seed):
    m = random_invertible(make().dim, random.Random(seed))
    g, fresh = change_basis(make(), m), change_basis(make(), m)
    data = adapted_basis(g)
    omegas = omega_set(data)
    # a filled memo changes neither equality nor the hash
    assert g == fresh and hash(g) == hash(fresh)
    assert adapted_basis(g) is data and omega_set(data) is omegas
    assert data == adapted_basis(fresh)
    assert omegas == omega_set(adapted_basis(fresh))


def test_threads_racing_on_one_algebra_share_one_weight_data():
    m = random_invertible(6, random.Random(3))
    g, fresh = change_basis(diag(6), m), change_basis(diag(6), m)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: results.append(omega_set(adapted_basis(g))))
                   for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    # however the threads interleave, every one returns the first stored value
    assert len(results) == 4 and all(r is omega_set(adapted_basis(g)) for r in results)
    assert adapted_basis(g) == adapted_basis(fresh)


def test_adapted_basis_failures_are_raised_on_every_call(euclid3, sl2, monkeypatch):
    builds = []
    real = weights_module._series_rows
    monkeypatch.setattr(weights_module, "_series_rows", lambda g: builds.append(g) or real(g))
    for call in (1, 2):
        with pytest.raises(NotTriangularizableError):
            adapted_basis(euclid3)
        with pytest.raises(NotSolvableError):
            adapted_basis(sl2)
        # a failure is not stored: every call runs the checks again
        assert builds == [euclid3, sl2] * call


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
    # a Jordan block, and derived length three: in a random basis, flags of
    # several steps whose deflations meet off-diagonal entries
    "jordan4": jordan4,
    "borel4": borel4,
    # [e1, ej] = 2^(j-2) ej: the flag meets five distinct power-of-two candidates
    "pow2_6": lambda: LieAlgebra.from_brackets(6, {
        (1, j): tuple(2 ** (j - 2) if m == j - 1 else 0 for m in range(6)) for j in range(2, 7)}),
}


def _outcome(build, g):
    try:
        data = build(g)
    except (NotSolvableError, NotTriangularizableError) as exc:
        return type(exc), str(exc)
    return data.adapted_change.to_rows(), [w.coeffs for w in data.weights], data.k


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(ORACLE_ALGEBRAS)), st.integers(0, 2**32 - 1))
def test_adapted_basis_matches_the_restricted_oracle(name, seed):
    g = ORACLE_ALGEBRAS[name]()
    g = change_basis(g, random_invertible(g.dim, random.Random(seed)))
    assert _outcome(adapted_basis, g) == _outcome(restricted_adapted_basis, g)
