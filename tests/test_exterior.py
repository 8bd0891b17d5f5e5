import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecohom import (
    ExteriorForm,
    NonClosedFormError,
    OneForm,
    betti_numbers,
    ce_differential,
    change_basis,
    closed_one_forms,
    cohomology,
    deformed_differential,
    derived_subalgebra,
    differential_matrices,
    is_closed,
    is_coboundary,
    load_example,
    representatives,
    scan_line,
    wedge,
)
from liecohom import exterior, reports
from liecohom.algebra import random_invertible
from liecohom.exterior import _differential_tables, _gens_at, _image_rows, form_basis, sort_sign

from conftest import (
    coords_to_form,
    diag,
    form_to_coords,
    heisenberg5,
    k2,
    mask_indices,
    matrix_product,
    one_form,
    rational_sol3_plane,
    reference_differential,
    tuple_monomial_image,
    tuple_tables,
    unchecked_algebra,
)


def e(dim, *indices):
    return ExteriorForm.basis(dim, indices)


def random_form(rng, dim, degree):
    basis = form_basis(dim, degree)
    return ExteriorForm(dim, degree, {
        idx: Fraction(rng.randint(-3, 3)) for idx in basis
    })


def test_dimension_and_degree_must_be_ints():
    from liecohom import StructureError

    # a bool or a float used to be kept: ExteriorForm(3, True, ...) had degree True
    for dim, degree in ((3, True), (True, 1), (3, 1.0), (3.0, 1), (3, "1"), (3, None)):
        with pytest.raises(StructureError):
            ExteriorForm(dim, degree, {})
    with pytest.raises(StructureError):
        ExteriorForm(3, True, {(1,): 1})
    with pytest.raises(ValueError, match="nonnegative"):
        ExteriorForm(3, -1)
    assert ExteriorForm(3, 1, {(2,): 1}).degree == 1


def test_terms_must_map_tuples_of_ints():
    from types import MappingProxyType

    from liecohom import StructureError

    # an int key used to raise TypeError, a list of pairs AttributeError
    for terms in ({1: 2}, [((1,), 2)], {"1": 2}, {frozenset({1}): 2}, {(1.0,): 2}, 5):
        with pytest.raises(StructureError):
            ExteriorForm(3, 1, terms)
    assert ExteriorForm(3, 1, MappingProxyType({(2,): 1})) == ExteriorForm.basis(3, (2,))
    assert ExteriorForm(3, 1, None) == ExteriorForm(3, 1, {}) == ExteriorForm.zero(3, 1)


def test_coefficient_reads_stored_and_absent_terms():
    xi = ExteriorForm(3, 2, {(1, 3): "1/2", (2, 3): -1})
    assert xi.coefficient((1, 3)) == Fraction(1, 2)
    assert xi.coefficient([2, 3]) == -1
    # a valid index with no stored term
    assert xi.coefficient((1, 2)) == 0
    assert ExteriorForm.zero(3, 2).coefficient((1, 2)) == 0


def test_repr_lists_the_terms_in_order():
    assert repr(ExteriorForm.zero(3, 2)) == "ExteriorForm(3, 2, 0)"
    assert repr(ExteriorForm(3, 2, {(2, 3): -1, (1, 3): "1/2"})) == (
        "ExteriorForm(1/2*e1^e3 + -1*e2^e3)")
    assert repr(ExteriorForm.scalar(3, 5)) == "ExteriorForm(5*1)"


def test_sort_sign():
    assert sort_sign((1, 2)) == ((1, 2), 1)
    assert sort_sign((2, 1)) == ((1, 2), -1)
    assert sort_sign((3, 1, 2)) == ((1, 2, 3), 1)
    assert sort_sign((1, 1)) is None
    assert sort_sign(()) == ((), 1)


def test_wedge_square_is_zero():
    assert wedge(e(3, 1), e(3, 1)).is_zero()


def test_wedge_antisymmetry_on_generators():
    assert wedge(e(3, 1), e(3, 2)) == e(3, 1, 2)
    assert wedge(e(3, 2), e(3, 1)) == e(3, 1, 2).scale(-1)


def test_wedge_bilinear_expansion():
    a = e(3, 1) + e(3, 2)
    assert wedge(a, e(3, 2, 3)) == e(3, 1, 2, 3)


def test_wedge_beyond_top_degree_is_zero_form():
    out = wedge(e(2, 1, 2), e(2, 1))
    assert out.degree == 3 and out.is_zero()


def test_wedge_dimension_mismatch():
    with pytest.raises(ValueError):
        wedge(e(2, 1), e(3, 1))


@pytest.mark.parametrize("other", [1, Fraction(1, 2), None])
def test_a_form_adds_and_subtracts_only_forms(other):
    xi = e(3, 1)
    for op in (lambda: xi + other, lambda: xi - other, lambda: other + xi, lambda: other - xi):
        with pytest.raises(TypeError):
            op()


def test_wedge_graded_commutativity_random():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(2, 5)
        p, q = rng.randint(0, n), rng.randint(0, n)
        a, b = random_form(rng, n, p), random_form(rng, n, q)
        sign = (-1) ** (p * q)
        assert wedge(a, b) == wedge(b, a).scale(sign)


def test_wedge_associativity_random():
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randint(2, 5)
        a = random_form(rng, n, rng.randint(0, 2))
        b = random_form(rng, n, rng.randint(0, 2))
        c = random_form(rng, n, rng.randint(0, 2))
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_ce_differential_on_generators(heisenberg3, euclid3):
    assert ce_differential(heisenberg3, e(3, 3)) == e(3, 1, 2).scale(-1)
    assert ce_differential(heisenberg3, e(3, 1)).is_zero()
    sol = load_example("sol3", k=Fraction(5, 2)).algebra
    assert ce_differential(sol, e(3, 2)) == e(3, 1, 2).scale(Fraction(-5, 2))
    assert ce_differential(sol, e(3, 3)) == e(3, 1, 3).scale(Fraction(5, 2))
    assert ce_differential(euclid3, e(3, 2)) == e(3, 1, 3).scale(-1)
    assert ce_differential(euclid3, e(3, 3)) == e(3, 1, 2)


def test_ce_differential_of_scalar_is_zero(sol3):
    assert ce_differential(sol3, ExteriorForm.scalar(3, 7)).is_zero()


def test_graded_leibniz_random(heisenberg3, sol3, euclid3):
    # the reference differential, which the library's is checked against
    rng = random.Random(47)
    for g in (heisenberg3, sol3, euclid3):
        def d(xi):
            return reference_differential(g, OneForm.zero(3), xi)

        for _ in range(25):
            p, q = rng.randint(0, 2), rng.randint(0, 2)
            a, b = random_form(rng, 3, p), random_form(rng, 3, q)
            assert d(wedge(a, b)) == wedge(d(a), b) + wedge(a, d(b)).scale((-1) ** p)


def test_d_squared_zero_iff_jacobi(heisenberg3, sol3, euclid3, sl2):
    # the reference differential, which the library's is checked against
    def dd(g, xi):
        zero = OneForm.zero(g.dim)
        return reference_differential(g, zero, reference_differential(g, zero, xi))

    for g in (heisenberg3, sol3, euclid3, sl2):
        for p in range(g.dim):
            for idx in form_basis(g.dim, p):
                assert dd(g, e(g.dim, *idx)).is_zero()
    # the documented Jacobi violation makes d fail to square to zero on
    # degree-one generators
    broken = unchecked_algebra(3, {(1, 2): (1, 0, 0), (1, 3): (0, 0, 1)})
    assert any(not dd(broken, e(3, j)).is_zero() for j in (1, 2, 3))


def test_deformed_reduces_to_plain_for_zero_form(sol3):
    # ce_differential is deformed_differential at w = 0, so both are held to
    # the reference, which sums the bracket table term by term
    rng = random.Random(53)
    for g in (sol3, change_basis(diag(4), random_invertible(4, rng))):
        zero = OneForm.zero(g.dim)
        for _ in range(20):
            xi = random_form(rng, g.dim, rng.randint(0, g.dim))
            expected = reference_differential(g, zero, xi)
            assert deformed_differential(g, zero, xi) == expected
            assert ce_differential(g, xi) == expected


def test_deformed_differential_of_one_is_omega(sol3):
    omega = one_form(Fraction(1, 2), 0, 0)
    out = deformed_differential(sol3, omega, ExteriorForm.scalar(3, 1))
    assert out == ExteriorForm(3, 1, {(1,): Fraction(1, 2)})


def test_deformed_kills_e2_at_the_critical_twist(sol3):
    assert deformed_differential(sol3, one_form(1, 0, 0), e(3, 2)).is_zero()


def test_non_closed_twist_is_rejected(heisenberg3):
    eta = one_form(0, 0, 1)  # d e3 = -e1^e2 != 0
    assert not is_closed(heisenberg3, eta)
    with pytest.raises(NonClosedFormError):
        deformed_differential(heisenberg3, eta, e(3, 1))
    with pytest.raises(NonClosedFormError):
        differential_matrices(heisenberg3, eta)


def test_each_twisted_query_tests_closedness_once(monkeypatch, sol3):
    """Every twisted query reads closedness off ``_wedge_terms``, so none calls
    is_closed; a scan calls it once, for its own message about the direction."""
    calls = []
    for module in (exterior, reports):
        monkeypatch.setattr(module, "is_closed", lambda g, w, _m=module.__name__,
                            _f=module.is_closed: calls.append(_m) or _f(g, w))
    omega = one_form(1, 0, 0)
    betti_numbers(sol3, omega)
    cohomology(sol3, omega)
    representatives(sol3, omega, 1)
    is_coboundary(sol3, omega, e(3, 2))
    deformed_differential(sol3, omega, e(3, 2))
    differential_matrices(sol3, omega)
    assert calls == []
    scan_line(sol3, omega)
    assert calls == ["liecohom.reports"]


def test_deformed_square_formula_for_non_closed(heisenberg3):
    # (d + eta^.)^2 equals wedging with d(eta); nonzero for eta = e3
    eta = e(3, 3)
    d_eta = ce_differential(heisenberg3, eta)
    assert not d_eta.is_zero()

    def twisted(xi):
        return ce_differential(heisenberg3, xi) + wedge(eta, xi)

    witnessed = False
    for p in range(3):
        for idx in form_basis(3, p):
            xi = e(3, *idx)
            assert twisted(twisted(xi)) == wedge(d_eta, xi)
            if not wedge(d_eta, xi).is_zero():
                witnessed = True
    assert witnessed


def test_deformed_breaks_leibniz_for_nonzero_twist(sol3):
    omega = one_form(1, 0, 0)
    a, b = e(3, 2), e(3, 3)
    lhs = deformed_differential(sol3, omega, wedge(a, b))
    rhs = (wedge(deformed_differential(sol3, omega, a), b)
           + wedge(a, deformed_differential(sol3, omega, b)).scale(-1))
    assert lhs != rhs


def test_matrix_shapes(sol3):
    mats = differential_matrices(sol3, OneForm.zero(3))
    for p in range(3):
        m = mats.matrix(p)
        assert (m.rows, m.cols) == (comb(3, p + 1), comb(3, p))
    top = mats.matrix(3)
    assert (top.rows, top.cols) == (0, 1)


def test_matrices_abelian_all_zero(abelian2):
    mats = differential_matrices(abelian2, OneForm.zero(2))
    assert all(m.is_zero() for m in mats.matrices)


def test_heisenberg_degree_one_matrix(heisenberg3):
    m = differential_matrices(heisenberg3, OneForm.zero(3)).matrix(1)
    # only the e3 column is nonzero: d e3 = -e1^e2
    assert m.column(0) == (0, 0, 0)
    assert m.column(1) == (0, 0, 0)
    assert m.column(2) == (-1, 0, 0)


def test_sol3_twisted_degree_two_matrix(sol3):
    m = differential_matrices(sol3, one_form(1, 0, 0)).matrix(2)
    # columns ordered (1,2), (1,3), (2,3); only e2^e3 maps onto the top form
    assert m.column(0) == (0,)
    assert m.column(1) == (0,)
    assert m.column(2) == (1,)


def test_twisted_complexes_compose_to_zero(heisenberg3, sol3, euclid3):
    for g, omega in [
        (heisenberg3, one_form(2, -1, 0)),
        (sol3, one_form(Fraction(-1, 2), 0, 0)),
        (euclid3, one_form(3, 0, 0)),
    ]:
        mats = differential_matrices(g, omega)
        for p in range(g.dim - 1):
            assert matrix_product(mats.matrix(p + 1), mats.matrix(p)).is_zero()


def test_coords_roundtrip():
    rng = random.Random(61)
    for _ in range(30):
        n = rng.randint(1, 5)
        p = rng.randint(0, n)
        xi = random_form(rng, n, p)
        assert coords_to_form(n, p, form_to_coords(xi)) == xi


def test_kernel_of_twisted_degree_one_matrix(sol3):
    from liecohom.linalg import kernel_basis

    m = differential_matrices(sol3, one_form(1, 0, 0)).matrix(1)
    basis = kernel_basis(m)
    # the kernel is spanned by e1 and e2 in coordinates
    assert basis == [(1, 0, 0), (0, 1, 0)]


def test_preimage_of_heisenberg_two_form(heisenberg3):
    from liecohom.linalg import in_image

    m = differential_matrices(heisenberg3, OneForm.zero(3)).matrix(1)
    # d e3 = -e1^e2, so -e1^e2 pulls back to e3
    assert in_image(m, (-1, 0, 0)) == (0, 0, 1)


# --- direct assembly against the reference differential ---


ALGEBRAS = {
    "abelian4": lambda: load_example("abelian", n=4).algebra,
    "heisenberg3": lambda: load_example("heisenberg3").algebra,
    "sol3": lambda: load_example("sol3", k=Fraction(-3, 2)).algebra,
    "sol3_7/3": lambda: load_example("sol3", k=Fraction(7, 3)).algebra,
    "euclid3": lambda: load_example("euclid3").algebra,
    "diag5": lambda: diag(5),
    "heisenberg5": heisenberg5,
}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(ALGEBRAS)), st.booleans(), st.integers(0, 2**32 - 1))
def test_assembled_columns_match_deformed_differential(name, rebased, seed):
    rng = random.Random(seed)
    g = ALGEBRAS[name]()
    if rebased:
        g = change_basis(g, random_invertible(g.dim, rng))
    terms = [(Fraction(rng.randint(-3, 3), rng.randint(1, 4)), b)
             for b in closed_one_forms(g).basis]
    omega = OneForm([sum((c * b[i] for c, b in terms), Fraction(0)) for i in range(g.dim)])
    mats = differential_matrices(g, omega)
    n = g.dim
    for p in range(n):
        m = mats.matrix(p)
        # entries that cancel during assembly are dropped, never stored as zeros
        assert all(x != 0 for r in m._rows for x in r.values())
        for col, idx in enumerate(form_basis(n, p)):
            image = reference_differential(g, omega, ExteriorForm.basis(n, idx))
            assert m.column(col) == form_to_coords(image)
        if p + 1 < n:
            assert matrix_product(mats.matrix(p + 1), m).is_zero()


ORACLE_ALGEBRAS = {
    **ALGEBRAS,
    "abelian3": lambda: load_example("abelian", n=3).algebra,
    "k2": k2,
    "rational": rational_sol3_plane,
}


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(ORACLE_ALGEBRAS)), st.booleans(), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_is_closed_agrees_with_the_derived_subalgebra(name, rebased, perturbed, seed):
    """is_closed against an independent route through Subspace and linalg: w is
    closed exactly when it kills a basis of [g, g]. The forms combine the closed
    forms over denominators 7, 9, 11 and 13, which divide no L here, perturbed
    or not; betti_numbers and the tables refuse exactly the forms is_closed calls
    open."""
    rng = random.Random(seed)
    g = ORACLE_ALGEBRAS[name]()
    if rebased:
        g = change_basis(g, random_invertible(g.dim, rng))
    omega = sum((b.scale(Fraction(rng.randint(-4, 4), rng.choice((1, 7, 9, 11, 13))))
                 for b in map(OneForm, closed_one_forms(g).basis)), OneForm.zero(g.dim))
    if perturbed:
        omega = omega + OneForm([Fraction(rng.randint(-2, 2), rng.choice((1, 5)))
                                 if rng.random() < 0.5 else 0 for _ in range(g.dim)])
    closed = all(omega.evaluate(v) == 0 for v in derived_subalgebra(g).basis)
    assert is_closed(g, omega) is closed
    for query in (betti_numbers, _differential_tables):
        if closed:
            query(g, omega)
        else:
            with pytest.raises(NonClosedFormError):
                query(g, omega)


# --- the mask kernel against the tuple kernel it replaced ---


def random_table(rng, n):
    """A random bracket table on n generators with rational constants, Jacobi
    not asked for, that no bracket lands on the indices ``free``: every w on
    them is closed."""
    free = set(rng.sample(range(n), rng.randint(0, n)))
    hit = [m for m in range(n) if m not in free]
    brackets = {}
    for i, j in rng.sample(list(combinations(range(1, n + 1), 2)), min(comb(n, 2), 2 * n)):
        v = [0] * n
        for m in rng.sample(hit, min(len(hit), rng.randint(1, 3))):
            v[m] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        brackets[(i, j)] = v
    g = unchecked_algebra(n, {key: v for key, v in brackets.items() if any(v)})
    return g, OneForm([Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if m in free else 0
                       for m in range(n)])


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 9), st.sampled_from(["table", "rebased"]), st.integers(0, 2**32 - 1))
def test_mask_image_rows_equal_the_tuple_reference(n, kind, seed):
    """Every image row, entries and their order, at lam = p / q: q gens and p
    wedge terms, as a scan rescales them, on random rational tables and on
    diag n and h_5 in a random_invertible basis scaled by 1 / d, twisted by
    a random closed form."""
    rng = random.Random(seed)
    if kind == "table":
        g, omega = random_table(rng, n)
    else:
        g = heisenberg5() if n == 5 else diag(n)
        g = change_basis(g, random_invertible(g.dim, rng).scale(Fraction(1, rng.randint(1, 3))))
        omega = sum((b.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                     for b in map(OneForm, closed_one_forms(g).basis)), OneForm.zero(g.dim))
    p, q = rng.choice([(1, 1), (0, 1), (-2, 3), (5, 2)])
    _, wedge_terms, scale = _differential_tables(g, omega)
    tables = (_gens_at(g, q * scale), [(m, b, p * c) for m, b, c in wedge_terms], q * scale)
    reference = tuple_tables(g, omega, p, q)
    assert tables[2] == reference[2]
    for d in range(g.dim + 1):
        sources = form_basis(g.dim, d)
        targets = form_basis(g.dim, d + 1)[::-1]
        masks = [[sum(1 << i for i in idx) for idx in basis] for basis in (sources, targets)]
        assert [mask_indices(m) for m in masks[1]] == targets
        col_of = {idx: c for c, idx in enumerate(targets)}
        expected = [[(col_of[t], x) for t, x in tuple_monomial_image(idx, *reference[:2]).items()
                     if x] for idx in sources]
        assert [list(row.items()) for row in _image_rows(*masks, tables)] == expected
