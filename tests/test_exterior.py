import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecohom import (
    ExteriorForm,
    NonClosedFormError,
    OneForm,
    ce_differential,
    change_basis,
    closed_one_forms,
    deformed_differential,
    differential_matrices,
    is_closed,
    load_example,
    wedge,
)
from liecohom.algebra import random_invertible
from liecohom.exterior import coords_to_form, form_basis, form_to_coords, sort_sign

from conftest import diag, heisenberg5, one_form, unchecked_algebra


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
    rng = random.Random(47)
    for g in (heisenberg3, sol3, euclid3):
        for _ in range(25):
            p, q = rng.randint(0, 2), rng.randint(0, 2)
            a, b = random_form(rng, 3, p), random_form(rng, 3, q)
            lhs = ce_differential(g, wedge(a, b))
            rhs = (wedge(ce_differential(g, a), b)
                   + wedge(a, ce_differential(g, b)).scale((-1) ** p))
            assert lhs == rhs


def test_d_squared_zero_iff_jacobi(heisenberg3, sol3, euclid3, sl2):
    for g in (heisenberg3, sol3, euclid3, sl2):
        for p in range(g.dim):
            for idx in form_basis(g.dim, p):
                assert ce_differential(g, ce_differential(g, e(g.dim, *idx))).is_zero()
    # the documented Jacobi violation makes d fail to square to zero on
    # degree-one generators
    broken = unchecked_algebra(3, {(1, 2): (1, 0, 0), (1, 3): (0, 0, 1)})
    dd = [ce_differential(broken, ce_differential(broken, e(3, j)))
          for j in (1, 2, 3)]
    assert any(not f.is_zero() for f in dd)


def test_deformed_reduces_to_plain_for_zero_form(sol3):
    rng = random.Random(53)
    zero = OneForm.zero(3)
    for _ in range(20):
        xi = random_form(rng, 3, rng.randint(0, 3))
        assert deformed_differential(sol3, zero, xi) == ce_differential(sol3, xi)


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
            assert (mats.matrix(p + 1) @ mats.matrix(p)).is_zero()


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


# --- direct assembly against the per-form differential ---


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
            image = deformed_differential(g, omega, ExteriorForm.basis(n, idx))
            assert m.column(col) == form_to_coords(image)
        if p + 1 < n:
            assert (mats.matrix(p + 1) @ m).is_zero()
