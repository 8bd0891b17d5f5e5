import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liecohom import (
    ExteriorForm,
    LieAlgebra,
    NonClosedFormError,
    OneForm,
    adapted_basis,
    betti_numbers,
    change_basis,
    closed_one_forms,
    cohomology,
    deformed_differential,
    differential_matrices,
    euler_characteristic,
    is_coboundary,
    is_cocycle,
    load_example,
    omega_set,
    pullback_one_form,
    representatives,
)
from liecohom.algebra import random_invertible
from liecohom.cohomology import _cleared_ranks
from liecohom.exterior import form_basis, form_to_coords
from liecohom.linalg import RationalMatrix, kernel_basis, rank, unit_vector

from conftest import closed_grid, diag, heisenberg5, k2, one_form, sequential_extend


def e(dim, *indices):
    return ExteriorForm.basis(dim, indices)


def same_span_mod_image(g, omega, p, given, expected):
    """Both families span the same space modulo exact forms, independently."""
    mats = differential_matrices(g, omega)
    image = []
    if p > 0:
        below = mats.matrix(p - 1)
        image = [list(below.column(j)) for j in range(below.cols)]
    base_rank = rank(RationalMatrix.from_columns(image)) if image else 0

    def stacked_rank(forms):
        cols = image + [list(form_to_coords(f)) for f in forms]
        return rank(RationalMatrix.from_columns(cols))

    ra = stacked_rank(given)
    rb = stacked_rank(expected)
    rab = stacked_rank(list(given) + list(expected))
    return (ra == rb == rab
            and ra - base_rank == len(given) == len(expected))


@pytest.mark.parametrize("name,params,omega,expected", [
    ("heisenberg3", {}, (0, 0, 0), [1, 2, 2, 1]),
    ("heisenberg3", {}, (1, 0, 0), [0, 0, 0, 0]),
    ("sol3", {"k": 1}, (1, 0, 0), [0, 1, 1, 0]),
    ("sol3", {"k": 1}, (-1, 0, 0), [0, 1, 1, 0]),
    ("sol3", {"k": 1}, (0, 0, 0), [1, 1, 1, 1]),
    ("sol3", {"k": 1}, (2, 0, 0), [0, 0, 0, 0]),
    ("euclid3", {}, (0, 0, 0), [1, 1, 1, 1]),
    ("abelian", {"n": 2}, (0, 0), [1, 2, 1]),
])
def test_betti_regressions(name, params, omega, expected):
    g = load_example(name, **params).algebra
    assert betti_numbers(g, one_form(*omega)) == expected


def test_betti_requires_closed_form(heisenberg3):
    with pytest.raises(NonClosedFormError):
        betti_numbers(heisenberg3, one_form(0, 0, 1))


def test_representatives_sol3_match_known_classes(sol3):
    assert same_span_mod_image(sol3, one_form(1, 0, 0), 1,
                               representatives(sol3, one_form(1, 0, 0), 1),
                               [e(3, 2)])
    assert same_span_mod_image(sol3, one_form(1, 0, 0), 2,
                               representatives(sol3, one_form(1, 0, 0), 2),
                               [e(3, 1, 2)])
    assert same_span_mod_image(sol3, one_form(-1, 0, 0), 2,
                               representatives(sol3, one_form(-1, 0, 0), 2),
                               [e(3, 1, 3)])


def test_representatives_heisenberg_degree_two(heisenberg3):
    zero = OneForm.zero(3)
    reps = representatives(heisenberg3, zero, 2)
    assert same_span_mod_image(heisenberg3, zero, 2, reps,
                               [e(3, 1, 3), e(3, 2, 3)])


def test_representatives_are_cocycles_not_coboundaries(heisenberg3, sol3, euclid3):
    cases = [
        (heisenberg3, OneForm.zero(3)),
        (sol3, one_form(1, 0, 0)),
        (sol3, one_form(-1, 0, 0)),
        (euclid3, OneForm.zero(3)),
    ]
    # a random change of basis makes the kernels dense
    rng = random.Random(79)
    for g, omegas in [(heisenberg5(), [OneForm.zero(5)]),
                      (diag(5), [one_form(c, 0, 0, 0, 0) for c in (0, 1, 3, 6)])]:
        m = random_invertible(g.dim, rng)
        cases += [(change_basis(g, m), pullback_one_form(w, m)) for w in omegas]
    for g, omega in cases:
        result = cohomology(g, omega)
        mats = differential_matrices(g, omega)
        for p, reps in enumerate(result.representatives):
            assert len(reps) == result.betti[p]
            for r in reps:
                assert is_cocycle(g, omega, r)
                assert is_coboundary(g, omega, r) is None
            image = []
            if p > 0:
                below = mats.matrix(p - 1)
                image = [below.column(j) for j in range(below.cols)]
            coords = [form_to_coords(r) for r in reps]
            # independent modulo the image, and the greedy choice over the kernel basis
            assert (rank(RationalMatrix.from_columns(image + coords))
                    == rank(RationalMatrix.from_columns(image)) + len(reps))
            assert coords == sequential_extend(
                image, kernel_basis(mats.matrix(p)), comb(g.dim, p))


def test_representatives_deterministic(sol3):
    omega = one_form(1, 0, 0)
    first = [representatives(sol3, omega, p) for p in range(4)]
    second = [representatives(sol3, omega, p) for p in range(4)]
    assert first == second


def test_betti_matches_kernel_minus_image_rank(sol3):
    omega = one_form(1, 0, 0)
    mats = differential_matrices(sol3, omega)
    betti = betti_numbers(sol3, omega)
    for p in range(4):
        ker = comb(3, p) - rank(mats.matrix(p))
        img = rank(mats.matrix(p - 1)) if p > 0 else 0
        assert betti[p] == ker - img


def test_coboundary_roundtrip_random(heisenberg3, sol3):
    rng = random.Random(71)
    for g, omega in [(heisenberg3, OneForm.zero(3)), (sol3, one_form(1, 0, 0))]:
        for _ in range(20):
            p = rng.randint(0, 2)
            eta = ExteriorForm(3, p, {
                idx: Fraction(rng.randint(-2, 2)) for idx in form_basis(3, p)
            })
            xi = deformed_differential(g, omega, eta)
            primitive = is_coboundary(g, omega, xi)
            assert primitive is not None
            assert deformed_differential(g, omega, primitive) == xi


def test_coboundary_known_primitive(heisenberg3):
    primitive = is_coboundary(heisenberg3, OneForm.zero(3), e(3, 1, 2))
    assert primitive == e(3, 3).scale(-1)


def test_coboundary_rejects_nontrivial_class(sol3):
    assert is_coboundary(sol3, one_form(1, 0, 0), e(3, 1, 2)) is None


def test_euler_characteristic_is_zero_everywhere(heisenberg3, sol3, euclid3, abelian2):
    for g in (heisenberg3, sol3, euclid3, abelian2):
        for omega in closed_grid(g):
            result = cohomology(g, omega)
            assert euler_characteristic(result) == 0


def test_euler_characteristic_examples(heisenberg3, sol3):
    assert euler_characteristic(cohomology(heisenberg3, OneForm.zero(3))) == 0
    assert euler_characteristic(cohomology(sol3, one_form(1, 0, 0))) == 0
    one = load_example("abelian", n=1).algebra
    assert betti_numbers(one, OneForm.zero(1)) == [1, 1]
    assert euler_characteristic(cohomology(one, OneForm.zero(1))) == 0


def test_b0_detects_zero_twist(heisenberg3, sol3, euclid3):
    for g in (heisenberg3, sol3, euclid3):
        for omega in closed_grid(g, -1, 1):
            b0 = betti_numbers(g, omega)[0]
            assert b0 == (1 if omega.is_zero() else 0)


def test_betti_invariant_under_basis_change(heisenberg3, sol3, euclid3, abelian2):
    rng = random.Random(73)
    for g in (heisenberg3, sol3, euclid3, abelian2):
        omegas = closed_grid(g, -1, 1)
        for _ in range(4):
            m = random_invertible(g.dim, rng)
            h = change_basis(g, m)
            for omega in omegas:
                assert betti_numbers(h, pullback_one_form(omega, m)) \
                    == betti_numbers(g, omega)


def trace_form(g):
    """theta(x) = tr ad x; zero exactly on unimodular algebras."""
    return OneForm([g.ad(unit_vector(g.dim, j)).trace() for j in range(g.dim)])


def test_poincare_duality_on_unimodular_entries(heisenberg3, sol3, euclid3, abelian2, affine2):
    """Twisted duality b^p_w = b^(n-p)_(theta - w); theta = 0 when unimodular."""
    cases = [(g, closed_grid(g)) for g in (heisenberg3, sol3, euclid3, abelian2)]
    rng = random.Random(83)
    for g in (affine2, diag(3), diag(4)):
        m = random_invertible(g.dim, rng)
        omegas = closed_grid(g)
        cases += [(g, omegas), (change_basis(g, m), [pullback_one_form(w, m) for w in omegas])]
    for g, omegas in cases:
        theta = trace_form(g)
        for omega in omegas:
            left = betti_numbers(g, omega)
            right = betti_numbers(g, theta - omega)
            assert left == right[::-1]


SOLVABLE = {
    "abelian2": lambda: load_example("abelian", n=2).algebra,
    "affine2": lambda: LieAlgebra.from_brackets(2, {(1, 2): (0, 1)}),
    "heisenberg3": lambda: load_example("heisenberg3").algebra,
    "sol3": lambda: load_example("sol3", k=1).algebra,
    "euclid3": lambda: load_example("euclid3").algebra,
    "diag5": lambda: diag(5),
    "heisenberg5": heisenberg5,
}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(SOLVABLE)), st.integers(0, 2**32 - 1))
def test_betti_numbers_are_basis_invariant(name, seed):
    rng = random.Random(seed)
    g = SOLVABLE[name]()
    terms = [(rng.randint(-3, 3), b) for b in closed_one_forms(g).basis]
    omega = OneForm([sum((c * b[i] for c, b in terms), Fraction(0)) for i in range(g.dim)])
    m = random_invertible(g.dim, rng)
    betti = betti_numbers(g, omega)
    assert betti_numbers(change_basis(g, m), pullback_one_form(omega, m)) == betti
    assert cohomology(g, omega).betti == tuple(betti)
    assert sum((-1) ** p * b for p, b in enumerate(betti)) == 0


# --- clearing and the vanishing theorem, off the standard bases ---

# the solvable test algebras adapted_basis accepts; euclid3 is solvable but
# its rotation has no rational eigenvalue, so it has no exceptional set here
TRIANGULARIZABLE = {name: SOLVABLE[name] for name in SOLVABLE if name != "euclid3"}
TRIANGULARIZABLE["k2"] = k2


def rebased_with_form(name, seed):
    """A random basis change of the named algebra and a random closed form on it."""
    rng = random.Random(seed)
    g = TRIANGULARIZABLE[name]()
    g = change_basis(g, random_invertible(g.dim, rng))
    terms = [(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), b)
             for b in closed_one_forms(g).basis]
    omega = OneForm([sum((c * b[i] for c, b in terms), Fraction(0)) for i in range(g.dim)])
    return g, omega, rng


@settings(max_examples=90, deadline=None)
@given(st.sampled_from(sorted(TRIANGULARIZABLE)),
       st.sampled_from(["zero", "critical", "generic"]), st.integers(0, 2**32 - 1))
def test_cleared_ranks_equal_plain_ranks(name, kind, seed):
    g, omega, rng = rebased_with_form(name, seed)
    if kind == "zero":
        omega = OneForm.zero(g.dim)
    elif kind == "critical":
        # -w in the exceptional set: the twisted cohomology may survive
        omega = -rng.choice(omega_set(adapted_basis(g)).sorted_elements())
    plain = [rank(m) for m in differential_matrices(g, omega).matrices]
    assert _cleared_ranks(g, omega) == plain


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(TRIANGULARIZABLE)), st.integers(0, 2**32 - 1))
def test_cohomology_vanishes_off_the_exceptional_set(name, seed):
    g, omega, _ = rebased_with_form(name, seed)
    assume(-omega not in omega_set(adapted_basis(g)))
    assert betti_numbers(g, omega) == [0] * (g.dim + 1)
