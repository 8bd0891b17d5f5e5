import importlib
import random
import time
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from liecohom import (
    ExteriorForm,
    LieAlgebra,
    NonClosedFormError,
    OneForm,
    StructureError,
    Subspace,
    adapted_basis,
    betti_numbers,
    ce_differential,
    change_basis,
    classify,
    closed_one_forms,
    cohomology,
    deformed_differential,
    derived_subalgebra,
    differential_matrices,
    euler_characteristic,
    is_closed,
    is_coboundary,
    is_cocycle,
    is_unimodular,
    load_example,
    novikov_report,
    omega_set,
    pullback_one_form,
    r0_spectrum,
    representatives,
    scan_line,
    validate_lie_algebra,
    vanishing_predicate,
    wedge,
    weight_sum_check,
)
from liecohom.algebra import _inner_diagonal, random_invertible
from liecohom.cohomology import _binomials, _cleared_walk, _components, _live_monomials
from liecohom.exterior import _differential_tables, form_basis
from liecohom.linalg import (RationalMatrix, extend_independent, in_image, invert, kernel_basis,
                             rank, solve, span_basis, unit_vector)
from liecohom.serialization import parse_algebra
from liecohom.weights import WeightData

from conftest import (
    closed_grid,
    coords_to_form,
    diag,
    form_to_coords,
    heisenberg5,
    identity,
    k2,
    mask_indices,
    one_form,
    rational_sol3_plane,
    reference_differential,
    sequential_extend,
    trace_form,
    two_elimination_representatives,
    unchecked_algebra,
)


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


RATIONAL = rational_sol3_plane()


def rational_forms():
    """The zero form, every critical form and a generic closed form with
    fractional coefficients on ``RATIONAL``."""
    critical = [-w for w in omega_set(adapted_basis(RATIONAL)).sorted_elements()
                if not w.is_zero()]
    b1, b2, b3 = closed_one_forms(RATIONAL).basis
    generic = OneForm([Fraction(2, 3) * x - Fraction(5, 7) * y + Fraction(1, 2) * z
                       for x, y, z in zip(b1, b2, b3)])
    return [OneForm.zero(5)] + critical + [generic]


def test_rational_constants_have_the_stated_denominators():
    assert {c.denominator for _, v in RATIONAL.brackets for c in v} == {1, 2, 31, 62}
    assert betti_numbers(RATIONAL, OneForm.zero(5)) == [1, 3, 4, 4, 3, 1]


def test_coboundary_roundtrip_random(heisenberg3, sol3):
    rng = random.Random(71)
    cases = [(heisenberg3, OneForm.zero(3)), (sol3, one_form(1, 0, 0))]
    for g, omega in cases + [(RATIONAL, w) for w in rational_forms()]:
        for _ in range(20):
            p = rng.randint(0, g.dim - 1)
            eta = ExteriorForm(g.dim, p, {
                idx: Fraction(rng.randint(-2, 2)) for idx in form_basis(g.dim, p)
            })
            xi = deformed_differential(g, omega, eta)
            primitive = is_coboundary(g, omega, xi)
            assert primitive is not None
            assert deformed_differential(g, omega, primitive) == xi


def coboundary_cases():
    """``RATIONAL`` at ``rational_forms``; h_5 and diag 5 in a random basis; a
    twisted center; sol3(7/3) + Q^2 in its given basis at a critical form."""
    for i, omega in enumerate(rational_forms()):
        yield pytest.param(RATIONAL, omega, id=f"omega{i}")
    m = random_invertible(5, random.Random(1))
    for name, g, omega in (("h5", heisenberg5(), one_form(1, 0, 0, 0, 0)),
                           ("diag5", diag(5), one_form(3, 0, 0, 0, 0))):
        h = change_basis(g, m)
        yield pytest.param(h, OneForm.zero(5), id=f"{name}-rebased-zero")
        yield pytest.param(h, pullback_one_form(omega, m), id=f"{name}-rebased-twisted")
    yield pytest.param(LieAlgebra.from_brackets(4, {}), one_form(0, 0, 0, 1), id="abelian4-e4")
    k = Fraction(7, 3)
    plane = LieAlgebra.from_brackets(5, {(1, 2): (0, k, 0, 0, 0), (1, 3): (0, 0, -k, 0, 0)})
    yield pytest.param(plane, one_form(k, 0, 0, 0, 0), id="sol3+Q2-critical")


@pytest.mark.parametrize("g,omega", coboundary_cases())
def test_coboundary_is_the_minimal_pivot_preimage(g, omega):
    rng = random.Random(5)
    n, mats = g.dim, differential_matrices(g, omega)
    # up to one degree above the top, where every form is zero
    for p in range(1, n + 2):
        for kind in ("exact", "inexact", "zero"):
            if kind == "exact":
                eta = ExteriorForm(n, p - 1, {idx: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                              for idx in form_basis(n, p - 1)})
                xi = deformed_differential(g, omega, eta)
            elif kind == "inexact":
                xi = ExteriorForm(n, p, {idx: Fraction(rng.randint(-3, 3))
                                         for idx in form_basis(n, p)})
            else:
                xi = ExteriorForm.zero(n, p)
            sol = in_image(mats.matrix(p - 1), form_to_coords(xi))
            expected = None if sol is None else coords_to_form(n, p - 1, sol)
            assert is_coboundary(g, omega, xi) == expected
            if kind != "inexact":
                assert expected is not None


def test_coboundary_known_primitive(heisenberg3):
    primitive = is_coboundary(heisenberg3, OneForm.zero(3), e(3, 1, 2))
    assert primitive == e(3, 3).scale(-1)


def test_coboundary_rejects_nontrivial_class(sol3):
    assert is_coboundary(sol3, one_form(1, 0, 0), e(3, 1, 2)) is None


def test_coboundary_edge_cases(sol3, heisenberg3):
    omega = one_form(1, 0, 0)
    with pytest.raises(ValueError, match="form dimension does not match the algebra"):
        is_coboundary(sol3, omega, e(4, 1, 2))
    # above the top degree every form is zero, and so is its primitive
    for p in (4, 5, 7):
        assert is_coboundary(sol3, omega, ExteriorForm.zero(3, p)) == ExteriorForm.zero(3, p - 1)
    assert is_coboundary(sol3, omega, ExteriorForm.scalar(3, 2)) is None
    with pytest.raises(NonClosedFormError):
        is_coboundary(heisenberg3, one_form(0, 0, 1), ExteriorForm.scalar(3, 1))


def test_representatives_degree_out_of_range(sol3):
    omega = one_form(1, 0, 0)
    queries = (lambda p: representatives(sol3, omega, p),
               lambda p: r0_spectrum(adapted_basis(sol3), omega, p),
               lambda p: differential_matrices(sol3, omega).matrix(p))
    for query in queries:
        for p in (-1, 4):
            with pytest.raises(ValueError, match="out of range 0..3"):
                query(p)
        # a bool, a float or a string is not a degree, not even when it equals one
        for p in (True, 1.0, "1"):
            with pytest.raises(StructureError, match="degree must be an integer"):
                query(p)


SOL3_ENTRY = load_example("sol3", k=1)
TWISTED_QUERIES = {
    "betti_numbers": lambda g, w, xi: betti_numbers(g, w),
    "cohomology": lambda g, w, xi: cohomology(g, w),
    "representatives": lambda g, w, xi: representatives(g, w, 1),
    "is_cocycle": is_cocycle,
    "is_coboundary": is_coboundary,
}
# (argument position, wrong value): the algebra, the one-form, the form
WRONG_ARGUMENTS = {"g=entry": (0, SOL3_ENTRY), "g=None": (0, None),
                   "omega=tuple": (1, (1, 0, 0)), "omega=None": (1, None),
                   "xi=tuple": (2, (0, 1, 0)), "xi=None": (2, None),
                   "xi=OneForm": (2, OneForm((0, 1, 0)))}
SOL3_DATA = adapted_basis(SOL3_ENTRY.algebra)
# the weight layer: query -> (function, valid arguments, the names of the
# leading ones, each of which is replaced by a string in turn)
WEIGHT_QUERIES = {
    "adapted_basis": (adapted_basis, [SOL3_ENTRY.algebra], ["g"]),
    "omega_set": (omega_set, [SOL3_DATA], ["data"]),
    "weight_sum_check": (weight_sum_check, [SOL3_DATA], ["data"]),
    "is_unimodular": (is_unimodular, [SOL3_ENTRY.algebra], ["g"]),
    "vanishing_predicate": (vanishing_predicate, [SOL3_DATA, one_form(1, 0, 0)],
                            ["data", "omega"]),
    "r0_spectrum": (r0_spectrum, [SOL3_DATA, one_form(1, 0, 0), 1], ["data", "omega"]),
    "scan_line": (scan_line, [SOL3_ENTRY.algebra, one_form(1, 0, 0)], ["g", "direction"]),
    "novikov_report": (novikov_report, [SOL3_ENTRY.algebra, one_form(1, 0, 0), 1, [0, 1, 1, 0]],
                       ["g", "omega"]),
}

IDENTITY3 = identity(3)


class MyInt(int):
    """An int subclass: refused where an int is read, as bool is."""


# the other public functions that read attributes of their arguments
OTHER_WRONG_CALLS = {
    "ce_differential-g=None": (ce_differential, [None, e(3, 2)]),
    "change_basis-m=list": (change_basis, [SOL3_ENTRY.algebra, IDENTITY3.to_rows()]),
    "change_basis-g=str": (change_basis, ["x", IDENTITY3]),
    "pullback_one_form-omega=tuple": (pullback_one_form, [(1, 0, 0), IDENTITY3]),
    "pullback_one_form-m=list": (pullback_one_form, [one_form(1, 0, 0), IDENTITY3.to_rows()]),
    "classify-g=str": (classify, ["x"]),
    "derived_subalgebra-g=None": (derived_subalgebra, [None]),
    "closed_one_forms-g=None": (closed_one_forms, [None]),
    "is_closed-g=None": (is_closed, [None, one_form(1, 0, 0)]),
    "is_closed-omega=tuple": (is_closed, [SOL3_ENTRY.algebra, (1, 0, 0)]),
    "wedge-b=int": (wedge, [e(3, 2), 1]),
    "wedge-a=OneForm": (wedge, [one_form(1, 0, 0), e(3, 2)]),
    "euler_characteristic-result=tuple": (euler_characteristic, [(1, 1, 0)]),
    "rank-M=None": (rank, [None]),
    "kernel_basis-M=None": (kernel_basis, [None]),
    "in_image-M=list": (in_image, [[[1]], [1]]),
    "invert-M=list": (invert, [[[1]]]),
    "solve-M=list": (solve, [[[1]], [[1]]]),
    "bracket_basis-i=0": (SOL3_ENTRY.algebra.bracket_basis, [0, 1]),
    "from_brackets-names=str": (LieAlgebra.from_brackets, [2, {}, "ab"]),
    "from_brackets-names=bytes": (LieAlgebra.from_brackets, [2, {}, b"ab"]),
    "from_brackets-names=int": (LieAlgebra.from_brackets, [2, {}, 2]),
    "from_brackets-names=ints": (LieAlgebra.from_brackets, [2, {}, [1, 2]]),
    "from_brackets-names=dict": (LieAlgebra.from_brackets, [2, {}, {"a": 1, "b": 2}]),
    "from_brackets-names=bytearray": (LieAlgebra.from_brackets, [2, {}, bytearray(b"ab")]),
    "from_brackets-dim=int subclass": (LieAlgebra.from_brackets, [MyInt(2), {}]),
    "load_example-n=int subclass": (partial(load_example, n=MyInt(3)), ["abelian"]),
    "getitem-i=True": (IDENTITY3.__getitem__, [(True, 0)]),
    "getitem-j=True": (IDENTITY3.__getitem__, [(0, True)]),
    "getitem-i=float": (IDENTITY3.__getitem__, [(0.5, 0)]),
    "row-i=True": (IDENTITY3.row, [True]),
    "row-i=float": (IDENTITY3.row, [1.0]),
    "column-j=True": (IDENTITY3.column, [True]),
    "column-j=float": (IDENTITY3.column, [1.0]),
    "parse_algebra-text=None": (parse_algebra, [None]),
    "parse_algebra-text=dict": (parse_algebra, [{"dim": 1}]),
    "WeightData-adapted_change=None": (WeightData, [None, (), 0]),
    "WeightData-weights=list": (WeightData, [identity(1), [OneForm((0,))], 0]),
    "WeightData-weight=None": (WeightData, [identity(1), (None,), 0]),
    "WeightData-k=str": (WeightData, [identity(1), (OneForm((0,)),), "0"]),
    "getitem-key=int": (IDENTITY3.__getitem__, [0]),
    "getitem-key=triple": (IDENTITY3.__getitem__, [(0, 0, 0)]),
    "from_rows-entries=None": (RationalMatrix.from_rows, [None]),
    "from_columns-columns=None": (RationalMatrix.from_columns, [None]),
    "RationalMatrix-entries=int": (RationalMatrix, [2, 2, 5]),
    "coefficient-indices=None": (ExteriorForm(3, 1).coefficient, [None]),
    "coefficient-indices=int": (ExteriorForm(3, 1).coefficient, [5]),
    "from_brackets-brackets=None": (LieAlgebra.from_brackets, [3, None]),
    "validate_lie_algebra-brackets=None": (validate_lie_algebra, [3, None]),
    "from_brackets-brackets=list": (LieAlgebra.from_brackets, [3, [((1, 2), (0, 0, 1))]]),
    "basis-indices=None": (ExteriorForm.basis, [3, None]),
    "basis-indices=int": (ExteriorForm.basis, [3, 5]),
    "Subspace.span-vectors=None": (Subspace.span, [3, None]),
    # a mapping iterates over its keys only
    "RationalMatrix-entries=dict": (RationalMatrix, [1, 2, {(1, 2): 0}]),
    "from_rows-entries=dict": (RationalMatrix.from_rows, [{(3, 4): 1}]),
    "span_basis-vectors=dict": (span_basis, [{(1, 0): "x"}, 2]),
    "OneForm-coeffs=dict": (OneForm, [{1: 2, 3: 4}]),
    "basis-indices=dict": (ExteriorForm.basis, [3, {1: 0, 2: 0}]),
    "coefficient-index=float": (ExteriorForm(3, 1, {(2,): 1}).coefficient, [(2.0,)]),
    "coefficient-index=True": (ExteriorForm(3, 1, {(1,): 1}).coefficient, [(True,)]),
}


def wrong_argument_calls():
    for query, call in TWISTED_QUERIES.items():
        for label, (position, value) in WRONG_ARGUMENTS.items():
            if position < 2 or query.startswith("is_"):
                args = [SOL3_ENTRY.algebra, one_form(1, 0, 0), e(3, 2)]
                args[position] = value
                yield pytest.param(call, args, id=f"{query}-{label}")
    for query, (call, valid, names) in WEIGHT_QUERIES.items():
        for position, name in enumerate(names):
            args = list(valid)
            args[position] = "x"
            yield pytest.param(call, args, id=f"{query}-{name}=str")
    for label, (call, args) in OTHER_WRONG_CALLS.items():
        yield pytest.param(call, args, id=label)


@pytest.mark.parametrize("call,args", wrong_argument_calls())
def test_wrong_argument_types_raise_structure_error(call, args):
    with pytest.raises(StructureError):
        call(*args)


# arguments of the right types whose sizes do not fit together
SHAPE_MISMATCHES = {
    "change_basis-m=2x2": (change_basis, [SOL3_ENTRY.algebra, identity(2)]),
    "betti_numbers-omega of length 2": (betti_numbers, [SOL3_ENTRY.algebra, OneForm((1, 0))]),
    "ExteriorForm-dim=-1": (ExteriorForm, [-1, 0]),
    "ExteriorForm-term of degree 1 in degree 2": (ExteriorForm, [3, 2, {(1,): 1}]),
    "ExteriorForm-index 4 in dimension 3": (ExteriorForm, [3, 1, {(4,): 1}]),
    "ExteriorForm-indices not increasing": (ExteriorForm, [3, 2, {(2, 1): 1}]),
    "ExteriorForm-index 7 in dimension 3 at coefficient 0": (ExteriorForm, [3, 1, {(7,): 0}]),
    "coefficient-index 7 in dimension 3": (e(3, 1).coefficient, [(7,)]),
    "coefficient-degree 2 on a form of degree 1": (e(3, 1).coefficient, [(1, 2)]),
    "coefficient-indices not increasing": (e(3, 1, 2).coefficient, [(2, 1)]),
    "ExteriorForm-add degrees 1 and 2": (ExteriorForm.__add__, [e(3, 1), e(3, 1, 2)]),
    "RationalMatrix-1 row of 2": (RationalMatrix, [2, 2, [[1, 2]]]),
    "from_columns-ragged columns": (RationalMatrix.from_columns, [[(1, 2), (1,)]]),
    "apply-vector of length 1": (IDENTITY3.apply, [(1,)]),
    "invert-2x3": (invert, [RationalMatrix(2, 3)]),
    "span_basis-vector of length 2 in 3": (span_basis, [[(1, 2)], 3]),
    "extend_independent-vector of length 2 in 3": (extend_independent, [[], [(1, 2)], 3]),
}


@pytest.mark.parametrize("call,args", [pytest.param(call, args, id=label)
                                       for label, (call, args) in SHAPE_MISMATCHES.items()])
def test_mismatched_shapes_raise_value_error(call, args):
    with pytest.raises(ValueError):
        call(*args)


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


def rebased_case(name, kind, seed):
    """A rebased algebra with the zero form, a critical form or a generic one."""
    g, omega, rng = rebased_with_form(name, seed)
    if kind == "zero":
        omega = OneForm.zero(g.dim)
    elif kind == "critical":
        # -w in the exceptional set: the twisted cohomology may survive
        omega = -rng.choice(omega_set(adapted_basis(g)).sorted_elements())
    return g, omega


rebased_cases = given(st.sampled_from(sorted(TRIANGULARIZABLE)),
                      st.sampled_from(["zero", "critical", "generic"]),
                      st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(TRIANGULARIZABLE)), st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_unimodularity_matches_the_trace_form(name, seed, denominator):
    """is_unimodular and weight_sum_check against sum_i ad(e_j)[i, i], in the
    given basis and in a random one scaled by 1 / denominator, which divides
    the structure constants by it."""
    base = TRIANGULARIZABLE[name]()
    m = random_invertible(base.dim, random.Random(seed)).scale(Fraction(1, denominator))
    for g in (base, change_basis(base, m)):
        unimodular = trace_form(g).is_zero()
        assert is_unimodular(g) == unimodular
        assert weight_sum_check(adapted_basis(g)) == unimodular


def test_unimodularity_without_weight_data(sl2, euclid3):
    g = rational_sol3_plane()
    assert is_unimodular(g) and weight_sum_check(adapted_basis(g)) and trace_form(g).is_zero()
    # no weight data: sl2 is not solvable, euclid3 has no rational eigenvalue
    for g in (sl2, euclid3, change_basis(euclid3, random_invertible(3, random.Random(4)))):
        assert is_unimodular(g) and trace_form(g).is_zero()


@settings(max_examples=90, deadline=None)
@rebased_cases
def test_cleared_ranks_equal_plain_ranks(name, kind, seed):
    g, omega = rebased_case(name, kind, seed)
    mats = differential_matrices(g, omega)
    plain = [rank(mats.matrix(p)) for p in range(g.dim + 1)]
    walk = _cleared_walk(_live_monomials(range(1, g.dim + 1), [], [[]])[0],
                         _differential_tables(g, omega))
    assert [r for _, _, r in walk] == plain


def live_block(g, omega):
    """Per degree, the monomials e^I with a_I(x) = w(x) for every x whose
    ad x is diagonal in the given basis, the center included, by brute force."""
    return [[idx for idx in form_basis(g.dim, p)
             if all(Fraction(sum(a.get(i - 1, 0) for i in idx), g._scale)
                    == sum(omega.coeffs[j] * v for j, v in x.items())
                    for a, x in _inner_diagonal(g))]
            for p in range(g.dim + 1)]


@pytest.mark.parametrize("g,omega", [
    (load_example("heisenberg3").algebra, one_form(0, 0, 0)),
    (load_example("sol3", k=2).algebra, one_form(2, 0, 0)),
    (heisenberg5(), one_form(0, 0, 0, 0, 0)),
    (change_basis(diag(5), random_invertible(5, random.Random(3))), one_form(0, 0, 0, 0, 0)),
    (diag(6), one_form(5, 0, 0, 0, 0, 0)),
])
def test_cohomology_assembles_only_uncleared_monomials(g, omega, monkeypatch):
    """Degree p assembles the live monomials less the rank of d_(p-1) on the
    live block, read off the full matrix restricted to its rows and columns."""
    live = live_block(g, omega)
    mats = differential_matrices(g, omega)
    ranks = [0]
    for p in range(1, g.dim + 1):
        basis, below = form_basis(g.dim, p), form_basis(g.dim, p - 1)
        rows = [[mats.matrix(p - 1)[basis.index(t), below.index(s)] for s in live[p - 1]]
                for t in live[p]]
        ranks.append(rank(RationalMatrix.from_rows(rows)) if rows and live[p - 1] else 0)
    calls = counted_image_rows(monkeypatch)
    result = cohomology(g, omega)
    assert [len(sources) for sources in calls] == [len(live[p]) - ranks[p]
                                                   for p in range(g.dim + 1)]
    assert all(set(sources) <= set(live[p]) for p, sources in enumerate(calls))
    # each case skips something: cleared monomials, or those off the live block
    assert sum(ranks) > 0 or sum(map(len, live)) < 2 ** g.dim
    assert result.betti == tuple(betti_numbers(g, omega))


def assert_greedy_pick(g, omega):
    result = cohomology(g, omega)
    mats = differential_matrices(g, omega)
    for p, reps in enumerate(result.representatives):
        below = mats.matrix(p - 1) if p > 0 else RationalMatrix(comb(g.dim, p), 0)
        image = [below.column(j) for j in range(below.cols)]
        assert [form_to_coords(r) for r in reps] == sequential_extend(
            image, kernel_basis(mats.matrix(p)), comb(g.dim, p))
    assert result.betti == tuple(betti_numbers(g, omega))


@settings(max_examples=60, deadline=None)
@rebased_cases
def test_representatives_are_the_greedy_pick(name, kind, seed):
    assert_greedy_pick(*rebased_case(name, kind, seed))


@pytest.mark.parametrize("omega", rational_forms())
def test_representatives_are_the_greedy_pick_with_rational_constants(omega):
    assert_greedy_pick(RATIONAL, omega)


def heisenberg7():
    top = tuple(int(k == 6) for k in range(7))
    return LieAlgebra.from_brackets(7, {(1, 2): top, (3, 4): top, (5, 6): top})


REPS_ALGEBRAS = {
    "abelian6": lambda: load_example("abelian", n=6).algebra,
    "h7": heisenberg7,
    "diag7": lambda: diag(7),
    "sol3a": lambda: direct_sum(load_example("sol3", k=Fraction(7, 2)).algebra,
                                load_example("abelian", n=3).algebra),
    "two_action": lambda: semidirect([1, 0, 2, -1], [0, 1, 1, 1]),
    # the filter acts on the diag block only
    "diag_h5": lambda: direct_sum(diag(3), change_basis(heisenberg5(),
                                                        random_invertible(5, random.Random(1)))),
}


def term_lists(representatives):
    # the terms in stored order, so that equal forms built differently differ
    return [[list(form.terms.items()) for form in reps] for reps in representatives]


def basis_change(kind, n, rng):
    """The identity, a permutation, a diagonal scaling or a random matrix."""
    if kind == "standard":
        return identity(n)
    if kind == "permuted":
        perm = list(range(n))
        rng.shuffle(perm)
        return RationalMatrix.from_columns([unit_vector(n, j) for j in perm])
    if kind == "scaled":
        return RationalMatrix.from_columns(
            [[Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4)) if i == j else 0
              for i in range(n)] for j in range(n)])
    return random_invertible(n, rng)


@settings(max_examples=40, deadline=None)
@example("diag7", "random", "zero", 1)
@given(st.sampled_from(sorted(REPS_ALGEBRAS)),
       st.sampled_from(["standard", "permuted", "scaled", "random"]),
       st.sampled_from(["zero", "closed", "critical"]), st.integers(0, 2**32 - 1))
def test_representatives_match_the_two_elimination_reference(name, basis, form, seed):
    """Also in the bases where the live filter acts, at critical forms: the
    live walk keeps the representatives of the full one."""
    rng = random.Random(seed)
    g = REPS_ALGEBRAS[name]()
    m = basis_change(basis, g.dim, rng)
    if form == "critical":
        # -w in the exceptional set: the twisted cohomology may survive
        omega = -rng.choice(omega_set(adapted_basis(g)).sorted_elements())
    else:
        omega = sum((b.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                     for b in map(OneForm, closed_one_forms(g).basis) if form == "closed"),
                    OneForm.zero(g.dim))
    g, omega = change_basis(g, m), pullback_one_form(omega, m)
    result = cohomology(g, omega)
    assert term_lists(result.representatives) == term_lists(
        two_elimination_representatives(g, omega))
    if name == "diag7" and basis == "random" and form == "zero":
        # [1, 1, 0, 0, 0, 0, 0, 0]: degrees with no representative are compared too
        assert result.betti[2] == 0


@pytest.mark.parametrize("c,images", [(Fraction(1, 2), 0), (5, 6), (3, 4)])
def test_diag_8_cohomology_builds_no_more_monomial_images_than_betti_numbers(c, images,
                                                                          monkeypatch):
    exterior = importlib.import_module("liecohom.exterior")
    built = []

    def counting(idx, gens, wedge_terms):
        built.append(idx)
        return real(idx, gens, wedge_terms)

    real = exterior._monomial_image
    monkeypatch.setattr(exterior, "_monomial_image", counting)
    g, omega = diag(8), one_form(c, 0, 0, 0, 0, 0, 0, 0)
    betti = betti_numbers(g, omega)
    counts = [len(built)]
    built.clear()
    result = cohomology(g, omega)
    assert counts + [len(built)] == [images, images]
    assert list(result.betti) == betti


@pytest.mark.parametrize("g,omega", [
    (heisenberg5(), one_form(0, 0, 0, 0, 0)),
    (load_example("sol3", k=2).algebra, one_form(2, 0, 0)),
    (change_basis(diag(5), random_invertible(5, random.Random(3))), one_form(0, 0, 0, 0, 0)),
])
def test_cohomology_makes_one_echelon_per_degree_and_no_kernel(g, omega, monkeypatch):
    module = importlib.import_module("liecohom.cohomology")
    linalg = importlib.import_module("liecohom.linalg")
    expected = two_elimination_representatives(g, omega)
    echelons = []

    def counting(rows):
        echelons.append(len(rows))
        return real(rows)

    def refuse(*args):
        raise AssertionError("cohomology() ran a second elimination")

    real = module._echelon
    monkeypatch.setattr(module, "_echelon", counting)
    monkeypatch.setattr(linalg, "_kernel", refuse)
    assert cohomology(g, omega).representatives == expected
    assert len(echelons) == g.dim + 1
    assert not hasattr(module, "_kernel") and not hasattr(module, "RationalMatrix")


def random_rational_form(rng, n, p):
    basis = form_basis(n, p)
    return ExteriorForm(n, p, {idx: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                               for idx in rng.sample(basis, min(4, len(basis)))})


@settings(max_examples=60, deadline=None)
@rebased_cases
def test_deformed_differential_matches_the_reference(name, kind, seed):
    g, omega = rebased_case(name, kind, seed)
    rng = random.Random(seed)
    for p in range(g.dim + 1):
        xi = random_rational_form(rng, g.dim, p)
        assert deformed_differential(g, omega, xi) == reference_differential(g, omega, xi)
        assert ce_differential(g, xi) == reference_differential(g, OneForm.zero(g.dim), xi)


@settings(max_examples=30, deadline=None)
@given(st.integers(-3, 3), st.integers(0, 2**32 - 1))
def test_the_differential_of_a_jacobi_broken_algebra_matches_the_reference(w2, seed):
    # [e1, e2] = e1 and [e1, e3] = e3 fail Jacobi; w2 e^2 still kills both brackets
    broken = unchecked_algebra(3, {(1, 2): (1, 0, 0), (1, 3): (0, 0, 1)})
    omega = one_form(0, w2, 0)
    rng = random.Random(seed)
    for p in range(4):
        xi = random_rational_form(rng, 3, p)
        assert deformed_differential(broken, omega, xi) == reference_differential(broken, omega, xi)
        assert ce_differential(broken, xi) == reference_differential(broken, OneForm.zero(3), xi)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(TRIANGULARIZABLE)), st.integers(0, 2**32 - 1))
def test_cohomology_vanishes_off_the_exceptional_set(name, seed):
    g, omega, _ = rebased_with_form(name, seed)
    assume(-omega not in omega_set(adapted_basis(g)))
    assert betti_numbers(g, omega) == [0] * (g.dim + 1)


# --- Kunneth: Betti numbers of a direct sum from its factors ---

def scaled_diag(n, c):
    # diag n with every bracket times c; a non-integer c gives _scale > 1
    return LieAlgebra.from_brackets(n, {
        (1, j): tuple(c * (j - 1) if m == j - 1 else 0 for m in range(n))
        for j in range(2, n + 1)})


def direct_sum(*factors):
    """The block-diagonal sum of the factors, in the order given."""
    n = sum(f.dim for f in factors)
    brackets, offset = {}, 0
    for f in factors:
        for (i, j), v in f.brackets:
            brackets[i + offset, j + offset] = (0,) * offset + v + (0,) * (n - offset - f.dim)
        offset += f.dim
    return LieAlgebra.from_brackets(n, brackets)


def random_factor(rng):
    """A factor and a closed one-form on it, biased toward critical forms."""
    kind = rng.choice(["abelian", "heisenberg3", "sol3", "diag", "euclid3"])
    if kind == "abelian":
        f = load_example("abelian", n=rng.randint(1, 2)).algebra
    elif kind == "sol3":
        f = load_example("sol3", k=Fraction(rng.choice([1, 2, 3, -5]), rng.randint(1, 4))).algebra
    elif kind == "diag":
        f = scaled_diag(rng.randint(3, 4), Fraction(rng.choice([1, -2, 3]), rng.randint(1, 3)))
    else:
        f = load_example(kind).algebra
    draw = rng.random()
    if draw < 0.3:
        return f, OneForm.zero(f.dim)
    if draw < 0.7 and kind != "euclid3":
        # -w in the exceptional set: the factor's cohomology may survive
        return f, -rng.choice(omega_set(adapted_basis(f)).sorted_elements())
    terms = [(Fraction(rng.randint(-3, 3), rng.randint(1, 2)), b)
             for b in closed_one_forms(f).basis]
    return f, OneForm([sum((c * b[i] for c, b in terms), Fraction(0)) for i in range(f.dim)])


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_factored_betti_numbers_equal_the_full_walk(count, seed):
    rng = random.Random(seed)
    while True:
        pairs = [random_factor(rng) for _ in range(count)]
        if sum(f.dim for f, _ in pairs) <= 8:
            break
    g = direct_sum(*(f for f, _ in pairs))
    omega = OneForm([c for _, w in pairs for c in w.coeffs])
    n = g.dim
    perm = list(range(n))
    rng.shuffle(perm)
    # the block basis; a permutation of it, which interleaves the factors'
    # indices; and a random basis, in which nothing splits
    bases = [RationalMatrix.from_columns([unit_vector(n, j) for j in perm]),
             random_invertible(n, rng)]
    for h, w in [(g, omega)] + [(change_basis(g, m), pullback_one_form(omega, m)) for m in bases]:
        assert betti_numbers(h, w) == list(cohomology(h, w).betti)


@pytest.mark.parametrize("g,omega,expected", [
    (load_example("abelian", n=1).algebra, one_form(0), [1, 1]),
    (load_example("abelian", n=1).algebra, one_form(Fraction(-2, 3)), [0, 0]),
    (direct_sum(scaled_diag(3, Fraction(1, 2)), load_example("abelian", n=1).algebra),
     one_form(0, 0, 0, 0), [1, 2, 1, 0, 0]),
    (direct_sum(scaled_diag(3, Fraction(1, 2)), load_example("abelian", n=1).algebra),
     one_form(Fraction(1, 2), 0, 0, 0), [0, 1, 2, 1, 0]),
    (direct_sum(load_example("sol3", k=Fraction(2, 3)).algebra,
                load_example("heisenberg3").algebra),
     one_form(Fraction(2, 3), 0, 0, 0, 0, 0), [0, 1, 3, 4, 3, 1, 0]),
])
def test_factored_betti_numbers_in_dimension_one_and_at_scale(g, omega, expected):
    assert betti_numbers(g, omega) == expected == list(cohomology(g, omega).betti)


def test_the_empty_complex_is_the_unit_of_the_convolution():
    assert [len(kept) - r for kept, _, r in _cleared_walk([[0]], ({}, [], 1))] == [1]


def counted_image_rows(monkeypatch):
    """Replace ``_image_rows`` by a wrapper that records each call's sources,
    as index tuples."""
    module = importlib.import_module("liecohom.cohomology")
    calls = []

    def counting(sources, targets, tables):
        calls.append([mask_indices(mask) for mask in sources])
        return real(sources, targets, tables)

    real = module._image_rows
    monkeypatch.setattr(module, "_image_rows", counting)
    return calls


@pytest.mark.parametrize("g,omega", [
    (change_basis(heisenberg5(), random_invertible(5, random.Random(4))), one_form(0, 0, 0, 0, 0)),
    (load_example("sol3", k=2).algebra, one_form(2, 0, 0)),
    (RATIONAL, one_form(0, 0, 0, 0, 0)),
])
def test_representatives_stop_the_walk_at_their_degree(g, omega, monkeypatch):
    expected = cohomology(g, omega).representatives
    calls = counted_image_rows(monkeypatch)
    masks = counted_live_masks(monkeypatch)
    for p in range(g.dim + 1):
        calls.clear()
        masks.clear()
        assert term_lists([representatives(g, omega, p)]) == term_lists([expected[p]])
        # one assembly per degree 0 .. p, none of a monomial above degree p
        assert len(calls) == p + 1
        assert all(len(idx) <= p for sources in calls for idx in sources)
        # the live search makes no monomial above degree p + 1
        assert masks and max(m.bit_count() for m in masks) <= p + 1


def counted_live_masks(monkeypatch):
    """Replace ``_live_monomials`` by a wrapper that records every mask it returns."""
    module = importlib.import_module("liecohom.cohomology")
    masks = []

    def counting(*args):
        found = real(*args)
        masks.extend(m for live in found for degree in live for m in degree)
        return found

    real = module._live_monomials
    monkeypatch.setattr(module, "_live_monomials", counting)
    return masks


def test_representatives_of_h19_in_degree_1_search_two_degrees(monkeypatch):
    # h_19 has no diagonal x, so every monomial is live: degrees 0, 1 and 2 alone are made
    m, n = 9, 19
    g = LieAlgebra.from_brackets(n, {(i, m + i): tuple(int(k == n - 1) for k in range(n))
                                     for i in range(1, m + 1)})
    masks = counted_live_masks(monkeypatch)
    reps = representatives(g, OneForm([0] * n), 1)
    assert len(reps) == 18
    assert len(masks) == sum(comb(n, p) for p in range(3))


def test_abelian_40_is_answered_without_a_walk(monkeypatch):
    g = load_example("abelian", n=40).algebra
    calls = counted_image_rows(monkeypatch)
    start = time.perf_counter()
    betti = betti_numbers(g, OneForm.zero(40))
    assert time.perf_counter() - start < 0.1
    assert betti == [comb(40, p) for p in range(41)]
    assert calls == []


@pytest.mark.parametrize("g,omega", [
    (load_example("abelian", n=40).algebra, OneForm([0] * 39 + [1])),
    (direct_sum(load_example("sol3", k=2).algebra, load_example("abelian", n=3).algebra),
     one_form(-2, 0, 0, 0, Fraction(1, 5), 0)),
    (direct_sum(load_example("abelian", n=1).algebra, load_example("heisenberg3").algebra,
                load_example("abelian", n=1).algebra),
     one_form(0, 0, 0, 0, -1)),
])
def test_a_twisted_isolated_index_kills_everything_without_a_walk(g, omega, monkeypatch):
    calls = counted_image_rows(monkeypatch)
    assert betti_numbers(g, omega) == [0] * (g.dim + 1)
    assert calls == []
    result = cohomology(g, omega)
    assert list(result.betti) == [0] * (g.dim + 1)
    assert result.representatives == ((),) * (g.dim + 1)
    assert sum(map(len, calls)) == 0


def test_a_twisted_center_in_a_larger_factor_leaves_every_factor_unwalked(monkeypatch):
    # h_5 + (diag 4 + Q in the basis e1 .. e4, e5 + e2): the larger factor's
    # center e5 is off the basis, twisted by w = e^10, and h_5 comes first
    skew = change_basis(direct_sum(diag(4), load_example("abelian", n=1).algebra),
                        RationalMatrix.from_columns(
                            [unit_vector(5, j) for j in range(4)] + [(0, 1, 0, 0, 1)]))
    g = direct_sum(heisenberg5(), skew)
    omega = OneForm([0] * 9 + [1])
    module = importlib.import_module("liecohom.cohomology")
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    real = module._cleared_walk
    monkeypatch.setattr(module, "_cleared_walk", counting)
    assert [len(c) for c in _components(g)] == [5, 5]
    assert betti_numbers(g, omega) == [0] * 11
    assert calls == []
    assert list(cohomology(g, omega).betti) == [0] * 11


@pytest.mark.parametrize("omega,expected", [
    (one_form(0, 0, 0, 0, 0, 0, 0, 0), [1, 1, 1, 1]),
    (one_form(Fraction(-7, 2), 0, 0, 0, 0, 0, 0, 0), [0, 1, 1, 0]),
])
def test_sol3a_walks_only_its_three_dimensional_component(omega, expected, monkeypatch):
    sol3 = load_example("sol3", k=Fraction(7, 2)).algebra
    g = direct_sum(sol3, load_example("abelian", n=5).algebra)
    calls = counted_image_rows(monkeypatch)
    betti = betti_numbers(g, omega)
    assert [m for call in calls for m in call if max(m, default=1) > 3] == []
    assert sum(map(len, calls)) <= 2 ** 3
    assert betti == [sum(expected[i] * comb(5, p - i) for i in range(max(0, p - 5), min(p, 3) + 1))
                     for p in range(9)]


# --- Live weight blocks: only the monomials that can carry cohomology ---

def semidirect(*actions):
    """Q^r acting diagonally on Q^m: [e_s, e_(r+j)] = actions[s][j] e_(r+j).
    One action (1, .., n-1) is diag n, and (k, -k) is sol3(k)."""
    r, m = len(actions), len(actions[0])
    n = r + m
    return LieAlgebra.from_brackets(n, {
        (s + 1, r + j + 1): tuple(a[j] if i == r + j else 0 for i in range(n))
        for s, a in enumerate(actions) for j in range(m) if a[j]})


def live_count(actions, p, targets):
    """N(p, c): the p-subsets J of the acted-on indices with, for every action
    a and its target c, the sum of a over J equal to c."""
    m = len(actions[0])
    return sum(all(sum(a[j] for j in js) == c for a, c in zip(actions, targets))
               for js in combinations(range(m), p)) if p >= 0 else 0


def closed_form(actions, targets):
    """b_p of the semidirect algebra at w = sum c_s e^s. With T among the r
    acting indices and J among the others, d_w(e^T ^ e^J) is, up to sign,
    (w - a_J) ^ e^T ^ e^J for the one-form a_J = sum_s (sum_J a_s) e^s. So
    each J spans a copy of the exterior algebra on r generators, acyclic
    unless w = a_J and with zero differential when it is:
    b_p = sum_q C(r, q) N(p - q)."""
    r, m = len(actions), len(actions[0])
    return [sum(comb(r, q) * live_count(actions, p - q, targets) for q in range(r + 1))
            for p in range(r + m + 1)]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["diag", "sol3", "torus2"]),
       st.sampled_from(["standard", "permuted", "scaled", "random"]),
       st.integers(0, 2**32 - 1))
def test_live_betti_numbers_equal_the_full_walk_and_the_closed_form(family, basis, seed):
    rng = random.Random(seed)
    s = Fraction(rng.choice([1, -2, 3]), rng.randint(1, 3))
    if family == "diag":
        actions = [[s * j for j in range(1, rng.randint(3, 6))]]
    elif family == "sol3":
        actions = [[s, -s]]
    else:
        # two actions, two constraints on every live monomial; dependent
        # actions leave a central combination of e1 and e2
        m = rng.randint(2, 4)
        actions = [[s * rng.randint(-2, 2) for _ in range(m)] for _ in range(2)]
    g = semidirect(*actions)
    n, r = g.dim, len(actions)
    # a subset sum of every action (critical) or random rationals (generic)
    js = [j for j in range(len(actions[0])) if rng.random() < 0.5]
    targets = ([sum((a[j] for j in js), Fraction(0)) for a in actions] if rng.random() < 0.7
               else [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in actions])
    omega = OneForm(targets + [0] * (n - r))
    # no inner diagonal x acts in a random basis: the fallback walk
    m = basis_change(basis, n, rng)
    h, w = change_basis(g, m), pullback_one_form(omega, m)
    assert betti_numbers(h, w) == list(cohomology(h, w).betti) == closed_form(actions, targets)


def live_tuples(lives):
    """``_live_monomials`` with every mask as its index tuple."""
    return [[[mask_indices(mask) for mask in degree] for degree in live] for live in lives]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.integers(0, 3), st.booleans(), st.integers(0, 2**32 - 1))
def test_live_monomials_are_the_subsets_with_the_given_sums(k, count, gaps, seed):
    rng = random.Random(seed)
    # 1 .. k, or k ascending indices with gaps between them
    indices = sorted(rng.sample(range(1, 3 * k + 1), k)) if gaps else list(range(1, k + 1))
    position = {i: s for s, i in enumerate(indices)}
    rows = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(count)]
    # several target vectors, repeats and non-integers among them, in one walk
    targets = [[rng.choice([rng.randint(-4, 4), Fraction(rng.randint(-9, 9), 2)]) for _ in rows]
               for _ in range(rng.randint(1, 4))]
    targets += rng.sample(targets, rng.randint(0, len(targets)))
    assert live_tuples(_live_monomials(indices, rows, targets)) == [[
        [idx for idx in combinations(indices, p)
         if all(sum(c[position[i]] for i in idx) == x for c, x in zip(rows, t))]
        for p in range(k + 1)] for t in targets]


def test_live_monomials_packing_keeps_each_row_apart():
    # at base 4 the sums (-1, 2) over {2} and the target (3, 1) would pack alike: -1 + 8 = 3 + 4
    assert live_tuples(_live_monomials([1, 2, 3], [[2, -1, 0], [0, 2, 1]], [[3, 1], [-1, 2]])) == [
        [[], [], [], []], [[], [(2,)], [], []]]


@pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(-1), Fraction(29), Fraction(5),
                               Fraction(14), Fraction(28)])
def test_diag_8_assembles_only_live_monomials(c, monkeypatch):
    g = diag(8)
    live = {idx for p in range(9) for idx in form_basis(8, p) if sum(i - 1 for i in idx) == c}
    omega = one_form(c, 0, 0, 0, 0, 0, 0, 0)
    calls = counted_image_rows(monkeypatch)
    betti = betti_numbers(g, omega)
    assembled = [idx for call in calls for idx in call]
    assert betti == closed_form([range(1, 8)], [c]) == list(cohomology(g, omega).betti)
    if not live:
        assert assembled == [] and betti == [0] * 9
    else:
        assert assembled and set(assembled) <= live
        assert len(assembled) == len(set(assembled))


def test_a_random_basis_walks_every_monomial(monkeypatch):
    h = change_basis(diag(6), random_invertible(6, random.Random(1)))
    assert all(not a for a, _ in _inner_diagonal(h))
    calls = counted_image_rows(monkeypatch)
    assert betti_numbers(h, OneForm.zero(6)) == [1, 1, 0, 0, 0, 0, 0]
    assert sum(map(len, calls)) == sum(len(kept) for kept, _, _ in _cleared_walk(
        _live_monomials(range(1, 7), [], [[]])[0], _differential_tables(h, OneForm.zero(6))))


def test_interleaved_factors_are_walked_in_the_algebra_s_own_indices(monkeypatch):
    # sol3(2) on e1, e3, e5 and diag 3 on e2, e4, e6
    g = LieAlgebra.from_brackets(6, {(1, 3): (0, 0, 2, 0, 0, 0), (1, 5): (0, 0, 0, 0, -2, 0),
                                     (2, 4): (0, 0, 0, 1, 0, 0), (2, 6): (0, 0, 0, 0, 0, 2)})
    assert _components(g) == [[1, 3, 5], [2, 4, 6]]
    omega = one_form(2, 1, 0, 0, 0, 0)
    calls = counted_image_rows(monkeypatch)
    assert betti_numbers(g, omega) == [0, 0, 1, 2, 1, 0, 0]
    walked = {idx for call in calls for idx in call}
    assert {(3,), (1, 3), (4,), (2, 4)} <= walked
    assert all(set(idx) <= {1, 3, 5} or set(idx) <= {2, 4, 6} for idx in walked)
    assert list(cohomology(g, omega).betti) == [0, 0, 1, 2, 1, 0, 0]


@pytest.mark.parametrize("w1", [0, 1, -1, 5])
def test_a_twisted_center_off_the_basis_kills_everything_without_a_walk(w1, monkeypatch):
    # sol3 + Q in the basis e1, e2, e3, e4 + e2: no index is isolated, and the
    # center e4 = e4' - e2 lies outside [g, g] but is no basis vector
    g = direct_sum(load_example("sol3", k=1).algebra, load_example("abelian", n=1).algebra)
    m = RationalMatrix.from_columns([unit_vector(4, 0), unit_vector(4, 1), unit_vector(4, 2),
                                     (0, 1, 0, 1)])
    h = change_basis(g, m)
    assert len(_components(h)) == 1
    omega = one_form(w1, 0, 0, Fraction(1, 3))
    calls = counted_image_rows(monkeypatch)
    assert betti_numbers(h, omega) == [0] * 5
    assert calls == []
    assert list(cohomology(h, omega).betti) == [0] * 5
    # a twisted singleton, sol3 + Q at e^4, ends the query before any walk
    calls.clear()
    assert betti_numbers(g, one_form(w1, 0, 0, 1)) == [0] * 5
    assert calls == []
    # h3 + h: h has no live monomial, so neither factor is walked, not even
    # the smaller h3 that comes first
    calls.clear()
    big = direct_sum(load_example("heisenberg3").algebra, h)
    twisted = one_form(0, 0, 0, *omega.coeffs)
    assert betti_numbers(big, twisted) == [0] * 8
    assert calls == []
    assert list(cohomology(big, twisted).betti) == [0] * 8


def test_betti_numbers_split_an_algebra_once(monkeypatch):
    """The direct factors are a fact of the algebra, kept by ``_memo``: two
    queries split it once, and a copy through the constructor splits anew."""
    module = importlib.import_module("liecohom.cohomology")
    calls = []
    monkeypatch.setattr(module, "_components", lambda g: calls.append(g) or _components(g))
    g = LieAlgebra.from_brackets(5, {(1, 2): (0, 0, 1, 0, 0)})
    assert betti_numbers(g, OneForm.zero(5)) == [1, 4, 7, 7, 4, 1]
    assert betti_numbers(g, one_form(0, 0, 0, 1, 0)) == [0] * 6
    assert len(calls) == 1
    assert betti_numbers(LieAlgebra(g.dim, g.basis_names, g.brackets), OneForm.zero(5)) \
        == [1, 4, 7, 7, 4, 1]
    assert len(calls) == 2


def test_one_algebra_builds_its_mask_table_once(monkeypatch):
    """The gens table is a fact of the algebra, kept by ``_memo`` at its own
    scale: two Betti queries and a cohomology() build it once, and a form
    with a new denominator scales it rather than building it again."""
    module = importlib.import_module("liecohom.exterior")
    calls = []
    real = module._gens
    monkeypatch.setattr(module, "_gens", lambda g: calls.append(g) or real(g))
    g = change_basis(direct_sum(load_example("sol3", k=2).algebra, heisenberg5()),
                     random_invertible(8, random.Random(5)))
    zero, twisted = OneForm.zero(8), pullback_one_form(one_form(2, *[0] * 7),
                                                       random_invertible(8, random.Random(5)))
    assert betti_numbers(g, zero) == list(cohomology(g, zero).betti)
    assert betti_numbers(g, twisted.scale(Fraction(1, 3))) == [0] * 9
    assert len(calls) == 1


def test_binomials_are_a_row_of_pascals_triangle():
    for n in range(61):
        assert _binomials(n) == [comb(n, p) for p in range(n + 1)]
