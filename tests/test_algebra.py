import random
from fractions import Fraction

import pytest

from liecohom import (
    AlgebraClass,
    JacobiError,
    LieAlgebra,
    StructureError,
    change_basis,
    classify,
    closed_one_forms,
    derived_subalgebra,
    is_unimodular,
    load_example,
    pullback_one_form,
    validate_lie_algebra,
)
from liecohom.algebra import Subspace, derived_series, random_invertible
from liecohom.linalg import RationalMatrix

from conftest import diag, heisenberg5, one_form


# {[e1,e2]=e1, [e1,e3]=e3, [e2,e3]=0}: the cyclic sum over (1,2,3) is
#   [[e1,e2],e3] + [[e2,e3],e1] + [[e3,e1],e2] = [e1,e3] + 0 - [e3,e2] = e3
BROKEN_TABLE = {(1, 2): (1, 0, 0), (1, 3): (0, 0, 1)}


def test_validate_heisenberg_ok():
    report = validate_lie_algebra(3, {(1, 2): (0, 0, 1)})
    assert report.ok
    assert report.defects == ()


def test_validate_abelian_ok():
    for n in (1, 2, 5):
        assert validate_lie_algebra(n, {}).ok


def test_validate_reports_jacobi_defect_exhaustively():
    report = validate_lie_algebra(3, BROKEN_TABLE)
    assert not report.ok
    assert len(report.defects) == 1
    (defect,) = report.defects
    assert defect.triple == (1, 2, 3)
    assert defect.defect == (0, 0, 1)
    assert "(1, 2, 3)" in str(report)


def test_construction_raises_on_jacobi_failure():
    with pytest.raises(JacobiError) as exc:
        LieAlgebra.from_brackets(3, BROKEN_TABLE)
    assert exc.value.report.defects[0].triple == (1, 2, 3)


@pytest.mark.parametrize("dim,brackets", [
    (0, {}),
    (-1, {}),
    (2, {(1, 2): (1,)}),              # wrong coefficient length
    (2, {(2, 1): (0, 1)}),            # indices not increasing
    (2, {(1, 3): (0, 1)}),            # index out of range
    (2, {(1, 2): ("x", 0)}),          # non-rational coefficient
    (True, {}),                       # a bool is not a dimension
])
def test_malformed_tables_are_structural_errors(dim, brackets):
    with pytest.raises(StructureError):
        validate_lie_algebra(dim, brackets)


def test_structural_errors_are_not_jacobi_errors():
    try:
        validate_lie_algebra(2, {(1, 2): (1,)})
    except StructureError as exc:
        assert not isinstance(exc, JacobiError)


def test_derived_subalgebra(heisenberg3, sol3, abelian2):
    assert derived_subalgebra(heisenberg3) == Subspace.span(3, [[0, 0, 1]])
    assert derived_subalgebra(abelian2).is_zero()
    der = derived_subalgebra(sol3)
    assert der.dim == 2
    assert der.contains((0, 1, 0)) and der.contains((0, 0, 1))
    assert not der.contains((1, 0, 0))


def test_closed_one_forms(heisenberg3, sol3, abelian2):
    assert closed_one_forms(heisenberg3) == Subspace.span(3, [[1, 0, 0], [0, 1, 0]])
    assert closed_one_forms(sol3) == Subspace.span(3, [[1, 0, 0]])
    assert closed_one_forms(abelian2).dim == 2


def test_derived_and_closed_dimensions_are_complementary(heisenberg3, sol3, euclid3, sl2):
    rng = random.Random(5)
    for g in (heisenberg3, sol3, euclid3, sl2):
        for _ in range(5):
            h = change_basis(g, random_invertible(g.dim, rng))
            assert derived_subalgebra(h).dim + closed_one_forms(h).dim == h.dim


def test_classify(heisenberg3, sol3, euclid3, abelian2, sl2):
    assert classify(heisenberg3) is AlgebraClass.NILPOTENT
    assert classify(sol3) is AlgebraClass.SOLVABLE
    assert classify(euclid3) is AlgebraClass.SOLVABLE
    assert classify(abelian2) is AlgebraClass.ABELIAN
    assert classify(sl2) is AlgebraClass.NON_SOLVABLE


def test_derived_series_ends_at_zero_exactly_when_solvable(
        heisenberg3, sol3, euclid3, abelian2, sl2, affine2):
    rng = random.Random(19)
    for g in (heisenberg3, sol3, euclid3, abelian2, sl2, affine2, diag(5), heisenberg5()):
        for h in (g, change_basis(g, random_invertible(g.dim, rng))):
            series = derived_series(h)
            assert series[0].dim == h.dim
            assert all(a.dim > b.dim for a, b in zip(series, series[1:]))
            assert (series[-1].dim == 0) == (classify(h) is not AlgebraClass.NON_SOLVABLE)


def test_classification_is_basis_invariant(heisenberg3, sol3, sl2):
    rng = random.Random(17)
    for g in (heisenberg3, sol3, sl2):
        for _ in range(5):
            assert classify(change_basis(g, random_invertible(g.dim, rng))) is classify(g)


def test_is_unimodular(heisenberg3, sol3, affine2):
    assert is_unimodular(sol3)
    assert is_unimodular(heisenberg3)
    assert not is_unimodular(affine2)


def test_nilpotent_implies_unimodular_and_dixmier(heisenberg3):
    for g in (heisenberg3, load_example("abelian", n=4).algebra):
        assert classify(g) in (AlgebraClass.ABELIAN, AlgebraClass.NILPOTENT)
        assert is_unimodular(g)
        assert closed_one_forms(g).dim >= 2


def test_change_basis_identity(sol3):
    assert change_basis(sol3, RationalMatrix.identity(3)).brackets == sol3.brackets


def test_change_basis_rescales_bracket(heisenberg3):
    m = RationalMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    h = change_basis(heisenberg3, m)
    assert h.bracket_basis(1, 2) == (0, 0, Fraction(1, 2))


def test_change_basis_diagonal_scaling_fixes_sol3(sol3):
    # rescaling a bracket eigenvector leaves its eigen-relation untouched
    m = RationalMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, Fraction(1, 4)]])
    assert change_basis(sol3, m).brackets == sol3.brackets


def test_change_basis_rejects_singular(sol3):
    with pytest.raises(ValueError):
        change_basis(sol3, RationalMatrix(3, 3))


def test_change_basis_preserves_jacobi(heisenberg3, sol3, euclid3, sl2):
    rng = random.Random(23)
    for g in (heisenberg3, sol3, euclid3, sl2):
        for _ in range(10):
            change_basis(g, random_invertible(g.dim, rng))  # revalidates internally


def test_bracket_antisymmetry_and_linearity(sol3):
    assert sol3.bracket_basis(2, 1) == (0, -1, 0)
    x, y = (1, 2, 0), (0, 1, 1)
    xy = sol3.bracket(x, y)
    yx = sol3.bracket(y, x)
    assert xy == tuple(-c for c in yx)


def test_pullback_pairs_with_new_basis(sol3):
    rng = random.Random(31)
    m = random_invertible(3, rng)
    omega = one_form(1, -2, Fraction(1, 3))
    pulled = pullback_one_form(omega, m)
    for j in range(3):
        assert pulled.coeffs[j] == omega.evaluate(m.column(j))


def test_basis_names_default_and_custom():
    g = LieAlgebra.from_brackets(2, {}, names=["x", "y"])
    assert g.basis_names == ("x", "y")
    assert LieAlgebra.from_brackets(2, {}).basis_names == ("e1", "e2")
    with pytest.raises(StructureError):
        LieAlgebra.from_brackets(2, {}, names=["x"])
