import dataclasses
import importlib
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from liecohom import (
    AlgebraClass,
    JacobiError,
    LieAlgebra,
    OneForm,
    StructureError,
    adapted_basis,
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

# [e1,e2] = e3/3, [e1,e3] = 2e1/5, [e2,e3] = e2: the cyclic sum over (1,2,3) is
#   [e3/3, e3] + [e2, e1] - [2e1/5, e2] = -e3/3 - 2e3/15 = -7/15 e3
RATIONAL_BROKEN_TABLE = {(1, 2): (0, 0, Fraction(1, 3)), (1, 3): (Fraction(2, 5), 0, 0),
                         (2, 3): (0, 1, 0)}


def test_validate_heisenberg_ok():
    report = validate_lie_algebra(3, {(1, 2): (0, 0, 1)})
    assert report.ok
    assert report.defects == ()


def test_validate_abelian_ok():
    for n in (1, 2, 5):
        assert validate_lie_algebra(n, {}).ok


def test_jacobi_check_skips_triples_without_a_stored_bracket(monkeypatch):
    calls = []
    real = LieAlgebra.bracket

    def counting(self, x, y):
        calls.append((x, y))
        return real(self, x, y)

    monkeypatch.setattr(LieAlgebra, "bracket", counting)
    assert LieAlgebra.from_brackets(60, {}).dim == 60
    assert calls == []


def test_jacobi_defect_keeps_a_fractional_coefficient():
    (defect,) = validate_lie_algebra(3, RATIONAL_BROKEN_TABLE).defects
    assert defect.defect == (0, 0, Fraction(-7, 15))
    assert str(defect) == "jacobi defect on (1, 2, 3): -7/15*e3"


def test_validate_reports_jacobi_defect_exhaustively():
    report = validate_lie_algebra(3, BROKEN_TABLE)
    assert not report.ok
    assert len(report.defects) == 1
    (defect,) = report.defects
    assert defect.triple == (1, 2, 3)
    assert defect.defect == (0, 0, 1)
    assert "(1, 2, 3)" in str(report)


@st.composite
def _tables(draw):
    n = draw(st.integers(1, 6))
    entry = st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3),
                                      Fraction(3, 5)]),
                     min_size=n, max_size=n)
    return n, {(i, j): draw(entry) for i, j in combinations(range(1, n + 1), 2)
               if draw(st.booleans())}


@settings(max_examples=150, deadline=None)
@given(_tables())
@example((3, BROKEN_TABLE))
@example((3, {(1, 2): (0, 0, 1)}))
@example((3, RATIONAL_BROKEN_TABLE))
def test_validate_matches_structure_constant_oracle(case):
    n, table = case
    # c[a][b][m] is the e_m coefficient of [e_a, e_b], 0-based
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for (i, j), v in table.items():
        for m, x in enumerate(v):
            c[i - 1][j - 1][m], c[j - 1][i - 1][m] = Fraction(x), -Fraction(x)
    expected = []
    for i, j, k in combinations(range(n), 3):
        cyclic = tuple(
            sum(c[a][b][m] * c[m][d][out] for a, b, d in ((i, j, k), (j, k, i), (k, i, j))
                for m in range(n))
            for out in range(n))
        if any(cyclic):
            expected.append(((i + 1, j + 1, k + 1), cyclic))
    report = validate_lie_algebra(n, table)
    assert report.ok == (not expected)
    assert [(d.triple, d.defect) for d in report.defects] == expected


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
    (2, {(1.9, 2): (0, 1)}),          # a float index is not cast to 1
    (2, {(True, 2): (0, 1)}),         # nor is a bool
    (2, {(1, 2): "01"}),              # a string is not a coefficient sequence
    (2, {(1, 2): None}),              # nor is None
])
def test_malformed_tables_are_structural_errors(dim, brackets):
    with pytest.raises(StructureError):
        validate_lie_algebra(dim, brackets)


def test_a_string_or_scalar_is_not_a_coefficient_sequence():
    # a string used to be read digit by digit: OneForm("101") was (1, 0, 1)
    for bad in ("101", b"101", bytearray(b"1"), None, 5, Fraction(1, 2)):
        with pytest.raises(StructureError, match="sequence of coefficients"):
            OneForm(bad)
    with pytest.raises(StructureError):
        LieAlgebra.from_brackets(3, {}).bracket("100", (0, 1, 0))
    assert OneForm(iter([1, "1/2"])).coeffs == (1, Fraction(1, 2))


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


def _oracle_inverse(m):
    """Gauss-Jordan over Fractions on ``[m | I]``; None when m is singular."""
    n = len(m)
    rows = [list(map(Fraction, r)) + [Fraction(int(i == j)) for j in range(n)]
            for i, r in enumerate(m)]
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            return None
        rows[c], rows[piv] = rows[piv], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                rows[i] = [a - rows[i][c] * b for a, b in zip(rows[i], rows[c])]
    return [r[n:] for r in rows]


def _oracle_bracket(n, table, x, y):
    """[x, y] expanded over the stored pairs of ``table``, in Fractions."""
    out = [Fraction(0)] * n
    for (i, j), v in table:
        c = x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1]
        for k, a in enumerate(v):
            out[k] += c * a
    return tuple(out)


_RATIONALS = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4),
                              Fraction(3, 7)])


@st.composite
def _fractional_algebras(draw):
    """An almost abelian algebra, [e1, ej] = sum_k A_kj e_k on the abelian ideal
    spanned by e2..en, or a Heisenberg algebra with scaled brackets; both with
    some denominator above 1, so that the integer table has scale L > 1."""
    n = draw(st.integers(2, 5))
    if draw(st.booleans()):
        cols = [[0] + draw(st.lists(_RATIONALS, min_size=n - 1, max_size=n - 1))
                for _ in range(n - 1)]
        table = {(1, j): cols[j - 2] for j in range(2, n + 1)}
    else:
        n = 2 * (n // 2) + 1
        table = {(i, i + 1): [0] * (n - 1) + [draw(_RATIONALS)] for i in range(1, n - 1, 2)}
    g = LieAlgebra.from_brackets(n, table)
    assume(g._scale > 1)
    return g


@settings(max_examples=80, deadline=None)
@given(_fractional_algebras(), st.data())
def test_change_basis_matches_inverse_then_apply(g, data):
    n = g.dim
    m = data.draw(st.lists(st.lists(_RATIONALS, min_size=n, max_size=n), min_size=n, max_size=n))
    minv = _oracle_inverse(m)
    if minv is None:
        with pytest.raises(ValueError):
            change_basis(g, RationalMatrix.from_rows(m))
        return
    columns = list(zip(*m))
    expected = {}
    for a, b in combinations(range(n), 2):
        old = _oracle_bracket(n, g.brackets, columns[a], columns[b])
        new = tuple(sum((x * y for x, y in zip(r, old)), Fraction(0)) for r in minv)
        if any(new):
            expected[a + 1, b + 1] = new
    h = change_basis(g, RationalMatrix.from_rows(m))
    assert h.brackets == tuple(sorted(expected.items()))
    # bracket and bracket_basis read the integer table; both agree with ``brackets``
    for k in (g, h):
        units = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
        for a in range(n):
            for b in range(n):
                assert k.bracket_basis(a + 1, b + 1) == _oracle_bracket(n, k.brackets,
                                                                        units[a], units[b])
        x, y = (data.draw(st.lists(_RATIONALS, min_size=n, max_size=n)) for _ in range(2))
        assert k.bracket(x, y) == _oracle_bracket(n, k.brackets, x, y)
        assert all(type(c) is Fraction for c in k.bracket(x, y))


def test_change_basis_preserves_jacobi(heisenberg3, sol3, euclid3, sl2):
    rng = random.Random(23)
    for g in (heisenberg3, sol3, euclid3, sl2):
        for _ in range(10):
            change_basis(g, random_invertible(g.dim, rng))  # revalidates internally


def test_change_basis_runs_the_jacobi_check(monkeypatch, sol3):
    algebra = importlib.import_module("liecohom.algebra")
    calls = []
    real = algebra._jacobi_report

    def counting(g):
        calls.append(g.dim)
        return real(g)

    monkeypatch.setattr(algebra, "_jacobi_report", counting)
    for seed in range(3):
        change_basis(sol3, random_invertible(3, random.Random(seed)))
    assert calls == [3, 3, 3]


def test_bracket_antisymmetry_and_linearity(sol3):
    assert sol3.bracket_basis(2, 1) == (0, -1, 0)
    x, y = (1, 2, 0), (0, 1, 1)
    xy = sol3.bracket(x, y)
    yx = sol3.bracket(y, x)
    assert xy == tuple(-c for c in yx)
    # bilinear expansion over every ordered pair of basis vectors
    rng = random.Random(37)
    for g in (sol3, diag(5), heisenberg5()):
        for _ in range(5):
            x, y = ([Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(g.dim)]
                    for _ in range(2))
            expected = [Fraction(0)] * g.dim
            for i in range(g.dim):
                for j in range(g.dim):
                    for m, c in enumerate(g.bracket_basis(i + 1, j + 1)):
                        expected[m] += x[i] * y[j] * c
            assert g.bracket(x, y) == tuple(expected)
    with pytest.raises(StructureError):
        sol3.bracket((1, 0), (0, 1, 0))
    with pytest.raises(StructureError):
        sol3.bracket((1, 0, 0), (0, 1, 0, 0))


def test_replace_builds_its_own_table_and_weight_memo():
    # the integer table and the weight memo are built per instance, so a copy
    # made by dataclasses.replace shares neither with the algebra it copies
    g = LieAlgebra.from_brackets(3, {(1, 2): (0, 1, 0), (1, 3): (0, 0, 2)})
    weights_of_g = adapted_basis(g)
    h = dataclasses.replace(g, brackets=(((2, 3), (1, 0, 0)),))
    assert g.bracket_basis(2, 3) == (0, 0, 0)
    assert g.bracket_basis(1, 3) == (0, 0, 2)
    assert h.bracket_basis(2, 3) == (1, 0, 0)
    assert h.bracket_basis(1, 3) == (0, 0, 0)
    assert adapted_basis(g) is weights_of_g
    assert adapted_basis(h) == adapted_basis(LieAlgebra.from_brackets(3, {(2, 3): (1, 0, 0)}))
    assert adapted_basis(h) != weights_of_g


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
