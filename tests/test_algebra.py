import hashlib
import importlib
import json
import random
import time
import tracemalloc
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
from liecohom import algebra as algebra_module
from liecohom.algebra import (
    MAX_DIM,
    JacobiDefect,
    Subspace,
    ValidationReport,
    _inner_diagonal,
    _jacobi_report,
    _record,
    derived_series,
    random_invertible,
)
from liecohom.linalg import RationalMatrix, kernel_basis
from liecohom.serialization import algebra_to_dict, parse_algebra

from conftest import (
    diag,
    entry_jacobi_report,
    fraction_change_basis,
    heisenberg5,
    identity,
    k2,
    one_form,
    rational_sol3_plane,
    unchecked_algebra,
)


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
    assert str(report) == "OK"


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
    (2, {1: (0, 1)}),                 # a key that is not a pair
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


def test_subspace_contains_refuses_a_vector_of_the_wrong_length():
    for space in (Subspace(3, ()), Subspace.span(3, [[1, 0, 0]])):
        assert space.contains([0, 0, 0])
        assert not space.contains([0, 1, 0])
        for v in ([0, 0], [0, 0, 0, 0]):
            with pytest.raises(ValueError):
                space.contains(v)


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


def test_classify_brackets_only_the_indices_in_a_bracket():
    # [e1, e2] = e3, [e1, e3] = e4, [e1, e4] = e5 in dimension 2000: the lower
    # central series brackets with e1 .. e4 alone, not with all 2000 unit vectors
    n = 2000
    g = LieAlgebra.from_brackets(n, {(1, k): tuple(int(m == k) for m in range(n))
                                     for k in (2, 3, 4)})
    start = time.perf_counter()
    assert classify(g) is AlgebraClass.NILPOTENT
    assert time.perf_counter() - start < 0.05


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


def test_one_forms_of_different_dimensions_do_not_add():
    with pytest.raises(ValueError, match="dimensions 2 and 3"):
        OneForm((1, 0)) + OneForm((1, 0, 0))
    with pytest.raises(ValueError, match="dimensions 3 and 2"):
        OneForm((1, 0, 0)) - OneForm((0, 1))
    with pytest.raises(ValueError, match="dimension 3 with a vector of length 2"):
        OneForm((1, 0, 0)).evaluate((1, 0))


@pytest.mark.parametrize("other", [1, (1, 0), None])
def test_a_one_form_adds_and_subtracts_only_one_forms(other):
    w = OneForm((1, 0))
    for op in (lambda: w + other, lambda: w - other, lambda: other + w, lambda: other - w):
        with pytest.raises(TypeError):
            op()


def test_nilpotent_implies_unimodular_and_dixmier(heisenberg3):
    for g in (heisenberg3, load_example("abelian", n=4).algebra):
        assert classify(g) in (AlgebraClass.ABELIAN, AlgebraClass.NILPOTENT)
        assert is_unimodular(g)
        assert closed_one_forms(g).dim >= 2


def test_change_basis_identity(sol3):
    assert change_basis(sol3, identity(3)).brackets == sol3.brackets


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
        # the document and the dense brackets each build the same algebra again
        again = parse_algebra(json.dumps(algebra_to_dict(k)))
        assert again == k and hash(again) == hash(k)
        assert LieAlgebra.from_brackets(n, dict(k.brackets), k.basis_names) == k


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


@st.composite
def _small_algebras(draw):
    """A Lie algebra of dimension 1..7 with rational constants: almost abelian
    (e1 acting on the abelian ideal e2..en by any matrix), a scaled Heisenberg
    algebra, or a scaled sl2 plus an abelian summand."""
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["almost abelian", "heisenberg", "sl2"]))
    if kind == "sl2" and n >= 3:
        c, pad = draw(_RATIONALS.filter(bool)), (0,) * (n - 3)
        table = {(1, 2): (0, 2 * c, 0) + pad, (1, 3): (0, 0, -2 * c) + pad,
                 (2, 3): (c, 0, 0) + pad}
    elif kind == "heisenberg" and n >= 3:
        table = {(i, i + 1): [0] * (n - 1) + [draw(_RATIONALS)] for i in range(1, n - 1, 2)}
    else:
        table = {(1, j): [0] + draw(st.lists(_RATIONALS, min_size=n - 1, max_size=n - 1))
                 for j in range(2, n + 1)}
    return LieAlgebra.from_brackets(n, table)


@settings(max_examples=150, deadline=None)
@given(_small_algebras(), st.data())
def test_change_basis_matches_the_fraction_reference(g, data):
    # two changes in a row, so that the second starts from a dense rational table
    for _ in range(2):
        n = g.dim
        rows = data.draw(st.lists(st.lists(_RATIONALS, min_size=n, max_size=n),
                                  min_size=n, max_size=n))
        if n > 1 and data.draw(st.booleans()):
            # the last column a multiple of the first: singular
            q = data.draw(_RATIONALS)
            for r in rows:
                r[-1] = q * r[0]
        m = RationalMatrix.from_rows(rows)
        try:
            expected = fraction_change_basis(g, m)
        except ValueError:
            with pytest.raises(ValueError, match="singular matrix"):
                change_basis(g, m)
            return
        g = change_basis(g, m)
        assert repr(g) == repr(expected)


_M = 2 ** 100
_NUMERATORS = st.one_of(st.sampled_from([0, 0, 0, 1, -1, 2]), st.integers(_M - 8, _M + 8),
                        st.integers(-_M - 8, -_M + 8))

# Two tables whose triple (1, 2, 3) sums to M^2 e1 - e2 and to 2 M^2 e1 - e2,
# with every bracket one term of size at most M = 2^100: the packed sum would
# read zero if its entries were 200 or 201 bits apart instead of the bit
# length of 3 M^2, 202.
_CARRY_AT_M2 = (5, {(1, 2): (0, 0, 0, _M, 0), (3, 4): (-_M, 0, 0, 0, 0),
                    (2, 3): (0, 0, 0, 0, 1), (1, 5): (0, 1, 0, 0, 0)})
_CARRY_AT_2M2 = (6, {(1, 2): (0, 0, 0, _M, 0, 0), (3, 4): (-_M, 0, 0, 0, 0, 0),
                     (2, 3): (0, 0, 0, 0, 1, 0), (1, 5): (0, 1, 0, 0, 0, 0),
                     (1, 3): (0, 0, 0, 0, 0, -_M), (2, 6): (-_M, 0, 0, 0, 0, 0)})


@st.composite
def _broken_tables(draw):
    """A random bracket table of dimension 3..6, which mostly fails Jacobi, with
    numerators near +-2^100 among small ones and denominators up to 97."""
    n = draw(st.integers(3, 6))
    entry = st.builds(Fraction, _NUMERATORS, st.integers(1, 97))
    return n, {(i, j): draw(st.lists(entry, min_size=n, max_size=n))
               for i, j in combinations(range(1, n + 1), 2) if draw(st.booleans())}


@settings(max_examples=150, deadline=None)
@given(_broken_tables())
@example(_CARRY_AT_M2)
@example(_CARRY_AT_2M2)
@example((3, BROKEN_TABLE))
@example((3, RATIONAL_BROKEN_TABLE))
def test_jacobi_report_matches_the_per_entry_reference(case):
    n, table = case
    expected = entry_jacobi_report(unchecked_algebra(n, table))
    assert validate_lie_algebra(n, table) == expected
    if table in (_CARRY_AT_M2[1], _CARRY_AT_2M2[1]):
        assert expected.defects[0].triple == (1, 2, 3)


def _diagonal_dimension(g):
    """Dimension of the x with [x, e_i] in Q e_i for every i, in Fractions."""
    n = g.dim
    rows = [[g.bracket_basis(j + 1, i + 1)[m] for j in range(n)]
            for i in range(n) for m in range(n) if m != i]
    return len(kernel_basis(RationalMatrix(len(rows), n, rows)))


@pytest.mark.parametrize("seed", range(4))
def test_inner_diagonal_stops_early_only_when_nothing_acts(seed, monkeypatch):
    rng = random.Random(seed)
    cases = [diag(6), heisenberg5(), LieAlgebra.from_brackets(2, {(1, 2): (0, 1)}),
             LieAlgebra.from_brackets(1, {}), load_example("sol3", k=3).algebra]
    cases += [change_basis(g, random_invertible(g.dim, rng)) for g in list(cases)]
    for g in cases:
        assert len(_inner_diagonal(g)) == _diagonal_dimension(g)
    # diag 6 in a random basis: the rows of [x, e_1] and [x, e_2] settle x = 0
    calls = []
    real = algebra_module._kernel
    monkeypatch.setattr(algebra_module, "_kernel", lambda *a: calls.append(a) or real(*a))
    assert _inner_diagonal(change_basis(diag(6), random_invertible(6, rng))) == []
    assert calls == []


def test_dimension_limit():
    assert LieAlgebra.from_brackets(6000, {}).dim == 6000
    assert LieAlgebra.from_brackets(MAX_DIM, {}).dim == MAX_DIM
    for dim in (MAX_DIM + 1, 2 ** 63, 10 ** 30):
        with pytest.raises(StructureError, match="dimension must be an integer in 1.."):
            LieAlgebra.from_brackets(dim, {})


def _large_document(n):
    # [e1, e2] = e2, [e1, e3] = e3, [e1, e4] = 2 e4, [e2, e3] = e4 and [e1, ej] = ej
    # for the last 16 j: one triple, (1, 2, 3), with a nonzero term
    items = [{"i": 1, "j": j, "coeffs": {str(j): "2" if j == 4 else "1"}}
             for j in (2, 3, 4, *range(n - 15, n + 1))]
    items.append({"i": 2, "j": 3, "coeffs": {"4": "1"}})
    return json.dumps({"dim": n, "brackets": items}, separators=(",", ":"))


def test_a_large_sparse_document_costs_what_it_holds():
    """A document of 20 brackets in dimension MAX_DIM is read, checked and
    written without a dense vector: the default names are most of its memory."""
    text = _large_document(MAX_DIM)
    parse_s = min(_seconds(lambda: parse_algebra(text)) for _ in range(3))
    g = parse_algebra(text)
    write_s = min(_seconds(lambda: algebra_to_dict(g)) for _ in range(3))
    assert parse_s < 0.1 and write_s < 0.01
    assert parse_algebra(json.dumps(algebra_to_dict(g))) == g
    for build, bound in ((lambda: parse_algebra(text), 10), (lambda: _jacobi_report(g), 4)):
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * 2 ** 20


def _brackets_near_the_end(k, c4=2):
    # [e1, e2] = e2, [e1, e3] = e3, [e1, e4] = c4 e4, [e2, e3] = e4 and [e1, ej] = ej for the
    # last k j: the triple (1, 2, 3) has a nonzero term, and its cyclic sum is (2 - c4) e4
    n = MAX_DIM
    items = [{"i": 1, "j": j, "coeffs": {str(j): str(c4) if j == 4 else "1"}}
             for j in (2, 3, 4, *range(n - k + 1, n + 1))]
    items.append({"i": 2, "j": 3, "coeffs": {"4": "1"}})
    return json.dumps({"dim": n, "brackets": items})


def test_the_jacobi_check_of_many_brackets_near_e_n_stays_in_the_tables_size():
    """1,000 one-term brackets near e_100000: each packed [e_m, e_c] places an output at
    its position among the outputs the table holds, not at its index, so the 48 KB document
    parses in a few MiB (109 MiB with a field per index), and a failing copy reports the
    same one defect as the per-entry sum."""
    text = _brackets_near_the_end(1000)
    assert 45_000 < len(text) < 50_000
    tracemalloc.start()
    try:
        g = parse_algebra(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20 and len(g._int_table) == 1004
    with pytest.raises(JacobiError) as exc:
        parse_algebra(_brackets_near_the_end(1000, c4=3))
    defect = (Fraction(0),) * 3 + (Fraction(-1),) + (Fraction(0),) * (MAX_DIM - 4)
    assert exc.value.report == ValidationReport(False, (JacobiDefect((1, 2, 3), defect),))
    assert str(exc.value) == "jacobi defect on (1, 2, 3): -1*e4"


def test_classify_of_a_large_sparse_document_costs_what_its_table_costs():
    """``dim`` 100,000 with [e1, ej] = ej for the last 20 j: the series are built on
    sparse rows and sparse brackets, with no vector of length n."""
    n = MAX_DIM
    text = json.dumps({"dim": n, "brackets": [{"i": 1, "j": j, "coeffs": {str(j): "1"}}
                                              for j in range(n - 19, n + 1)]})
    g = parse_algebra(text)
    assert min(_seconds(lambda: classify(g)) for _ in range(3)) < 0.1
    assert classify(g) is AlgebraClass.SOLVABLE


def _seconds(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


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
    # the weight memo is built per instance, so a copy through the constructor
    # with the int table replaced shares no table and no memo with the algebra
    # it copies
    g = LieAlgebra.from_brackets(3, {(1, 2): (0, 1, 0), (1, 3): (0, 0, 2)})
    weights_of_g = adapted_basis(g)
    h = LieAlgebra(g.dim, g.basis_names, 1, (((2, 3), ((0, 1),)),))
    assert h._int_table is not g._int_table
    assert "_weight_data" in vars(g) and "_weight_data" not in vars(h)
    assert g.bracket_basis(2, 3) == (0, 0, 0)
    assert g.bracket_basis(1, 3) == (0, 0, 2)
    assert h.bracket_basis(2, 3) == (1, 0, 0)
    assert h.bracket_basis(1, 3) == (0, 0, 0)
    assert adapted_basis(g) is weights_of_g
    assert adapted_basis(h) == adapted_basis(LieAlgebra.from_brackets(3, {(2, 3): (1, 0, 0)}))
    assert adapted_basis(h) != weights_of_g


def test_record_value_class():
    seen = []

    @_record
    class Point:
        x: int
        y: tuple = ()

        def __post_init__(self):
            seen.append((self.x, self.y))
            object.__setattr__(self, "_derived", self.x + 1)

    @_record
    class Other:
        x: int
        y: tuple = ()

    p, q, r = Point(1, (2,)), Point(y=(2,), x=1), Point(3)
    assert (p.x, p.y, r.x, r.y) == (1, (2,), 3, ())
    assert seen == [(1, (2,)), (1, (2,)), (3, ())] and (p._derived, r._derived) == (2, 4)
    assert p == q and p != r and p != Other(1, (2,)) and p.__eq__((1, (2,))) is NotImplemented
    assert hash(p) == hash(q) == hash((1, (2,))) and hash(r) == hash((3, ()))
    assert repr(p) == f"{Point.__qualname__}(x=1, y=(2,))"
    assert repr(OneForm((1, "1/2"))) == "OneForm(coeffs=(Fraction(1, 1), Fraction(1, 2)))"
    for bad in (lambda: Point(), lambda: Point(1, (), 2), lambda: Point(1, z=2),
                lambda: Point(1, x=1)):
        with pytest.raises(TypeError):
            bad()
    for change in (lambda: setattr(p, "x", 2), lambda: setattr(p, "z", 2),
                   lambda: delattr(p, "y"), lambda: delattr(p, "_derived")):
        with pytest.raises(AttributeError):
            change()
    assert (p.x, p.y, p._derived) == (1, (2,), 2)


def test_record_compiles_an_init_only_for_a_class_without_one(monkeypatch):
    sources = []
    monkeypatch.setattr(algebra_module, "exec", lambda src, space: sources.append(src)
                        or exec(src, space), raising=False)

    @_record
    class Own:
        x: int

        def __init__(self, x):
            object.__setattr__(self, "x", 2 * x)

    @_record
    class Plain:
        x: int

    assert "__init__" not in sources[0] and "def __init__(self, x):" in sources[1]
    assert Own(3).x == 6 and Plain(3).x == 3 and Own(3) == Own(3) != Plain(6)


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
    # any iterable of strings names the basis, in order
    assert LieAlgebra.from_brackets(2, {}, names=iter(("x", "y"))).basis_names == ("x", "y")


_entries = st.sampled_from([0] * 6 + [1, -2]) | st.fractions(-9, 9, max_denominator=7)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.data())
def test_pullback_is_the_transpose_applied(rows, cols, data):
    m = RationalMatrix(rows, cols, data.draw(st.lists(
        st.lists(_entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)))
    omega = OneForm(data.draw(st.lists(_entries, min_size=rows, max_size=rows)))
    assert pullback_one_form(omega, m) == OneForm(m.transpose().apply(omega.coeffs))


def _pinned_algebras():
    """Every catalog entry, two with parameters, and three test algebras in their
    given basis and after ``random_invertible(n, Random(1))``."""
    out = {name: load_example(name).algebra for name in ("abelian", "heisenberg3", "sol3",
                                                         "euclid3")}
    out["abelian 5"] = load_example("abelian", n=5).algebra
    out["sol3 -7/3"] = load_example("sol3", k=Fraction(-7, 3)).algebra
    for name, g in (("k2", k2()), ("rational_sol3_plane", rational_sol3_plane()),
                    ("heisenberg5", heisenberg5())):
        out[name] = g
        out[name + " rand"] = change_basis(g, random_invertible(g.dim, random.Random(1)))
    return out


# sha256 of the algebra_to_dict JSON (sorted keys), a newline and repr(g.brackets),
# as the package gave them when ``brackets`` was the stored field
ALGEBRA_DIGESTS = {
    'abelian': "c8a081cf2fc6d86ea76c0217fa3cf3f1982f1d7ee3a645047ad19772ed7223e3",
    'abelian 5': "0aa96bdc2adf96905b650c976a8968bcefc2c2e7c2c56639f43b700422f05125",
    'euclid3': "999521264fe922d32fb26b54e860970cf09596669fd1c57d3e63757bc075b1a4",
    'heisenberg3': "47326e9d1bf26b90d918fa1bbf6d24752ee6d570fe9c8773e56adcb72cb9c0ef",
    'heisenberg5': "61bcb43d6b5cb1421b6d0f47985ffc0a721f0ac4906c003fb837770cdda3281d",
    'heisenberg5 rand': "37b8b7b777387fcab1bbef7cbe345cecf09ab029ced3283e5c303fd994acc138",
    'k2': "fbab32d2e2c3e79ff9f645368ee649ef7db2309412f080b1862931912f7133ca",
    'k2 rand': "c5aded50d7872a36d29d90ad8821000d882ee0a92ff221fd7fdc3220e3624e48",
    'rational_sol3_plane': "862d98a3091cb0ba30f1a6463d4d2e1047fbc4136e4b7c9de29dd8b4669a520b",
    'rational_sol3_plane rand': "65376665c769e65bd7ddfb2ca0969cfddcd981f348fc61c46f9e9b34ccea57de",
    'sol3': "ea56f3bd9f4ca269422557dd2df7a0099420ed63c88ac3aafd0b56d76f5642b2",
    'sol3 -7/3': "2abd301bb567c469509eee728c8168848f974d24b2a636f20f7af3d0ce443e57",
}


@pytest.mark.parametrize("name", sorted(ALGEBRA_DIGESTS))
def test_algebra_documents_and_brackets_pinned(name):
    g = _pinned_algebras()[name]
    text = json.dumps(algebra_to_dict(g), sort_keys=True) + "\n" + repr(g.brackets)
    assert hashlib.sha256(text.encode()).hexdigest() == ALGEBRA_DIGESTS[name]
