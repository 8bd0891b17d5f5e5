import random
import re
import time
from collections.abc import Hashable
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecohom.linalg import (
    RationalMatrix,
    _echelon,
    _reduce,
    extend_independent,
    in_image,
    invert,
    kernel_basis,
    rank,
    solve,
    span_basis,
    zero_vector,
)

from conftest import (coords_to_form, identity, loop_reduce, matrix_product, sequential_extend,
                      sweep_echelon)


def naive_rank(m: RationalMatrix) -> int:
    """Independent oracle: plain Gaussian elimination over Fraction."""
    rows = m.to_rows()
    r = 0
    for c in range(m.cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def random_matrix(rng, rows, cols, denoms=(1, 1, 1, 2, 3)):
    return RationalMatrix(rows, cols, [
        [Fraction(rng.randint(-4, 4), rng.choice(denoms)) for _ in range(cols)]
        for _ in range(rows)
    ])


def test_rank_zero_matrix():
    assert rank(RationalMatrix(3, 4)) == 0


def test_rank_identity():
    for n in (1, 2, 5):
        assert rank(identity(n)) == n


def test_rank_proportional_rows():
    m = RationalMatrix.from_rows([[1, 2], [2, 4], [3, 6]])
    assert rank(m) == 1


def test_rank_agrees_with_naive_elimination():
    rng = random.Random(20240901)
    for _ in range(150):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert rank(m) == naive_rank(m)


def test_rank_equals_transpose_rank():
    rng = random.Random(7)
    for _ in range(100):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert rank(m) == rank(m.transpose())


def test_kernel_of_identity_is_empty():
    assert kernel_basis(identity(4)) == []


def test_kernel_of_difference_form():
    (v,) = kernel_basis(RationalMatrix.from_rows([[1, -1]]))
    assert v[0] == v[1] != 0


def test_kernel_vectors_are_exact_and_count_matches_nullity():
    rng = random.Random(99)
    for _ in range(120):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        basis = kernel_basis(m)
        assert len(basis) == m.cols - rank(m)
        for v in basis:
            assert all(c == 0 for c in m.apply(v))
        if basis:
            stacked = RationalMatrix.from_rows([list(v) for v in basis])
            assert rank(stacked) == len(basis)


def test_kernel_basis_is_deterministic():
    m = RationalMatrix.from_rows([[0, 1, 2, 0], [0, 2, 4, 0]])
    assert kernel_basis(m) == kernel_basis(m)


def test_in_image_zero_vector():
    m = RationalMatrix.from_rows([[1, 2], [3, 4], [5, 6]])
    sol = in_image(m, (0, 0, 0))
    assert sol == (0, 0)


def test_in_image_identity_returns_vector():
    m = identity(3)
    assert in_image(m, (1, Fraction(1, 2), -3)) == (1, Fraction(1, 2), -3)


def test_in_image_detects_inconsistency():
    m = RationalMatrix.from_rows([[1, 0], [0, 0]])
    assert in_image(m, (0, 1)) is None


def test_in_image_roundtrip_random():
    rng = random.Random(3)
    for _ in range(100):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        u = tuple(Fraction(rng.randint(-3, 3)) for _ in range(m.cols))
        target = m.apply(u)
        sol = in_image(m, target)
        assert sol is not None
        assert m.apply(sol) == target


def test_invert_roundtrip_and_singular():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n)
        if rank(m) < n:
            with pytest.raises(ValueError):
                invert(m)
            continue
        assert matrix_product(m, invert(m)) == identity(n)
    with pytest.raises(ValueError):
        invert(RationalMatrix(2, 2))


def test_span_basis_is_canonical():
    a = span_basis([[1, 1, 0], [0, 1, 1]], 3)
    b = span_basis([[1, 2, 1], [2, 3, 1], [1, 1, 0]], 3)
    assert a == b
    assert span_basis([[0, 0]], 2) == []


# --- the sparse elimination kernel against plain Fraction elimination ---


def naive_rref(rows, width):
    """Reduced row echelon form over Fraction, pivots as the leftmost columns."""
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows[:len(pivots)], pivots


def naive_kernel(m):
    """One vector per free column: free coordinate 1, pivots from the RREF."""
    rref, pivots = naive_rref(m.to_rows(), m.cols)
    basis = []
    for f in range(m.cols):
        if f in pivots:
            continue
        x = [Fraction(0)] * m.cols
        x[f] = Fraction(1)
        for row, c in zip(rref, pivots):
            x[c] = -row[f]
        basis.append(tuple(x))
    return basis


def naive_preimage(m, target):
    """Minimal pivot solution of m x = target, or None."""
    rref, pivots = naive_rref([r + [Fraction(t)] for r, t in zip(m.to_rows(), target)],
                              m.cols + 1)
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for row, c in zip(rref, pivots):
        x[c] = row[m.cols]
    return tuple(x)


ENTRIES = {
    "sparse": st.sampled_from([0] * 8 + [1, -1, 2, -3]),
    "dense": st.integers(-5, 5).filter(bool),
    "huge": st.integers(-10**6, 10**6),
    "rational": st.fractions(min_value=-40, max_value=40, max_denominator=97),
}


@st.composite
def matrices(draw, max_side=7):
    kind = draw(st.sampled_from(sorted(ENTRIES) + ["low_rank"]))
    rows = draw(st.integers(0, max_side))
    cols = draw(st.integers(0, max_side))
    if kind == "low_rank":
        # a product through a narrow middle dimension: rank-deficient, dense
        inner = draw(st.integers(0, 3))
        cell = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]
        a = RationalMatrix(rows, inner, draw(st.lists(
            st.lists(cell, min_size=inner, max_size=inner), min_size=rows, max_size=rows)))
        b = RationalMatrix(inner, cols, draw(st.lists(
            st.lists(cell, min_size=cols, max_size=cols), min_size=inner, max_size=inner)))
        return matrix_product(a, b)
    return RationalMatrix(rows, cols, draw(st.lists(
        st.lists(ENTRIES[kind], min_size=cols, max_size=cols), min_size=rows, max_size=rows)))


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_and_kernel_match_the_fraction_oracle(m):
    assert rank(m) == naive_rank(m)
    assert kernel_basis(m) == naive_kernel(m)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_in_image_matches_the_fraction_oracle(m, data):
    cell = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=30)
    u = data.draw(st.lists(cell, min_size=m.cols, max_size=m.cols))
    inside = m.apply(u)
    assert in_image(m, inside) == naive_preimage(m, inside)
    assert m.apply(in_image(m, inside)) == inside
    anywhere = data.draw(st.lists(cell, min_size=m.rows, max_size=m.rows))
    assert in_image(m, anywhere) == naive_preimage(m, anywhere)
    # several right-hand sides in one solve: each answer is the lone one,
    # and one target outside the image makes the whole solve None
    targets = [m.apply(data.draw(st.lists(cell, min_size=m.cols, max_size=m.cols)))
               for _ in range(data.draw(st.integers(0, 4)))]
    targets.insert(data.draw(st.integers(0, len(targets))), inside)
    assert solve(m, targets) == [naive_preimage(m, t) for t in targets]
    targets.insert(data.draw(st.integers(0, len(targets))), anywhere)
    expected = [naive_preimage(m, t) for t in targets]
    assert solve(m, targets) == (None if None in expected else expected)
    assert solve(m, []) == []


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_span_basis_and_inverse_match_the_fraction_oracle(m):
    rref, _ = naive_rref(m.to_rows(), m.cols)
    assert span_basis(m.to_rows(), m.cols) == [tuple(r) for r in rref]
    if m.rows == m.cols:
        if rank(m) < m.rows:
            with pytest.raises(ValueError):
                invert(m)
        else:
            assert matrix_product(invert(m), m) == identity(m.rows)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_extend_independent_matches_the_sequential_rank_loop(m, data):
    columns = [m.column(j) for j in range(m.cols)]
    split = data.draw(st.integers(0, len(columns)))
    base, cands = columns[:split], columns[split:]
    # a zero vector and a vector dependent on the rest of base
    for extra in data.draw(st.lists(st.sampled_from(["zero", "sum"]), max_size=2)):
        v = (zero_vector(m.rows) if extra == "zero" or not base
             else tuple(x + y for x, y in zip(base[0], base[-1])))
        base.insert(data.draw(st.integers(0, len(base))), v)
    picked = extend_independent(base, cands, m.rows)
    assert picked == sequential_extend(base, cands, m.rows)
    assert len(picked) == (naive_rank(RationalMatrix.from_columns(base + cands))
                           - naive_rank(RationalMatrix.from_columns(base)))


# --- the sparse matrix class against plain lists of lists ---


def stores_no_zero(m: RationalMatrix) -> bool:
    return all(x != 0 for r in m._rows for x in r.values())


@settings(max_examples=100, deadline=None)
@given(matrices(), st.data())
def test_sparse_matrix_matches_the_list_oracle(m, data):
    a = m.to_rows()
    assert stores_no_zero(m)
    assert all(type(x) is Fraction for r in a for x in r)
    assert RationalMatrix(m.rows, m.cols, a) == m
    if m.rows:
        assert RationalMatrix.from_rows(a) == m
    if m.cols:
        assert RationalMatrix.from_columns([[r[j] for r in a] for j in range(m.cols)]) == m
    for i in range(m.rows):
        assert m.row(i) == tuple(a[i])
        for j in range(m.cols):
            assert m[i, j] == a[i][j]
    for j in range(m.cols):
        assert m.column(j) == tuple(r[j] for r in a)
    results = []

    t = m.transpose()
    assert (t.rows, t.cols) == (m.cols, m.rows)
    assert t.to_rows() == [[a[i][j] for i in range(m.rows)] for j in range(m.cols)]
    results.append(t)

    v = data.draw(st.lists(ENTRIES["rational"], min_size=m.cols, max_size=m.cols))
    assert m.apply(v) == tuple(sum((x * y for x, y in zip(r, v)), Fraction(0)) for r in a)

    assert m.scale(0) == RationalMatrix(m.rows, m.cols)
    k = data.draw(ENTRIES["rational"])
    assert m.scale(k).to_rows() == [[k * x for x in r] for r in a]
    results += [m.scale(0), m.scale(k)]

    assert m.is_zero() == all(x == 0 for r in a for x in r)
    assert (m == RationalMatrix(m.rows, m.cols)) == m.is_zero()
    assert all(stores_no_zero(r) for r in results)


def test_floats_and_bools_are_refused():
    from liecohom import (ExteriorForm, LieAlgebra, OneForm, StructureError, load_example,
                          novikov_report)
    from liecohom.linalg import vector

    sol3 = load_example("sol3", k=1).algebra
    for bad in (0.1, 0.5, 1.0, True, False, "0.5", "1e5000000", "\u0661", "1/0", "x",
                None, [1], Decimal("0.1")):
        for make in (lambda: vector([1, bad]),
                     lambda: OneForm([bad, 0, 0]),
                     lambda: OneForm([1, 0, 0]).evaluate([bad, 0, 0]),
                     lambda: RationalMatrix.from_rows([[bad, 1]]),
                     lambda: RationalMatrix.from_columns([[1], [bad]]),
                     lambda: identity(2).apply([bad, 0]),
                     lambda: identity(2).scale(bad),
                     lambda: ExteriorForm(3, 1, {(1,): bad}),
                     # a list cannot be a key; its tuple stands in for it as an index
                     lambda: ExteriorForm(3, 1, {(bad if isinstance(bad, Hashable)
                                                  else tuple(bad),): 1}),
                     lambda: ExteriorForm.basis(3, (1,)).scale(bad),
                     lambda: ExteriorForm.scalar(3, bad),
                     lambda: coords_to_form(3, 1, [bad, 0, 0]),
                     lambda: LieAlgebra.from_brackets(2, {(1, 2): (0, bad)}),
                     lambda: novikov_report(sol3, OneForm([1, 0, 0]), bad, [0, 1, 1, 0])):
            start = time.perf_counter()
            with pytest.raises(StructureError):
                make()
            # an exponent is refused by its spelling, before any digit is expanded
            assert time.perf_counter() - start < 0.1
    affine = LieAlgebra.from_brackets(2, {(1, 2): (0, 1)})
    for i, j in ((1.5, 2), (True, 2), (1, 2.0)):
        with pytest.raises(StructureError):
            affine.bracket_basis(i, j)
    assert vector(["1/2", -3, Fraction(2, 3)]) == (Fraction(1, 2), -3, Fraction(2, 3))
    assert RationalMatrix.from_rows([["1/2", 0]]) == RationalMatrix(1, 2, [[Fraction(1, 2), 0]])
    assert ExteriorForm(3, 1, {(1,): "1/10"}) == ExteriorForm(3, 1, {(1,): Fraction(1, 10)})
    assert OneForm([1, 2, 0]).evaluate(["1/2", 1, 0]) == Fraction(5, 2)


GRAMMAR = r"[+-]?([0-9]+)(?:/([0-9]+))?"


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(), st.from_regex(rf"\s*{GRAMMAR}\s*", fullmatch=True),
                 st.none(), st.lists(st.integers(), max_size=2), st.floats(),
                 st.booleans(), st.integers(), st.fractions()))
def test_every_value_is_a_fraction_or_a_structure_error(x):
    from liecohom import StructureError
    from liecohom.linalg import _exact

    literal = re.fullmatch(GRAMMAR, x.strip()) if isinstance(x, str) else None
    if literal and int(literal[2] or 1):
        expected = Fraction(int(literal[0].partition("/")[0]), int(literal[2] or 1))
    elif type(x) in (int, Fraction):
        expected = Fraction(x)
    else:
        with pytest.raises(StructureError):
            _exact(x)
        return
    q = _exact(x)
    assert type(q) is Fraction and q == expected


def test_matrix_dimensions_must_be_ints():
    from liecohom import StructureError

    # RationalMatrix(True, 1) used to keep rows == True; a float or a string raised TypeError
    for rows, cols in ((True, 1), (1, False), (2.5, 1), ("2", 1), (1, None)):
        with pytest.raises(StructureError):
            RationalMatrix(rows, cols)
    with pytest.raises(ValueError, match="nonnegative"):
        RationalMatrix(-1, 1)
    assert RationalMatrix(2, 0).rows == 2


def test_ragged_input_is_refused():
    for ragged in ([[1], [2, 3]], [[1, 2], [3]]):
        with pytest.raises(ValueError):
            RationalMatrix.from_rows(ragged)
        with pytest.raises(ValueError):
            RationalMatrix.from_columns(ragged)
    # one message, right for rows and for columns alike
    with pytest.raises(ValueError, match="^expected vectors of length 2, got length 1$"):
        RationalMatrix.from_columns([(1, 2), (1,)])


def test_dense_views_check_column_bounds():
    m = RationalMatrix.from_rows([[1, 2], [3, 0]])
    assert (m[1, -1], m[-1, 0], m.column(-1)) == (0, 3, (2, 0))
    for j in (2, -3):
        with pytest.raises(IndexError):
            m[0, j]
        with pytest.raises(IndexError):
            m.column(j)


sparse_int_rows = st.lists(st.dictionaries(st.integers(0, 11), st.integers(-9, 9).filter(bool),
                                           max_size=5), max_size=10)


@settings(max_examples=300, deadline=None)
@given(sparse_int_rows)
def test_reduce_matches_the_pivot_by_pivot_loop(rows):
    """_reduce visits each row's own pivot columns only; the loop checks every
    row above every pivot. Both make the same eliminations."""
    echelon, pivots = _echelon(rows)
    expected = [dict(r) for r in echelon]
    loop_reduce(expected, pivots)
    _reduce(echelon, pivots)
    assert echelon == expected
    assert all(c not in r for i, r in enumerate(echelon) for c in pivots if c != pivots[i])


far_apart_rows = st.lists(st.integers(0, 10**6), min_size=1, max_size=6, unique=True).flatmap(
    lambda cols: st.lists(st.dictionaries(st.sampled_from(cols), st.integers(-9, 9).filter(bool),
                                          max_size=4), max_size=8))


@settings(max_examples=40, deadline=None)
@given(far_apart_rows)
def test_echelon_matches_the_column_sweep(rows):
    """The heap yields the leading columns in the sweep's order: the same
    echelon rows, entry for entry and in order, and the same pivots."""
    echelon, pivots = _echelon(rows)
    expected, expected_pivots = sweep_echelon(rows)
    assert pivots == expected_pivots
    assert [list(r.items()) for r in echelon] == [list(r.items()) for r in expected]
