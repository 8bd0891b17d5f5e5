import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecohom.linalg import (
    RationalMatrix,
    extend_independent,
    in_image,
    invert,
    kernel_basis,
    rank,
    solve,
    span_basis,
    vec_add,
    zero_vector,
)

from conftest import sequential_extend


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
        assert rank(RationalMatrix.identity(n)) == n


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
    assert kernel_basis(RationalMatrix.identity(4)) == []


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
    m = RationalMatrix.identity(3)
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
        assert m @ invert(m) == RationalMatrix.identity(n)
    with pytest.raises(ValueError):
        invert(RationalMatrix(2, 2))


def test_span_basis_is_canonical():
    a = span_basis([[1, 1, 0], [0, 1, 1]], 3)
    b = span_basis([[1, 2, 1], [2, 3, 1], [1, 1, 0]], 3)
    assert a == b
    assert span_basis([[0, 0]], 2) == []


def test_matmul_and_shapes():
    a = RationalMatrix.from_rows([[1, 2], [3, 4]])
    b = RationalMatrix.from_rows([[0, 1], [1, 0]])
    assert a @ b == RationalMatrix.from_rows([[2, 1], [4, 3]])
    with pytest.raises(ValueError):
        RationalMatrix(2, 3) @ RationalMatrix(2, 3)


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
        return a @ b
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
            assert invert(m) @ m == RationalMatrix.identity(m.rows)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_extend_independent_matches_the_sequential_rank_loop(m, data):
    columns = [m.column(j) for j in range(m.cols)]
    split = data.draw(st.integers(0, len(columns)))
    base, cands = columns[:split], columns[split:]
    # a zero vector and a vector dependent on the rest of base
    for extra in data.draw(st.lists(st.sampled_from(["zero", "sum"]), max_size=2)):
        v = zero_vector(m.rows) if extra == "zero" or not base else vec_add(base[0], base[-1])
        base.insert(data.draw(st.integers(0, len(base))), v)
    picked = extend_independent(base, cands, m.rows)
    assert picked == sequential_extend(base, cands, m.rows)
    assert len(picked) == (naive_rank(RationalMatrix.from_columns(base + cands))
                           - naive_rank(RationalMatrix.from_columns(base)))


# --- the sparse matrix class against plain lists of lists ---


def stores_no_zero(m: RationalMatrix) -> bool:
    return all(x != 0 for r in m._rows for x in r.values())


def grid(data, rows, cols, cell=ENTRIES["rational"]):
    return data.draw(st.lists(st.lists(cell, min_size=cols, max_size=cols),
                              min_size=rows, max_size=rows))


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

    width = data.draw(st.integers(0, 4))
    b = grid(data, m.cols, width, ENTRIES[data.draw(st.sampled_from(sorted(ENTRIES)))])
    product = m @ RationalMatrix(m.cols, width, b)
    assert (product.rows, product.cols) == (m.rows, width)
    assert product.to_rows() == [
        [sum((r[k] * b[k][j] for k in range(m.cols)), Fraction(0)) for j in range(width)]
        for r in a]
    results.append(product)

    c = grid(data, m.rows, m.cols)
    total = m + RationalMatrix(m.rows, m.cols, c)
    assert total.to_rows() == [[x + y for x, y in zip(r, s)] for r, s in zip(a, c)]
    results += [total, m + m.scale(-1)]
    assert (m + m.scale(-1)).is_zero()

    assert m.scale(0) == RationalMatrix(m.rows, m.cols)
    k = data.draw(ENTRIES["rational"])
    assert m.scale(k).to_rows() == [[k * x for x in r] for r in a]
    results += [m.scale(0), m.scale(k)]

    if m.rows == m.cols:
        assert m.trace() == sum((a[i][i] for i in range(m.rows)), Fraction(0))
    assert m.is_zero() == all(x == 0 for r in a for x in r)
    assert (m == RationalMatrix(m.rows, m.cols)) == m.is_zero()
    assert all(stores_no_zero(r) for r in results)


def test_floats_and_bools_are_refused():
    from liecohom import OneForm, StructureError
    from liecohom.linalg import vector

    for bad in (0.5, 1.0, True, False):
        for make in (lambda: vector([1, bad]),
                     lambda: OneForm([bad, 0, 0]),
                     lambda: RationalMatrix.from_rows([[bad, 1]]),
                     lambda: RationalMatrix.from_columns([[1], [bad]]),
                     lambda: RationalMatrix.identity(2).apply([bad, 0]),
                     lambda: RationalMatrix.identity(2).scale(bad)):
            with pytest.raises(StructureError):
                make()
    assert vector(["1/2", -3, Fraction(2, 3)]) == (Fraction(1, 2), -3, Fraction(2, 3))
    assert RationalMatrix.from_rows([["1/2", 0]]) == RationalMatrix(1, 2, [[Fraction(1, 2), 0]])


def test_ragged_input_is_refused():
    for ragged in ([[1], [2, 3]], [[1, 2], [3]]):
        with pytest.raises(ValueError):
            RationalMatrix.from_rows(ragged)
        with pytest.raises(ValueError):
            RationalMatrix.from_columns(ragged)


def test_dense_views_check_column_bounds():
    m = RationalMatrix.from_rows([[1, 2], [3, 0]])
    assert (m[1, -1], m[-1, 0], m.column(-1)) == (0, 3, (2, 0))
    for j in (2, -3):
        with pytest.raises(IndexError):
            m[0, j]
        with pytest.raises(IndexError):
            m.column(j)
