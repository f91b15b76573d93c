import random
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from glaw.exactla import (
    Matrix,
    SparseCols,
    _sparse_rref,
    bilinear,
    dense,
    format_scalar,
    image_basis,
    in_span,
    inverse,
    kernel_basis,
    parse_scalar,
    rank,
    rref,
    solve,
    solve_many,
    solve_pairs,
    sparse_kernel,
    support,
    tight,
)

F = Fraction


def test_scalar_round_trip():
    assert format_scalar(parse_scalar("3/4")) == "3/4"
    assert format_scalar(parse_scalar("-2")) == "-2"
    assert parse_scalar(" 5 ") == F(5)
    assert format_scalar(F(6, 4)) == "3/2"


@pytest.mark.parametrize("bad", ["1/0", "1.5", "2e3", "x", ""])
def test_scalar_rejects_junk(bad):
    with pytest.raises(ValueError):
        parse_scalar(bad)


def test_a_malformed_scalar_is_refused_the_same_way_every_time():
    # parse_scalar is memoized; a refusal must not be cached or turned into a value
    messages = []
    for _ in range(2):
        with pytest.raises(ValueError) as err:
            parse_scalar("1/0")
        messages.append(str(err.value))
    assert messages == ["malformed rational '1/0'"] * 2
    assert parse_scalar("0") is parse_scalar("0") == 0


def test_rank_identity_zero_and_dependent():
    assert rank(Matrix.identity(3)) == 3
    assert rank(Matrix.zeros(2, 5)) == 0
    assert rank(Matrix.from_rows([[1, 2], [2, 4]])) == 1


def test_kernel_identity_zero_and_line():
    assert kernel_basis(Matrix.identity(4)) == []
    zk = kernel_basis(Matrix.zeros(2, 3))
    assert zk == [(F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))]
    assert kernel_basis(Matrix.from_rows([[1, 1]])) == [(F(-1), F(1))]


def test_solve_cases():
    ident = Matrix.identity(3)
    b = (F(2), F(-1), F(5))
    assert solve(ident, b) == b
    assert solve(Matrix.from_rows([[1, 1], [1, 1]]), (1, 2)) is None
    assert solve(Matrix.from_rows([[2]]), (1,)) == (F(1, 2),)


def test_image_basis_cases():
    ib = image_basis(Matrix.identity(2))
    assert ib.pivots == (0, 1)
    assert ib.coords == ((F(1), F(0)), (F(0), F(1)))
    ib = image_basis(Matrix.from_rows([[1, 2], [2, 4]]))
    assert ib.basis == ((F(1), F(2)),)
    assert ib.coords[1] == (F(2),)
    ib = image_basis(Matrix.zeros(3, 2))
    assert ib.basis == ()
    assert all(c == () for c in ib.coords)


def test_rank_nullity_and_residual_on_random_matrices():
    rng = random.Random(20240811)
    for _ in range(25):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = Matrix.from_rows([[F(rng.randint(-4, 4)) for _ in range(cols)] for _ in range(rows)])
        assert rank(m) + len(kernel_basis(m)) == cols
        x = tuple(F(rng.randint(-3, 3)) for _ in range(cols))
        b = m.matvec(x)
        sol = solve(m, b)
        assert sol is not None
        assert m.matvec(sol) == b


def test_rref_is_reduced_and_deterministic():
    m = Matrix.from_rows([[0, 2, 4], [1, 1, 1], [1, 3, 5]])
    r1, piv1 = rref(m)
    r2, piv2 = rref(m)
    assert r1.entries == r2.entries and piv1 == piv2
    for row_idx, pc in enumerate(piv1):
        assert r1.entries[row_idx][pc] == 1
        assert all(r1.entries[other][pc] == 0 for other in range(m.rows) if other != row_idx)


def sympy_rref(m: Matrix) -> tuple[list[list[Fraction]], tuple[int, ...]]:
    """Reference RREF from sympy's DomainMatrix over QQ (sympy is a test-only tool)."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    rows = [[QQ(x.numerator, x.denominator) for x in r] for r in m.entries]
    r, pivots = DomainMatrix(rows, (m.rows, m.cols), QQ).rref()
    return [[F(int(x.numerator), int(x.denominator)) for x in row] for row in r.to_list()], tuple(pivots)


def random_test_matrix(rng: random.Random) -> Matrix:
    """1x1 to 8x8 with denominators, negatives, zero entries, zero rows and zero
    columns; half are products through a narrow middle, so rank deficient."""
    rows, cols = rng.randint(1, 8), rng.randint(1, 8)

    def entry():
        return F(0) if rng.random() < 0.3 else F(rng.randint(-9, 9), rng.randint(1, 6))

    if rng.random() < 0.5:
        k = rng.randint(1, min(rows, cols))
        left = Matrix.from_rows([[entry() for _ in range(k)] for _ in range(rows)])
        m = left @ Matrix.from_rows([[entry() for _ in range(cols)] for _ in range(k)])
    else:
        m = Matrix.from_rows([[entry() for _ in range(cols)] for _ in range(rows)])
    zero_rows = {rng.randrange(rows) for _ in range(rng.randint(0, 1))}
    zero_cols = {rng.randrange(cols) for _ in range(rng.randint(0, 2))}
    return Matrix.from_rows(
        [[F(0) if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
         for i, row in enumerate(m.entries)]
    )


def test_rref_matches_sympy_on_random_matrices():
    rng = random.Random(20261018)
    for _ in range(300):
        m = random_test_matrix(rng)
        r, pivots = rref(m)
        expected, expected_pivots = sympy_rref(m)
        assert pivots == expected_pivots
        assert [list(row) for row in r.entries] == expected


NONZERO = st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 6))


@st.composite
def mostly_zero_matrices(draw, max_rows: int = 12, max_cols: int = 15) -> Matrix:
    """Up to max_rows x max_cols, a quarter of the cells or fewer nonzero, then some rows
    replaced by scaled copies or combinations of others and some by zeros."""
    rows, cols = draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols))
    grid = [[F(0)] * cols for _ in range(rows)]
    cell = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1), NONZERO)
    for i, j, x in draw(st.lists(cell, max_size=rows * cols // 4)):
        grid[i][j] = x
    row = st.integers(0, rows - 1)
    for dst, a, b, c in draw(st.lists(st.tuples(row, row, row, st.one_of(st.just(F(0)), NONZERO)), max_size=4)):
        grid[dst] = [x + c * y for x, y in zip(grid[a], grid[b])]
    for i in draw(st.lists(row, max_size=2)):
        grid[i] = [F(0)] * cols
    return Matrix.from_rows(grid)


@settings(max_examples=300, deadline=None)
@given(mostly_zero_matrices())
def test_rref_matches_sympy_on_mostly_zero_matrices(m):
    r, pivots = rref(m)
    expected, expected_pivots = sympy_rref(m)
    assert pivots == expected_pivots
    assert [list(row) for row in r.entries] == expected


@settings(max_examples=200, deadline=None)
@given(mostly_zero_matrices())
def test_image_basis_of_the_sparse_store_equals_that_of_the_dense_matrix(m):
    cols = tuple(tuple((i, x) for i, x in enumerate(m.col(j)) if x) for j in range(m.cols))
    sparse = SparseCols(m.rows, m.cols, cols)
    assert sparse.to_matrix().entries == m.entries
    r, pivots = rref(m)
    coords = tuple(tuple(r.entries[k][j] for k in range(len(pivots))) for j in range(m.cols))
    from_dense, from_sparse = image_basis(m), image_basis(sparse)
    for ib in (from_dense, from_sparse):
        assert ib.pivots == pivots
        assert ib.basis == tuple(m.col(p) for p in pivots)
        assert ib.coords == coords
    assert from_sparse == from_dense


def test_rref_of_zero_and_empty_matrices():
    for rows, cols in [(1, 1), (3, 4), (2, 0), (0, 3)]:
        r, pivots = rref(Matrix.zeros(rows, cols))
        assert pivots == () and r.entries == Matrix.zeros(rows, cols).entries
    r, pivots = rref(Matrix.from_rows([[0, 0, F(-3, 2)], [0, 0, 5], [0, 0, 0]]))
    assert pivots == (2,)
    assert r.entries == Matrix.from_rows([[0, 0, 1], [0, 0, 0], [0, 0, 0]]).entries
    assert kernel_basis(Matrix.zeros(0, 2)) == [(F(1), F(0)), (F(0), F(1))]


def test_matmul_matches_the_triple_loop():
    rng = random.Random(5)

    def grid(rows, cols):
        return [[F(rng.randint(-3, 3), rng.randint(1, 3)) * rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]

    for _ in range(100):
        p, q, s = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        a, b = grid(p, q), grid(q, s)
        expected = tuple(
            tuple(sum((a[i][k] * b[k][j] for k in range(q)), F(0)) for j in range(s)) for i in range(p)
        )
        product = Matrix(p, q, tuple(map(tuple, a))) @ Matrix(q, s, tuple(map(tuple, b)))
        assert (product.rows, product.cols, product.entries) == (p, s, expected)


def test_inverse():
    m = Matrix.from_rows([[1, 2], [3, 5]])
    assert (inverse(m) @ m).entries == Matrix.identity(2).entries
    with pytest.raises(ValueError):
        inverse(Matrix.from_rows([[1, 2], [2, 4]]))


@pytest.mark.parametrize(
    "cols, nrows", [([(1,), (1, 2)], None), ([(1, 2), (1,)], None), ([(1, 0, 5)], 2)], ids=["long", "short", "explicit"]
)
def test_from_cols_refuses_a_column_of_the_wrong_length(cols, nrows):
    with pytest.raises(ValueError, match="column length does not match row count"):
        Matrix.from_cols(cols, nrows)


def test_in_span_refuses_vectors_longer_than_v():
    # (1, 0, 5) is not a vector of the plane; it must not be truncated to (1, 0)
    with pytest.raises(ValueError):
        in_span((1, 0), [(1, 0, 5)])


def test_kernel_vectors_canonical_free_variable_convention():
    # one pivot at column 0; free columns 1 and 2 get the unit value in order
    m = Matrix.from_rows([[1, 2, 3]])
    assert kernel_basis(m) == [(F(-2), F(1), F(0)), (F(-3), F(0), F(1))]


def sympy_solve(a: Matrix, b: tuple) -> tuple | None:
    """The solution of a x = b with free variables 0, read off sympy's RREF of [a | b]."""
    r, pivots = sympy_rref(Matrix.from_rows([list(row) + [x] for row, x in zip(a.entries, b)]))
    if pivots and pivots[-1] == a.cols:
        return None
    x = [F(0)] * a.cols
    for k, pc in enumerate(pivots):
        x[pc] = r[k][a.cols]
    return tuple(x)


@st.composite
def systems(draw) -> tuple[Matrix, list[tuple]]:
    """A mostly-zero a up to 8x10 and up to 6 right-hand sides, each a x
    (consistent) or a x + c y for a left null vector y of a and c != 0
    (inconsistent whenever a has one), in any order."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    a = draw(mostly_zero_matrices(8, 10))
    at = [[QQ(x.numerator, x.denominator) for x in a.col(j)] for j in range(a.cols)]
    null = DomainMatrix(at, (a.cols, a.rows), QQ).nullspace().to_list()
    left_null = [tuple(F(int(x.numerator), int(x.denominator)) for x in y) for y in null]
    bs = []
    for inconsistent in draw(st.lists(st.booleans(), max_size=6)):
        b = a.matvec(draw(st.lists(st.one_of(st.just(F(0)), NONZERO), min_size=a.cols, max_size=a.cols)))
        if inconsistent and left_null:
            y, c = draw(st.sampled_from(left_null)), draw(NONZERO)
            b = tuple(x + c * v for x, v in zip(b, y))
        bs.append(b)
    return a, bs


@settings(max_examples=300, deadline=None)
@given(systems())
@example((Matrix.from_rows([[1, 0], [0, 0]]), [(F(0), F(1)), (F(2), F(0)), (F(1), F(3)), (F(0), F(0))]))
def test_solve_many_matches_sympy_column_by_column(system):
    # the example puts an inconsistent b before a consistent one, twice
    a, bs = system
    got = solve_many(a, bs)
    assert len(got) == len(bs)
    for b, x in zip(bs, got):
        assert x == sympy_solve(a, b)
        assert x is None or a.matvec(x) == b


@st.composite
def with_repeated_single_entry_rows(draw) -> tuple[Matrix, Matrix, int]:
    """A mostly-zero matrix with single-entry rows inserted, the same matrix with
    copies of those rows (repeated, sign-flipped or Fraction-scaled) inserted
    anywhere, and a split column n: columns n and up are solve_pairs' b block."""
    grid = [list(row) for row in draw(mostly_zero_matrices(8, 10)).entries]
    cols = len(grid[0])
    singles = draw(st.lists(st.tuples(st.integers(0, cols - 1), NONZERO), min_size=1, max_size=4))
    copies = draw(st.lists(st.tuples(st.sampled_from(singles), st.sampled_from([F(1), F(-1)]) | NONZERO), max_size=6))
    for j, x in singles:
        grid.insert(draw(st.integers(0, len(grid))), [x if c == j else F(0) for c in range(cols)])
    base = Matrix.from_rows(grid)
    for (j, x), scale in copies:
        grid.insert(draw(st.integers(0, len(grid))), [scale * x if c == j else F(0) for c in range(cols)])
    return Matrix.from_rows(grid), base, draw(st.integers(1, cols))


def split_system(m: Matrix, n: int) -> tuple[Matrix, list]:
    """[a | b_0 | b_1 | ...] with a the first n columns of m, each b as its nonzero pairs."""
    return Matrix.from_rows([row[:n] for row in m.entries]), [support(m.col(j)) for j in range(n, m.cols)]


@settings(max_examples=200, deadline=None)
@given(with_repeated_single_entry_rows())
@example((Matrix.from_rows([[1, 0, 0], [0, 0, -2], [0, 1, 0], [0, 0, 2], [0, 0, F(1, 3)]]),
          Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 2]]), 2))
def test_repeated_single_entry_rows_change_no_result(system):
    # the elimination keeps the first single-entry row of each column; a copy lies in the row space
    # (the example repeats a single-entry row of the b block, which makes that b inconsistent)
    m, base, n = system
    r, pivots = rref(m)
    expected, expected_pivots = sympy_rref(m)
    assert pivots == expected_pivots and [list(row) for row in r.entries] == expected
    r0, pivots0 = rref(base)
    assert pivots == pivots0 and r.entries[: len(pivots)] == r0.entries[: len(pivots)]
    rows, rows0 = ([dict(support(row)) for row in a.entries] for a in (m, base))
    assert sparse_kernel(rows, m.cols) == sparse_kernel(rows0, m.cols)
    ib, ib0 = image_basis(m), image_basis(base)
    assert (ib.pivots, ib.coord_cols) == (ib0.pivots, ib0.coord_cols)
    a, bs = split_system(m, n)
    got = solve_pairs(a, bs)
    assert got == solve_pairs(*split_system(base, n))
    for b, x in zip(bs, got):
        assert (None if x is None else dense(x, n)) == sympy_solve(a, dense(b, m.rows))


# ---------------------------------------------------------------------------
# scalar representation: ints inside sparse supports, Fractions at the surface


@pytest.mark.parametrize("kind", [int, F], ids=["int", "fraction"])
@pytest.mark.parametrize(
    "xi, yj", [(1, 1), (-1, 1), (1, -1), (-1, -1), (2, 3), (F(1, 2), 2), (F(-1, 3), 3), (F(2, 3), F(1, 2))]
)
def test_bilinear_unit_coefficients_give_the_general_product(kind, xi, yj):
    # x_i y_j = 1 or -1 adds or subtracts the entry without a multiply; every branch must equal c * e
    entries = {(0, 1): ((0, kind(3)), (2, kind(-5))), (1, 1): ((1, kind(7)),)}
    x, y = ((0, xi), (1, kind(2))), ((1, yj),)
    expected = [F(0)] * 3
    for i, a in x:
        for j, b in y:
            for k, e in entries[i, j]:
                expected[k] += F(a) * F(b) * F(e)
    assert bilinear(x, y, lambda i, j: entries[i, j], [F(0)] * 3) == expected
    got = bilinear(x, y, lambda i, j: entries[i, j], defaultdict(int))
    assert [got[k] for k in range(3)] == expected
    if kind is int and type(xi) is type(yj) is int:
        assert all(type(v) is int for v in got.values())


def only_fractions(*vectors) -> bool:
    return all(type(x) is F for v in vectors for x in v)


@settings(max_examples=100, deadline=None)
@given(mostly_zero_matrices(8, 10))
def test_every_dense_result_holds_only_fractions(m):
    # the integral copy makes the elimination return ints; each dense result converts them, and
    # solve_pairs, a sparse result, keeps an int exactly where a value is integral
    integral = Matrix.from_rows([[x.numerator for x in row] for row in m.entries])
    for a in (m, integral):
        cols = [a.col(j) for j in range(a.cols)]
        assert only_fractions(*rref(a)[0].entries)
        assert only_fractions(*kernel_basis(a))
        assert only_fractions(*sparse_kernel((dict(support(r)) for r in a.entries), a.cols))
        values = [x for sol in solve_pairs(a, [support(c) for c in cols]) for _, x in sol]
        assert all(type(x) is (int if x.denominator == 1 else F) for x in values)
        assert only_fractions(*solve_many(a, cols), solve(a, cols[0]))
        ib = image_basis(a)
        assert only_fractions(*ib.basis, *ib.coords)
        sparse = SparseCols(a.rows, a.cols, tuple(tuple((i, tight(x)) for i, x in support(c)) for c in cols))
        assert only_fractions(*image_basis(sparse).basis, *image_basis(sparse).coords)
        assert only_fractions(sparse.col(0), *sparse.columns(), *sparse.to_matrix().entries)
    assert only_fractions(*inverse(Matrix.from_rows([[1, 2], [3, 5]])).entries)
    assert only_fractions(dense(((0, 1), (2, -3)), 4))


@settings(max_examples=200, deadline=None)
@given(mostly_zero_matrices())
def test_sparse_rref_returns_an_int_exactly_for_an_integral_entry(m):
    reduced, pivots = _sparse_rref((dict(support(r)) for r in m.entries), m.cols)
    expected, expected_pivots = sympy_rref(m)
    assert pivots == expected_pivots
    assert [[row.get(j, 0) for j in range(m.cols)] for row in reduced] == expected[: len(pivots)]
    for row in reduced:
        for x in row.values():
            assert type(x) in (int, F) and (type(x) is int) == (x.denominator == 1)
