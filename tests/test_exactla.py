import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from glaw.exactla import (
    Matrix,
    SparseCols,
    _sparse_rref,
    combine,
    common_kernel,
    dense,
    format_scalar,
    image_basis,
    inverse_pairs,
    parse_scalar,
    rank,
    record,
    rref,
    solve_pairs,
    sparse_kernel,
    support,
    tight,
)
from glaw.liecore import LieAlgebraData, StructureError, ValidationReport
from glaw.localg import build_local
from glaw.tower import GradedComponent
from helpers import dense_kernel, gl_standard_triplet, mat_mul, mat_vec, sl2_triplet

F = Fraction


def kernel(m: Matrix) -> list[tuple]:
    """sparse_kernel of the rows of a dense matrix."""
    return sparse_kernel((dict(support(r)) for r in m.entries), m.cols)


def solve_dense(a: Matrix, bs) -> list[tuple | None]:
    """solve_pairs of a, by columns, on dense right-hand sides, each solution as a dense vector."""
    got = solve_pairs(SparseCols.from_matrix(a), [support(b) for b in bs])
    return [None if x is None else dense(x, a.cols) for x in got]


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


def test_an_exponent_is_refused_before_fraction_reads_it(monkeypatch):
    # Fraction("1e4000000") builds the power of ten in full before anything can refuse the text
    def unreachable(*args):
        raise AssertionError("Fraction was called")

    monkeypatch.setattr("glaw.exactla.Fraction", unreachable)
    for text in ("1e4000000", "1E4000000", "1.5e4000000", " 2.5 "):
        with pytest.raises(ValueError, match=r"only p/q form is accepted"):
            parse_scalar(text)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789/.eE+-_ x", max_size=7))
def test_parse_scalar_accepts_the_p_q_texts_that_fraction_reads(text):
    # the accepted set: every text Fraction reads, short of a decimal point or an exponent
    try:
        expected = Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        expected = None
    if any(ch in text for ch in ".eE"):
        expected = None
    try:
        got = parse_scalar(text)
    except ValueError:
        got = None
    assert got == expected and type(got) is type(expected)


def test_rank_identity_zero_and_dependent():
    assert rank(Matrix.identity(3)) == 3
    assert rank(Matrix.zeros(2, 5)) == 0
    assert rank(Matrix.from_rows([[1, 2], [2, 4]])) == 1


def test_kernel_identity_zero_and_line():
    assert kernel(Matrix.identity(4)) == []
    zk = kernel(Matrix.zeros(2, 3))
    assert zk == [(F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))]
    assert kernel(Matrix.from_rows([[1, 1]])) == [(F(-1), F(1))]


def test_solve_cases():
    ident = Matrix.identity(3)
    b = (F(2), F(-1), F(5))
    assert solve_dense(ident, [b]) == [b]
    assert solve_dense(Matrix.from_rows([[1, 1], [1, 1]]), [(1, 2)]) == [None]
    assert solve_dense(Matrix.from_rows([[2]]), [(1,)]) == [(F(1, 2),)]
    # a system that is not square: the free variable is 0
    assert solve_pairs(SparseCols(1, 2, (((0, 1),), ((0, 1),))), [((0, 3),)]) == [((0, 3),)]


def test_image_basis_cases():
    ib = image_basis(Matrix.identity(2))
    assert ib.pivots == (0, 1)
    assert ib.coord_cols.columns() == [(F(1), F(0)), (F(0), F(1))]
    ib = image_basis(Matrix.from_rows([[1, 2], [2, 4]]))
    assert ib.basis == ((F(1), F(2)),)
    assert ib.coord_cols.col(1) == (F(2),)
    ib = image_basis(Matrix.zeros(3, 2))
    assert ib.basis == ()
    assert all(c == () for c in ib.coord_cols.columns())


def test_rank_nullity_and_residual_on_random_matrices():
    rng = random.Random(20240811)
    for _ in range(25):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = Matrix.from_rows([[F(rng.randint(-4, 4)) for _ in range(cols)] for _ in range(rows)])
        assert rank(m) + len(kernel(m)) == cols
        x = tuple(F(rng.randint(-3, 3)) for _ in range(cols))
        b = mat_vec(m, x)
        (sol,) = solve_dense(m, [b])
        assert sol is not None
        assert mat_vec(m, sol) == b


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
        m = mat_mul(left, Matrix.from_rows([[entry() for _ in range(cols)] for _ in range(k)]))
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
        assert tuple(ib.coord_cols.columns()) == coords
    assert from_sparse == from_dense


def test_rref_of_zero_and_empty_matrices():
    for rows, cols in [(1, 1), (3, 4), (2, 0), (0, 3)]:
        r, pivots = rref(Matrix.zeros(rows, cols))
        assert pivots == () and r.entries == Matrix.zeros(rows, cols).entries
    r, pivots = rref(Matrix.from_rows([[0, 0, F(-3, 2)], [0, 0, 5], [0, 0, 0]]))
    assert pivots == (2,)
    assert r.entries == Matrix.from_rows([[0, 0, 1], [0, 0, 0], [0, 0, 0]]).entries
    assert kernel(Matrix.zeros(0, 2)) == [(F(1), F(0)), (F(0), F(1))]


def test_inverse():
    m = Matrix.from_rows([[1, 2], [3, 5]])
    inv = Matrix.from_cols([dense(c, 2) for c in inverse_pairs(SparseCols.from_matrix(m))])
    assert mat_mul(inv, m).entries == Matrix.identity(2).entries
    assert inverse_pairs(SparseCols.from_matrix(Matrix.from_rows([[1, 2], [2, 4]]))) is None


@pytest.mark.parametrize(
    "cols, nrows", [([(1,), (1, 2)], None), ([(1, 2), (1,)], None), ([(1, 0, 5)], 2)], ids=["long", "short", "explicit"]
)
def test_from_cols_refuses_a_column_of_the_wrong_length(cols, nrows):
    with pytest.raises(ValueError, match="column length does not match row count"):
        Matrix.from_cols(cols, nrows)


@pytest.mark.parametrize("vectors", [[(1, 0, 5)], [(1, 0), (1,)]], ids=["long", "short"])
def test_from_vectors_refuses_a_vector_of_the_wrong_length(vectors):
    # (1, 0, 5) is not a vector of the plane; it must not be truncated to (1, 0)
    with pytest.raises(ValueError, match="column length does not match row count"):
        SparseCols.from_vectors(vectors, 2)


def test_kernel_vectors_canonical_free_variable_convention():
    # one pivot at column 0; free columns 1 and 2 get the unit value in order
    m = Matrix.from_rows([[1, 2, 3]])
    assert kernel(m) == [(F(-2), F(1), F(0)), (F(-3), F(0), F(1))]


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
        b = mat_vec(a, draw(st.lists(st.one_of(st.just(F(0)), NONZERO), min_size=a.cols, max_size=a.cols)))
        if inconsistent and left_null:
            y, c = draw(st.sampled_from(left_null)), draw(NONZERO)
            b = tuple(x + c * v for x, v in zip(b, y))
        bs.append(b)
    return a, bs


@settings(max_examples=300, deadline=None)
@given(systems())
@example((Matrix.from_rows([[1, 0], [0, 0]]), [(F(0), F(1)), (F(2), F(0)), (F(1), F(3)), (F(0), F(0))]))
def test_solve_pairs_matches_sympy_column_by_column(system):
    # the example puts an inconsistent b before a consistent one, twice
    a, bs = system
    got = solve_dense(a, bs)
    assert len(got) == len(bs)
    for b, x in zip(bs, got):
        assert x == sympy_solve(a, b)
        assert x is None or mat_vec(a, x) == b


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
    got = solve_pairs(SparseCols.from_matrix(a), bs)
    a0, bs0 = split_system(base, n)
    assert got == solve_pairs(SparseCols.from_matrix(a0), bs0)
    for b, x in zip(bs, got):
        assert (None if x is None else dense(x, n)) == sympy_solve(a, dense(b, m.rows))


# ---------------------------------------------------------------------------
# scalar representation: ints inside sparse supports, Fractions at the surface


@pytest.mark.parametrize("kind", [int, F], ids=["int", "fraction"])
@pytest.mark.parametrize(
    "xi, yj", [(1, 1), (-1, 1), (1, -1), (-1, -1), (2, 3), (F(1, 2), 2), (F(-1, 3), 3), (F(2, 3), F(1, 2))]
)
def test_combine_unit_coefficients_give_the_general_product(kind, xi, yj):
    # the sum of x_i y_j T[i][j] is one combine term (x_i, y, T[i]) per nonzero x_i
    table = [[(), ((0, kind(3)), (2, kind(-5)))], [(), ((1, kind(7)),)]]
    x, y = ((0, xi), (1, kind(2))), ((1, yj),)
    expected = [F(0)] * 3
    for i, a in x:
        for j, b in y:
            for k, e in table[i][j]:
                expected[k] += F(a) * F(b) * F(e)
    got = combine((x_i, y, table[i]) for i, x_i in x)
    assert dense(got, 3) == tuple(expected)
    if kind is int and type(xi) is type(yj) is int:
        assert all(type(v) is int for _, v in got)


SCALARS = st.one_of(st.integers(-4, 4), st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def combine_terms(draw):
    """(rows, terms, s) for combine: Fraction and int multipliers, coefficients and entries, empty
    coefs, indices repeated within coefs and within a column, and divisors s >= 1."""
    rows = draw(st.integers(1, 5))
    column = st.lists(st.tuples(st.integers(0, rows - 1), SCALARS), max_size=3).map(tuple)
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        cols = draw(st.lists(column, min_size=1, max_size=4))
        coefs = draw(st.lists(st.tuples(st.integers(0, len(cols) - 1), SCALARS), max_size=4))
        terms.append((draw(SCALARS), coefs, cols))
    return rows, terms, draw(st.integers(1, 6))


@settings(max_examples=150, deadline=None)
@given(combine_terms())
@example((2, [(F(1, 2), [(0, 2), (0, 2)], [((1, 3),)]), (-1, [(0, F(2, 3))], [((0, F(3, 2)),)])], 2))
def test_combine_matches_a_dense_fraction_oracle(case):
    # the sum over terms of m c cols[k], divided by s: its nonzero entries in index order, each an int
    # exactly when it is integral
    rows, terms, s = case
    expected = [F(0)] * rows
    for m, coefs, cols in terms:
        for k, c in coefs:
            for r, x in cols[k]:
                expected[r] += F(m) * F(c) * F(x)
    got = combine(terms, s)
    assert got == tuple((r, v / s) for r, v in enumerate(expected) if v)
    assert all(type(v) is (int if v.denominator == 1 else F) for _, v in got)


@st.composite
def map_families(draw):
    """(dim, maps) for common_kernel: up to four maps on Q^dim, each with up to five rows and given as (rows,
    columns), with int and Fraction entries, zero columns, and maps that repeat an earlier one."""
    dim = draw(st.integers(0, 6))
    maps = []
    for _ in range(draw(st.integers(0, 4))):
        if maps and draw(st.booleans()):
            maps.append(draw(st.sampled_from(maps)))
            continue
        rows = draw(st.integers(1, 5))
        entries = st.dictionaries(st.integers(0, rows - 1), SCALARS.filter(bool), max_size=3)
        maps.append((rows, draw(st.lists(entries.map(lambda d: tuple(sorted(d.items()))), min_size=dim, max_size=dim))))
    return dim, maps


@settings(max_examples=150, deadline=None)
@given(map_families())
@example((3, []))
@example((2, [(2, [(), ()])]))
@example((3, [(2, [((0, 1),), (), ((0, F(1, 2)), (1, -3))])] * 2))
def test_common_kernel_matches_the_dense_kernel_of_the_stacked_maps(case):
    # the vectors every map kills: with no maps all of Q^dim, a zero column a free variable, a repeated map no
    # new condition
    dim, maps = case
    stacked = [[dict(col).get(r, 0) for col in cols] for rows, cols in maps for r in range(rows)]
    got = common_kernel(dim, [cols for _, cols in maps])
    assert got == dense_kernel(stacked, dim)
    assert only_fractions(*got)


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
        assert only_fractions(*kernel(a))
        values = [x for sol in solve_pairs(SparseCols.from_matrix(a), [support(c) for c in cols]) for _, x in sol]
        assert all(type(x) is (int if x.denominator == 1 else F) for x in values)
        ib = image_basis(a)
        assert only_fractions(*ib.basis, *ib.coord_cols.columns())
        sparse = SparseCols(a.rows, a.cols, tuple(tuple((i, tight(x)) for i, x in support(c)) for c in cols))
        assert only_fractions(*image_basis(sparse).basis, *image_basis(sparse).coord_cols.columns())
        assert only_fractions(sparse.col(0), *sparse.columns(), *sparse.to_matrix().entries)
    inv = inverse_pairs(SparseCols.from_matrix(Matrix.from_rows([[2, 1], [1, 1]]).scale(F(1, 3))))
    assert [type(x) for col in inv for _, x in col] == [int] * 4
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


@record
class Pair:
    a: int | F
    b: int | F


@record
class OtherPair:
    a: int | F
    b: int | F


EXACT = st.one_of(st.integers(-2, 2), st.builds(F, st.integers(-2, 2), st.integers(1, 2)))


@settings(max_examples=200, deadline=None)
@given(st.tuples(EXACT, EXACT), st.tuples(EXACT, EXACT))
@example((1, F(1, 2)), (F(1), F(1, 2)))
def test_records_are_equal_exactly_when_their_fields_are(a, b):
    assert (Pair(*a) == Pair(*b)) is (a == b)
    assert (Pair(*a) != Pair(*b)) is (a != b)
    if a == b:
        assert hash(Pair(*a)) == hash(Pair(*b))
    assert Pair(*a) == Pair(b=a[1], a=a[0])


def test_a_record_never_equals_a_record_of_another_class_with_the_same_fields():
    assert Pair(1, 2) != OtherPair(1, 2) and not Pair(1, 2) == OtherPair(1, 2)
    assert Pair(1, 2).__eq__(OtherPair(1, 2)) is NotImplemented
    assert Pair(1, 2) != (1, 2)
    assert repr(Pair(1, F(1, 2))) == "Pair(a=1, b=Fraction(1, 2))"


def test_a_record_refuses_assignment_and_deletion():
    p = Pair(1, 2)
    with pytest.raises(AttributeError):
        p.a = 3
    with pytest.raises(AttributeError):
        p.c = 3
    with pytest.raises(AttributeError):
        del p.a
    assert p == Pair(1, 2) and "c" not in p.__dict__


@pytest.mark.parametrize(
    "args, kwargs",
    [((1,), {}), ((1, 2, 3), {}), ((1,), {"c": 2}), ((1, 2), {"c": 3}), ((1,), {"a": 2}), ((), {"b": 2})],
    ids=["too-few", "too-many", "unknown-keyword", "extra-keyword", "repeated-keyword", "missing-keyword"],
)
def test_a_record_refuses_a_wrong_argument_list(args, kwargs):
    with pytest.raises(TypeError, match=r"Pair\(a, b\)"):
        Pair(*args, **kwargs)


def test_post_init_still_refuses_a_bad_shape_and_stores_integral_values_as_ints():
    with pytest.raises(StructureError, match="structure table has wrong shape"):
        LieAlgebraData(2, ((), ()))
    with pytest.raises(StructureError, match="structure table has wrong shape"):
        LieAlgebraData(dim=2, structure_pairs=(((), ()),))
    g = LieAlgebraData(2, (((), ((1, F(2)),)), (((1, F(-2)),), ())))
    assert g.structure_pairs[0][1] == ((1, 2),) and type(g.structure_pairs[0][1][0][1]) is int
    ints = LieAlgebraData(2, (((), ((1, 2),)), (((1, -2),), ())))
    assert g == ints and hash(g) == hash(ints)


def test_graded_components_that_differ_only_in_the_lift_are_equal():
    a = GradedComponent(1, (), (), None, lambda: ())
    b = GradedComponent(1, (), (), None, tuple)
    assert a == b and hash(a) == hash(b)
    assert a != GradedComponent(2, (), (), None, tuple)
    assert "_lift" not in repr(a) and repr(a) == "GradedComponent(dim=1, lower=(), provenance=(), tensor_coords=None)"


def test_validation_reports_keep_value_equality_and_stay_unhashable():
    r = ValidationReport([])
    r.add("x")
    assert r == ValidationReport(["x"]) and r != ValidationReport([]) and not r.ok
    with pytest.raises(TypeError):
        hash(r)


@pytest.mark.parametrize("make", [sl2_triplet, lambda: gl_standard_triplet(2)], ids=["sl2", "gl2"])
def test_a_pickled_triplet_and_local_algebra_come_back_equal_with_equal_hashes(make):
    t = make()
    local = build_local(t)
    for x in (t, local):
        back = pickle.loads(pickle.dumps(x))
        assert type(back) is type(x) and back == x and hash(back) == hash(x)
