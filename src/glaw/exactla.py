"""Exact linear algebra over the rationals: dense at the surface, sparse inside.

Scalars are ``fractions.Fraction`` at the API (already canonical: reduced,
positive denominator, str() gives "p/q" or "p").  Vectors are tuples of
Fractions; ``Matrix`` is an immutable dense row-major grid and ``SparseCols``
an immutable matrix stored by columns, each column the tuple of its nonzero
(row, value) pairs.  In every sparse store of glaw (liecore's structure
pairs and action columns, the local table, the tower's maps, reduced rows)
an integral value is an ``int`` (``tight``) and any other a ``Fraction``:
both compare, hash, print and expose numerator and denominator alike, and
int multiply-adds are far cheaper.  Every dense result (``Matrix``, the dense
views of ``SparseCols`` and ``ImageBasis``, kernels, solutions) holds only
Fractions, converted by ``frac`` where it is built.  Elimination runs on
sparse integer rows ({column: int}, denominators cleared, each row divided
by the gcd of its entries) and divides each reduced row by its pivot at the
end, giving an int wherever the pivot divides the entry.  In each column the
pivot is the eligible row with the fewest nonzeros, ties to the lower row
index; the reduced row echelon form is unique, so that choice only changes
fill-in and never a result.  The bases produced here are canonical:
null-space bases set each free variable to 1 in increasing column order,
column-space bases are the pivot columns in left-to-right order.  Linear
systems sharing a matrix are solved together: ``solve_pairs`` eliminates
[a | b_0 | b_1 | ...] once on sparse right-hand sides, ``solve_many`` is its
dense form, and ``solve``, ``inverse`` and ``in_span`` are single calls to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Callable, Iterable, NamedTuple, Sequence

Scalar = Fraction
Vector = tuple[Fraction, ...]
Exact = int | Fraction  # a sparse value: an int when integral, else a Fraction
Pairs = Iterable[tuple[int, Exact]]  # nonzero (index, value) entries of a vector

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce ints, strings like "p/q", and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_scalar(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def tight(x: Exact) -> Exact:
    """x as an int when it is integral; any other value is returned as is."""
    return x.numerator if x.denominator == 1 else x


def tight_pairs(pairs: Pairs) -> tuple[tuple[int, Exact], ...]:
    """(index, value) pairs with each integral value as an int."""
    return tuple((k, tight(x)) for k, x in pairs)


@lru_cache(maxsize=4096)
def parse_scalar(text: str) -> Fraction:
    """Parse a canonical "p/q" or "p" string; reject junk and zero denominators (not cached)."""
    s = text.strip()
    try:
        value = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {text!r}") from exc
    if "." in s or "e" in s or "E" in s:
        raise ValueError(f"malformed rational {text!r} (only p/q form is accepted)")
    return value


def format_scalar(x: Fraction) -> str:
    return str(x)


def as_vector(seq: Iterable) -> Vector:
    return tuple(frac(v) for v in seq)


def vzero(n: int) -> Vector:
    return (ZERO,) * n


def vadd(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vsub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vneg(a: Vector) -> Vector:
    return tuple(-x for x in a)


def vscale(c: Fraction, a: Vector) -> Vector:
    return tuple(c * x for x in a)


def vdot(a: Vector, b: Vector) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), ZERO)


def vis_zero(a: Vector) -> bool:
    return all(x == 0 for x in a)


def support(v: Sequence) -> list[tuple[int, Fraction]]:
    """The nonzero (index, value) entries of a dense vector."""
    return [(i, x) for i, x in enumerate(v) if x]


def dense(x: Pairs, n: int) -> Vector:
    """The length-n Fraction vector with the given nonzero (index, value) entries."""
    out = [ZERO] * n
    for i, v in x:
        out[i] = frac(v)
    return tuple(out)


def numerators(cols: Iterable[Pairs]) -> tuple[int, list[tuple[tuple[int, int], ...]]]:
    """The lcm d of the denominators of (index, value) columns, and the columns times d, as ints."""
    cols = list(cols)
    d = lcm(*(x.denominator for col in cols for _, x in col))
    return d, cols if d == 1 else [tuple((k, x.numerator * (d // x.denominator)) for k, x in col) for col in cols]


def combine(terms: Iterable[tuple[int, Pairs, Sequence[Pairs]]], s: int = 1) -> tuple[tuple[int, Exact], ...]:
    """The sum over terms (m, coefs, cols) of m c cols[k] for each (k, c) in coefs, divided by s: its nonzero
    entries in index order.  On int coefficients and columns it accumulates ints and divides each entry once."""
    acc: dict[int, int] = {}
    for m, coefs, cols in terms:
        for k, c in coefs:
            c *= m
            for r, x in cols[k]:
                acc[r] = acc.get(r, 0) + c * x
    return divided(sorted(acc.items()), s)


def divided(pairs: Iterable[tuple[int, int]], s: int) -> tuple[tuple[int, Exact], ...]:
    """The nonzero (index, x / s) of int pairs, each an int where s divides x, else a Fraction."""
    return tuple((k, x // s if x % s == 0 else Fraction(x, s)) for k, x in pairs if x)


def bilinear(x: Pairs, y: Pairs, entry: Callable[[int, int], Pairs], out):
    """Add the sum of x_i y_j entry(i, j) into out and return it.

    x and y are walked over their supports, ``entry(i, j)`` gives the nonzero
    pairs of a vector (a structure constant, a column of a stored map), and
    ``out`` is a dense list or a dict defaulting to 0.  A pair of basis
    vectors costs one entry read, and a coefficient x_i y_j of 1 or -1 adds
    or subtracts the entries without a multiply.
    """
    y = list(y)
    for i, xi in x:
        for j, yj in y:
            c = xi * yj
            if c == 1:
                for k, e in entry(i, j):
                    out[k] += e
            elif c == -1:
                for k, e in entry(i, j):
                    out[k] -= e
            else:
                for k, e in entry(i, j):
                    out[k] += c * e
    return out


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix of Fractions, row-major."""

    rows: int
    cols: int
    entries: tuple[Vector, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("entry grid does not match declared shape")

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Matrix":
        ents = tuple(as_vector(r) for r in rows)
        ncols = len(ents[0]) if ents else 0
        return Matrix(len(ents), ncols, ents)

    @staticmethod
    def from_cols(cols: Sequence[Sequence], nrows: int | None = None) -> "Matrix":
        cols = [as_vector(c) for c in cols]
        if nrows is None:
            if not cols:
                raise ValueError("from_cols with no columns needs an explicit row count")
            nrows = len(cols[0])
        if any(len(c) != nrows for c in cols):
            raise ValueError("column length does not match row count")
        rows = tuple(tuple(c[i] for c in cols) for i in range(nrows))
        return Matrix(nrows, len(cols), rows)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)))

    @staticmethod
    def zeros(r: int, c: int) -> "Matrix":
        return Matrix(r, c, tuple((ZERO,) * c for _ in range(r)))

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, tuple(self.col(j) for j in range(self.cols)))

    def matvec(self, v: Sequence) -> Vector:
        v = as_vector(v)
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(vdot(r, v) for r in self.entries)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        out = []
        for r in self.entries:
            acc = [ZERO] * other.cols
            for k, x in enumerate(r):
                if x:
                    for j, y in enumerate(other.entries[k]):
                        if y:
                            acc[j] += x * y
            out.append(tuple(acc))
        return Matrix(self.rows, other.cols, tuple(out))

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(self.rows, self.cols, tuple(vadd(a, b) for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(vneg(r) for r in self.entries))

    def scale(self, c) -> "Matrix":
        c = frac(c)
        return Matrix(self.rows, self.cols, tuple(vscale(c, r) for r in self.entries))

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.entries[i][j] == self.entries[j][i] for i in range(self.rows) for j in range(i)
        )


def hstack(mats: Sequence[Matrix]) -> Matrix:
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("row counts differ")
    return Matrix(rows, sum(m.cols for m in mats), tuple(sum((m.entries[i] for m in mats), ()) for i in range(rows)))


class SparseCols(NamedTuple):
    """Immutable matrix stored by columns.

    ``support[j]`` holds the nonzero entries of column j as (row, value) pairs
    in increasing row order, so equal matrices have equal supports.  A value
    may be an int or a Fraction; the dense views hold Fractions.
    """

    rows: int
    cols: int
    support: tuple[tuple[tuple[int, Exact], ...], ...]

    @staticmethod
    def from_matrix(m: Matrix) -> "SparseCols":
        """The columns of a dense matrix, each integral value as an int."""
        return SparseCols(m.rows, m.cols, tuple(tight_pairs(support(m.col(j))) for j in range(m.cols)))

    def col(self, j: int) -> Vector:
        return dense(self.support[j], self.rows)

    def columns(self) -> list[Vector]:
        return [self.col(j) for j in range(self.cols)]

    def to_matrix(self) -> Matrix:
        return Matrix(self.cols, self.rows, tuple(self.columns())).transpose()

    def transpose(self) -> "SparseCols":
        rows: list[list[tuple[int, Exact]]] = [[] for _ in range(self.rows)]
        for j, col in enumerate(self.support):
            for i, x in col:
                rows[i].append((j, x))
        return SparseCols(self.cols, self.rows, tuple(map(tuple, rows)))


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """The row divided by its content (the gcd of its entries)."""
    g = gcd(*row.values())
    return row if g <= 1 else {j: x // g for j, x in row.items()}


def _integer_row(row: dict[int, Exact]) -> dict[int, int]:
    """A sparse rational row scaled by the lcm of its denominators, then made primitive."""
    den = lcm(*(x.denominator for x in row.values()))
    return _primitive({j: x.numerator * (den // x.denominator) for j, x in row.items()})


def _eliminate(row: dict[int, int], prow: dict[int, int], col: int) -> dict[int, int]:
    """(p/g) row - (f/g) prow, g = gcd(p, f), made primitive: clears row[col]."""
    p, f = prow[col], row[col]
    g = gcd(p, f)
    a, b = p // g, f // g
    out = {j: a * x for j, x in row.items()} if a != 1 else dict(row)
    for j, x in prow.items():
        v = out.get(j, 0) - b * x
        if v:
            out[j] = v
        else:
            del out[j]
    return _primitive(out)


def _sparse_rref(rows: Iterable[dict[int, Exact]], ncols: int) -> tuple[list[dict[int, Exact]], tuple[int, ...]]:
    """Nonzero rows of the reduced row echelon form of rows with ncols
    columns, in pivot order, and the pivots.

    Gauss-Jordan elimination on sparse integer rows (fraction-free,
    gcd-normalised in the style of Bareiss).  A single-entry row {j: x}
    only says x_j = 0: it enters as {j: 1}, and a later single-entry row in
    the same column is dropped, since it lies in the row space and so leaves
    the unique reduced form unchanged.  Rows wait in buckets keyed by
    their leading column.  Taking columns in increasing order, the pivot of a
    column is the sparsest row of its bucket, ties to the lower row index
    (Markowitz); the other rows of the bucket are eliminated and re-bucketed
    by their new leading column.  Back-substitution then clears each pivot
    column from the pivot rows above it.  Every working row is a nonzero
    multiple of a row of the rational reduction, so dividing each pivot row
    by its pivot entry gives the unique reduced form: an entry the pivot
    divides becomes an int, any other a Fraction.
    """
    buckets: dict[int, list[tuple[int, dict[int, int]]]] = {}
    singles: set[int] = set()
    for idx, row in enumerate(rows):
        if len(row) == 1:
            (j,) = row
            if j in singles:
                continue
            singles.add(j)
            row = {j: 1}
        elif row:
            row = _integer_row(row)
        else:
            continue
        buckets.setdefault(min(row), []).append((idx, row))
    reduced: list[dict[int, int]] = []
    pivots: list[int] = []
    for col in range(ncols):
        bucket = buckets.pop(col, None)
        if not bucket:
            continue
        pidx, prow = min(bucket, key=lambda item: (len(item[1]), item[0]))
        for idx, row in bucket:
            if idx != pidx and (row := _eliminate(row, prow, col)):
                buckets.setdefault(min(row), []).append((idx, row))
        reduced.append(prow)
        pivots.append(col)
    where = {c: k for k, c in enumerate(pivots)}
    for k in reversed(range(len(reduced))):
        row = reduced[k]
        for c in [c for c in row if c != pivots[k] and c in where]:
            row = _eliminate(row, reduced[where[c]], c)
        reduced[k] = row
    out = []
    for row, pc in zip(reduced, pivots):
        p = row[pc]
        out.append({j: x // p if x % p == 0 else Fraction(x, p) for j, x in row.items()})
    return out, tuple(pivots)


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot-column indices."""
    reduced, pivots = _sparse_rref((dict(support(r)) for r in m.entries), m.cols)
    out = [dense(row.items(), m.cols) for row in reduced]
    out += [(ZERO,) * m.cols] * (m.rows - len(pivots))
    return Matrix(m.rows, m.cols, tuple(out)), pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def sparse_kernel(rows: Iterable[dict[int, Exact]], ncols: int) -> list[Vector]:
    """Canonical basis of the right null space of sparse rows (nonzero
    entries only) with ncols columns: free variables set to 1, increasing."""
    reduced, pivots = _sparse_rref(rows, ncols)
    pivot_set = set(pivots)
    basis: list[Vector] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [ZERO] * ncols
        v[free] = ONE
        for row, pc in zip(reduced, pivots):
            if free in row:
                v[pc] = frac(-row[free])
        basis.append(tuple(v))
    return basis


def kernel_basis(m: Matrix) -> list[Vector]:
    """Canonical basis of the right null space (free variables set to 1, increasing)."""
    return sparse_kernel((dict(support(r)) for r in m.entries), m.cols)


def solve_pairs(a: Matrix, bs: Sequence[Pairs]) -> list[tuple[tuple[int, Exact], ...] | None]:
    """One exact solution of a x = b for each b (free variables 0), None
    for each inconsistent b, from one elimination of [a | b_0 | b_1 | ...].
    Each b and each solution is given by its nonzero (index, value) pairs,
    a solution's in increasing index with an int where a value is integral.

    A reduced row whose pivot lies in the b block is zero on a's columns, so
    it is a left null vector of a: it vanishes on every consistent b and
    marks each b it is nonzero on as inconsistent.  A consistent b reads its
    solution off the rows pivoted in a, which come in increasing pivot order.
    """
    n = a.cols
    rows = [dict(support(r)) for r in a.entries]
    for k, b in enumerate(bs):
        for i, x in b:
            rows[i][n + k] = x
    reduced, pivots = _sparse_rref(rows, n + len(bs))
    out: list[list[tuple[int, Exact]]] = [[] for _ in bs]
    inconsistent = set()
    for row, pc in zip(reduced, pivots):
        for j, x in row.items():
            if j >= n:
                if pc < n:
                    out[j - n].append((pc, x))
                else:
                    inconsistent.add(j - n)
    return [None if k in inconsistent else tuple(x) for k, x in enumerate(out)]


def solve_many(a: Matrix, bs: Sequence[Sequence]) -> list[Vector | None]:
    """``solve_pairs`` on dense right-hand sides, with dense solutions."""
    bs = [as_vector(b) for b in bs]
    if any(len(b) != a.rows for b in bs):
        raise ValueError("right-hand side length does not match row count")
    return [None if x is None else dense(x, a.cols) for x in solve_pairs(a, [support(b) for b in bs])]


def solve(a: Matrix, b: Sequence) -> Vector | None:
    """One exact solution of a x = b (free variables 0), or None if inconsistent."""
    return solve_many(a, [b])[0]


@dataclass(frozen=True)
class ImageBasis:
    """Pivot-column basis of the column space plus coordinates of every column.

    Both are stored sparse: column k of ``basis_cols`` is the pivot column
    ``pivots[k]``, and column j of ``coord_cols`` expresses column j in that
    basis, with an integral value as an int.  ``basis`` and ``coords`` are
    their dense (Fraction) views.
    """

    pivots: tuple[int, ...]
    basis_cols: SparseCols
    coord_cols: SparseCols

    @property
    def basis(self) -> tuple[Vector, ...]:
        return tuple(self.basis_cols.columns())

    @property
    def coords(self) -> tuple[Vector, ...]:
        return tuple(self.coord_cols.columns())


def image_basis(m: Matrix | SparseCols) -> ImageBasis:
    """Column-space basis and coordinates, read off the sparse reduced rows."""
    if isinstance(m, Matrix):
        m = SparseCols.from_matrix(m)
    rows: list[dict[int, Exact]] = [{} for _ in range(m.rows)]
    for j, col in enumerate(m.support):
        for i, x in col:
            rows[i][j] = x
    reduced, pivots = _sparse_rref(rows, m.cols)
    coords: list[list[tuple[int, Exact]]] = [[] for _ in range(m.cols)]
    for k, row in enumerate(reduced):
        for j, x in row.items():
            coords[j].append((k, x))
    basis = SparseCols(m.rows, len(pivots), tuple(m.support[p] for p in pivots))
    return ImageBasis(pivots, basis, SparseCols(len(pivots), m.cols, tuple(map(tuple, coords))))


def inverse(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise ValueError("only square matrices invert")
    cols = solve_many(m, Matrix.identity(m.rows).entries)
    if None in cols:
        raise ValueError("matrix is singular")
    return Matrix.from_cols(cols, nrows=m.rows)


def span_matrix(vectors: Sequence[Vector], dim: int) -> Matrix:
    """Matrix whose columns are the given vectors (possibly none) in a space of size dim."""
    return Matrix.from_cols(list(vectors), nrows=dim) if vectors else Matrix.zeros(dim, 0)


def subspace_equal(a: Sequence[Vector], b: Sequence[Vector], dim: int) -> bool:
    """Do two spanning sets span the same subspace?"""
    ma, mb = span_matrix(a, dim), span_matrix(b, dim)
    ra, rb = rank(ma), rank(mb)
    return ra == rb == rank(hstack([ma, mb]))


def in_span(v: Vector, vectors: Sequence[Vector]) -> bool:
    return solve_many(span_matrix(vectors, len(v)), [v])[0] is not None
