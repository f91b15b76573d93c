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
views of ``SparseCols`` and ``ImageBasis``, kernels) holds only
Fractions, converted by ``frac`` where it is built.  Elimination runs on
sparse integer rows ({column: int}, denominators cleared, each row divided
by the gcd of its entries) and divides each reduced row by its pivot at the
end, giving an int wherever the pivot divides the entry.  In each column the
pivot is the eligible row with the fewest nonzeros, ties to the lower row
index; the reduced row echelon form is unique, so that choice only changes
fill-in and never a result.  The bases produced here are canonical:
null-space bases set each free variable to 1 in increasing column order,
column-space bases are the pivot columns in left-to-right order.  Every
solve, kernel and column space of glaw runs on sparse input: linear systems
sharing a matrix (given as ``SparseCols``) are solved together by
``solve_pairs``, which eliminates [a | b_0 | b_1 | ...] once on sparse
right-hand sides, and ``inverse_pairs`` is its solve against the unit
vectors.  ``Matrix`` is the dense form of parsing, reports and tests, and of
``rref`` and ``rank``.  ``combine`` is the one sparse linear-combination
kernel: every sum of sparse columns (a bracket, a form image, a map applied to
a vector) goes through it, except three hot loops that measured slower through
it and write it inline (the growth map, ``build_local``'s mixed-Jacobi check
and assembly's row recursion).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import attrgetter
from typing import Iterable, NamedTuple, Sequence

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
    """Parse a canonical "p/q" or "p" string; reject junk and zero denominators (not cached).

    Decimal points and exponents are refused before ``Fraction`` reads the text, which would
    first build the whole power of ten of an exponent like "1e4000000"."""
    s = text.strip()
    if "." in s or "e" in s or "E" in s:
        raise ValueError(f"malformed rational {text!r} (only p/q form is accepted)")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {text!r}") from exc


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
    entries in index order.  On int coefficients and columns it accumulates ints and divides each entry once.
    The sum of x_i y_j T[i][j] over two supports is one term (x_i, y, T[i]) per nonzero x_i."""
    acc: dict[int, int] = {}
    get = acc.get
    for m, coefs, cols in terms:
        for k, c in coefs:
            c *= m
            for r, x in cols[k]:
                acc[r] = get(r, 0) + c * x
    return divided(sorted(acc.items()), s)


def divided(pairs: Iterable[tuple[int, int]], s: int) -> tuple[tuple[int, Exact], ...]:
    """The nonzero (index, x / s) of int pairs, each an int where s divides x, else a Fraction."""
    return tuple([(k, x // s if x % s == 0 else Fraction(x, s)) for k, x in pairs if x])


def record(cls):
    """Make cls an immutable value over its own annotated fields, in order.

    ``cls(*args, **kwargs)`` binds the fields by position or keyword, then runs
    ``__post_init__`` if the class has one.  Equality (within one class), hash and
    repr read the fields, leaving out any whose name starts with "_".  Assignment
    and deletion raise AttributeError.  No code is compiled, so records import fast.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    shown = [n for n in names if not n.startswith("_")]
    key = attrgetter(*shown)
    post = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            rest = names[len(args) :]
            if len(args) > len(names) or set(kwargs) != set(rest):
                raise TypeError(f"{cls.__name__}({', '.join(names)}) given {len(args)} values and {sorted(kwargs)}")
            args += tuple(kwargs[n] for n in rest)
        self.__dict__.update(zip(names, args))
        if post is not None:
            post(self)

    def __eq__(self, other):
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in shown)})"

    def frozen(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot {'set' if value else 'delete'} {name!r}")

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls.__hash__, cls.__setattr__, cls.__delattr__ = lambda self: hash(key(self)), frozen, frozen
    return cls


@record
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
        return SparseCols.from_vectors([m.col(j) for j in range(m.cols)], m.rows)

    @staticmethod
    def from_vectors(vectors: Sequence[Sequence], rows: int) -> "SparseCols":
        """The matrix whose columns are the given dense vectors (possibly none), each integral value as an int."""
        if any(len(v) != rows for v in vectors):
            raise ValueError("column length does not match row count")
        return SparseCols(rows, len(vectors), tuple(tight_pairs(support(v)) for v in vectors))

    def col(self, j: int) -> Vector:
        return dense(self.support[j], self.rows)

    def columns(self) -> list[Vector]:
        return [self.col(j) for j in range(self.cols)]

    def to_matrix(self) -> Matrix:
        return Matrix(self.cols, self.rows, tuple(self.columns())).transpose()

    def transpose(self) -> "SparseCols":
        return SparseCols(self.cols, self.rows, tuple(tuple(row.items()) for row in self.row_dicts()))

    def row_dicts(self) -> list[dict[int, Exact]]:
        """Each row as its nonzero {column: value} entries, in increasing column order."""
        rows: list[dict[int, Exact]] = [{} for _ in range(self.rows)]
        for j, col in enumerate(self.support):
            for i, x in col:
                rows[i][j] = x
        return rows


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


def solve_pairs(a: SparseCols, bs: Sequence[Pairs]) -> list[tuple[tuple[int, Exact], ...] | None]:
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
    rows = a.row_dicts()
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


def inverse_pairs(a: SparseCols) -> list[tuple[tuple[int, Exact], ...]] | None:
    """The columns of the inverse of a square a as (index, value) pairs, from
    one ``solve_pairs`` against the unit vectors; None when a is singular."""
    cols = solve_pairs(a, [((k, 1),) for k in range(a.rows)])
    return None if None in cols else cols


@record
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
    reduced, pivots = _sparse_rref(m.row_dicts(), m.cols)
    coords: list[list[tuple[int, Exact]]] = [[] for _ in range(m.cols)]
    for k, row in enumerate(reduced):
        for j, x in row.items():
            coords[j].append((k, x))
    basis = SparseCols(m.rows, len(pivots), tuple(m.support[p] for p in pivots))
    return ImageBasis(pivots, basis, SparseCols(len(pivots), m.cols, tuple(map(tuple, coords))))
