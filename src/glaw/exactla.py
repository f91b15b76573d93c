"""Exact dense linear algebra over the rationals.

Scalars are ``fractions.Fraction`` at the API (already canonical: reduced,
positive denominator, str() gives "p/q" or "p").  Vectors are tuples of
Fractions, matrices immutable dense row-major grids.  Elimination runs on
Python int rows (denominators cleared, each row divided by the gcd of its
entries) and converts back to Fractions only for its result.  Every
elimination uses the same deterministic pivot rule (leftmost column, topmost
nonzero row), so the bases produced here are canonical: null-space bases set
each free variable to 1 in increasing column order, column-space bases are
the pivot columns in left-to-right order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Sequence

Scalar = Fraction
Vector = tuple[Fraction, ...]

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


def parse_scalar(text: str) -> Fraction:
    """Parse a canonical "p/q" or "p" string; reject junk and zero denominators."""
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


def bilinear(x: Sequence, y: Sequence, entry: Callable[[int, int], Sequence], out: list) -> list:
    """Add the sum of x_i y_j entry(i, j) into out and return it.

    ``entry(i, j)`` is a vector, such as a structure constant or a column of
    a stored matrix.  Zero coefficients and zero entries are skipped, so a
    pair of basis vectors costs one entry read.
    """
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            c = xi * yj
            for k, e in enumerate(entry(i, j)):
                if e:
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
        rows = tuple(tuple(c[i] for c in cols) for i in range(nrows))
        return Matrix(nrows, len(cols), rows)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)))

    @staticmethod
    def zeros(r: int, c: int) -> "Matrix":
        return Matrix(r, c, tuple((ZERO,) * c for _ in range(r)))

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def columns(self) -> list[Vector]:
        return [self.col(j) for j in range(self.cols)]

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

    def is_zero(self) -> bool:
        return all(vis_zero(r) for r in self.entries)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.entries[i][j] == self.entries[j][i] for i in range(self.rows) for j in range(i)
        )


def hstack(mats: Sequence[Matrix]) -> Matrix:
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("row counts differ")
    return Matrix(rows, sum(m.cols for m in mats), tuple(sum((m.entries[i] for m in mats), ()) for i in range(rows)))


def _primitive(row: list[int]) -> list[int]:
    """The row divided by its content (the gcd of its entries)."""
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def _integer_row(row: Vector) -> list[int]:
    """A rational row scaled by the lcm of its denominators, then made primitive."""
    ratios = [x.as_integer_ratio() for x in row]
    den = lcm(*(d for _, d in ratios))
    if den == 1:
        return _primitive([n for n, _ in ratios])
    return _primitive([n * (den // d) for n, d in ratios])


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot-column indices.

    Gauss-Jordan elimination on integer rows (fraction-free, gcd-normalised
    in the style of Bareiss).  Each working row is a nonzero multiple of the
    row that elimination over the rationals holds at the same step, so the
    pivots are the same, and dividing each pivot row by its pivot entry gives
    the unique reduced form.
    """
    work = [_integer_row(r) for r in m.entries]
    pivots: list[int] = []
    piv_row = 0
    for col in range(m.cols):
        sel = next((r for r in range(piv_row, m.rows) if work[r][col]), None)
        if sel is None:
            continue
        work[piv_row], work[sel] = work[sel], work[piv_row]
        prow = work[piv_row]
        p = prow[col]
        support = [(j, x) for j, x in enumerate(prow) if x]
        for r in range(m.rows):
            row = work[r]
            f = row[col]
            if r == piv_row or not f:
                continue
            g = gcd(p, f)
            a, b = p // g, f // g
            if a != 1:
                row = [a * x for x in row]
            for j, x in support:
                row[j] -= b * x
            work[r] = _primitive(row)
        pivots.append(col)
        piv_row += 1
        if piv_row == m.rows:
            break
    out = [tuple(Fraction(x, row[pc]) if x else ZERO for x in row) for row, pc in zip(work, pivots)]
    out += [(ZERO,) * m.cols] * (m.rows - len(pivots))
    return Matrix(m.rows, m.cols, tuple(out)), tuple(pivots)


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def kernel_basis(m: Matrix) -> list[Vector]:
    """Canonical basis of the right null space (free variables set to 1, increasing)."""
    r, pivots = rref(m)
    pivot_set = set(pivots)
    basis: list[Vector] = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = [ZERO] * m.cols
        v[free] = ONE
        for row_idx, pc in enumerate(pivots):
            v[pc] = -r.entries[row_idx][free]
        basis.append(tuple(v))
    return basis


def solve(a: Matrix, b: Sequence) -> Vector | None:
    """One exact solution of a x = b (free variables 0), or None if inconsistent."""
    b = as_vector(b)
    if len(b) != a.rows:
        raise ValueError("right-hand side length does not match row count")
    aug = hstack([a, Matrix.from_cols([b])])
    r, pivots = rref(aug)
    if pivots and pivots[-1] == a.cols:
        return None
    x = [ZERO] * a.cols
    for row_idx, pc in enumerate(pivots):
        x[pc] = r.entries[row_idx][a.cols]
    return tuple(x)


@dataclass(frozen=True)
class ImageBasis:
    """Pivot-column basis of the column space plus coordinates of every column."""

    pivots: tuple[int, ...]
    basis: tuple[Vector, ...]
    coords: tuple[Vector, ...]  # coords[j] expresses column j in the pivot basis


def image_basis(m: Matrix) -> ImageBasis:
    r, pivots = rref(m)
    basis = tuple(m.col(p) for p in pivots)
    coords = tuple(tuple(r.entries[k][j] for k in range(len(pivots))) for j in range(m.cols))
    return ImageBasis(pivots, basis, coords)


def inverse(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise ValueError("only square matrices invert")
    aug = hstack([m, Matrix.identity(m.rows)])
    r, pivots = rref(aug)
    if len(pivots) != m.rows or any(p >= m.rows for p in pivots):
        raise ValueError("matrix is singular")
    return Matrix(m.rows, m.rows, tuple(row[m.rows:] for row in r.entries))


def span_matrix(vectors: Sequence[Vector], dim: int) -> Matrix:
    """Matrix whose columns are the given vectors (possibly none) in a space of size dim."""
    return Matrix.from_cols(list(vectors), nrows=dim) if vectors else Matrix.zeros(dim, 0)


def subspace_equal(a: Sequence[Vector], b: Sequence[Vector], dim: int) -> bool:
    """Do two spanning sets span the same subspace?"""
    ma, mb = span_matrix(a, dim), span_matrix(b, dim)
    ra, rb = rank(ma), rank(mb)
    return ra == rb == rank(hstack([ma, mb]))


def in_span(v: Vector, vectors: Sequence[Vector]) -> bool:
    m = span_matrix(vectors, len(v))
    return rank(m) == rank(hstack([m, Matrix.from_cols([v])]))
