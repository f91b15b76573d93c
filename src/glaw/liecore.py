"""Lie algebras by structure constants, invariant forms, representations.

Houses the fundamental triplet (g0, B0, rho) and the subalgebra computations
(derived algebra, center, representation kernel, grading element) that the
local-bracket construction and the sl2 machinery rely on.  An algebra is
stored as its structure pairs: [e_i, e_j] as the nonzero (k, coefficient)
pairs, so its size is bounded by its nonzero constants.  No module builds the
dense dim^3 table; ``structure`` is a lazy view of it for readers outside
glaw.  Validation is exhaustive on basis tuples, summing over nonzero entries
only; Jacobi runs over i<j<k, which suffices once the separately checked
antisymmetry holds.  A representation is stored as its sparse columns
``action_cols``, with the lazy dense view ``action``.  Both stores hold an
int exactly where a value is integral and a Fraction elsewhere, and every
multiply-add inside glaw reads them; every dense view holds Fractions.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import cached_property

from .exactla import (
    Exact,
    Matrix,
    SparseCols,
    Vector,
    ZERO,
    as_vector,
    combine,
    dense,
    frac,
    image_basis,
    numerators,
    rank,
    record,
    solve_pairs,
    sparse_kernel,
    support,
    tight_pairs,
)


class StructureError(Exception):
    """Shapes or indices are inconsistent; distinct from an invariant violation."""


class Refusal(Exception):
    """An operation precondition does not hold; the operation was not performed."""


class AmbiguousGrading(Refusal):
    """More than one central element acts as 2*Id; silent tie-breaking is unsafe."""


class TransitivityRequired(Refusal):
    """Growth needs a transitive local part; reduce the triplet first."""


class NoTriple(Refusal):
    """The nil-positive candidate admits no completed sl2-triple."""


def _tight_grid(grid, n: int, refusals: tuple[str, str, str]) -> tuple[tuple[tuple[tuple[int, Exact], ...], ...], ...]:
    """The rows of grid, n sparse vectors each, with every integral value as
    an int.  Refuses with StructureError, ``(shape, noun, order) =
    refusals``: ``shape`` for a row of another length, "<noun>s must be
    given as (index, value) pairs" for an entry that is not a pair, "<noun>
    <x> is not an int or a Fraction" for a value x of another type (a bool
    included), and ``order`` for a zero value or for an index that is not an
    int (a bool included), does not increase or is not below n."""
    shape, noun, order = refusals
    rows = []
    for row in grid:
        if len(row) != n:
            raise StructureError(shape)
        out = []
        for pairs in row:
            last, tight = -1, True
            try:
                for k, x in pairs:
                    if type(x) is not int:
                        if not isinstance(x, Fraction):
                            raise StructureError(f"{noun} {x!r} is not an int or a Fraction")
                        tight &= x.denominator != 1
                    if not (type(k) is int and last < k < n and x):
                        raise StructureError(order)
                    last = k
            except (TypeError, ValueError):  # an entry that does not unpack to two values
                raise StructureError(f"{noun}s must be given as (index, value) pairs") from None
            out.append(pairs if tight else tight_pairs(pairs))
        rows.append(tuple(out))
    return tuple(rows)


@record
class LieAlgebraData:
    """A Lie algebra on basis e_0..e_{dim-1}; structure_pairs[i][j] is
    [e_i, e_j] as its nonzero (k, coefficient) pairs in increasing k, each
    coefficient given as an int or a Fraction and stored as an int exactly
    when it is integral; every zero bracket is the empty tuple."""

    dim: int
    structure_pairs: tuple[tuple[tuple[tuple[int, Exact], ...], ...], ...]

    def __post_init__(self):
        shape = "structure table has wrong shape"
        if len(self.structure_pairs) != self.dim:
            raise StructureError(shape)
        order = "structure pairs must be nonzero at increasing indices below dim"
        pairs = _tight_grid(self.structure_pairs, self.dim, (shape, "structure constant", order))
        object.__setattr__(self, "structure_pairs", pairs)  # records refuse plain assignment

    @staticmethod
    def from_table(table) -> "LieAlgebraData":
        """The algebra with [e_i, e_j] = table[i][j], a dense dim x dim x dim table."""
        dim = len(table)
        if any(len(v) != dim for row in table for v in row):
            raise StructureError("structure table has wrong shape")
        return LieAlgebraData(dim, tuple(tuple(tuple(support(as_vector(v))) for v in row) for row in table))

    @staticmethod
    def abelian(dim: int) -> "LieAlgebraData":
        return LieAlgebraData(dim, (((),) * dim,) * dim)

    @cached_property
    def structure(self) -> tuple[tuple[Vector, ...], ...]:
        """The dense table, structure[i][j] = [e_i, e_j], built on first read."""
        return tuple(tuple(SparseCols(self.dim, self.dim, row).columns()) for row in self.structure_pairs)

    def bracket(self, x: Vector, y: Vector) -> Vector:
        check_lengths(self.dim, x, y)
        table, ys = self.structure_pairs, tight_pairs(support(y))
        return dense(combine((x_i, ys, table[i]) for i, x_i in tight_pairs(support(x))), self.dim)

    def ad_matrix(self, x: Vector) -> Matrix:
        cols = [self.bracket(x, basis_vector(self.dim, j)) for j in range(self.dim)]
        return Matrix.from_cols(cols, nrows=self.dim)

    def direct_sum(self, other: "LieAlgebraData") -> "LieAlgebraData":
        """self + other with other's basis after self's; cross brackets are zero."""
        n, m = self.dim, other.dim
        rows = [row + ((),) * m for row in self.structure_pairs]
        rows += [((),) * n + tuple(tuple((n + k, x) for k, x in p) for p in row) for row in other.structure_pairs]
        return LieAlgebraData(n + m, tuple(rows))


def restrict_algebra(g: LieAlgebraData, basis: list[Vector], refusal: str) -> LieAlgebraData:
    """Structure constants of a subalgebra in the given basis; refuses with
    ``refusal`` when a bracket leaves its span.  Each [b_p, b_q] is read off
    the supports of b_p and b_q through the structure pairs, and all of them
    are written in the basis by one elimination."""
    table = g.structure_pairs
    sups = [tight_pairs(support(v)) for v in basis]
    brackets = [combine((p_i, q, table[i]) for i, p_i in p) for p in sups for q in sups]
    coords = solve_pairs(SparseCols.from_vectors(basis, g.dim), brackets)
    if None in coords:
        raise Refusal(f"{refusal}; inconsistent data")
    dim = len(basis)
    return LieAlgebraData(dim, tuple(tuple(coords[p * dim : (p + 1) * dim]) for p in range(dim)))


def check_lengths(n: int, *vectors: Vector):
    """Refuse a dense vector whose length is not n, which would read as zero-padded or overrun."""
    for v in vectors:
        if len(v) != n:
            raise StructureError(f"a vector of length {len(v)} where the space has dimension {n}")


def basis_vector(dim: int, i: int) -> Vector:
    return tuple(Fraction(1) if k == i else ZERO for k in range(dim))


@record
class QuadraticForm:
    gram: Matrix

    @cached_property
    def cols(self) -> SparseCols:
        """The Gram matrix G by columns, each integral value as an int, built on first read."""
        return SparseCols.from_matrix(self.gram)

    def value(self, u: Vector, v: Vector) -> Fraction:
        """B(u, v) = u^T G v: the support of u dotted with G v."""
        check_lengths(self.gram.rows, u)
        g = self.image(v)
        return frac(sum(x * g[i] for i, x in tight_pairs(support(u)) if i in g))

    def image(self, v: Vector) -> dict[int, Exact]:
        """G v as its nonzero {index: value} entries, read off the columns of G at the support of v."""
        check_lengths(self.gram.rows, v)
        return dict(combine(((1, tight_pairs(support(v)), self.cols.support),)))

    def gram_on(self, vectors: list[Vector], others: list[Vector] | None = None) -> Matrix:
        """The matrix of B(u_p, v_q) for u_p in vectors and v_q in others (vectors when None): the
        Gram matrix of the form restricted to the span of vectors.  Each G v_q is formed once and
        dotted with the support of each u_p, on ints where the values are integral."""
        check_lengths(self.gram.rows, *vectors)
        images = [self.image(v) for v in (vectors if others is None else others)]
        rows = []
        for u in vectors:
            us = tight_pairs(support(u))
            rows.append(tuple(frac(sum(x * g[i] for i, x in us if i in g)) for g in images))
        return Matrix(len(rows), len(images), tuple(rows))

    def direct_sum(self, other: "QuadraticForm") -> "QuadraticForm":
        n, m = self.gram.rows, other.gram.rows
        rows = [list(self.gram.entries[i]) + [ZERO] * m for i in range(n)]
        rows += [[ZERO] * n + list(other.gram.entries[i]) for i in range(m)]
        return QuadraticForm(Matrix.from_rows(rows))


@record
class Representation:
    """rho on V = Q^dim_v: action_cols[a] is rho(e_a) by columns, stored with each integral value as an int."""

    dim_v: int
    action_cols: tuple[SparseCols, ...]

    def __post_init__(self):
        n, shape = self.dim_v, "representation matrices must be dim_v x dim_v"
        if not all(isinstance(m, SparseCols) for m in self.action_cols):
            raise StructureError("representation matrices must be given as SparseCols")
        if any(m.rows != n or m.cols != n for m in self.action_cols):
            raise StructureError(shape)
        order = "action columns must be nonzero at increasing rows below dim_v"
        grid = _tight_grid([m.support for m in self.action_cols], n, (shape, "action value", order))
        object.__setattr__(self, "action_cols", tuple(SparseCols(n, n, cols) for cols in grid))

    @staticmethod
    def from_matrices(dim_v: int, mats) -> "Representation":
        """The representation with rho(e_a) = mats[a], dense dim_v x dim_v matrices."""
        return Representation(dim_v, tuple(SparseCols.from_matrix(m) for m in mats))

    @cached_property
    def action(self) -> tuple[Matrix, ...]:
        """The dense matrices rho(e_a), built on first read."""
        return tuple(m.to_matrix() for m in self.action_cols)

    def act(self, u: Vector, x: Vector) -> Vector:
        check_lengths(len(self.action_cols), u)
        check_lengths(self.dim_v, x)
        cols, xs = self.action_cols, tight_pairs(support(x))
        return dense(combine((u_a, xs, cols[a].support) for a, u_a in tight_pairs(support(u))), self.dim_v)

    def cols_of(self, u: Vector) -> SparseCols:
        """rho(u) = sum of u_a rho(e_a) by columns, read off the nonzero entries of u."""
        check_lengths(len(self.action_cols), u)
        n, us, cols = self.dim_v, tight_pairs(support(u)), [m.support for m in self.action_cols]
        return SparseCols(n, n, tuple(combine((u_a, ((l, 1),), cols[a]) for a, u_a in us) for l in range(n)))

    def matrix_of(self, u: Vector) -> Matrix:
        """rho(u) as a dense matrix."""
        return self.cols_of(u).to_matrix()


@record
class FundamentalTriplet:
    g0: LieAlgebraData
    b0: QuadraticForm
    rho: Representation

    def __post_init__(self):
        if self.b0.gram.rows != self.g0.dim or self.b0.gram.cols != self.g0.dim:
            raise StructureError("form Gram matrix must be dim_g0 x dim_g0")
        if len(self.rho.action_cols) != self.g0.dim:
            raise StructureError("one representation matrix per g0 basis element is required")

    @property
    def dim_g0(self) -> int:
        return self.g0.dim

    @property
    def dim_v(self) -> int:
        return self.rho.dim_v


@record
class ValidationReport:
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, msg: str):
        self.violations.append(msg)


def validate(t: FundamentalTriplet) -> ValidationReport:
    """Exhaustive invariant check of a fundamental triplet.

    Checks antisymmetry and Jacobi for the bracket, symmetry / nondegeneracy /
    invariance for the form, and the homomorphism property of the
    representation, all on basis tuples, reading the sparse stores.
    """
    rep = ValidationReport([])
    g, b0, rho = t.g0, t.b0, t.rho
    n = g.dim
    c = g.structure_pairs
    for i in range(n):
        for j in range(i, n):
            if c[i][j] != tuple((k, -x) for k, x in c[j][i]):
                rep.add(f"antisymmetry fails at basis pair ({i},{j})")
    # Jacobi and the homomorphism property on ints: f clears the denominators of the brackets, e those of rho
    f, table = numerators(p for row in c for p in row)
    sc = [table[i * n : (i + 1) * n] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                # f^2 ([e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] + [e_k,[e_i,e_j]])
                if not (c[j][k] or c[k][i] or c[i][j]):
                    continue
                if combine(((1, sc[j][k], sc[i]), (1, sc[k][i], sc[j]), (1, sc[i][j], sc[k]))):
                    rep.add(f"Jacobi identity fails at basis triple ({i},{j},{k})")
    if not b0.gram.is_symmetric():
        rep.add("form is not symmetric")
    if rank(b0.gram) != n:
        rep.add("form is degenerate")
    # B([e_i,e_j], e_k) = (G^T c_ij)[k] and B(e_i, [e_j,e_k]) = (G c_jk)[i], c_ij = [e_i,e_j];
    # both are zero unless (i,j,k) is in the support of one of the two products
    g_rows = [tight_pairs(support(r)) for r in b0.gram.entries]
    g_cols = b0.cols.support
    left, right = {}, {}
    for i in range(n):
        for j in range(n):
            if c[i][j]:
                left[i, j] = dict(combine(((1, c[i][j], g_rows),)))
                right[i, j] = dict(combine(((1, c[i][j], g_cols),)))
    suspects = {(i, j, k) for (i, j), v in left.items() for k in v}
    suspects |= {(i, j, k) for (j, k), v in right.items() for i in v}
    for i, j, k in sorted(suspects):
        if left.get((i, j), {}).get(k, 0) != right.get((j, k), {}).get(i, 0):
            rep.add(f"form invariance fails at basis triple ({i},{j},{k})")
    e, cols = numerators(col for m in rho.action_cols for col in m.support)
    dv = rho.dim_v
    maps, by_l = [cols[a * dv : (a + 1) * dv] for a in range(n)], [cols[l::dv] for l in range(dv)]
    for i in range(n):
        for j in range(i + 1, n):
            for l in range(dv):
                # column l of f e^2 (rho([e_i,e_j]) - rho_i rho_j + rho_j rho_i)
                if combine(((e, sc[i][j], by_l[l]), (-f, maps[j][l], maps[i]), (f, maps[i][l], maps[j]))):
                    rep.add(f"representation homomorphism fails at basis pair ({i},{j})")
                    break
    return rep


def dual_rep(r: Representation) -> Representation:
    """Contragredient action: each generator goes to minus its transpose."""
    n = r.dim_v
    dual = (tuple(tuple((l, -x) for l, x in col) for col in a.transpose().support) for a in r.action_cols)
    return Representation(n, tuple(SparseCols(n, n, cols) for cols in dual))


def derived_subalgebra(g: LieAlgebraData) -> list[Vector]:
    n = g.dim
    cols = tuple(g.structure_pairs[i][j] for i in range(n) for j in range(i + 1, n))
    return list(image_basis(SparseCols(n, len(cols), cols)).basis)


def center(g: LieAlgebraData) -> list[Vector]:
    """Canonical basis of the center: the x with sum_i x_i c[i][j][k] = 0.

    Row (j, k) of that system holds c[i][j][k] at column i; the rows are
    gathered from ``structure_pairs``, so only nonzero constants are read.
    The center lies in the Killing radical, so ``killing_rank_and_center_dim``
    solves this system only when that radical is nonzero.
    """
    rows: dict[tuple[int, int], dict[int, Exact]] = defaultdict(dict)
    for i, row in enumerate(g.structure_pairs):
        for j, pairs in enumerate(row):
            for k, x in pairs:
                rows[j, k][i] = x
    return sparse_kernel(rows.values(), g.dim)


def rep_kernel(r: Representation, g: LieAlgebraData) -> list[Vector]:
    """Canonical basis of the kernel of rho: row (p, q) holds rho_i[p][q] at column i."""
    rows: dict[tuple[int, int], dict[int, Exact]] = defaultdict(dict)
    for i, a in enumerate(r.action_cols):
        for q, col in enumerate(a.support):
            for p, x in col:
                rows[p, q][i] = x
    return sparse_kernel(rows.values(), g.dim)


def grading_element(t: FundamentalTriplet) -> Vector | None:
    """The unique central H0 with rho(H0) = 2*Id, None if absent.

    Raises AmbiguousGrading when several central solutions exist, since H0
    feeds sl2 certificates and an arbitrary choice would corrupt them.
    """
    z = center(t.g0)
    if not z:
        return None
    # one elimination of [sys | 2 Id], column k of sys holding rho(z_k)[p][q] at row q * dim_V + p
    dv, nz = t.dim_v, len(z)
    sys = [tuple((q * dv + p, x) for q, col in enumerate(t.rho.cols_of(zv).support) for p, x in col) for zv in z]
    ib = image_basis(SparseCols(dv * dv, nz + 1, (*sys, tuple((p * dv + p, 2) for p in range(dv)))))
    if nz in ib.pivots:
        return None
    if len(ib.pivots) < nz:
        raise AmbiguousGrading("several central elements act as 2*Id")
    return tuple(sum((x * z[k][a] for k, x in ib.coord_cols.support[nz]), ZERO) for a in range(t.dim_g0))


def _killing_rows(g: LieAlgebraData) -> list[dict[int, Exact]]:
    """Rows of the Killing form tr(ad x ad y) on the basis, nonzero entries only.

    (ad e_i)[a][b] = c[i][b][a], so K[i][j] is the sum over ad positions
    (a, b) of c[i][b][a] c[j][a][b].  The nonzero constants are grouped by
    position, at[a, b] listing every (i, c[i][b][a]), and each group is
    multiplied with the group at the transposed position (b, a): one
    multiply-add per pair of nonzero factors, on ints where the constants are
    integral.
    """
    at: dict[tuple[int, int], list[tuple[int, Exact]]] = defaultdict(list)
    for i, row in enumerate(g.structure_pairs):
        for b, pairs in enumerate(row):
            for a, x in pairs:
                at[a, b].append((i, x))
    rows: list[dict[int, Exact]] = [defaultdict(int) for _ in range(g.dim)]
    for (a, b), left in at.items():
        right = at.get((b, a), ())
        for i, x in left:
            row = rows[i]
            for j, y in right:
                row[j] += x * y
    return [{j: v for j, v in row.items() if v} for row in rows]


def killing_form(g: LieAlgebraData) -> Matrix:
    """Gram matrix of the Killing form on the basis: the dense Fraction view of
    ``_killing_rows``, every zero cell ``ZERO``."""
    return Matrix(g.dim, g.dim, tuple(dense(row.items(), g.dim) for row in _killing_rows(g)))


def killing_rank_and_center_dim(g: LieAlgebraData) -> tuple[int, int]:
    """The rank of the Killing form, from one sparse elimination of its rows,
    and the dimension of the center.

    A central z has ad z = 0, so K(z, y) = tr(ad z ad y) = 0 for every y: the
    center lies in the radical of K for any bracket table, Jacobi or not.  So
    the center system is solved only when that radical is nonzero.
    """
    radical = sparse_kernel(_killing_rows(g), g.dim)
    return g.dim - len(radical), len(center(g)) if radical else 0


def direct_sum_with_zero_factor(
    t: FundamentalTriplet, extra: LieAlgebraData, extra_form: QuadraticForm
) -> FundamentalTriplet:
    """Adjoin an orthogonal ideal that acts by zero on V (a representation kernel)."""
    g = t.g0.direct_sum(extra)
    b = t.b0.direct_sum(extra_form)
    zero = SparseCols(t.dim_v, t.dim_v, ((),) * t.dim_v)
    return FundamentalTriplet(g, b, Representation(t.dim_v, t.rho.action_cols + (zero,) * extra.dim))
