"""Lie algebras by structure constants, invariant forms, representations.

Houses the fundamental triplet (g0, B0, rho) and the subalgebra computations
(derived algebra, center, representation kernel, grading element) that the
local-bracket construction and the sl2 machinery rely on.  An algebra is
stored as its structure pairs: [e_i, e_j] as the nonzero (k, coefficient)
pairs, so its size is bounded by its nonzero constants.  No module builds the
dense dim^3 table; ``structure`` is a lazy view of it for readers outside
glaw.  Validation is exhaustive on basis tuples, summing over nonzero entries
only; Jacobi runs over i<j<k, which suffices once the separately checked
antisymmetry holds.  The representation is stored dense, as its spec gives
it, with the sparse view ``action_cols``.  Both sparse stores hold an int
exactly where a value is integral and a Fraction elsewhere, and every
multiply-add inside glaw reads them; every dense view holds Fractions.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .exactla import (
    Exact,
    Matrix,
    SparseCols,
    Vector,
    ZERO,
    as_vector,
    bilinear,
    frac,
    image_basis,
    kernel_basis,
    rank,
    solve,
    solve_pairs,
    span_matrix,
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


@dataclass(frozen=True)
class LieAlgebraData:
    """A Lie algebra on basis e_0..e_{dim-1}; structure_pairs[i][j] is
    [e_i, e_j] as its nonzero (k, coefficient) pairs in increasing k, each
    coefficient given as an int or a Fraction and stored as an int exactly
    when it is integral; every zero bracket is the empty tuple."""

    dim: int
    structure_pairs: tuple[tuple[tuple[tuple[int, Exact], ...], ...], ...]

    def __post_init__(self):
        n = self.dim
        if len(self.structure_pairs) != n or any(len(row) != n for row in self.structure_pairs):
            raise StructureError("structure table has wrong shape")
        rows = []
        for row in self.structure_pairs:
            out = []
            for pairs in row:
                last, ints = -1, True
                for k, x in pairs:
                    if type(x) is not int:
                        if not isinstance(x, Fraction):
                            raise StructureError(f"structure constant {x!r} is not an int or a Fraction")
                        ints = False
                    if not (last < k < n and x):
                        raise StructureError("structure pairs must be nonzero at increasing indices below dim")
                    last = k
                out.append(pairs if ints else tight_pairs(pairs))
            rows.append(tuple(out))
        object.__setattr__(self, "structure_pairs", tuple(rows))  # the dataclass is frozen

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
        _check_lengths(self.dim, x, y)
        table = self.structure_pairs
        return tuple(bilinear(support(x), support(y), lambda i, j: table[i][j], [ZERO] * self.dim))

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
    sups = [support(v) for v in basis]
    brackets = []
    for p in sups:
        for q in sups:
            acc = bilinear(p, q, lambda i, j: table[i][j], defaultdict(int))
            brackets.append(tuple((k, x) for k, x in acc.items() if x))
    coords = solve_pairs(span_matrix(basis, g.dim), brackets)
    if None in coords:
        raise Refusal(f"{refusal}; inconsistent data")
    dim = len(basis)
    return LieAlgebraData(dim, tuple(tuple(coords[p * dim : (p + 1) * dim]) for p in range(dim)))


def _check_lengths(n: int, *vectors: Vector):
    """Refuse a dense vector whose length is not n, which would read as zero-padded or overrun."""
    for v in vectors:
        if len(v) != n:
            raise StructureError(f"a vector of length {len(v)} where the space has dimension {n}")


def basis_vector(dim: int, i: int) -> Vector:
    return tuple(Fraction(1) if k == i else ZERO for k in range(dim))


@dataclass(frozen=True)
class QuadraticForm:
    gram: Matrix

    def value(self, u: Vector, v: Vector) -> Fraction:
        _check_lengths(self.gram.rows, u, v)
        return sum(
            (ui * self.gram.entries[i][j] * vj for i, ui in enumerate(u) if ui for j, vj in enumerate(v) if vj),
            ZERO,
        )

    def direct_sum(self, other: "QuadraticForm") -> "QuadraticForm":
        n, m = self.gram.rows, other.gram.rows
        rows = [list(self.gram.entries[i]) + [ZERO] * m for i in range(n)]
        rows += [[ZERO] * n + list(other.gram.entries[i]) for i in range(m)]
        return QuadraticForm(Matrix.from_rows(rows))


@dataclass(frozen=True)
class Representation:
    dim_v: int
    action: tuple[Matrix, ...]

    def __post_init__(self):
        for a in self.action:
            if a.rows != self.dim_v or a.cols != self.dim_v:
                raise StructureError("representation matrices must be dim_v x dim_v")

    @cached_property
    def action_cols(self) -> tuple[SparseCols, ...]:
        """The action matrices stored by columns, integral values as ints."""
        return tuple(SparseCols.from_matrix(a) for a in self.action)

    def act(self, u: Vector, x: Vector) -> Vector:
        _check_lengths(len(self.action), u)
        _check_lengths(self.dim_v, x)
        cols = self.action_cols
        return tuple(bilinear(support(u), support(x), lambda a, l: cols[a].support[l], [ZERO] * self.dim_v))

    def matrix_of(self, u: Vector) -> Matrix:
        """rho(u) = sum of u_a rho(e_a), accumulated in one pass over the nonzero entries."""
        _check_lengths(len(self.action), u)
        n = self.dim_v
        rows = [[ZERO] * n for _ in range(n)]
        for a, ua in support(u):
            for l, col in enumerate(self.action_cols[a].support):
                for r, x in col:
                    rows[r][l] += ua * x
        return Matrix(n, n, tuple(map(tuple, rows)))


@dataclass(frozen=True)
class FundamentalTriplet:
    g0: LieAlgebraData
    b0: QuadraticForm
    rho: Representation

    def __post_init__(self):
        if self.b0.gram.rows != self.g0.dim or self.b0.gram.cols != self.g0.dim:
            raise StructureError("form Gram matrix must be dim_g0 x dim_g0")
        if len(self.rho.action) != self.g0.dim:
            raise StructureError("one representation matrix per g0 basis element is required")

    @property
    def dim_g0(self) -> int:
        return self.g0.dim

    @property
    def dim_v(self) -> int:
        return self.rho.dim_v


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

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
    rep = ValidationReport()
    g, b0, rho = t.g0, t.b0, t.rho
    n = g.dim
    c = g.structure_pairs
    for i in range(n):
        for j in range(i, n):
            if c[i][j] != tuple((k, -x) for k, x in c[j][i]):
                rep.add(f"antisymmetry fails at basis pair ({i},{j})")
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                # [e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] + [e_k,[e_i,e_j]]
                if not (c[j][k] or c[k][i] or c[i][j]):
                    continue
                acc = defaultdict(int)
                for p, inner in ((i, c[j][k]), (j, c[k][i]), (k, c[i][j])):
                    bilinear(((p, 1),), inner, lambda a, b: c[a][b], acc)
                if any(acc.values()):
                    rep.add(f"Jacobi identity fails at basis triple ({i},{j},{k})")
    if not b0.gram.is_symmetric():
        rep.add("form is not symmetric")
    if rank(b0.gram) != n:
        rep.add("form is degenerate")
    # B([e_i,e_j], e_k) = (G^T c_ij)[k] and B(e_i, [e_j,e_k]) = (G c_jk)[i], c_ij = [e_i,e_j];
    # both are zero unless (i,j,k) is in the support of one of the two products
    g_rows = [tight_pairs(support(r)) for r in b0.gram.entries]
    g_cols = SparseCols.from_matrix(b0.gram).support
    left, right = {}, {}
    for i in range(n):
        for j in range(n):
            if c[i][j]:
                left[i, j] = bilinear(c[i][j], ((0, 1),), lambda m, _: g_rows[m], defaultdict(int))
                right[i, j] = bilinear(c[i][j], ((0, 1),), lambda m, _: g_cols[m], defaultdict(int))
    suspects = {(i, j, k) for (i, j), v in left.items() for k in v}
    suspects |= {(i, j, k) for (j, k), v in right.items() for i in v}
    for i, j, k in sorted(suspects):
        if left.get((i, j), {}).get(k, 0) != right.get((j, k), {}).get(i, 0):
            rep.add(f"form invariance fails at basis triple ({i},{j},{k})")
    cols = [m.support for m in rho.action_cols]
    for i in range(n):
        for j in range(i + 1, n):
            for l in range(rho.dim_v):
                # column l of rho([e_i,e_j]) - rho_i rho_j + rho_j rho_i
                acc = bilinear(c[i][j], ((l, 1),), lambda a, m: cols[a][m], defaultdict(int))
                bilinear(((i, -1),), cols[j][l], lambda a, m: cols[a][m], acc)
                bilinear(((j, 1),), cols[i][l], lambda a, m: cols[a][m], acc)
                if any(acc.values()):
                    rep.add(f"representation homomorphism fails at basis pair ({i},{j})")
                    break
    return rep


def dual_rep(r: Representation) -> Representation:
    """Contragredient action: each generator goes to minus its transpose.

    Built from the nonzeros of ``action_cols``: column l of rho_a is row l of
    -rho_a^T, and row i of rho_a is column i of -rho_a^T, which also gives the
    dual's own ``action_cols``; the dense matrices get ``frac`` of each value.
    """
    n = r.dim_v
    mats, dual_cols = [], []
    for a in r.action_cols:
        rows = [[ZERO] * n for _ in range(n)]
        cols: list[list[tuple[int, Exact]]] = [[] for _ in range(n)]
        for l, col in enumerate(a.support):
            for i, x in col:
                rows[l][i] = frac(-x)
                cols[i].append((l, -x))
        mats.append(Matrix(n, n, tuple(map(tuple, rows))))
        dual_cols.append(SparseCols(n, n, tuple(map(tuple, cols))))
    d = Representation(n, tuple(mats))
    d.__dict__["action_cols"] = tuple(dual_cols)  # the cached_property's slot; the dataclass is frozen
    return d


def derived_subalgebra(g: LieAlgebraData) -> list[Vector]:
    n = g.dim
    cols = tuple(g.structure_pairs[i][j] for i in range(n) for j in range(i + 1, n))
    return list(image_basis(SparseCols(n, len(cols), cols)).basis)


def center(g: LieAlgebraData) -> list[Vector]:
    """Canonical basis of the center: the x with sum_i x_i c[i][j][k] = 0.

    Row (j, k) of that system holds c[i][j][k] at column i; the rows are
    gathered from ``structure_pairs``, so only nonzero constants are read.
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
    mats = [t.rho.matrix_of(zv).entries for zv in z]
    dv = t.dim_v
    sys = Matrix(dv * dv, len(z), tuple(tuple(m[p][q] for m in mats) for p in range(dv) for q in range(dv)))
    coeffs = solve(sys, [Fraction(2) if p == q else ZERO for p in range(dv) for q in range(dv)])
    if coeffs is None:
        return None
    if kernel_basis(sys):
        raise AmbiguousGrading("several central elements act as 2*Id")
    return span_matrix(z, t.dim_g0).matvec(coeffs)


def killing_form(g: LieAlgebraData) -> Matrix:
    """Gram matrix of the Killing form tr(ad x ad y) on the basis.

    (ad e_i)[a][b] = c[i][b][a], so K[i][j] is the sum over ad positions
    (a, b) of c[i][b][a] c[j][a][b].  The nonzero constants are grouped by
    position, at[a, b] listing every (i, c[i][b][a]), and each group is
    multiplied with the group at the transposed position (b, a): one
    multiply-add per pair of nonzero factors, on ints where the constants are
    integral.  Only the nonzero cells of K are converted to Fractions; every
    zero cell is ``ZERO``.
    """
    n = g.dim
    at: dict[tuple[int, int], list[tuple[int, Exact]]] = defaultdict(list)
    for i, row in enumerate(g.structure_pairs):
        for b, pairs in enumerate(row):
            for a, x in pairs:
                at[a, b].append((i, x))
    acc: dict[tuple[int, int], Exact] = defaultdict(int)
    for (a, b), left in at.items():
        right = at.get((b, a), ())
        for i, x in left:
            for j, y in right:
                acc[i, j] += x * y
    rows = [[ZERO] * n for _ in range(n)]
    for (i, j), v in acc.items():
        if v:
            rows[i][j] = frac(v)
    return Matrix(n, n, tuple(map(tuple, rows)))


def direct_sum_with_zero_factor(
    t: FundamentalTriplet, extra: LieAlgebraData, extra_form: QuadraticForm
) -> FundamentalTriplet:
    """Adjoin an orthogonal ideal that acts by zero on V (a representation kernel)."""
    g = t.g0.direct_sum(extra)
    b = t.b0.direct_sum(extra_form)
    zero = Matrix.zeros(t.dim_v, t.dim_v)
    action = tuple(t.rho.action) + tuple(zero for _ in range(extra.dim))
    return FundamentalTriplet(g, b, Representation(t.dim_v, action))
