"""Lie algebras by structure constants, invariant forms, representations.

Houses the fundamental triplet (g0, B0, rho) and the subalgebra computations
(derived algebra, center, representation kernel, grading element) that the
local-bracket construction and the sl2 machinery rely on.  Validation is
exhaustive on basis tuples, summing over nonzero entries only; Jacobi runs over
i<j<k, which suffices once the separately checked antisymmetry holds.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .exactla import (
    Matrix,
    SparseCols,
    Vector,
    ZERO,
    as_vector,
    bilinear,
    image_basis,
    kernel_basis,
    rank,
    solve,
    span_matrix,
    support,
    vadd,
    vscale,
    vzero,
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
    """A Lie algebra on basis e_0..e_{dim-1}; structure[i][j] is [e_i, e_j]."""

    dim: int
    structure: tuple[tuple[Vector, ...], ...]

    def __post_init__(self):
        if len(self.structure) != self.dim:
            raise StructureError("structure table has wrong outer size")
        for row in self.structure:
            if len(row) != self.dim or any(len(v) != self.dim for v in row):
                raise StructureError("structure table has wrong inner size")

    @staticmethod
    def from_table(table) -> "LieAlgebraData":
        dim = len(table)
        return LieAlgebraData(dim, tuple(tuple(as_vector(v) for v in row) for row in table))

    @staticmethod
    def abelian(dim: int) -> "LieAlgebraData":
        z = vzero(dim)
        return LieAlgebraData(dim, tuple(tuple(z for _ in range(dim)) for _ in range(dim)))

    @cached_property
    def structure_pairs(self) -> tuple[tuple[tuple[tuple[int, Fraction], ...], ...], ...]:
        """structure[i][j] as its nonzero (k, coefficient) pairs."""
        return tuple(tuple(tuple(support(v)) for v in row) for row in self.structure)

    def bracket(self, x: Vector, y: Vector) -> Vector:
        table = self.structure_pairs
        return tuple(bilinear(support(x), support(y), lambda i, j: table[i][j], [ZERO] * self.dim))

    def ad_matrix(self, x: Vector) -> Matrix:
        cols = [self.bracket(x, basis_vector(self.dim, j)) for j in range(self.dim)]
        return Matrix.from_cols(cols, nrows=self.dim)

    def direct_sum(self, other: "LieAlgebraData") -> "LieAlgebraData":
        n, m = self.dim, other.dim
        table = [[vzero(n + m) for _ in range(n + m)] for _ in range(n + m)]
        for i in range(n):
            for j in range(n):
                table[i][j] = self.structure[i][j] + vzero(m)
            # cross brackets stay zero
        for i in range(m):
            for j in range(m):
                table[n + i][n + j] = vzero(n) + other.structure[i][j]
        return LieAlgebraData(n + m, tuple(tuple(row) for row in table))


def restrict_algebra(g: LieAlgebraData, basis: list[Vector], refusal: str) -> LieAlgebraData:
    """Structure constants of a subalgebra in the given basis; refuses with
    ``refusal`` when a bracket leaves its span."""
    m = span_matrix(basis, g.dim)
    table = []
    for p in basis:
        row = []
        for q in basis:
            coords = solve(m, g.bracket(p, q))
            if coords is None:
                raise Refusal(f"{refusal}; inconsistent data")
            row.append(coords)
        table.append(tuple(row))
    return LieAlgebraData(len(basis), tuple(table))


def basis_vector(dim: int, i: int) -> Vector:
    return tuple(Fraction(1) if k == i else ZERO for k in range(dim))


@dataclass(frozen=True)
class QuadraticForm:
    gram: Matrix

    def value(self, u: Vector, v: Vector) -> Fraction:
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
        """The action matrices stored by columns."""
        return tuple(SparseCols.from_matrix(a) for a in self.action)

    def act(self, u: Vector, x: Vector) -> Vector:
        if len(u) != len(self.action):
            raise StructureError("coefficient vector does not match the algebra dimension")
        cols = self.action_cols
        return tuple(bilinear(support(u), support(x), lambda a, l: cols[a].support[l], [ZERO] * self.dim_v))

    def matrix_of(self, u: Vector) -> Matrix:
        """rho(u) = sum of u_a rho(e_a), accumulated in one pass over the nonzero entries."""
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
    representation, all on basis tuples.
    """
    rep = ValidationReport()
    g, b0, rho = t.g0, t.b0, t.rho
    n = g.dim
    for i in range(n):
        for j in range(i, n):
            lhs = g.structure[i][j]
            rhs = vscale(Fraction(-1), g.structure[j][i])
            if lhs != rhs:
                rep.add(f"antisymmetry fails at basis pair ({i},{j})")
    c = g.structure_pairs
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                # [e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] + [e_k,[e_i,e_j]]
                acc = defaultdict(int)
                for p, inner in ((i, c[j][k]), (j, c[k][i]), (k, c[i][j])):
                    bilinear(((p, 1),), inner, lambda a, b: c[a][b], acc)
                if any(acc.values()):
                    rep.add(f"Jacobi identity fails at basis triple ({i},{j},{k})")
    if not b0.gram.is_symmetric():
        rep.add("form is not symmetric")
    if rank(b0.gram) != n:
        rep.add("form is degenerate")
    # B([e_i,e_j], e_k) = (G^T c_ij)[k] and B(e_i, [e_j,e_k]) = (G c_jk)[i], c_ij = [e_i,e_j]
    brackets = Matrix.from_cols([g.structure[i][j] for i in range(n) for j in range(n)], nrows=n)
    left = (b0.gram.transpose() @ brackets).entries
    right = (b0.gram @ brackets).entries
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if left[k][i * n + j] != right[i][j * n + k]:
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
    """Contragredient action: each generator goes to minus its transpose."""
    return Representation(r.dim_v, tuple((-a.transpose()) for a in r.action))


def derived_subalgebra(g: LieAlgebraData) -> list[Vector]:
    cols = [g.structure[i][j] for i in range(g.dim) for j in range(i + 1, g.dim)]
    return list(image_basis(span_matrix(cols, g.dim)).basis)


def _row_kernel(rows, dim: int) -> list[Vector]:
    """Kernel of the matrix with these rows of length dim.

    Zero and repeated rows are dropped first: the row space, hence the RREF
    and the kernel basis, is unchanged.
    """
    rows = list(dict.fromkeys(row for row in rows if any(row)))
    return kernel_basis(Matrix.from_rows(rows) if rows else Matrix.zeros(0, dim))


def center(g: LieAlgebraData) -> list[Vector]:
    n = g.dim
    return _row_kernel((tuple(g.structure[i][j][k] for i in range(n)) for j in range(n) for k in range(n)), n)


def rep_kernel(r: Representation, g: LieAlgebraData) -> list[Vector]:
    rows = (tuple(r.action[i].entries[p][q] for i in range(g.dim)) for p in range(r.dim_v) for q in range(r.dim_v))
    return _row_kernel(rows, g.dim)


def grading_element(t: FundamentalTriplet) -> Vector | None:
    """The unique central H0 with rho(H0) = 2*Id, None if absent.

    Raises AmbiguousGrading when several central solutions exist, since H0
    feeds sl2 certificates and an arbitrary choice would corrupt them.
    """
    z = center(t.g0)
    if not z:
        return None
    rows = []
    target = []
    two = Fraction(2)
    for p in range(t.dim_v):
        for q in range(t.dim_v):
            rows.append(tuple(t.rho.act(zv, basis_vector(t.dim_v, q))[p] for zv in z))
            target.append(two if p == q else ZERO)
    sys = Matrix.from_rows(rows)
    coeffs = solve(sys, target)
    if coeffs is None:
        return None
    if kernel_basis(sys):
        raise AmbiguousGrading("several central elements act as 2*Id")
    h = vzero(t.dim_g0)
    for c, zv in zip(coeffs, z):
        h = vadd(h, vscale(c, zv))
    return h


def killing_form(g: LieAlgebraData) -> Matrix:
    """Gram matrix of the Killing form tr(ad x ad y) on the basis.

    (ad e_i)[a][b] = c[i][b][a], so K[i][j] is the sum of c[i][b][a] c[j][a][b]
    over the nonzero entries of ad e_i; K is symmetric since tr(AB) = tr(BA).
    """
    n = g.dim
    c = g.structure
    support = [[(a, b, x) for b in range(n) for a, x in enumerate(c[i][b]) if x] for i in range(n)]
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            cj = c[j]
            acc = ZERO
            for a, b, x in support[i]:
                y = cj[a][b]
                if y:
                    acc += x * y
            rows[i][j] = rows[j][i] = acc
    return Matrix(n, n, tuple(tuple(r) for r in rows))


def direct_sum_with_zero_factor(
    t: FundamentalTriplet, extra: LieAlgebraData, extra_form: QuadraticForm
) -> FundamentalTriplet:
    """Adjoin an orthogonal ideal that acts by zero on V (a representation kernel)."""
    g = t.g0.direct_sum(extra)
    b = t.b0.direct_sum(extra_form)
    zero = Matrix.zeros(t.dim_v, t.dim_v)
    action = tuple(t.rho.action) + tuple(zero for _ in range(extra.dim))
    return FundamentalTriplet(g, b, Representation(t.dim_v, action))
