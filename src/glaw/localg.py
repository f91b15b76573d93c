"""The local three-piece algebra V* + g0 + V built from a fundamental triplet.

The degree-(1,-1) bracket [X,Y] is the unique g0 element with
B0([X,Y],U) = Y(rho(U)X); the table of these is one G^{-1} R product over the
nonzeros of rho, built and checked on ints (see ``build_local``) and stored as
``xy_pairs``; ``xy_table`` is its dense Fraction view.  Sign conventions,
fixed once: [Y,X] = -[X,Y]; the table always stores [X,Y] with the V side
first; [U,Y] is the contragredient action.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .exactla import (
    Exact,
    Matrix,
    SparseCols,
    Vector,
    ZERO,
    bilinear,
    dense,
    hstack,
    image_basis,
    inverse,
    kernel_basis,
    rank,
    solve,
    solve_many,
    solve_pairs,
    span_matrix,
    sparse_kernel,
    support,
    vadd,
    vdot,
    vis_zero,
    vneg,
    vscale,
)
from .liecore import (
    FundamentalTriplet,
    LieAlgebraData,
    QuadraticForm,
    Refusal,
    Representation,
    basis_vector,
    center,
    dual_rep,
    grading_element,
    rep_kernel,
    restrict_algebra,
    AmbiguousGrading,
)


@dataclass(frozen=True)
class LocalAlgebra:
    triplet: FundamentalTriplet
    dual_action: Representation
    # [i over V][j over V*] -> [X_i, Y_j] as its nonzero (k, value) pairs, integral values as ints
    xy_pairs: tuple[tuple[tuple[tuple[int, Exact], ...], ...], ...]

    @property
    def dim_g0(self) -> int:
        return self.triplet.dim_g0

    @property
    def dim_v(self) -> int:
        return self.triplet.dim_v

    @cached_property
    def swapped(self) -> LocalAlgebra:
        """The local algebra of theta_swap(triplet), read off this one.

        The swap exchanges V and V*, so its table is [X'_i, Y'_j] = [Y_i, X_j]
        = -[X_j, Y_i].  Its mixed Jacobi identity is this one's with i and j
        exchanged and both sides negated, so nothing is re-checked.
        """
        t, dv, xy = self.triplet, self.dim_v, self.xy_pairs
        table = tuple(tuple(tuple((k, -x) for k, x in xy[j][i]) for j in range(dv)) for i in range(dv))
        return LocalAlgebra(FundamentalTriplet(t.g0, t.b0, self.dual_action), t.rho, table)

    def act_v(self, u: Vector, x: Vector) -> Vector:
        return self.triplet.rho.act(u, x)

    def act_v_dual(self, u: Vector, y: Vector) -> Vector:
        return self.dual_action.act(u, y)

    @cached_property
    def transitivity(self) -> TransitivityReport:
        """transitivity_check of this local algebra, computed once."""
        return transitivity_check(self)

    @cached_property
    def xy_table(self) -> tuple[tuple[Vector, ...], ...]:
        """The dense view: xy_table[i][j] is [X_i, Y_j] as a g0 vector of Fractions."""
        return tuple(tuple(dense(p, self.dim_g0) for p in row) for row in self.xy_pairs)

    def bracket_xy(self, x: Vector, y: Vector) -> Vector:
        table = self.xy_pairs
        return tuple(bilinear(support(x), support(y), lambda i, j: table[i][j], [ZERO] * self.dim_g0))

    def bracket_yx(self, y: Vector, x: Vector) -> Vector:
        return vneg(self.bracket_xy(x, y))

    def bracket(self, da: int, va: Vector, db: int, vb: Vector) -> Vector:
        """[a, b] for a of degree da and b of degree db in V* + g0 + V."""
        if abs(da + db) > 1 or da == db != 0:
            raise Refusal(f"bracket of degrees {da} and {db} is not defined in the local algebra")
        if da == db == 0:
            return self.triplet.g0.bracket(va, vb)
        if db == 0:
            return vneg(self.bracket(db, vb, da, va))
        if da == 0:
            return (self.triplet.rho if db == 1 else self.dual_action).act(va, vb)
        return self.bracket_xy(va, vb) if da == 1 else self.bracket_yx(va, vb)


def _integral(pairs, s: int) -> tuple[tuple[int, int], ...]:
    """s times the (index, value) pairs, as ints: s is a multiple of every denominator."""
    return tuple((k, x.numerator * (s // x.denominator)) for k, x in pairs)


def build_local(t: FundamentalTriplet) -> LocalAlgebra:
    """Construct the local algebra; refuses a degenerate form.

    G^{-1} comes from one elimination of [G | Id].  With d the lcm of its
    denominators, e that of rho and rho' = e rho, the table T = G^{-1} R
    (R[a][(i, j)] = rho_a[j][i]) is built as the integral T' = de T.  The
    mixed Jacobi identity ad(e_a) T = T (rho_a (x) 1 + 1 (x) rho_a^*) is
    re-verified on all (a, i, j) times de^2, as
    e ad(e_a) T' = T' (rho'_a (x) 1 + 1 (x) rho'^*_a): every term is linear
    in T, so it fails exactly where the plain identity does, which means the
    triplet was invalid.  T' is divided by de once, into ``xy_pairs``.
    """
    n, dv = t.dim_g0, t.dim_v
    inv = solve_pairs(t.b0.gram, [((a, 1),) for a in range(n)])
    if None in inv:
        raise Refusal("the invariant form is degenerate; no local bracket exists")
    d = lcm(*(x.denominator for col in inv for _, x in col))
    e = lcm(*(x.denominator for m in t.rho.action_cols for col in m.support for _, x in col))
    inv = [_integral(col, d) for col in inv]
    dual_action = dual_rep(t.rho)
    rho, dual = ([[_integral(col, e) for col in m.support] for m in r.action_cols] for r in (t.rho, dual_action))
    # T'[i][j] gets rho'_a[j][i] (d G^{-1})[:, a] for each nonzero rho'_a[j][i]
    cells = [[defaultdict(int) for _ in range(dv)] for _ in range(dv)]
    for a, cols in enumerate(rho):
        for i, col in enumerate(cols):
            for j, x in col:
                cell = cells[i][j]
                for k, y in inv[a]:
                    cell[k] += x * y
    xy = [[tuple(sorted((k, v) for k, v in cell.items() if v)) for cell in row] for row in cells]
    c = t.g0.structure_pairs
    bracket, xy_entry = (lambda p, q: c[p][q]), (lambda r, s: xy[r][s])
    for a in range(n):
        for i in range(dv):
            for j in range(dv):
                acc = bilinear(((a, e),), xy[i][j], bracket, defaultdict(int))
                bilinear(rho[a][i], ((j, -1),), xy_entry, acc)
                bilinear(((i, -1),), dual[a][j], xy_entry, acc)
                if any(acc.values()):
                    raise Refusal(
                        f"mixed Jacobi identity fails at (g0={a}, V={i}, V*={j}); "
                        "the input triplet does not satisfy the construction hypotheses"
                    )
    de = d * e
    xy = [tuple(tuple((k, v // de if v % de == 0 else Fraction(v, de)) for k, v in p) for p in row) for row in xy]
    return LocalAlgebra(t, dual_action, tuple(xy))


@dataclass(frozen=True)
class LocalForm:
    """Block description of the invariant form on V* + g0 + V.

    On g0 x g0 it is the triplet form, the (V, V*) pairing is the dual
    evaluation Y(X), and all cross blocks vanish.
    """

    local: LocalAlgebra

    def value(self, a: tuple[int, Vector], b: tuple[int, Vector]) -> Fraction:
        da, va = a
        db, vb = b
        if da + db != 0:
            return ZERO
        if da == 0:
            return self.local.triplet.b0.value(va, vb)
        x, y = (va, vb) if da == 1 else (vb, va)
        return vdot(x, y)


@dataclass(frozen=True)
class TransitivityReport:
    transitive: bool
    faithful: bool
    spans_v: bool
    spans_v_dual: bool
    via_grading_element: bool


def transitivity_check(L: LocalAlgebra) -> TransitivityReport:
    """Faithfulness plus the two span conditions; short-circuits when a
    grading element exists (then the span conditions hold automatically)."""
    t = L.triplet
    faithful = not rep_kernel(t.rho, t.g0)
    try:
        h0 = grading_element(t)
    except AmbiguousGrading:
        h0 = None
    if h0 is not None:
        return TransitivityReport(faithful, faithful, True, True, True)
    # g0.V spans V exactly when no nonzero covector is g0-invariant, and g0.V* spans V* likewise
    spans_v = not _trivial_component(L.dual_action)
    spans_w = not _trivial_component(t.rho)
    return TransitivityReport(faithful and spans_v and spans_w, faithful, spans_v, spans_w, False)


def _component_change_of_basis(t: FundamentalTriplet, ideal_bases: list[list[Vector]]) -> Matrix:
    n = t.dim_g0
    all_cols = [v for basis in ideal_bases for v in basis]
    if len(all_cols) != n:
        raise Refusal("ideal bases do not add up to the dimension of g0")
    m = span_matrix(all_cols, n)
    if rank(m) != n:
        raise Refusal("ideal bases are not linearly independent")
    return m


def _is_ideal(g: LieAlgebraData, basis: list[Vector]) -> bool:
    """Is the span of basis closed under brackets with every element of g?"""
    brackets = [support(g.bracket(basis_vector(g.dim, a), w)) for w in basis for a in range(g.dim)]
    return None not in solve_pairs(span_matrix(basis, g.dim), brackets)


def _orthogonal_complement(t: FundamentalTriplet, vectors: list[Vector]) -> list[Vector]:
    """Canonical basis of the B0-orthogonal complement of the span of vectors."""
    return sparse_kernel((dict(support(t.b0.gram.matvec(v))) for v in vectors), t.dim_g0)


def _check_orthogonal_ideals(t: FundamentalTriplet, ideal_bases: list[list[Vector]]):
    for basis in ideal_bases:
        if not _is_ideal(t.g0, basis):
            raise Refusal("a listed subspace is not an ideal of g0")
    for p in range(len(ideal_bases)):
        for q in range(p + 1, len(ideal_bases)):
            for u in ideal_bases[p]:
                for v in ideal_bases[q]:
                    if t.b0.value(u, v) != 0:
                        raise Refusal("the listed ideals are not mutually orthogonal")


def scale_by_components(
    t: FundamentalTriplet, ideal_bases: list[list[Vector]], lambdas: list[Fraction], u: Vector
) -> Vector:
    """Scale the component of u in the p-th ideal by lambdas[p]."""
    m = _component_change_of_basis(t, ideal_bases)
    coords = solve(m, u)
    scaled = []
    pos = 0
    for basis, lam in zip(ideal_bases, lambdas, strict=True):
        scaled.extend(lam * c for c in coords[pos : pos + len(basis)])
        pos += len(basis)
    return m.matvec(scaled)


def deform_form(
    t: FundamentalTriplet, ideal_bases: list[list[Vector]], lambdas: list[Fraction]
) -> FundamentalTriplet:
    """Replace B0 by the direct sum of lambda_p * B0 restricted to each ideal."""
    if len(ideal_bases) != len(lambdas):
        raise Refusal("one scale per ideal is required")
    if any(lam == 0 for lam in lambdas):
        raise Refusal("zero scales make the deformed form degenerate")
    _check_orthogonal_ideals(t, ideal_bases)
    m = _component_change_of_basis(t, ideal_bases)
    m_inv = inverse(m)
    g_t = m.transpose() @ t.b0.gram @ m
    scaled_rows = []
    pos = 0
    for basis, lam in zip(ideal_bases, lambdas, strict=True):
        for r in range(pos, pos + len(basis)):
            scaled_rows.append([lam * x for x in g_t.entries[r]])
        pos += len(basis)
    # row scaling suffices: the blocks off the diagonal are zero by orthogonality
    g_scaled = Matrix.from_rows(scaled_rows)
    g_new = m_inv.transpose() @ g_scaled @ m_inv
    if rank(g_new) != t.dim_g0:
        raise Refusal("the deformed form is degenerate")
    return FundamentalTriplet(t.g0, QuadraticForm(g_new), t.rho)


def box_rescale_rep(
    t: FundamentalTriplet, center_part: list[Vector], gamma: Fraction
) -> FundamentalTriplet:
    """Rescale the action of a central orthogonal ideal Z by gamma (rho off Z kept).

    Post-verifies that the new degree-(1,-1) bracket is the old one with its
    Z-component scaled by gamma, on all basis pairs.
    """
    if gamma == 0:
        raise Refusal("gamma must be nonzero")
    n = t.dim_g0
    z_basis = list(center_part)
    if None in solve_many(span_matrix(center(t.g0), n), z_basis):
        raise Refusal("the given subspace is not central")
    l_basis = _orthogonal_complement(t, z_basis)
    m = _component_change_of_basis(t, [z_basis, l_basis])
    if not _is_ideal(t.g0, l_basis):
        raise Refusal("the orthogonal complement of Z is not an ideal")
    m_inv = inverse(m)
    k = len(z_basis)
    z_m = span_matrix(z_basis, n)
    # e_a acts as e_a + (gamma - 1) z_a, z_a its component in Z
    shifts = [vscale(gamma - 1, z_m.matvec(m_inv.col(a)[:k])) for a in range(n)]
    new_action = tuple(t.rho.cols_of(vadd(basis_vector(n, a), z)) for a, z in enumerate(shifts))
    out = FundamentalTriplet(t.g0, t.b0, Representation(t.dim_v, new_action))
    old_local = build_local(t)
    new_local = build_local(out)
    for i in range(t.dim_v):
        for j in range(t.dim_v):
            expected = _box_scale_vector(m, m_inv, k, gamma, old_local.xy_table[i][j])
            if new_local.xy_table[i][j] != expected:
                raise Refusal("rescaled bracket identity failed; Z and its complement do not split B0")
    return out


def _box_scale_vector(m: Matrix, m_inv: Matrix, k: int, gamma: Fraction, u: Vector) -> Vector:
    coords = list(m_inv.matvec(u))
    for i in range(k):
        coords[i] *= gamma
    return m.matvec(coords)


def theta_swap(t: FundamentalTriplet) -> FundamentalTriplet:
    """Swap the roles of V and V*: the triplet (g0, B0, rho*)."""
    return FundamentalTriplet(t.g0, t.b0, dual_rep(t.rho))


@dataclass(frozen=True)
class LocalIsomorphism:
    a_map: Matrix
    gamma: Matrix
    gamma_tilde: Matrix


@dataclass(frozen=True)
class IsoRefusal:
    condition: str
    witness: tuple


def _lie_homomorphism_failure(g1: LieAlgebraData, g2: LieAlgebraData, a_map: Matrix) -> tuple[int, int] | None:
    """The first basis pair i < j with A[e_i, e_j] != [A e_i, A e_j], or None."""
    a_cols = SparseCols.from_matrix(a_map).support
    for i in range(g1.dim):
        for j in range(i + 1, g1.dim):
            lhs = bilinear(g1.structure_pairs[i][j], ((0, 1),), lambda k, _: a_cols[k], [ZERO] * a_map.rows)
            if tuple(lhs) != g2.bracket(a_map.col(i), a_map.col(j)):
                return i, j
    return None


def triplet_iso_extend(
    t1: FundamentalTriplet, t2: FundamentalTriplet, a_map: Matrix, gamma: Matrix
) -> LocalIsomorphism | IsoRefusal:
    """Check the two isomorphism-of-triplets conditions and extend.

    On success returns (gamma_tilde = inverse transpose of gamma, A, gamma),
    post-verified to intertwine all three local brackets on basis pairs.  On
    failure reports the violated condition with a witness basis pair.
    """
    if a_map.rows != t2.dim_g0 or a_map.cols != t1.dim_g0 or t1.dim_g0 != t2.dim_g0:
        raise Refusal("A must be square of the common g0 dimension")
    if gamma.rows != t2.dim_v or gamma.cols != t1.dim_v or t1.dim_v != t2.dim_v:
        raise Refusal("gamma must be square of the common V dimension")
    n, dv = t1.dim_g0, t1.dim_v
    try:
        a_inv = inverse(a_map)
        del a_inv
    except ValueError:
        raise Refusal("A is not invertible") from None
    try:
        gamma_inv = inverse(gamma)
    except ValueError:
        raise Refusal("gamma is not invertible") from None
    if (ij := _lie_homomorphism_failure(t1.g0, t2.g0, a_map)) is not None:
        return IsoRefusal("lie-homomorphism", ij)
    pulled = a_map.transpose() @ t2.b0.gram @ a_map
    for i in range(n):
        for j in range(n):
            if pulled.entries[i][j] != t1.b0.gram.entries[i][j]:
                return IsoRefusal("form-isometry", (i, j))
    for a in range(n):
        lhs = t2.rho.matrix_of(a_map.col(a)) @ gamma
        rhs = gamma @ t1.rho.action[a]
        if lhs.entries != rhs.entries:
            return IsoRefusal("representation-intertwiner", (a,))
    gamma_tilde = gamma_inv.transpose()
    # post-verification of the full local criterion on basis elements
    l1, l2 = build_local(t1), build_local(t2)
    for a in range(n):
        lhs = l2.dual_action.matrix_of(a_map.col(a)) @ gamma_tilde
        rhs = gamma_tilde @ l1.dual_action.action[a]
        if lhs.entries != rhs.entries:
            raise Refusal("dual intertwining failed after extension; inconsistent input data")
    for i in range(dv):
        for j in range(dv):
            lhs = a_map.matvec(l1.xy_table[i][j])
            rhs = l2.bracket_xy(gamma.col(i), gamma_tilde.col(j))
            if lhs != rhs:
                raise Refusal("degree-(1,-1) bracket not preserved; inconsistent input data")
    return LocalIsomorphism(a_map, gamma, gamma_tilde)


def local_iso_check(
    t1: FundamentalTriplet,
    t2: FundamentalTriplet,
    gamma_tilde: Matrix,
    a_map: Matrix,
    gamma: Matrix,
) -> LocalIsomorphism | IsoRefusal:
    """General criterion for (gamma_tilde, A, gamma) to be a local isomorphism.

    Unlike triplet_iso_extend, gamma_tilde is caller-chosen, which admits the
    non-isometric scaling maps between a form and its multiples.
    """
    n, dv = t1.dim_g0, t1.dim_v
    if a_map.rows != n or gamma.rows != dv or gamma_tilde.rows != dv:
        raise Refusal("maps must match the common dimensions")
    for m in (a_map, gamma, gamma_tilde):
        try:
            inverse(m)
        except ValueError:
            raise Refusal("all three maps must be invertible") from None
    if (ij := _lie_homomorphism_failure(t1.g0, t2.g0, a_map)) is not None:
        return IsoRefusal("lie-homomorphism", ij)
    l1, l2 = build_local(t1), build_local(t2)
    for a in range(n):
        col = a_map.col(a)
        if (t2.rho.matrix_of(col) @ gamma).entries != (gamma @ t1.rho.action[a]).entries:
            return IsoRefusal("v-intertwiner", (a,))
        if (l2.dual_action.matrix_of(col) @ gamma_tilde).entries != (gamma_tilde @ l1.dual_action.action[a]).entries:
            return IsoRefusal("v-dual-intertwiner", (a,))
    twist = gamma_tilde.transpose() @ gamma
    for i in range(dv):
        for j in range(dv):
            lhs_vec = a_map.matvec(l1.xy_table[i][j])
            for u in range(n):
                lhs = t2.b0.value(lhs_vec, a_map.col(u))
                rhs = t1.b0.value(l1.bracket_xy(twist.col(i), basis_vector(dv, j)), basis_vector(n, u))
                if lhs != rhs:
                    return IsoRefusal("bracket-form-compatibility", (i, j, u))
    return LocalIsomorphism(a_map, gamma, gamma_tilde)


@dataclass(frozen=True)
class ReductionResult:
    transitive_part: FundamentalTriplet
    v0: tuple[Vector, ...]
    v1: tuple[Vector, ...]
    g0_kernel: tuple[Vector, ...]
    g0_faithful: tuple[Vector, ...]


def reduce_triplet(t: FundamentalTriplet, assert_completely_reducible: bool) -> ReductionResult:
    """Split off the representation kernel and the trivial isotypic component.

    Reductivity of g0 is the caller's assertion; every consequence actually
    used is verified (orthogonal ideal split, V0 + V1 = V, nondegeneracy of
    the restricted forms).
    """
    if not assert_completely_reducible:
        raise Refusal("reduction requires the caller to assert complete reducibility")
    n, dv = t.dim_g0, t.dim_v
    k_basis = rep_kernel(t.rho, t.g0)
    zc = center(t.g0)
    z_and_k = _intersect_spans(zc, k_basis, n)
    if z_and_k:
        mzk = span_matrix(z_and_k, n)
        if rank(mzk.transpose() @ t.b0.gram @ mzk) != len(z_and_k):
            raise Refusal("B0 restricted to the central part of the kernel is degenerate")
    f_basis = _orthogonal_complement(t, k_basis)
    if len(f_basis) + len(k_basis) != n or rank(span_matrix(list(k_basis) + f_basis, n)) != n:
        raise Refusal("the orthogonal complement of the kernel does not complement it")
    if not _is_ideal(t.g0, f_basis):
        raise Refusal("the orthogonal complement of the kernel is not an ideal")
    v0 = _trivial_component(t.rho)
    v1 = list(image_basis(SparseCols(dv, n * dv, tuple(c for m in t.rho.action_cols for c in m.support))).basis)
    if len(v0) + len(v1) != dv or rank(span_matrix(v0 + v1, dv)) != dv:
        raise Refusal("reducibility check failed: the trivial part does not complement the span of g0.V")
    if not k_basis and not v0:
        return ReductionResult(t, (), tuple(basis_vector(dv, i) for i in range(dv)), (), tuple(f_basis))
    f_m = span_matrix(f_basis, n)
    nf = len(f_basis)
    g0f = restrict_algebra(t.g0, f_basis, "bracket left the faithful ideal")
    gram_f = f_m.transpose() @ t.b0.gram @ f_m
    if rank(gram_f) != nf:
        raise Refusal("B0 restricted to the faithful ideal is degenerate")
    nv1 = len(v1)
    coords = solve_pairs(span_matrix(v1, dv), [support(t.rho.act(f, v)) for f in f_basis for v in v1])
    if None in coords:
        raise Refusal("the span of g0.V is not rho-stable; inconsistent data")
    action = tuple(SparseCols(nv1, nv1, tuple(coords[p * nv1 : (p + 1) * nv1])) for p in range(nf))
    part = FundamentalTriplet(g0f, QuadraticForm(gram_f), Representation(nv1, action))
    return ReductionResult(part, tuple(v0), tuple(v1), tuple(k_basis), tuple(f_basis))


def _trivial_component(r: Representation) -> list[Vector]:
    """Canonical basis of the vectors every rho(e_a) kills, from the rows of every rho(e_a)."""
    return sparse_kernel((dict(row) for m in r.action_cols for row in m.transpose().support), r.dim_v)


def _intersect_spans(a: list[Vector], b: list[Vector], dim: int) -> list[Vector]:
    ma = span_matrix(a, dim)
    m = hstack([ma, span_matrix([vneg(v) for v in b], dim)])
    vecs = [ma.matvec(kv[: len(a)]) for kv in kernel_basis(m)]
    return [v for v in vecs if not vis_zero(v)]
