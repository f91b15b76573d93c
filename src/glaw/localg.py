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
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property

from .exactla import (
    Exact,
    Matrix,
    Pairs,
    SparseCols,
    Vector,
    combine,
    common_kernel,
    dense,
    divided,
    image_basis,
    inverse_pairs,
    numerators,
    rank,
    record,
    solve_pairs,
    sparse_kernel,
    support,
    vdot,
    vneg,
)
from .liecore import (
    FundamentalTriplet,
    LieAlgebraData,
    QuadraticForm,
    Refusal,
    Representation,
    basis_vector,
    center,
    checked_pairs,
    dual_rep,
    rep_kernel,
    restrict_algebra,
)


@record
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

    @cached_property
    def transitivity(self) -> TransitivityReport:
        """transitivity_check of this local algebra, computed once."""
        return transitivity_check(self)

    @cached_property
    def xy_table(self) -> tuple[tuple[Vector, ...], ...]:
        """The dense view: xy_table[i][j] is [X_i, Y_j] as a g0 vector of Fractions."""
        return tuple(tuple(dense(p, self.dim_g0) for p in row) for row in self.xy_pairs)

    def bracket_xy(self, x: Vector, y: Vector) -> Vector:
        (xs, ys), table = checked_pairs(self.dim_v, x, y), self.xy_pairs
        return dense(combine((x_i, ys, table[i]) for i, x_i in xs), self.dim_g0)

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


def build_local(t: FundamentalTriplet) -> LocalAlgebra:
    """Construct the local algebra; refuses a degenerate form.

    G^{-1} comes from one elimination of [G | Id].  With d the lcm of its
    denominators, e that of rho (and of rho^*) and rho' = e rho, the table T = G^{-1} R
    (R[a][(i, j)] = rho_a[j][i]) is built as the integral T' = de T.  The
    mixed Jacobi identity ad(e_a) T = T (rho_a (x) 1 + 1 (x) rho_a^*) is
    re-verified on all (a, i, j) times f de^2 (f the lcm of the structure constants'
    denominators) as f e ad(e_a) T' = f T' (rho'_a (x) 1 + 1 (x) rho'^*_a), one int dict
    per (a, i) keyed j * dim_g0 + k: every term is linear in T, so it fails exactly where
    the plain identity does (the smallest nonzero key gives the first such j), which
    means the triplet was invalid.  T' is divided by de once, into ``xy_pairs``.
    """
    n, dv = t.dim_g0, t.dim_v
    inv = inverse_pairs(t.b0.cols)
    if inv is None:
        raise Refusal("the invariant form is degenerate; no local bracket exists")
    d, inv = numerators(inv)
    dual_action = dual_rep(t.rho)
    (e, rho), (_, dual) = (numerators(col for m in r.action_cols for col in m.support) for r in (t.rho, dual_action))
    # T'[i][j] gets rho'_a[j][i] (d G^{-1})[:, a] for each nonzero rho'_a[j][i]
    cells = [[defaultdict(int) for _ in range(dv)] for _ in range(dv)]
    for ai, col in enumerate(rho):
        a, i = divmod(ai, dv)
        for j, x in col:
            cell = cells[i][j]
            for k, y in inv[a]:
                cell[k] += x * y
    xy = [[tuple(sorted((k, v) for k, v in cell.items() if v)) for cell in row] for row in cells]
    f, c = numerators(col for row in t.g0.structure_pairs for col in row)
    # row i of T' as (offset j * n, b, T'_ij[b]) for each nonzero entry: T'_ij[b] goes to key j * n + b
    t_rows = [[(j * n, b, x) for j in range(dv) for b, x in xy[i][j]] for i in range(dv)]
    for a in range(n):
        ad, duals = c[a * n : (a + 1) * n], [(j * n, k, x) for j in range(dv) for k, x in dual[a * dv + j]]
        for i in range(dv):
            # f e [e_a, T'_ij] - f sum_k rho'^*_a[k, j] T'_ik - f sum_k rho'_a[k, i] T'_kj, for every j
            acc: dict[int, int] = {}
            for terms, src, m in ((t_rows[i], ad, e), (duals, xy[i], -f)):
                for o, b, x in terms:
                    for k, y in src[b]:
                        acc[o + k] = acc.get(o + k, 0) + m * x * y
            for k, x in rho[a * dv + i]:
                for o, b, y in t_rows[k]:
                    acc[o + b] = acc.get(o + b, 0) - f * x * y
            if any(acc.values()):
                j = min(r for r, v in acc.items() if v) // n
                raise Refusal(
                    f"mixed Jacobi identity fails at (g0={a}, V={i}, V*={j}); "
                    "the input triplet does not satisfy the construction hypotheses"
                )
    de = d * e
    xy = [tuple(divided(p, de) for p in row) for row in xy]
    return LocalAlgebra(t, dual_action, tuple(xy))


@record
class TransitivityReport:
    transitive: bool
    faithful: bool
    spans_v: bool
    spans_v_dual: bool


def transitivity_check(L: LocalAlgebra) -> TransitivityReport:
    """Faithfulness plus the two span conditions."""
    t = L.triplet
    faithful = not rep_kernel(t.rho, t.g0)
    # g0.V spans V exactly when no nonzero covector is g0-invariant, and g0.V* spans V* likewise
    spans_v = not _trivial_component(L.dual_action)
    spans_w = not _trivial_component(t.rho)
    return TransitivityReport(faithful and spans_v and spans_w, faithful, spans_v, spans_w)


def _component_scaling(t: FundamentalTriplet, ideal_bases: list[list[Vector]], scales: list[Fraction]) -> SparseCols:
    """S = M D M^-1 by columns, M the ideal bases by columns and D scaling the coordinates of the
    p-th ideal by scales[p]: S e_a is read off the solution M c_a = e_a, all from one elimination."""
    n, vectors = t.dim_g0, [v for basis in ideal_bases for v in basis]
    if len(vectors) != n:
        raise Refusal("ideal bases do not add up to the dimension of g0")
    m = SparseCols.from_vectors(vectors, n)
    coords = inverse_pairs(m)
    if coords is None:
        raise Refusal("ideal bases are not linearly independent")
    d = [lam for basis, lam in zip(ideal_bases, scales, strict=True) for _ in basis]
    return SparseCols(n, n, tuple(combine(((1, [(k, d[k] * x) for k, x in c], m.support),)) for c in coords))


def _is_ideal(g: LieAlgebraData, basis: list[Vector]) -> bool:
    """Is the span of basis closed under brackets with every element of g?"""
    brackets = [support(g.bracket(basis_vector(g.dim, a), w)) for w in basis for a in range(g.dim)]
    return None not in solve_pairs(SparseCols.from_vectors(basis, g.dim), brackets)


def _orthogonal_complement(t: FundamentalTriplet, vectors: list[Vector]) -> list[Vector]:
    """Canonical basis of the B0-orthogonal complement of the span of vectors."""
    return sparse_kernel((t.b0.image(v) for v in vectors), t.dim_g0)


def _check_orthogonal_ideals(t: FundamentalTriplet, ideal_bases: list[list[Vector]]):
    for basis in ideal_bases:
        if not _is_ideal(t.g0, basis):
            raise Refusal("a listed subspace is not an ideal of g0")
    for p in range(len(ideal_bases)):
        for q in range(p + 1, len(ideal_bases)):
            if any(any(row) for row in t.b0.gram_on(ideal_bases[p], ideal_bases[q]).entries):
                raise Refusal("the listed ideals are not mutually orthogonal")


def scale_by_components(
    t: FundamentalTriplet, ideal_bases: list[list[Vector]], lambdas: list[Fraction], u: Vector
) -> Vector:
    """Scale the component of u in the p-th ideal by lambdas[p]."""
    s = _component_scaling(t, ideal_bases, lambdas)
    (us,) = checked_pairs(t.dim_g0, u)
    return dense(combine(((1, us, s.support),)), t.dim_g0)


def deform_form(
    t: FundamentalTriplet, ideal_bases: list[list[Vector]], lambdas: list[Fraction]
) -> FundamentalTriplet:
    """Replace B0 by the direct sum of lambda_p * B0 restricted to each ideal.

    In the ideal basis M that form is D (M^T G M), so its Gram matrix is M^-T D (M^T G M) M^-1.
    The ideals are orthogonal, so M^T G M is block diagonal and commutes with D, and the new
    Gram matrix is G S, S = M D M^-1 the component scaling.
    """
    if len(ideal_bases) != len(lambdas):
        raise Refusal("one scale per ideal is required")
    if any(lam == 0 for lam in lambdas):
        raise Refusal("zero scales make the deformed form degenerate")
    _check_orthogonal_ideals(t, ideal_bases)
    s = _component_scaling(t, ideal_bases, lambdas)
    n = t.dim_g0
    g_new = t.b0.gram_on([basis_vector(n, a) for a in range(n)], s.columns())
    if rank(g_new) != n:
        raise Refusal("the deformed form is degenerate")
    return FundamentalTriplet(t.g0, QuadraticForm(g_new), t.rho)


def box_rescale_rep(
    t: FundamentalTriplet, center_part: list[Vector], gamma: Fraction
) -> FundamentalTriplet:
    """Rescale the action of a central orthogonal ideal Z by gamma (rho off Z kept).

    e_a acts as S e_a, S the component scaling by gamma on Z and 1 on its orthogonal complement.
    Post-verifies that the new degree-(1,-1) bracket is S times the old one, on all basis pairs.
    """
    if gamma == 0:
        raise Refusal("gamma must be nonzero")
    n = t.dim_g0
    z_basis = list(center_part)
    if None in solve_pairs(SparseCols.from_vectors(center(t.g0), n), checked_pairs(n, *z_basis)):
        raise Refusal("the given subspace is not central")
    l_basis = _orthogonal_complement(t, z_basis)
    s = _component_scaling(t, [z_basis, l_basis], [gamma, 1])
    if not _is_ideal(t.g0, l_basis):
        raise Refusal("the orthogonal complement of Z is not an ideal")
    out = FundamentalTriplet(t.g0, t.b0, Representation(t.dim_v, tuple(t.rho.cols_of(u) for u in s.columns())))
    old_xy, new_xy = build_local(t).xy_pairs, build_local(out).xy_pairs
    for i in range(t.dim_v):
        for j in range(t.dim_v):
            if new_xy[i][j] != combine(((1, old_xy[i][j], s.support),)):
                raise Refusal("rescaled bracket identity failed; Z and its complement do not split B0")
    return out


def theta_swap(t: FundamentalTriplet) -> FundamentalTriplet:
    """Swap the roles of V and V*: the triplet (g0, B0, rho*)."""
    return FundamentalTriplet(t.g0, t.b0, dual_rep(t.rho))


@record
class LocalIsomorphism:
    a_map: Matrix
    gamma: Matrix
    gamma_tilde: Matrix


@record
class IsoRefusal:
    condition: str
    witness: tuple


def _lie_homomorphism_failure(g1: LieAlgebraData, g2: LieAlgebraData, a_map: Matrix) -> tuple[int, int] | None:
    """The first basis pair i < j with A[e_i, e_j] != [A e_i, A e_j], or None."""
    a_cols, c1, c2 = SparseCols.from_matrix(a_map).support, g1.structure_pairs, g2.structure_pairs
    for i in range(g1.dim):
        for j in range(i + 1, g1.dim):
            if combine(((1, c1[i][j], a_cols),)) != combine((x, a_cols[j], c2[k]) for k, x in a_cols[i]):
                return i, j
    return None


def _is_square(m: Matrix, dim1: int, dim2: int) -> bool:
    """Is m a square map of the dimension that both triplets share?"""
    return m.rows == m.cols == dim1 == dim2


def _intertwines(r1: Representation, r2: Representation, a: int, u: Vector, gamma: Sequence[Pairs]) -> bool:
    """Does r2(u) gamma = gamma r1(e_a) hold?  Compared column by column on the sparse
    columns, gamma given by its columns."""
    lhs, rhs = r2.cols_of(u).support, r1.action_cols[a].support
    return all(combine(((1, g, lhs),)) == combine(((1, rhs[l], gamma),)) for l, g in enumerate(gamma))


def triplet_iso_extend(
    t1: FundamentalTriplet, t2: FundamentalTriplet, a_map: Matrix, gamma: Matrix
) -> LocalIsomorphism | IsoRefusal:
    """Check the two isomorphism-of-triplets conditions and extend.

    On success returns (gamma_tilde = inverse transpose of gamma, A, gamma),
    post-verified to intertwine all three local brackets on basis pairs.  On
    failure reports the violated condition with a witness basis pair.
    """
    if not _is_square(a_map, t1.dim_g0, t2.dim_g0):
        raise Refusal("A must be square of the common g0 dimension")
    if not _is_square(gamma, t1.dim_v, t2.dim_v):
        raise Refusal("gamma must be square of the common V dimension")
    n, dv = t1.dim_g0, t1.dim_v
    a_cols = SparseCols.from_matrix(a_map)
    if inverse_pairs(a_cols) is None:
        raise Refusal("A is not invertible")
    gamma_cols = SparseCols.from_matrix(gamma)
    gamma_inv = inverse_pairs(gamma_cols)
    if gamma_inv is None:
        raise Refusal("gamma is not invertible")
    if (ij := _lie_homomorphism_failure(t1.g0, t2.g0, a_map)) is not None:
        return IsoRefusal("lie-homomorphism", ij)
    pulled = t2.b0.gram_on([a_map.col(a) for a in range(n)])
    for i in range(n):
        for j in range(n):
            if pulled.entries[i][j] != t1.b0.gram.entries[i][j]:
                return IsoRefusal("form-isometry", (i, j))
    for a in range(n):
        if not _intertwines(t1.rho, t2.rho, a, a_map.col(a), gamma_cols.support):
            return IsoRefusal("representation-intertwiner", (a,))
    # row j of gamma^-T is column j of gamma^-1
    gamma_tilde = Matrix.from_rows([dense(col, dv) for col in gamma_inv])
    # post-verification of the full local criterion on basis elements
    l1, l2 = build_local(t1), build_local(t2)
    tilde_cols = SparseCols.from_matrix(gamma_tilde).support
    for a in range(n):
        if not _intertwines(l1.dual_action, l2.dual_action, a, a_map.col(a), tilde_cols):
            raise Refusal("dual intertwining failed after extension; inconsistent input data")
    for i in range(dv):
        for j in range(dv):
            # A [X_i, Y_j] against [gamma X_i, gamma_tilde Y_j]
            lhs = combine(((1, l1.xy_pairs[i][j], a_cols.support),))
            if lhs != combine((x, tilde_cols[j], l2.xy_pairs[k]) for k, x in gamma_cols.support[i]):
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
    if not (_is_square(a_map, n, t2.dim_g0) and all(_is_square(m, dv, t2.dim_v) for m in (gamma, gamma_tilde))):
        raise Refusal("maps must match the common dimensions")
    a_cols, gamma_cols, tilde_cols = (SparseCols.from_matrix(m) for m in (a_map, gamma, gamma_tilde))
    if any(inverse_pairs(m) is None for m in (a_cols, gamma_cols, tilde_cols)):
        raise Refusal("all three maps must be invertible")
    if (ij := _lie_homomorphism_failure(t1.g0, t2.g0, a_map)) is not None:
        return IsoRefusal("lie-homomorphism", ij)
    l1, l2 = build_local(t1), build_local(t2)
    for a in range(n):
        col = a_map.col(a)
        if not _intertwines(t1.rho, t2.rho, a, col, gamma_cols.support):
            return IsoRefusal("v-intertwiner", (a,))
        if not _intertwines(l1.dual_action, l2.dual_action, a, col, tilde_cols.support):
            return IsoRefusal("v-dual-intertwiner", (a,))
    # column i of gamma_tilde^T gamma: entry k is column k of gamma_tilde dotted with column i of gamma
    twist = checked_pairs(dv, *([vdot(gamma_tilde.col(k), gamma.col(i)) for k in range(dv)] for i in range(dv)))
    # B2(A w, A e_u) is A w dotted with G2 A e_u, and B1(w', e_u) is w' dotted with column u of G1
    pulled, g1 = [t2.b0.image(a_map.col(u)) for u in range(n)], t1.b0.cols.support
    xy1 = l1.xy_pairs
    for i in range(dv):
        for j in range(dv):
            aw = combine(((1, xy1[i][j], a_cols.support),))
            tw = dict(combine((x, ((j, 1),), xy1[k]) for k, x in twist[i]))
            for u in range(n):
                lhs = sum(x * pulled[u][r] for r, x in aw if r in pulled[u])
                if lhs != sum(x * tw[r] for r, x in g1[u] if r in tw):
                    return IsoRefusal("bracket-form-compatibility", (i, j, u))
    return LocalIsomorphism(a_map, gamma, gamma_tilde)


@record
class ReductionResult:
    transitive_part: FundamentalTriplet
    v0: tuple[Vector, ...]
    v1: tuple[Vector, ...]
    g0_kernel: tuple[Vector, ...]
    g0_faithful: tuple[Vector, ...]


def reduce_triplet(t: FundamentalTriplet) -> ReductionResult:
    """Split off the representation kernel and the trivial isotypic component.

    Reductivity of g0 and complete reducibility of V are assumed, and every
    consequence actually used is verified (orthogonal ideal split,
    V0 + V1 = V, nondegeneracy of the restricted forms).
    """
    n, dv = t.dim_g0, t.dim_v
    k_basis = rep_kernel(t.rho, t.g0)
    zc = center(t.g0)
    z_and_k = _intersect_spans(zc, k_basis, n)
    if z_and_k:
        if rank(t.b0.gram_on(z_and_k)) != len(z_and_k):
            raise Refusal("B0 restricted to the central part of the kernel is degenerate")
    f_basis = _orthogonal_complement(t, k_basis)
    if len(f_basis) + len(k_basis) != n or rank(Matrix.from_rows(k_basis + f_basis)) != n:
        raise Refusal("the orthogonal complement of the kernel does not complement it")
    if not _is_ideal(t.g0, f_basis):
        raise Refusal("the orthogonal complement of the kernel is not an ideal")
    v0 = _trivial_component(t.rho)
    span = image_basis(SparseCols(dv, n * dv, tuple(c for m in t.rho.action_cols for c in m.support))).basis_cols
    v1 = span.columns()
    if len(v0) + len(v1) != dv or rank(Matrix.from_rows(v0 + v1)) != dv:
        raise Refusal("reducibility check failed: the trivial part does not complement the span of g0.V")
    if not k_basis and not v0:
        return ReductionResult(t, (), tuple(basis_vector(dv, i) for i in range(dv)), (), tuple(f_basis))
    nf = len(f_basis)
    g0f = restrict_algebra(t.g0, f_basis, "bracket left the faithful ideal")
    gram_f = t.b0.gram_on(f_basis)
    if rank(gram_f) != nf:
        raise Refusal("B0 restricted to the faithful ideal is degenerate")
    nv1 = len(v1)
    coords = solve_pairs(span, [support(t.rho.act(f, v)) for f in f_basis for v in v1])
    if None in coords:
        raise Refusal("the span of g0.V is not rho-stable; inconsistent data")
    action = tuple(SparseCols(nv1, nv1, tuple(coords[p * nv1 : (p + 1) * nv1])) for p in range(nf))
    part = FundamentalTriplet(g0f, QuadraticForm(gram_f), Representation(nv1, action))
    return ReductionResult(part, tuple(v0), tuple(v1), tuple(k_basis), tuple(f_basis))


def _trivial_component(r: Representation) -> list[Vector]:
    """Canonical basis of the vectors every rho(e_a) kills."""
    return common_kernel(r.dim_v, (m.support for m in r.action_cols))


def _intersect_spans(a: list[Vector], b: list[Vector], dim: int) -> list[Vector]:
    """The nonzero vectors A x for the canonical kernel basis of [A | -B], A and B the columns a and b."""
    m = SparseCols.from_vectors(a + [vneg(v) for v in b], dim)
    vecs = [combine(((1, support(x[: len(a)]), m.support),)) for x in common_kernel(m.cols, (m.support,))]
    return [dense(v, dim) for v in vecs if v]
