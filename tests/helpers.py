"""Shared constructions for the test suite (hand-built algebras and oracles)."""

from __future__ import annotations

import itertools
import random
from collections import defaultdict
from fractions import Fraction

from hypothesis import assume, strategies as st

from glaw import (
    FundamentalTriplet,
    LieAlgebraData,
    Matrix,
    QuadraticForm,
    Representation,
    gen_principal,
    gen_symplectic,
    pairing,
)
from glaw.exactla import SparseCols, combine, dense
from glaw.generators import find_symmetrizer, gen_glblock, gen_with_trivial_summand
from glaw.liecore import basis_vector
from glaw.tower import PnResult, _Graded, _unit, _WordLowering

F = Fraction


def sl2_algebra() -> LieAlgebraData:
    """Basis (h, e, f): [h,e]=2e, [h,f]=-2f, [e,f]=h."""
    z = (F(0), F(0), F(0))
    table = [[z, (F(0), F(2), F(0)), (F(0), F(0), F(-2))],
             [(F(0), F(-2), F(0)), z, (F(1), F(0), F(0))],
             [(F(0), F(0), F(2)), (F(-1), F(0), F(0)), z]]
    return LieAlgebraData.from_table(table)


def sl2_triplet() -> FundamentalTriplet:
    """sl(2) with the trace form and the standard action on column pairs."""
    g = sl2_algebra()
    gram = Matrix.from_rows([[2, 0, 0], [0, 0, 1], [0, 1, 0]])  # tr(ab) on (h,e,f)
    h = Matrix.from_rows([[1, 0], [0, -1]])
    e = Matrix.from_rows([[0, 1], [0, 0]])
    f = Matrix.from_rows([[0, 0], [1, 0]])
    return FundamentalTriplet(g, QuadraticForm(gram), Representation.from_matrices(2, (h, e, f)))


def gl_standard_triplet(n: int) -> FundamentalTriplet:
    """gl(n) with the trace form acting on coordinates (center acts by 1)."""
    return gen_symplectic(n, 1, 1, "trace")


def sl_basis_matrices(n: int) -> list[Matrix]:
    """sl(n) as dense matrices: E_ab for a != b in row-major order, then E_ii - E_(i+1)(i+1)."""
    def unit(entries: dict) -> Matrix:
        return Matrix.from_rows([[entries.get((i, j), 0) for j in range(n)] for i in range(n)])

    off = [unit({(a, b): 1}) for a in range(n) for b in range(n) if a != b]
    return off + [unit({(i, i): 1, (i + 1, i + 1): -1}) for i in range(n - 1)]


def glblock_pairs(n: int) -> list[tuple[Matrix, Matrix]]:
    """The basis of the glblock algebra as dense block pairs (A, B): (Id, -Id),
    then (sl(n), 0), then (0, sl(n)); a model independent of the generator."""
    ident = Matrix.identity(n)
    zero = Matrix.zeros(n, n)
    return (
        [(ident, ident.scale(-1))]
        + [(m, zero) for m in sl_basis_matrices(n)]
        + [(zero, m) for m in sl_basis_matrices(n)]
    )


def mat_mul(*ms: Matrix) -> Matrix:
    """The product of dense matrices, left to right, by the triple sum over the nonzero entries."""
    out = ms[0]
    for m in ms[1:]:
        if out.cols != m.rows:
            raise ValueError("inner dimensions do not match")
        rows = []
        for r in out.entries:
            acc = [F(0)] * m.cols
            for k, x in enumerate(r):
                if x:
                    acc = [a + x * y for a, y in zip(acc, m.entries[k])]
            rows.append(tuple(acc))
        out = Matrix(out.rows, m.cols, tuple(rows))
    return out


def mat_add(*ms: Matrix) -> Matrix:
    """The entrywise sum of dense matrices of one shape."""
    rows = [tuple(sum(xs, F(0)) for xs in zip(*rs, strict=True)) for rs in zip(*(m.entries for m in ms), strict=True)]
    return Matrix(ms[0].rows, ms[0].cols, tuple(rows))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return mat_add(a, b.scale(-1))


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def mat_vec(m: Matrix, v) -> tuple:
    """m v for a dense matrix and a vector of its column count."""
    if len(v) != m.cols:
        raise ValueError("vector length does not match column count")
    return tuple(sum((x * F(y) for x, y in zip(r, v)), F(0)) for r in m.entries)


def ad(g: LieAlgebraData, i: int) -> Matrix:
    """ad(e_i) as a dense matrix: its column j is [e_i, e_j]."""
    return SparseCols(g.dim, g.dim, g.structure_pairs[i]).to_matrix()


def random_rational_vector(rng: random.Random, dim: int, span: int = 4) -> tuple:
    return tuple(F(rng.randint(-span, span)) for _ in range(dim))


def random_abelian_triplet(rng: random.Random, dim: int = 2) -> FundamentalTriplet:
    """Random diagonal-weight triplet (always valid; invariance is vacuous)."""
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
        m = Matrix.from_rows(rows)
        from glaw.exactla import rank

        if rank(m) == dim:
            try:
                return gen_principal(rows, symmetrizer=None)
            except Exception:
                continue


def random_gl2_triplet(rng: random.Random) -> FundamentalTriplet:
    """gl(2) on degree-p polynomials with a random invariant form a*tr+b*trtr."""
    from glaw.generators import symplectic_form_gram
    from glaw.exactla import rank

    p = rng.choice([1, 2])
    while True:
        a, b = rng.randint(1, 3), rng.randint(-2, 2)
        gram = symplectic_form_gram(2, "trace").scale(a)
        shifted = mat_sub(symplectic_form_gram(2, "sl-shifted"), symplectic_form_gram(2, "trace"))
        gram = mat_add(gram, shifted.scale(b))
        if rank(gram) == 4:
            lam = F(rng.randint(1, 4))
            return gen_symplectic(2, p, lam, gram)


def sum_of_powers_vector(n: int, p: int) -> tuple:
    """Coordinates of x_0^p + ... + x_{n-1}^p in the monomial basis."""
    from glaw import monomial_basis

    mono = monomial_basis(n, p)
    coords = [F(0)] * len(mono.exponents)
    for i in range(n):
        alpha = tuple(p if k == i else 0 for k in range(n))
        coords[mono.index(alpha)] = F(1)
    return tuple(coords)


def enumerate_positive_roots(cartan: list[list[int]]) -> list[tuple[int, ...]]:
    """Brute-force positive-root enumeration for a finite-type Cartan matrix.

    Height-by-height closure using root strings: beta + alpha_i is a root iff
    p - <beta, alpha_i^vee> > 0 where p counts how far the string extends
    downward.  Independent of the tower machinery.
    """
    n = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        new = []
        for beta in frontier:
            for i in range(n):
                pairing = sum(m * cartan[i][j] for j, m in enumerate(beta))
                p = 0
                probe = tuple(m - (1 if j == i else 0) for j, m in enumerate(beta))
                while all(x >= 0 for x in probe) and (probe in roots or all(x == 0 for x in probe)):
                    if all(x == 0 for x in probe):
                        break
                    p += 1
                    probe = tuple(m - (1 if j == i else 0) for j, m in enumerate(probe))
                if p - pairing > 0:
                    cand = tuple(m + (1 if j == i else 0) for j, m in enumerate(beta))
                    if cand not in roots:
                        roots.add(cand)
                        new.append(cand)
        frontier = new
    return sorted(roots)


def root_height_counts(cartan: list[list[int]]) -> list[int]:
    roots = enumerate_positive_roots(cartan)
    heights = [sum(r) for r in roots]
    out = []
    for h in range(1, max(heights) + 1):
        out.append(heights.count(h))
    return out


def jacobi_holds_everywhere(g: LieAlgebraData) -> bool:
    from glaw.exactla import vadd, vis_zero, vneg

    for i in range(g.dim):
        for j in range(g.dim):
            if g.structure[i][j] != vneg(g.structure[j][i]):
                return False
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            for k in range(j + 1, g.dim):
                ei, ej, ek = (basis_vector(g.dim, m) for m in (i, j, k))
                acc = vadd(
                    vadd(g.bracket(ei, g.bracket(ej, ek)), g.bracket(ej, g.bracket(ek, ei))),
                    g.bracket(ek, g.bracket(ei, ej)),
                )
                if not vis_zero(acc):
                    return False
    return True


small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)
CARTANS = [[[2]], [[2, -1], [-1, 2]], [[2, -2], [-1, 2]], [[2, -1], [-3, 2]], [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]]
E6_CARTAN = [
    [2, -1, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0],
    [0, -1, 2, -1, 0, -1],
    [0, 0, -1, 2, -1, 0],
    [0, 0, 0, -1, 2, 0],
    [0, 0, -1, 0, 0, 2],
]


@st.composite
def generator_triplets(draw, min_n=1):
    """Triplets from the generator families with random parameters, all valid."""
    family = draw(st.sampled_from(["sp", "glblock", "principal"]))
    if family == "sp":
        n = draw(st.integers(min_n, 3))
        form = draw(st.sampled_from(["trace", "sl-shifted"] + (["g2"] if n < 3 else [])))
        t = gen_symplectic(n, draw(st.integers(1, 3 if n < 3 else 2)), draw(small_rationals.filter(bool)), form)
    elif family == "glblock":
        l1, l2 = draw(small_rationals.filter(bool)), draw(small_rationals.filter(bool))
        assume(l1 + l2 != 0)
        t = gen_glblock(draw(st.integers(min_n, 2)), l1, l2)
    else:
        cartan = draw(st.sampled_from(CARTANS[min_n - 1 :]))
        scale = draw(small_rationals.filter(bool))
        t = gen_principal(cartan, [scale * d for d in find_symmetrizer(Matrix.from_rows(cartan))])
    return gen_with_trivial_summand(t, draw(st.integers(0, 1)))


def dense_rref(rows, ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of dense rows and its pivot columns, by
    textbook Gauss-Jordan on Fractions; an oracle independent of glaw's
    elimination."""
    m = [[F(x) for x in row] for row in rows]
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def dense_kernel(rows, ncols: int) -> list[tuple]:
    """Canonical null-space basis (free variables set to 1, increasing) read
    off ``dense_rref``."""
    m, pivots = dense_rref(rows, ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [F(0)] * ncols
        v[free] = F(1)
        for k, pc in enumerate(pivots):
            v[pc] = -m[k][free]
        basis.append(tuple(v))
    return basis


def dense_rank(rows, ncols: int) -> int:
    return len(dense_rref(rows, ncols)[1])


def same_span(a, b, dim: int) -> bool:
    """Do two lists of vectors of length dim span the same subspace?  By ``dense_rref`` ranks."""
    return dense_rank(a, dim) == dense_rank(b, dim) == dense_rank(list(a) + list(b), dim)


def in_dense_span(v, vectors) -> bool:
    """Is v in the span of vectors?  By ``dense_rref`` ranks."""
    return dense_rank(list(vectors) + [v], len(v)) == dense_rank(vectors, len(v))


def dense_solve(rows, rhs) -> tuple | None:
    """The solution of rows . x = rhs with free variables 0, read off ``dense_rref`` of [rows | rhs],
    or None when the system is inconsistent."""
    ncols = len(rows[0])
    m, pivots = dense_rref([list(row) + [b] for row, b in zip(rows, rhs, strict=True)], ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None
    x = [F(0)] * ncols
    for k, pc in enumerate(pivots):
        x[pc] = m[k][ncols]
    return tuple(x)


def dense_inverse(g: Matrix) -> list[list[Fraction]] | None:
    """The inverse of a square matrix from ``dense_rref`` of [g | Id], None when singular."""
    n = g.rows
    m, pivots = dense_rref([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(g.entries)], 2 * n)
    return [row[n:] for row in m] if pivots[:n] == list(range(n)) else None


def dense_xy_table(t: FundamentalTriplet) -> tuple:
    """The local table T = G^{-1} R on dense Fractions: T[i][j] is the sum over
    a of rho_a[j][i] times column a of G^{-1}."""
    inv, n, dv = dense_inverse(t.b0.gram), t.dim_g0, t.dim_v
    rho = [m.entries for m in t.rho.action]
    return tuple(
        tuple(tuple(sum((inv[k][a] * rho[a][j][i] for a in range(n)), F(0)) for k in range(n)) for j in range(dv))
        for i in range(dv)
    )


def mixed_jacobi_failure(t: FundamentalTriplet) -> tuple[int, int, int] | None:
    """The first (a, i, j) in lexicographic order where the unscaled identity
    [e_a, T_ij] = T(rho_a X_i, Y_j) + T(X_i, rho_a^* Y_j) fails, on dense
    Fractions, or None when it holds everywhere.  rho_a^* = -rho_a^T."""
    table, n, dv = dense_xy_table(t), t.dim_g0, t.dim_v
    c, rho = t.g0.structure, [m.entries for m in t.rho.action]
    for a in range(n):
        for i in range(dv):
            for j in range(dv):
                lhs = [sum((table[i][j][k] * c[a][k][p] for k in range(n)), F(0)) for p in range(n)]
                rhs = [
                    sum((rho[a][m][i] * table[m][j][p] - rho[a][j][m] * table[i][m][p] for m in range(dv)), F(0))
                    for p in range(n)
                ]
                if lhs != rhs:
                    return a, i, j
    return None


class GradedOracle(_Graded):
    """The bracket definition, one basis pair at a time, over the stored maps of a ``_Graded``.

    ``gen_bracket`` is [g, w] for g of degree s = +-1; ``bracket_basis`` is [e_sa, e_sb] by the graded Jacobi
    identity [[g, u], w] = [g, [u, w]] - [u, [g, w]] over the provenance g (x) u of e_sa, memoized per basis
    pair.  An oracle independent of the row recursion of ``glaw.tower.assemble``.
    """

    def __init__(self, g0: LieAlgebraData, pos=(), neg=()):
        super().__init__(g0, pos, neg)
        self.memo: dict[tuple[int, int, int, int], tuple] = {}

    def gen_bracket(self, s: int, g, d: int, w) -> tuple:
        """[g, w] for g of degree s = +-1 and w of degree d, as nonzero (index, coefficient) pairs.

        Degree 0 is the action, -rho_s(w) g; towards degree s the bracket raises through tower s's tensor
        coordinates; otherwise it lowers through tower -s's maps (at |d| = 1 these hold the local [X, Y]).
        """
        if not self.dims.get(d + s):
            return ()
        if d == 0:
            return self.act0(s, [(a, -x) for a, x in w], g)
        if (d > 0) == (s > 0):
            coords, prev = self.comps[d + s].tensor_coords.support, self.dims[d]
            return combine((x, w, coords[i * prev : (i + 1) * prev]) for i, x in g)
        lower = self.comps[d].lower
        return combine((x, w, lower[i].support) for i, x in g)

    def bracket_basis(self, da: int, sa: int, db: int, sb: int) -> tuple:
        key = (da, sa, db, sb)
        hit = self.memo.get(key)
        if hit is None:
            hit = self.memo[key] = self._bracket_basis(da, sa, db, sb)
        return hit

    def _bracket_basis(self, da: int, sa: int, db: int, sb: int) -> tuple:
        if abs(da) > 1 >= abs(db):
            return tuple((k, -x) for k, x in self.bracket_basis(db, sb, da, sa))
        if da == 0:
            return self.act0(db, _unit(sa), _unit(sb))
        s = 1 if da > 0 else -1
        if da == s:
            return self.gen_bracket(s, _unit(sa), db, _unit(sb))
        gen, prev_idx = self.comps[da].provenance[sa]
        out = self.gen_bracket(s, _unit(gen), da - s + db, self.bracket_basis(da - s, prev_idx, db, sb))
        if not self.dims.get(da + db):
            return out
        # out - [u, [g, w]], one term per nonzero entry of [g, w]
        gw = self.gen_bracket(s, _unit(gen), db, _unit(sb))
        u_gw = {q: self.bracket_basis(da - s, prev_idx, db + s, q) for q, _ in gw}
        return combine(((1, _unit(0), (out,)), (-1, gw, u_gw)))


def assembled_by_pairs(tp, tn, local) -> tuple:
    """The structure pairs ``assemble`` builds, by the per-pair recursion: [e_i, e_j] for each i < j from
    ``GradedOracle.bracket_basis``, [e_j, e_i] as its negation, the diagonal zero."""
    gr = GradedOracle(local.triplet.g0, tp.components, tn.components)
    basis = [(d, s) for d in range(-tn.top_degree, tp.top_degree + 1) if gr.dims.get(d) for s in range(gr.dims[d])]
    offset = {}
    for i, (d, _) in enumerate(basis):
        offset.setdefault(d, i)
    table = [[()] * len(basis) for _ in basis]
    for i, (da, sa) in enumerate(basis):
        for j in range(i + 1, len(basis)):
            db, sb = basis[j]
            if gr.dims.get(da + db):
                v = gr.bracket_basis(da, sa, db, sb)
                o = offset[da + db]
                table[i][j] = tuple((o + k, x) for k, x in v)
                table[j][i] = tuple((o + k, -x) for k, x in v)
    return tuple(map(tuple, table))


class WordLoweringOracle(_WordLowering):
    """The degree-n identity one basis tuple at a time, over the memoized lowering of ``_WordLowering``.

    ``value(jx, word)`` is T_{jx[0]} o ... o T_{jx[-1]} applied to the word, a sparse {index: coefficient} of
    V, memoized for words shorter than n.  An oracle independent of the scan of ``glaw.tower.pn_check``,
    which reads every first dual index at once.
    """

    def __init__(self, L, n: int):
        super().__init__(L, n)
        self.by_tuple: dict[tuple, dict] = {}

    def value(self, jx: tuple, word: tuple) -> dict:
        if not jx:
            return {word[0]: 1}
        key = (jx, word)
        hit = self.by_tuple.get(key)
        if hit is None:
            out = defaultdict(int)
            for w, c in self.lower(jx[-1], word).items():
                for i, v in self.value(jx[:-1], w).items():
                    out[i] += c * v
            hit = {i: v for i, v in out.items() if v}
            if len(word) < self.n:
                self.by_tuple[key] = hit
        return hit


def pn_check_by_tuples(L, n: int) -> PnResult:
    """``pn_check`` by the per-tuple scan: every (jx, ix) in lexicographic order, dual indices outer, until
    the first nonvanishing value, returned as a Fraction vector."""
    dv = L.dim_v
    kernel = WordLoweringOracle(L, n)
    for jx in itertools.product(range(dv), repeat=n - 1):
        for ix in itertools.product(range(dv), repeat=n):
            if val := kernel.value(jx, ix):
                return PnResult(n, False, (jx, ix), dense(val.items(), dv))
    return PnResult(n, True, None, None)


def local_form(L, a, b) -> Fraction:
    """The invariant form of V* + g0 + V on (degree, vector) pairs: B0 on g0 x g0, the dual evaluation
    Y(X) between V and V*, zero on every other pair of degrees."""
    (da, va), (db, vb) = a, b
    if da + db != 0:
        return F(0)
    if da == 0:
        return L.triplet.b0.value(va, vb)
    return sum((x * y for x, y in zip(va, vb, strict=True)), F(0))


def eval_term(L, ast, xs, ys) -> tuple:
    """(degree, value) of a ``pn_expand`` term at the degree-1 arguments xs and degree-(-1) arguments ys,
    one ``LocalAlgebra.bracket`` per bracket node."""
    kind = ast[0]
    if kind == "X":
        return 1, xs[ast[1]]
    if kind == "Y":
        return -1, ys[ast[1]]
    da, va = eval_term(L, ast[1], xs, ys)
    db, vb = eval_term(L, ast[2], xs, ys)
    return da + db, L.bracket(da, va, db, vb)


def candidate_pairing_rank(tp, tn, n: int) -> int:
    """Rank of the pairing between all degree-(n+1) candidates on both sides, by ``dense_rank``.

    The form-radical route to dim g_{n+1}: candidates pair through B([x,u],[y,v]) = -B(Phi(x(x)u)(y), v),
    read off the stored growth map ``tp.phis[n - 1]``, and the radical is exactly the growth kernel.
    """
    dim_n, pair, phi = tp.dim_at(n), pairing(tp, tn, n), tp.phis[n - 1]
    width = phi.rows // dim_n * pair.cols
    rows = []
    for col in phi.support:
        row = [F(0)] * width
        for r, x in col:
            j, m = divmod(r, dim_n)
            for v, p in enumerate(pair.entries[m]):
                row[j * pair.cols + v] -= x * p
        rows.append(row)
    return dense_rank(rows, width)
