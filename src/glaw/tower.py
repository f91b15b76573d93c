"""Degree-by-degree growth of the minimal graded algebra over a local part.

The positive part is grown as the image of the map
Phi(x (x) u)(y) = [[y,x],u] + [x,[y,u]] from V (x) g_n into Hom(V*, g_n):
minimality makes [g_1, g_n] span g_{n+1} and transitivity makes the kernel of
lowering exactly the excess, so no free-algebra scaffolding is needed.  The
negative side is the positive side of the swapped triplet, grown over the
local algebra read off ``L.swapped`` (the swap fixes all elements).  Every
bracket with a degree +-1 generator, in growth and in assembly alike, goes
through one mechanism over the stored raise, lower and g0-action maps; a
degree's g0 action is lifted on its first read.  Bases of each new degree are
pivot columns under the deterministic elimination of exactla, so reruns are
bit-identical.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial
from math import prod

from .exactla import (
    Exact,
    Matrix,
    SparseCols,
    Vector,
    ZERO,
    bilinear,
    dense,
    image_basis,
    rank,
    solve_pairs,
    span_matrix,
    sparse_kernel,
    support,
    tight,
)
from .liecore import (
    FundamentalTriplet,
    LieAlgebraData,
    Refusal,
    TransitivityRequired,
    center as algebra_center,
    killing_form,
    restrict_algebra,
)
from .localg import LocalAlgebra, build_local, reduce_triplet

POSITIVE = "pos"
NEGATIVE = "neg"


@dataclass(frozen=True)
class GradedComponent:
    """One graded piece with its g0 action and the maps tying it to its neighbours.

    Every map is stored by sparse columns (``SparseCols``; ``.to_matrix()``
    gives the dense Fraction matrix) that keep each integral value as an int
    and any other as a Fraction, so growth and assembly multiply ints where
    they can.  ``act0[a]`` is the action of the a-th g0 basis element, a
    (dim x dim) map, computed on first read by ``_lift``.
    ``lower[j]`` is ad of the j-th degree-(-1) generator, a (prev_dim x dim)
    map (prev_dim is dim g0 at degree 1).
    ``provenance`` lists, for degree >= 2, the pivot tensors (generator index,
    previous-degree index) whose classes form the basis; ``tensor_coords``
    expresses every tensor class in that basis, column i * prev_dim + m for
    the tensor (i, m).
    """

    dim: int
    lower: tuple[SparseCols, ...]
    provenance: tuple[tuple[int, int], ...]
    tensor_coords: SparseCols | None
    _lift: Callable[[], tuple[SparseCols, ...]] = field(repr=False, compare=False)

    @cached_property
    def act0(self) -> tuple[SparseCols, ...]:
        return self._lift()


@dataclass(frozen=True)
class Tower:
    local: LocalAlgebra
    side: str
    components: tuple[GradedComponent, ...]
    phis: tuple[SparseCols, ...]  # phis[n-1] built candidates for degree n+1
    terminated: bool

    def dims(self) -> list[int]:
        return [c.dim for c in self.components]

    def dim_at(self, n: int) -> int:
        if n < 1:
            raise ValueError("degrees start at 1")
        if n <= len(self.components):
            return self.components[n - 1].dim
        if self.terminated:
            return 0
        raise Refusal(f"degree {n} exceeds the grown budget and the tower has not terminated")

    def component(self, n: int) -> GradedComponent:
        return self.components[n - 1]

    @property
    def top_degree(self) -> int:
        return max((n for n in range(1, len(self.components) + 1) if self.component(n).dim > 0), default=0)


Sparse = dict[int, Exact]  # index -> coefficient; absent indices are zero


def _unit(i: int) -> tuple[tuple[int, int]]:
    return ((i, 1),)


def _pairs(v: Sparse) -> tuple[tuple[int, Exact], ...]:
    """The nonzero entries of a sparse vector in increasing index order, integral ones as ints."""
    return tuple((k, x if type(x) is int else tight(x)) for k, x in sorted(v.items()) if x)


class _Graded:
    """Brackets in g0 + sum of the grown degrees, read off the stored maps.

    ``comps`` and ``dims`` map each signed degree to its component and dim,
    bound from ``pos`` (degrees 1, 2, ...), ``neg`` (-1, -2, ...) and ``add``;
    an unbound degree is zero.  Arguments are given by their nonzero (index,
    coefficient) pairs; each method adds its value into ``out`` (a dense list,
    or a new sparse vector when omitted) and returns it.
    """

    def __init__(self, g0: LieAlgebraData, pos=(), neg=()):
        self.g0 = g0
        self.comps = {s * n: c for s, comps in ((1, pos), (-1, neg)) for n, c in enumerate(comps, 1)}
        self.dims = {0: g0.dim} | {d: c.dim for d, c in self.comps.items()}
        self.memo: dict[tuple[int, int, int, int], tuple[tuple[int, Exact], ...]] = {}

    def add(self, d: int, comp: GradedComponent) -> None:
        self.comps[d] = comp
        self.dims[d] = comp.dim

    def act0(self, d: int, u, w, out: Sparse | list | None = None) -> Sparse | list:
        """[u, w] for u in g0 and w of degree d."""
        out = defaultdict(int) if out is None else out
        if d == 0:
            table = self.g0.structure_pairs
            return bilinear(u, w, lambda a, b: table[a][b], out)
        mats = self.comps[d].act0
        return bilinear(u, w, lambda a, l: mats[a].support[l], out)

    def gen_bracket(self, s: int, g, d: int, w, out: Sparse | list | None = None) -> Sparse | list:
        """[g, w] for g of degree s = +-1 and w of degree d.

        Degree 0 is the action, -rho_s(w) g; towards degree s the bracket
        raises through tower s's tensor coordinates; otherwise it lowers
        through tower -s's maps (at |d| = 1 these hold the local [X, Y]).
        """
        out = defaultdict(int) if out is None else out
        if not self.dims.get(d + s):
            return out
        if d == 0:
            return self.act0(s, [(a, -x) for a, x in w], g, out)
        if (d > 0) == (s > 0):
            coords, prev = self.comps[d + s].tensor_coords.support, self.dims[d]
            return bilinear(g, w, lambda i, m: coords[i * prev + m], out)
        lower = self.comps[d].lower
        return bilinear(g, w, lambda i, m: lower[i].support[m], out)

    def bracket_basis(self, da: int, sa: int, db: int, sb: int) -> tuple[tuple[int, Exact], ...]:
        key = (da, sa, db, sb)
        hit = self.memo.get(key)
        if hit is None:
            hit = self.memo[key] = self._bracket_basis(da, sa, db, sb)
        return hit

    def _bracket_basis(self, da: int, sa: int, db: int, sb: int) -> tuple[tuple[int, Exact], ...]:
        if abs(da) > 1 >= abs(db):
            return tuple((k, -x) for k, x in self.bracket_basis(db, sb, da, sa))
        if da == 0:
            return _pairs(self.act0(db, _unit(sa), _unit(sb)))
        s = 1 if da > 0 else -1
        if da == s:
            return _pairs(self.gen_bracket(s, _unit(sa), db, _unit(sb)))
        # [[g, u], w] = [g, [u, w]] - [u, [g, w]] for the provenance g (x) u of e_sa
        gen, prev_idx = self.comps[da].provenance[sa]
        out = self.gen_bracket(s, _unit(gen), da - s + db, self.bracket_basis(da - s, prev_idx, db, sb))
        gw = [(k, -x) for k, x in _pairs(self.gen_bracket(s, _unit(gen), db, _unit(sb)))]
        if self.dims.get(da + db):
            bilinear(_unit(prev_idx), gw, lambda p, q: self.bracket_basis(da - s, p, db + s, q), out)
        return _pairs(out)


def grow(L: LocalAlgebra, side: str, max_degree: int) -> Tower:
    """Grow one side of the minimal graded algebra up to max_degree.

    Raises TransitivityRequired for a non-transitive local part (reduce the
    triplet first); stops early once a degree vanishes.
    """
    if side not in (POSITIVE, NEGATIVE):
        raise ValueError("side must be 'pos' or 'neg'")
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    report = L.transitivity
    if not report.transitive:
        raise TransitivityRequired(
            "the local part is not transitive "
            f"(faithful={report.faithful}, spans_V={report.spans_v}, spans_V*={report.spans_v_dual}); "
            "reduce the triplet first"
        )
    growth = L if side == POSITIVE else L.swapped
    t = growth.triplet
    dv, n0 = t.dim_v, t.dim_g0
    table = growth.xy_pairs
    lower1 = tuple(
        SparseCols(n0, dv, tuple(tuple((k, -x) for k, x in table[i][j]) for i in range(dv))) for j in range(dv)
    )
    gr = _Graded(t.g0)
    gr.add(1, GradedComponent(dv, lower1, (), None, lambda: t.rho.action_cols))
    phis: list[SparseCols] = []
    while (n := len(gr.comps)) < max_degree and gr.dims[n]:
        cur_dim = gr.dims[n]
        phi = _growth_map(gr, n)
        phis.append(phi)
        ib = image_basis(phi)
        new_dim = len(ib.pivots)
        if new_dim == 0:
            gr.add(n + 1, GradedComponent(0, (), (), None, tuple))
            break
        provenance = tuple((p // cur_dim, p % cur_dim) for p in ib.pivots)
        # lower[j] column k is block j of the k-th pivot column: [y_j, e_k] in degree n
        blocks = [[[] for _ in range(new_dim)] for _ in range(dv)]
        for k, col in enumerate(ib.basis_cols.support):
            for r, x in col:
                j, m = divmod(r, cur_dim)
                blocks[j][k].append((m, x))
        lower = tuple(SparseCols(cur_dim, new_dim, tuple(map(tuple, b))) for b in blocks)
        lift = partial(_lifted_action, gr, n + 1)
        gr.add(n + 1, GradedComponent(new_dim, lower, provenance, ib.coord_cols, lift))
    comps = tuple(gr.comps.values())
    return Tower(L, side, comps, tuple(phis), comps[-1].dim == 0)


def grow_both(L: LocalAlgebra, max_degree: int) -> tuple[Tower, Tower]:
    """The positive and the negative tower, each grown up to max_degree."""
    return grow(L, POSITIVE, max_degree), grow(L, NEGATIVE, max_degree)


def _growth_map(gr: _Graded, n: int) -> SparseCols:
    """Columns Phi(x_i (x) u_l), one block per y_j: [[y_j, x_i], u_l] + [x_i, [y_j, u_l]]."""
    dv, dim = gr.dims[1], gr.dims[n]
    yx, lower = gr.comps[1].lower, gr.comps[n].lower
    cols = []
    for i in range(dv):
        for l in range(dim):
            col = []
            for j in range(dv):
                block = gr.act0(n, yx[j].support[i], _unit(l))
                gr.gen_bracket(1, _unit(i), n - 1, lower[j].support[l], block)
                col.extend((j * dim + k, x) for k, x in _pairs(block))
            cols.append(tuple(col))
    return SparseCols(dv * dim, dv * dim, tuple(cols))


def _lifted_action(gr: _Graded, d: int) -> tuple[SparseCols, ...]:
    """The g0 action on degree d: [a, [x, u]] = [[a, x], u] + [x, [a, u]]."""
    comp, rho, prev = gr.comps[d], gr.comps[1].act0, gr.comps[d - 1].act0
    out = []
    for a in range(gr.dims[0]):
        cols = []
        for i, l in comp.provenance:
            col = gr.gen_bracket(1, rho[a].support[i], d - 1, _unit(l))
            cols.append(_pairs(gr.gen_bracket(1, _unit(i), d - 1, prev[a].support[l], col)))
        out.append(SparseCols(comp.dim, comp.dim, tuple(cols)))
    return tuple(out)


# ---------------------------------------------------------------------------
# extended invariant form: degree pairings


def pairing(tp: Tower, tn: Tower, n: int) -> Matrix:
    """Pairing matrix of g_n against g_{-n} under the extended form.

    Degree 0 is the triplet Gram; degree 1 is the dual-basis pairing Y(X);
    higher degrees unfold one lowering at a time through the stored maps.
    """
    if tp.side != POSITIVE or tn.side != NEGATIVE:
        raise Refusal("pairing expects a positive and a negative tower, in that order")
    if n == 0:
        return tp.local.triplet.b0.gram
    return pairing_table(tp, tn, n)[n - 1]


def pairing_table(tp: Tower, tn: Tower, up_to: int) -> list[Matrix]:
    tp.dim_at(up_to)
    tn.dim_at(up_to)
    tables = [Matrix.identity(tp.local.dim_v)]
    for k in range(2, up_to + 1):
        # B([x_j, u], w) = -B(u, [x_j, w]) for the provenance x_j (x) u of each g_{-k} basis element
        prev, dp = tables[-1], tp.dim_at(k)
        provenance = tn.component(k).provenance if tn.dim_at(k) else ()
        cols = []
        for j, m in provenance:
            pm = prev.col(m)
            cols.append(tuple(-sum((x * pm[r] for r, x in col), ZERO) for col in tp.component(k).lower[j].support))
        tables.append(Matrix.from_cols(cols, nrows=dp) if cols else Matrix.zeros(dp, 0))
    return tables


def candidate_pairing_rank(tp: Tower, tn: Tower, n: int) -> int:
    """Rank of the pairing between all degree-(n+1) candidates on both sides.

    This is the form-radical route to dim g_{n+1}: candidates pair through
    B([x,u],[y,v]) = -B(Phi(x(x)u)(y), v), and the radical is exactly the
    growth kernel.
    """
    if n < 1 or n >= len(tp.components) or n >= len(tn.components):
        raise Refusal("towers are too short for this candidate degree")
    dim_n = tp.dim_at(n)
    pair = pairing(tp, tn, n)
    width = pair.cols
    phi = tp.phis[n - 1]
    rows = []
    for col in phi.support:
        row = [ZERO] * (phi.rows // dim_n * width)
        for r, x in col:
            j, m = divmod(r, dim_n)
            for v, p in support(pair.entries[m]):
                row[j * width + v] -= x * p
        rows.append(tuple(row))
    return rank(Matrix.from_rows(rows)) if rows else 0


# ---------------------------------------------------------------------------
# universal vanishing identities


@dataclass(frozen=True)
class PnExpansion:
    n: int
    terms: tuple[tuple, ...]

    def __str__(self) -> str:
        return " + ".join(term_to_str(t) for t in self.terms)


def term_to_str(ast) -> str:
    kind = ast[0]
    if kind == "X":
        return f"X{ast[1] + 1}"
    if kind == "Y":
        return f"Y{ast[1] + 1}"
    return f"[{term_to_str(ast[1])},{term_to_str(ast[2])}]"


def _lower_symbolic(y_ast, word: tuple) -> list[tuple]:
    if len(word) == 2:
        a, b = word
        return [(("b", ("b", y_ast, a), b),), (("b", a, ("b", y_ast, b)),)]
    head, rest = word[0], word[1:]
    u = ("b", y_ast, head)
    out = [rest[:k] + (("b", u, rest[k]),) + rest[k + 1 :] for k in range(len(rest))]
    out.extend((head,) + w for w in _lower_symbolic(y_ast, rest))
    return out


def pn_expand(n: int) -> PnExpansion:
    """Evaluable expansion of the degree-n vanishing identity, 2 <= n <= 5.

    Every bracket node of every term is defined in a local algebra when the
    X variables sit in degree 1 and the Y variables in degree -1.
    """
    if not 2 <= n <= 5:
        raise Refusal("the expansion is supported for 2 <= n <= 5")
    words = [tuple(("X", i) for i in range(n))]
    for j in reversed(range(n - 1)):
        words = [w2 for w in words for w2 in _lower_symbolic(("Y", j), w)]
    return PnExpansion(n, tuple(w[0] for w in words))


def eval_term(L: LocalAlgebra, ast, xs: list[Vector], ys: list[Vector]) -> tuple[int, Vector]:
    kind = ast[0]
    if kind == "X":
        return 1, xs[ast[1]]
    if kind == "Y":
        return -1, ys[ast[1]]
    da, va = eval_term(L, ast[1], xs, ys)
    db, vb = eval_term(L, ast[2], xs, ys)
    return da + db, L.bracket(da, va, db, vb)


class _WordLowering:
    """The degree-n identity lowered over basis words of V, memoized.

    ``lower(j, word)`` is T_j, the lowering by the dual basis vector y_j: it
    takes a basis word (a_1..a_k) of V indices to a sparse combination
    {word: coefficient} of basis words of length k-1, by the recursion of
    ``_lower_symbolic`` (the head term first, then the rest).  It reads
    [[y_j, x_a], x_b] from a table filled on first use straight from the
    local [X, Y] pairs and the action columns.  ``value(jx, word)`` is
    T_{jx[0]} o ... o T_{jx[-1]} applied to the word, a sparse vector
    {index: coefficient} of V.  Every lowering is memoized, full-length words
    included: a scan over all basis tuples asks for T_{jx[-1]} of the same
    full-length word once per prefix jx[:-1].  Values are memoized for words
    shorter than n only, since each (jx, full-length word) is read once.
    Coefficients are ints while the arithmetic stays integral and Fractions
    otherwise; a dense result leaving the kernel is converted with ``frac``.
    """

    def __init__(self, L: LocalAlgebra, n: int):
        self.n = n
        self.xy = L.xy_pairs
        self.rho = L.triplet.rho.action_cols
        self.acts: dict[tuple[int, int, int], dict[int, Exact]] = {}
        self.lowered: dict[tuple[int, tuple[int, ...]], dict[tuple[int, ...], Exact]] = {}
        self.values: dict[tuple[tuple[int, ...], tuple[int, ...]], dict[int, Exact]] = {}

    def act(self, j: int, a: int, b: int) -> dict[int, Exact]:
        """[[y_j, x_a], x_b] as {index: coefficient}: [y_j, x_a] = -[x_a, y_j]
        in g0, acting on x_b through column b of each action matrix."""
        key = (j, a, b)
        hit = self.acts.get(key)
        if hit is None:
            out: Sparse = defaultdict(int)
            for k, c in self.xy[a][j]:
                for i, v in self.rho[k].support[b]:
                    out[i] -= c * v
            hit = self.acts[key] = {i: tight(v) for i, v in out.items() if v}
        return hit

    def lower(self, j: int, word: tuple[int, ...]) -> dict[tuple[int, ...], Exact]:
        key = (j, word)
        hit = self.lowered.get(key)
        if hit is None:
            hit = self.lowered[key] = self._lower(j, word)
        return hit

    def _lower(self, j: int, word: tuple[int, ...]) -> dict[tuple[int, ...], Exact]:
        out: dict[tuple[int, ...], Exact] = defaultdict(int)
        head, rest = word[0], word[1:]
        if not rest[1:]:
            # [[y, x_a], x_b] + [x_a, [y, x_b]] = [[y, x_a], x_b] - [[y, x_b], x_a]
            (b,) = rest
            for c, v in self.act(j, head, b).items():
                out[(c,)] += v
            for c, v in self.act(j, b, head).items():
                out[(c,)] -= v
        else:
            for k, r in enumerate(rest):
                for c, v in self.act(j, head, r).items():
                    out[rest[:k] + (c,) + rest[k + 1 :]] += v
            for w, v in self.lower(j, rest).items():
                out[(head,) + w] += v
        return {w: v for w, v in out.items() if v}

    def value(self, jx: tuple[int, ...], word: tuple[int, ...]) -> dict[int, Exact]:
        if not jx:
            return {word[0]: 1}
        if len(word) == self.n:
            return self._value(jx, word)
        key = (jx, word)
        hit = self.values.get(key)
        if hit is None:
            hit = self.values[key] = self._value(jx, word)
        return hit

    def _value(self, jx: tuple[int, ...], word: tuple[int, ...]) -> dict[int, Exact]:
        out: Sparse = defaultdict(int)
        rest = jx[:-1]
        for w, c in self.lower(jx[-1], word).items():
            for i, v in self.value(rest, w).items():
                out[i] += c * v
        return {i: v for i, v in out.items() if v}


def pn_evaluate(L: LocalAlgebra, ys: list[Vector], xs: list[Vector]) -> Vector:
    """Value in V of the degree-n identity on concrete arguments.

    ys are the n-1 degree-(-1) slots in their printed order (the last one is
    applied first), xs the n degree-1 slots.  The identity is multilinear:
    the xs are expanded into a combination of basis words over their nonzero
    coordinates, and each y lowers that combination as the sum of y_j T_j
    over its nonzero coordinates, on the same memoized lowering as pn_check.
    """
    if len(ys) != len(xs) - 1:
        raise ValueError("the degree-n identity takes n-1 dual and n vector arguments")
    kernel = _WordLowering(L, len(xs))
    words: dict[tuple[int, ...], Exact] = {}
    for pairs in itertools.product(*(support(x) for x in xs)):
        words[tuple(i for i, _ in pairs)] = prod(c for _, c in pairs)
    for y in reversed(ys):
        lowered: dict[tuple[int, ...], Exact] = defaultdict(int)
        for j, yj in support(y):
            for word, c in words.items():
                for w, v in kernel.lower(j, word).items():
                    lowered[w] += yj * c * v
        words = lowered
    return dense(((i, c) for (i,), c in words.items()), L.dim_v)


@dataclass(frozen=True)
class PnResult:
    n: int
    holds: bool
    witness: tuple | None
    value: Vector | None


def pn_check(L: LocalAlgebra, n: int) -> PnResult:
    """Does the degree-n identity hold on all basis tuples?

    Multilinearity makes basis tuples sufficient.  Each tuple's value is
    T_{j_0} o ... o T_{j_{n-2}} applied to the word (x_i...), read off one
    memoized lowering over basis words (``_WordLowering``): each (dual index,
    word) pair is lowered once, though the scan reads the lowering of a
    full-length word once per prefix of dual indices.  Tuples are scanned in
    lexicographic order, dual indices outer; returns the first nonvanishing
    one, its value as a Fraction vector.
    """
    if not 2 <= n <= 5:
        raise Refusal("the identity check is supported for 2 <= n <= 5")
    dv = L.dim_v
    kernel = _WordLowering(L, n)
    for jx in itertools.product(range(dv), repeat=n - 1):
        for ix in itertools.product(range(dv), repeat=n):
            val = kernel.value(jx, ix)
            if val:
                return PnResult(n, False, (jx, ix), dense(val.items(), dv))
    return PnResult(n, True, None, None)


# ---------------------------------------------------------------------------
# assembly of a terminated pair of towers into plain structure constants


@dataclass(frozen=True)
class AssembledAlgebra:
    algebra: LieAlgebraData
    degrees: tuple[int, ...]
    blocks: dict[int, tuple[int, int]]  # degree -> (offset, dim)


def assemble(tp: Tower, tn: Tower, L: LocalAlgebra) -> AssembledAlgebra:
    """Full structure constants of the direct sum of all grown degrees.

    Requires both towers terminated; cross brackets are reduced by the graded
    Jacobi identity to the stored raise/lower/action maps, memoized per basis
    pair.  Each unordered basis pair i < j is computed once, and [e_j, e_i]
    is filled as the negation of [e_i, e_j]; the diagonal is zero.
    """
    if not (tp.terminated and tn.terminated):
        raise Refusal("assembly needs both towers terminated (a zero degree reached)")
    asm = _Graded(L.triplet.g0, tp.components, tn.components)
    degrees = [d for d in range(-tn.top_degree, tp.top_degree + 1) if asm.dims.get(d)]
    blocks: dict[int, tuple[int, int]] = {}
    labels: list[int] = []
    for d in degrees:
        blocks[d] = (len(labels), asm.dims[d])
        labels.extend([d] * asm.dims[d])
    total = len(labels)
    exact = [[()] * total for _ in range(total)]
    for n, da in enumerate(degrees):
        oa, na = blocks[da]
        for db in degrees[n:]:
            if da + db not in blocks:
                continue
            ob, nb = blocks[db]
            o = blocks[da + db][0]
            for sa in range(na):
                i = oa + sa
                for sb in range(sa + 1 if da == db else 0, nb):
                    v = asm.bracket_basis(da, sa, db, sb)
                    exact[i][ob + sb] = tuple((o + k, x) for k, x in v)
                    exact[ob + sb][i] = tuple((o + k, -x) for k, x in v)
    return AssembledAlgebra(LieAlgebraData(total, tuple(map(tuple, exact))), tuple(labels), blocks)


def assemble_nontransitive(t: FundamentalTriplet, max_degree: int) -> AssembledAlgebra:
    """Assemble the minimal algebra of a non-transitive triplet.

    Splits off the trivial component and the representation kernel, grows the
    transitive part, and glues the pieces back with the zero brackets the
    reduction prescribes: [V0, V0*] = 0 and the kernel commutes with all of V.
    """
    red = reduce_triplet(t, assert_completely_reducible=True)
    L = build_local(red.transitive_part)
    core = assemble(*grow_both(L, max_degree), L)
    k = len(red.v0)
    kernel = restrict_algebra(t.g0, list(red.g0_kernel), "the kernel is not closed under the bracket")
    algebra = core.algebra.direct_sum(LieAlgebraData.abelian(2 * k)).direct_sum(kernel)
    nk = kernel.dim
    degrees = core.degrees + (1,) * k + (-1,) * k + (0,) * nk
    blocks = dict(core.blocks)
    return AssembledAlgebra(algebra, degrees, blocks)


# ---------------------------------------------------------------------------
# finiteness reporting and centralizers


@dataclass(frozen=True)
class FinitenessReport:
    dims_pos: tuple[int, ...]
    dims_neg: tuple[int, ...]
    terminated: bool
    advisory: str
    center_dim: int
    irreducible_components: int | None
    killing_nondegenerate: bool | None
    assembled_center_dim: int | None


def finiteness_report(
    L: LocalAlgebra,
    max_degree: int,
    completely_reducible: bool = False,
    irreducible_components: int | None = None,
) -> FinitenessReport:
    """Advisory finiteness analysis: growth observation, the center-dimension
    bound (caller supplies the irreducible count), and the semisimplicity
    consistency checks when the towers terminate."""
    tp, tn = grow_both(L, max_degree)
    z = len(algebra_center(L.triplet.g0))
    terminated = tp.terminated and tn.terminated
    killing_ok = None
    asm_center = None
    if terminated:
        asm = assemble(tp, tn, L)
        killing_ok = rank(killing_form(asm.algebra)) == asm.algebra.dim
        asm_center = len(algebra_center(asm.algebra))
        advisory = "terminated: finite-dimensional minimal algebra"
    elif completely_reducible and irreducible_components is not None and z < irreducible_components:
        advisory = "infinite: the center is smaller than the number of irreducible components"
    else:
        advisory = f"not terminated within degree budget {max_degree}: infinite or larger than the budget"
    return FinitenessReport(
        tuple(tp.dims()),
        tuple(tn.dims()),
        terminated,
        advisory,
        z,
        irreducible_components,
        killing_ok,
        asm_center,
    )


def _check_subalgebra(g, sub: list[Vector]):
    if None in solve_pairs(span_matrix(sub, g.dim), [support(g.bracket(p, q)) for p in sub for q in sub]):
        raise Refusal("the given subspace is not closed under the bracket")


def _common_kernel(dim: int, maps) -> list[Vector]:
    """Canonical basis of the common kernel of linear maps on a dim-dimensional
    space, each map given by its dense value on the k-th basis vector (no maps:
    everything)."""
    rows = [row for f in maps for row in zip(*(f(k) for k in range(dim)))]
    return sparse_kernel((dict(support(r)) for r in rows), dim)


def centralizer_graded(
    tp: Tower, tn: Tower, L: LocalAlgebra, sub: list[Vector], max_degree: int
) -> dict[int, list[Vector]]:
    """Per-degree centralizer of a g0 subalgebra in the grown algebra."""
    _check_subalgebra(L.triplet.g0, sub)
    gr = _Graded(L.triplet.g0, tp.components, tn.components)
    out: dict[int, list[Vector]] = {}
    for d in range(-max_degree, max_degree + 1):
        dim = (tp if d > 0 else tn).dim_at(abs(d)) if d else gr.dims[0]
        maps = [lambda k, d=d, s=support(s): gr.act0(d, s, _unit(k), [ZERO] * gr.dims.get(d, 0)) for s in sub]
        out[d] = _common_kernel(dim, maps)
    return out


def centralizer_in_degree_zero(
    tp: Tower, tn: Tower, L: LocalAlgebra, graded_sub: dict[int, list[Vector]]
) -> list[Vector]:
    """Elements of g0 commuting with a graded subspace (any degrees)."""
    gr = _Graded(L.triplet.g0, tp.components, tn.components)
    maps = [
        lambda k, d=d, s=support(s): gr.act0(d, _unit(k), s, [ZERO] * gr.dims.get(d, 0))
        for d, vecs in sorted(graded_sub.items())
        for s in vecs
    ]
    return _common_kernel(gr.dims[0], maps)
