"""Degree-by-degree growth of the minimal graded algebra over a local part.

The positive part is grown as the image of the map
Phi(x (x) u)(y) = [[y,x],u] + [x,[y,u]] from V (x) g_n into Hom(V*, g_n):
minimality makes [g_1, g_n] span g_{n+1} and transitivity makes the kernel of
lowering exactly the excess, so no free-algebra scaffolding is needed.  The
negative side is the positive side of the swapped triplet, grown over the
local algebra read off ``L.swapped`` (the swap fixes all elements).  Each
growth map, and each degree's g0 action (lifted on its first read), runs on
integer numerators: every stored map it reads is scaled once by the lcm of its
denominators, each output column accumulates ints in one dict, and each entry
is divided once by the common scale.  Assembly reads the same maps one row at
a time: the brackets of one basis element with a whole degree, through the
graded Jacobi identity over its provenance (``_Graded.row``).  Bases of each
new degree are pivot columns under the deterministic elimination of exactla,
so reruns are bit-identical.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from collections.abc import Callable
from functools import cached_property, partial
from math import lcm, prod

from .exactla import (
    Exact,
    Matrix,
    SparseCols,
    Vector,
    ZERO,
    combine,
    common_kernel,
    dense,
    divided,
    image_basis,
    numerators,
    record,
    solve_pairs,
    support,
    tight,
)
from .liecore import (
    FundamentalTriplet,
    LieAlgebraData,
    Refusal,
    TransitivityRequired,
    center as algebra_center,
    checked_pairs,
    killing_rank_and_center_dim,
    restrict_algebra,
)
from .localg import LocalAlgebra, build_local, reduce_triplet

POSITIVE = "pos"
NEGATIVE = "neg"


@record
class GradedComponent:
    """One graded piece with its g0 action and the maps tying it to its neighbours.

    Every map is stored by sparse columns (``SparseCols``) that keep each
    integral value as an int and any other as a Fraction.  ``act0[a]`` is the
    action of the a-th g0 basis element, a (dim x dim) map, computed on first
    read by ``_lift``.  ``lower[j]`` is ad of the j-th degree-(-1) generator, a
    (prev_dim x dim) map (prev_dim is dim g0 at degree 1).  ``provenance``
    lists, for degree >= 2, the pivot tensors (generator index, previous-degree
    index) whose classes form the basis; ``tensor_coords`` expresses every
    tensor class in that basis, column i * prev_dim + m for the tensor (i, m).
    """

    dim: int
    lower: tuple[SparseCols, ...]
    provenance: tuple[tuple[int, int], ...]
    tensor_coords: SparseCols | None
    _lift: Callable[[], tuple[SparseCols, ...]]  # left out of eq, hash and repr

    @cached_property
    def act0(self) -> tuple[SparseCols, ...]:
        return self._lift()


@record
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


def _unit(i: int) -> tuple[tuple[int, int]]:
    return ((i, 1),)


class _Graded:
    """g0 + sum of the grown degrees, read off the stored maps.

    ``comps`` and ``dims`` map each signed degree to its component and dim,
    bound from ``pos`` (degrees 1, 2, ...), ``neg`` (-1, -2, ...) and ``add``;
    an unbound degree is zero.  ``row(da, sa, db)`` is [e_sa, e_sb] for one
    e_sa of degree da and every e_sb of degree db, memoized per object.
    """

    def __init__(self, g0: LieAlgebraData, pos=(), neg=()):
        self.g0 = g0
        self.comps = {s * n: c for s, comps in ((1, pos), (-1, neg)) for n, c in enumerate(comps, 1)}
        self.dims = {0: g0.dim} | {d: c.dim for d, c in self.comps.items()}
        self.rows: dict[tuple[int, int, int], tuple[tuple[tuple[int, Exact], ...], ...]] = {}

    def add(self, d: int, comp: GradedComponent) -> None:
        self.comps[d] = comp
        self.dims[d] = comp.dim

    def act0(self, d: int, u, w) -> tuple[tuple[int, Exact], ...]:
        """[u, w] for u in g0 and w of degree d, each given, like the result, by its nonzero (index, coefficient)
        pairs."""
        if d == 0:
            return combine((u_a, w, self.g0.structure_pairs[a]) for a, u_a in u)
        mats = self.comps[d].act0
        return combine((u_a, w, mats[a].support) for a, u_a in u)

    def row(self, da: int, sa: int, db: int) -> tuple:
        if (hit := self.rows.get((da, sa, db))) is None:
            hit = self.rows[da, sa, db] = self._row(da, sa, db)
        return hit

    def _row(self, da: int, sa: int, db: int) -> tuple:
        """Called only where degree da + db is nonzero; rows with |da| <= 1 or |db| <= 1 are the stored maps."""
        dims = self.dims
        if da == 0:
            return self.comps[db].act0[sa].support if db else self.g0.structure_pairs[sa]
        if db == 0 or abs(db) == 1 < abs(da):  # [e_sa, e_sb] = -[e_sb, e_sa]
            return tuple(tuple((k, -x) for k, x in self.row(db, sb, da)[sa]) for sb in range(dims[db]))
        if abs(da) == 1:  # raise through degree da + db's tensor coordinates, or lower through degree db's maps
            if (da > 0) == (db > 0):
                return self.comps[da + db].tensor_coords.support[sa * dims[db] : (sa + 1) * dims[db]]
            return self.comps[db].lower[sa].support
        # [[g, u], w] = [g, [u, w]] - [u, [g, w]] for the provenance g (x) u of e_sa, one dict per e_sb
        s = 1 if da > 0 else -1
        g, u = self.comps[da].provenance[sa]
        terms = [(1, self.row(da - s, u, db), self.row(s, g, da - s + db))] if dims.get(da - s + db) else []
        if dims.get(db + s):
            terms.append((-1, self.row(s, g, db), self.row(da - s, u, db + s)))
        out = []
        for sb in range(dims[db]):
            acc = {}
            for m, coefs, cols in terms:
                for k, c in coefs[sb]:
                    c *= m
                    for r, x in cols[k]:
                        acc[r] = acc.get(r, 0) + c * x
            out.append(tuple((k, x if type(x) is int else tight(x)) for k, x in sorted(acc.items()) if x))
        return tuple(out)


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
    gr.add(1, GradedComponent(dv, lower1, (), None, partial(getattr, t.rho, "action_cols")))
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
    """Columns Phi(x_i (x) u_l), one block per y_j: [[y_j, x_i], u_l] + [x_i, [y_j, u_l]], on ints.

    Block j is sum_a [y_j, x_i]_a act0_n[a][:, l] + sum_m lower_n[j][m, l] [x_i, e_m], [x_i, e_m] read off
    degree n's tensor coordinates; at n = 1 the second term is -sum_a [y_j, x_l]_a rho_a[:, i].  Each column
    is one int accumulation over all blocks, row j * dim + k, from the nonzero terms listed once per map."""
    dv, dim = gr.dims[1], gr.dims[n]
    e, yx = numerators(col for m in gr.comps[1].lower for col in m.support)
    f, act = numerators(col for m in gr.comps[n].act0 for col in m.support)
    acts = [act[l::dim] for l in range(dim)]
    (h, low), (t, raised), sign = (e, yx), (f, acts), -1  # at n = 1, [x_i, a] = -rho_a[:, i]
    if n > 1:
        h, low = numerators(col for m in gr.comps[n].lower for col in m.support)
        t, tc = numerators(gr.comps[n].tensor_coords.support)
        prev, sign = gr.dims[n - 1], 1
        raised = [tc[i * prev : (i + 1) * prev] for i in range(dv)]
    s = lcm(e * f, h * t)
    m1, m2 = s // (e * f), sign * s // (h * t)
    # the nonzero terms of every block j, each with its row offset j * dim and its scale
    by_i = [[(j * dim, a, m1 * c) for j in range(dv) for a, c in yx[j * dv + i]] for i in range(dv)]
    by_l = [[(j * dim, m, m2 * c) for j in range(dv) for m, c in low[j * dim + l]] for l in range(dim)]
    cols = []
    for i in range(dv):
        for l in range(dim):
            acc: dict[int, int] = {}
            for terms, src in ((by_i[i], acts[l]), (by_l[l], raised[i])):
                for o, a, c in terms:
                    for k, x in src[a]:
                        acc[o + k] = acc.get(o + k, 0) + c * x
            cols.append(divided(sorted(acc.items()), s))
    return SparseCols(dv * dim, dv * dim, tuple(cols))


def _lifted_action(gr: _Graded, d: int) -> tuple[SparseCols, ...]:
    """The g0 action on degree d: [a, [x_i, u_l]] = [[a, x_i], u_l] + [x_i, [a, u_l]], on ints: both terms
    raise through degree d's tensor coordinates, rho_a[:, i] on (i', l) and act0_{d-1}[a][:, l] on (i, m)."""
    comp, dv, prev = gr.comps[d], gr.dims[1], gr.dims[d - 1]
    e, rho = numerators(col for m in gr.comps[1].act0 for col in m.support)
    f, act = numerators(col for m in gr.comps[d - 1].act0 for col in m.support)
    t, tc = numerators(comp.tensor_coords.support)
    g = lcm(e, f)
    by_l, by_i = [tc[l::prev] for l in range(prev)], [tc[i * prev : (i + 1) * prev] for i in range(dv)]
    out = []
    for a in range(gr.dims[0]):
        cols = []
        for i, l in comp.provenance:
            cols.append(combine(((g // e, rho[a * dv + i], by_l[l]), (g // f, act[a * prev + l], by_i[i])), g * t))
        out.append(SparseCols(comp.dim, comp.dim, tuple(cols)))
    return tuple(out)


# ---------------------------------------------------------------------------
# extended invariant form: degree pairings


def _check_towers(name: str, tp: Tower, tn: Tower, L: LocalAlgebra | None = None) -> None:
    """Refuse unless tp is a positive and tn a negative tower, both grown from L (from one local algebra)."""
    if tp.side != POSITIVE or tn.side != NEGATIVE:
        raise Refusal(f"{name} expects a positive and a negative tower, in that order")
    if not tp.local == tn.local == (tn.local if L is None else L):
        raise Refusal(f"{name} expects towers grown from the local algebra it is given")


def pairing(tp: Tower, tn: Tower, n: int) -> Matrix:
    """Pairing matrix of g_n against g_{-n} under the extended form.

    Degree 0 is the triplet Gram; degree 1 is the dual-basis pairing Y(X);
    higher degrees unfold one lowering at a time through the stored maps.
    """
    _check_towers("pairing", tp, tn)
    if n == 0:
        return tp.local.triplet.b0.gram
    return pairing_table(tp, tn, n)[n - 1]


def pairing_table(tp: Tower, tn: Tower, up_to: int) -> list[Matrix]:
    _check_towers("pairing_table", tp, tn)
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


# ---------------------------------------------------------------------------
# universal vanishing identities


@record
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


class _WordLowering:
    """The degree-n identity lowered over basis words of V, memoized.

    ``lower(j, word)`` is T_j, the lowering by the dual basis vector y_j: it
    takes a basis word (a_1..a_k) of V indices to a sparse combination
    {word: coefficient} of basis words of length k-1, by the recursion of
    ``_lower_symbolic`` (the head term first, then the rest).  It reads
    [[y_j, x_a], x_b] from a table filled on first use straight from the
    local [X, Y] pairs and the action columns.  ``values(rest, word)`` is
    T_{j0} o T_{rest[0]} o ... o T_{rest[-1]} applied to the word for every
    first dual index j0 at once, a sparse {(j0, index): coefficient}.  Every
    lowering is memoized, full-length words included: for n >= 4 the scan
    asks for T_{rest[-1]} of the same full-length word once per prefix
    rest[:-1].  Values are memoized for words shorter than n only, since each
    (rest, full-length word) is read once.  Let S swap the last two letters
    of a word.  The base lowering act(j, a, b) - act(j, b, a) is
    antisymmetric; on a word of length 3, T_j(S w) is S of the two terms
    acting on the rest and minus the head term; on longer words T_j commutes
    with S (T_j(S w) = S T_j(w)).  By induction on the length,
    values(rest, S w) = -values(rest, w), so values(rest, w) is empty when
    w[-2] == w[-1].  Coefficients are ints while the arithmetic stays
    integral and Fractions otherwise; a dense result leaving the kernel is
    converted with ``frac``.
    """

    def __init__(self, L: LocalAlgebra, n: int):
        self.n, self.dv = n, L.dim_v
        self.xy = L.xy_pairs
        self.rho = L.triplet.rho.action_cols
        self.acts: dict[tuple[int, int, int], dict[int, Exact]] = {}
        self.lowered: dict[tuple[int, tuple[int, ...]], dict[tuple[int, ...], Exact]] = {}
        self.memo: dict[tuple[tuple[int, ...], tuple[int, ...]], dict[tuple[int, int], Exact]] = {}

    def act(self, j: int, a: int, b: int) -> dict[int, Exact]:
        """[[y_j, x_a], x_b] as {index: coefficient}: [y_j, x_a] = -[x_a, y_j]
        in g0, acting on x_b through column b of each action matrix."""
        key = (j, a, b)
        hit = self.acts.get(key)
        if hit is None:
            out: dict[int, Exact] = defaultdict(int)
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

    def values(self, rest: tuple[int, ...], word: tuple[int, ...]) -> dict[tuple[int, int], Exact]:
        key = (rest, word)
        if (hit := self.memo.get(key)) is not None:
            return hit
        if not rest:  # a word of length 2, lowered by each y_j0 to a single index
            hit = {(j, i): v for j in range(self.dv) for (i,), v in self.lower(j, word).items()}
        else:
            out: dict[tuple[int, int], Exact] = defaultdict(int)
            head = rest[:-1]
            for w, c in self.lower(rest[-1], word).items():
                for k, v in self.values(head, w).items():
                    out[k] += c * v
            hit = {k: v for k, v in out.items() if v}
        if len(word) < self.n:
            self.memo[key] = hit
        return hit


def pn_evaluate(L: LocalAlgebra, ys: list[Vector], xs: list[Vector]) -> Vector:
    """Value in V of the degree-n identity on concrete arguments.

    ys are the n-1 degree-(-1) slots in their printed order (the last one is
    applied first), xs the n degree-1 slots.  The identity is multilinear:
    the xs are expanded into a combination of basis words over their nonzero
    coordinates, and each y lowers that combination as the sum of y_j T_j
    over its nonzero coordinates, on the same memoized lowering as pn_check.
    """
    if len(ys) != len(xs) - 1 or len(xs) < 2:
        raise ValueError("the degree-n identity takes n-1 dual and n vector arguments, n >= 2")
    if any(len(v) != L.dim_v for v in (*ys, *xs)):
        raise ValueError(f"every argument of the degree-n identity has dim V = {L.dim_v} entries")
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


@record
class PnResult:
    n: int
    holds: bool
    witness: tuple | None
    value: Vector | None


def pn_check(L: LocalAlgebra, n: int) -> PnResult:
    """Does the degree-n identity hold on all basis tuples?

    Multilinearity makes basis tuples sufficient.  The scan reads every
    first dual index j0 at once: one memoized lowering over basis words
    (``_WordLowering.values``) per (rest, ix), the later dual indices and the
    vector indices, in lexicographic order.  The word ix is the right-normed
    bracket [x_i1, [..., [x_i(n-1), x_in]]], so its values are antisymmetric
    in its last two letters (see ``_WordLowering``): the scan reads only the
    words with ix[-2] < ix[-1], dv^(2n-3) (dv-1) / 2 steps instead of
    dv^(2n-2).  A word it skips vanishes (equal last letters) or has the
    same nonzero j0 as its swap, which comes earlier in the order.  The
    first nonvanishing tuple in the order (j0, rest, ix) has the least j0
    met anywhere and, for that j0, the earliest (rest, ix), so the scan
    keeps a step only when its least nonzero j0 is below the best so far
    and stops at j0 = 0.  Returns that tuple, its value as a Fraction vector.
    """
    if not 2 <= n <= 5:
        raise Refusal("the identity check is supported for 2 <= n <= 5")
    dv = L.dim_v
    kernel = _WordLowering(L, n)
    least, best = dv, None
    heads = list(itertools.product(range(dv), repeat=n - 2))
    words = [head + ab for head, ab in itertools.product(heads, itertools.combinations(range(dv), 2))]
    for rest, ix in itertools.product(heads, words):
        if (val := kernel.values(rest, ix)) and (j0 := min(val)[0]) < least:
            least, best = j0, (rest, ix, val)
            if j0 == 0:
                break
    if best is None:
        return PnResult(n, True, None, None)
    rest, ix, val = best
    return PnResult(n, False, ((least,) + rest, ix), dense(((i, c) for (j, i), c in val.items() if j == least), dv))


# ---------------------------------------------------------------------------
# assembly of a terminated pair of towers into plain structure constants


@record
class AssembledAlgebra:
    algebra: LieAlgebraData
    degrees: tuple[int, ...]
    blocks: dict[int, tuple[int, int]]  # degree -> (offset, dim)


def assemble(tp: Tower, tn: Tower, L: LocalAlgebra) -> AssembledAlgebra:
    """Full structure constants of the direct sum of all grown degrees.

    Requires both towers terminated and grown from L.  The unit of work is a
    row: [e_sa, e_sb] for one e_sa of degree da and every e_sb of degree db.
    A row with |da| <= 1 or |db| <= 1 is read off the stored maps (negated
    where da is the deeper degree); any other follows from the graded Jacobi
    identity [[g, u], w] = [g, [u, w]] - [u, [g, w]] over the provenance
    g (x) u of e_sa, from the rows (da -+ 1, u, db) and (da -+ 1, u, db +- 1).
    Rows are memoized per (da, sa, db); each row with da <= db fills its
    brackets, [e_j, e_i] as the negation of [e_i, e_j], and the diagonal is zero.
    """
    _check_towers("assemble", tp, tn, L)
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
                i, row = oa + sa, asm.row(da, sa, db)
                for sb in range(sa + 1 if da == db else 0, nb):
                    if v := row[sb]:
                        exact[i][ob + sb] = tuple((o + k, x) for k, x in v)
                        exact[ob + sb][i] = tuple((o + k, -x) for k, x in v)
    return AssembledAlgebra(LieAlgebraData(total, tuple(map(tuple, exact))), tuple(labels), blocks)


def assemble_nontransitive(t: FundamentalTriplet, max_degree: int) -> AssembledAlgebra:
    """Assemble the minimal algebra of a non-transitive triplet.

    Splits off the trivial component and the representation kernel, grows the
    transitive part, and glues the pieces back with the zero brackets the
    reduction prescribes: [V0, V0*] = 0 and the kernel commutes with all of V.
    The glued V0 is labelled degree 1, V0* degree -1 and the kernel degree 0;
    ``blocks`` covers the transitive core only.
    """
    red = reduce_triplet(t)
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


@record
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
    irreducible_components: int | None = None,
) -> FinitenessReport:
    """Advisory finiteness analysis: growth observation, the center-dimension
    bound (a caller that supplies the irreducible count asserts the
    decomposition of V into that many irreducible summands), and the
    semisimplicity consistency checks when the towers terminate."""
    tp, tn = grow_both(L, max_degree)
    z = len(algebra_center(L.triplet.g0))
    terminated = tp.terminated and tn.terminated
    killing_ok = None
    asm_center = None
    if terminated:
        asm = assemble(tp, tn, L)
        killing_rank, asm_center = killing_rank_and_center_dim(asm.algebra)
        killing_ok = killing_rank == asm.algebra.dim
        advisory = "terminated: finite-dimensional minimal algebra"
    elif irreducible_components is not None and z < irreducible_components:
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
    if None in solve_pairs(SparseCols.from_vectors(sub, g.dim), [support(g.bracket(p, q)) for p in sub for q in sub]):
        raise Refusal("the given subspace is not closed under the bracket")


def centralizer_graded(
    tp: Tower, tn: Tower, L: LocalAlgebra, sub: list[Vector], max_degree: int
) -> dict[int, list[Vector]]:
    """Per-degree centralizer of a g0 subalgebra in the grown algebra."""
    _check_towers("centralizer_graded", tp, tn, L)
    _check_subalgebra(L.triplet.g0, sub)
    gr = _Graded(L.triplet.g0, tp.components, tn.components)
    subs = checked_pairs(gr.dims[0], *sub)
    out: dict[int, list[Vector]] = {}
    for d in range(-max_degree, max_degree + 1):
        dim = (tp if d > 0 else tn).dim_at(abs(d)) if d else gr.dims[0]
        out[d] = common_kernel(dim, [[gr.act0(d, s, _unit(k)) for k in range(dim)] for s in subs])
    return out


def centralizer_in_degree_zero(
    tp: Tower, tn: Tower, L: LocalAlgebra, graded_sub: dict[int, list[Vector]]
) -> list[Vector]:
    """Elements of g0 commuting with a graded subspace (any degrees)."""
    _check_towers("centralizer_in_degree_zero", tp, tn, L)
    gr = _Graded(L.triplet.g0, tp.components, tn.components)
    n = gr.dims[0]
    subs = [(d, s) for d, vecs in sorted(graded_sub.items()) for s in checked_pairs(gr.dims.get(d, 0), *vecs)]
    return common_kernel(n, [[gr.act0(d, _unit(k), s) for k in range(n)] for d, s in subs])
