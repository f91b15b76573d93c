"""Built-in fundamental-triplet constructors for the standard example families.

All bases are deterministic: gl(n) uses elementary matrices E_ab in row-major
order, monomials of fixed degree are listed in descending lexicographic order
of their exponent vectors, and the block family lists its grading element
first, then the two traceless factors.

The two matrix families are sub-triplets of gl(n)-type triplets, built by one
restriction (``_restrict``): the block family of gl(n) + gl(n) acting on n x n
matrices, the stabilizer family of gl(n) with its trace form and defining
action.  The restriction reads each bracket of two basis vectors off the
structure pairs, takes the form as M^T G M on the basis columns M, and the
action as rho(v) for each basis vector v; no matrix commutator is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactla import ZERO, Matrix, SparseCols, Vector, dense, frac, kernel_basis, rank, span_matrix, vscale
from .liecore import (
    FundamentalTriplet,
    LieAlgebraData,
    QuadraticForm,
    Refusal,
    Representation,
    restrict_algebra,
)
from .sl2 import PolyInvariant, directional_derivative

FORMS = ("trace", "sl-shifted", "g2")


@dataclass(frozen=True)
class MonomialBasis:
    """Exponent vectors of the degree-p monomials in n variables, graded-lex."""

    n: int
    p: int
    exponents: tuple[tuple[int, ...], ...]

    def index(self, exps) -> int:
        return self.exponents.index(tuple(exps))

    def factorials(self) -> tuple[int, ...]:
        return tuple(math.prod(math.factorial(e) for e in alpha) for alpha in self.exponents)


def monomial_basis(n: int, p: int) -> MonomialBasis:
    def compositions(total: int, parts: int):
        if parts == 1:
            yield (total,)
            return
        for head in range(total, -1, -1):
            for rest in compositions(total - head, parts - 1):
                yield (head,) + rest

    exps = tuple(compositions(p, n)) if n else ((),) if p == 0 else ()
    return MonomialBasis(n, p, exps)


def _gl_structure(n: int) -> LieAlgebraData:
    """gl(n) on E_ab (index a*n + b): [E_ab, E_cd] = delta_bc E_ad - delta_da E_cb."""

    def bracket(a: int, b: int, c: int, d: int):
        terms = {}
        if b == c:
            terms[a * n + d] = 1
        if d == a:
            terms[c * n + b] = terms.get(c * n + b, 0) - 1
        return tuple((k, x) for k, x in sorted(terms.items()) if x)

    r = range(n)
    return LieAlgebraData(n * n, tuple(tuple(bracket(a, b, c, d) for c in r for d in r) for a in r for b in r))


def symplectic_form_gram(n: int, form) -> Matrix:
    rows = []
    for a in range(n):
        for b in range(n):
            row = []
            for c in range(n):
                for d in range(n):
                    tr_prod = Fraction(1) if (b == c and a == d) else ZERO
                    tr_sep = Fraction(1) if (a == b and c == d) else ZERO
                    if form == "trace":
                        row.append(tr_prod)
                    elif form == "sl-shifted":
                        row.append(tr_sep + tr_prod)
                    elif form == "g2":
                        row.append(3 * tr_prod - tr_sep)
                    else:
                        raise Refusal(f"unknown named form {form!r}")
            rows.append(row)
    return Matrix.from_rows(rows)


def gen_symplectic(n: int, p: int, lam, form="trace") -> FundamentalTriplet:
    """gl(n) acting on degree-p polynomials, the center rescaled to act by lam.

    The traceless part acts by the vector fields sum a_ij x_i d/dx_j; ``form``
    is one of "trace", "sl-shifted", "g2", or an explicit Gram matrix on the
    E_ab basis.

    The dual side is the abstract coordinate dual: the basis covector f_alpha
    pairs with x^alpha as 1.  Identifying covectors with dual-variable
    monomials acting as constant-coefficient differential operators rescales
    each f_alpha by the multi-factorial alpha! (see MonomialBasis.factorials);
    only tests rely on that identification, the core bracket does not.
    """
    lam = frac(lam)
    if n < 1 or p < 1:
        raise Refusal("n and p must be at least 1")
    if lam == 0:
        raise Refusal("lambda must be nonzero")
    mono = monomial_basis(n, p)
    dim_v = len(mono.exponents)
    index = {alpha: k for k, alpha in enumerate(mono.exponents)}
    shift = (lam - p) / n
    action = []
    for a in range(n):
        for b in range(n):
            cols = []
            for alpha in mono.exponents:
                # x_a d/dx_b takes x^alpha to alpha_b x^beta; for a == b, beta is alpha and the shift adds
                beta = list(alpha)
                beta[b] -= 1
                beta[a] += 1
                x = alpha[b] + (shift if a == b else 0)
                cols.append(((index[tuple(beta)], x),) if x else ())
            action.append(SparseCols(dim_v, dim_v, tuple(cols)))
    if isinstance(form, Matrix):
        gram = form
        if not gram.is_symmetric() or gram.rows != n * n:
            raise Refusal("custom form must be a symmetric (n^2 x n^2) Gram matrix")
    else:
        gram = symplectic_form_gram(n, form)
    if rank(gram) != n * n:
        raise Refusal("the chosen form is degenerate on gl(n)")
    return FundamentalTriplet(_gl_structure(n), QuadraticForm(gram), Representation(dim_v, tuple(action)))


def _restrict(g: LieAlgebraData, gram: Matrix, rho: Representation, basis: list[Vector]) -> FundamentalTriplet:
    """The sub-triplet of (g, gram, rho) on the span of basis: the brackets
    written in the basis, the Gram matrix M^T gram M of the basis columns M,
    and rho(v) for each basis vector v."""
    m = span_matrix(basis, g.dim)
    sub = restrict_algebra(g, basis, "the basis does not span a subalgebra")
    action = tuple(rho.cols_of(v) for v in basis)
    return FundamentalTriplet(sub, QuadraticForm(m.transpose() @ gram @ m), Representation(rho.dim_v, action))


def gen_glblock(n: int, lam1, lam2) -> FundamentalTriplet:
    """Two gl(n) blocks with joint trace zero acting on n x n matrices by
    (A,B).X = AX - XB, with the block-scaled trace form.

    The sub-triplet of gl(n) + gl(n), with the form lam1 tr(AA') + lam2
    tr(BB') and the action written by E_ab E_ij = delta_bi E_aj and E_ij E_ab
    = delta_ja E_ib, on the basis (Id, -Id), then sl(n) in each block: E_ab
    for a != b in row-major order, then E_ii - E_(i+1)(i+1).
    """
    lam1, lam2 = frac(lam1), frac(lam2)
    if n < 1:
        raise Refusal("n must be at least 1")
    if lam1 == 0 or lam2 == 0 or lam1 + lam2 == 0:
        raise Refusal("the block form needs lam1, lam2 and lam1+lam2 nonzero")
    nn, r = n * n, range(n)
    diag = [a * (n + 1) for a in r]
    sl = [[(a * n + b, 1)] for a in r for b in r if a != b]
    sl += [[(diag[i], 1), (diag[i + 1], -1)] for i in range(n - 1)]
    basis = [[(k, 1) for k in diag] + [(nn + k, -1) for k in diag]] + sl + [[(nn + k, x) for k, x in v] for v in sl]
    trace = symplectic_form_gram(n, "trace")
    gram = QuadraticForm(trace.scale(lam1)).direct_sum(QuadraticForm(trace.scale(lam2))).gram
    # X = E_ij sits at index i*n + j; each map is {column: (row, value)}, one entry per column at most
    left = [{b * n + j: (a * n + j, 1) for j in r} for a in r for b in r]
    right = [{i * n + a: (i * n + b, -1) for i in r} for a in r for b in r]
    action = tuple(SparseCols(nn, nn, tuple((m[q],) if q in m else () for q in range(nn))) for m in left + right)
    g = _gl_structure(n).direct_sum(_gl_structure(n))
    return _restrict(g, gram, Representation(nn, action), [dense(v, 2 * nn) for v in basis])


def find_symmetrizer(cartan: Matrix) -> Vector:
    """Positive diagonal D with A*D symmetric, by propagation along edges."""
    n = cartan.rows
    d: list[Fraction | None] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i == j:
                    continue
                aij, aji = cartan.entries[i][j], cartan.entries[j][i]
                if (aij == 0) != (aji == 0):
                    raise Refusal("not symmetrizable: zero pattern is not symmetric")
                if aij == 0:
                    continue
                expected = d[i] * aji / aij
                if d[j] is None:
                    d[j] = expected
                    stack.append(j)
                elif d[j] != expected:
                    raise Refusal("not symmetrizable: inconsistent scaling around a cycle")
    return tuple(x for x in d)


def gen_principal(cartan, symmetrizer=None) -> FundamentalTriplet:
    """Abelian Cartan factor with the diagonal weight action of an invertible
    symmetrizable matrix; growth reproduces the root-height dimensions.

    The Gram matrix is A*D (symmetric exactly when D symmetrizes A), which
    makes each [e_i, f_i] proportional to the i-th coroot.
    """
    a = cartan if isinstance(cartan, Matrix) else Matrix.from_rows(cartan)
    if a.rows != a.cols:
        raise Refusal("the matrix must be square")
    n = a.rows
    if symmetrizer is None:
        d = find_symmetrizer(a)
    else:
        d = tuple(frac(x) for x in symmetrizer)
        if len(d) != n or any(x == 0 for x in d):
            raise Refusal("the symmetrizer must be a nonzero diagonal of the right size")
    gram = a @ Matrix.from_rows([[d[j] if i == j else 0 for j in range(n)] for i in range(n)])
    if not gram.is_symmetric():
        raise Refusal("the diagonal does not symmetrize the matrix")
    if rank(a) != n:
        raise Refusal("the matrix must be invertible for the Cartan factor to suffice")
    g0 = LieAlgebraData.abelian(n)
    action = tuple(SparseCols(n, n, tuple(((j, x),) if x else () for j, x in enumerate(row))) for row in a.entries)
    return FundamentalTriplet(g0, QuadraticForm(gram), Representation(n, action))


def gen_with_trivial_summand(base: FundamentalTriplet, k: int) -> FundamentalTriplet:
    """Append a k-dimensional summand on which everything acts by zero."""
    if k < 0:
        raise Refusal("k must be at least 0")
    if k == 0:
        return base
    dv = base.dim_v + k
    action = tuple(SparseCols(dv, dv, m.support + ((),) * k) for m in base.rho.action_cols)
    return FundamentalTriplet(base.g0, base.b0, Representation(dv, action))


def stabilizer_of_poly(n: int, p: PolyInvariant) -> list[Vector]:
    """Basis of the gl(n) elements whose vector field kills the polynomial."""
    if p.is_zero():
        raise Refusal("the zero polynomial has full stabilizer; supply a nonzero one")
    if p.nvars != n:
        raise Refusal("variable count does not match n")
    if n < 1:
        raise Refusal("the polynomial needs at least one variable")
    if not p.is_homogeneous():
        raise Refusal("the polynomial must be homogeneous (the stabilizer is read in its one degree)")
    target = monomial_basis(n, p.degree())
    index = {alpha: k for k, alpha in enumerate(target.exponents)}
    cols = []
    for a in range(n):
        for b in range(n):
            # E_ab acts as x_a d/dx_b, the flow of E_ba: its one entry is row b of column a
            e_ba = SparseCols(n, n, tuple(((b, 1),) if i == a else () for i in range(n)))
            res = directional_derivative(p, e_ba)
            cols.append(dense(((index[e], c) for e, c in res.terms), len(target.exponents)))
    return kernel_basis(Matrix.from_cols(cols, nrows=len(target.exponents)))


def gen_stabilizer_triplet(p: PolyInvariant, center_scale) -> FundamentalTriplet:
    """The scalars plus the stabilizer of a polynomial, acting on the variable
    space itself, the identity rescaled to act by center_scale.

    The sub-triplet of gl(n), with its trace form and defining action, on the
    identity followed by the stabilizer basis.
    """
    center_scale = frac(center_scale)
    if center_scale == 0:
        raise Refusal("the center must act nontrivially")
    n = p.nvars
    stab = stabilizer_of_poly(n, p)
    if p.degree() == 0:  # p is homogeneous, so Id.p = deg(p) p: the identity fixes only a constant
        raise Refusal("identity lies in the stabilizer; the family does not apply")
    gl = gen_symplectic(n, 1, 1, "trace")
    ident = dense(((a * (n + 1), 1) for a in range(n)), n * n)
    t = _restrict(gl.g0, gl.b0.gram, gl.rho, [ident] + stab)
    if rank(t.b0.gram) != t.dim_g0:
        raise Refusal("the trace form is degenerate on this stabilizer family")
    action = (gl.rho.cols_of(vscale(center_scale, ident)),) + t.rho.action_cols[1:]
    return FundamentalTriplet(t.g0, t.b0, Representation(n, action))
