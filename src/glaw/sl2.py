"""sl2-triples attached to a fundamental triplet, and polynomial invariants.

The criterion is linear: X belongs to a triple (Y, H0, X) exactly when X lies
outside the span of the derived algebra acting on X.  Completion solves one
covector system; the gradlog route differentiates an explicit relative
invariant instead.  Certificates carry their three residual vectors and are
only produced when those vanish exactly.  A linear map acts on a polynomial
through one sparse kernel, ``directional_derivative``, which reads the map's
columns; the relative-invariant check and the stabilizer generator share it.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .exactla import (
    Matrix,
    SparseCols,
    Vector,
    ZERO,
    dense,
    frac,
    rank,
    record,
    solve_pairs,
    vadd,
    vis_zero,
    vscale,
    vsub,
    vzero,
)
from .liecore import (
    FundamentalTriplet,
    NoTriple,
    Refusal,
    center,
    checked_pairs,
    derived_subalgebra,
    grading_element,
)
from .localg import LocalAlgebra, build_local


@record
class PolyInvariant:
    """Sparse multivariate polynomial over Q: terms are (exponents, coefficient)."""

    nvars: int
    terms: tuple[tuple[tuple[int, ...], Fraction], ...]

    @staticmethod
    def from_dict(nvars: int, data: dict) -> "PolyInvariant":
        cleaned = {tuple(k): frac(v) for k, v in data.items() if frac(v) != 0}
        for exps in cleaned:
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError("bad exponent vector")
        return PolyInvariant(nvars, tuple(sorted(cleaned.items())))

    @staticmethod
    def monomial(nvars: int, exps, coeff=1) -> "PolyInvariant":
        return PolyInvariant.from_dict(nvars, {tuple(exps): coeff})

    @staticmethod
    def from_string(text: str, nvars: int) -> "PolyInvariant":
        """Parse sums of monomials like "x0^2 + 3/2*x0*x1 - x2^3"."""
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty polynomial")
        if not re.fullmatch(r"[+-]?[^+-]+(?:[+-][^+-]+)*", s):
            raise ValueError(f"malformed polynomial {text!r}: a sign must be followed by a term")
        chunks = re.findall(r"[+-]?[^+-]+", s)
        data: dict[tuple[int, ...], Fraction] = {}
        for chunk in chunks:
            coeff = Fraction(-1 if chunk[0] == "-" else 1)
            exps = [0] * nvars
            for factor in chunk.lstrip("+-").split("*"):
                if not factor:
                    raise ValueError(f"malformed term {chunk!r}")
                m = re.fullmatch(r"x(\d+)(?:\^(\d+))?", factor)
                if m:
                    idx, power = int(m.group(1)), int(m.group(2) or 1)
                    if idx >= nvars:
                        raise ValueError(f"variable x{idx} out of range for {nvars} variables")
                    exps[idx] += power
                else:
                    coeff *= frac(factor)
            key = tuple(exps)
            data[key] = data.get(key, ZERO) + coeff
        return PolyInvariant.from_dict(nvars, data)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e, _ in self.terms), default=0)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e, _ in self.terms}
        return len(degs) <= 1

    def diff(self, j: int) -> "PolyInvariant":
        data: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms:
            if e[j] == 0:
                continue
            key = tuple(x - 1 if k == j else x for k, x in enumerate(e))
            data[key] = data.get(key, ZERO) + c * e[j]
        return PolyInvariant.from_dict(self.nvars, data)

    def eval(self, point) -> Fraction:
        if len(point) != self.nvars:
            raise ValueError(f"a point with {len(point)} coordinates for a polynomial in {self.nvars} variables")
        total = ZERO
        for e, c in self.terms:
            v = c
            for xk, ek in zip(point, e):
                if ek:
                    v *= frac(xk) ** ek
            total += v
        return total

    def gradient_at(self, point) -> Vector:
        return tuple(self.diff(j).eval(point) for j in range(self.nvars))

    def scalar_multiple_of(self, other: "PolyInvariant") -> Fraction | None:
        """Return c with self = c*other, None if no such scalar exists."""
        if self.is_zero() or other.is_zero():
            return ZERO if self.is_zero() else None
        odict, (e, c) = dict(other.terms), self.terms[0]
        if e not in odict:
            return None
        ratio = c / odict[e]
        return ratio if dict(self.terms) == {k: ratio * x for k, x in other.terms} else None

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            mono = "*".join(
                f"x{k}" + (f"^{p}" if p > 1 else "") for k, p in enumerate(e) if p
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


def directional_derivative(p: PolyInvariant, m: SparseCols) -> PolyInvariant:
    """dP(x) . (M x): the derivative of P along the linear flow of M, read off
    the columns of M.  Each term c x^e and each nonzero M[j][i] with e_j > 0
    add c e_j M[j][i] to the coefficient of x^(e - 1_j + 1_i)."""
    data: dict[tuple[int, ...], Fraction] = {}
    for e, c in p.terms:
        for i, col in enumerate(m.support):
            for j, x in col:
                if e[j]:
                    exps = list(e)
                    exps[j] -= 1
                    exps[i] += 1
                    key = tuple(exps)
                    data[key] = data.get(key, ZERO) + c * e[j] * x
    return PolyInvariant.from_dict(p.nvars, data)


# ---------------------------------------------------------------------------
# certificates and criteria


@record
class Sl2Certificate:
    x: Vector
    h0: Vector
    y: Vector
    residuals: tuple[Vector, Vector, Vector]

    @property
    def ok(self) -> bool:
        return all(vis_zero(r) for r in self.residuals)


def _certificate(L: LocalAlgebra, y: Vector, h0: Vector, x: Vector) -> Sl2Certificate:
    two = Fraction(2)
    r1 = vsub(L.triplet.rho.act(h0, x), vscale(two, x))
    r2 = vadd(L.dual_action.act(h0, y), vscale(two, y))
    r3 = vsub(L.bracket_yx(y, x), h0)
    return Sl2Certificate(x, h0, y, (r1, r2, r3))


@record
class AssumptionHReport:
    ok: bool
    h0: Vector | None
    failures: tuple[str, ...]
    derived: tuple[Vector, ...]  # the basis of the derived algebra the check read


def assumption_h_check(t: FundamentalTriplet) -> AssumptionHReport:
    """One-dimensional center acting by a nontrivial scalar; returns H0 with
    rho(H0) = 2 Id when that holds."""
    failures: list[str] = []
    z = center(t.g0)
    der = derived_subalgebra(t.g0)
    if len(z) != 1:
        failures.append(f"center has dimension {len(z)}, expected 1")
    if len(der) + len(z) != t.dim_g0 or rank(Matrix.from_rows(der + z)) != t.dim_g0:
        failures.append("g0 is not the direct sum of its center and derived algebra")
    h0 = None
    if len(z) == 1:
        cols = t.rho.cols_of(z[0]).support
        lam = dict(cols[0]).get(0, 0)
        if not all(col == (((l, lam),) if lam else ()) for l, col in enumerate(cols)):
            failures.append("the center does not act by a scalar")
        elif lam == 0:
            failures.append("the center acts trivially")
        else:
            h0 = vscale(Fraction(2) / lam, z[0])
    return AssumptionHReport(not failures, h0, tuple(failures), tuple(der))


def property_p_test(t: FundamentalTriplet, x: Vector) -> bool:
    """True when x lies outside the span of the derived algebra applied to x."""
    (xs,) = checked_pairs(t.dim_v, x)
    if not xs:
        return False
    orbit = SparseCols.from_vectors([t.rho.act(u, x) for u in derived_subalgebra(t.g0)], t.dim_v)
    return solve_pairs(orbit, [xs]) == [None]


def complete_triple(t: FundamentalTriplet, x: Vector) -> Sl2Certificate:
    """Complete a nil-positive candidate to a certified triple (Y, H0, X)."""
    h = assumption_h_check(t)
    if not h.ok:
        raise Refusal("; ".join(h.failures))
    checked_pairs(t.dim_v, x)
    der = h.derived
    # the covector y with (rho(u) x) . y = 0 for each u in der and x . y = 1: the system with those rows,
    # solvable exactly when x lies outside the span of the rho(u) x (property (P), by the Fredholm alternative)
    rows = SparseCols.from_vectors([t.rho.act(u, x) for u in der] + [x], t.dim_v).transpose()
    (y,) = solve_pairs(rows, [((len(der), 1),)])
    if y is None:
        raise NoTriple("the candidate lies in the span of the derived algebra applied to it")
    y = dense(y, t.dim_v)
    L = build_local(t)
    br = L.bracket_yx(y, x)
    lam = None
    for k, hk in enumerate(h.h0):
        if hk != 0:
            lam = br[k] / hk
            break
    if lam is None or vsub(br, vscale(lam, h.h0)) != vzero(t.dim_g0) or lam == 0:
        raise Refusal("[Y,X] is not a nonzero multiple of H0; inconsistent input data")
    cert = _certificate(L, vscale(Fraction(1) / lam, y), h.h0, x)
    if not cert.ok:
        raise Refusal("completion produced nonzero residuals; inconsistent input data")
    return cert


@record
class RelativeInvariantResult:
    ok: bool
    dchi: Vector | None
    failing_index: int | None


def relative_invariant_check(t: FundamentalTriplet, r: PolyInvariant) -> RelativeInvariantResult:
    """Check dR(x).(A x) = dchi(A) R(x) for every basis element A.

    The module must carry the polynomial's variables (dim V = number of
    variables); each A is read as its sparse columns rho(A).
    """
    if r.is_zero():
        raise Refusal("the zero polynomial is not a relative invariant")
    if t.dim_v != r.nvars:
        raise Refusal("the action does not match the polynomial's variable count")
    dchi = []
    for a, m in enumerate(t.rho.action_cols):
        derived = directional_derivative(r, m)
        c = derived.scalar_multiple_of(r)
        if c is None:
            return RelativeInvariantResult(False, None, a)
        dchi.append(c)
    return RelativeInvariantResult(True, tuple(dchi), None)


def gradlog_triple(t: FundamentalTriplet, r: PolyInvariant, x) -> Sl2Certificate:
    """Build the triple whose negative element is the scaled gradlog of R at x."""
    if not r.is_homogeneous():
        raise Refusal("the invariant must be homogeneous (its degree sets the character value)")
    ric = relative_invariant_check(t, r)
    if not ric.ok:
        raise Refusal(f"not a relative invariant: basis element {ric.failing_index} fails")
    x = tuple(frac(v) for v in x)
    rx = r.eval(x)
    if rx == 0:
        raise Refusal("the point lies outside the invariant's domain (R vanishes there)")
    h0 = grading_element(t)
    if h0 is None:
        raise Refusal("the triplet has no grading element acting as 2*Id")
    dchi_h0 = Fraction(2 * r.degree())
    from_covector = sum((c * h for c, h in zip(ric.dchi, h0)), ZERO)
    if from_covector != dchi_h0:
        raise Refusal("the character does not evaluate to twice the degree on the grading element")
    L = build_local(t)
    grad = r.gradient_at(x)
    c = -t.b0.value(h0, h0) / dchi_h0
    y = vscale(c, vscale(Fraction(1) / rx, grad))
    cert = _certificate(L, y, h0, x)
    if not cert.ok:
        raise Refusal("gradlog completion produced nonzero residuals; inconsistent input data")
    return cert
