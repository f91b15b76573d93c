import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from glaw import (
    FundamentalTriplet,
    Matrix,
    NoTriple,
    QuadraticForm,
    Refusal,
    Representation,
    assumption_h_check,
    build_local,
    complete_triple,
    deform_form,
    gen_glblock,
    gen_stabilizer_triplet,
    gen_symplectic,
    gradlog_triple,
    property_p_test,
    relative_invariant_check,
    theta_swap,
)
from glaw.exactla import SparseCols, vis_zero
from glaw.liecore import LieAlgebraData, derived_subalgebra
from glaw.sl2 import PolyInvariant, directional_derivative

from helpers import (
    dense_solve,
    gl_standard_triplet,
    random_rational_vector,
    sl2_triplet,
    small_rationals,
    sum_of_powers_vector,
)

F = Fraction


# ---------------------------------------------------------------------------
# the sparse polynomial type


def test_poly_parse_and_str_round_trip():
    p = PolyInvariant.from_string("x0^2 + 3/2*x0*x1 - x2^3", 3)
    assert p.eval((1, 2, 1)) == F(1) + F(3) - F(1)
    q = PolyInvariant.from_string(str(p), 3)
    assert q == p


def test_poly_calculus():
    p = PolyInvariant.from_string("x0^2+x1^2", 2)
    assert p.degree() == 2 and p.is_homogeneous()
    assert p.diff(0) == PolyInvariant.from_string("2*x0", 2)
    assert p.gradient_at((1, 0)) == (F(2), F(0))
    assert p.scalar_multiple_of(PolyInvariant.from_string("3*x0^2+3*x1^2", 2)) == F(1, 3)
    assert p.scalar_multiple_of(PolyInvariant.from_string("x0^2", 2)) is None


def test_scalar_multiple_of_at_eight_hundred_terms():
    p = PolyInvariant.from_dict(2, {(i, 1000 - i): i + 1 for i in range(800)})
    double = PolyInvariant.from_dict(2, {e: 2 * c for e, c in p.terms})
    assert p.scalar_multiple_of(double) == F(1, 2)
    assert double.scalar_multiple_of(p) == 2
    assert p.scalar_multiple_of(PolyInvariant.from_dict(2, dict(p.terms) | {(400, 600): 7})) is None
    # a term of other that self lacks is caught by the second pass
    assert p.scalar_multiple_of(PolyInvariant.from_dict(2, dict(p.terms) | {(900, 100): 1})) is None
    # zero is 0 times anything, and no nonzero polynomial is a multiple of zero
    zero = PolyInvariant(2, ())
    assert zero.scalar_multiple_of(zero) == 0
    assert zero.scalar_multiple_of(p) == 0
    assert p.scalar_multiple_of(zero) is None


@pytest.mark.parametrize("point", [(3,), (3, 4, 5)], ids=["short", "long"])
def test_poly_refuses_a_point_of_the_wrong_length(point):
    # zip used to truncate the point: x0^2 + x1^2 read 10 at (3,) and 25 at (3, 4, 5)
    p = PolyInvariant.from_string("x0^2+x1^2", 2)
    with pytest.raises(ValueError, match="coordinates for a polynomial in 2 variables"):
        p.eval(point)
    with pytest.raises(ValueError, match="coordinates for a polynomial in 2 variables"):
        p.gradient_at(point)


def test_vector_field_action_matches_euler():
    p = PolyInvariant.from_string("x0^3+x0*x1^2", 2)
    ident = SparseCols.from_matrix(Matrix.identity(2))
    assert directional_derivative(p, ident) == PolyInvariant.from_string("3*x0^3+3*x0*x1^2", 2)
    # E_01 acts as x0 d/dx1, the flow of its transpose, and sends x1^2 to 2 x0 x1
    e01 = Matrix.from_rows([[0, 1], [0, 0]])
    got = directional_derivative(PolyInvariant.from_string("x1^2", 2), SparseCols.from_matrix(e01.transpose()))
    assert got == PolyInvariant.from_string("2*x0*x1", 2)


@st.composite
def polys_and_maps(draw):
    """A polynomial in 1..4 variables with up to six terms, each exponent at
    most 3, and an n x n matrix of small rationals, about half of them zero."""
    n = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    terms = draw(st.dictionaries(exps, small_rationals.filter(bool), max_size=6))
    cell = st.one_of(st.just(F(0)), small_rationals)
    grid = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))
    return PolyInvariant.from_dict(n, terms), Matrix.from_rows(grid)


@settings(max_examples=30, deadline=None)
@given(polys_and_maps())
def test_directional_derivative_matches_sympy(case):
    """The sparse kernel against sympy's sum_j dP/dx_j (Mx)_j, term by term
    (sympy is a test-only tool)."""
    from sympy import Poly, Rational, diff, symbols

    p, m = case
    n = p.nvars
    xs = symbols(f"x0:{n}")
    poly = sum(Rational(c.numerator, c.denominator) * math.prod(x**k for x, k in zip(xs, e)) for e, c in p.terms)
    mx = [sum(Rational(x.numerator, x.denominator) * xs[i] for i, x in enumerate(m.entries[j])) for j in range(n)]
    expected = Poly(sum(diff(poly, xs[j]) * mx[j] for j in range(n)), *xs).as_dict()
    got = directional_derivative(p, SparseCols.from_matrix(m))
    assert dict(got.terms) == {e: F(int(c.p), int(c.q)) for e, c in expected.items()}


@settings(max_examples=30, deadline=None)
@given(polys_and_maps())
def test_poly_str_round_trips(case):
    # negative and fractional coefficients, constant terms and the zero polynomial print as text the parser reads back
    p, _ = case
    assert PolyInvariant.from_string(str(p), p.nvars) == p


# ---------------------------------------------------------------------------
# assumption (H)


def test_assumption_h_on_symplectic_families():
    for n, p, lam, form in ((2, 2, 2, "trace"), (2, 3, 1, "g2"), (3, 1, 3, "sl-shifted")):
        rep = assumption_h_check(gen_symplectic(n, p, F(lam), form))
        assert rep.ok
        ident = tuple(F(1) if a == b else F(0) for a in range(n) for b in range(n))
        assert rep.h0 == tuple(F(2) / F(lam) * x for x in ident)


def test_assumption_h_failures():
    rep = assumption_h_check(sl2_triplet())
    assert not rep.ok and any("center has dimension 0" in f for f in rep.failures)
    trivial_center = FundamentalTriplet(
        LieAlgebraData.abelian(1),
        QuadraticForm(Matrix.identity(1)),
        Representation.from_matrices(1, (Matrix.zeros(1, 1),)),
    )
    rep = assumption_h_check(trivial_center)
    assert not rep.ok and any("trivially" in f for f in rep.failures)
    non_scalar = FundamentalTriplet(
        LieAlgebraData.abelian(1),
        QuadraticForm(Matrix.identity(1)),
        Representation.from_matrices(2, (Matrix.from_rows([[1, 0], [0, 2]]),)),
    )
    rep = assumption_h_check(non_scalar)
    assert not rep.ok and any("scalar" in f for f in rep.failures)


# ---------------------------------------------------------------------------
# property (P) and completion


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_sum_of_powers_has_property_p(n, p):
    t = gen_symplectic(n, p, 1, "trace")
    assert property_p_test(t, sum_of_powers_vector(n, p))


def test_degree_one_never_has_property_p():
    t = gen_symplectic(3, 1, 3, "sl-shifted")
    rng = random.Random(5)
    for _ in range(20):
        x = random_rational_vector(rng, t.dim_v)
        if vis_zero(x):
            continue
        assert not property_p_test(t, x)
    assert not property_p_test(t, (F(0), F(0), F(0)))


def test_complete_triple_frozen_values_for_the_quadric():
    # X = x0^2 + x1^2 in the (2,2) family: the annihilator of sl(2).X is the
    # line through the dual quadric, which forces y = -(f_20 + f_02)/2
    t = gen_symplectic(2, 2, 2, "trace")
    x = sum_of_powers_vector(2, 2)
    cert = complete_triple(t, x)
    assert cert.ok
    assert cert.y == (F(-1, 2), F(0), F(-1, 2))
    ident = (F(1), F(0), F(0), F(1))
    assert cert.h0 == ident


def test_complete_triple_on_the_exceptional_family():
    t = gen_symplectic(2, 3, 1, "g2")
    cert = complete_triple(t, sum_of_powers_vector(2, 3))
    assert cert.ok
    assert all(vis_zero(r) for r in cert.residuals)


def test_complete_triple_rejects_zero_and_degree_one():
    t = gen_symplectic(2, 2, 2, "trace")
    with pytest.raises(NoTriple):
        complete_triple(t, (F(0),) * t.dim_v)
    t1 = gen_symplectic(2, 1, 3, "sl-shifted")
    with pytest.raises(NoTriple):
        complete_triple(t1, (F(1), F(0)))


def test_criterion_soundness_no_solution_when_property_fails():
    # when X lies in the derived span, no covector kills the span and pairs
    # with X: the defining linear system is infeasible
    t = gen_symplectic(2, 1, 3, "sl-shifted")
    rng = random.Random(17)
    der = derived_subalgebra(t.g0)
    for _ in range(10):
        x = random_rational_vector(rng, t.dim_v)
        if vis_zero(x):
            continue
        rows = [t.rho.act(u, x) for u in der] + [x]
        rhs = [F(0)] * len(der) + [F(1)]
        assert dense_solve(rows, rhs) is None


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(2, 1, 3, "sl-shifted"), (2, 2, 2, "trace"), (3, 2, 1, "sl-shifted"), (2, 3, 1, "g2")]), st.data())
def test_completion_refuses_exactly_when_property_p_fails(params, data):
    # the completion's covector solve is solvable exactly when x lies outside the derived span applied to x
    t = gen_symplectic(*params)
    x = tuple(F(v) for v in data.draw(st.lists(st.integers(-1, 1), min_size=t.dim_v, max_size=t.dim_v)))
    try:
        complete_triple(t, x)
        completes = True
    except NoTriple:
        completes = False
    assert completes == property_p_test(t, x)


def test_property_p_is_form_independent():
    base = gen_symplectic(2, 2, 2, "trace")
    ident = tuple(F(1) if a == b else F(0) for a in range(2) for b in range(2))
    sl_basis = derived_subalgebra(base.g0)
    deformed = deform_form(base, [[ident], sl_basis], [F(2), F(3)])
    rng = random.Random(23)
    for _ in range(10):
        x = random_rational_vector(rng, base.dim_v)
        assert property_p_test(base, x) == property_p_test(deformed, x)


def test_property_p_duality_under_swap():
    # the family has the property iff the swapped family does
    for n, p, lam, form in ((2, 2, 2, "trace"), (2, 3, 1, "g2")):
        t = gen_symplectic(n, p, lam, form)
        swapped = theta_swap(t)
        assert property_p_test(t, sum_of_powers_vector(n, p))
        assert property_p_test(swapped, sum_of_powers_vector(n, p))
    t1 = gen_symplectic(2, 1, 3, "sl-shifted")
    assert not property_p_test(theta_swap(t1), (F(1), F(1)))


# ---------------------------------------------------------------------------
# relative invariants and the gradlog route


def test_relative_invariant_on_quadric_stabilizer():
    quad = PolyInvariant.from_string("x0^2+x1^2+x2^2", 3)
    t = gen_stabilizer_triplet(quad, 1)
    res = relative_invariant_check(t, quad)
    assert res.ok
    # basis order: identity first, then the rotation generators
    assert res.dchi[0] == 2
    assert all(c == 0 for c in res.dchi[1:])


def test_relative_invariant_failure_names_the_generator():
    t = gl_standard_triplet(2)
    res = relative_invariant_check(t, PolyInvariant.from_string("x0", 2))
    assert not res.ok
    assert res.failing_index is not None
    with pytest.raises(Refusal):
        relative_invariant_check(t, PolyInvariant.from_dict(2, {}))


def test_relative_invariant_determinant_under_block_action():
    t = gen_glblock(2, 1, 2)
    det = PolyInvariant.from_string("x0*x3-x1*x2", 4)
    res = relative_invariant_check(t, det)
    assert res.ok
    # the grading pair (Id,-Id) is the first basis vector; dchi(H0) = 2*deg
    assert res.dchi[0] == 4


def test_gradlog_frozen_example():
    quad = PolyInvariant.from_string("x0^2+x1^2", 2)
    t = gen_stabilizer_triplet(quad, 2)
    cert = gradlog_triple(t, quad, (1, 0))
    assert cert.ok
    assert cert.y == (F(-1), F(0))
    assert cert.h0 == (F(1), F(0))  # the identity matrix, first basis vector
    with pytest.raises(Refusal):
        gradlog_triple(t, quad, (0, 0))


def test_gradlog_agrees_with_completion_modulo_annihilator():
    quad = PolyInvariant.from_string("x0^2+x1^2+x2^2", 3)
    t = gen_stabilizer_triplet(quad, 2)
    L = build_local(t)
    rng = random.Random(41)
    found = 0
    while found < 10:
        x = tuple(F(rng.randint(-4, 4)) for _ in range(3))
        if quad.eval(x) == 0:
            continue
        found += 1
        c1 = complete_triple(t, x)
        c2 = gradlog_triple(t, quad, x)
        diff = tuple(a - b for a, b in zip(c1.y, c2.y))
        assert vis_zero(L.bracket_yx(diff, x))
        assert c1.ok and c2.ok


def test_gradlog_rejects_non_invariants():
    quad = PolyInvariant.from_string("x0^2+x1^2", 2)
    t = gen_stabilizer_triplet(quad, 2)
    with pytest.raises(Refusal):
        gradlog_triple(t, PolyInvariant.from_string("x0^2", 2), (1, 0))
