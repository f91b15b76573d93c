import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from glaw import (
    FundamentalTriplet,
    LieAlgebraData,
    Matrix,
    QuadraticForm,
    Refusal,
    Representation,
    box_rescale_rep,
    build_local,
    deform_form,
    grading_element,
    reduce_triplet,
    theta_swap,
    transitivity_check,
    triplet_iso_extend,
    validate,
)
from glaw.exactla import inverse, solve, support, tight_pairs, vis_zero, vneg
from glaw.generators import (
    gen_glblock,
    gen_principal,
    gen_stabilizer_triplet,
    gen_symplectic,
    gen_with_trivial_summand,
    monomial_basis,
)
from glaw.liecore import basis_vector, direct_sum_with_zero_factor, dual_rep, restrict_algebra
from glaw.localg import IsoRefusal, LocalForm, LocalIsomorphism, local_iso_check, scale_by_components
from glaw.sl2 import PolyInvariant
from glaw.tower import centralizer_graded, grow_both

from helpers import (
    E6_CARTAN,
    dense_xy_table,
    generator_triplets,
    gl_standard_triplet,
    glblock_pairs,
    mixed_jacobi_failure,
    sl2_triplet,
    small_rationals,
)

F = Fraction


def as_matrix(vec, n):
    return Matrix.from_rows([[vec[i * n + j] for j in range(n)] for i in range(n)])


def as_vec(m, n):
    return tuple(m.entries[i][j] for i in range(n) for j in range(n))


DEGENERATE = "the invariant form is degenerate; no local bracket exists"


def test_build_local_refuses_degenerate_form():
    t = gl_standard_triplet(2)
    broken = FundamentalTriplet(t.g0, QuadraticForm(Matrix.zeros(4, 4)), t.rho)
    with pytest.raises(Refusal, match=DEGENERATE):
        build_local(broken)


def test_build_local_refuses_a_nonzero_form_with_two_equal_rows():
    # rank 3: eliminating [G | Id] leaves a row pivoted in the identity block
    t = gl_standard_triplet(2)
    gram = Matrix.from_rows([[1, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 1]])
    with pytest.raises(Refusal) as err:
        build_local(FundamentalTriplet(t.g0, QuadraticForm(gram), t.rho))
    assert str(err.value) == DEGENERATE


# G^{-1} has thirds under the g2 form (d = 3); rho has thirds on gl(3) cubics (e = 3)
G2_FORM = gen_symplectic(2, 3, 1, "g2")
RHO_THIRDS = gen_symplectic(3, 3, 1)


@settings(max_examples=30, deadline=None)
@given(generator_triplets())
@example(G2_FORM)
@example(RHO_THIRDS)
def test_local_table_matches_a_fraction_oracle(t):
    L = build_local(t)
    assert L.xy_table == dense_xy_table(t)
    assert L.xy_pairs == tuple(tuple(tight_pairs(support(v)) for v in row) for row in L.xy_table)


def perturbed(t: FundamentalTriplet, on_rho: bool, seed: int) -> FundamentalTriplet:
    """t with one entry of one rho_a, or one structure constant, moved by a nonzero rational."""
    rng = random.Random(seed)
    delta = F(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2, 3]))
    n, dv = t.dim_g0, t.dim_v
    if on_rho:
        a, r, c = rng.randrange(n), rng.randrange(dv), rng.randrange(dv)
        rows = [list(row) for row in t.rho.action[a].entries]
        rows[r][c] += delta
        action = t.rho.action[:a] + (Matrix.from_rows(rows),) + t.rho.action[a + 1 :]
        return FundamentalTriplet(t.g0, t.b0, Representation.from_matrices(dv, action))
    i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
    table = [[list(v) for v in row] for row in t.g0.structure]
    table[i][j][k] += delta
    return FundamentalTriplet(LieAlgebraData.from_table(table), t.b0, t.rho)


@settings(max_examples=30, deadline=None)
@given(generator_triplets(), st.booleans(), st.integers(0, 2**16))
@example(G2_FORM, True, 0)
@example(G2_FORM, False, 1)
@example(RHO_THIRDS, True, 2)
@example(RHO_THIRDS, False, 3)
def test_mixed_jacobi_refusal_matches_a_fraction_scan(t, on_rho, seed):
    # the check runs scaled by de^2 on ints; it must refuse at the first (a, i, j) of the plain scan
    u = perturbed(t, on_rho, seed)
    failure = mixed_jacobi_failure(u)
    if failure is None:
        assert build_local(u).xy_table == dense_xy_table(u)
        return
    a, i, j = failure
    with pytest.raises(Refusal) as err:
        build_local(u)
    assert str(err.value).startswith(f"mixed Jacobi identity fails at (g0={a}, V={i}, V*={j}); ")


def test_zero_action_vector_brackets_to_zero():
    t = gen_with_trivial_summand(gl_standard_triplet(2), 1)
    L = build_local(t)
    trivial = t.dim_v - 1
    for j in range(t.dim_v):
        assert vis_zero(L.xy_table[trivial][j])


def test_mixed_jacobi_holds_exhaustively():
    # re-derive the identity [U,[X,Y]] = [[U,X],Y] + [X,[U,Y]] outside build_local
    t = gen_symplectic(2, 3, 1, "g2")
    L = build_local(t)
    n, dv = t.dim_g0, t.dim_v
    for a in range(n):
        ea = basis_vector(n, a)
        for i in range(dv):
            for j in range(dv):
                lhs = t.g0.bracket(ea, L.xy_table[i][j])
                rhs_1 = L.bracket_xy(L.act_v(ea, basis_vector(dv, i)), basis_vector(dv, j))
                rhs_2 = L.bracket_xy(basis_vector(dv, i), L.act_v_dual(ea, basis_vector(dv, j)))
                assert lhs == tuple(x + y for x, y in zip(rhs_1, rhs_2))


def symmetric_matrix_of_monomial(alpha, n, scale):
    """The symmetric matrix of the quadratic monomial, optionally rescaled."""
    idxs = [i for i in range(n) for _ in range(alpha[i])]
    i, j = idxs
    s = [[F(0)] * n for _ in range(n)]
    if i == j:
        s[i][i] = scale
    else:
        s[i][j] = s[j][i] = scale / 2
    return Matrix.from_rows(s)


def test_degree_two_bracket_matches_symmetric_matrix_model():
    # oracle: X in the quadratic module corresponds to the symmetric matrix S
    # with P = x^T S x in the block realization of the symplectic algebra;
    # the dual basis covector corresponds to the trace-dual symmetric matrix.
    # The (1,-1) bracket must then be the plain matrix product phi(X) psi(Y).
    for n in (2, 3):
        t = gen_symplectic(n, 2, 2, "trace")
        L = build_local(t)
        mono = monomial_basis(n, 2)
        for a, alpha in enumerate(mono.exponents):
            phi = symmetric_matrix_of_monomial(alpha, n, F(1))
            for b, beta in enumerate(mono.exponents):
                psi = symmetric_matrix_of_monomial(beta, n, F(2)).transpose()
                idxs = [i for i in range(n) for _ in range(beta[i])]
                if idxs[0] != idxs[1]:
                    psi = psi.scale(2)
                expected = phi @ psi
                assert as_matrix(L.xy_table[a][b], n).entries == expected.entries


def glblock_vec_to_pair(vec, n):
    a = Matrix.zeros(n, n)
    b = Matrix.zeros(n, n)
    for c, (pa, pb) in zip(vec, glblock_pairs(n)):
        a = a + pa.scale(c)
        b = b + pb.scale(c)
    return a, b


def test_block_family_bracket_closed_form():
    # [Y,X] for the block family: block-diagonal (-XY/l1 + c1 tr(YX) Id,
    # YX/l2 + c2 tr(YX) Id).  The block-model Y matrix is the transpose of
    # the dual-basis coordinate grid because the block pairing is tr(X Y).
    n = 2
    l1, l2 = F(1), F(2)
    t = gen_glblock(n, l1, l2)
    L = build_local(t)
    c1 = (l2 - l1) / (n * (l1 + l2) * l1)
    c2 = (l2 - l1) / (n * (l1 + l2) * l2)
    rng = random.Random(11)
    for _ in range(20):
        x = Matrix.from_rows([[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
        y = Matrix.from_rows([[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
        tr_yx = sum(((y @ x).entries[i][i] for i in range(n)), F(0))
        got_a, got_b = glblock_vec_to_pair(
            L.bracket_yx(as_vec(y.transpose(), n), as_vec(x, n)), n
        )
        exp_a = (x @ y).scale(-1 / l1) + Matrix.identity(n).scale(c1 * tr_yx)
        exp_b = (y @ x).scale(F(1) / l2) + Matrix.identity(n).scale(c2 * tr_yx)
        assert got_a.entries == exp_a.entries
        assert got_b.entries == exp_b.entries


def test_bracket_defining_identity():
    # B0([X,Y],U) = Y(rho(U)X) on every basis triple, read off the table
    for t in (gen_symplectic(2, 2, 2, "trace"), gen_glblock(2, 1, 2)):
        L = build_local(t)
        for i in range(t.dim_v):
            for j in range(t.dim_v):
                for a in range(t.dim_g0):
                    lhs = t.b0.value(L.xy_table[i][j], basis_vector(t.dim_g0, a))
                    assert lhs == t.rho.action[a].entries[j][i]


def test_theta_swap_fixes_the_bracket_table():
    # the swap is the identity on elements: [X',Y'] in the swapped algebra is
    # minus the original [Y',X'] with the arguments' roles exchanged
    t = gen_symplectic(2, 2, 2, "trace")
    L = build_local(t)
    Ls = build_local(theta_swap(t))
    for i in range(t.dim_v):
        for j in range(t.dim_v):
            assert Ls.xy_table[i][j] == vneg(L.xy_table[j][i])


SWAP_FAMILIES = {
    "gl3-cubic": lambda: gen_symplectic(3, 3, 1, "trace"),
    "sym-square-3": lambda: gen_symplectic(3, 2, 2, "trace"),
    "sl-shifted": lambda: gen_symplectic(2, 1, 3, "sl-shifted"),
    "g2-cubic": lambda: gen_symplectic(2, 3, 1, "g2"),
    "sp-4": lambda: gen_symplectic(4, 2, 2, "trace"),
    "glblock-3": lambda: gen_glblock(3, 1, 2),
    "e6": lambda: gen_principal(E6_CARTAN),
    "g2-cubic-trivial": lambda: gen_with_trivial_summand(gen_symplectic(2, 3, 1, "g2"), 2),
    "stabilizer": lambda: gen_stabilizer_triplet(PolyInvariant.from_string("x0^2+x1^2+x2^2", 3), 2),
    "sl2": sl2_triplet,
}


@pytest.mark.parametrize("family", sorted(SWAP_FAMILIES))
def test_swapped_local_algebra_equals_the_rebuilt_one(family):
    # L.swapped is read off L; the reference rebuilds it from the swapped triplet
    t = SWAP_FAMILIES[family]()
    L = build_local(t)
    ref = build_local(theta_swap(t))
    assert L.swapped.triplet == ref.triplet
    assert L.swapped.dual_action == ref.dual_action
    assert L.swapped.xy_table == ref.xy_table


def test_build_local_refuses_a_triplet_breaking_mixed_jacobi():
    t = sl2_triplet()
    doubled_h = Representation.from_matrices(2, (t.rho.action[0].scale(2),) + t.rho.action[1:])
    with pytest.raises(Refusal, match=r"mixed Jacobi identity fails at \(g0=0, V=0, V\*=1\)"):
        build_local(FundamentalTriplet(t.g0, t.b0, doubled_h))


def perturbed_triplets():
    """Seeded (name, triplet) pairs: valid triplets with one rho entry moved
    (seeds 0, 2, 3) and/or one structure constant moved (seeds 1, 2, 3; on
    seed 3 only [e_i, e_j] moves, which also breaks antisymmetry)."""
    bases = {
        "sl2": sl2_triplet(),
        "gl2": gl_standard_triplet(2),
        "sp2_quadratics": gen_symplectic(2, 2, 2, "trace"),
        "g2_cubic": gen_symplectic(2, 3, 1, "g2"),
        "glblock2": gen_glblock(2, 1, 2),
        "a2": gen_principal([[2, -1], [-1, 2]]),
    }
    for name, t in bases.items():
        n, dv = t.dim_g0, t.dim_v
        for seed in range(4):
            rng = random.Random(f"{name}/{seed}")
            g0, rho = t.g0, t.rho
            if seed != 1:
                mats = [[list(r) for r in m.entries] for m in t.rho.action]
                mats[rng.randrange(n)][rng.randrange(dv)][rng.randrange(dv)] += rng.choice([-2, -1, 1, 2])
                rho = Representation.from_matrices(dv, tuple(Matrix.from_rows(m) for m in mats))
            if seed != 0:
                table = [[list(v) for v in row] for row in t.g0.structure]
                i, j = rng.sample(range(n), 2)
                k, d = rng.randrange(n), rng.choice([-1, 1, 2])
                table[i][j][k] += d
                if seed != 3:
                    table[j][i][k] -= d
                g0 = LieAlgebraData.from_table(table)
            yield f"{name}/{seed}", FundamentalTriplet(g0, t.b0, rho)


def failure_record(t):
    """validate's violation list and build_local's refusal text ("ok" when it builds)."""
    try:
        build_local(t)
        refusal = "ok"
    except Refusal as exc:
        refusal = str(exc)
    return {"violations": validate(t).violations, "build_local": refusal}


def test_failure_order_matches_the_recorded_one():
    # recorded from the dense per-basis-triple checks; the sparse identities must report alike
    path = Path(__file__).parent / "golden" / "failure_order.json"
    recorded = json.loads(path.read_text(encoding="utf-8"))
    got = {name: failure_record(t) for name, t in perturbed_triplets()}
    assert list(got) == list(recorded)
    for name, record in recorded.items():
        assert got[name] == record, name


@settings(max_examples=40, deadline=None)
@given(generator_triplets())
def test_valid_generator_triplets_pass_validate_and_build_local(t):
    # the mixed Jacobi identity follows from the triplet axioms, so neither check may refuse
    assert validate(t).violations == []
    assert len(build_local(t).xy_table) == t.dim_v


@settings(max_examples=40, deadline=None)
@given(generator_triplets(min_n=2), st.data())
def test_a_rho_breaking_only_the_homomorphism_fails_both_checks(t, data):
    # paired with W, both sides of mixed Jacobi give -Y(rho([U,W])X) exactly when rho is a homomorphism
    n, dv = t.dim_g0, t.dim_v
    mats = [[list(r) for r in m.entries] for m in t.rho.action]
    a, r, c = (data.draw(st.integers(0, k - 1)) for k in (n, dv, dv))
    mats[a][r][c] += data.draw(small_rationals.filter(bool))
    rho = [Matrix.from_rows(m) for m in mats]
    broken = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if sum((rho[k].scale(x) for k, x in enumerate(t.g0.structure[i][j])), Matrix.zeros(dv, dv))
        != rho[i] @ rho[j] - rho[j] @ rho[i]
    ]
    assume(broken)
    bad = FundamentalTriplet(t.g0, t.b0, Representation.from_matrices(dv, tuple(rho)))
    assert validate(bad).violations == [f"representation homomorphism fails at basis pair ({i},{j})" for i, j in broken]
    with pytest.raises(Refusal, match="mixed Jacobi identity fails"):
        build_local(bad)


def test_theta_swap_self_dual_module_keeps_tower_dims():
    from glaw import POSITIVE, grow
    from helpers import sl2_triplet

    t = sl2_triplet()  # the rank-1 module is self-dual
    d1 = grow(build_local(t), POSITIVE, 3).dims()
    d2 = grow(build_local(theta_swap(t)), POSITIVE, 3).dims()
    assert d1 == d2


def local_bracket(L, a, b):
    """(degree, value) of the local bracket, or None when undefined."""
    da, va = a
    db, vb = b
    if abs(da + db) > 1:
        return None
    if da == 0 and db == 0:
        return (0, L.triplet.g0.bracket(va, vb))
    if da == 0:
        return (db, L.act_v(va, vb) if db == 1 else L.act_v_dual(va, vb))
    if db == 0:
        got = local_bracket(L, b, a)
        return (got[0], vneg(got[1]))
    if da == 1 and db == -1:
        return (0, L.bracket_xy(va, vb))
    return (0, L.bracket_yx(va, vb))


def test_local_form_invariance_and_blocks():
    t = gen_symplectic(2, 2, 2, "trace")
    L = build_local(t)
    form = LocalForm(L)
    dv, n0 = t.dim_v, t.dim_g0
    # cross blocks vanish, (V,V*) block is the dual evaluation
    x = basis_vector(dv, 0)
    u = basis_vector(n0, 0)
    assert form.value((1, x), (0, u)) == 0
    assert form.value((1, x), (-1, basis_vector(dv, 1))) == 0
    assert form.value((1, x), (-1, x)) == 1

    # invariance B([x,y],z) = B(x,[y,z]) over every degree pattern for which
    # both brackets are defined, exhaustively on basis triples
    def elements(d):
        dim = n0 if d == 0 else dv
        return [(d, basis_vector(dim, k)) for k in range(dim)]

    for d1 in (-1, 0, 1):
        for d2 in (-1, 0, 1):
            for d3 in (-1, 0, 1):
                if abs(d1 + d2) > 1 or abs(d2 + d3) > 1:
                    continue
                for ea in elements(d1):
                    for eb in elements(d2):
                        for ec in elements(d3):
                            lhs = form.value(local_bracket(L, ea, eb), ec)
                            rhs = form.value(ea, local_bracket(L, eb, ec))
                            assert lhs == rhs, (d1, d2, d3)


def test_local_form_nondegenerate_on_the_whole_local_part():
    # block nondegeneracy: the degree-0 Gram is invertible and the dual
    # pairing couples V with V*, so the full form has full rank
    t = gen_symplectic(2, 2, 2, "trace")
    L = build_local(t)
    form = LocalForm(L)
    dv, n0 = t.dim_v, t.dim_g0
    pieces = [(-1, k) for k in range(dv)] + [(0, k) for k in range(n0)] + [(1, k) for k in range(dv)]
    rows = []
    for d1, k1 in pieces:
        row = []
        for d2, k2 in pieces:
            v1 = basis_vector(n0 if d1 == 0 else dv, k1)
            v2 = basis_vector(n0 if d2 == 0 else dv, k2)
            row.append(form.value((d1, v1), (d2, v2)))
        rows.append(row)
    from glaw.exactla import rank as _rank

    total = Matrix.from_rows(rows)
    assert _rank(total) == 2 * dv + n0


def test_transitivity_reports():
    assert transitivity_check(build_local(gen_symplectic(2, 2, 2, "trace"))).transitive
    assert transitivity_check(build_local(gen_symplectic(2, 3, 1, "g2"))).via_grading_element
    rep = transitivity_check(build_local(gen_with_trivial_summand(gl_standard_triplet(2), 1)))
    assert not rep.transitive and rep.faithful and not rep.spans_v
    t = gl_standard_triplet(2)
    zero_rho = Representation.from_matrices(2, tuple(Matrix.zeros(2, 2) for _ in range(4)))
    rep = transitivity_check(build_local(FundamentalTriplet(t.g0, t.b0, zero_rho)))
    assert not rep.transitive and not rep.faithful


def glblock_ideals(n):
    dim = 2 * n * n - 1
    h0 = [basis_vector(dim, 0)]
    a1 = [basis_vector(dim, k) for k in range(1, n * n)]
    a2 = [basis_vector(dim, k) for k in range(n * n, dim)]
    return [h0, a1, a2]


def test_deform_form_identity_scales_are_identity():
    t = gen_glblock(2, 1, 1)
    t2 = deform_form(t, glblock_ideals(2), [F(1), F(1), F(1)])
    assert t2.b0.gram.entries == t.b0.gram.entries


def test_deform_form_component_identity():
    t = gen_glblock(2, 1, 1)
    ideals = glblock_ideals(2)
    lams = [F(3, 2), F(1), F(2)]
    t2 = deform_form(t, ideals, lams)
    assert validate(t2).ok
    l1, l2 = build_local(t), build_local(t2)
    for i in range(t.dim_v):
        for j in range(t.dim_v):
            assert scale_by_components(t, ideals, lams, l2.xy_table[i][j]) == l1.xy_table[i][j]


def test_deform_form_refusals():
    t = gen_glblock(2, 1, 1)
    with pytest.raises(Refusal):
        deform_form(t, glblock_ideals(2), [F(0), F(1), F(1)])
    # a non-ideal decomposition: split along arbitrary basis vectors of gl(2)
    t2 = gl_standard_triplet(2)
    bad = [[basis_vector(4, 0)], [basis_vector(4, k) for k in (1, 2, 3)]]
    with pytest.raises(Refusal):
        deform_form(t2, bad, [F(1), F(2)])


def test_scaled_form_gives_isomorphic_local_algebra():
    # scaling the whole form by a square rescales V and V* by its square root
    base = gen_symplectic(2, 2, 2, "trace")
    whole = [basis_vector(4, k) for k in range(4)]
    t4 = deform_form(base, [whole], [F(4)])
    res = local_iso_check(
        base,
        t4,
        Matrix.identity(base.dim_v).scale(2),
        Matrix.identity(4),
        Matrix.identity(base.dim_v).scale(2),
    )
    assert isinstance(res, LocalIsomorphism)
    # the triplet-level route rightly refuses: the identity is not an isometry
    refused = triplet_iso_extend(base, t4, Matrix.identity(4), Matrix.identity(base.dim_v).scale(2))
    assert isinstance(refused, IsoRefusal) and refused.condition == "form-isometry"


def test_triplet_iso_identity_and_conjugation():
    t = gl_standard_triplet(2)
    res = triplet_iso_extend(t, t, Matrix.identity(4), Matrix.identity(2))
    assert isinstance(res, LocalIsomorphism)
    assert res.gamma_tilde.entries == Matrix.identity(2).entries
    # conjugation by an invertible g is a triplet automorphism of the standard family
    g = Matrix.from_rows([[1, 1], [0, 1]])
    g_inv = Matrix.from_rows([[1, -1], [0, 1]])
    n = 2
    cols = []
    for a in range(n):
        for b in range(n):
            e = Matrix.from_rows([[1 if (i, j) == (a, b) else 0 for j in range(n)] for i in range(n)])
            m = g @ e @ g_inv
            cols.append(as_vec(m, n))
    a_map = Matrix.from_cols(cols, nrows=4)
    res = triplet_iso_extend(t, t, a_map, g)
    assert isinstance(res, LocalIsomorphism)


def test_triplet_iso_refuses_mismatched_block_forms():
    t1 = gen_glblock(2, 1, 1)
    t2 = gen_glblock(2, 1, 2)
    res = triplet_iso_extend(t1, t2, Matrix.identity(t1.dim_g0), Matrix.identity(t1.dim_v))
    assert isinstance(res, IsoRefusal)
    assert res.condition == "form-isometry"


def test_triplet_iso_refuses_non_homomorphism():
    t = gl_standard_triplet(2)
    res = triplet_iso_extend(t, t, Matrix.identity(4).scale(2), Matrix.identity(2))
    assert isinstance(res, IsoRefusal)
    assert res.condition == "lie-homomorphism"


def test_theta_swap_involution_and_dual():
    t = gen_symplectic(2, 2, 2, "trace")
    swapped = theta_swap(t)
    expected = dual_rep(t.rho)
    assert all(a.entries == b.entries for a, b in zip(swapped.rho.action, expected.action))
    double = theta_swap(swapped)
    assert all(a.entries == b.entries for a, b in zip(double.rho.action, t.rho.action))


def test_box_rescale_center_and_identity():
    t = gen_symplectic(2, 2, 2, "trace")
    ident = tuple(F(1) if a == b else F(0) for a in range(2) for b in range(2))
    t2 = box_rescale_rep(t, [ident], F(2))
    assert validate(t2).ok
    # the center now acts by 4, so the grading element halves
    assert grading_element(t2) == tuple(F(1, 2) * x for x in ident)
    t3 = box_rescale_rep(t, [ident], F(1))
    assert all(a.entries == b.entries for a, b in zip(t3.rho.action, t.rho.action))
    with pytest.raises(Refusal):
        box_rescale_rep(t, [ident], F(0))


def test_box_rescale_bracket_identity_on_gl2():
    # the rescaled bracket is the old bracket with its central component scaled
    t = gl_standard_triplet(2)
    ident = tuple(F(1) if a == b else F(0) for a in range(2) for b in range(2))
    gamma = F(3)
    t2 = box_rescale_rep(t, [ident], gamma)
    l1, l2 = build_local(t), build_local(t2)
    for i in range(t.dim_v):
        for j in range(t.dim_v):
            old = l1.xy_table[i][j]
            trace_part = (old[0] + old[3]) / 2
            scaled = list(old)
            scaled[0] += (gamma - 1) * trace_part
            scaled[3] += (gamma - 1) * trace_part
            assert l2.xy_table[i][j] == tuple(scaled)


def test_box_rescale_refuses_non_central_part():
    t = gl_standard_triplet(2)
    with pytest.raises(Refusal):
        box_rescale_rep(t, [basis_vector(4, 1)], F(2))


def test_reduce_already_transitive_is_identity():
    t = gen_symplectic(2, 2, 2, "trace")
    red = reduce_triplet(t, assert_completely_reducible=True)
    assert red.transitive_part is t
    assert red.v0 == () and red.g0_kernel == ()


def test_reduce_round_trip_after_trivial_summand():
    base = gl_standard_triplet(2)
    red = reduce_triplet(gen_with_trivial_summand(base, 1), assert_completely_reducible=True)
    assert len(red.v0) == 1 and len(red.g0_kernel) == 0
    assert red.transitive_part.g0.structure == base.g0.structure
    assert red.transitive_part.b0.gram.entries == base.b0.gram.entries
    assert all(
        a.entries == b.entries for a, b in zip(red.transitive_part.rho.action, base.rho.action)
    )


def test_reduce_extracts_representation_kernel():
    base = gl_standard_triplet(2)
    t = direct_sum_with_zero_factor(base, gl_standard_triplet(2).g0, base.b0)
    red = reduce_triplet(t, assert_completely_reducible=True)
    assert len(red.g0_kernel) == 4
    assert red.transitive_part.dim_g0 == 4
    assert validate(red.transitive_part).ok


def test_reduce_zero_brackets_of_split_pieces():
    # in the original local algebra: [V0, V0*] = 0 and [kernel, V] = 0
    base = gl_standard_triplet(2)
    t = gen_with_trivial_summand(direct_sum_with_zero_factor(base, LieAlgebraData.abelian(1), QuadraticForm(Matrix.identity(1))), 1)
    L = build_local(t)
    red = reduce_triplet(t, assert_completely_reducible=True)
    for x0 in red.v0:
        for j in range(t.dim_v):
            assert vis_zero(L.bracket_xy(x0, basis_vector(t.dim_v, j)))
    for u in red.g0_kernel:
        for x in range(t.dim_v):
            assert vis_zero(t.rho.act(u, basis_vector(t.dim_v, x)))


def test_reduce_refuses_non_reducible_action():
    # one nilpotent generator: the trivial part does not complement the image
    g = LieAlgebraData.abelian(1)
    rho = Representation.from_matrices(2, (Matrix.from_rows([[0, 1], [0, 0]]),))
    t = FundamentalTriplet(g, QuadraticForm(Matrix.identity(1)), rho)
    with pytest.raises(Refusal):
        reduce_triplet(t, assert_completely_reducible=True)
    with pytest.raises(Refusal):
        reduce_triplet(gl_standard_triplet(2), assert_completely_reducible=False)


def _gl2_centralizer(sub):
    L = build_local(gl_standard_triplet(2))
    return centralizer_graded(*grow_both(L, 2), L, sub, 2)


E = [basis_vector(4, k) for k in range(4)]  # E00, E01, E10, E11 of gl(2)


@pytest.mark.parametrize(
    "call, kind, text",
    [
        (
            lambda: restrict_algebra(gl_standard_triplet(2).g0, [E[1], E[2]], "bracket left the faithful ideal"),
            Refusal,
            "bracket left the faithful ideal; inconsistent data",
        ),
        (
            lambda: deform_form(gl_standard_triplet(2), [[E[0]], [E[1], E[2], E[3]]], [F(1), F(2)]),
            Refusal,
            "a listed subspace is not an ideal of g0",
        ),
        (lambda: box_rescale_rep(gl_standard_triplet(2), [E[1]], F(2)), Refusal, "the given subspace is not central"),
        (
            lambda: _gl2_centralizer([E[1], E[2]]),
            Refusal,
            "the given subspace is not closed under the bracket",
        ),
        (
            lambda: triplet_iso_extend(*[gl_standard_triplet(2)] * 2, Matrix.zeros(4, 4), Matrix.identity(2)),
            Refusal,
            "A is not invertible",
        ),
        (
            lambda: triplet_iso_extend(*[gl_standard_triplet(2)] * 2, Matrix.identity(4), Matrix.zeros(2, 2)),
            Refusal,
            "gamma is not invertible",
        ),
        (lambda: inverse(Matrix.from_rows([[1, 2], [2, 4]])), ValueError, "matrix is singular"),
        (lambda: inverse(Matrix.zeros(2, 3)), ValueError, "only square matrices invert"),
        (
            lambda: solve(Matrix.identity(2), (1, 2, 3)),
            ValueError,
            "right-hand side length does not match row count",
        ),
    ],
    ids=[
        "restrict-not-closed",
        "deform-not-ideal",
        "box-not-central",
        "centralizer-not-closed",
        "iso-singular-a",
        "iso-singular-gamma",
        "inverse-singular",
        "inverse-not-square",
        "solve-wrong-length",
    ],
)
def test_refusal_types_and_texts(call, kind, text):
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind and str(info.value) == text
