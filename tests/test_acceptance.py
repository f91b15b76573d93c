"""Acceptance criteria, one test per criterion (or per clause).

Every check is exact (rational arithmetic end to end); the stated wall-clock
budgets are asserted.  Two clauses keep their stated inputs but assert the
value those inputs actually give, derived by hand, because the value first
stated for them is unattainable:

* criterion 3 at center scale n.  In sl(n+1) graded by an end node,
  g0 = gl(n) embeds as A -> diag(A, -tr A), so A acts on g1 = C^n as
  A + tr(A) I and the identity acts by n+1; the trace form restricts to
  tr(XY) + tr X tr Y, the "sl-shifted" form.  At scale n the form and the
  action do not match, so the tower cannot be sl(n+1) and does not
  terminate at degree 2, as once stated.  Degree 2 is a quotient of
  Lambda^2 V, which is irreducible under gl(n), and it is nonzero, so it is
  all of Lambda^2 V: dims (n, n(n-1)/2), P_2 fails, no termination.  The
  scale n+1 reproduces sl(n+1) and is covered by the companion test.
* criterion 8 at n=2.  The planar rotation algebra o(2) = span{J} is
  abelian, so it centralizes itself: the degree-0 centralizer is
  {aI + bJ}, 2-dimensional, not the scalars alone as once stated.  In
  degrees +-1 the o(2)-invariants of Sym^2 C^2 are spanned by x0^2 + x1^2.
  The n=3 clause (dims (1,1,1), scalars in degree 0) and the
  double-centralizer clauses are checked in the suite test.
"""

import random
import time
from fractions import Fraction

from glaw import (
    Matrix,
    TransitivityRequired,
    assemble,
    assemble_nontransitive,
    box_rescale_rep,
    build_local,
    candidate_pairing_rank,
    centralizer_graded,
    centralizer_in_degree_zero,
    complete_triple,
    deform_form,
    gen_glblock,
    gen_principal,
    gen_stabilizer_triplet,
    gen_symplectic,
    gen_with_trivial_summand,
    gradlog_triple,
    grow,
    pairing_table,
    pn_check,
    pn_evaluate,
    property_p_test,
    reduce_triplet,
    stabilizer_of_poly,
    theta_swap,
    transitivity_check,
    validate,
)
from glaw.exactla import rank, vadd, vis_zero, vscale, vzero
from glaw.liecore import (
    LieAlgebraData,
    QuadraticForm,
    basis_vector,
    center as lie_center,
    direct_sum_with_zero_factor,
    killing_form,
)
from glaw.localg import scale_by_components
from glaw.sl2 import PolyInvariant
from glaw.tower import NEGATIVE, POSITIVE

from helpers import (
    gl_standard_triplet,
    jacobi_holds_everywhere,
    random_rational_vector,
    root_height_counts,
    same_span,
    sum_of_powers_vector,
)

F = Fraction


def report(criterion: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}{' - ' + detail if detail else ''}")
    assert ok, f"{criterion} {detail}"


def grown(t, budget):
    local = build_local(t)
    return local, grow(local, POSITIVE, budget), grow(local, NEGATIVE, budget)


def dims_to(tower, n):
    return [tower.dim_at(k) for k in range(1, n + 1)]


def test_criterion_01_exceptional_reproduction():
    started = time.time()
    t = gen_symplectic(2, 3, 1, "g2")
    local, tp, tn = grown(t, 4)
    ok = dims_to(tp, 4) == [4, 1, 0, 0] and dims_to(tn, 4) == [4, 1, 0, 0]
    asm = assemble(tp, tn, local)
    ok = ok and asm.algebra.dim == 14
    ok = ok and jacobi_holds_everywhere(asm.algebra)
    ok = ok and lie_center(asm.algebra) == []
    ok = ok and rank(killing_form(asm.algebra)) == 14
    elapsed = time.time() - started
    report("C1", ok and elapsed < 5.0, f"dims (4,1,0,0), dim 14, {elapsed:.2f}s")


def test_criterion_02_symplectic_reproduction():
    started = time.time()
    ok = True
    for n, expected in ((2, 10), (3, 21)):
        local, tp, tn = grown(gen_symplectic(n, 2, 2, "trace"), 3)
        ok = ok and dims_to(tp, 2) == [n * (n + 1) // 2, 0]
        asm = assemble(tp, tn, local)
        ok = ok and asm.algebra.dim == expected
    elapsed = time.time() - started
    report("C2", ok and elapsed < 5.0, f"assembled dims 10 and 21, {elapsed:.2f}s")


def test_criterion_03_vector_family_as_stated_spec_value():
    # center scale n with the shifted form: the form wants the identity to act
    # by n+1, so degree 2 is all of Lambda^2 V on both sides and P_2 fails
    started = time.time()
    ok = True
    for n in (2, 3):
        local, tp, tn = grown(gen_symplectic(n, 1, n, "sl-shifted"), 2)
        expected = [n, n * (n - 1) // 2]
        ok = ok and dims_to(tp, 2) == expected and dims_to(tn, 2) == expected
        ok = ok and not tp.terminated and not tn.terminated
        ok = ok and not pn_check(local, 2).holds
    elapsed = time.time() - started
    report("C3(as stated)", ok and elapsed < 5.0, f"center scale n does not terminate, {elapsed:.2f}s")


def test_criterion_03_vector_family_corrected_center_scale():
    started = time.time()
    ok = True
    for n, expected in ((2, 8), (3, 15)):
        local, tp, tn = grown(gen_symplectic(n, 1, n + 1, "sl-shifted"), 3)
        ok = ok and dims_to(tp, 2) == [n, 0]
        asm = assemble(tp, tn, local)
        ok = ok and asm.algebra.dim == expected
    elapsed = time.time() - started
    report("C3(corrected)", ok and elapsed < 5.0, f"center scale n+1, dims 8 and 15, {elapsed:.2f}s")


def test_criterion_04_block_family_dichotomy():
    started = time.time()
    local, tp, tn = grown(gen_glblock(2, 1, 1), 3)
    asm = assemble(tp, tn, local)
    ok = dims_to(tp, 2) == [4, 0] and asm.algebra.dim == 15

    n = 2
    l1, l2 = F(1), F(2)
    t = gen_glblock(n, l1, l2)
    local2, tp2, _ = grown(t, 3)
    ok = ok and tp2.dim_at(2) > 0
    res = pn_check(local2, 2)
    ok = ok and not res.holds

    # residual matches the closed form on 50 random tuples; the dual-side
    # matrix is the transpose of the coordinate grid since the block pairing
    # is tr(X Y) while the abstract dual basis pairs coordinatewise
    rng = random.Random(424242)

    def as_vec(m):
        return tuple(m.entries[i][j] for i in range(n) for j in range(n))

    def tr(m):
        return sum((m.entries[i][i] for i in range(n)), F(0))

    for _ in range(50):
        x = Matrix.from_rows([[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)])
        xp = Matrix.from_rows([[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)])
        y = Matrix.from_rows([[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)])
        got = pn_evaluate(local2, [as_vec(y.transpose())], [as_vec(x), as_vec(xp)])
        inner = (x @ y @ xp) - (xp @ y @ x)
        extra = (x.scale(tr(y @ xp)) - xp.scale(tr(y @ x))).scale((l2 - l1) / (n * (l1 + l2)))
        expected = (inner + extra).scale(F(1) / l2 - F(1) / l1)
        ok = ok and got == as_vec(expected)
    elapsed = time.time() - started
    report("C4", ok and elapsed < 10.0, f"dichotomy and closed-form residual, {elapsed:.2f}s")


BUILTINS = [
    ("exceptional", lambda: gen_symplectic(2, 3, 1, "g2"), 4),
    ("sym-square-2", lambda: gen_symplectic(2, 2, 2, "trace"), 3),
    ("sym-square-3", lambda: gen_symplectic(3, 2, 2, "trace"), 3),
    ("vector-2-stated", lambda: gen_symplectic(2, 1, 2, "sl-shifted"), 3),
    ("vector-2-corrected", lambda: gen_symplectic(2, 1, 3, "sl-shifted"), 3),
    ("block-1-1", lambda: gen_glblock(2, 1, 1), 3),
    ("block-1-2", lambda: gen_glblock(2, 1, 2), 3),
    ("cartan-a2", lambda: gen_principal([[2, -1], [-1, 2]]), 3),
    ("cartan-c2", lambda: gen_principal([[2, -1], [-2, 2]]), 4),
    ("cartan-g2", lambda: gen_principal([[2, -1], [-3, 2]]), 6),
]


def test_criterion_05_identity_equivalence():
    ok = True
    for _, make, budget in BUILTINS:
        t = make()
        local = build_local(t)
        tp = grow(local, POSITIVE, max(budget, 3))
        for n in (2, 3):
            ok = ok and pn_check(local, n).holds == (tp.dim_at(n) == 0)
    report("C5", ok, "identity at degree n vanishes iff the grown degree does")


def test_criterion_06_extended_form_suite():
    started = time.time()
    ok = True
    for _, make, budget in BUILTINS:
        t = make()
        local = build_local(t)
        if not transitivity_check(local).transitive:
            continue
        tp = grow(local, POSITIVE, min(budget, 4))
        tn = grow(local, NEGATIVE, min(budget, 4))
        top = min(tp.top_degree, tn.top_degree)
        for n, mat in enumerate(pairing_table(tp, tn, top), start=1):
            ok = ok and mat.rows == mat.cols == tp.dim_at(n)
            ok = ok and rank(mat) == mat.rows
        for n in range(1, len(tp.phis) + 1):
            if n + 1 <= 4:
                ok = ok and candidate_pairing_rank(tp, tn, n) == tp.dim_at(n + 1)
    elapsed = time.time() - started
    report("C6", ok, f"square invertible pairings; radical ranks match, {elapsed:.2f}s")


def test_criterion_07_sl2_suite():
    started = time.time()
    ok = True
    for n, p in ((2, 2), (2, 3), (3, 2)):
        form = "g2" if (n, p) == (2, 3) else "trace"
        lam = 1 if (n, p) == (2, 3) else 2
        t = gen_symplectic(n, p, lam, form)
        x = sum_of_powers_vector(n, p)
        ok = ok and property_p_test(t, x)
        cert = complete_triple(t, x)
        ok = ok and cert.ok
    rng = random.Random(777)
    t1 = gen_symplectic(2, 1, 3, "sl-shifted")
    count = 0
    while count < 20:
        x = random_rational_vector(rng, t1.dim_v)
        if vis_zero(x):
            continue
        count += 1
        ok = ok and not property_p_test(t1, x)
    quad = PolyInvariant.from_string("x0^2+x1^2+x2^2", 3)
    tq = gen_stabilizer_triplet(quad, 2)
    lq = build_local(tq)
    found = 0
    while found < 10:
        pt = tuple(F(rng.randint(-5, 5)) for _ in range(3))
        if quad.eval(pt) == 0:
            continue
        found += 1
        c1 = complete_triple(tq, pt)
        c2 = gradlog_triple(tq, quad, pt)
        diff = tuple(a - b for a, b in zip(c1.y, c2.y))
        ok = ok and vis_zero(lq.bracket_yx(diff, pt)) and c1.ok and c2.ok
    elapsed = time.time() - started
    report("C7", ok, f"criterion, completion, gradlog agreement, {elapsed:.2f}s")


def _orthogonal_stabilizer(n):
    quad = PolyInvariant.from_string("+".join(f"x{i}^2" for i in range(n)), n)
    return quad, stabilizer_of_poly(n, quad)


def test_criterion_08_dual_pair_n2_first_clause_as_stated():
    # n=2: o(2) is abelian, so degree 0 is the scalars plus o(2) itself; in
    # degrees +-1 the invariant is x0^2 + x1^2 (monomials x0^2, x0 x1, x1^2)
    started = time.time()
    n = 2
    local, tp, tn = grown(gen_symplectic(n, 2, 2, "trace"), 2)
    _, sub = _orthogonal_stabilizer(n)
    graded = centralizer_graded(tp, tn, local, sub, 1)
    dims = {d: len(v) for d, v in graded.items()}
    ident = tuple(F(1) if a == b else F(0) for a in range(n) for b in range(n))
    circle = (F(1), F(0), F(1))
    ok = dims == {-1: 1, 0: 2, 1: 1} and same_span(graded[0], [ident] + sub, n * n)
    ok = ok and same_span(graded[1], [circle], 3) and same_span(graded[-1], [circle], 3)
    elapsed = time.time() - started
    report("C8(n=2 as stated)", ok and elapsed < 10.0, f"dims {dims}, {elapsed:.2f}s")


def test_criterion_08_dual_pair_suite():
    started = time.time()
    ok = True
    # first clause holds at n=3 (the stabilizer acts irreducibly there)
    n = 3
    local, tp, tn = grown(gen_symplectic(n, 2, 2, "trace"), 2)
    quad, sub = _orthogonal_stabilizer(n)
    graded = centralizer_graded(tp, tn, local, sub, 1)
    ident = tuple(F(1) if a == b else F(0) for a in range(n) for b in range(n))
    ok = ok and {d: len(v) for d, v in graded.items()} == {-1: 1, 0: 1, 1: 1}
    ok = ok and same_span(graded[0], [ident], n * n)
    # the double centralizer recovers the stabilizer for both sizes
    for n in (2, 3):
        local, tp, tn = grown(gen_symplectic(n, 2, 2, "trace"), 2)
        quad, sub = _orthogonal_stabilizer(n)
        graded = centralizer_graded(tp, tn, local, sub, 1)
        dbl = centralizer_in_degree_zero(tp, tn, local, graded)
        ok = ok and len(dbl) == n * (n - 1) // 2
        ok = ok and same_span(dbl, sub, n * n)
        ok = ok and same_span(dbl, stabilizer_of_poly(n, quad), n * n)
    elapsed = time.time() - started
    report("C8", ok and elapsed < 10.0, f"dual pair at n=3; double centralizer at n=2,3, {elapsed:.2f}s")


def test_criterion_09_principal_grading_oracle():
    ok = True
    for cartan, budget in (
        ([[2, -1], [-1, 2]], 3),
        ([[2, -1], [-2, 2]], 4),
        ([[2, -1], [-3, 2]], 6),
    ):
        _, tp, tn = grown(gen_principal(cartan), budget)
        oracle = root_height_counts(cartan)
        ok = ok and tp.dims() == oracle + [0]
        ok = ok and tn.dims() == oracle + [0]
    report("C9", ok, "heights (2,1), (2,1,1), (2,1,1,1,1) from independent enumeration")


def test_criterion_10_non_transitive_suite():
    started = time.time()
    base = gl_standard_triplet(2)
    t = gen_with_trivial_summand(base, 1)
    local = build_local(t)
    refused = False
    try:
        grow(local, POSITIVE, 2)
    except TransitivityRequired:
        refused = True
    red = reduce_triplet(t, assert_completely_reducible=True)
    round_trips = (
        red.transitive_part.g0.structure == base.g0.structure
        and red.transitive_part.b0.gram.entries == base.b0.gram.entries
        and all(a.entries == b.entries for a, b in zip(red.transitive_part.rho.action, base.rho.action))
        and len(red.v0) == 1
    )
    # assembled center: the finite-core variant with a kernel block
    core = gen_symplectic(2, 1, 3, "sl-shifted")
    with_kernel = direct_sum_with_zero_factor(
        core, LieAlgebraData.abelian(1), QuadraticForm(Matrix.identity(1))
    )
    composite = gen_with_trivial_summand(with_kernel, 1)
    asm = assemble_nontransitive(composite, 4)
    center_matches = len(lie_center(asm.algebra)) == 2 * 1 + 1
    elapsed = time.time() - started
    report(
        "C10",
        refused and round_trips and center_matches and elapsed < 10.0,
        f"refusal, round trip, center 2k+dim Z(kernel), {elapsed:.2f}s",
    )


def test_criterion_11_property_suites():
    started = time.time()
    ok = True

    # validation invariants on every generator family
    for _, make, _ in BUILTINS:
        ok = ok and validate(make()).ok

    # form-deformation identity on the block family, exhaustive on bases
    t = gen_glblock(2, 1, 1)
    dim = t.dim_g0
    ideals = [
        [basis_vector(dim, 0)],
        [basis_vector(dim, k) for k in range(1, 4)],
        [basis_vector(dim, k) for k in range(4, 7)],
    ]
    lams = [F(5, 2), F(2), F(3)]
    t2 = deform_form(t, ideals, lams)
    l1, l2 = build_local(t), build_local(t2)
    for i in range(t.dim_v):
        for j in range(t.dim_v):
            ok = ok and scale_by_components(t, ideals, lams, l2.xy_table[i][j]) == l1.xy_table[i][j]

    # center-rescaling identity on the standard family, exhaustive on bases
    tg = gl_standard_triplet(2)
    ident = tuple(F(1) if a == b else F(0) for a in range(2) for b in range(2))
    gamma = F(3)
    tg2 = box_rescale_rep(tg, [ident], gamma)
    lg1, lg2 = build_local(tg), build_local(tg2)
    for i in range(tg.dim_v):
        for j in range(tg.dim_v):
            old = lg1.xy_table[i][j]
            trace_part = (old[0] + old[3]) / 2
            scaled = list(old)
            scaled[0] += (gamma - 1) * trace_part
            scaled[3] += (gamma - 1) * trace_part
            ok = ok and lg2.xy_table[i][j] == tuple(scaled)

    # swap mirroring of tower dims
    t = gen_symplectic(2, 3, 1, "g2")
    local = build_local(t)
    swapped = build_local(theta_swap(t))
    ok = ok and grow(local, POSITIVE, 4).dims() == grow(swapped, NEGATIVE, 4).dims()

    # growth-map antisymmetry and equivariance at the first step
    t = gen_glblock(2, 1, 2)
    local = build_local(t)
    tp = grow(local, POSITIVE, 2)
    dv = t.dim_v
    phi = tp.phis[0]
    for i in range(dv):
        for l in range(dv):
            ok = ok and vis_zero(vadd(phi.col(i * dv + l), phi.col(l * dv + i)))
    dual = local.dual_action
    for a in range(t.dim_g0):
        rho_a = t.rho.action[a]
        for i in range(dv):
            for l in range(dv):
                lifted = vzero(dv * dv)
                for i2 in range(dv):
                    if rho_a.entries[i2][i]:
                        lifted = vadd(lifted, vscale(rho_a.entries[i2][i], phi.col(i2 * dv + l)))
                for l2 in range(dv):
                    if rho_a.entries[l2][l]:
                        lifted = vadd(lifted, vscale(rho_a.entries[l2][l], phi.col(i * dv + l2)))
                base_col = phi.col(i * dv + l)
                for j in range(dv):
                    got = lifted[j * dv : (j + 1) * dv]
                    acted = t.rho.act(basis_vector(t.dim_g0, a), base_col[j * dv : (j + 1) * dv])
                    corr = vzero(dv)
                    for j2 in range(dv):
                        c = dual.action[a].entries[j2][j]
                        if c:
                            corr = vadd(corr, vscale(c, base_col[j2 * dv : (j2 + 1) * dv]))
                    ok = ok and tuple(got) == tuple(x - y for x, y in zip(acted, corr))

    elapsed = time.time() - started
    report("C11", ok and elapsed < 30.0, f"all property suites exhaustive on bases, {elapsed:.2f}s")
