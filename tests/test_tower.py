import io
import itertools
import json
import pickle
import random
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from glaw import (
    FundamentalTriplet,
    LieAlgebraData,
    Matrix,
    QuadraticForm,
    Refusal,
    Representation,
    TransitivityRequired,
    assemble,
    assemble_nontransitive,
    build_local,
    centralizer_graded,
    centralizer_in_degree_zero,
    finiteness_report,
    gen_glblock,
    gen_principal,
    gen_symplectic,
    gen_with_trivial_summand,
    grow,
    pairing,
    pairing_table,
    pn_check,
    pn_evaluate,
    pn_expand,
    stabilizer_of_poly,
    theta_swap,
    validate,
)
from glaw import cli
from glaw.exactla import SparseCols, combine, rank, vadd, vis_zero, vneg, vscale, vzero
from glaw.liecore import basis_vector, center as lie_center, killing_form
import glaw.localg
import glaw.tower
from glaw.localg import LocalAlgebra, reduce_triplet
from glaw.sl2 import PolyInvariant
from glaw.tower import NEGATIVE, POSITIVE, Tower, _WordLowering, grow_both, term_to_str

from helpers import (
    E6_CARTAN,
    GradedOracle,
    ad,
    assembled_by_pairs,
    candidate_pairing_rank,
    commutator,
    eval_term,
    generator_triplets,
    gl_standard_triplet,
    jacobi_holds_everywhere,
    mat_add,
    mat_mul,
    mat_sub,
    pn_check_by_tuples,
    random_abelian_triplet,
    random_gl2_triplet,
    random_rational_vector,
    root_height_counts,
    same_span,
)

F = Fraction

A2 = [[2, -1], [-1, 2]]
C2 = [[2, -1], [-2, 2]]
G2_CARTAN = [[2, -1], [-3, 2]]
A4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
HYPERBOLIC = [[2, -3], [-3, 2]]


def grown(t, n):
    local = build_local(t)
    return local, grow(local, POSITIVE, n), grow(local, NEGATIVE, n)


def dims_to(tower, n):
    return [tower.dim_at(k) for k in range(1, n + 1)]


# ---------------------------------------------------------------------------
# growth dimensions


def test_exceptional_family_dims():
    _, tp, tn = grown(gen_symplectic(2, 3, 1, "g2"), 4)
    assert dims_to(tp, 4) == [4, 1, 0, 0]
    assert dims_to(tn, 4) == [4, 1, 0, 0]


@pytest.mark.parametrize("n", [2, 3])
def test_symmetric_square_family_dims(n):
    _, tp, tn = grown(gen_symplectic(n, 2, 2, "trace"), 3)
    assert dims_to(tp, 3) == [n * (n + 1) // 2, 0, 0]
    assert dims_to(tn, 3) == [n * (n + 1) // 2, 0, 0]


@pytest.mark.parametrize("n", [2, 3])
def test_vector_family_dims_with_corrected_center_scale(n):
    # the shifted form pairs with center scale n+1 (see the degree element
    # norm check in test_generators)
    _, tp, tn = grown(gen_symplectic(n, 1, n + 1, "sl-shifted"), 3)
    assert dims_to(tp, 3) == [n, 0, 0]
    assert dims_to(tn, 3) == [n, 0, 0]


def test_block_family_dims_dichotomy():
    _, tp, _ = grown(gen_glblock(2, 1, 1), 3)
    assert dims_to(tp, 3) == [4, 0, 0]
    _, tp, tn = grown(gen_glblock(2, 1, 2), 3)
    assert tp.dims()[1] > 0 and not tp.terminated
    assert tp.dims() == tn.dims()


@pytest.mark.parametrize(
    "cartan,budget",
    [(A2, 3), (C2, 4), (G2_CARTAN, 6)],
)
def test_principal_grading_matches_root_height_oracle(cartan, budget):
    _, tp, tn = grown(gen_principal(cartan), budget)
    oracle = root_height_counts(cartan) + [0]
    assert tp.dims() == oracle
    assert tn.dims() == oracle


@pytest.mark.parametrize(
    "cartan,dims",
    [
        (HYPERBOLIC, [2, 1, 2, 3, 4, 5, 10, 14, 24, 38, 66, 105]),
        ([[2, -1, 0], [-1, 2, -2], [0, -2, 2]], [3, 2, 3, 3, 5, 5, 9, 11]),
    ],
)
def test_indefinite_principal_towers_keep_their_pinned_dims(cartan, dims):
    # the sums of the Kac-Moody root multiplicities by height (Peterson's recursion), both sides
    _, tp, tn = grown(gen_principal(cartan), len(dims))
    assert tp.dims() == tn.dims() == dims
    assert not (tp.terminated or tn.terminated)


def test_grow_requires_transitive_local_part():
    local = build_local(gen_with_trivial_summand(gl_standard_triplet(2), 1))
    with pytest.raises(TransitivityRequired):
        grow(local, POSITIVE, 2)


def test_positive_and_negative_dims_agree_for_transitive_instances():
    for t in (
        gen_symplectic(2, 3, 1, "g2"),
        gen_symplectic(2, 2, 2, "trace"),
        gen_glblock(2, 1, 2),
        gen_principal(C2),
    ):
        _, tp, tn = grown(t, 3)
        assert tp.dims() == tn.dims()


def test_negative_center_scales_mirror_the_positive_ones():
    # flipping the sign of the center scale swaps the roles of the two sides
    # and leaves the dimension tables unchanged
    _, tp, tn = grown(gen_symplectic(2, 2, -2, "trace"), 3)
    assert dims_to(tp, 2) == [3, 0] and dims_to(tn, 2) == [3, 0]
    _, tp, _ = grown(gen_symplectic(2, 3, -1, "g2"), 4)
    assert dims_to(tp, 3) == [4, 1, 0]


def test_theta_swap_mirrors_towers():
    t = gen_symplectic(2, 3, 1, "g2")
    local = build_local(t)
    swapped = build_local(theta_swap(t))
    assert grow(local, POSITIVE, 4).dims() == grow(swapped, NEGATIVE, 4).dims()
    assert grow(local, NEGATIVE, 4).dims() == grow(swapped, POSITIVE, 4).dims()


# ---------------------------------------------------------------------------
# growth-map structure: antisymmetry and equivariance at the first step


def phi_column(tower, i, l):
    dim1 = tower.dim_at(1)
    return tower.phis[0].col(i * dim1 + l)


def test_growth_map_antisymmetric_at_degree_two():
    for t in (gen_glblock(2, 1, 2), gen_symplectic(2, 3, 1, "g2")):
        _, tp, _ = grown(t, 2)
        dv = tp.local.dim_v
        for i in range(dv):
            for l in range(dv):
                left = phi_column(tp, i, l)
                right = phi_column(tp, l, i)
                assert vis_zero(vadd(left, right))


def test_growth_map_equivariance_at_degree_two():
    # Phi(u0.w)(y) = act(u0)(Phi(w)(y)) - Phi(w)(rho*(u0) y) on all bases
    t = gen_symplectic(2, 2, 2, "trace")
    local, tp, _ = grown(t, 2)
    dv, n0 = t.dim_v, t.dim_g0
    dual = local.dual_action
    for a in range(n0):
        rho_a = t.rho.action[a]
        for i in range(dv):
            for l in range(dv):
                lifted = vzero(dv * dv)
                for i2 in range(dv):
                    if rho_a.entries[i2][i]:
                        lifted = vadd(lifted, vscale(rho_a.entries[i2][i], phi_column(tp, i2, l)))
                for l2 in range(dv):
                    if rho_a.entries[l2][l]:
                        lifted = vadd(lifted, vscale(rho_a.entries[l2][l], phi_column(tp, i, l2)))
                base = phi_column(tp, i, l)
                for j in range(dv):
                    got = lifted[j * dv : (j + 1) * dv]
                    acted = t.rho.act(basis_vector(n0, a), base[j * dv : (j + 1) * dv])
                    corr = vzero(dv)
                    for j2 in range(dv):
                        c = dual.action[a].entries[j2][j]
                        if c:
                            corr = vadd(corr, vscale(c, base[j2 * dv : (j2 + 1) * dv]))
                    assert tuple(got) == tuple(x - y for x, y in zip(acted, corr))


SUM = ((0, 1), (1, 1))  # combine's coefficients for the sum of two vectors


def bracket_growth_map(gr, n):
    """The columns of Phi into degree n + 1 by the definition, one bracket at a time through GradedOracle."""
    unit = glaw.tower._unit
    dv, dim = gr.dims[1], gr.dims[n]
    yx, lower = gr.comps[1].lower, gr.comps[n].lower
    cols = []
    for i in range(dv):
        for l in range(dim):
            col = []
            for j in range(dv):
                # [[y_j, x_i], u_l] + [x_i, [y_j, u_l]]
                block = gr.act0(n, yx[j].support[i], unit(l)), gr.gen_bracket(1, unit(i), n - 1, lower[j].support[l])
                col.extend((j * dim + k, x) for k, x in combine(((1, SUM, block),)))
            cols.append(col)
    return cols


def bracket_lifted_action(gr, d):
    """The columns of every act0 on degree d by the definition [a, [x_i, u_l]] = [[a, x_i], u_l] + [x_i, [a, u_l]]."""
    unit = glaw.tower._unit
    rho, prev = gr.comps[1].act0, gr.comps[d - 1].act0
    cols = []
    for a in range(gr.dims[0]):
        for i, l in gr.comps[d].provenance:
            raised = gr.gen_bracket(1, rho[a].support[i], d - 1, unit(l))
            cols.append(combine(((1, SUM, (raised, gr.gen_bracket(1, unit(i), d - 1, prev[a].support[l]))),)))
    return cols


def typed(cols):
    return [[(k, type(x), x) for k, x in col] for col in cols]


def assert_the_int_kernel_matches_the_bracket_definition(local, tower):
    """Every phi and every lifted act0 of the tower: values and their int/Fraction types, column by column."""
    growth = local if tower.side == POSITIVE else local.swapped
    gr = GradedOracle(growth.triplet.g0, tower.components)
    assert len(tower.phis) == len(tower.components) - 1
    for n, phi in enumerate(tower.phis, 1):
        assert typed(phi.support) == typed(bracket_growth_map(gr, n))
    for d, comp in enumerate(tower.components[1:], 2):
        assert typed(col for m in comp.act0 for col in m.support) == typed(bracket_lifted_action(gr, d))


@pytest.mark.parametrize(
    "make,budget",
    [
        (lambda: gen_symplectic(3, 3, 1, "trace"), 3),
        (lambda: gen_principal(HYPERBOLIC), 8),
        (lambda: gen_glblock(2, 1, 2), 4),
        (lambda: gen_symplectic(2, 3, 1, "g2"), 4),
        # rho has halves and degree 2's action none, so the lift into degree 3 scales its two terms apart
        (lambda: gen_symplectic(2, 2, 1, "trace"), 4),
    ],
)
def test_the_int_kernel_matches_the_bracket_definition_of_every_growth_map_and_lifted_action(make, budget):
    local = build_local(make())
    for tower in grow_both(local, budget):
        assert_the_int_kernel_matches_the_bracket_definition(local, tower)


@settings(max_examples=15, deadline=None)
@given(generator_triplets(), st.integers(2, 4))
def test_the_int_kernel_matches_the_bracket_definition_across_the_generator_families(t, budget):
    # both sides, the budget lowered until no growth map reads a degree above 40 dimensions
    local = build_local(reduce_triplet(t).transitive_part)
    for side in (POSITIVE, NEGATIVE):
        tower = grow(local, side, budget)
        while len(tower.components) > 1 and tower.components[-2].dim > 40:
            tower = grow(local, side, len(tower.components) - 1)
        assert_the_int_kernel_matches_the_bracket_definition(local, tower)


def test_component_action_is_a_representation_and_lower_is_equivariant():
    # per grown degree: act0 is a g0-representation and the lowering maps satisfy
    # act0(u) lower(y) - lower(y) act0(u) = lower(rho*(u) y); below degree 1
    # the action is ad on g0
    cases = [
        (gen_symplectic(2, 3, 1, "g2"), 3),
        (gen_glblock(2, 1, 2), 3),
        (gen_symplectic(2, 2, 2, "trace"), 2),
        (gen_principal(A2), 3),
        (gen_principal(C2), 4),
        # hyperbolic and budget-capped: the top degree's act0 is built only on the read below
        (gen_principal(HYPERBOLIC), 6),
    ]
    for t, budget in cases:
        local, tp, _ = grown(t, budget)
        assert tp.top_degree == budget or tp.terminated
        n0, dv = t.dim_g0, t.dim_v
        dual = local.dual_action
        ads = [ad(t.g0, a) for a in range(n0)]
        for deg in range(1, tp.top_degree + 1):
            comp = tp.component(deg)
            act = [m.to_matrix() for m in comp.act0]
            lower = [m.to_matrix() for m in comp.lower]
            prev = ads if deg == 1 else [m.to_matrix() for m in tp.component(deg - 1).act0]
            for a in range(n0):
                for b in range(n0):
                    terms = [act[k].scale(c) for k, c in t.g0.structure_pairs[a][b]]
                    lhs = mat_add(Matrix.zeros(comp.dim, comp.dim), *terms)
                    rhs = commutator(act[a], act[b])
                    assert lhs.entries == rhs.entries
            for a in range(n0):
                for j in range(dv):
                    lhs = mat_sub(mat_mul(prev[a], lower[j]), mat_mul(lower[j], act[a]))
                    terms = [lower[j2].scale(c) for j2, c in dual.action_cols[a].support[j]]
                    rhs = mat_add(Matrix.zeros(lower[j].rows, comp.dim), *terms)
                    assert lhs.entries == rhs.entries


def count_lifts(monkeypatch) -> list[int]:
    """Record the degree of every later _lifted_action call."""
    calls = []
    lift = glaw.tower._lifted_action
    monkeypatch.setattr(glaw.tower, "_lifted_action", lambda gr, d: calls.append(d) or lift(gr, d))
    return calls


@pytest.mark.parametrize("budget", [2, 3, 5])
def test_the_top_degree_action_is_lifted_only_when_read(monkeypatch, budget):
    local = build_local(gen_principal(HYPERBOLIC))
    calls = count_lifts(monkeypatch)
    tp = grow(local, POSITIVE, budget)
    assert not tp.terminated and len(tp.components) == budget
    # each growth map reads the action of the degree below it
    assert calls == list(range(2, budget))
    top = tp.component(budget).act0
    assert calls == list(range(2, budget + 1))
    assert tp.component(budget).act0 is top


def test_grow_wide_command_lifts_one_action(monkeypatch):
    # gl(3) on cubics to degree 3: degree 2's action feeds the degree-3 growth map, degree 3's is never read
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["gen", "sp", "--n", "3", "--p", "3", "--lambda", "1"]) == 0
    calls = count_lifts(monkeypatch)
    report = io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(out.getvalue())), redirect_stdout(report):
        assert cli.main(["grow", "-", "--max-degree", "3", "--side", "pos"]) == 0
    assert json.loads(report.getvalue())["dims"] == {"pos": [10, 45, 330]}
    assert calls == [2]


@settings(max_examples=25, deadline=None)
@given(generator_triplets(), st.integers(1, 3))
def test_a_lazily_read_action_equals_the_one_read_by_growth(t, budget):
    # in the tower grown one degree further, the growth map has read every action up to the budget
    local = build_local(reduce_triplet(t).transitive_part)
    lazy, eager = grow(local, POSITIVE, budget), grow(local, POSITIVE, budget + 1)
    for n, comp in enumerate(lazy.components, 1):
        assert comp.act0 == eager.component(n).act0


@pytest.mark.parametrize(
    "make", [lambda: gl_standard_triplet(2), lambda: gen_principal(HYPERBOLIC)], ids=["gl2", "hyp"]
)
def test_a_grown_tower_pickles_before_and_after_its_actions_are_read(make):
    # a lift that is not a lambda lets a worker process receive a tower, read or not
    local = build_local(make())
    for tower in grow_both(local, 4):
        unread = pickle.loads(pickle.dumps(tower))
        acts = [comp.act0 for comp in tower.components]
        read = pickle.loads(pickle.dumps(tower))
        for back in (unread, read):
            assert type(back) is Tower and back == tower and back.dims() == tower.dims()
            assert [comp.act0 for comp in back.components] == acts


def stored_values(tower):
    """Every value in a tower's stored maps: lower, act0, tensor_coords and phis."""
    for comp in tower.components:
        maps = (*comp.lower, *comp.act0, *([comp.tensor_coords] if comp.tensor_coords else []))
        yield from (x for m in maps for col in m.support for _, x in col)
    yield from (x for m in tower.phis for col in m.support for _, x in col)


def test_principal_e6_maps_and_assembled_constants_hold_only_ints():
    # the assemble-deep job: every multiply-add of growth and assembly runs on ints, and the
    # assembled algebra stores them as they are
    local = build_local(gen_principal(E6_CARTAN))
    tp, tn = grow_both(local, 12)
    assert {type(x) for t in (tp, tn) for x in stored_values(t)} == {int}
    pairs = assemble(tp, tn, local).algebra.structure_pairs
    assert {type(x) for row in pairs for p in row for _, x in p} == {int}


def test_principal_e6_assembly_computes_each_unordered_pair_once(monkeypatch):
    # a count guard, no timing: no (da, sa, db) row is computed twice, and filling both orders of every
    # basis pair from its own row would compute 1,482 rows
    calls = []
    build = glaw.tower._Graded._row
    monkeypatch.setattr(glaw.tower._Graded, "_row", lambda gr, *key: calls.append(key) or build(gr, *key))
    local = build_local(gen_principal(E6_CARTAN))
    assemble(*grow_both(local, 12), local)
    assert len(set(calls)) == len(calls) < 1482


def assert_assembly_matches_the_per_pair_recursion(local, tp, tn):
    """The table assemble hands to LieAlgebraData, value for value and int/Fraction type for type."""
    grids = []
    build = glaw.tower.LieAlgebraData
    with mock.patch.object(glaw.tower, "LieAlgebraData", lambda dim, grid: grids.append(grid) or build(dim, grid)):
        asm = assemble(tp, tn, local)
    assert list(map(typed, grids[0])) == list(map(typed, assembled_by_pairs(tp, tn, local)))
    assert asm.algebra.structure_pairs == grids[0]


@pytest.mark.parametrize(
    "make,budget",
    [
        (lambda: gen_principal(E6_CARTAN), 12),
        (lambda: gen_principal(G2_CARTAN), 6),
        # the symmetrizer 1/2, 3/2 puts Fractions into the stored maps
        (lambda: gen_principal(G2_CARTAN, [F(1, 2), F(3, 2)]), 6),
        (lambda: gen_symplectic(2, 3, 1, "g2"), 4),
        (lambda: gen_glblock(2, 1, 1), 3),
        # Fraction terms that sum to integral brackets, which a row must hold as ints
        (lambda: gen_principal(C2), 6),
    ],
)
def test_assembly_by_rows_matches_the_per_pair_recursion(make, budget):
    local = build_local(make())
    tp, tn = grow_both(local, budget)
    assert tp.terminated and tn.terminated
    assert_assembly_matches_the_per_pair_recursion(local, tp, tn)


@settings(max_examples=20, deadline=None)
@given(generator_triplets(min_n=2))
def test_assembly_by_rows_matches_the_per_pair_recursion_across_the_generator_families(t):
    local = build_local(reduce_triplet(t).transitive_part)
    for budget in range(2, 7):
        tp = grow(local, POSITIVE, budget)
        if tp.terminated or max(tp.dims()) > 40:
            break
    assume(tp.terminated)
    tp, tn = grow_both(local, budget)
    assume(tn.terminated and max(tn.dims()) <= 40)
    assert_assembly_matches_the_per_pair_recursion(local, tp, tn)


@pytest.mark.parametrize("make,budget", [(lambda: gen_principal(G2_CARTAN), 6), (lambda: gen_symplectic(2, 3, 1, "g2"), 4)])
def test_tower_pairs_from_the_wrong_sides_or_another_local_algebra_are_refused(make, budget):
    # unchecked, two positive towers of principal G2 assemble into a table failing Jacobi at (0, 1, 13)
    local = build_local(make())
    tp, tn = grow_both(local, budget)
    other = build_local(gen_principal(A2))
    sub = [basis_vector(local.dim_g0, 0)]
    for towers in ((tp, tp), (tn, tn), (tn, tp)):
        for call in (
            lambda: assemble(*towers, local),
            lambda: pairing(*towers, 1),
            lambda: pairing_table(*towers, 1),
            lambda: centralizer_graded(*towers, local, sub, budget),
            lambda: centralizer_in_degree_zero(*towers, local, {}),
        ):
            with pytest.raises(Refusal, match="expects a positive and a negative tower, in that order"):
                call()
    for call in (
        lambda: assemble(tp, tn, other),
        lambda: pairing(tp, grow(other, NEGATIVE, 2), 1),
        lambda: centralizer_graded(tp, tn, other, [basis_vector(other.dim_g0, 0)], budget),
        lambda: centralizer_in_degree_zero(tp, tn, other, {}),
    ):
        with pytest.raises(Refusal, match="expects towers grown from the local algebra it is given"):
            call()


@settings(max_examples=25, deadline=None)
@given(generator_triplets())
def test_both_orders_of_a_basis_pair_bracket_to_negatives(t):
    # assembly fills [e_j, e_i] as -[e_i, e_j]; here each order runs the per-pair recursion with its own memo
    local = build_local(reduce_triplet(t).transitive_part)
    for budget in range(2, 7):
        tp = grow(local, POSITIVE, budget)
        if tp.terminated or max(tp.dims()) > 40:
            break
    assume(tp.terminated)
    tp, tn = grow_both(local, budget)
    assume(max(tn.dims()) <= 40)
    forward, backward = (GradedOracle(local.triplet.g0, tp.components, tn.components) for _ in range(2))
    basis = [(d, s) for d, dim in sorted(forward.dims.items()) for s in range(dim)]
    for i, (da, sa) in enumerate(basis):
        for db, sb in basis[i:]:
            assert backward.bracket_basis(db, sb, da, sa) == tuple((k, -x) for k, x in forward.bracket_basis(da, sa, db, sb))


def test_gl3_cubic_maps_keep_a_fraction_only_where_it_is_not_integral():
    # the grow-wide job, both sides: thirds appear, every integral value is an int
    local = build_local(gen_symplectic(3, 3, 1, "trace"))
    values = [x for t in grow_both(local, 3) for x in stored_values(t)]
    assert {type(x) for x in values} == {int, F}
    assert all((type(x) is F) == (x.denominator != 1) for x in values)


# ---------------------------------------------------------------------------
# degree pairings of the extended form


def test_pairing_degree_one_is_dual_evaluation():
    _, tp, tn = grown(gen_symplectic(2, 2, 2, "trace"), 2)
    assert pairing(tp, tn, 1).entries == Matrix.identity(3).entries
    assert pairing(tp, tn, 0).entries == tp.local.triplet.b0.gram.entries


def test_pairings_square_and_invertible_when_transitive():
    cases = [
        (gen_symplectic(2, 3, 1, "g2"), 4),
        (gen_symplectic(2, 2, 2, "trace"), 2),
        (gen_symplectic(3, 2, 2, "trace"), 2),
        (gen_glblock(2, 1, 1), 2),
        (gen_glblock(2, 1, 2), 3),
        (gen_principal(C2), 3),
        (gen_principal(G2_CARTAN), 5),
    ]
    for t, budget in cases:
        _, tp, tn = grown(t, budget)
        top = min(tp.top_degree, tn.top_degree)
        for n, mat in enumerate(pairing_table(tp, tn, top), start=1):
            assert mat.rows == mat.cols == tp.dim_at(n)
            assert rank(mat) == mat.rows


def test_exceptional_degree_two_pairing_is_nonzero_scalar():
    _, tp, tn = grown(gen_symplectic(2, 3, 1, "g2"), 3)
    p2 = pairing(tp, tn, 2)
    assert p2.rows == p2.cols == 1
    assert p2.entries[0][0] != 0


def test_candidate_pairing_rank_cross_validates_growth():
    cases = [
        (gen_symplectic(2, 3, 1, "g2"), 3),
        (gen_symplectic(2, 2, 2, "trace"), 2),
        (gen_glblock(2, 1, 1), 2),
        (gen_glblock(2, 1, 2), 3),
        (gen_principal(C2), 3),
    ]
    for t, budget in cases:
        _, tp, tn = grown(t, budget)
        for n in range(1, len(tp.phis) + 1):
            assert candidate_pairing_rank(tp, tn, n) == tp.dim_at(n + 1)


# ---------------------------------------------------------------------------
# universal vanishing identities


def test_expansion_golden_degree_two():
    assert str(pn_expand(2)) == "[[Y1,X1],X2] + [X1,[Y1,X2]]"


def test_expansion_golden_degree_three():
    expected = [
        "[[Y1,[[Y2,X1],X2]],X3]",
        "[[[Y2,X1],X2],[Y1,X3]]",
        "[[Y1,X2],[[Y2,X1],X3]]",
        "[X2,[Y1,[[Y2,X1],X3]]]",
        "[[Y1,X1],[[Y2,X2],X3]]",
        "[X1,[Y1,[[Y2,X2],X3]]]",
        "[[Y1,X1],[X2,[Y2,X3]]]",
        "[X1,[Y1,[X2,[Y2,X3]]]]",
    ]
    assert [term_to_str(t) for t in pn_expand(3).terms] == expected


def test_expansion_bounds():
    with pytest.raises(Refusal):
        pn_expand(1)
    with pytest.raises(Refusal):
        pn_expand(6)
    assert len(pn_expand(4).terms) == 56


def hardcoded_p3_terms(L: LocalAlgebra, y1, y2, x1, x2, x3):
    """Longhand eight-term degree-3 value: brackets written one by one."""

    def br(y, x):  # [Y,X] in g0
        return L.bracket_yx(y, x)

    def ad0(u, x):  # [U,X] for U in g0
        return L.triplet.rho.act(u, x)

    def xu(x, u):  # [X,U] = -[U,X]
        return vneg(L.triplet.rho.act(u, x))

    w1 = ad0(br(y2, x1), x2)  # [[Y2,X1],X2]
    w2 = ad0(br(y2, x1), x3)  # [[Y2,X1],X3]
    w3 = ad0(br(y2, x2), x3)  # [[Y2,X2],X3]
    w4 = xu(x2, br(y2, x3))  # [X2,[Y2,X3]]
    terms = [
        ad0(br(y1, w1), x3),  # [[Y1,[[Y2,X1],X2]],X3]
        xu(w1, br(y1, x3)),  # [[[Y2,X1],X2],[Y1,X3]]
        ad0(br(y1, x2), w2),  # [[Y1,X2],[[Y2,X1],X3]]
        xu(x2, br(y1, w2)),  # [X2,[Y1,[[Y2,X1],X3]]]
        ad0(br(y1, x1), w3),  # [[Y1,X1],[[Y2,X2],X3]]
        xu(x1, br(y1, w3)),  # [X1,[Y1,[[Y2,X2],X3]]]
        ad0(br(y1, x1), w4),  # [[Y1,X1],[X2,[Y2,X3]]]
        xu(x1, br(y1, w4)),  # [X1,[Y1,[X2,[Y2,X3]]]]
    ]
    total = vzero(L.dim_v)
    for t in terms:
        total = vadd(total, t)
    return total


def test_degree_three_dual_path_on_random_local_algebras():
    rng = random.Random(314159)
    locals_ = [
        build_local(random_abelian_triplet(rng)),
        build_local(random_gl2_triplet(rng)),
    ]
    checked = 0
    expansion = pn_expand(3)
    while checked < 50:
        L = locals_[checked % len(locals_)]
        dv = L.dim_v
        ys = [random_rational_vector(rng, dv) for _ in range(2)]
        xs = [random_rational_vector(rng, dv) for _ in range(3)]
        fast = pn_evaluate(L, ys, xs)
        longhand = hardcoded_p3_terms(L, ys[0], ys[1], xs[0], xs[1], xs[2])
        assert fast == longhand
        via_ast = vzero(dv)
        for term in expansion.terms:
            deg, val = eval_term(L, term, xs, ys)
            assert deg == 1
            via_ast = vadd(via_ast, val)
        assert via_ast == fast
        checked += 1


def test_identity_checks_on_the_exceptional_family():
    L = build_local(gen_symplectic(2, 3, 1, "g2"))
    assert not pn_check(L, 2).holds
    assert pn_check(L, 3).holds


def test_identity_check_on_symmetric_square_family():
    assert pn_check(build_local(gen_symplectic(2, 2, 2, "trace")), 2).holds


def test_block_family_residual_closed_form():
    n = 2
    l1, l2 = F(1), F(2)
    L = build_local(gen_glblock(n, l1, l2))
    assert not pn_check(L, 2).holds
    rng = random.Random(2718)

    def as_vec(m):
        return tuple(m.entries[i][j] for i in range(n) for j in range(n))

    for _ in range(50):
        x = Matrix.from_rows([[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
        xp = Matrix.from_rows([[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
        y = Matrix.from_rows([[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
        got = pn_evaluate(L, [as_vec(y.transpose())], [as_vec(x), as_vec(xp)])

        def tr(m):
            return sum((m.entries[i][i] for i in range(n)), F(0))

        inner = mat_sub(mat_mul(x, y, xp), mat_mul(xp, y, x))
        extra = mat_sub(x.scale(tr(mat_mul(y, xp))), xp.scale(tr(mat_mul(y, x)))).scale((l2 - l1) / (n * (l1 + l2)))
        expected = mat_add(inner, extra).scale(F(1) / l2 - F(1) / l1)
        assert got == as_vec(expected)


def test_identity_equivalence_with_growth_at_low_degrees():
    cases = [
        gen_symplectic(2, 3, 1, "g2"),
        gen_symplectic(2, 2, 2, "trace"),
        gen_symplectic(3, 2, 2, "trace"),
        gen_symplectic(2, 1, 3, "sl-shifted"),
        gen_symplectic(2, 1, 2, "sl-shifted"),  # the non-terminating scale
        gen_glblock(2, 1, 1),
        gen_glblock(2, 1, 2),
        gen_principal(A2),
        gen_principal(C2),
        gen_principal(G2_CARTAN),
    ]
    for t in cases:
        local = build_local(t)
        tp = grow(local, POSITIVE, 3)
        for n in (2, 3):
            assert pn_check(local, n).holds == (tp.dim_at(n) == 0)


def test_identity_equivalence_at_degree_four_and_five():
    # no tabulated value exists at these degrees; assert only the equivalence
    for cartan, budget in ((A2, 5), (C2, 5), (G2_CARTAN, 6)):
        local = build_local(gen_principal(cartan))
        tp = grow(local, POSITIVE, budget)
        assert pn_check(local, 4).holds == (tp.dim_at(4) == 0)
    local = build_local(gen_principal([[2]]))
    tp = grow(local, POSITIVE, 5)
    assert pn_check(local, 5).holds == (tp.dim_at(5) == 0)
    local = build_local(gen_principal(G2_CARTAN))
    tp = grow(local, POSITIVE, 6)
    assert pn_check(local, 5).holds == (tp.dim_at(5) == 0)


def test_identity_witness_is_reported():
    L = build_local(gen_glblock(2, 1, 2))
    res = pn_check(L, 2)
    assert not res.holds and res.witness is not None
    jx, ix = res.witness
    ys = [basis_vector(L.dim_v, j) for j in jx]
    xs = [basis_vector(L.dim_v, i) for i in ix]
    assert pn_evaluate(L, ys, xs) == res.value
    assert not vis_zero(res.value)


def _oracle_value(L, n, ys, xs):
    total = vzero(L.dim_v)
    for term in pn_expand(n).terms:
        total = vadd(total, eval_term(L, term, xs, ys)[1])
    return total


ORACLE_CASES = [
    pytest.param(lambda: gen_glblock(2, 1, 2), 2, id="glblock-2-n2"),
    pytest.param(lambda: gen_glblock(2, 1, 2), 3, id="glblock-2-n3"),
    pytest.param(lambda: gen_symplectic(2, 3, 1, "g2"), 2, id="g2-cubic-n2"),
    pytest.param(lambda: gen_symplectic(2, 3, 1, "g2"), 3, id="g2-cubic-n3"),
    pytest.param(lambda: gen_symplectic(2, 2, 2, "trace"), 3, id="sym-square-2-n3"),
    pytest.param(lambda: gen_principal(A2), 3, id="principal-a2-n3"),
]


def assert_scan_matches_the_oracle(L, n):
    """The j0 slice of _WordLowering.values equals the symbolic expansion on
    every basis tuple (y_j0, y_rest..., x_i...), and pn_check reports the
    first nonzero tuple in lexicographic order, its value as Fractions."""
    dv = L.dim_v
    basis = [basis_vector(dv, i) for i in range(dv)]
    kernel = _WordLowering(L, n)
    first = None
    for jx in itertools.product(range(dv), repeat=n - 1):
        ys = [basis[j] for j in jx]
        for ix in itertools.product(range(dv), repeat=n):
            oracle = _oracle_value(L, n, ys, [basis[i] for i in ix])
            got = {i: c for (j, i), c in kernel.values(jx[1:], ix).items() if j == jx[0]}
            assert tuple(got.get(i, F(0)) for i in range(dv)) == oracle, (jx, ix)
            if first is None and not vis_zero(oracle):
                first = ((jx, ix), oracle)
    res = pn_check(L, n)
    assert res.holds == (first is None)
    if first is not None:
        assert (res.witness, res.value) == first
        assert all(type(x) is Fraction for x in res.value)


@pytest.mark.parametrize("make,n", ORACLE_CASES)
def test_word_lowering_matches_the_symbolic_expansion_on_every_basis_tuple(make, n):
    assert_scan_matches_the_oracle(build_local(make()), n)


@settings(max_examples=25, deadline=None)
@given(generator_triplets(), st.sampled_from([2, 3]))
def test_word_lowering_matches_the_symbolic_expansion_across_the_generator_families(t, n):
    # rational scales in the draws give Fraction coefficients beside the ints
    assume(t.dim_v <= 4)
    assert_scan_matches_the_oracle(build_local(t), n)


def assert_values_are_antisymmetric_in_the_last_two_letters(L, n):
    """values(rest, S ix) is the negation of values(rest, ix), S swapping the last two letters, and empty on
    equal last letters: the ground for pn_check reading only the words with ix[-2] < ix[-1]."""
    dv = L.dim_v
    kernel = _WordLowering(L, n)
    for rest in itertools.product(range(dv), repeat=n - 2):
        for ix in itertools.product(range(dv), repeat=n):
            val = kernel.values(rest, ix)
            assert kernel.values(rest, ix[:-2] + ix[:-3:-1]) == {k: -v for k, v in val.items()}, (rest, ix)
            assert ix[-2] != ix[-1] or val == {}, (rest, ix)


@settings(max_examples=25, deadline=None)
@given(generator_triplets(), st.sampled_from([2, 3]))
def test_word_values_are_antisymmetric_in_the_last_two_letters_across_the_generator_families(t, n):
    assume(t.dim_v <= 4)
    assert_values_are_antisymmetric_in_the_last_two_letters(build_local(t), n)


def test_word_values_are_antisymmetric_in_the_last_two_letters_at_n4():
    # sym-square-2 (gen sp --n 2 --p 2 --lambda 2): words of length 4 lower through the length-3 case
    assert_values_are_antisymmetric_in_the_last_two_letters(build_local(gen_symplectic(2, 2, 2)), 4)


def test_pn_check_lowers_each_dual_index_and_top_word_once(monkeypatch):
    # a count guard, no timing: sym-square-3 (gen sp --n 3 --p 2 --lambda 2) has dim V = 6, so the
    # n = 3 scan reads 6^5 (dual indices, top word) tuples over 6 * 6 * 15 (last dual index, top word) pairs:
    # a top word's value is antisymmetric in its last two letters, so only the 15 pairs a < b of them are read
    L = build_local(gen_symplectic(3, 2, 2))
    top = []
    lower = _WordLowering._lower

    def counted(self, j, word):
        if len(word) == self.n:
            top.append((j, word))
        return lower(self, j, word)

    monkeypatch.setattr(_WordLowering, "_lower", counted)
    assert pn_check(L, 3).holds
    assert len(top) == len(set(top)) == 6 * 6 * 15


def test_pn_check_accumulates_each_later_dual_index_and_top_word_once(monkeypatch):
    # a count guard, no timing: on sym-square-3 (dim V = 6) the n = 3 scan reads all 6 first dual indices of
    # each (y_j1, top word) in one accumulation, not one per basis tuple (6^5), and only the top words whose
    # last two letters increase, 6 * 6 * 15 of them: the value is antisymmetric in those letters
    L = build_local(gen_symplectic(3, 2, 2))
    top = []
    values = _WordLowering.values

    def counted(self, rest, word):
        if len(word) == self.n:
            top.append((rest, word))
        return values(self, rest, word)

    monkeypatch.setattr(_WordLowering, "values", counted)
    assert pn_check(L, 3).holds
    assert len(top) == len(set(top)) == 6 * 6 * 15


def assert_pn_check_matches_the_per_tuple_scan(L, n):
    expected, got = pn_check_by_tuples(L, n), pn_check(L, n)
    assert (got.holds, got.witness, got.value) == (expected.holds, expected.witness, expected.value)
    assert got.value is None or all(type(x) is Fraction for x in got.value)


def with_a_trivial_summand_first(t):
    """t with a one-dimensional summand on which everything acts by zero, as the first basis vector of V:
    every tuple with j0 = 0 vanishes, so the scan runs to its end."""
    dv = t.dim_v + 1
    shift = [((),) + tuple(tuple((r + 1, x) for r, x in col) for col in m.support) for m in t.rho.action_cols]
    return FundamentalTriplet(t.g0, t.b0, Representation(dv, tuple(SparseCols(dv, dv, cols) for cols in shift)))


PER_TUPLE_CASES = [
    pytest.param(lambda: gen_symplectic(3, 2, 2), 3, id="sym-square-3-n3"),
    pytest.param(lambda: gen_symplectic(2, 2, 2, "trace"), 3, id="sym-square-2-n3"),
    pytest.param(lambda: gen_symplectic(2, 3, 1, "g2"), 3, id="g2-cubic-n3"),
    pytest.param(lambda: gen_glblock(2, 1, 2), 2, id="glblock-2-n2"),
    pytest.param(lambda: gen_glblock(2, 1, 2), 3, id="glblock-2-n3"),
    pytest.param(lambda: gen_principal(G2_CARTAN), 5, id="principal-g2-n5"),
    # the identity holds, so the scan runs to its end, re-reading each full-length lowering once per prefix
    pytest.param(lambda: gen_symplectic(2, 2, 2), 4, id="sym-square-2-n4"),
    # the first nonzero step of a4 has no j0 = 0 entry, so the scan keeps going to the witness ((0, 2, 3), ...)
    pytest.param(lambda: gen_principal(A4), 4, id="a4-n4"),
    pytest.param(lambda: with_a_trivial_summand_first(gen_glblock(2, 1, 2)), 2, id="trivial-first-glblock-2-n2"),
    pytest.param(lambda: with_a_trivial_summand_first(gen_glblock(2, 1, 2)), 3, id="trivial-first-glblock-2-n3"),
]


@pytest.mark.parametrize("make,n", PER_TUPLE_CASES)
def test_pn_check_matches_the_per_tuple_scan(make, n):
    assert_pn_check_matches_the_per_tuple_scan(build_local(make()), n)


@settings(max_examples=25, deadline=None)
@given(generator_triplets(), st.sampled_from([2, 3]))
def test_pn_check_matches_the_per_tuple_scan_across_the_generator_families(t, n):
    assume(t.dim_v <= 4)
    assert_pn_check_matches_the_per_tuple_scan(build_local(t), n)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3]), family=st.sampled_from(["abelian", "gl2"]))
def test_pn_evaluate_matches_the_symbolic_expansion_on_random_vectors(seed, n, family):
    rng = random.Random(seed)
    t = random_abelian_triplet(rng) if family == "abelian" else random_gl2_triplet(rng)
    L = build_local(t)
    ys = [random_rational_vector(rng, L.dim_v) for _ in range(n - 1)]
    xs = [random_rational_vector(rng, L.dim_v) for _ in range(n)]
    value = pn_evaluate(L, ys, xs)
    assert value == _oracle_value(L, n, ys, xs)
    assert all(type(x) is Fraction for x in value)


def test_pn_evaluate_needs_one_dual_argument_fewer_than_vector_arguments():
    L = build_local(gen_glblock(2, 1, 2))
    e = basis_vector(L.dim_v, 0)
    with pytest.raises(ValueError):
        pn_evaluate(L, [e, e], [e, e])


def test_pn_evaluate_refuses_vectors_of_the_wrong_length_and_a_single_vector():
    # glblock-2 has dim V = 4: a 3-entry x had read as zero, a 5-entry x or y raised IndexError, and a lone x
    # (n = 1, which pn_check refuses) came back as itself
    L = build_local(gen_glblock(2, 1, 2))
    e, short, long = basis_vector(4, 0), basis_vector(3, 0), basis_vector(5, 0)
    for ys, xs in (([e], [e, short]), ([e], [long, e]), ([long], [e, e]), ([], [e])):
        with pytest.raises(ValueError):
            pn_evaluate(L, ys, xs)


# ---------------------------------------------------------------------------
# assembly


def degrees_compatible(asm):
    g = asm.algebra
    for i in range(g.dim):
        for j in range(g.dim):
            target = asm.degrees[i] + asm.degrees[j]
            for k, c in enumerate(g.structure[i][j]):
                if c != 0 and asm.degrees[k] != target:
                    return False
    return True


def test_assemble_exceptional_family():
    local, tp, tn = grown(gen_symplectic(2, 3, 1, "g2"), 4)
    asm = assemble(tp, tn, local)
    assert asm.algebra.dim == 14
    assert jacobi_holds_everywhere(asm.algebra)
    assert degrees_compatible(asm)
    assert rank(killing_form(asm.algebra)) == 14
    assert lie_center(asm.algebra) == []


@pytest.mark.parametrize("n,expected", [(2, 10), (3, 21)])
def test_assemble_symmetric_square_family(n, expected):
    local, tp, tn = grown(gen_symplectic(n, 2, 2, "trace"), 3)
    asm = assemble(tp, tn, local)
    assert asm.algebra.dim == expected
    assert jacobi_holds_everywhere(asm.algebra)
    assert rank(killing_form(asm.algebra)) == expected


@pytest.mark.parametrize("n,expected", [(2, 8), (3, 15)])
def test_assemble_vector_family(n, expected):
    local, tp, tn = grown(gen_symplectic(n, 1, n + 1, "sl-shifted"), 3)
    asm = assemble(tp, tn, local)
    assert asm.algebra.dim == expected
    assert jacobi_holds_everywhere(asm.algebra)


def test_assemble_block_family_and_principal():
    local, tp, tn = grown(gen_glblock(2, 1, 1), 3)
    asm = assemble(tp, tn, local)
    assert asm.algebra.dim == 15
    assert jacobi_holds_everywhere(asm.algebra)
    local, tp, tn = grown(gen_principal(G2_CARTAN), 6)
    asm = assemble(tp, tn, local)
    assert asm.algebra.dim == 14
    assert jacobi_holds_everywhere(asm.algebra)
    assert rank(killing_form(asm.algebra)) == 14


@pytest.mark.parametrize(
    "make,budget",
    [
        pytest.param(lambda: gen_principal(A2), 3, id="principal-a2"),
        pytest.param(lambda: gen_principal(G2_CARTAN), 6, id="principal-g2"),
        pytest.param(lambda: gen_symplectic(2, 3, 1, "g2"), 4, id="g2-cubic"),
        pytest.param(lambda: gen_glblock(2, 1, 1), 3, id="glblock-2"),
    ],
)
def test_assembled_pairs_are_those_of_the_dense_table(make, budget):
    # assemble builds from (k, coefficient) pairs; an algebra built from its dense table must read them back
    local, tp, tn = grown(make(), budget)
    g = assemble(tp, tn, local).algebra
    assert LieAlgebraData.from_table(g.structure).structure_pairs == g.structure_pairs


def test_assembled_principal_a2_matches_traceless_matrix_model():
    # the rank-2 principal tower with the symmetric 2x2 matrix assembles to
    # the traceless 3x3 algebra; mapping coroots to diagonal differences,
    # generators to the super/subdiagonal units, and higher degrees to the
    # commutators their provenance prescribes must match every structure
    # constant of the explicit matrix model
    t = gen_principal(A2)
    local, tp, tn = grown(t, 3)
    asm = assemble(tp, tn, local)
    assert asm.algebra.dim == 8

    def unit(i, j):
        return Matrix.from_rows([[1 if (r, c) == (i, j) else 0 for c in range(3)] for r in range(3)])

    images: dict[int, Matrix] = {}
    off0, _ = asm.blocks[0]
    images[off0] = mat_sub(unit(0, 0), unit(1, 1))
    images[off0 + 1] = mat_sub(unit(1, 1), unit(2, 2))
    off1, _ = asm.blocks[1]
    images[off1] = unit(0, 1)
    images[off1 + 1] = unit(1, 2)
    offm1, _ = asm.blocks[-1]
    images[offm1] = unit(1, 0)
    images[offm1 + 1] = unit(2, 1)
    for d, tower in ((2, tp), (-2, tn)):
        off, nd = asm.blocks[d]
        gen_off = off1 if d > 0 else offm1
        prev_off = off1 if d > 0 else offm1
        for s in range(nd):
            i, l = tower.component(2).provenance[s]
            a = images[gen_off + i]
            b = images[prev_off + l]
            images[off + s] = commutator(a, b)

    def image_of(pairs):
        return mat_add(Matrix.zeros(3, 3), *(images[k].scale(c) for k, c in pairs))

    g = asm.algebra
    for a in range(g.dim):
        for b in range(g.dim):
            lhs = image_of(g.structure_pairs[a][b])
            rhs = commutator(images[a], images[b])
            assert lhs.entries == rhs.entries


def test_assemble_requires_termination():
    local, tp, tn = grown(gen_glblock(2, 1, 2), 3)
    with pytest.raises(Refusal):
        assemble(tp, tn, local)


def test_assembled_extended_form_invariance():
    # block form: Gram on degree 0, the degree pairings elsewhere, zero across
    local, tp, tn = grown(gen_symplectic(2, 3, 1, "g2"), 4)
    asm = assemble(tp, tn, local)
    tables = pairing_table(tp, tn, tp.top_degree)
    dim = asm.algebra.dim

    def form_value(u, v):
        total = F(0)
        for d, (off, nd) in asm.blocks.items():
            if d == 0:
                for a in range(nd):
                    for b in range(nd):
                        total += u[off + a] * local.triplet.b0.gram.entries[a][b] * v[off + b]
            elif d > 0:
                offn, nn = asm.blocks[-d]
                mat = tables[d - 1]
                for a in range(nd):
                    for b in range(nn):
                        total += (u[off + a] * v[offn + b] + v[off + a] * u[offn + b]) * mat.entries[a][b]
        return total

    rng = random.Random(99)
    for _ in range(100):
        x = random_rational_vector(rng, dim, 2)
        y = random_rational_vector(rng, dim, 2)
        z = random_rational_vector(rng, dim, 2)
        assert form_value(asm.algebra.bracket(x, y), z) == form_value(x, asm.algebra.bracket(y, z))


def test_assemble_nontransitive_labels_the_glued_summand_and_blocks_only_the_core():
    # the g2 cubic plus a two-dimensional trivial summand: the core keeps its labels and blocks, the glued V0 is
    # labelled 1 and V0* -1, and blocks covers the transitive core only
    asm = assemble_nontransitive(gen_with_trivial_summand(gen_symplectic(2, 3, 1, "g2"), 2), 4)
    core = (-2,) + (-1,) * 4 + (0,) * 4 + (1,) * 4 + (2,)
    assert asm.degrees == core + (1, 1, -1, -1)
    assert asm.blocks == {-2: (0, 1), -1: (1, 4), 0: (5, 4), 1: (9, 4), 2: (13, 1)}
    assert asm.algebra.dim == 18


def test_assemble_nontransitive_center_decomposition():
    from glaw.liecore import direct_sum_with_zero_factor

    base = gen_symplectic(2, 1, 3, "sl-shifted")
    with_kernel = direct_sum_with_zero_factor(
        base, LieAlgebraData.abelian(1), QuadraticForm(Matrix.identity(1))
    )
    t = gen_with_trivial_summand(with_kernel, 1)
    asm = assemble_nontransitive(t, 4)
    assert asm.algebra.dim == 8 + 2 * 1 + 1
    assert jacobi_holds_everywhere(asm.algebra)
    # center = V0 + V0* + Z(kernel)
    assert len(lie_center(asm.algebra)) == 2 * 1 + 1


# ---------------------------------------------------------------------------
# finiteness reporting and centralizers


def test_finiteness_report_cases():
    rep = finiteness_report(build_local(gen_symplectic(2, 3, 1, "g2")), 4, irreducible_components=1)
    assert rep.terminated and rep.killing_nondegenerate and rep.assembled_center_dim == 0
    assert rep.dims_pos == (4, 1, 0)

    rep = finiteness_report(build_local(gen_glblock(2, 1, 2)), 3, irreducible_components=1)
    assert not rep.terminated
    assert "not terminated" in rep.advisory

    # two irreducible summands but a one-dimensional center: infinite
    t = gen_symplectic(2, 3, 1, "g2")
    doubled_action = tuple(
        Matrix.from_rows(
            [list(m.entries[i]) + [F(0)] * t.dim_v for i in range(t.dim_v)]
            + [[F(0)] * t.dim_v + list(m.entries[i]) for i in range(t.dim_v)]
        )
        for m in t.rho.action
    )
    from glaw import FundamentalTriplet, Representation

    t2 = FundamentalTriplet(t.g0, t.b0, Representation.from_matrices(2 * t.dim_v, doubled_action))
    rep = finiteness_report(build_local(t2), 2, irreducible_components=2)
    assert not rep.terminated
    assert "infinite" in rep.advisory


def extended_form(asm, tp, tn, local) -> QuadraticForm:
    """The extended invariant form on an assembled algebra: the triplet's Gram
    on degree 0, the degree-n pairing between degrees n and -n, zero across."""
    dim = asm.algebra.dim
    grid = [[F(0)] * dim for _ in range(dim)]
    tables = [local.triplet.b0.gram] + pairing_table(tp, tn, tp.top_degree)
    for d, (off, nd) in asm.blocks.items():
        if d >= 0:
            offn, nn = asm.blocks[-d]
            for a in range(nd):
                for b in range(nn):
                    grid[off + a][offn + b] = tables[d].entries[a][b]
                    if d:
                        grid[offn + b][off + a] = tables[d].entries[a][b]
    return QuadraticForm(Matrix.from_rows(grid))


@settings(max_examples=25, deadline=None)
@given(generator_triplets())
def test_a_terminating_tower_assembles_to_a_valid_algebra_matching_its_finiteness_report(t):
    # rational lambdas and form scales mix int and Fraction values in the maps; the assembled
    # algebra with its extended form, acting on itself by ad, must pass every check of validate
    local = build_local(reduce_triplet(t).transitive_part)
    for budget in range(2, 7):
        tp = grow(local, POSITIVE, budget)
        if tp.terminated or max(tp.dims()) > 40:
            break
    assume(tp.terminated)
    rep = finiteness_report(local, budget)
    tp, tn = grow_both(local, budget)
    asm = assemble(tp, tn, local)
    g = asm.algebra
    values = [x for row in g.structure_pairs for p in row for _, x in p]
    assert all(type(x) is (int if x.denominator == 1 else F) for x in values)
    adjoint = Representation(g.dim, tuple(SparseCols(g.dim, g.dim, row) for row in g.structure_pairs))
    assert validate(FundamentalTriplet(g, extended_form(asm, tp, tn, local), adjoint)).violations == []
    assert rep.terminated
    assert rep.killing_nondegenerate == (rank(killing_form(g)) == g.dim)
    assert rep.assembled_center_dim == len(lie_center(g))


def test_degree_budget_reports_partial_dims():
    rep = finiteness_report(build_local(gen_symplectic(3, 3, 1, "trace")), 2)
    assert rep.dims_pos == (10, 45)
    assert not rep.terminated


def orthogonal_basis_vectors(n):
    quad = PolyInvariant.from_string("+".join(f"x{i}^2" for i in range(n)), n)
    return stabilizer_of_poly(n, quad)


@pytest.mark.parametrize("n", [3])
def test_dual_pair_centralizer_dims(n):
    local, tp, tn = grown(gen_symplectic(n, 2, 2, "trace"), 2)
    sub = orthogonal_basis_vectors(n)
    graded = centralizer_graded(tp, tn, local, sub, 1)
    assert {d: len(v) for d, v in graded.items()} == {-1: 1, 0: 1, 1: 1}
    ident = tuple(F(1) if a == b else F(0) for a in range(n) for b in range(n))
    assert same_span(graded[0], [ident], n * n)
    dbl = centralizer_in_degree_zero(tp, tn, local, graded)
    assert len(dbl) == n * (n - 1) // 2
    assert same_span(dbl, sub, n * n)


def test_dual_pair_double_centralizer_low_rank_case():
    # at n=2 the first centralizer is larger (the stabilizer is abelian), but
    # the double centralizer still recovers it exactly
    n = 2
    local, tp, tn = grown(gen_symplectic(n, 2, 2, "trace"), 2)
    sub = orthogonal_basis_vectors(n)
    graded = centralizer_graded(tp, tn, local, sub, 1)
    assert {d: len(v) for d, v in graded.items()} == {-1: 1, 0: 2, 1: 1}
    dbl = centralizer_in_degree_zero(tp, tn, local, graded)
    assert len(dbl) == 1
    assert same_span(dbl, sub, n * n)


def test_centralizer_of_whole_degree_zero_is_trivial_in_degree_one():
    n = 2
    local, tp, tn = grown(gen_symplectic(n, 2, 2, "trace"), 2)
    sub = [basis_vector(n * n, a) for a in range(n * n)]
    graded = centralizer_graded(tp, tn, local, sub, 1)
    assert graded[1] == [] and graded[-1] == []
    assert len(graded[0]) == 1  # the center of gl(n)


def test_centralizer_of_the_zero_subalgebra_is_everything():
    local, tp, tn = grown(gen_symplectic(2, 3, 1, "g2"), 1)
    graded = centralizer_graded(tp, tn, local, [], 1)
    assert {d: len(v) for d, v in graded.items()} == {-1: 4, 0: 4, 1: 4}
    assert graded[1] == [basis_vector(4, k) for k in range(4)]


def test_centralizer_rejects_non_subalgebra():
    n = 2
    local, tp, tn = grown(gen_symplectic(n, 2, 2, "trace"), 2)
    bad = [basis_vector(4, 1), basis_vector(4, 2)]  # span{E_12, E_21} is not closed
    with pytest.raises(Refusal):
        centralizer_graded(tp, tn, local, bad, 1)


def test_grow_both_checks_transitivity_once(monkeypatch):
    # both sides are grown over the same local algebra, which caches the report
    calls = []
    check = glaw.localg.transitivity_check
    monkeypatch.setattr(glaw.localg, "transitivity_check", lambda L: calls.append(L) or check(L))
    local = build_local(gen_symplectic(3, 2, 2, "trace"))
    tp, tn = grow_both(local, 3)
    assert calls == [local]
    assert tp.dims() == tn.dims()
