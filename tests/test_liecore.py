import functools
import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from glaw import (
    AmbiguousGrading,
    FundamentalTriplet,
    LieAlgebraData,
    Matrix,
    QuadraticForm,
    Representation,
    StructureError,
    center,
    derived_subalgebra,
    dual_rep,
    grading_element,
    killing_rank_and_center_dim,
    rep_kernel,
    validate,
)
from glaw.exactla import SparseCols, format_scalar, rank
from glaw.generators import gen_glblock, gen_stabilizer_triplet, gen_with_trivial_summand
from glaw.liecore import basis_vector, direct_sum_with_zero_factor, killing_form, restrict_algebra
from glaw.generators import gen_principal, gen_symplectic
from glaw.cli import emit_triplet_spec, parse_triplet_spec
from glaw.localg import build_local, reduce_triplet, transitivity_check
from glaw.sl2 import PolyInvariant, complete_triple, property_p_test
from glaw.tower import (
    NEGATIVE,
    POSITIVE,
    assemble,
    assemble_nontransitive,
    centralizer_in_degree_zero,
    grow,
    grow_both,
)

from helpers import (
    E6_CARTAN,
    ad,
    dense_kernel,
    generator_triplets,
    in_dense_span,
    gl_standard_triplet,
    jacobi_holds_everywhere,
    mat_mul,
    random_rational_vector,
    sl2_algebra,
    sl2_triplet,
    small_rationals,
)

F = Fraction


def test_validate_gl2_standard_is_clean():
    assert validate(gl_standard_triplet(2)).ok


def test_validate_reports_degenerate_form():
    t = gl_standard_triplet(2)
    broken = FundamentalTriplet(t.g0, QuadraticForm(Matrix.zeros(4, 4)), t.rho)
    rep = validate(broken)
    assert not rep.ok
    assert any("degenerate" in v for v in rep.violations)


def test_validate_abelian_with_any_symmetric_invertible_form():
    g = LieAlgebraData.abelian(2)
    gram = Matrix.from_rows([[2, 1], [1, 1]])
    rho = Representation.from_matrices(1, (Matrix.from_rows([[1]]), Matrix.from_rows([[3]])))
    assert validate(FundamentalTriplet(g, QuadraticForm(gram), rho)).ok


def test_validate_catches_each_invariant():
    t = gl_standard_triplet(2)
    bad_gram = Matrix.from_rows([[0, 1, 0, 0]] + [list(r) for r in t.b0.gram.entries[1:]])
    rep = validate(FundamentalTriplet(t.g0, QuadraticForm(bad_gram), t.rho))
    assert any("symmetric" in v for v in rep.violations)

    rows = [list(r) for r in t.b0.gram.entries]
    rows[0][0] = F(7)  # breaks invariance but stays symmetric and nondegenerate
    rep = validate(FundamentalTriplet(t.g0, QuadraticForm(Matrix.from_rows(rows)), t.rho))
    assert any("invariance" in v for v in rep.violations)

    mats = list(t.rho.action)
    mats[1] = mats[1].scale(2)
    rep = validate(FundamentalTriplet(t.g0, t.b0, Representation.from_matrices(2, tuple(mats))))
    assert any("homomorphism" in v for v in rep.violations)

    table = [[list(v) for v in row] for row in t.g0.structure]
    table[0][1] = [x + 1 for x in table[0][1]]
    rep = validate(FundamentalTriplet(LieAlgebraData.from_table(table), t.b0, t.rho))
    assert any("antisymmetry" in v for v in rep.violations)

    # symmetric but Jacobi-breaking perturbation on sl2
    g = sl2_algebra()
    table = [[list(v) for v in row] for row in g.structure]
    table[1][2] = [F(1), F(1), F(0)]
    table[2][1] = [F(-1), F(-1), F(0)]
    t2 = sl2_triplet()
    rep = validate(FundamentalTriplet(LieAlgebraData.from_table(table), t2.b0, t2.rho))
    assert any("Jacobi" in v for v in rep.violations)


def test_a_perturbed_non_integral_rho_entry_breaks_the_homomorphism_at_the_same_pairs():
    # gl(3) on cubics acts with thirds; its first one, rho_0[0][0] = 7/3, is moved by 1/7
    t = gen_symplectic(3, 3, 1)
    first = t.rho.action_cols[0]
    assert first.support[0][0] == (0, F(7, 3))
    col = ((0, F(7, 3) + F(1, 7)),) + first.support[0][1:]
    maps = (SparseCols(first.rows, first.cols, (col,) + first.support[1:]),) + t.rho.action_cols[1:]
    rep = validate(FundamentalTriplet(t.g0, t.b0, Representation(t.dim_v, maps)))
    # the messages the Fraction check gave, in its order
    pairs = ["0,1", "0,2", "0,3", "0,6", "1,3", "2,6"]
    assert rep.violations == [f"representation homomorphism fails at basis pair ({ij})" for ij in pairs]


def test_form_invariance_messages_come_in_basis_triple_order():
    # the (i, j, k) order and the wording of the per-triple check on B([e_i,e_j], e_k) = B(e_i, [e_j,e_k])
    t = sl2_triplet()
    rep = validate(FundamentalTriplet(t.g0, QuadraticForm(Matrix.identity(3)), t.rho))
    triples = ["0,1,1", "0,1,2", "0,2,1", "0,2,2", "1,0,1", "1,1,0", "1,2,0", "2,0,2", "2,1,0", "2,2,0"]
    assert rep.violations == [f"form invariance fails at basis triple ({ijk})" for ijk in triples]
    # a non-symmetric form: the left side reads the Gram matrix transposed
    gram = Matrix.from_rows([[2, 1, 0], [0, 0, 1], [0, 1, 0]])
    rep = validate(FundamentalTriplet(t.g0, QuadraticForm(gram), t.rho))
    triples = ["0,0,1", "0,1,0", "1,2,1", "2,1,1"]
    assert rep.violations == ["form is not symmetric"] + [
        f"form invariance fails at basis triple ({ijk})" for ijk in triples
    ]


def test_structure_errors_are_distinct_from_invariant_violations():
    t = gl_standard_triplet(2)
    with pytest.raises(StructureError):
        FundamentalTriplet(t.g0, QuadraticForm(Matrix.identity(3)), t.rho)
    with pytest.raises(StructureError):
        Representation.from_matrices(2, (Matrix.identity(3),))


@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
@pytest.mark.parametrize(
    "method",
    [
        "bracket",
        "act",
        "cols_of",
        "value",
        "image",
        "gram_on",
        "bracket_xy",
        "restrict_algebra",
        "centralizer_in_degree_zero",
        "property_p_test",
        "complete_triple",
    ],
)
def test_dense_entry_points_refuse_a_vector_of_the_wrong_length(method, extra):
    # gl(2) on V = Q^2, and principal A1 (dim g0 = dim V = 1, [g0, g0] = 0) for the sl2 entry points: a short
    # vector used to read as zero-padded, a long one raised IndexError; complete_triple on A1 raised ValueError
    t, a1 = gl_standard_triplet(2), gen_principal([[2]])
    local = build_local(t)

    def ones(n):
        return (F(1),) * n

    call = {
        "bracket": lambda: t.g0.bracket(ones(4 + extra), ones(4)),
        "act": lambda: t.rho.act(ones(4), ones(2 + extra)),
        "cols_of": lambda: t.rho.cols_of(ones(4 + extra)),
        "value": lambda: t.b0.value(ones(4), ones(4 + extra)),
        "image": lambda: t.b0.image(ones(4 + extra)),
        "gram_on": lambda: t.b0.gram_on([ones(4 + extra)], [ones(4)]),
        "bracket_xy": lambda: local.bracket_xy(ones(2 + extra), ones(2)),
        "restrict_algebra": lambda: restrict_algebra(t.g0, [ones(4 + extra)], "not a subalgebra"),
        "centralizer_in_degree_zero": lambda: centralizer_in_degree_zero(
            grow(local, POSITIVE, 1), grow(local, NEGATIVE, 1), local, {1: [ones(2 + extra)]}
        ),
        "property_p_test": lambda: property_p_test(a1, ones(1 + extra)),
        "complete_triple": lambda: complete_triple(a1, ones(1 + extra)),
    }[method]
    with pytest.raises(StructureError, match="where the space has dimension"):
        call()


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: LieAlgebraData(2, (((), ()),)), id="missing-row"),
        pytest.param(lambda: LieAlgebraData(2, (((), ()), ((),))), id="short-row"),
        pytest.param(lambda: LieAlgebraData(2, (((), ((2, F(1)),)), ((), ()))), id="index-out-of-range"),
        pytest.param(lambda: LieAlgebraData(2, (((), ((1, F(1)), (0, F(1)))), ((), ()))), id="decreasing-indices"),
        pytest.param(lambda: LieAlgebraData(2, (((), ((0, F(1)), (0, F(1)))), ((), ()))), id="repeated-index"),
        pytest.param(lambda: LieAlgebraData(2, (((), ((0, F(0)),)), ((), ()))), id="zero-coefficient"),
        pytest.param(lambda: LieAlgebraData.from_table([[(0, 0), (0,)], [(0, 0), (0, 0)]]), id="dense-short-vector"),
        pytest.param(lambda: LieAlgebraData(2, (((), ((1, 0.5),)), (((1, -0.5),), ()))), id="float-coefficient"),
        pytest.param(lambda: LieAlgebraData(2, (((), ((1, "1/2"),)), ((), ()))), id="str-coefficient"),
        pytest.param(lambda: LieAlgebraData(2, (((), ((1, True),)), ((), ()))), id="bool-coefficient"),
        pytest.param(lambda: LieAlgebraData(2, (((), ((1.0, F(1)),)), (((1.0, F(-1)),), ()))), id="float-index"),
        pytest.param(lambda: LieAlgebraData(2, (((), ((True, F(1)),)), (((True, F(-1)),), ()))), id="bool-index"),
        pytest.param(lambda: LieAlgebraData(2, (((), ((1,),)), ((), ()))), id="one-entry-pair"),
        pytest.param(lambda: LieAlgebraData(2, (((), ((1, F(1), 0),)), ((), ()))), id="three-entry-pair"),
    ],
)
def test_malformed_structure_pairs_are_structure_errors(make):
    with pytest.raises(StructureError):
        make()


@pytest.mark.parametrize(
    "cols",
    [
        pytest.param(SparseCols(3, 3, ((),) * 3), id="wrong-shape"),
        pytest.param(SparseCols(2, 2, ((),) * 3), id="wrong-column-count"),
        pytest.param(SparseCols(2, 2, (((0, 1), (0, 2)), ())), id="repeated-row"),
        pytest.param(SparseCols(2, 2, (((1, 1), (0, 2)), ())), id="decreasing-rows"),
        pytest.param(SparseCols(2, 2, (((2, 1),), ())), id="row-out-of-range"),
        pytest.param(SparseCols(2, 2, (((0, F(0)),), ())), id="zero-value"),
        pytest.param(SparseCols(2, 2, (((0, 0.5),), ())), id="float-value"),
        pytest.param(SparseCols(2, 2, (((0, "1/2"),), ())), id="str-value"),
        pytest.param(SparseCols(2, 2, (((0, True),), ())), id="bool-value"),
        pytest.param(SparseCols(2, 2, (((0.0, 1),), ())), id="float-index"),
        pytest.param(SparseCols(2, 2, (((True, 1),), ())), id="bool-index"),
        pytest.param(SparseCols(2, 2, (((0,),), ())), id="one-entry-pair"),
        pytest.param((2, 2, ((), ())), id="not-sparse-cols"),
    ],
)
def test_malformed_action_columns_are_structure_errors(cols):
    with pytest.raises(StructureError):
        Representation(2, (SparseCols(2, 2, ((), ())), cols))


def test_dual_rep_cases():
    r = Representation.from_matrices(2, (Matrix.identity(2), Matrix.from_rows([[1, 0], [0, 2]])))
    d = dual_rep(r)
    assert d.action[0].entries == Matrix.identity(2).scale(-1).entries
    assert d.action[1].entries == Matrix.from_rows([[-1, 0], [0, -2]]).entries
    t = gl_standard_triplet(2)
    # E_12 is basis index 1 in row-major order; its dual is -E_21
    assert dual_rep(t.rho).action[1].entries == Matrix.from_rows([[0, 0], [-1, 0]]).entries
    dd = dual_rep(dual_rep(t.rho))
    assert all(a.entries == b.entries for a, b in zip(dd.action, t.rho.action))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.data())
def test_dual_rep_is_minus_the_transpose_with_matching_columns(n, data):
    # dual_rep writes the dual's sparse columns itself; they must be those of its matrices
    square = st.lists(st.lists(small_rationals, min_size=n, max_size=n), min_size=n, max_size=n)
    mats = tuple(Matrix.from_rows(m) for m in data.draw(st.lists(square, max_size=3)))
    r = Representation.from_matrices(n, mats)
    assert r.action == mats and r.action_cols == tuple(SparseCols.from_matrix(m) for m in mats)
    d = dual_rep(r)
    assert d.action == tuple(a.transpose().scale(-1) for a in r.action)
    assert d.action_cols == tuple(SparseCols.from_matrix(m) for m in d.action)


def test_derived_subalgebra_dimensions():
    assert derived_subalgebra(LieAlgebraData.abelian(3)) == []
    for n in (2, 3):
        der = derived_subalgebra(gl_standard_triplet(n).g0)
        assert len(der) == n * n - 1
        # derived part of gl(n) is trace-zero
        for v in der:
            assert sum(v[a * n + a] for a in range(n)) == 0
    assert len(derived_subalgebra(sl2_algebra())) == 3


def test_center_dimensions():
    assert len(center(LieAlgebraData.abelian(4))) == 4
    for n in (2, 3):
        z = center(gl_standard_triplet(n).g0)
        assert len(z) == 1
        ident = tuple(F(1) if a == b else F(0) for a in range(n) for b in range(n))
        assert in_dense_span(ident, z)
    assert center(sl2_algebra()) == []


@functools.cache
def assembled_algebras() -> dict[str, LieAlgebraData]:
    """Assembled principal A2 and g2-cubic algebras, and g2-cubic rewritten
    in a skewed rational basis."""
    out = {}
    for name, t, degree in (
        ("a2", gen_principal([[2, -1], [-1, 2]]), 3),
        ("g2-cubic", gen_symplectic(2, 3, 1, "g2"), 4),
    ):
        local = build_local(t)
        out[name] = assemble(*grow_both(local, degree), local).algebra
    g2 = out["g2-cubic"]
    rng = random.Random(11)
    while True:
        basis = [tuple(F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(g2.dim)) for _ in range(g2.dim)]
        if rank(Matrix.from_cols(basis)) == g2.dim:
            break
    out["g2-cubic-skewed"] = restrict_algebra(g2, basis, "not a basis")
    return out


def center_rows(g: LieAlgebraData) -> list[tuple]:
    """Row (j, k) of the center's system holds c[i][j][k] at column i, read off the dense table."""
    n = g.dim
    return [tuple(g.structure[i][j][k] for i in range(n)) for j in range(n) for k in range(n)]


def rep_kernel_rows(r: Representation, n: int) -> list[tuple]:
    """Row (p, q) of the kernel's system holds rho_i[p][q] at column i, read off the dense matrices."""
    return [tuple(r.action[i].entries[p][q] for i in range(n)) for p in range(r.dim_v) for q in range(r.dim_v)]


def test_center_matches_the_kernel_of_the_full_coefficient_matrix():
    # the rows gathered from structure_pairs must give the kernel of the full dense system
    examples = [gl_standard_triplet(3).g0, gl_standard_triplet(2).g0.direct_sum(sl2_algebra())]
    for g in examples + list(assembled_algebras().values()):
        assert center(g) == dense_kernel(center_rows(g), g.dim)


def test_subalgebra_closure_properties():
    g = gl_standard_triplet(2).g0
    der = derived_subalgebra(g)
    z = center(g)
    for u in der:
        for v in der:
            assert in_dense_span(g.bracket(u, v), der)
    for u in z:
        for a in range(g.dim):
            assert g.bracket(basis_vector(g.dim, a), u) == tuple([F(0)] * g.dim)


@settings(max_examples=40, deadline=None)
@given(generator_triplets(), st.data())
def test_gram_on_is_the_dense_product_of_the_basis_columns(t, data):
    # B(u_p, v_q) read off the sparse Gram columns equals (U^T G V)[p][q], value and type
    n = t.dim_g0
    vectors = st.lists(st.tuples(*[small_rationals] * n), max_size=4)
    us, vs = data.draw(vectors), data.draw(vectors)
    expected = mat_mul(Matrix.from_cols(us, nrows=n).transpose(), t.b0.gram, Matrix.from_cols(vs, nrows=n))
    got = t.b0.gram_on(us, vs)
    assert got.entries == expected.entries and all(type(x) is F for row in got.entries for x in row)
    assert t.b0.gram_on(us).entries == t.b0.gram_on(us, us).entries


def test_rep_kernel_cases():
    t = gl_standard_triplet(2)
    assert rep_kernel(t.rho, t.g0) == []
    zero_rho = Representation.from_matrices(2, tuple(Matrix.zeros(2, 2) for _ in range(4)))
    assert len(rep_kernel(zero_rho, t.g0)) == 4
    glued = direct_sum_with_zero_factor(t, gl_standard_triplet(2).g0, t.b0)
    k = rep_kernel(glued.rho, glued.g0)
    assert len(k) == 4
    # the kernel is an ideal
    for u in k:
        for a in range(glued.g0.dim):
            assert in_dense_span(glued.g0.bracket(basis_vector(glued.g0.dim, a), u), k)


def test_rep_kernel_matches_the_dense_kernel_of_the_action_entries():
    t = gl_standard_triplet(2)
    zero_rho = Representation.from_matrices(2, tuple(Matrix.zeros(2, 2) for _ in range(4)))
    glued = direct_sum_with_zero_factor(t, sl2_algebra(), QuadraticForm(Matrix.identity(3)))
    for r, g in ((t.rho, t.g0), (zero_rho, t.g0), (glued.rho, glued.g0), (dual_rep(glued.rho), glued.g0)):
        assert rep_kernel(r, g) == dense_kernel(rep_kernel_rows(r, g.dim), g.dim)


def test_grading_element_cases():
    t = gen_symplectic(3, 2, 2, "trace")
    h = grading_element(t)
    ident = tuple(F(1) if a == b else F(0) for a in range(3) for b in range(3))
    assert h == ident
    assert grading_element(sl2_triplet()) is None
    t = gen_symplectic(3, 1, 3, "sl-shifted")
    assert grading_element(t) == tuple(F(2, 3) * x for x in ident)


def test_grading_element_ambiguity_is_an_error():
    base = gen_symplectic(2, 2, 2, "trace")
    widened = direct_sum_with_zero_factor(base, LieAlgebraData.abelian(1), QuadraticForm(Matrix.identity(1)))
    with pytest.raises(AmbiguousGrading):
        grading_element(widened)


def test_form_invariance_on_random_triples():
    t = gen_symplectic(2, 2, 2, "trace")
    rng = random.Random(7)
    for _ in range(100):
        x = random_rational_vector(rng, t.dim_g0)
        y = random_rational_vector(rng, t.dim_g0)
        z = random_rational_vector(rng, t.dim_g0)
        assert t.b0.value(t.g0.bracket(x, y), z) == t.b0.value(x, t.g0.bracket(y, z))


def test_killing_form_of_sl2():
    k = killing_form(sl2_algebra())
    assert k.entries == Matrix.from_rows([[8, 0, 0], [0, 0, 4], [0, 4, 0]]).entries
    assert rank(k) == 3


def dense_killing_form(g: LieAlgebraData) -> list[list[Fraction]]:
    """tr(ad e_i ad e_j) summed over every entry of the two ad matrices."""
    n = g.dim
    ads = [ad(g, i) for i in range(n)]

    def trace(i, j):
        return sum((ads[i].entries[a][b] * ads[j].entries[b][a] for a in range(n) for b in range(n)), F(0))

    return [[trace(i, j) for j in range(n)] for i in range(n)]


def test_killing_form_matches_the_dense_trace():
    algebras = assembled_algebras()
    skewed = algebras["g2-cubic-skewed"]
    assert any(x.denominator > 1 for row in skewed.structure for v in row for x in v)
    for g in algebras.values():
        assert [list(row) for row in killing_form(g).entries] == dense_killing_form(g)


def test_e6_killing_form_matches_its_recorded_digest():
    # the assemble-deep job's Killing matrix, rendered cell by cell with format_scalar
    local = build_local(gen_principal(E6_CARTAN))
    k = killing_form(assemble(*grow_both(local, 12), local).algebra)
    text = json.dumps([[format_scalar(x) for x in row] for row in k.entries], separators=(",", ":")) + "\n"
    digest = (Path(__file__).parent / "golden" / "e6_killing.sha256").read_text(encoding="utf-8").strip()
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert {type(x) for row in k.entries for x in row} == {F}
    assert sum(1 for row in k.entries for x in row if x) == 88


def dense_route(g: LieAlgebraData) -> tuple[int, int]:
    """The Killing rank and the center's dim through the dense Killing matrix and the center system."""
    return rank(killing_form(g)), len(center(g))


def heisenberg(m: int) -> LieAlgebraData:
    """Basis p_1..p_m, q_1..q_m, z with [p_i, q_i] = z the only nonzero brackets."""
    n = 2 * m + 1
    rows = [[()] * n for _ in range(n)]
    for i in range(m):
        rows[i][m + i], rows[m + i][i] = ((n - 1, 1),), ((n - 1, -1),)
    return LieAlgebraData(n, tuple(map(tuple, rows)))


@st.composite
def antisymmetric_tables(draw) -> LieAlgebraData:
    """Antisymmetric tables with small int constants, Jacobi not asked for, and up to two null basis vectors."""
    n = draw(st.integers(1, 5))
    rows = [[()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
            rows[i][j] = tuple((k, x) for k, x in enumerate(v) if x)
            rows[j][i] = tuple((k, -x) for k, x in rows[i][j])
    return LieAlgebraData(n, tuple(map(tuple, rows))).direct_sum(LieAlgebraData.abelian(draw(st.integers(0, 2))))


# [e0, e1] = e2 and [e1, e2] = e1: Jacobi fails at (0, 1, 2), and K is nondegenerate
NOT_LIE = LieAlgebraData(3, (((), ((2, 1),), ()), (((2, -1),), (), ((1, 1),)), ((), ((1, -1),), ())))


@settings(max_examples=80, deadline=None)
@given(antisymmetric_tables())
@example(NOT_LIE.direct_sum(LieAlgebraData.abelian(1)))
def test_killing_rank_and_center_dim_match_the_dense_route_on_any_antisymmetric_table(g):
    # ad z = 0 puts z in the Killing radical for any table, so the shortcut needs no Jacobi identity
    assert killing_rank_and_center_dim(g) == dense_route(g)


@pytest.mark.parametrize(
    "make,want",
    [
        (lambda: LieAlgebraData.abelian(0), (0, 0)),
        (lambda: LieAlgebraData.abelian(3), (0, 3)),
        (lambda: heisenberg(1), (0, 1)),
        (lambda: heisenberg(2), (0, 1)),
        (lambda: NOT_LIE, (3, 0)),
        (sl2_algebra, (3, 0)),
        (lambda: gl_standard_triplet(2).g0, (3, 1)),
        (
            lambda: assemble_nontransitive(gen_with_trivial_summand(gen_symplectic(2, 3, 1, "g2"), 2), 4).algebra,
            (14, 4),
        ),
    ],
    ids=["abelian-0", "abelian-3", "heisenberg-1", "heisenberg-2", "not-lie", "sl2", "gl2", "g2-cubic-trivial-2"],
)
def test_killing_rank_and_center_dim_of_fixed_algebras(make, want):
    g = make()
    assert killing_rank_and_center_dim(g) == dense_route(g) == want
    assert jacobi_holds_everywhere(g) is (g is not NOT_LIE)


@settings(max_examples=25, deadline=None)
@given(generator_triplets(), st.sampled_from([None, "abelian", "sl2"]))
def test_killing_rank_and_center_dim_match_the_dense_route_on_generator_algebras(t, kernel):
    # the reductive g0 (a center, a degenerate K), the ideal adjoined by zero, and the assembled algebras
    if kernel is not None:
        extra = LieAlgebraData.abelian(1) if kernel == "abelian" else sl2_algebra()
        t = direct_sum_with_zero_factor(t, extra, QuadraticForm(Matrix.identity(extra.dim)))
    algebras = [t.g0]
    part = build_local(reduce_triplet(t).transitive_part)
    for b in range(2, 7):
        tp = grow(part, POSITIVE, b)
        if tp.terminated or max(tp.dims()) > 40:
            break
    tp, tn = grow_both(part, b)
    if tp.terminated and tn.terminated:
        algebras += [assemble(tp, tn, part).algebra, assemble_nontransitive(t, b).algebra]
    for g in algebras:
        assert killing_rank_and_center_dim(g) == dense_route(g)


def test_every_killing_form_entry_is_a_fraction_zeros_included():
    # the products run on ints where the constants are integral; the matrix holds Fractions only
    for g in assembled_algebras().values():
        entries = [x for row in killing_form(g).entries for x in row]
        assert all(type(x) is F for x in entries)
    skewed = assembled_algebras()["g2-cubic-skewed"]
    assert {type(x) for row in skewed.structure_pairs for p in row for _, x in p} == {F}


def test_the_sparse_stores_hold_ints_and_the_dense_views_fractions():
    # gl(n), glblock with integral lambdas and principal E6 have integral constants and actions
    for t in (gl_standard_triplet(3), gen_glblock(2, 1, 2), gen_glblock(3, 2, -1), gen_principal(E6_CARTAN)):
        stored = [x for row in t.g0.structure_pairs for p in row for _, x in p]
        stored += [x for m in t.rho.action_cols for col in m.support for _, x in col]
        dense = [x for row in t.g0.structure for v in row for x in v]
        dense += [x for m in t.rho.action for row in m.entries for x in row]
        assert {type(x) for x in stored} == {int} and {type(x) for x in dense} == {F}
    # assemble stores the ints it computes; the same constants given as Fractions are stored alike
    local = build_local(gen_principal(E6_CARTAN))
    g = assemble(*grow_both(local, 12), local).algebra
    assert {type(x) for row in g.structure_pairs for p in row for _, x in p} == {int}
    fractions = tuple(tuple(tuple((k, F(x)) for k, x in p) for p in row) for row in g.structure_pairs)
    again = LieAlgebraData(g.dim, fractions).structure_pairs
    assert again == g.structure_pairs and {type(x) for row in again for p in row for _, x in p} == {int}


def one_rule(values) -> bool:
    """Each value is an int exactly when it is integral, and a Fraction otherwise."""
    return all(type(x) is (int if x.denominator == 1 else F) for x in values)


def pair_values(table) -> list:
    return [x for row in table for p in row for _, x in p]


def column_values(maps) -> list:
    return [x for m in maps for col in m.support for _, x in col]


@settings(max_examples=30, deadline=None)
@given(generator_triplets())
def test_no_library_layer_builds_the_dense_action(t):
    # action is a lazy view for readers outside glaw; every layer reads action_cols
    L = build_local(t)
    validate(t)
    transitivity_check(L)
    if L.transitivity.transitive:
        grow_both(L, 2)
    part = reduce_triplet(t).transitive_part
    assert all("action" not in r.__dict__ for r in (t.rho, L.dual_action, part.rho))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_restricted_generators_build_no_dense_action(n):
    quadric = PolyInvariant.from_string("+".join(f"x{i}^2" for i in range(n + 1)), n + 1)
    for t in (gen_glblock(n, 1, F(-1, 2)), gen_stabilizer_triplet(quadric, 2)):
        assert "action" not in t.rho.__dict__


@settings(max_examples=30, deadline=None)
@given(generator_triplets(), st.just(6))
@example(gen_principal(E6_CARTAN), 12)
def test_every_sparse_store_keeps_the_one_rule_and_every_dense_view_fractions(t, budget):
    g, rho, dual, local = t.g0, t.rho, dual_rep(t.rho), build_local(t)
    assert one_rule(pair_values(g.structure_pairs)) and one_rule(pair_values(local.xy_pairs))
    assert one_rule(column_values(rho.action_cols)) and one_rule(column_values(dual.action_cols))
    views = [x for table in (g.structure, local.xy_table) for row in table for v in row for x in v]
    matrices = (*rho.action, *dual.action, *(m.to_matrix() for m in rho.action_cols), killing_form(g))
    views += [x for m in matrices for row in m.entries for x in row]
    assert {type(x) for x in views} == {F}
    parsed = parse_triplet_spec(emit_triplet_spec(t, "t"))[0].g0.structure_pairs
    assert parsed == g.structure_pairs and one_rule(pair_values(parsed))
    # the assembled algebra, when the transitive part terminates within the budget at a small size
    part = build_local(reduce_triplet(t).transitive_part)
    for b in range(2, budget + 1):
        tp = grow(part, POSITIVE, b)
        if tp.terminated or max(tp.dims()) > 40:
            break
    tp, tn = grow_both(part, b)
    if tp.terminated and tn.terminated:
        assembled = assemble(tp, tn, part).algebra
        assert one_rule(pair_values(assembled.structure_pairs))
        assert {type(x) for row in killing_form(assembled).entries for x in row} == {F}


@settings(max_examples=40, deadline=None)
@given(generator_triplets(), st.sampled_from([None, "abelian", "sl2"]))
def test_center_rep_kernel_and_killing_form_match_their_dense_oracles(t, kernel):
    # an adjoined ideal acting by zero gives rho a kernel and, when abelian, g0 a larger center
    if kernel is not None:
        extra = LieAlgebraData.abelian(1) if kernel == "abelian" else sl2_algebra()
        t = direct_sum_with_zero_factor(t, extra, QuadraticForm(Matrix.identity(extra.dim)))
    g, n = t.g0, t.dim_g0
    assert center(g) == dense_kernel(center_rows(g), n)
    assert rep_kernel(t.rho, g) == dense_kernel(rep_kernel_rows(t.rho, n), n)
    assert [list(row) for row in killing_form(g).entries] == dense_killing_form(g)
