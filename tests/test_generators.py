import hashlib
import io
import json
import math
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from glaw import (
    Matrix,
    Refusal,
    build_local,
    gen_glblock,
    gen_principal,
    gen_stabilizer_triplet,
    gen_symplectic,
    gen_with_trivial_summand,
    monomial_basis,
    stabilizer_of_poly,
    validate,
)
from glaw.cli import canonical_json, emit_triplet_spec, main
from glaw.exactla import support, vis_zero
from glaw.generators import _gl_structure, find_symmetrizer, symplectic_form_gram
from glaw.liecore import LieAlgebraData, QuadraticForm, basis_vector, direct_sum_with_zero_factor
from glaw.sl2 import PolyInvariant

from helpers import glblock_pairs, same_span, small_rationals

F = Fraction

A2 = [[2, -1], [-1, 2]]
C2 = [[2, -1], [-2, 2]]
G2_CARTAN = [[2, -1], [-3, 2]]


def test_every_generated_triplet_validates():
    cases = [
        gen_symplectic(2, 2, 2, "trace"),
        gen_symplectic(2, 3, 1, "g2"),
        gen_symplectic(3, 1, 4, "sl-shifted"),
        gen_symplectic(2, 2, F(1, 2), "sl-shifted"),
        gen_glblock(2, 1, 1),
        gen_glblock(2, 1, 2),
        gen_glblock(3, 2, F(1, 3)),
        gen_principal(A2),
        gen_principal(C2),
        gen_principal(G2_CARTAN),
        gen_with_trivial_summand(gen_symplectic(2, 2, 2, "trace"), 2),
        gen_stabilizer_triplet(PolyInvariant.from_string("x0^2+x1^2", 2), 2),
        gen_stabilizer_triplet(PolyInvariant.from_string("x0^2+x1^2+x2^2", 3), 1),
    ]
    for t in cases:
        assert validate(t).ok


def test_monomial_basis_order_and_size():
    mono = monomial_basis(2, 2)
    assert mono.exponents == ((2, 0), (1, 1), (0, 2))
    assert mono.factorials() == (2, 1, 2)
    mono = monomial_basis(3, 2)
    assert len(mono.exponents) == math.comb(3 + 2 - 1, 2)
    assert mono.exponents[0] == (2, 0, 0)
    # strictly descending lexicographic order
    assert all(a > b for a, b in zip(mono.exponents, mono.exponents[1:]))


def test_monomial_basis_in_no_variables():
    # the constants are the one monomial of degree 0; no monomial has a higher degree
    assert monomial_basis(0, 0).exponents == ((),)
    for p in (1, 2, 3):
        assert monomial_basis(0, p).exponents == ()


def test_degree_one_family_is_the_standard_action():
    t = gen_symplectic(3, 1, 1, "trace")
    for a in range(3):
        for b in range(3):
            expected = Matrix.from_rows(
                [[1 if (i, j) == (a, b) else 0 for j in range(3)] for i in range(3)]
            )
            assert t.rho.action[a * 3 + b].entries == expected.entries


def test_named_forms():
    tr = symplectic_form_gram(2, "trace")
    sl = symplectic_form_gram(2, "sl-shifted")
    g2 = symplectic_form_gram(2, "g2")
    # values on (Id, Id): n, n + n^2, 3n - n^2 with n = 2
    ident = (F(1), F(0), F(0), F(1))

    def val(gram, u, v):
        return sum(u[i] * gram.entries[i][j] * v[j] for i in range(4) for j in range(4))

    assert val(tr, ident, ident) == 2
    assert val(sl, ident, ident) == 6
    assert val(g2, ident, ident) == 2
    with pytest.raises(Refusal):
        symplectic_form_gram(2, "unknown")


def test_differential_operator_pairing_is_the_factorial():
    # the dual monomial acts as a constant-coefficient operator; pairing a
    # monomial with its own dual gives the multi-factorial, others vanish
    mono = monomial_basis(2, 3)
    for a, alpha in enumerate(mono.exponents):
        p = PolyInvariant.monomial(2, alpha)
        for b, beta in enumerate(mono.exponents):
            q = p
            for j in range(2):
                for _ in range(beta[j]):
                    q = q.diff(j)
            value = q.eval((0, 0))
            if alpha == beta:
                assert value == mono.factorials()[a]
            else:
                assert value == 0


def test_rescaled_degree_one_pairing_is_the_factorial_diagonal():
    # the tower pairs x^alpha with the abstract dual basis as the identity;
    # rewriting the dual side in dual-variable monomials multiplies each
    # covector by alpha!, so the pairing becomes the factorial diagonal
    from glaw import NEGATIVE, POSITIVE, build_local, grow, pairing

    t = gen_symplectic(2, 2, 2, "trace")
    local = build_local(t)
    tp, tn = grow(local, POSITIVE, 2), grow(local, NEGATIVE, 2)
    base = pairing(tp, tn, 1)
    mono = monomial_basis(2, 2)
    rescaled = [
        [base.entries[a][b] * mono.factorials()[b] for b in range(3)] for a in range(3)
    ]
    assert rescaled == [[2, 0, 0], [0, 1, 0], [0, 0, 2]]


def test_symplectic_refusals():
    with pytest.raises(Refusal):
        gen_symplectic(2, 2, 0, "trace")
    with pytest.raises(Refusal):
        gen_symplectic(0, 2, 1, "trace")
    degenerate = Matrix.zeros(4, 4)
    with pytest.raises(Refusal):
        gen_symplectic(2, 2, 1, degenerate)


def test_glblock_refusals():
    with pytest.raises(Refusal):
        gen_glblock(2, 1, -1)
    with pytest.raises(Refusal):
        gen_glblock(2, 0, 1)
    with pytest.raises(Refusal):
        gen_glblock(0, 1, 1)
    with pytest.raises(Refusal):
        gen_glblock(-1, 1, 1)


def test_glblock_dimensions_and_grading_pair():
    t = gen_glblock(2, 1, 2)
    assert t.dim_g0 == 7 and t.dim_v == 4
    h0 = basis_vector(7, 0)
    x = basis_vector(4, 1)
    assert t.rho.act(h0, x) == tuple(2 * c for c in x)


def test_principal_symmetrizers():
    assert find_symmetrizer(Matrix.from_rows(A2)) == (F(1), F(1))
    assert find_symmetrizer(Matrix.from_rows(C2)) == (F(1), F(2))
    assert find_symmetrizer(Matrix.from_rows(G2_CARTAN)) == (F(1), F(3))
    with pytest.raises(Refusal):
        find_symmetrizer(Matrix.from_rows([[2, -1], [0, 2]]))


def test_principal_refuses_affine_matrices():
    with pytest.raises(Refusal):
        gen_principal([[2, -2], [-2, 2]])


def test_principal_degree_one_brackets_proportional_to_coroots():
    for cartan in (A2, C2, G2_CARTAN):
        t = gen_principal(cartan)
        L = build_local(t)
        n = t.dim_g0
        for i in range(n):
            for j in range(n):
                br = L.bracket_yx(basis_vector(n, i), basis_vector(n, j))
                if i != j:
                    assert vis_zero(br)
                else:
                    assert not vis_zero(br)
                    assert all(br[k] == 0 for k in range(n) if k != i)


def test_principal_explicit_symmetrizer_is_checked():
    t = gen_principal(C2, symmetrizer=[1, 2])
    assert validate(t).ok
    with pytest.raises(Refusal):
        gen_principal(C2, symmetrizer=[1, 1])


def test_trivial_summand_identity_and_shape():
    base = gen_symplectic(2, 2, 2, "trace")
    assert gen_with_trivial_summand(base, 0) is base
    t = gen_with_trivial_summand(base, 2)
    assert t.dim_v == base.dim_v + 2
    for m in t.rho.action:
        assert all(m.entries[i][j] == 0 for i in range(t.dim_v) for j in range(base.dim_v, t.dim_v))


def test_trivial_summand_refuses_a_negative_k():
    with pytest.raises(Refusal, match="k must be at least 0"):
        gen_with_trivial_summand(gen_symplectic(2, 2, 2, "trace"), -1)


def test_stabilizer_of_poly_dimensions():
    quad2 = PolyInvariant.from_string("x0^2+x1^2", 2)
    assert len(stabilizer_of_poly(2, quad2)) == 1
    for n in (3, 4):
        quad = PolyInvariant.from_string("+".join(f"x{i}^2" for i in range(n)), n)
        stab = stabilizer_of_poly(n, quad)
        assert len(stab) == n * (n - 1) // 2
        # the stabilizer of the quadric is the antisymmetric family
        anti = []
        for a in range(n):
            for b in range(a + 1, n):
                v = [F(0)] * (n * n)
                v[a * n + b] = F(1)
                v[b * n + a] = F(-1)
                anti.append(tuple(v))
        assert same_span(stab, anti, n * n)
    assert stabilizer_of_poly(1, PolyInvariant.from_string("x0^3", 1)) == []


def test_stabilizer_triplet_center_scaling():
    quad = PolyInvariant.from_string("x0^2+x1^2+x2^2", 3)
    t = gen_stabilizer_triplet(quad, 2)
    assert t.rho.action[0].entries == Matrix.identity(3).scale(2).entries
    from glaw import grading_element

    assert grading_element(t) == basis_vector(t.dim_g0, 0)


def test_stabilizer_refuses_a_non_homogeneous_polynomial():
    # the lower-degree terms have no place in the top degree's monomial basis
    p = PolyInvariant.from_string("x0^2+x1", 2)
    with pytest.raises(Refusal, match="must be homogeneous"):
        stabilizer_of_poly(2, p)
    with pytest.raises(Refusal, match="must be homogeneous"):
        gen_stabilizer_triplet(p, 2)


def test_stabilizer_refuses_a_polynomial_in_no_variables():
    p = PolyInvariant.from_dict(0, {(): 3})
    with pytest.raises(Refusal, match="at least one variable"):
        stabilizer_of_poly(0, p)
    with pytest.raises(Refusal, match="at least one variable"):
        gen_stabilizer_triplet(p, 2)


@settings(max_examples=12, deadline=None)
@given(st.integers(1, 3), small_rationals.filter(bool), small_rationals.filter(bool))
def test_glblock_matches_the_dense_block_model(n, l1, l2):
    # brackets, form and action against dense products of the basis pairs (A, B)
    assume(l1 + l2 != 0)
    t = gen_glblock(n, l1, l2)
    pairs = glblock_pairs(n)

    def flat(*mats):
        return [m.entries[i][j] for m in mats for i in range(n) for j in range(n)]

    def tr(m):
        return sum(m.entries[i][i] for i in range(n))

    r = range(n)
    units = [Matrix.from_rows([[int((a, b) == (i, j)) for b in r] for a in r]) for i in r for j in r]
    for p, (ap, bp) in enumerate(pairs):
        for q, (aq, bq) in enumerate(pairs):
            got = [F(0)] * (2 * n * n)
            for k, c in t.g0.structure_pairs[p][q]:
                got = [x + c * y for x, y in zip(got, flat(*pairs[k]))]
            assert got == flat(ap @ aq - aq @ ap, bp @ bq - bq @ bp)
            assert t.b0.gram.entries[p][q] == l1 * tr(ap @ aq) + l2 * tr(bp @ bq)
        assert [list(col) for col in zip(*t.rho.action[p].entries)] == [flat(ap @ x - x @ bp) for x in units]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gl_structure_matches_matrix_commutators(n):
    # reference: [E_p, E_q] = E_p E_q - E_q E_p on elementary matrices, flattened row-major
    def unit(p):
        return Matrix.from_rows([[1 if i * n + j == p else 0 for j in range(n)] for i in range(n)])

    def flat(m):
        return [m.entries[i][j] for i in range(n) for j in range(n)]

    reference = tuple(
        tuple(tuple(support(flat(unit(p) @ unit(q) - unit(q) @ unit(p)))) for q in range(n * n)) for p in range(n * n)
    )
    assert _gl_structure(n).structure_pairs == reference


GLBLOCK_LAMBDAS = (("1", "2"), ("1/2", "-3/4"), ("5", "1/3"))
STABILIZER_POLYS = (("x0*x3-x1*x2", 4), ("x0*x1*x2", 3), ("x0^2*x1", 2), ("x0^2+x1^2-x2^2", 3))
E6_ROWS = "2,-1,0,0,0,0;-1,2,-1,0,0,0;0,-1,2,-1,0,-1;0,0,-1,2,-1,0;0,0,0,-1,2,0;0,0,-1,0,0,2"
GEN_ARGVS = (
    ["gen", "sp", "--n", "2", "--p", "3", "--lambda", "1", "--form", "trace"],
    ["gen", "sp", "--n", "2", "--p", "3", "--lambda", "1", "--form", "sl-shifted"],
    ["gen", "sp", "--n", "2", "--p", "3", "--lambda", "1", "--form", "g2"],
    ["gen", "sp", "--n", "3", "--p", "2", "--lambda", "1/2"],
    ["gen", "cartan", "--matrix", E6_ROWS],
    ["gen", "cartan", "--matrix", "2,-1;-3,2"],
    ["gen", "cartan", "--matrix", "2,-3;-3,2"],
    ["gen", "cartan", "--matrix", "2,-1;-3,2", "--symmetrizer", "1/2,3/2"],
)


def _cli_output(argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


def emitted_specs(tmp: Path) -> dict[str, str]:
    """Key -> emitted spec text: `glaw gen glblock` for n = 1..5 and three
    lambda pairs, the stabilizer triplets of the quadrics in 2..5 variables
    with the center acting by 2 and by 1/3 and of STABILIZER_POLYS (a
    determinant, two monomials, an indefinite quadric) with the center acting
    by 2, `gen sp` in every named form and at a non-integral shift, `gen
    cartan` (E6, G2, a hyperbolic matrix, an explicit symmetrizer), `gen
    trivial-summand` on the g2 cubic, and the transitive part `reduce`
    reports for that summand and for G2 with a zero-acting ideal and a
    trivial summand."""
    out = {}
    for n in range(1, 6):
        for l1, l2 in GLBLOCK_LAMBDAS:
            argv = ["gen", "glblock", "--n", str(n), "--lambda1", l1, f"--lambda2={l2}"]
            out[" ".join(argv)] = _cli_output(argv)
    for n in range(2, 6):
        quad = "+".join(f"x{i}^2" for i in range(n))
        for s in ("2", "1/3"):
            name = f"stabilizer({quad},{s})"
            t = gen_stabilizer_triplet(PolyInvariant.from_string(quad, n), F(s))
            out[name] = canonical_json(emit_triplet_spec(t, name))
    for poly, n in STABILIZER_POLYS:
        name = f"stabilizer({poly},2)"
        t = gen_stabilizer_triplet(PolyInvariant.from_string(poly, n), 2)
        out[name] = canonical_json(emit_triplet_spec(t, name))
    for argv in GEN_ARGVS:
        out[" ".join(argv)] = _cli_output(argv)
    cubic = tmp / "g2-cubic.json"
    cubic.write_text(out[" ".join(GEN_ARGVS[2])], encoding="utf-8")
    argv = ["gen", "trivial-summand", str(cubic), "--k", "2"]
    out["gen trivial-summand {g2-cubic} --k 2"] = text = _cli_output(argv)
    (tmp / "cubic-trivial.json").write_text(text, encoding="utf-8")
    kernel = gen_with_trivial_summand(
        direct_sum_with_zero_factor(gen_principal(G2_CARTAN), LieAlgebraData.abelian(1), QuadraticForm(Matrix.identity(1))),
        1,
    )
    (tmp / "g2-kernel.json").write_text(canonical_json(emit_triplet_spec(kernel, "g2-kernel")), encoding="utf-8")
    for spec in ("cubic-trivial", "g2-kernel"):
        report = json.loads(_cli_output(["reduce", str(tmp / f"{spec}.json")]))
        out[f"reduce {{{spec}}} transitive_part"] = canonical_json(report["transitive_part"])
    return out


def test_generated_specs_match_the_recorded_digests(tmp_path):
    recorded = json.loads((Path(__file__).parent / "golden" / "gen_specs.json").read_text(encoding="utf-8"))
    got = {k: hashlib.sha256(text.encode()).hexdigest() for k, text in emitted_specs(tmp_path).items()}
    assert got == recorded
