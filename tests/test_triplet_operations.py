"""Pinned library outputs of the triplet operations: restriction, ideal-wise
deformation and rescaling, local isomorphisms, reduction and stabilizers.

Each value is written with its type: an ``int`` as a JSON number and a
``Fraction`` as its "p/q" string, so a change of value or of type fails.
Run this file as a script to re-record ``golden/triplet_operations.json``
from the installed glaw.
"""

import json
from fractions import Fraction
from pathlib import Path

from glaw import Matrix, QuadraticForm, box_rescale_rep, deform_form, reduce_triplet, triplet_iso_extend
from glaw.exactla import SparseCols
from glaw.generators import gen_glblock, gen_stabilizer_triplet, gen_symplectic, gen_with_trivial_summand
from glaw.generators import stabilizer_of_poly
from glaw.liecore import FundamentalTriplet, LieAlgebraData, basis_vector, direct_sum_with_zero_factor
from glaw.localg import scale_by_components
from glaw.sl2 import PolyInvariant

F = Fraction
GOLDEN = Path(__file__).parent / "golden" / "triplet_operations.json"


def encode(x):
    """A JSON value keeping the int/Fraction distinction of every scalar."""
    if isinstance(x, Fraction):
        return str(x)
    if type(x) is int or x is None:
        return x
    if isinstance(x, Matrix):
        return encode(x.entries)
    if isinstance(x, SparseCols):
        return {"shape": [x.rows, x.cols], "support": encode(x.support)}
    if isinstance(x, FundamentalTriplet):
        return {
            "structure_pairs": encode(x.g0.structure_pairs),
            "gram": encode(x.b0.gram),
            "action_cols": encode(x.rho.action_cols),
        }
    if isinstance(x, dict):
        return {k: encode(v) for k, v in x.items()}
    if isinstance(x, (tuple, list)):
        return [encode(v) for v in x]
    raise TypeError(f"cannot encode {x!r}")


def glblock_ideals(n):
    dim = 2 * n * n - 1
    return [[basis_vector(dim, 0)], [basis_vector(dim, k) for k in range(1, n * n)],
            [basis_vector(dim, k) for k in range(n * n, dim)]]


# gl(2) on E00, E01, E10, E11: the identity, then a basis of its trace-orthogonal complement
IDENT = (F(1), F(0), F(0), F(1))
SL2_IDEALS = [[IDENT], [(F(0), F(1), F(0), F(0)), (F(0), F(0), F(1), F(0)), (F(-1), F(0), F(0), F(1))]]


def sym_square_2():
    return gen_symplectic(2, 2, 2, "trace")


def conjugation_map():
    """A = conjugation by g = [[1, 1], [0, 1]] on gl(2), by columns, and g."""
    g, g_inv = Matrix.from_rows([[1, 1], [0, 1]]), Matrix.from_rows([[1, -1], [0, 1]])
    cols = []
    for a in range(2):
        for b in range(2):
            m = g @ Matrix.from_rows([[1 if (i, j) == (a, b) else 0 for j in range(2)] for i in range(2)]) @ g_inv
            cols.append([m.entries[i][j] for i in range(2) for j in range(2)])
    return Matrix.from_cols(cols, nrows=4), g


def rep_kernel_triplet():
    base = gen_symplectic(2, 1, 1, "trace")
    return direct_sum_with_zero_factor(base, base.g0, base.b0)


def kernel_and_trivial_triplet():
    base = gen_symplectic(2, 1, 1, "trace")
    extra = direct_sum_with_zero_factor(base, LieAlgebraData.abelian(1), QuadraticForm(Matrix.identity(1)))
    return gen_with_trivial_summand(extra, 1)


def reduction(t):
    r = reduce_triplet(t, assert_completely_reducible=True)
    return {
        "transitive_part": r.transitive_part,
        "v0": r.v0,
        "v1": r.v1,
        "g0_kernel": r.g0_kernel,
        "g0_faithful": r.g0_faithful,
    }


def outputs() -> dict:
    glb2, glb3, sq2 = gen_glblock(2, 1, 1), gen_glblock(3, 1, 2), sym_square_2()
    a_map, g = conjugation_map()
    t = gen_symplectic(2, 1, 1, "trace")
    quad = PolyInvariant.from_string("x0^2+x1^2", 2)
    cubic = PolyInvariant.from_string("x0*x1*x2", 3)
    return {
        "deform_form glblock-2 (5/2, 2, 3)": deform_form(glb2, glblock_ideals(2), [F(5, 2), F(2), F(3)]).b0.gram,
        "deform_form glblock-3 (5/2, -2/3, 7)": deform_form(glb3, glblock_ideals(3), [F(5, 2), F(-2, 3), F(7)]).b0.gram,
        "deform_form sym-square-2 (3, 1/2)": deform_form(sq2, SL2_IDEALS, [F(3), F(1, 2)]).b0.gram,
        "deform_form sym-square-2 (-2, 5/3)": deform_form(sq2, SL2_IDEALS, [F(-2), F(5, 3)]).b0.gram,
        "box_rescale_rep sym-square-2 2": box_rescale_rep(sq2, [IDENT], F(2)).rho.action_cols,
        "box_rescale_rep sym-square-2 3": box_rescale_rep(sq2, [IDENT], F(3)).rho.action_cols,
        "box_rescale_rep sym-square-2 -1/2": box_rescale_rep(sq2, [IDENT], F(-1, 2)).rho.action_cols,
        "scale_by_components glblock-2": [
            scale_by_components(glb2, glblock_ideals(2), [F(3, 2), F(1), F(2)], u)
            for u in (basis_vector(7, 0), tuple(F(k - 3, k + 1) for k in range(7)))
        ],
        "scale_by_components sym-square-2": [
            scale_by_components(sq2, SL2_IDEALS, [F(3), F(1, 2)], u)
            for u in (basis_vector(4, 0), basis_vector(4, 3), (F(1), F(2), F(-3), F(4, 5)))
        ],
        "triplet_iso_extend conjugation gamma_tilde": triplet_iso_extend(t, t, a_map, g).gamma_tilde,
        "reduce_triplet g2-cubic-trivial": reduction(gen_with_trivial_summand(gen_symplectic(2, 3, 1, "g2"), 2)),
        "reduce_triplet gl2 + kernel gl2": reduction(rep_kernel_triplet()),
        "reduce_triplet gl2 + kernel + trivial": reduction(kernel_and_trivial_triplet()),
        "stabilizer_of_poly x0^2+x1^2": stabilizer_of_poly(2, quad),
        "stabilizer_of_poly x0*x1*x2": stabilizer_of_poly(3, cubic),
        "gen_stabilizer_triplet x0^2+x1^2 2": gen_stabilizer_triplet(quad, 2),
        "gen_stabilizer_triplet x0^2+x1^2+x2^2 1": gen_stabilizer_triplet(
            PolyInvariant.from_string("x0^2+x1^2+x2^2", 3), 1
        ),
    }


def test_outputs_match_the_recorded_values_and_types():
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = {name: encode(value) for name, value in outputs().items()}
    assert list(got) == list(recorded)
    for name, value in recorded.items():
        assert got[name] == value, name


if __name__ == "__main__":
    record = {name: encode(value) for name, value in outputs().items()}
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
