"""Grow minimal graded algebras degree by degree and assemble the finite ones.

Each new degree is the image of Phi(x (x) u)(y) = [[y,x],u] + [x,[y,u]], the
Jacobi rewrite of lowering a candidate bracket; transitivity makes the kernel
of lowering exactly the excess.  When both sides terminate, the whole tower
assembles into plain structure constants that can be checked directly.
"""

from glaw import NEGATIVE, POSITIVE, assemble, build_local, gen_symplectic, grow
from glaw.liecore import killing_rank_and_center_dim

FAMILIES = [
    ("quadratics, n=2 (rank-2 symplectic algebra)", gen_symplectic(2, 2, 2, "trace")),
    ("quadratics, n=3 (rank-3 symplectic algebra)", gen_symplectic(3, 2, 2, "trace")),
    ("linear forms, n=3 (special linear algebra)", gen_symplectic(3, 1, 4, "sl-shifted")),
    ("cubics, n=2 (the 14-dimensional exceptional algebra)", gen_symplectic(2, 3, 1, "g2")),
]

for label, triplet in FAMILIES:
    local = build_local(triplet)
    tp = grow(local, POSITIVE, 4)
    tn = grow(local, NEGATIVE, 4)
    print(f"{label}")
    print("  positive dims:", tp.dims(), " negative dims:", tn.dims())
    asm = assemble(tp, tn, local)
    kf_rank, center_dim = killing_rank_and_center_dim(asm.algebra)
    print(f"  assembled dim {asm.algebra.dim}, Killing rank {kf_rank},", f"center dim {center_dim}")

# the degree labels attached to the assembled basis show the grading blocks
local = build_local(FAMILIES[3][1])
asm = assemble(grow(local, POSITIVE, 4), grow(local, NEGATIVE, 4), local)
print("exceptional grading blocks:", {d: n for d, (_, n) in sorted(asm.blocks.items())})
