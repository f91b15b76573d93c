"""Non-transitive inputs: refuse, split, grow the core, glue back.

Growth requires a transitive local part (no nonzero element may commute with
the whole opposite generator space).  A trivial summand in V or a kernel
ideal in g0 breaks that; the reduction splits both off, the core grows as
usual, and the minimal algebra of the original input is the core plus the
split pieces with zero brackets.  The finiteness report wraps the whole
story into one advisory.
"""

from glaw import (
    POSITIVE,
    TransitivityRequired,
    assemble_nontransitive,
    build_local,
    finiteness_report,
    gen_symplectic,
    gen_with_trivial_summand,
    grow,
    reduce_triplet,
    transitivity_check,
)
from glaw.liecore import center

base = gen_symplectic(2, 1, 3, "sl-shifted")  # terminates: an 8-dimensional core
t = gen_with_trivial_summand(base, 1)

local = build_local(t)
print("transitivity:", transitivity_check(local))
try:
    grow(local, POSITIVE, 2)
except TransitivityRequired as exc:
    print("grow refused:", exc)
print()

red = reduce_triplet(t)
print("trivial summand dim:", len(red.v0), " kernel dim:", len(red.g0_kernel))
print("core module dim:", red.transitive_part.dim_v)

asm = assemble_nontransitive(t, 4)
print("glued algebra dim:", asm.algebra.dim, "(core 8 + summand and its dual)")
print("glued center dim:", len(center(asm.algebra)), "(the summand and its dual)")
print()

report = finiteness_report(build_local(base), 4, irreducible_components=1)
print("core finiteness:", report.advisory)
print("  dims:", report.dims_pos, " Killing nondegenerate:", report.killing_nondegenerate)
