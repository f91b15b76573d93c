"""Build a fundamental triplet and inspect its local three-piece algebra.

A fundamental triplet is a Lie algebra g0 with a nondegenerate invariant
symmetric form B0 and a finite-dimensional representation (rho, V).  On
V* + g0 + V there is then a unique partial bracket extending rho and its
contragredient, with [X,Y] in g0 pinned down by B0([X,Y],U) = Y(rho(U)X).
Everything below is exact rational arithmetic.
"""

from glaw import build_local, gen_symplectic, transitivity_check, validate
from glaw.liecore import basis_vector

# gl(2) acting on quadratic polynomials in two variables, trace form,
# center rescaled to act by 2: the local part of the rank-2 symplectic algebra
t = gen_symplectic(2, 2, 2, "trace")
print("triplet dims: g0 =", t.dim_g0, " V =", t.dim_v)

report = validate(t)
print("validation clean:", report.ok)

L = build_local(t)
print("transitivity:", transitivity_check(L))

# the degree-(1,-1) bracket of the first monomial against its dual covector,
# written as a gl(2) coefficient vector over the elementary-matrix basis
x = basis_vector(t.dim_v, 0)  # the monomial x0^2
y = basis_vector(t.dim_v, 0)  # the covector dual to x0^2
print("[x0^2, f_{x0^2}] =", [str(c) for c in L.bracket_xy(x, y)])

# the bracket table is G^-1 R, G^-1 from one sparse solve against the unit vectors; the mixed Jacobi identity
# [U,[X,Y]] = [[U,X],Y] + [X,[U,Y]] was re-verified exhaustively during build
print("bracket table size:", len(L.xy_table), "x", len(L.xy_table[0]))
