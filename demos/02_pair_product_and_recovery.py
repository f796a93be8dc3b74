"""The pair product metric on 2-forms and metric recovery.

G = g (.) g with components G_ijkl = g_ik g_jl - g_il g_jk carries all the
algebraic symmetries of a curvature tensor, is positive on decomposable
2-forms, and for n >= 3 determines g up to sign.  The demo exercises the
closed-form recovery, its failure for n = 2, and the degree-8 identity that
ties g to G.
"""

import numpy as np

from riemflow import (
    DimensionTooSmall,
    bialternate_product,
    kulkarni_nomizu,
    recover_metric,
    verify_recovery_identity,
)

rng = np.random.default_rng(42)

print("== structure ==")
g = rng.normal(size=(3, 3)) * 0.4
g = g @ g.T + np.eye(3)
G = bialternate_product(g)
print(f"independent components for n=3: {G.independent_component_count(3)}")
X, Y = rng.normal(size=3), rng.normal(size=3)
quad = np.einsum("ijkl,i,j,k,l->", G.array[0], X, Y, X, Y)
gram = (X @ g @ X) * (Y @ g @ Y) - (X @ g @ Y) ** 2
print(f"G(X,Y,X,Y) = {quad:+.6f}   Gram determinant = {gram:+.6f}")
print(f"(g ^ g) equals 2 G: "
      f"{np.abs(kulkarni_nomizu(g, g) - 2 * G.array).max():.2e}")

print("\n== recovery: closed form from the 3 x 3 cofactor blocks ==")
for n in (3, 4, 5):
    a = rng.normal(size=(n, n)) * 0.4
    gn = a @ a.T + np.eye(n)
    rec = recover_metric(bialternate_product(gn), n)
    print(f"n={n}: max |recovered - original| = {np.abs(rec - gn).max():.2e}")

print("\nrecovery is impossible for n = 2 (only det g survives):")
try:
    recover_metric(bialternate_product(np.diag([2.0, 3.0])), 2)
except DimensionTooSmall as exc:
    print(f"  refused as expected: {exc}")

print("\n== the degree-8 identity ==")
for label, gm in (("identity", np.eye(3)),
                  ("diag(1,2,3)", np.diag([1.0, 2.0, 3.0])),
                  ("random SPD", g)):
    print(f"  {label}: max residual {verify_recovery_identity(gm):.2e}")
