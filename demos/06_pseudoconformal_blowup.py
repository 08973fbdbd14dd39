"""The pseudoconformal family: integrable potential, non-integrable solution.

U(T, X) = exp(-i|X|^2/(4T)) T^(-n/2) exp(i/T) u0(X/T) solves the evolution
with V(T, X) = T^(-2) W(X/T).  For s in ]n/2, n[ with 1/(2r) + n/(2s) > 1 the
potential stays in L^r(0,1; L^s), while the solution's L^p L^q norm over
[delta, 1] grows like (1/delta - 1)^(1/p): finite on every [delta, 1], lost
at delta = 0.  A time reflection turns this into blow-up at a finite time.
"""
from fractions import Fraction as F

import numpy as np

from strz import (
    default_weight,
    ground_pair,
    lq_norm,
    make_grid,
    pseudoconformal_build,
    pseudoconformal_residual,
    pseudoconformal_solution_norm,
    standing_wave_potential,
)
from strz.counterexamples import (
    pseudoconformal_solution_norm_numeric,
    reflect_translate,
)

grid = make_grid(2, 12.0, 64)
gp = ground_pair(default_weight(grid, sigma=1.0))
W, u0 = standing_wave_potential(gp)

r, s, n = 1, F(3, 2), 2
fam, sampler = pseudoconformal_build(W, u0, r, s, n, delta=0.1)
print(f"potential norm ||V||_(L^{r}(0.1,1;L^{s})) = {fam.analytic_norm:.4f}  (finite)")

print("\n== solution norms grow as delta -> 0 ==")
for delta in (0.5, 0.25, 0.1, 0.02):
    closed = pseudoconformal_solution_norm(u0, 4, 4, delta)
    print(f"  delta = {delta:5}: ||U||_(L^4(delta,1;L^4)) = {closed:9.4f} "
          f"= (1/delta - 1)^(1/4) * ||u0||_4")
numeric = pseudoconformal_solution_norm_numeric(u0, 4, 4, 0.1)
closed = pseudoconformal_solution_norm(u0, 4, 4, 0.1)
print(f"  quadrature check at delta = 0.1: |numeric - closed|/closed = "
      f"{abs(numeric-closed)/closed:.2e}")

print("\n== U solves the equation: spectral residual under refinement ==")
for N in (32, 64, 128):
    g = make_grid(2, 20.0, N)
    gpn = ground_pair(default_weight(g, sigma=1.0))
    Wn, u0n = standing_wave_potential(gpn)
    res = pseudoconformal_residual(Wn, u0n, 0.5)
    print(f"  N = {N:4}: relative residual at T = 0.5: {res:.3e}")

print("\n== energy is conserved while L^p L^q norms blow up ==")
for T in (0.25, 0.5, 1.0):
    state = sampler(T)
    print(f"  T = {T}: ||U(T)||_2 / ||u0||_2 = {lq_norm(state, 2)/lq_norm(u0, 2):.8f}")

reflected = reflect_translate(sampler)
state = reflected(0.6)
print(f"\nreflected family at t = 0.6 equals conj(U(0.4)): "
      f"{np.abs(state.values - np.conj(sampler(0.4).values)).max():.2e}")
