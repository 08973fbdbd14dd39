"""The Duhamel fixed point: contraction on small-norm pieces, then chaining.

The integral-equation map Phi(v) = exp(it Lap) u0 - i Duhamel[F - V v]
contracts once the piece's mixed potential norm is small.  calibrate_tau
finds the workable threshold empirically; solve_global partitions the
interval greedily, iterates piece by piece, and reports the chained constant
bound k (1 + 2 c_hat)^k.
"""
from strz import (
    StaticPotential,
    calibrate_tau,
    default_weight,
    duhamel_iterate,
    ground_pair,
    lq_norm,
    make_grid,
    mixed_norm,
    partition_interval,
    real_profile,
    solve_global,
    split_step_evolve,
    standing_wave_potential,
)
from strz.spectral import lq_norms

grid = make_grid(2, 10.0, 32)
gp = ground_pair(default_weight(grid, sigma=1.0))
W, u0 = standing_wave_potential(gp)
V = StaticPotential(W)

print("== contraction factors scale with the piece's mixed norm ==")
for c in (0.5, 1.0, 2.0):
    Vc = StaticPotential(real_profile(grid, c * W.values.real))
    piece_norm = mixed_norm(Vc, 2, 2, (0.0, 0.25), dt=0.01)
    res = duhamel_iterate(u0, None, Vc, (0.0, 0.25), dt=0.01)
    print(f"  amplitude x{c}: piece norm {piece_norm:.3f}, "
          f"max factor {max(res.factors):.3f}, iterations {res.iterations}")

print("\n== calibrating the smallness threshold tau ==")
tau = calibrate_tau([V], grid, dt=0.01, rounds=8)
print(f"  tau = {tau:.4f}  (c_hat = 1/(2 tau) = {1/(2*tau):.4f})")

print("\n== partition and chain on [0, 2] ==")
part = partition_interval(V, 2, 2, (0.0, 2.0), tau=tau, dt=5e-3)
print(f"  pieces: {len(part)}, piece norms: {[round(float(x), 3) for x in part.piece_norms]}")
rep = solve_global(u0, None, V, (0.0, 2.0), 2, 2, tau=tau, dt=5e-3, pairs=[])
print(f"  per-piece max factors: "
      f"{[round(max(f), 3) if f else 0.0 for f in rep.contraction_factors]}")
print(f"  chained constant bound k(1+2c)^k = {rep.constant_bound:.1f}")

ss = split_step_evolve(u0, V, interval=(0.0, 2.0), dt=5e-3, store_every=1)
by_time = {round(float(t), 9): s for t, s in zip(ss.trajectory.times, ss.trajectory.states)}
gap = max(
    lq_norms(s.values - by_time[round(float(t), 9)].values, grid, 2)
    for t, s in zip(rep.trajectory.times, rep.trajectory.states)
) / lq_norm(u0, 2)
print(f"  fixed point vs split-step, LinfL2 relative gap: {gap:.3e}")
