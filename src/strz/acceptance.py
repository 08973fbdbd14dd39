"""Acceptance suite: the checks that certify a build of this package.

Each criterion is a function returning a CriterionResult with per-check
details; run_all executes them in order and prints one pass/fail line per
criterion.  The suite is also exposed through the ``verify`` CLI subcommand
and is wrapped test-by-test in tests/test_acceptance.py.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import counterexamples as cx
from . import exponents as xp
from . import groundstate as gs
from . import potentials as pt
from . import solver as sv
from . import spectral as sp
from .errors import PreconditionError
from .exponents import Exponent, ScheduleKind

F = Fraction


@dataclass
class CriterionResult:
    key: str
    title: str
    passed: bool
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    seconds: float = 0.0

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.key} {self.title} ({self.seconds:.1f}s)"

    def detail_lines(self) -> List[str]:
        return [
            f"    {'ok  ' if ok else 'FAIL'} {name}: {info}" for name, ok, info in self.checks
        ]


class Checks:
    def __init__(self):
        self.items: List[Tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, info: str = ""):
        self.items.append((name, bool(ok), info))

    def le(self, name: str, value: float, bound: float):
        self.add(name, value <= bound, f"{value:.3e} <= {bound:.3e}")

    def ge(self, name: str, value: float, bound: float):
        self.add(name, value >= bound, f"{value:.3e} >= {bound:.3e}")

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.items)


class AcceptanceContext:
    """Shared expensive objects, built lazily once per context and reused
    across criteria: the standing waves, one per grid, and the growth
    families built on the 3D one."""

    def __init__(self):
        self._waves = {}

    def standing_wave(self, n: int, L: float, N: int):
        """(W, u0) of the unit Gaussian weight on make_grid(n, L, N)."""
        if (n, L, N) not in self._waves:
            gp = gs.ground_pair(gs.default_weight(sp.make_grid(n, L, N), sigma=1.0))
            self._waves[n, L, N] = gs.standing_wave_potential(gp)
        return self._waves[n, L, N]

    @cached_property
    def growth_families(self):
        W, u0 = self.standing_wave(3, 10.0, 32)
        fams = {}
        for kind, (r, s) in [
            (ScheduleKind.GLOBAL_SUBCRITICAL, (4, 6)),
            (ScheduleKind.GLOBAL_SUPERCRITICAL, (1, 2)),
            (ScheduleKind.LOCAL, (1, 2)),
        ]:
            params = cx.schedule_params_for_growth(kind, r, s, 3)
            fams[kind] = cx.build_family(kind, r, s, 3, W, u0, K=200, params=params)
        return fams


# ---------------------------------------------------------------------------
# criteria


def c01_exponent_algebra(ctx: AcceptanceContext) -> Checks:
    ch = Checks()
    ch.add("admissible worked examples",
           xp.is_admissible("inf", 2, 3) and xp.is_admissible(2, 6, 3)
           and not xp.is_admissible(2, "inf", 2) and xp.is_admissible(4, 3, 3),
           "4 cases exact")
    ch.add("dual worked examples",
           xp.dual(2) == Exponent(2) and xp.dual("inf") == Exponent(1)
           and xp.dual(6) == Exponent(F(6, 5)), "3 cases exact")
    ch.add("classification worked examples",
           xp.classify_potential(2, 3, 3).criticality is xp.Criticality.CRITICAL
           and xp.classify_potential(4, 6, 3).criticality is xp.Criticality.SUBCRITICAL
           and xp.classify_potential("inf", F(3, 2), 3).criticality is xp.Criticality.CRITICAL,
           "3 cases exact")
    ch.add("scaling worked examples",
           xp.scaling_exponent(2, 3, 3) == 0 and xp.scaling_exponent("inf", "inf", 3) == 2
           and xp.scaling_exponent(1, 2, 3) == F(-3, 2), "3 cases exact")
    ch.add("holder split worked examples",
           xp.holder_split_case_a(2, 3, 3) == xp.ExponentPair(xp.INF, Exponent(2), 3)
           and xp.holder_split_case_a(4, 2, 3) == xp.ExponentPair(Exponent(4), Exponent(3), 3)
           and xp.holder_split_case_a(2, 4, 4) == xp.ExponentPair(xp.INF, Exponent(2), 4),
           "3 cases exact")
    pair, dual = xp.dual_pair_case_b(2, 3, 3)
    ch.add("dual pair worked examples",
           pair == xp.ExponentPair(Exponent(2), Exponent(6), 3)
           and dual == (Exponent(2), Exponent(F(6, 5))), "case (2,3,3) exact")
    sub = xp.global_subcritical_params(4, 6, 3)
    loc = xp.local_params(1, 2, 3)
    ch.add("selector outputs satisfy inequalities",
           xp.schedule_params_valid(sub, 4, 6, 3) and xp.schedule_params_valid(loc, 1, 2, 3),
           f"sub beta={sub.beta}, local beta={loc.beta}")
    ch.add("pseudoconformal worked examples",
           xp.pseudoconformal_ok(1, 2, 3) and not xp.pseudoconformal_ok(2, F(3, 2), 2),
           "2 cases exact")

    rng = random.Random(11)

    def rand_exp(lo, hi, den=32):
        d = rng.randint(1, den)
        return F(rng.randint(int(lo * d) + 1, int(hi * d)), d)

    fails = 0
    for _ in range(1000):
        e = Exponent(rand_exp(1, 64))
        if xp.dual(xp.dual(e)) != e:
            fails += 1
    ch.add("dual involution x1000", fails == 0, f"{fails} failures")

    fails = 0
    trials = 0
    while trials < 1000:
        n = rng.choice([2, 3])
        r = F(2) + rand_exp(0, 28)
        s_rec = F(2, n) * (1 - 1 / r)
        if s_rec <= 0:
            continue
        s = 1 / s_rec
        if s < 1 or (n == 2 and r == 2):
            continue
        pair = xp.holder_split_case_a(Exponent(r), Exponent(s), n)
        if not pair.admissible:
            fails += 1
        trials += 1
    ch.add("holder split admissible x1000", fails == 0, f"{fails} failures")

    fails = 0
    for _ in range(1000):
        n = rng.choice([2, 3])
        r = Exponent(rand_exp(1, 16, 16))
        s = Exponent(rand_exp(1, 16, 16))
        sigma = xp.scaling_exponent(r, s, n)
        crit = xp.classify_potential(r, s, n).criticality
        if (sigma == 0) != (crit is xp.Criticality.CRITICAL):
            fails += 1
    ch.add("criticality-scaling equivalence x1000", fails == 0, f"{fails} failures")

    fails = 0
    for _ in range(1000):
        n = rng.choice([2, 3])
        s = F(n, 2) + (F(n) - F(n, 2)) * F(rng.randint(1, 31), 32)
        r = rand_exp(1, 20, 16)
        if xp.pseudoconformal_ok(Exponent(r), Exponent(s), n) != (r * (n / s - 2) > -1):
            fails += 1
    ch.add("pseudoconformal equivalence x1000", fails == 0, f"{fails} failures")

    done = 0
    fails = 0
    while done < 500:
        n = rng.choice([2, 3])
        r = Exponent(rand_exp(1, 12, 16))
        s = Exponent(rand_exp(1, 12, 16))
        cls = xp.classify_potential(r, s, n)
        if cls.criticality is xp.Criticality.SUBCRITICAL:
            p = xp.global_subcritical_params(r, s, n)
        elif cls.criticality is xp.Criticality.SUPERCRITICAL:
            p = xp.local_params(r, s, n)
        else:
            continue
        if not xp.schedule_params_valid(p, r, s, n):
            fails += 1
        done += 1
    ch.add("schedule params invariants x500", fails == 0, f"{fails} failures")
    return ch


def c02_free_propagator(ctx: AcceptanceContext) -> Checks:
    ch = Checks()
    grid = sp.make_grid(1, 20.0, 512)
    u0 = sp.gaussian_field(grid, sigma=1.0)
    x = grid.axis()
    max_err = 0.0
    for t in np.linspace(0.1, 1.0, 8):
        a = 1.0 - 2j * t
        exact = a ** (-0.5) * np.exp(-(x**2) / (2.0 * a))
        ut = sp.free_propagate(u0, float(t))
        err = float(sp.lq_norms(ut.values - exact, grid, 2))
        max_err = max(max_err, err)
    ch.le("gaussian closed form max L2 error", max_err, 1e-8)

    rng = np.random.default_rng(0)
    dev = 0.0
    for seed in range(3):
        vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        u = sp.ComplexField(grid, vals)
        n0 = sp.lq_norm(u, 2)
        for t in (0.5, 1.0):
            dev = max(dev, abs(sp.lq_norm(sp.free_propagate(u, t), 2) / n0 - 1.0))
    ch.le("unitarity deviation", dev, 1e-12)
    return ch


def c03_dispersive_decay(ctx: AcceptanceContext) -> Checks:
    ch = Checks()
    for n, N in ((1, 1024), (2, 512)):
        grid = sp.make_grid(n, 48.0, N)
        u0 = sp.gaussian_field(grid, sigma=0.5)
        fit = sp.dispersive_decay_fit(u0, (0.5, 4.0))
        rel = abs(fit.slope - (-n / 2)) / (n / 2)
        ch.le(f"n={n} decay slope rel deviation", rel, 0.05)
    return ch


def c04_ground_state(ctx: AcceptanceContext) -> Checks:
    ch = Checks()
    grid = sp.make_grid(1, 12.0, 64)
    w = gs.default_weight(grid, sigma=1.0)
    gp = gs.ground_pair(w)

    # dense oracle: largest eigenvalue of diag(sqrt w) (-Lap+1)^-1 diag(sqrt w)
    wv = w.values.real
    sq = np.sqrt(np.clip(wv, 0.0, None))
    cols = []
    for j in range(grid.N):
        e = np.zeros(grid.N)
        e[j] = 1.0
        cols.append(gs.helmholtz_solve(e, grid).real)
    S = sq[:, None] * np.array(cols).T * sq[None, :]
    mu_oracle = 1.0 / np.linalg.eigvalsh(0.5 * (S + S.T))[-1]
    ch.le("mu vs dense oracle rel", abs(gp.mu - mu_oracle) / mu_oracle, 1e-8)
    ch.le("euler-lagrange residual", gp.residual, 1e-8)
    ch.le("variational identity", abs(gp.mu - gs.h1_norm_sq(gp.f)), 1e-8)

    L, sigma = 24.0, 0.885
    mus = {}
    for N in (32, 64, 128, 512):
        g = sp.make_grid(1, L, N)
        mus[N] = gs.ground_pair(gs.default_weight(g, sigma=sigma)).mu
    e32 = abs(mus[32] - mus[512])
    e64 = abs(mus[64] - mus[512])
    e128 = abs(mus[128] - mus[512])
    ch.ge("mu convergence order 32->64", math.log2(e32 / e64), 2.0)
    ch.ge("mu convergence order 64->128", math.log2(e64 / e128), 2.0)
    return ch


def c05_standing_wave(ctx: AcceptanceContext) -> Checks:
    ch = Checks()
    W, u0 = ctx.standing_wave(2, 12.0, 128)
    probe = cx.PhaseProbe(u0)
    rep = sv.split_step_evolve(u0, pt.StaticPotential(W), interval=(0.0, 5.0), dt=1e-3,
                               step_probe=probe)
    ch.le("phase error at all samples", probe.worst, 1e-3)
    ch.le("energy drift", rep.energy_drift, 1e-10)
    return ch


def c06_contraction_solver(ctx: AcceptanceContext) -> Checks:
    ch = Checks()
    W, u0 = ctx.standing_wave(2, 10.0, 32)
    grid = u0.grid
    refs = [pt.StaticPotential(W),
            pt.StaticPotential(pt.real_profile(grid, 1.5 * W.values.real))]
    tau = sv.calibrate_tau(refs, grid, dt=0.01, interval=(0.0, 1.0), rounds=8)
    ch.add("calibrated tau", 0 < tau <= 8.0, f"tau = {tau:.4f}")

    rep = sv.solve_global(u0, None, pt.StaticPotential(W), (0.0, 2.0), 2, 2, tau=tau,
                          dt=5e-3, pairs=[])
    max_factor = max((max(fs) for fs in rep.contraction_factors if fs), default=0.0)
    ch.le("max contraction factor", max_factor, 0.6)

    ss = sv.split_step_evolve(u0, pt.StaticPotential(W), interval=(0.0, 2.0), dt=5e-3,
                              store_every=1)
    by_time = {round(float(t), 9): s for t, s in zip(ss.trajectory.times, ss.trajectory.states)}
    gap = 0.0
    for t, s in zip(rep.trajectory.times, rep.trajectory.states):
        other = by_time[round(float(t), 9)]
        d = float(sp.lq_norms(s.values - other.values, grid, 2))
        gap = max(gap, d / sp.lq_norm(u0, 2))
    ch.le("fixed point vs split-step LinfL2", gap, 1e-3)

    res0 = sv.duhamel_iterate(u0, None, pt.ZeroPotential(), (0.0, 1.0), dt=0.01)
    ch.add("V=0 converges in one iteration", res0.iterations == 1,
           f"iterations = {res0.iterations}")
    return ch


def c07_partitioner(ctx: AcceptanceContext) -> Checks:
    ch = Checks()
    grid = sp.make_grid(1, 16.0, 128)
    bump = pt.real_profile(grid, sp.gaussian_field(grid, sigma=1.0).values)
    rng = random.Random(99)
    r, s = Exponent(2), Exponent(2)
    params = xp.ScheduleParams(alpha=F(3, 2), beta=F(2), kind=ScheduleKind.LOCAL)
    tiled_ok = True
    bound_ok = True
    greedy_ok = True
    instances = 0
    while instances < 100:
        nslices = rng.randint(4, 64)
        dt = 0.125
        T = nslices * dt
        windows = []
        t0 = 0.0
        k = 1
        while t0 < T - dt / 2:
            length = min(rng.randint(1, 4) * dt, T - t0)
            if rng.random() < 0.7:
                windows.append(pt.Window(k=k, start=t0, length=length,
                                         eps=rng.choice([0.5, 0.75, 1.0, 1.5])))
                k += 1
            t0 += length
        if not windows:
            continue
        sched = pt.Schedule(kind=ScheduleKind.LOCAL, params=params, n=1,
                            windows=tuple(windows), total_time=T)
        V = pt.PatchedRescaledPotential(bump, sched)
        powers, dt_eff = pt.slice_powers(V, r, s, (0.0, T), dt)
        tau = math.sqrt(max(float(powers.max()), 1e-12) * rng.uniform(1.2, 6.0))
        part = pt.partition_interval(V, r, s, (0.0, T), tau=tau, dt=dt)
        if abs(part.pieces[0][0]) > 1e-12 or abs(part.pieces[-1][1] - T) > 1e-9:
            tiled_ok = False
        for (a0, b0), (a1, b1) in zip(part.pieces, part.pieces[1:]):
            if abs(b0 - a1) > 1e-9:
                tiled_ok = False
        if any(nrm > tau * (1 + 1e-9) for nrm in part.piece_norms):
            bound_ok = False
        # brute-force minimal piece count oracle
        m = len(powers)
        INFTY = 10**9
        dp = [0] + [INFTY] * m
        budget = tau**2
        for i in range(1, m + 1):
            total = 0.0
            for j in range(i - 1, -1, -1):
                total += powers[j]
                if total > budget * (1 + 1e-12):
                    break
                dp[i] = min(dp[i], dp[j] + 1)
        if len(part) != dp[m]:
            greedy_ok = False
        instances += 1
    ch.add("pieces tile the interval x100", tiled_ok, "")
    ch.add("piece norms within tau x100", bound_ok, "")
    ch.add("greedy count equals brute force x100", greedy_ok, "")
    return ch


def c08_scaling_law(ctx: AcceptanceContext) -> Checks:
    ch = Checks()
    rng = random.Random(23)
    worst = 0.0
    cases = 0
    crit_cases = 0
    while cases < 20:
        n = rng.choice([2, 3])
        N = 32 if n == 2 else 16
        grid = sp.make_grid(n, 8.0, N)
        base = pt.real_profile(grid, sp.gaussian_field(grid, sigma=1.2).values)
        if cases % 2 == 0:
            # critical pair: 1/r + n/(2s) = 1
            r = F(rng.randint(2, 8))
            s = 1 / (F(2, n) * (1 - 1 / r))
            if s < 1:
                continue
            crit_cases += 1
        else:
            r = F(rng.randint(1, 8))
            s = F(rng.randint(1, 8))
        sigma = xp.scaling_exponent(Exponent(r), Exponent(s), n)
        T = 1.0
        ref = pt.mixed_norm(pt.StaticPotential(base), Exponent(r), Exponent(s), (0.0, T),
                            dt=0.05)
        for eps in (0.5, 2.0):
            scaled_grid = sp.make_grid(n, grid.L / eps, N)
            scaled = pt.real_profile(scaled_grid, eps**2 * base.values)
            got = pt.mixed_norm(pt.StaticPotential(scaled), Exponent(r), Exponent(s),
                                (0.0, T / eps**2), dt=0.05 / eps**2)
            predicted = eps ** float(sigma) * ref
            worst = max(worst, abs(got - predicted) / predicted)
            if sigma == 0:
                worst = max(worst, abs(got - ref) / ref)
        cases += 1
    ch.le("rescaled mixed-norm rel error (20 cases)", worst, 1e-6)
    ch.ge("critical cases included", float(crit_cases), 5.0)
    return ch


def c09_counterexample_divergence(ctx: AcceptanceContext) -> Checks:
    ch = Checks()
    for kind, fam in ctx.growth_families.items():
        bound = fam.analytic_norm
        ch.add(f"{kind.value}: analytic norm finite",
               bound.converges and bound.total is not None
               and math.isfinite(bound.tail_bound),
               f"total <= {bound.total:.4f}, tail <= {bound.tail_bound:.2e}")
        for p, q in [(2, 6), (F(8, 3), 4)]:
            rs = cx.ratio_series(fam, p, q, fit_range=(10, 200))
            rel = abs(rs.fitted_slope - rs.predicted_slope) / rs.predicted_slope
            ch.le(f"{kind.value} ({p},{q}): slope rel error", rel, 0.10)
            growth = rs.ratios[-1] / rs.ratios[0]
            ch.ge(f"{kind.value} ({p},{q}): R_200 / R_1", growth, 10.0)
    return ch


def c10_window_crosscheck(ctx: AcceptanceContext) -> Checks:
    ch = Checks()
    W, u0 = ctx.standing_wave(3, 16.0, 64)
    fam = cx.build_family(ScheduleKind.GLOBAL_SUBCRITICAL, 4, 6, 3, W, u0, K=3)
    checks = cx.window_crosscheck(fam, [1, 2, 3], dt=8e-3, pairs=[(2, 6), (F(8, 3), 4)])
    for c in checks:
        for (p, q), err in c.norm_errors.items():
            ch.le(f"window {c.k} ({p},{q}) norm rel error", err, 0.02)
        e_rel = abs(c.energy_start - c.energy_predicted) / c.energy_predicted
        ch.le(f"window {c.k} start energy rel error", e_rel, 0.01)
    return ch


def c11_pseudoconformal(ctx: AcceptanceContext) -> Checks:
    ch = Checks()
    W, u0 = ctx.standing_wave(2, 12.0, 64)
    r, s, n = Exponent(1), Exponent(F(3, 2)), 2
    w_snorm = sp.lq_norm(W, s)
    sol_norms = {}
    for delta in (0.1, 0.25, 0.5):
        closed_v = pt.analytic_pseudoconformal_norm(r, s, n, delta, w_snorm)
        numeric_v = pt.mixed_norm(pt.PseudoconformalPotential(W), r, s, (delta, 1.0),
                                  dt=2e-5)
        ch.le(f"delta={delta}: potential norm rel error",
              abs(closed_v - numeric_v) / closed_v, 1e-6)
        closed_u = cx.pseudoconformal_solution_norm(u0, 4, 4, delta)
        numeric_u = cx.pseudoconformal_solution_norm_numeric(u0, 4, 4, delta, nt=8193)
        ch.le(f"delta={delta}: solution norm rel error",
              abs(closed_u - numeric_u) / closed_u, 1e-6)
        sol_norms[delta] = numeric_u

    xs = [math.log(1.0 / d - 1.0) for d in sol_norms]
    ys = [math.log(v) for v in sol_norms.values()]
    slope = float(np.polyfit(xs, ys, 1)[0])
    ch.le("solution norm growth slope vs 1/p", abs(slope - 0.25) / 0.25, 0.05)

    residuals = {}
    for N in (32, 64, 128):
        Wn, u0n = ctx.standing_wave(2, 20.0, N)
        residuals[N] = [cx.pseudoconformal_residual(Wn, u0n, T) for T in (0.3, 0.6, 0.9)]
    for i, T in enumerate((0.3, 0.6, 0.9)):
        ch.ge(f"residual drop 32->64 at T={T}", residuals[32][i] / residuals[64][i], 4.0)
        ch.ge(f"residual drop 64->128 at T={T}", residuals[64][i] / residuals[128][i], 4.0)
    return ch


def c12_energy_pair_exclusion(ctx: AcceptanceContext) -> Checks:
    ch = Checks()
    for kind, fam in ctx.growth_families.items():
        rs = cx.ratio_series(fam, "inf", 2)
        dev = float(np.abs(rs.ratios - 1.0).max())
        ch.le(f"{kind.value}: (inf,2) series deviation from 1", dev, 1e-10)
    return ch


# (key, title, body, runtime bound in seconds or None)
CRITERIA: List[Tuple[str, str, Callable[[AcceptanceContext], Checks], Optional[float]]] = [
    ("c01", "exponent algebra: worked examples and 1000-case property suites", c01_exponent_algebra, 1.0),
    ("c02", "free propagator: gaussian closed form and unitarity", c02_free_propagator, 5.0),
    ("c03", "dispersive decay exponent within 5% of -n/2", c03_dispersive_decay, 30.0),
    ("c04", "ground state: dense oracle, residual, identity, convergence order", c04_ground_state, None),
    ("c05", "standing wave: phase accuracy and energy conservation", c05_standing_wave, None),
    ("c06", "contraction solver: calibrated tau, factors, split-step agreement", c06_contraction_solver, None),
    ("c07", "partitioner: tiling, norm bounds, greedy optimality", c07_partitioner, None),
    ("c08", "scaling law of rescaled mixed norms", c08_scaling_law, None),
    ("c09", "counterexample divergence: slopes, growth, finite norms", c09_counterexample_divergence, 10.0),
    ("c10", "window cross-check: numeric window norms and energies", c10_window_crosscheck, None),
    ("c11", "pseudoconformal: norms, residual refinement, blow-up rate", c11_pseudoconformal, None),
    ("c12", "(inf,2) exclusion: ratio series constant by energy conservation", c12_energy_pair_exclusion, None),
]


def run_criterion(key: str, ctx: Optional[AcceptanceContext] = None) -> CriterionResult:
    ctx = ctx or AcceptanceContext()
    for k, title, fn, bound in CRITERIA:
        if k == key:
            start = time.perf_counter()
            checks = fn(ctx)
            elapsed = time.perf_counter() - start
            if bound is not None:
                checks.le("runtime (s)", elapsed, bound)
            return CriterionResult(key=k, title=title, passed=checks.passed,
                                   checks=checks.items, seconds=elapsed)
    raise KeyError(f"unknown criterion {key}")


def run_all(keys: Optional[Sequence[str]] = None,
            verbose: bool = False) -> List[CriterionResult]:
    known = [k for k, _, _, _ in CRITERIA]
    selected = keys or known
    unknown = [k for k in selected if k not in known]
    if unknown:  # before any criterion runs
        raise PreconditionError(f"unknown criteria: {', '.join(unknown)}")
    ctx = AcceptanceContext()
    results = []
    for key in selected:
        result = run_criterion(key, ctx)
        print(result.line())
        if verbose or not result.passed:
            for line in result.detail_lines():
                print(line)
        results.append(result)
    return results
