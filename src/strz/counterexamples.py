"""Cascade and pseudoconformal families whose Strichartz ratios diverge.

Every family is built on a standing-wave base (W, u0) with
-Lap(u0) + W u0 + u0 = 0.  Within window k of a cascade the solution is the
rescaled standing wave u(t, x) = exp(-i eps_k^2 t) u0(eps_k x), so its window
norms are pure powers of the schedule data; ratio series are therefore
computed from grid norms of u0 plus exact schedule algebra, and full numeric
evolution is reserved for the window cross-check, which works in
window-rescaled coordinates where every window reduces to the base
standing-wave problem.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DivergentNormError, PreconditionError, RegimeError
from .exponents import (
    Exponent,
    ExponentLike,
    ScheduleKind,
    ScheduleParams,
    admissible_pair,
    as_exponent,
    classify_potential,
    global_subcritical_params,
    local_params,
    pseudoconformal_ok,
    validate_schedule_params,
)
from .potentials import (
    PatchedNormBound,
    PatchedRescaledPotential,
    PseudoconformalPotential,
    Schedule,
    StaticPotential,
    analytic_patched_norm,
    analytic_pseudoconformal_norm,
    make_schedule,
)
from .solver import split_step_evolve
from .spectral import ComplexField, Grid, _ksq, lq_norm, lq_norms, rescale_field, time_lp

# Box tolerances (outer-shell fractions of |u|^2, see spectral.check_support)
# for rescalings of the base eigenfunction u0, which decays only like e^{-|x|}:
# on the smallest boxes in use its own shell mass already exceeds
# spectral.DEFAULT_MASS_TOL (2.2e-8 on the 3D L=10, N=32 grid), and a window's
# start state u0(eps x) with eps < 1 stretches it towards the box edge (3e-4
# at eps = 0.3 on the 3D L=16, N=64 grid).
PSEUDOCONFORMAL_MASS_TOL = 1e-3
WINDOW_START_MASS_TOL = 0.05

# Growth schedules reach ratio slope |alpha - beta| / p >= GROWTH_MIN_SLOPE
# for every admissible p <= GROWTH_P_MAX.
GROWTH_MIN_SLOPE = Fraction(1, 2)
GROWTH_P_MAX = Fraction(3)


@dataclass(frozen=True)
class CounterexampleFamily:
    kind: ScheduleKind
    potential: PatchedRescaledPotential
    W: ComplexField
    u0: ComplexField
    schedule: Schedule
    r: Exponent
    s: Exponent
    n: int
    analytic_norm: PatchedNormBound


def default_params(kind: ScheduleKind, r: ExponentLike, s: ExponentLike, n: int) -> ScheduleParams:
    if kind is ScheduleKind.GLOBAL_SUBCRITICAL:
        return global_subcritical_params(r, s, n)
    return local_params(r, s, n, kind=kind)


def schedule_params_for_growth(kind: ScheduleKind, r: ExponentLike, s: ExponentLike,
                               n: int) -> ScheduleParams:
    """Valid params whose ratio slope |alpha - beta| / p reaches at least
    GROWTH_MIN_SLOPE for every admissible p <= GROWTH_P_MAX.

    The default selectors keep alpha close to beta, which makes R_k grow
    slowly; this deterministic variant widens the gap (doubling headroom)
    while keeping the convergence inequalities exact.
    """
    cls = classify_potential(r, s, n)
    if cls.criticality is not kind.regime:
        raise RegimeError(f"(r,s)=({r},{s}) is {cls.criticality.value}, wrong regime for {kind.value}")
    if cls.r.is_infinite:
        raise PreconditionError("cascade schedules need r < inf")
    gap = 2 * GROWTH_MIN_SLOPE * GROWTH_P_MAX
    rr, rho = cls.r.reciprocal, cls.rho
    if kind is ScheduleKind.GLOBAL_SUBCRITICAL:
        beta = 2 * (1 + gap * rr) / (1 - rho)
        params = ScheduleParams(alpha=beta + gap, beta=beta, kind=kind)
    else:
        nu = cls.r.value * (1 - Fraction(n, 2) * cls.s.reciprocal)  # < 1 when supercritical
        beta = 2 * max((gap + cls.r.value) / (1 - nu), 1 + gap, 1 / (rho - 1))
        params = ScheduleParams(alpha=beta - gap, beta=beta, kind=kind)
    validate_schedule_params(params, r, s, n)
    return params


def build_family(
    kind: ScheduleKind,
    r: ExponentLike,
    s: ExponentLike,
    n: int,
    W: ComplexField,
    u0: ComplexField,
    K: int,
    params: Optional[ScheduleParams] = None,
) -> CounterexampleFamily:
    """Assemble a cascade family with K windows and a certified finite
    potential norm.  ``params`` defaults to the deterministic selectors;
    a divergent analytic norm raises DivergentNormError (bad parameters).
    The schedule, its ``total_time`` included, is make_schedule's."""
    r, s = as_exponent(r), as_exponent(s)
    if W.grid.n != n or u0.grid != W.grid:
        raise PreconditionError("base profile grids must match the family dimension")
    if K < 1:
        raise PreconditionError("need at least one window")
    cls = classify_potential(r, s, n)
    if cls.criticality is not kind.regime:
        raise RegimeError(
            f"(r,s)=({r},{s}) is {cls.criticality.value}; {kind.value} needs "
            f"{kind.regime.value}"
        )
    if params is None:
        params = default_params(kind, r, s, n)
    schedule = make_schedule(kind, params, r, s, n, K)
    bound = analytic_patched_norm(schedule, r, s, lq_norm(W, s))
    if not bound.converges:
        raise DivergentNormError(
            f"schedule exponent {bound.exponent} gives a divergent potential norm"
        )
    potential = PatchedRescaledPotential(W, schedule)
    return CounterexampleFamily(kind=kind, potential=potential, W=W, u0=u0,
                                schedule=schedule, r=r, s=s, n=n, analytic_norm=bound)


@dataclass(frozen=True)
class RatioSeries:
    """Strichartz ratios R_k of one family against one admissible pair."""

    pair: Tuple[Exponent, Exponent]
    ks: np.ndarray
    ratios: np.ndarray
    predicted_slope: float
    fitted_slope: Optional[float]
    fit_range: Tuple[int, int]
    constant: float  # ||u0||_q / ||u0||_2


def ratio_series(
    family: CounterexampleFamily,
    p: ExponentLike,
    q: ExponentLike,
    fit_range: Optional[Tuple[int, int]] = None,
) -> RatioSeries:
    """R_k = (window length)^(1/p) eps_k^(n/2 - n/q) ||u0||_q / ||u0||_2.

    The numerator is the window L^p L^q norm of the rescaled standing wave;
    the denominator is its conserved energy eps_k^(-n/2) ||u0||_2.  The pair
    (inf, 2) is allowed and yields the constant series 1 (energy
    conservation); it is excluded from any divergence verdict.
    """
    n = family.n
    p, q = admissible_pair(p, q, n)
    ks = np.array([w.k for w in family.schedule.windows], dtype=float)
    lengths = np.array([w.length for w in family.schedule.windows])
    eps = np.array([w.eps for w in family.schedule.windows])
    const = lq_norm(family.u0, q) / lq_norm(family.u0, 2)
    e_time = float(p.reciprocal)
    e_eps = float(Fraction(n, 2) - n * q.reciprocal)  # equals 2/p for admissible pairs
    ratios = const * lengths**e_time * eps**e_eps

    alpha, beta = family.schedule.params.alpha, family.schedule.params.beta
    predicted = float(family.kind.sign * (alpha - beta) * p.reciprocal)

    K = int(ks[-1])
    if fit_range is None:
        fit_range = (max(2, math.ceil(K / 5)), K)
    lo, hi = fit_range
    mask = (ks >= lo) & (ks <= hi)
    if mask.sum() >= 2:
        fitted = float(np.polyfit(np.log(ks[mask]), np.log(ratios[mask]), 1)[0])
    else:
        fitted = None
    return RatioSeries(pair=(p, q), ks=ks, ratios=ratios, predicted_slope=predicted,
                       fitted_slope=fitted, fit_range=(lo, hi), constant=const)


class PhaseProbe:
    """Step probe of a standing wave u(t) = exp(-it) u0: ``worst`` is the
    largest ||u(t) - exp(-it) u0||_2 / ||u0||_2 over the probed samples."""

    def __init__(self, u0: ComplexField):
        self.u0, self.u0_l2 = u0, lq_norm(u0, 2)
        self.diff = np.empty(u0.grid.shape, dtype=np.complex128)
        self.worst = 0.0

    def __call__(self, t: float, vals: np.ndarray) -> None:
        np.multiply(np.exp(-1j * t), self.u0.values, out=self.diff)
        np.subtract(vals, self.diff, out=self.diff)
        self.worst = max(self.worst, float(lq_norms(self.diff, self.u0.grid, 2)) / self.u0_l2)


@dataclass(frozen=True)
class WindowCheck:
    k: int
    eps: float
    tau_interval: Tuple[float, float]
    phase_error: float
    energy_start: float
    energy_predicted: float
    norm_errors: Dict[Tuple[Exponent, Exponent], float]  # relative, per pair


def window_crosscheck(
    family: CounterexampleFamily,
    k_list: Sequence[int],
    dt: float,
    pairs: Optional[Sequence[Tuple[ExponentLike, ExponentLike]]] = None,
) -> List[WindowCheck]:
    """Evolve the rescaled standing wave through selected windows and compare
    numerically integrated window norms with the closed forms.

    The evolution runs in window-rescaled coordinates tau = eps^2 t,
    y = eps x, where the cascade window becomes the base standing-wave
    problem on the base grid (the equation is autonomous there, so the
    window is evolved over [0, eps^2 * length] up to a global phase).
    Returned norms are mapped back with the exact scale factors.  The
    start-of-window energy check samples u0(eps x) on the base grid with
    band-limited interpolation, guarded at WINDOW_START_MASS_TOL, so it
    carries genuine quadrature error.
    """
    if len(k_list) > 3:
        raise PreconditionError("window cross-checks are desk-scale: pick at most 3 windows")
    if pairs is None:
        pairs = [(2, 6), (Fraction(8, 3), 4)] if family.n == 3 else [(4, 4)]
    grid = family.u0.grid
    u0 = family.u0
    u0_l2 = lq_norm(u0, 2)
    by_k = {w.k: w for w in family.schedule.windows}
    out: List[WindowCheck] = []
    for k in k_list:
        if k not in by_k:
            raise PreconditionError(f"window {k} not in the schedule (K={len(by_k)})")
        w = by_k[k]
        tau_len = w.eps**2 * w.length
        tau0 = w.eps**2 * w.start

        probe = PhaseProbe(u0)
        rep = split_step_evolve(u0, StaticPotential(family.W), interval=(0.0, tau_len), dt=dt,
                                pairs=pairs, step_probe=probe, keep_states=False)
        norm_errors: Dict[Tuple[Exponent, Exponent], float] = {}
        for (p, q), ratio in rep.strichartz_ratios.items():
            # rescaled-coordinate norm back to original coordinates
            base_norm = ratio * u0_l2  # L^p([0,tau_len]; L^q)
            scale = w.eps ** float(-2 * p.reciprocal - family.n * q.reciprocal)
            numeric = scale * base_norm
            closed = (
                w.length ** float(p.reciprocal)
                * w.eps ** float(-family.n * q.reciprocal)
                * lq_norm(u0, q)
            )
            norm_errors[(p, q)] = abs(numeric - closed) / closed
        start_state = rescale_field(u0.values, grid, w.eps, WINDOW_START_MASS_TOL)
        energy_start = float(lq_norms(start_state, grid, 2))
        energy_pred = w.eps ** (-family.n / 2.0) * u0_l2
        out.append(
            WindowCheck(
                k=k,
                eps=w.eps,
                tau_interval=(tau0, tau0 + tau_len),
                phase_error=probe.worst,
                energy_start=energy_start,
                energy_predicted=energy_pred,
                norm_errors=norm_errors,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Pseudoconformal family


@dataclass(frozen=True)
class PseudoconformalFamily:
    potential: PseudoconformalPotential
    W: ComplexField
    u0: ComplexField
    r: Exponent
    s: Exponent
    n: int
    delta: float
    analytic_norm: float  # ||V||_{L^r(delta,1;L^s)}


def pseudoconformal_build(
    W: ComplexField,
    u0: ComplexField,
    r: ExponentLike,
    s: ExponentLike,
    n: int,
    delta: float,
) -> Tuple[PseudoconformalFamily, Callable[[float], ComplexField]]:
    """The closed-form family U(T, X) = exp(-i|X|^2/(4T)) T^(-n/2) exp(i/T)
    u0(X/T) solving i U_T - Lap U + V U = 0 with V(T, X) = T^(-2) W(X/T).

    Returns the family plus a sampler T -> U(T, .) on the base grid.  The
    solution's L^p(delta,1;L^q) norm is (1/delta - 1)^(1/p) ||u0||_q for
    admissible (p, q); see pseudoconformal_solution_norm.
    """
    r, s = as_exponent(r), as_exponent(s)
    if not pseudoconformal_ok(r, s, n):
        raise PreconditionError(f"(r,s)=({r},{s}) violates the pseudoconformal condition")
    if not 0.0 < delta < 1.0:
        raise PreconditionError(f"delta must lie in (0, 1), got {delta}")
    if W.grid.n != n or u0.grid != W.grid:
        raise PreconditionError("base profile grids must match the family dimension")
    norm = analytic_pseudoconformal_norm(r, s, n, delta, lq_norm(W, s))
    family = PseudoconformalFamily(
        potential=PseudoconformalPotential(W), W=W, u0=u0, r=r, s=s, n=n,
        delta=delta, analytic_norm=norm,
    )

    def sampler(T: float) -> ComplexField:
        return pseudoconformal_state(u0, T)

    return family, sampler


def pseudoconformal_state(u0: ComplexField, T: float) -> ComplexField:
    """U(T, X) on the grid of u0 (T in (0, 1]), its profile u0(X/T) guarded
    at PSEUDOCONFORMAL_MASS_TOL."""
    if not T > 0:
        raise PreconditionError(f"pseudoconformal state needs T > 0, got {T}")
    grid = u0.grid
    rsq = sum(x**2 for x in grid.coords())
    phase = np.exp(-1j * rsq / (4.0 * T) + 1j / T)
    profile = rescale_field(u0.values, grid, 1.0 / T, PSEUDOCONFORMAL_MASS_TOL)
    return ComplexField(grid, phase * T ** (-grid.n / 2.0) * profile)


def pseudoconformal_solution_norm(u0: ComplexField, p: ExponentLike, q: ExponentLike,
                                  delta: float) -> float:
    """Closed form (integral of T^(p(n/q - n/2)) over [delta,1])^(1/p) ||u0||_q;
    for admissible pairs the exponent is exactly -2, giving
    (1/delta - 1)^(1/p) ||u0||_q, which blows up as delta -> 0."""
    p, q = admissible_pair(p, q, u0.grid.n)
    if p.is_infinite:
        raise PreconditionError("solution norm formula needs p < inf")
    if not 0.0 < delta < 1.0:
        raise PreconditionError(f"delta must lie in (0, 1), got {delta}")
    return (1.0 / delta - 1.0) ** float(p.reciprocal) * lq_norm(u0, q)


def pseudoconformal_solution_norm_numeric(u0: ComplexField, p: ExponentLike,
                                          q: ExponentLike, delta: float,
                                          nt: int = 4097) -> float:
    """Trapezoid-in-time counterpart of pseudoconformal_solution_norm.

    |U(T)| = T^(-n/2) |u0(X/T)| pointwise (the phases have modulus one), so
    each spatial norm follows the exact self-similar identity
    ||U(T)||_q = T^(n/q - n/2) ||u0||_q on the scaled grid; only the time
    integral is numerical.
    """
    n = u0.grid.n
    p, q = admissible_pair(p, q, n)
    if p.is_infinite:
        raise PreconditionError(f"pair ({p},{q}) is not usable here")
    if not 0.0 < delta < 1.0:
        raise PreconditionError(f"delta must lie in (0, 1), got {delta}")
    a = float(n * q.reciprocal - Fraction(n, 2))
    ts = np.linspace(delta, 1.0, nt)
    return time_lp(lq_norm(u0, q) * ts**a, ts, p)


def pseudoconformal_residual(W: ComplexField, u0: ComplexField, T: float) -> float:
    """Relative L^2 residual of i U_T - Lap U + V U at time T.

    The state is sampled on the T-scaled box [-TL, TL)^n, where X/T runs over
    the base grid points: the profile and its spectral gradient enter exactly,
    with no interpolation, and the spectral Laplacian acts on the sampled U.
    For an exact eigenpair the residual is pure product-rule discretization
    error and shrinks spectrally under grid refinement.
    """
    base = u0.grid
    n = base.n
    if not T > 0:
        raise PreconditionError("need T > 0")
    scaled = Grid(n=n, L=T * base.L, N=base.N)
    coords = scaled.coords()
    rsq = sum(x**2 for x in coords)
    phase = np.exp(-1j * rsq / (4.0 * T) + 1j / T)
    amp = T ** (-n / 2.0)
    U = phase * amp * u0.values

    # d/dT of the three T-dependent factors plus the chain rule on u0(X/T)
    dUdT = U * (1j * rsq / (4.0 * T**2) - 1j / T**2 - n / (2.0 * T))
    hat = np.fft.fftn(u0.values)
    for axis in range(n):
        xi = base.freq_axis()
        shape = [1] * n
        shape[axis] = base.N
        grad_axis = np.fft.ifftn(1j * xi.reshape(shape) * hat)
        dUdT = dUdT + phase * amp * (-coords[axis] / T**2) * grad_axis

    lap_U = np.fft.ifftn(-_ksq(scaled) * np.fft.fftn(U))
    Vvals = W.values / T**2
    residual = 1j * dUdT - lap_U + Vvals * U
    return float(np.linalg.norm(residual) / np.linalg.norm(U))


def reflect_translate(sampler: Callable[[float], ComplexField]) -> Callable[[float], ComplexField]:
    """Time reflection and translation t -> 1 - t with conjugation.

    For real potentials, conj(U(1 - t)) solves the same equation with the
    potential V(1 - t, x), turning the T -> 0 blow-up of the family into a
    finite-time blow-up at t = 1, the end of the family's interval (delta, 1].
    """

    def reflected(t: float) -> ComplexField:
        state = sampler(1.0 - t)
        return ComplexField(state.grid, np.conj(state.values))

    return reflected
