"""Time evolution of i u_t - Lap(u) + V(t,x) u = F.

Two routes are implemented and cross-validated:

* Strang split-step: half-step potential phases around an exact free step,
  second order in dt, exactly norm-preserving for F = 0 and real V.
* Duhamel fixed point: the integral-equation map
      Phi(v) = exp(it Lap) u0 - i * integral_0^t exp(i(t-s) Lap) [F - V v](s) ds
  iterated to its fixed point on a time piece where the potential's mixed
  norm is small.  (The -i phase in front of the integral is irrelevant for
  norm estimates but required for the fixed point to solve the equation.)

Both step with the one kernel ``spectral.strang_step``; its half-phases
exp(i (h/2) V) come from ``PotentialSampler``, cached under the variant's
sample_key like the values of V, and both build their report in ``_report``.
The discrete Duhamel integral uses the trapezoid rule at the sampling dt and
is accumulated with the one-step propagator, so one sweep costs O(steps) FFTs.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import CalibrationError, NonContractionError, PartitionError, PreconditionError
from .exponents import TWO, Exponent, ExponentLike, admissible_pair, as_exponent
from .potentials import (
    Interval,
    PartitionResult,
    PotentialSpec,
    evaluate,
    partition_interval,
    time_lattice,
    trajectory_mixed_norm,
)
from .spectral import (
    ComplexField,
    Grid,
    Trajectory,
    free_multiplier,
    gaussian_field,
    lq_norm,
    lq_norms,
    strang_step,
    time_lp,
)

SourceLike = Union[None, ComplexField, Callable[[float], ComplexField]]

DEFAULT_Q_FALLBACK = 8  # endpoint space exponent for n <= 2
CALIBRATION_FACTOR = 0.5  # largest contraction factor a calibrated tau allows
PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")  # bytes


def endpoint_q(n: int, q_fallback: int = DEFAULT_Q_FALLBACK) -> Exponent:
    """Spatial exponent of the endpoint slot of the Z-norm: 2n/(n-2) when
    n >= 3, a large configurable stand-in otherwise."""
    if n >= 3:
        return Exponent(Fraction(2 * n, n - 2))
    return Exponent(q_fallback)


@dataclass(frozen=True)
class ZNormValue:
    """max of the L^inf_t L^2 and L^2_t L^qe sample norms of a trajectory."""

    l_inf_l2: float
    l2_endpoint: float
    endpoint: Exponent

    @property
    def value(self) -> float:
        return max(self.l_inf_l2, self.l2_endpoint)


def _stack_z_norm(times: np.ndarray, stack: np.ndarray, grid: Grid,
                  q_fallback: int) -> float:
    """Z-norm of a stacked (m+1,) + grid.shape piece trajectory."""
    qe = endpoint_q(grid.n, q_fallback)
    return max(time_lp(lq_norms(stack, grid, 2), times, "inf"),
               time_lp(lq_norms(stack, grid, qe), times, 2))


def z_norm(traj: Trajectory, q_fallback: int = DEFAULT_Q_FALLBACK) -> ZNormValue:
    qe = endpoint_q(traj.grid.n, q_fallback)
    return ZNormValue(l_inf_l2=trajectory_mixed_norm(traj, "inf", 2),
                      l2_endpoint=trajectory_mixed_norm(traj, 2, qe), endpoint=qe)


class PotentialSampler:
    """Evaluates V(t) on a grid, and its Strang half-phases, caching both for
    piecewise-static specs under the variant's sample_key."""

    def __init__(self, V: PotentialSpec, grid: Grid):
        self.V, self.grid = V, grid
        self._cache: Dict[Hashable, np.ndarray] = {}
        self._phases: Dict[Tuple[Hashable, float], np.ndarray] = {}

    def values_at(self, t: float) -> np.ndarray:
        key = self.V.sample_key(t)
        if key is None:
            return evaluate(self.V, t, self.grid).values.real
        if key not in self._cache:
            self._cache[key] = evaluate(self.V, t, self.grid).values.real
        return self._cache[key]

    def phase_at(self, t: float, h: float) -> np.ndarray:
        """Half-phase of V(t) for a Strang step of length h."""
        key = self.V.sample_key(t)
        if key is None:
            return self.phase(self.values_at(t), h)
        if (key, h) not in self._phases:
            self._phases[(key, h)] = self.phase(self.values_at(t), h)
        return self._phases[(key, h)]

    @staticmethod
    def phase(values: np.ndarray, h: float) -> np.ndarray:
        """exp(i (h/2) V) of sampled potential values V."""
        return np.exp(1j * (h / 2.0) * values)


def _source_at(F: SourceLike, t: float, grid: Grid) -> Optional[np.ndarray]:
    if F is None:
        return None
    out = F if isinstance(F, ComplexField) else F(t)
    if out.grid != grid:
        raise PreconditionError("source defined on a different grid")
    return out.values


def _stride(store_every: Optional[int], count: int) -> int:
    return store_every if store_every is not None else max(1, math.ceil(count / 256))


def default_pairs(n: int) -> List[Tuple[Exponent, Exponent]]:
    """Admissible pairs probed by default in solve reports."""
    if n == 2:
        raw = [("inf", 2), (4, 4), (3, 6)]
    elif n == 3:
        raw = [("inf", 2), (2, 6), (Fraction(8, 3), 4)]
    else:
        return []
    return [(as_exponent(p), as_exponent(q)) for p, q in raw]


@dataclass
class SolveReport:
    """Everything observable about one evolution run."""

    trajectory: Trajectory
    energy_drift: float
    contraction_factors: List[List[float]] = dataclass_field(default_factory=list)
    partition: Optional[PartitionResult] = None
    iterations: List[int] = dataclass_field(default_factory=list)
    residuals: List[float] = dataclass_field(default_factory=list)
    strichartz_ratios: Dict[Tuple[Exponent, Exponent], float] = dataclass_field(default_factory=dict)
    tau: Optional[float] = None
    c_hat: Optional[float] = None
    constant_bound: Optional[float] = None

    @property
    def pieces(self) -> int:
        return 1 if self.partition is None else len(self.partition)

    def to_json_dict(self) -> dict:
        d = {
            "samples": len(self.trajectory.times),
            "t_final": float(self.trajectory.times[-1]),
            "energy_drift": self.energy_drift,
            "pieces": self.pieces,
            "iterations": list(self.iterations),
            "residuals": [float(r) for r in self.residuals],
            "contraction_factors": [[float(f) for f in fs] for fs in self.contraction_factors],
            "strichartz_ratios": {f"{p},{q}": v for (p, q), v in self.strichartz_ratios.items()},
        }
        if self.partition is not None:
            d["partition"] = [
                {"start": a, "end": b, "norm": nrm}
                for (a, b), nrm in zip(self.partition.pieces, self.partition.piece_norms)
            ]
        for key in ("tau", "c_hat", "constant_bound"):
            val = getattr(self, key)
            if val is not None:
                d[key] = float(val)
        return d


def _report(times: np.ndarray, norms: Dict[Exponent, np.ndarray],
            pair_list: List[Tuple[Exponent, Exponent]], kept: List[int],
            stored: List[ComplexField], **fields) -> SolveReport:
    """Energy drift, Strichartz ratios and stored trajectory of a solve from its
    per-sample L^q norms, by q: 2 (the energy log) and each q of the pairs."""
    energies = norms[TWO]
    e0 = energies[0]
    drift = float(np.abs(energies - e0).max() / e0) if e0 > 0 else 0.0
    ratios = {(p, q): time_lp(norms[q], times, p) / e0 if e0 > 0 else math.inf
              for p, q in pair_list}
    traj = Trajectory(times=times[kept], states=stored, energy_log=energies[kept])
    return SolveReport(trajectory=traj, energy_drift=drift, strichartz_ratios=ratios, **fields)


def split_step_evolve(
    u0: ComplexField,
    V: PotentialSpec,
    F: SourceLike = None,
    interval: Interval = (0.0, 1.0),
    dt: float = 1e-3,
    store_every: Optional[int] = None,
    pairs: Optional[Sequence[Tuple[ExponentLike, ExponentLike]]] = None,
    step_probe: Optional[Callable[[float, np.ndarray], None]] = None,
) -> SolveReport:
    """Strang splitting: half potential phase exp(i V(t_mid) dt/2), exact
    free step, half phase again; sources enter through a midpoint Duhamel
    correction.  Second order in dt; exactly unitary for F = 0, real V.
    """
    grid = u0.grid
    pair_list = [admissible_pair(p, q, grid.n) for p, q in pairs or []]
    times, dt_eff = time_lattice(interval, dt)
    m = len(times) - 1
    sampler = PotentialSampler(V, grid)
    kin = free_multiplier(grid, dt_eff)
    kin_half = free_multiplier(grid, dt_eff / 2.0)
    stride = _stride(store_every, m)

    u = u0.values.copy()
    norms = {q: np.empty(m + 1) for q in {TWO} | {q for _, q in pair_list}}
    kept: List[int] = []
    stored: List[ComplexField] = []

    def record(j: int, uvals: np.ndarray):
        for q, series in norms.items():
            series[j] = lq_norms(uvals, grid, q)
        if step_probe is not None:
            step_probe(float(times[j]), uvals)
        if j % stride == 0 or j == m:
            kept.append(j)
            stored.append(ComplexField(grid, uvals))

    record(0, u)
    for j in range(m):
        t_mid = float(times[j]) + dt_eff / 2.0
        u = strang_step(u, kin, sampler.phase_at(t_mid, dt_eff))
        src = _source_at(F, t_mid, grid)
        if src is not None:
            u = u - 1j * dt_eff * strang_step(src, kin_half, sampler.phase_at(t_mid, dt_eff / 2.0))
        record(j + 1, u)

    return _report(times, norms, pair_list, kept, stored)


@dataclass
class DuhamelResult:
    trajectory: Trajectory
    factors: List[float]
    iterations: int
    first_increment: float
    residual: float  # Z-norm of Phi(v) - v relative to Z-norm of v


def _duhamel_run(
    u0: ComplexField,
    F: SourceLike,
    V: PotentialSpec,
    piece: Interval,
    dt: float,
    tol: float,
    maxit: int,
    q_fallback: int,
    frozen: bool,
) -> DuhamelResult:
    grid = u0.grid
    times, dt_eff = time_lattice(piece, dt)
    m = len(times) - 1
    need = 4 * (m + 1) * grid.npoints * 16  # complex base, v, apply_phi's output, states
    if need > PHYSICAL_MEMORY:
        raise PreconditionError(f"Duhamel buffers of about {need / 2**30:.3g} GiB exceed the "
                                f"{PHYSICAL_MEMORY / 2**30:.3g} GiB of physical memory")
    sampler = PotentialSampler(V, grid)
    kin = free_multiplier(grid, dt_eff)
    half = dt_eff / 2.0  # trapezoid weight
    vvals = [sampler.values_at(float(t)) for t in times]

    # frozen: propagate with the static V(t0), perturbed by W(t) = V(t) - V(t0)
    phase = sampler.phase(vvals[0], dt_eff) if frozen else None
    eff = [v - vvals[0] for v in vvals] if frozen else vvals

    fvals = [_source_at(F, float(t), grid) for t in times]
    base = np.empty((m + 1,) + grid.shape, dtype=np.complex128)
    base[0] = u0.values
    for j in range(m):
        base[j + 1] = strang_step(base[j], kin, phase)

    def apply_phi(v: np.ndarray) -> np.ndarray:
        out = np.empty_like(v)
        out[0] = base[0]
        integral = np.zeros(grid.shape, dtype=np.complex128)
        g_prev = _g(0, v)
        for j in range(m):
            g_next = _g(j + 1, v)
            integral = strang_step(integral + half * g_prev, kin, phase) + half * g_next
            out[j + 1] = base[j + 1] - 1j * integral
            g_prev = g_next
        return out

    def _g(j: int, v: np.ndarray) -> np.ndarray:
        g = -eff[j] * v[j]
        if fvals[j] is not None:
            g = g + fvals[j]
        return g

    def zdiff(a: np.ndarray, b: np.ndarray) -> float:
        """Z-norm of a - b, formed in a's buffer: the caller drops a."""
        a -= b
        return _stack_z_norm(times, a, grid, q_fallback)

    v = base.copy()
    scale = _stack_z_norm(times, v, grid, q_fallback)
    v_next = apply_phi(v)
    d_first = zdiff(v, v_next)
    factors: List[float] = []
    iterations = 1
    v, v_prev_diff = v_next, d_first
    if d_first > max(1e-14 * scale, 0.0):
        while True:
            v_next = apply_phi(v)
            d = zdiff(v, v_next)
            factors.append(d / v_prev_diff if v_prev_diff > 0 else 0.0)
            iterations += 1
            v, v_prev_diff = v_next, d
            if d <= tol * d_first:
                break
            if iterations >= maxit:
                raise NonContractionError(
                    f"no contraction after {maxit} iterations "
                    f"(last factor {factors[-1]:.3f}); piece too large"
                )

    res_abs = zdiff(apply_phi(v), v)
    vnorm = _stack_z_norm(times, v, grid, q_fallback)
    residual = res_abs / vnorm if vnorm > 0 else res_abs
    states = [ComplexField(grid, v[j]) for j in range(m + 1)]
    traj = Trajectory(times=times, states=states, energy_log=lq_norms(v, grid, 2))
    return DuhamelResult(trajectory=traj, factors=factors, iterations=iterations,
                         first_increment=d_first, residual=residual)


def duhamel_iterate(u0: ComplexField, F: SourceLike, V: PotentialSpec, piece: Interval,
                    dt: float, tol: float = 1e-8, maxit: int = 30,
                    q_fallback: int = DEFAULT_Q_FALLBACK) -> DuhamelResult:
    """Fixed point of Phi(v) = exp(it Lap) u0 - i Duhamel[F - V v] on a piece.

    Starts from the free evolution; stops when the Z-norm of successive
    differences falls below tol times the first increment.  Raises
    NonContractionError when maxit is hit, which signals the piece's mixed
    potential norm is too large.
    """
    return _duhamel_run(u0, F, V, piece, dt, tol, maxit, q_fallback, frozen=False)


def frozen_duhamel(u0: ComplexField, F: SourceLike, V: PotentialSpec, piece: Interval,
                   dt: float, tol: float = 1e-8, maxit: int = 30,
                   q_fallback: int = DEFAULT_Q_FALLBACK) -> DuhamelResult:
    """Duhamel iteration around the frozen-coefficient group exp(itH) with
    H = Lap - V(t0, .): the perturbation is W(t) = V(t) - V(t0), which is
    small on short pieces for potentials continuous in time.  The inner
    propagator is realized by split-stepping the static frozen potential."""
    return _duhamel_run(u0, F, V, piece, dt, tol, maxit, q_fallback, frozen=True)


def solve_global(
    u0: ComplexField,
    F: SourceLike,
    V: PotentialSpec,
    interval: Interval,
    r: ExponentLike,
    s: ExponentLike,
    tau: float,
    dt: float,
    tol: float = 1e-8,
    maxit: int = 30,
    pairs: Optional[Sequence[Tuple[ExponentLike, ExponentLike]]] = None,
    q_fallback: int = DEFAULT_Q_FALLBACK,
    store_every: Optional[int] = None,
) -> SolveReport:
    """Partition-and-chain solve: split the interval into pieces whose mixed
    potential norm is below tau, run the Duhamel iteration piece by piece
    feeding terminal states forward, and report contraction data plus the
    chained constant bound k (1 + 2 c_hat)^k with c_hat = 1 / (2 tau)."""
    grid = u0.grid
    pair_list = [admissible_pair(p, q, grid.n) for p, q in
                 (pairs if pairs is not None else default_pairs(grid.n))]
    part = partition_interval(V, r, s, interval, tau, dt, grid=grid)
    all_times: List[np.ndarray] = []
    all_states: List[ComplexField] = []
    all_energies: List[np.ndarray] = []
    factors: List[List[float]] = []
    iterations: List[int] = []
    residuals: List[float] = []
    state = u0
    for idx, (a, b) in enumerate(part.pieces):
        result = duhamel_iterate(state, F, V, (a, b), part.dt, tol, maxit, q_fallback)
        factors.append(result.factors)
        iterations.append(result.iterations)
        residuals.append(result.residual)
        tr = result.trajectory
        skip = 1 if idx > 0 else 0  # piece start duplicates previous terminal state
        all_times.append(tr.times[skip:])
        all_states.extend(tr.states[skip:])
        all_energies.append(tr.energy_log[skip:])
        state = tr.states[-1]
    times = np.concatenate(all_times)
    norms = {q: np.array([lq_norms(u.values, grid, q) for u in all_states])
             for q in {q for _, q in pair_list} - {TWO}}
    norms[TWO] = np.concatenate(all_energies)
    stride = _stride(store_every, len(times))
    kept = [j for j in range(len(times)) if j % stride == 0 or j == len(times) - 1]
    k = len(part.pieces)
    c_hat = 1.0 / (2.0 * tau)
    return _report(times, norms, pair_list, kept,
                   [all_states[j] for j in kept], contraction_factors=factors,
                   partition=part, iterations=iterations, residuals=residuals,
                   tau=tau, c_hat=c_hat, constant_bound=k * (1.0 + 2.0 * c_hat) ** k)


def calibrate_tau(
    reference_potentials: Sequence[PotentialSpec],
    grid: Grid,
    dt: float,
    interval: Interval = (0.0, 1.0),
    r: ExponentLike = 2,
    s: Optional[ExponentLike] = None,
    cap: float = 8.0,
    rounds: int = 12,
    tol: float = 1e-6,
    maxit: int = 12,
    q_fallback: int = DEFAULT_Q_FALLBACK,
    probe_state: Optional[ComplexField] = None,
) -> float:
    """Largest tau on a bisection grid such that every reference potential,
    partitioned at tau, yields Duhamel runs whose contraction factors stay
    at or below CALIBRATION_FACTOR on every piece.

    Stands in for the non-constructive smallness threshold (2 C0)^-1: the
    returned tau defines the calibrated constant c_hat = 1/(2 tau) used in
    reports.  An empty-factor run (converged in one application) passes.
    """
    if not reference_potentials:
        raise PreconditionError("calibration needs at least one reference potential")
    r = as_exponent(r)
    s = as_exponent(s) if s is not None else Exponent(grid.n if grid.n >= 2 else 2)
    if probe_state is None:
        g = gaussian_field(grid, sigma=1.0)
        probe_state = ComplexField(grid, g.values / lq_norm(g, 2))

    def passes(tau: float) -> bool:
        for V in reference_potentials:
            try:
                part = partition_interval(V, r, s, interval, tau, dt, grid=grid)
                for piece in part.pieces:
                    res = duhamel_iterate(probe_state, None, V, piece, dt,
                                          tol, maxit, q_fallback)
                    if res.factors and max(res.factors) > CALIBRATION_FACTOR:
                        return False
            except (NonContractionError, PartitionError):
                return False
        return True

    if passes(cap):
        return cap
    lo, hi = 0.0, cap
    for _ in range(rounds):
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    if lo == 0.0:
        raise CalibrationError("no tau in the search range produced contracting runs")
    return lo
