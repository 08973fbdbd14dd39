"""Time evolution of i u_t - Lap(u) + V(t,x) u = F.

Two routes are implemented and cross-validated:

* Strang split-step: half-step potential phases around an exact free step,
  second order in dt, exactly norm-preserving for F = 0 and real V.
* Duhamel fixed point: the integral-equation map
      Phi(v) = exp(it Lap) u0 - i * integral_0^t exp(i(t-s) Lap) [F - V v](s) ds
  iterated to its fixed point on a time piece where the potential's mixed
  norm is small.  (The -i phase in front of the integral is irrelevant for
  norm estimates but required for the fixed point to solve the equation.)

Both step with the one kernel ``spectral.strang_step``; the split-step
half-phases exp(i (h/2) V) come from ``PotentialSampler``, cached under the
variant's sample_key like the values of V, and both feed their samples one
at a time to ``_Recorder``, which builds the report.  A half-phase is
``spectral.unit_phase`` of (h/2) V, formed in the phase's own imaginary part:
cos and sin, bit for bit the complex exp of i (h/2) V.
The discrete Duhamel map is the trapezoid rule at the sampling dt, written as
a recursion on its own output with the one-step propagator K = exp(ih Lap):
out[j+1] = K(out[j] + b_j) + b_{j+1} with b = i(h/2)(V v - F), from
out[0] = u0.  One sweep costs O(steps) FFTs; with b = 0 it is the free evolution.
A sweep writes each row in place, through one grid buffer besides its output
stack, so it allocates nothing per row.
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
    # unused here; kept because bench/layers.py patches solver.trajectory_mixed_norm
    trajectory_mixed_norm,
)
from .spectral import (
    ComplexField,
    Grid,
    Trajectory,
    free_multiplier,
    gaussian_field,
    lq_norm,
    lq_norm_table,
    lq_norms,
    strang_step,
    time_lp,
    unit_phase,
)

SourceLike = Union[None, ComplexField, Callable[[float], ComplexField]]

DEFAULT_Q_FALLBACK = 8  # endpoint space exponent for n <= 2
CALIBRATION_FACTOR = 0.5  # largest contraction factor a calibrated tau allows
CALIBRATION_TOL = 1e-6  # Duhamel stopping tolerance of the calibration runs
PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")  # bytes
STORE_BUDGET = 64 * 2**20  # bytes of states a run with the default stride keeps


def endpoint_q(n: int) -> Exponent:
    """Spatial exponent of the endpoint slot of the Z-norm: 2n/(n-2) when
    n >= 3, the fixed stand-in DEFAULT_Q_FALLBACK otherwise."""
    if n >= 3:
        return Exponent(Fraction(2 * n, n - 2))
    return Exponent(DEFAULT_Q_FALLBACK)


def _stack_z_norm(times: np.ndarray, stack: np.ndarray, grid: Grid) -> float:
    """Z-norm of a stacked (m+1,) + grid.shape piece trajectory: the max of
    its L^inf_t L^2 and L^2_t L^qe sample norms, from one norm-table call."""
    qe = endpoint_q(grid.n)
    norms = lq_norm_table(stack, grid, (TWO, qe))
    return max(time_lp(norms[TWO], times, "inf"), time_lp(norms[qe], times, 2))


class PotentialSampler:
    """Evaluates V(t) on a grid, and its Strang half-phases, caching both for
    piecewise-static specs under the variant's sample_key."""

    def __init__(self, V: PotentialSpec, grid: Grid):
        self.V, self.grid = V, grid
        self._cache: Dict[Hashable, np.ndarray] = {}
        self._phases: Dict[Tuple[Hashable, float], np.ndarray] = {}

    def values_at(self, t: float) -> np.ndarray:
        """Real V(t) as evaluate returns it: a read-only view when V(t) is
        V's own stored profile, else an array of its own."""
        key = self.V.sample_key(t)
        if key is not None and key in self._cache:
            return self._cache[key]
        values = evaluate(self.V, t, self.grid)
        if key is not None:
            self._cache[key] = values
        return values

    def phase_at(self, t: float, h: float) -> np.ndarray:
        """Half-phase exp(i (h/2) V(t)) for a Strang step of length h > 0.

        theta = (h/2) V is formed in the imaginary part of the result, which
        unit_phase then fills in place: no temporary, and bit for bit
        np.exp((0.5j * h) * V), whose product is +0 + i theta as well."""
        key = self.V.sample_key(t)
        if key is not None and (key, h) in self._phases:
            return self._phases[(key, h)]
        values = self.values_at(t)
        phase = np.empty(values.shape, dtype=np.complex128)
        np.multiply(values, 0.5 * h, out=phase.imag)  # theta = (h/2) V in place
        unit_phase(phase.imag, out=phase)
        if key is not None:
            self._phases[(key, h)] = phase
        return phase


def _source_at(F: SourceLike, t: float, grid: Grid) -> Optional[np.ndarray]:
    if F is None:
        return None
    out = F if isinstance(F, ComplexField) else F(t)
    if out.grid != grid:
        raise PreconditionError("source defined on a different grid")
    return out.values


@dataclass
class SolveReport:
    """Everything observable about one evolution run.  times and energy_log
    are the logged times and L^2 norms at the kept indices; trajectory holds
    the states kept there, or only the final one when states were not kept."""

    trajectory: Trajectory
    times: np.ndarray
    energy_log: np.ndarray
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
            "samples": len(self.times),
            "t_final": float(self.times[-1]),
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


def _check_buffers(fields: float, grid: Grid) -> None:
    """Refuse a request for more complex grid fields than physical memory holds."""
    need = fields * grid.npoints * 16
    if need > PHYSICAL_MEMORY:
        raise PreconditionError(f"buffers of about {need / 2**30:.3g} GiB exceed the "
                                f"{PHYSICAL_MEMORY / 2**30:.3g} GiB of physical memory")


class _Recorder:
    """The report path of both solvers, fed the m + 1 samples of a run one at a
    time.  Validates the pairs; picks the kept indices, every store_every-th
    sample plus the last (by default about 256, thinned further so that their
    states fit in about STORE_BUDGET bytes); logs each sample's L^q
    norm for q = 2 (the energy log) and each q of the pairs; and builds the
    SolveReport from them.  It copies the state of every kept index, or with
    keep_states False only the final state, and refuses before the first
    step to copy more than physical memory holds."""

    def __init__(self, grid: Grid, m: int,
                 pairs: Optional[Sequence[Tuple[ExponentLike, ExponentLike]]],
                 store_every: Optional[int], keep_states: bool = True):
        self.pair_list = [admissible_pair(p, q, grid.n) for p, q in pairs or []]
        if store_every is None:
            store_every = max(1, math.ceil(m / 256),
                              math.ceil((m + 1) * grid.npoints * 16 / STORE_BUDGET))
        elif store_every < 1:
            raise PreconditionError(f"store_every must be at least 1, got {store_every}")
        self.kept = np.union1d(np.arange(0, m + 1, store_every), m)
        self.copied = self.kept if keep_states else self.kept[-1:]
        _check_buffers(len(self.copied), grid)
        self.grid, self.j = grid, 0
        self.times = np.empty(m + 1)
        self.norms = {q: np.empty(m + 1) for q in {TWO} | {q for _, q in self.pair_list}}
        self.stored: List[ComplexField] = []

    def add(self, t: float, values: np.ndarray) -> None:
        j = self.j
        self.times[j] = t
        for q, norm in lq_norm_table(values, self.grid, self.norms).items():
            self.norms[q][j] = norm
        if j == self.copied[len(self.stored)]:
            self.stored.append(ComplexField(self.grid, values))
        self.j += 1

    def report(self, **fields) -> SolveReport:
        energies = self.norms[TWO]
        e0 = energies[0]
        drift = float(np.abs(energies - e0).max() / e0) if e0 > 0 else 0.0
        ratios = {(p, q): time_lp(self.norms[q], self.times, p) / e0 if e0 > 0 else math.inf
                  for p, q in self.pair_list}
        traj = Trajectory(times=self.times[self.copied], states=self.stored,
                          energy_log=energies[self.copied])
        return SolveReport(trajectory=traj, times=self.times[self.kept],
                           energy_log=energies[self.kept], energy_drift=drift,
                           strichartz_ratios=ratios, **fields)


def split_step_evolve(
    u0: ComplexField,
    V: PotentialSpec,
    F: SourceLike = None,
    interval: Interval = (0.0, 1.0),
    dt: float = 1e-3,
    store_every: Optional[int] = None,
    pairs: Optional[Sequence[Tuple[ExponentLike, ExponentLike]]] = None,
    step_probe: Optional[Callable[[float, np.ndarray], None]] = None,
    *,
    keep_states: bool = True,
) -> SolveReport:
    """Strang splitting: half potential phase exp(i V(t_mid) dt/2), exact
    free step, half phase again; sources enter through a midpoint Duhamel
    correction.  Second order in dt; exactly unitary for F = 0, real V.

    The report's trajectory holds the states at the kept indices (see
    store_every), or with keep_states False only the final state; its times
    and energy_log cover every kept index either way.
    """
    grid = u0.grid
    times, dt_eff = time_lattice(interval, dt)
    m = len(times) - 1
    rec = _Recorder(grid, m, pairs, store_every, keep_states)
    sampler = PotentialSampler(V, grid)
    kin = free_multiplier(grid, dt_eff)
    kin_half = free_multiplier(grid, dt_eff / 2.0)

    def record(j: int, uvals: np.ndarray):
        rec.add(float(times[j]), uvals)
        if step_probe is not None:
            step_probe(float(times[j]), uvals)

    u = u0.values.copy()
    record(0, u)
    for j in range(m):
        t_mid = float(times[j]) + dt_eff / 2.0
        u = strang_step(u, kin, sampler.phase_at(t_mid, dt_eff))
        src = _source_at(F, t_mid, grid)
        if src is not None:
            u = u - 1j * dt_eff * strang_step(src, kin_half, sampler.phase_at(t_mid, dt_eff / 2.0))
        record(j + 1, u)

    return rec.report()


@dataclass
class DuhamelResult:
    trajectory: Trajectory
    factors: List[float]
    iterations: int
    residual: float  # Z-norm of Phi(v) - v relative to Z-norm of v


def duhamel_iterate(u0: ComplexField, F: SourceLike, V: PotentialSpec, piece: Interval,
                    dt: float, tol: float = 1e-8, maxit: int = 30) -> DuhamelResult:
    """Fixed point of Phi(v) = exp(it Lap) u0 - i Duhamel[F - V v] on a piece.

    Starts from the free evolution; stops when the Z-norm of successive
    differences falls below tol times the first increment.  Raises
    NonContractionError when maxit is hit, which signals the piece's mixed
    potential norm is too large.
    """
    grid = u0.grid
    times, dt_eff = time_lattice(piece, dt)
    m = len(times) - 1
    # v, Phi(v) and the states, checked before any sample_key call; then with
    # the samples kept: half a field per real V sample, one per V key (per node
    # when the key is None), and one field per node of a callable F
    _check_buffers(3 * (m + 1), grid)
    keys = [V.sample_key(t) for t in times.tolist()]
    samples = (keys.count(None) + len(set(keys) - {None})) / 2 + (m + 1) * callable(F)
    _check_buffers(3 * (m + 1) + samples, grid)
    sampler = PotentialSampler(V, grid)
    kin = free_multiplier(grid, dt_eff)
    half = dt_eff / 2.0  # trapezoid weight
    vvals = [sampler.values_at(float(t)) for t in times]
    fvals = [_source_at(F, float(t), grid) for t in times]

    buf = np.empty(grid.shape, dtype=np.complex128)  # b_j, then out[j] + b_j

    def sweep(v: Optional[np.ndarray]) -> np.ndarray:
        """Phi(v) by the recursion of the module docstring, each row written in
        place; b = 0 when v is None, which makes it the free evolution."""
        out = np.empty((m + 1,) + grid.shape, dtype=np.complex128)
        out[0] = u0.values
        if v is None:
            for j in range(m):
                strang_step(out[j], kin, out=out[j + 1])
            return out
        form_b(0, v)
        for j in range(m):
            np.add(out[j], buf, out=buf)
            strang_step(buf, kin, out=out[j + 1])
            form_b(j + 1, v)
            out[j + 1] += buf
        return out

    def form_b(j: int, v: np.ndarray) -> None:
        """b_j = i(h/2)(V_j v_j - F_j), formed in buf."""
        np.multiply(vvals[j], v[j], out=buf)
        if fvals[j] is not None:
            np.subtract(buf, fvals[j], out=buf)
        np.multiply(buf, 1j * half, out=buf)

    def zdiff(a: np.ndarray, b: np.ndarray) -> float:
        """Z-norm of a - b, formed in a's buffer: the caller drops a."""
        a -= b
        return _stack_z_norm(times, a, grid)

    v = sweep(None)
    scale = _stack_z_norm(times, v, grid)
    v_next = sweep(v)
    d_first = zdiff(v, v_next)
    factors: List[float] = []
    iterations = 1
    v, v_prev_diff = v_next, d_first
    if d_first > 1e-14 * scale:
        while True:
            v_next = sweep(v)
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

    res_abs = zdiff(sweep(v), v)
    vnorm = _stack_z_norm(times, v, grid)
    residual = res_abs / vnorm if vnorm > 0 else res_abs
    states = [ComplexField(grid, v[j]) for j in range(m + 1)]
    traj = Trajectory(times=times, states=states, energy_log=lq_norms(v, grid, 2))
    return DuhamelResult(trajectory=traj, factors=factors, iterations=iterations,
                         residual=residual)


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
    pairs: Optional[Sequence[Tuple[ExponentLike, ExponentLike]]] = None,
    store_every: Optional[int] = None,
    *,
    keep_states: bool = True,
) -> SolveReport:
    """Partition-and-chain solve: split the interval into pieces whose mixed
    potential norm is below tau, run the Duhamel iteration piece by piece
    feeding terminal states forward, and report contraction data plus the
    chained constant bound k (1 + 2 c_hat)^k with c_hat = 1 / (2 tau).
    States are kept as in split_step_evolve, and keep_states False keeps
    only the final one."""
    part = partition_interval(V, r, s, interval, tau, dt, grid=u0.grid)
    rec = _Recorder(u0.grid, part.slice_count, pairs, store_every, keep_states)
    factors: List[List[float]] = []
    iterations: List[int] = []
    residuals: List[float] = []
    state = u0
    for idx, (a, b) in enumerate(part.pieces):
        result = duhamel_iterate(state, F, V, (a, b), part.dt, tol)
        factors.append(result.factors)
        iterations.append(result.iterations)
        residuals.append(result.residual)
        tr = result.trajectory
        skip = 1 if idx > 0 else 0  # piece start duplicates previous terminal state
        for t, u in zip(tr.times[skip:].tolist(), tr.states[skip:]):
            rec.add(t, u.values)
        state = tr.states[-1]
        del result, tr  # hold one piece at a time
    k = len(part.pieces)
    c_hat = 1.0 / (2.0 * tau)
    return rec.report(contraction_factors=factors, partition=part, iterations=iterations,
                      residuals=residuals, tau=tau, c_hat=c_hat,
                      constant_bound=k * (1.0 + 2.0 * c_hat) ** k)


def calibrate_tau(
    reference_potentials: Sequence[PotentialSpec],
    grid: Grid,
    dt: float,
    interval: Interval = (0.0, 1.0),
    r: ExponentLike = 2,
    s: Optional[ExponentLike] = None,
    cap: float = 8.0,
    rounds: int = 12,
    maxit: int = 12,
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
                                          CALIBRATION_TOL, maxit)
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
