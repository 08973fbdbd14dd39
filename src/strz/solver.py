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
out[0] = u0.  One sweep costs O(steps) FFTs; with b = 0 it is the free
evolution.  A sweep writes each row in place, through one grid buffer
besides its output stack, so it allocates nothing per row, and a piece
returns its final iterate as that stack, read-only.

The sweeps of a piece share two stacks, each sweep written over the one two
before it and normed a chunk of rows at a time as it goes (_SweepChain).
On grids of at least WAVEFRONT_MIN_POINTS = 2^13 points (1D
N = 8192, 128^2, 32^3 and up), in a process allowed two or more CPUs,
spectral's one extra worker thread makes the odd sweeps while the caller
makes the even ones, each sweep one row behind the one before it
(_SweepChain), and each thread steps serially: a split step would queue the
caller's half behind the worker's sweeps.  Results are bit-identical either
way, `taskset -c 0` keeps everything on one CPU, and there is no option or
environment variable for it.
"""
from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import spectral
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
    strang_step,
    time_lp,
    unit_phase,
)

SourceLike = Union[None, ComplexField, Callable[[float], ComplexField]]

DEFAULT_Q_FALLBACK = 8  # endpoint space exponent for n <= 2
CALIBRATION_FACTOR = 0.5  # largest contraction factor a calibrated tau allows
CALIBRATION_TOL = 1e-6  # Duhamel stopping tolerance of the calibration runs
CALIBRATION_CAP = 8.0  # largest tau calibrate_tau returns, tried first
CALIBRATION_MAXIT = 12  # Duhamel iteration cap of the calibration runs
PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")  # bytes
STORE_BUDGET = 64 * 2**20  # bytes of states a run with the default stride keeps
# duhamel_iterate runs its sweeps as a two-thread wavefront on grids of at
# least this many points.  Per piece (median of 7 alternating trials, 2-vCPU
# host) against the serial sweeps, every grid of 2^12 points was slower in
# 7 of 7 (1D N=4096 1.64x, 64^2 1.62x, 16^3 1.66x) and every larger one
# faster in 7 of 7 (1D N=8192 0.80x, 128^2 0.71x, 32^3 0.62x, 256^2 0.58x;
# 64^3 0.80x of the split strang_step).
WAVEFRONT_MIN_POINTS = 2**13
# A serial sweep norms its differences this many points' worth of rows at a
# time.  A piece's norm steps (median, 2-vCPU host) in 2^13-, 2^14- and
# 2^15-point chunks, and in whole stacks after each sweep: 32^2 x 101 rows
# 24.4, 22.4, 23.6, 22.3 ms; 64^2 x 41 rows 27.8, 26.6, 26.2, 25.9 ms; 16^3 x
# 101 rows 67.5, 59.6, 54.5, 54.7 ms.  2^15 holds twice the buffers of 2^14.
NORM_CHUNK_POINTS = 2**14


def endpoint_q(n: int) -> Exponent:
    """Spatial exponent of the endpoint slot of the Z-norm: 2n/(n-2) when
    n >= 3, the fixed stand-in DEFAULT_Q_FALLBACK otherwise."""
    if n >= 3:
        return Exponent(Fraction(2 * n, n - 2))
    return Exponent(DEFAULT_Q_FALLBACK)


def _z_norm(times: np.ndarray, norms: Dict[Exponent, np.ndarray], grid: Grid) -> float:
    """Z-norm of a piece trajectory from its per-sample L^2 and L^qe norms:
    the max of its L^inf_t L^2 and L^2_t L^qe norms."""
    return max(time_lp(norms[TWO], times, "inf"), time_lp(norms[endpoint_q(grid.n)], times, 2))


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


def _frozen_copy(grid: Grid, values: np.ndarray) -> ComplexField:
    """A field of one read-only copy of values, never a view of a stack."""
    copy = values.copy()
    copy.flags.writeable = False
    return ComplexField(grid, copy)


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
    keep_states False only the final state (_frozen_copy), and refuses before
    the first step to copy more than physical memory holds."""

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
            self.stored.append(_frozen_copy(self.grid, values))
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
    kin_half = None if F is None else free_multiplier(grid, dt_eff / 2.0)

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
    times: np.ndarray  # the m + 1 nodes of the piece
    states: np.ndarray  # the final iterate, one read-only (m + 1,) + grid.shape stack
    factors: List[float]
    iterations: int
    residual: float  # Z-norm of Phi(v) - v relative to Z-norm of v


class _SweepChain:
    """The Picard sweeps of one Duhamel piece: S_0 is the free evolution,
    S_{k+1} = Phi(S_k), and the chain ends with the residual sweep S_{K+1}
    of the last iterate S_K.  S_{k+1} runs whatever the decision after S_k
    (as the next iterate or as the residual sweep), so that decision only
    says whether S_{k+2} runs.  S_k is written into stacks[k % 2], over
    S_{k-2}; row 0 of both is u0 and never written again.

    Once a chunk's last row is written, the sweep forms S_{k-1} - S_k over
    the chunk in its own buffer (S_0 itself for k = 0), logs one norm table
    of it, bit for bit the rows of a whole stack's, and then publishes the
    rows.  Serially, run(0, 1) makes every sweep, NORM_CHUNK_POINTS' worth of
    rows a chunk.  As a wavefront, run(0, 2) here and run(1, 2) on
    spectral's worker make the even and the odd sweeps at once, a row a
    chunk: row j of S_k is made only once S_{k-1} has published row j, so it
    reads finished rows of S_{k-1} and overwrites rows of S_{k-2} that
    S_{k-1} no longer reads.  Decisions are taken strictly in sweep order,
    each once the one before it is published."""

    def __init__(self, u0: np.ndarray, times: np.ndarray, h: float,
                 vvals: List[np.ndarray], fvals: List[Optional[np.ndarray]], grid: Grid,
                 tol: float, maxit: int, wavefront: bool):
        self.times, self.vvals, self.fvals, self.grid = times, vvals, fvals, grid
        self.tol, self.maxit, self.wavefront = tol, maxit, wavefront
        self.chunk = 1 if wavefront else min(len(times), max(1, NORM_CHUNK_POINTS // grid.npoints))
        self.kin = free_multiplier(grid, h)
        self.half = h / 2.0  # trapezoid weight
        self.qs = (TWO, endpoint_q(grid.n))
        self.stacks = [np.empty((len(times),) + grid.shape, dtype=np.complex128)
                       for _ in range(2)]
        for stack in self.stacks:
            stack[0] = u0
        self.z: Dict[int, float] = {}  # Z-norm of S_0, then of S_{k-1} - S_k
        self.go: Dict[int, bool] = {}  # decision after S_k: whether S_{k+2} runs
        self.rows: Dict[int, int] = {}  # rows of S_k normed and published
        self.factors: List[float] = []
        self.iterations = 0
        self.failed = False
        self.cond = threading.Condition()

    def run(self, first: int, stride: int) -> None:
        """Make sweeps first, first + stride, ... for as long as the decisions
        call for them, deciding after each.  Steps stay on this thread; an
        error tells the other thread to stop before it is raised."""
        try:
            buf = np.empty(self.grid.shape, dtype=np.complex128)  # b_j, then out[j] + b_j
            diff = np.empty((self.chunk,) + self.grid.shape, dtype=np.complex128)
            kernel = spectral._serial_strang_step if self.wavefront else strang_step
            step = partial(kernel, kin=self.kin, phase=None)
            k = first
            while k < 2 or self.go[k - 2]:  # a decision of this thread's own
                if not self._sweep(k, buf, diff, step):
                    return  # the other thread failed
                if k >= 1 and not self._decided(k - 1):
                    return  # S_k was the residual sweep
                go = k == 0 or self._decide(k)
                if not go:
                    self.iterations = k
                self._publish(self.go, k, go)
                k += stride
        except BaseException:
            with self.cond:
                self.failed = True
                self.cond.notify_all()
            raise

    def _sweep(self, k: int, buf: np.ndarray, diff: np.ndarray, step) -> bool:
        """S_k by the recursion of the module docstring from S_{k-1} (b = 0
        for S_0, the free evolution), normed a chunk of rows at a time, then
        z[k].  False when the other thread failed first."""
        m = len(self.times) - 1
        out = self.stacks[k % 2]
        v = self.stacks[(k - 1) % 2] if k else None
        norms = {q: np.empty(m + 1) for q in self.qs}
        if v is not None:
            self._form_b(0, v, buf)
        lo = ready = 0  # first row not yet normed; rows of S_{k-1} seen published
        for j in range(m + 1):  # row 0 is u0; row j > 0 is made here
            if j:
                if k and j >= ready:
                    ready = self._wait(lambda: self.rows.get(k - 1, 0) > j) and self.rows[k - 1]
                    if not ready:
                        return False
                if v is None:
                    step(out[j - 1], out=out[j])
                else:
                    np.add(out[j - 1], buf, out=buf)
                    step(buf, out=out[j])
                    self._form_b(j, v, buf)
                    out[j] += buf
            if j + 1 - lo == self.chunk or j == m:
                self._log_rows(k, lo, j + 1, diff, norms)
                self._publish(self.rows, k, j + 1)
                lo = j + 1
        self.z[k] = _z_norm(self.times, norms, self.grid)
        return True

    def _form_b(self, j: int, v: np.ndarray, buf: np.ndarray) -> None:
        """b_j = i(h/2)(V_j v_j - F_j), formed in buf."""
        np.multiply(self.vvals[j], v[j], out=buf)
        if self.fvals[j] is not None:
            np.subtract(buf, self.fvals[j], out=buf)
        np.multiply(buf, 1j * self.half, out=buf)

    def _log_rows(self, k: int, lo: int, hi: int, diff: np.ndarray,
                  norms: Dict[Exponent, np.ndarray]) -> None:
        """Norms of rows lo..hi-1 of S_{k-1} - S_k, formed in diff (of S_0
        itself for k = 0), into norms[q][lo:hi]."""
        rows = self.stacks[k % 2][lo:hi]
        if k:
            rows = np.subtract(self.stacks[(k - 1) % 2][lo:hi], rows, out=diff[:hi - lo])
        for q, norm in lq_norm_table(rows, self.grid, self.qs).items():
            norms[q][lo:hi] = norm

    def _decide(self, k: int) -> bool:
        """Whether S_{k+2} runs, from z[0..k]: after S_1, unless the first
        increment is negligible against S_0; later, until an increment falls
        below tol times the first, recording each contraction factor.
        NonContractionError after sweep maxit."""
        d = self.z[k]
        if k == 1:
            return d > 1e-14 * self.z[0]
        prev = self.z[k - 1]
        self.factors.append(d / prev if prev > 0 else 0.0)
        if d <= self.tol * self.z[1]:
            return False
        if k >= self.maxit:
            raise NonContractionError(
                f"no contraction after {self.maxit} iterations "
                f"(last factor {self.factors[-1]:.3f}); piece too large"
            )
        return True

    def _decided(self, k: int) -> bool:
        """The decision after S_k, once published; False once the other
        thread has failed."""
        return self._wait(lambda: k in self.go) and self.go[k]

    def _wait(self, ready: Callable[[], bool]) -> bool:
        """Wait until ready(); False once the other thread has failed."""
        with self.cond:
            while not (self.failed or ready()):
                self.cond.wait()
            return not self.failed

    def _publish(self, table: Dict[int, object], key: int, value: object) -> None:
        with self.cond:
            table[key] = value
            self.cond.notify_all()


def duhamel_iterate(u0: ComplexField, F: SourceLike, V: PotentialSpec, piece: Interval,
                    dt: float, tol: float = 1e-8, maxit: int = 30) -> DuhamelResult:
    """Fixed point of Phi(v) = exp(it Lap) u0 - i Duhamel[F - V v] on a piece.

    Starts from the free evolution; stops when the Z-norm of successive
    differences falls below tol times the first increment.  Raises
    NonContractionError when maxit is hit, which signals the piece's mixed
    potential norm is too large.

    On grids of at least WAVEFRONT_MIN_POINTS points, in a process allowed
    two or more CPUs, the sweeps run as a two-thread wavefront (_SweepChain),
    bit for bit the serial result.
    """
    grid = u0.grid
    times, dt_eff = time_lattice(piece, dt)
    m = len(times) - 1
    # two sweep stacks and one of grid buffers and v's norm temporaries, before
    # any sample_key call; then with the samples kept: half a field per real V
    # sample, one per V key (per node for key None), one per node of callable F
    _check_buffers(3 * (m + 1), grid)
    keys = [V.sample_key(t) for t in times.tolist()]
    samples = (keys.count(None) + len(set(keys) - {None})) / 2 + (m + 1) * callable(F)
    _check_buffers(3 * (m + 1) + samples, grid)
    sampler = PotentialSampler(V, grid)
    vvals = [sampler.values_at(float(t)) for t in times]
    fvals = [_source_at(F, float(t), grid) for t in times]
    # a wavefront holds two stacks and about eight grid fields (kin; per
    # thread b_j, a difference row and half a field of norm temporary; numpy's
    # own buffers), within the three stacks counted above once m + 1 > 8
    wavefront = m >= 8 and grid.npoints >= WAVEFRONT_MIN_POINTS and spectral._two_cpus()
    chain = _SweepChain(u0.values, times, dt_eff, vvals, fvals, grid, tol, maxit, wavefront)
    if wavefront:
        spectral._in_two_halves(lambda: chain.run(0, 2), lambda: chain.run(1, 2))
    else:
        chain.run(0, 1)

    iterations, factors = chain.iterations, chain.factors
    v, res_abs = chain.stacks[iterations % 2], chain.z[iterations + 1]
    del chain  # drop the residual sweep's stack
    v.flags.writeable = False
    vnorm = _z_norm(times, lq_norm_table(v, grid, (TWO, endpoint_q(grid.n))), grid)
    residual = res_abs / vnorm if vnorm > 0 else res_abs
    return DuhamelResult(times, v, factors, iterations, residual)


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
    part = partition_interval(V, r, s, interval, tau, dt)
    rec = _Recorder(u0.grid, part.slice_count, pairs, store_every, keep_states)
    logs = []  # per piece: contraction factors, iterations and residual
    state, skip = u0, 0  # a later piece's start repeats the previous terminal state
    for a, b in part.pieces:
        result = duhamel_iterate(state, F, V, (a, b), part.dt, tol)
        logs.append((result.factors, result.iterations, result.residual))
        for t, row in zip(result.times[skip:].tolist(), result.states[skip:]):
            rec.add(t, row)
        state, skip = _frozen_copy(u0.grid, result.states[-1]), 1
        del result, row  # hold one piece at a time: a row view pins its stack
    factors, iterations, residuals = (list(log) for log in zip(*logs))
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
    rounds: int = 12,
) -> float:
    """Largest tau on a bisection grid of [0, CALIBRATION_CAP] such that
    every reference potential, partitioned at tau, yields Duhamel runs from
    the L^2-normalized Gaussian on ``grid`` whose contraction factors stay at
    or below CALIBRATION_FACTOR on every piece (at most CALIBRATION_MAXIT
    iterations at tolerance CALIBRATION_TOL).

    Stands in for the non-constructive smallness threshold (2 C0)^-1: the
    returned tau defines the calibrated constant c_hat = 1/(2 tau) used in
    reports.  An empty-factor run (converged in one application) passes.
    """
    if not reference_potentials:
        raise PreconditionError("calibration needs at least one reference potential")
    r = as_exponent(r)
    s = as_exponent(s) if s is not None else Exponent(grid.n if grid.n >= 2 else 2)
    g = gaussian_field(grid, sigma=1.0)
    probe_state = ComplexField(grid, g.values / lq_norm(g, 2))

    def passes(tau: float) -> bool:
        for V in reference_potentials:
            try:
                part = partition_interval(V, r, s, interval, tau, dt)
                for piece in part.pieces:
                    res = duhamel_iterate(probe_state, None, V, piece, dt,
                                          CALIBRATION_TOL, CALIBRATION_MAXIT)
                    if res.factors and max(res.factors) > CALIBRATION_FACTOR:
                        return False
            except (NonContractionError, PartitionError):
                return False
        return True

    if passes(CALIBRATION_CAP):
        return CALIBRATION_CAP
    lo, hi = 0.0, CALIBRATION_CAP
    for _ in range(rounds):
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    if lo == 0.0:
        raise CalibrationError("no tau in the search range produced contracting runs")
    return lo
