"""Time-dependent potentials, mixed L^r_t L^s_x norms, and interval partitioning.

Potentials are immutable tagged values.  Norm evaluation dispatches per
variant: the self-similar variants (window cascades, pseudoconformal) use the
exact scaling identity ||eps^2 W(eps x)||_s = eps^(2 - n/s) ||W||_s for the
spatial factor, so only the time integral is approximated; generic variants
sample fields on the grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, List, Optional, Tuple, Union

import numpy as np

from .errors import (
    CannotPartitionError,
    PreconditionError,
    SingularityError,
    UnsplittableSliceError,
)
from .exponents import (
    Exponent,
    ExponentLike,
    ScheduleKind,
    ScheduleParams,
    as_exponent,
    validate_schedule_params,
)
from .spectral import ComplexField, Grid, Trajectory, lq_norm, lq_norms, rescale_field, time_lp

DEFAULT_DT = 1e-2

Interval = Tuple[float, float]
NormFunction = Callable[[float], float]


def time_lattice(interval: Interval, dt: float) -> Tuple[np.ndarray, float]:
    """The m + 1 uniform nodes a, a + h, ..., b with m = round((b - a) / dt)
    (at least 1) steps of width h = (b - a) / m; the last node is exactly b."""
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise PreconditionError(f"interval must have positive length, got [{a}, {b}]")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise PreconditionError(f"interval must have finite ends, got [{a}, {b}]")
    if not dt > 0:
        raise PreconditionError("dt must be positive")
    m = max(1, round((b - a) / dt))
    return np.linspace(a, b, m + 1), (b - a) / m


@dataclass(frozen=True)
class Window:
    """One cascade window: V = eps^2 W(eps x) for t in [start, start + length)."""

    k: int
    start: float
    length: float
    eps: float


@dataclass(frozen=True)
class Schedule:
    """Ordered, disjoint windows generated by power laws in the index k."""

    kind: ScheduleKind
    params: ScheduleParams
    n: int
    windows: Tuple[Window, ...]
    total_time: float  # upper end of the scheduled region (Local: limit of T_k)

    def __post_init__(self):
        starts = [w.start for w in self.windows]
        for prev, cur in zip(self.windows, self.windows[1:]):
            if cur.start < prev.start + prev.length - 1e-12:
                raise PreconditionError("schedule windows must be disjoint and ordered")
        if starts != sorted(starts):
            raise PreconditionError("schedule windows must have increasing starts")

    def window_at(self, t: float) -> Optional[Window]:
        for w in self.windows:
            if w.start <= t < w.start + w.length:
                return w
            if w.start > t:
                break
        return None


def make_schedule(kind: ScheduleKind, params: ScheduleParams, r: ExponentLike,
                  s: ExponentLike, n: int, K: int) -> Schedule:
    """Instantiate the first K windows of a cascade schedule.

    GLOBAL_SUBCRITICAL: contiguous windows of length k^alpha with
    eps_k = k^(-beta/2), starting at T_1 = 0.
    GLOBAL_SUPERCRITICAL: windows [k, k + delta_k] with delta_k = k^(-alpha)
    and eps_k = k^(beta/2).
    LOCAL: contiguous windows of length delta_k = k^(-alpha) with
    eps_k = k^(beta/2); the starts are the partial sums of delta_k and the
    schedule lives inside [0, T] with T = sum of all delta_k (finite since
    alpha > 1).
    """
    if K < 1:
        raise PreconditionError(f"need at least one window, got K={K}")
    validate_schedule_params(params, r, s, n)
    if params.kind is not kind:
        raise PreconditionError(f"params are tagged {params.kind}, schedule wants {kind}")
    alpha, beta = float(params.alpha), float(params.beta)
    ks = np.arange(1, K + 1, dtype=float)
    windows: List[Window] = []
    lengths = ks ** (kind.sign * alpha)
    eps = ks ** (-kind.sign * beta / 2.0)
    if kind is ScheduleKind.GLOBAL_SUBCRITICAL:
        starts = np.concatenate(([0.0], np.cumsum(lengths)[:-1]))
        total = float(np.cumsum(lengths)[-1])
    elif kind is ScheduleKind.GLOBAL_SUPERCRITICAL:
        starts = ks
        total = float(K + lengths[-1])
    else:  # LOCAL
        starts = np.concatenate(([0.0], np.cumsum(lengths)[:-1]))
        # Limit of the partial sums, bounded by the integral-test tail.
        partial = float(np.sum(lengths))
        tail = float(K) ** (1.0 - alpha) / (alpha - 1.0)
        total = partial + tail
    for i, k in enumerate(range(1, K + 1)):
        windows.append(Window(k=k, start=float(starts[i]), length=float(lengths[i]),
                              eps=float(eps[i])))
    return Schedule(kind=kind, params=params, n=n, windows=tuple(windows), total_time=total)


# ---------------------------------------------------------------------------
# Potential variants
#
# Every variant answers the same questions, so callers never branch on it:
# ``kind`` (its config name), ``grid`` (the one grid it is sampled on, None
# if it has none; ``evaluate`` is the one place that checks it), ``field_at``
# (V(t) on that grid as real float64 samples, see ``evaluate``),
# ``norm_function`` (t -> ||V(t)||_s on the variant's own grid, exact per
# variant where possible; a grid-free potential has norm 0) and
# ``sample_key`` (the key under which a sampled field may be cached, None for
# never).


@dataclass(frozen=True)
class ZeroPotential:
    kind = "zero"

    @property
    def grid(self) -> Optional[Grid]:
        return None

    def field_at(self, t: float, grid: Grid) -> np.ndarray:
        return np.zeros(grid.shape)

    def norm_function(self, s: Exponent) -> NormFunction:
        return lambda t: 0.0

    def sample_key(self, t: float) -> Hashable:
        return "static"


@dataclass(frozen=True)
class ProfilePotential:
    """Base of the variants built from one real profile W, evaluated on the
    profile's own grid only.  The profile stays a ComplexField (the format
    of configs and snapshots); samples read its real part."""

    profile: ComplexField

    def __post_init__(self):
        if np.abs(self.profile.values.imag).max() != 0.0:
            raise PreconditionError("potential profiles must be real valued")

    @property
    def grid(self) -> Optional[Grid]:
        return self.profile.grid

    def sample_key(self, t: float) -> Hashable:
        return None


@dataclass(frozen=True)
class StaticPotential(ProfilePotential):
    kind = "static"

    def field_at(self, t: float, grid: Grid) -> np.ndarray:
        return self.profile.values.real

    def norm_function(self, s: Exponent) -> NormFunction:
        base = lq_norm(self.profile, s)
        return lambda t: base

    def sample_key(self, t: float) -> Hashable:
        return "static"


@dataclass(frozen=True)
class PatchedRescaledPotential(ProfilePotential):
    """V(t, x) = eps_k^2 W(eps_k x) inside window k, zero elsewhere."""

    kind = "patched"

    schedule: Schedule

    def __post_init__(self):
        super().__post_init__()
        if self.schedule.n != self.profile.grid.n:
            raise PreconditionError("schedule dimension does not match profile grid")

    def field_at(self, t: float, grid: Grid) -> np.ndarray:
        w = self.schedule.window_at(t)
        if w is None:
            return np.zeros(grid.shape)
        return (w.eps**2) * rescale_field(self.profile.values.real, grid, w.eps)

    def norm_function(self, s: Exponent) -> NormFunction:
        base = lq_norm(self.profile, s)
        expo = 2.0 - self.profile.grid.n * float(s.reciprocal)

        def patched(t: float) -> float:
            w = self.schedule.window_at(t)
            return 0.0 if w is None else base * w.eps**expo

        return patched

    def sample_key(self, t: float) -> Hashable:
        w = self.schedule.window_at(t)
        return ("window", None if w is None else w.k)


@dataclass(frozen=True)
class PseudoconformalPotential(ProfilePotential):
    """V(T, X) = T^(-2) W(X / T), defined for T > 0."""

    kind = "pseudoconformal"

    def field_at(self, t: float, grid: Grid) -> np.ndarray:
        scale = _pseudoconformal_factor(t, lambda T: 1.0 / T**2)
        profile = self.profile.values.real
        if t == 1.0:
            return profile  # V(1) = W, the profile's own read-only view
        scaled = rescale_field(profile, grid, 1.0 / t)
        scaled *= scale
        return scaled

    def norm_function(self, s: Exponent) -> NormFunction:
        base = lq_norm(self.profile, s)
        expo = self.profile.grid.n * float(s.reciprocal) - 2.0
        return lambda t: base * _pseudoconformal_factor(t, lambda T: T**expo)


def _pseudoconformal_factor(t: float, power: Callable[[float], float]) -> float:
    """power(T), a power of T in V(T, X) = T^(-2) W(X / T) or its norm.
    SingularityError at T <= 0, and where the power is not a finite float
    (for 1 / T^2, every T below about 1e-154)."""
    if t <= 0.0:
        raise SingularityError(f"pseudoconformal potential is singular at T={t}")
    try:
        factor = power(t)
    except (OverflowError, ZeroDivisionError):
        factor = math.inf
    if not math.isfinite(factor):
        raise SingularityError(f"pseudoconformal potential overflows at T={t}")
    return factor


@dataclass(frozen=True)
class SumPotential:
    """Sum of potentials, each tagged with its own (r_j, s_j)."""

    kind = "sum"

    terms: Tuple[Tuple["PotentialSpec", Exponent, Exponent], ...]

    def __post_init__(self):
        if not self.terms:
            raise PreconditionError("sum potential needs at least one term")
        if len({term.grid for term, _, _ in self.terms} - {None}) > 1:
            raise PreconditionError("sum potential terms lie on different grids")

    @property
    def grid(self) -> Optional[Grid]:
        return next((term.grid for term, _, _ in self.terms if term.grid is not None), None)

    def field_at(self, t: float, grid: Grid) -> np.ndarray:
        acc = np.zeros(grid.shape)
        for term, _, _ in self.terms:
            acc += term.field_at(t, grid)
        return acc

    def norm_function(self, s: Exponent) -> NormFunction:
        g = self.grid
        if g is None:
            return lambda t: 0.0  # every term is a zero potential
        return lambda t: float(lq_norms(self.field_at(t, g), g, s))

    def sample_key(self, t: float) -> Hashable:
        return None


PotentialSpec = Union[ZeroPotential, StaticPotential, PatchedRescaledPotential,
                      PseudoconformalPotential, SumPotential]


def real_profile(grid: Grid, values: np.ndarray) -> ComplexField:
    """Build a real-valued profile field, scrubbing roundoff-size imaginaries."""
    vals = np.asarray(values)
    if np.iscomplexobj(vals):
        scale = np.abs(vals).max() or 1.0
        if np.abs(vals.imag).max() > 1e-12 * scale:
            raise PreconditionError("profile has a non-negligible imaginary part")
        vals = vals.real
    return ComplexField(grid, vals.astype(np.complex128))


def evaluate(V: PotentialSpec, t: float, grid: Grid) -> np.ndarray:
    """The potential at time t as real float64 samples on the grid.  Where
    V(t) is V's stored profile (static V, pseudoconformal V at T = 1) they
    are the read-only view of its real part, else an array the caller owns.
    Rescaled profiles are guarded at the box tolerance
    spectral.DEFAULT_MASS_TOL.  This is the one grid check of the package:
    PreconditionError unless V's grid is None or the sampling grid."""
    if V.grid is not None and V.grid != grid:
        raise PreconditionError(f"{V.kind} potential defined on a different grid")
    return V.field_at(t, grid)


# ---------------------------------------------------------------------------
# Mixed norms


def mixed_norm(V: PotentialSpec, r: ExponentLike, s: ExponentLike, interval: Interval,
               dt: float = DEFAULT_DT) -> float:
    """||V||_{L^r(interval; L^s)} by composite trapezoid over uniform samples.

    Spatial norms per sample come from the variant's norm_function, which is
    exact for the self-similar variants; the time quadrature carries the dt
    error.
    """
    r, s = as_exponent(r), as_exponent(s)
    ts, _ = time_lattice(interval, dt)
    fn = V.norm_function(s)
    return time_lp([fn(float(t)) for t in ts], ts, r)


def trajectory_mixed_norm(traj: Trajectory, p: ExponentLike, q: ExponentLike) -> float:
    """||u||_{L^p(times; L^q)} of a sampled trajectory (trapezoid in time)."""
    return time_lp([lq_norm(state, q) for state in traj.states], traj.times, p)


@dataclass(frozen=True)
class PatchedNormBound:
    """Certified bound on ||V||_{L^r L^s} of a window cascade.

    The k-th summand is (window length)^(1/r) eps_k^(2 - n/s) W_snorm, an
    exact power of k; ``exponent`` is that power.  When it is < -1 the full
    series converges and ``total`` = last partial sum + integral-test tail.
    """

    converges: bool
    exponent: Optional[Fraction]
    summands: np.ndarray
    partial_sums: np.ndarray
    tail_bound: float
    total: Optional[float]


def analytic_patched_norm(schedule: Schedule, r: ExponentLike, s: ExponentLike,
                          W_snorm: float) -> PatchedNormBound:
    """Closed-form norm bound of a patched-rescaled potential.

    r = inf is handled as the sup over windows of eps_k^(2 - n/s) W_snorm;
    the ``converges`` flag then reports whether that sup stays bounded as
    K grows (nonpositive k-exponent).
    """
    if W_snorm < 0:
        raise PreconditionError("profile norm must be nonnegative")
    r, s = as_exponent(r), as_exponent(s)
    n = schedule.n
    alpha, beta = schedule.params.alpha, schedule.params.beta
    eps_expo = 2 - n * s.reciprocal  # eps_k = k^(-sign beta/2) enters at this power
    sign = schedule.kind.sign  # window k has length k^(sign alpha)
    sup_expo = -sign * Fraction(beta, 2) * eps_expo
    k_expo = sign * alpha * r.reciprocal + sup_expo
    lengths = np.array([w.length for w in schedule.windows])
    eps = np.array([w.eps for w in schedule.windows])
    if r.is_infinite:
        # sup over windows; ``converges`` reports boundedness as K grows
        summands = W_snorm * eps ** float(eps_expo)
        sup = float(summands.max()) if len(summands) else 0.0
        return PatchedNormBound(
            converges=sup_expo <= 0,
            exponent=sup_expo,
            summands=summands,
            partial_sums=np.maximum.accumulate(summands),
            tail_bound=0.0,
            total=sup,
        )
    summands = W_snorm * lengths ** (1.0 / float(r)) * eps ** float(eps_expo)
    partial = np.cumsum(summands)
    K = schedule.windows[-1].k
    if k_expo < -1:
        tail = W_snorm * float(K) ** float(k_expo + 1) / float(-1 - k_expo)
        return PatchedNormBound(True, k_expo, summands, partial, tail, float(partial[-1]) + tail)
    return PatchedNormBound(False, k_expo, summands, partial, math.inf, None)


def analytic_pseudoconformal_norm(r: ExponentLike, s: ExponentLike, n: int, delta: float,
                                  W_snorm: float) -> float:
    """Closed form of ||T^-2 W(X/T)||_{L^r(delta, 1; L^s)}:
    (integral of T^(r(n/s - 2)) over [delta, 1])^(1/r) * W_snorm.

    Finite as delta -> 0 exactly when r(n/s - 2) > -1; the exponent -1 edge
    falls back to the logarithm antiderivative.
    """
    r, s = as_exponent(r), as_exponent(s)
    if r.is_infinite:
        raise PreconditionError("pseudoconformal norm needs r in [1, inf)")
    if s.is_infinite or not Fraction(n, 2) < s.value < Fraction(n):
        raise PreconditionError(f"s must lie strictly between n/2 and n, got s={s}")
    if not 0.0 < delta <= 1.0:
        raise PreconditionError(f"delta must lie in (0, 1], got {delta}")
    if W_snorm < 0:
        raise PreconditionError("profile norm must be nonnegative")
    a = r.value * (n * s.reciprocal - 2)
    if a == -1:
        integral = -math.log(delta)
    else:
        af = float(a)
        integral = (1.0 - delta ** (af + 1.0)) / (af + 1.0)
    return integral ** (1.0 / float(r)) * W_snorm


# ---------------------------------------------------------------------------
# Interval partitioning


@dataclass(frozen=True)
class PartitionResult:
    pieces: List[Interval]
    piece_norms: List[float]
    slice_count: int
    dt: float

    def __iter__(self):
        return iter(self.pieces)

    def __len__(self):
        return len(self.pieces)


def slice_powers(V: PotentialSpec, r: Exponent, s: Exponent, interval: Interval,
                 dt: float) -> Tuple[np.ndarray, float]:
    """Midpoint-rule r-th powers of the slice norms on a uniform slice lattice.

    Midpoint sampling makes the powers exact for potentials that are constant
    on each slice (window schedules aligned to the lattice).
    """
    ts, dt_eff = time_lattice(interval, dt)
    fn = V.norm_function(s)
    norms = np.array([fn(float(t)) for t in ts[:-1] + dt_eff / 2.0])
    if r.is_infinite:
        return norms, dt_eff  # interpret values as slice sup norms
    return norms ** float(r) * dt_eff, dt_eff


def partition_interval(V: PotentialSpec, r: ExponentLike, s: ExponentLike,
                       interval: Interval, tau: float, dt: float = DEFAULT_DT) -> PartitionResult:
    """Greedy left-to-right partition into pieces of mixed norm at most tau.

    Slices of width ~dt are accumulated until the running r-th power of the
    piece norm would exceed tau^r, then the piece is cut.  Pieces tile the
    interval exactly.  A single slice exceeding tau raises
    UnsplittableSliceError (refine dt); with r = inf no cut can lower the
    norm, so any offending slice raises CannotPartitionError.
    """
    r, s = as_exponent(r), as_exponent(s)
    if not 0.0 < tau < math.inf:
        raise PreconditionError(f"threshold tau must be positive and finite, got {tau}")
    powers, dt_eff = slice_powers(V, r, s, interval, dt)
    a, b = float(interval[0]), float(interval[1])
    m = len(powers)
    slack = 1.0 + 1e-12
    if r.is_infinite:
        worst = float(powers.max())
        if worst > tau * slack:
            raise CannotPartitionError(
                f"r = inf: slice sup norm {worst:.3e} exceeds tau = {tau:.3e}"
            )
        return PartitionResult([(a, b)], [worst], m, dt_eff)
    budget = tau ** float(r)
    if powers.max() > budget * slack:
        raise UnsplittableSliceError(
            f"a single dt-slice has norm {powers.max() ** (1 / float(r)):.3e} > tau; refine dt"
        )
    pieces: List[Interval] = []
    norms: List[float] = []
    acc = 0.0
    start_idx = 0
    for i in range(m):
        if acc + powers[i] > budget * slack:
            pieces.append((a + start_idx * dt_eff, a + i * dt_eff))
            norms.append(float(acc ** (1.0 / float(r))))
            start_idx = i
            acc = 0.0
        acc += powers[i]
    pieces.append((a + start_idx * dt_eff, b))
    norms.append(float(acc ** (1.0 / float(r))))
    return PartitionResult(pieces, norms, m, dt_eff)


# ---------------------------------------------------------------------------
# CSV rows for window schedules


def schedule_rows(schedule: Schedule, r: ExponentLike, s: ExponentLike,
                  W_snorm: float) -> List[Tuple[int, float, float, float, float]]:
    """Rows (k, start, length, eps, piece_norm) where piece_norm is the
    window's contribution to the mixed norm."""
    bound = analytic_patched_norm(schedule, r, s, W_snorm)
    return [
        (w.k, w.start, w.length, w.eps, float(bound.summands[i]))
        for i, w in enumerate(schedule.windows)
    ]
