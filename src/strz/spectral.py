"""Periodic-box discretization, exact free propagation, and spatial norms.

The box [-L, L)^n stands in for R^n.  All sign conventions follow the
equation i u_t - Lap(u) + V u = F, so the free evolution multiplies the
Fourier coefficient at frequency xi by exp(+i t |xi|^2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Sequence, Union

import numpy as np

from .errors import PreconditionError, SupportEscapeError
from .exponents import Exponent, as_exponent

# Fraction of |u|^2 mass tolerated in the outer 10% shell of the box before a
# rescaling refuses to trust the periodic truncation; every potential
# evaluation guards at this default.
DEFAULT_MASS_TOL = 1e-8
SHELL_FRACTION = 0.9
DECAY_FIT_TIMES = 16  # sample times of a dispersive-decay fit

QLike = Union[Exponent, int, Fraction, str]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L)^n with N points per axis."""

    n: int
    L: float
    N: int

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise PreconditionError(f"grid dimension must be 1, 2 or 3, got {self.n}")
        if not self.L > 0:
            raise PreconditionError(f"box half-width must be positive, got {self.L}")
        if self.N < 8 or self.N & (self.N - 1) != 0:
            raise PreconditionError(f"N must be a power of two >= 8, got {self.N}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.n

    @property
    def npoints(self) -> int:
        return self.N**self.n

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.n

    def axis(self) -> np.ndarray:
        """Coordinates along one axis: x_j in [-L, L)."""
        return -self.L + self.spacing * np.arange(self.N)

    def freq_axis(self) -> np.ndarray:
        """DFT frequencies scaled to angular frequencies pi/L * m."""
        return (np.pi / self.L) * np.fft.fftfreq(self.N, d=1.0 / self.N)

    def coords(self) -> List[np.ndarray]:
        return list(np.meshgrid(*([self.axis()] * self.n), indexing="ij"))

    def radius_inf(self) -> np.ndarray:
        """max_i |x_i| at every grid point (for shell masks)."""
        return _radius_inf(self)


@lru_cache(maxsize=8)
def _radius_inf(grid: Grid) -> np.ndarray:
    ax = np.abs(grid.axis())
    out = ax
    for _ in range(grid.n - 1):
        out = np.maximum.outer(out, ax)
    return out.reshape(grid.shape)


@lru_cache(maxsize=8)
def _ksq(grid: Grid) -> np.ndarray:
    xi = grid.freq_axis()
    out = xi**2
    for _ in range(grid.n - 1):
        out = np.add.outer(out, xi**2)
    return out.reshape(grid.shape)


def make_grid(n: int, L: float, N: int) -> Grid:
    return Grid(n=n, L=float(L), N=int(N))


@dataclass(frozen=True)
class ComplexField:
    """Complex-valued state sampled on a grid; values are immutable."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        raw = self.values
        vals = np.ascontiguousarray(np.asarray(raw, dtype=np.complex128))
        if vals is raw and vals.flags.writeable:
            vals = vals.copy()  # never freeze an array the caller still owns
        if vals.shape != self.grid.shape:
            raise PreconditionError(
                f"values shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(vals.view(np.float64))):
            raise PreconditionError("field contains NaN or Inf")
        if vals.flags.writeable:
            vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def gaussian_field(grid: Grid, sigma: float = 1.0, amplitude: float = 1.0,
                   center: Sequence[float] = ()) -> ComplexField:
    c = tuple(center) if center else (0.0,) * grid.n
    rsq = sum((x - ci) ** 2 for x, ci in zip(grid.coords(), c))
    return ComplexField(grid, amplitude * np.exp(-rsq / (2.0 * sigma**2)))


@dataclass(frozen=True)
class Trajectory:
    """Time-sampled solution: strictly increasing times, states on one grid."""

    times: np.ndarray
    states: List[ComplexField]
    energy_log: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or len(t) != len(self.states):
            raise PreconditionError("times and states must have matching length")
        if len(t) > 1 and not np.all(np.diff(t) > 0):
            raise PreconditionError("times must be strictly increasing")
        g = self.states[0].grid
        if any(s.grid != g for s in self.states):
            raise PreconditionError("all states must share one grid")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "energy_log", np.asarray(self.energy_log, dtype=float))

    @property
    def grid(self) -> Grid:
        return self.states[0].grid


def free_multiplier(grid: Grid, t: float) -> np.ndarray:
    """Fourier multiplier exp(+i t |xi|^2) of the free group."""
    return np.exp(1j * t * _ksq(grid))


def strang_step(a: np.ndarray, kin: np.ndarray, phase: Optional[np.ndarray] = None) -> np.ndarray:
    """One Strang step P F^-1[kin F(P a)] with two FFTs: kin is a
    free_multiplier of the step length h and phase the potential half-phase
    P = exp(i (h/2) V); phase None (P = 1) makes it exact free propagation."""
    if phase is None:
        return np.fft.ifftn(kin * np.fft.fftn(a))
    return phase * np.fft.ifftn(kin * np.fft.fftn(phase * a))


def free_propagate(u: ComplexField, t: float) -> ComplexField:
    """Evolve u under i u_t - Lap(u) = 0 for time t (exact on the grid)."""
    if not math.isfinite(t):
        raise PreconditionError("propagation time must be finite")
    if t == 0.0:
        return u
    return ComplexField(u.grid, strang_step(u.values, free_multiplier(u.grid, t)))


def lq_norms(values: np.ndarray, grid: Grid, q: QLike) -> np.ndarray:
    """Spatial L^q norms of complex or real floating samples by Riemann sum
    over the trailing grid.n axes, so one state gives a scalar and a stacked
    (m+1,) + grid.shape array gives one norm per state; q = inf gives the
    grid max modulus."""
    q = as_exponent(q)
    axes = tuple(range(-grid.n, 0))
    mod = np.abs(values)
    if q.is_infinite:
        return mod.max(axis=axes)
    qf = float(q)
    if qf == 2.0:
        return np.sqrt(np.square(mod, out=mod).sum(axis=axes) * grid.cell_volume)
    mod **= qf
    return (mod.sum(axis=axes) * grid.cell_volume) ** (1.0 / qf)


def lq_norm(u: ComplexField, q: QLike) -> float:
    """Spatial L^q norm of one field (see lq_norms)."""
    return float(lq_norms(u.values, u.grid, q))


def time_lp(samples: np.ndarray, times: np.ndarray, p: QLike) -> float:
    """(trapezoid of samples^p over times)^(1/p); the max of the samples for
    p = inf.  A single sample spans no time, so finite p then gives 0."""
    p = as_exponent(p)
    samples = np.asarray(samples, dtype=float)
    if p.is_infinite:
        return float(samples.max())
    if len(times) < 2:
        return 0.0
    pf = float(p)
    return float(np.trapezoid(samples**pf, x=times) ** (1.0 / pf))


def shell_mass_fraction(values: np.ndarray, grid: Grid) -> float:
    """Fraction of |u|^2 mass in the outer (1 - SHELL_FRACTION) shell."""
    mass = np.abs(values) ** 2
    total = mass.sum()
    if total == 0.0:
        return 0.0
    shell = grid.radius_inf() >= SHELL_FRACTION * grid.L
    return float(mass[shell].sum() / total)


def check_support(values: np.ndarray, grid: Grid, mass_tol: float, what: str) -> None:
    frac = shell_mass_fraction(values, grid)
    if frac > mass_tol:
        raise SupportEscapeError(
            f"{what}: outer-shell mass fraction {frac:.3e} exceeds tolerance {mass_tol:.3e}"
        )


@lru_cache(maxsize=8)
def _interp_matrix(grid: Grid, eps: float) -> np.ndarray:
    """Per-axis matrix E with E[j, m] = (1/N) exp(i xi_m (eps x_j + L)).

    Evaluating the trigonometric interpolant of f at the scaled points
    eps * x_j is then a tensor application of E along each axis of fft(f).
    The Nyquist column uses a cosine so real fields stay real off-lattice.
    Rows whose target eps * x_j leaves the box are zeroed: the rescaled
    field keeps the R^n meaning f(eps x) (zero beyond the stored profile)
    instead of sampling periodic images.
    """
    x = grid.axis()
    xi = grid.freq_axis()
    target = eps * x + grid.L
    E = np.exp(1j * np.outer(target, xi)) / grid.N
    nyq = grid.N // 2
    E[:, nyq] = np.cos(target * xi[nyq]) / grid.N
    escaped = np.abs(eps * x) > grid.L * (1.0 + 1e-12)
    E[escaped, :] = 0.0
    return E


def rescale_field(f: ComplexField, eps: float, mass_tol: float = DEFAULT_MASS_TOL) -> ComplexField:
    """Band-limited sampling of x -> f(eps x) on the same grid.

    Satisfies the change-of-variables identity ||f_eps||_q = eps^(-n/q) ||f||_q
    up to quadrature error on well-resolved profiles.  Raises
    SupportEscapeError when either the input or the result carries more than
    the tolerated |u|^2 mass in the outer shell of the box, since in that
    case the periodic images contaminate the samples.
    """
    if not eps > 0:
        raise PreconditionError(f"rescale factor must be positive, got {eps}")
    if eps == 1.0:
        return f
    check_support(f.values, f.grid, mass_tol, "rescale input")
    E = _interp_matrix(f.grid, float(eps))
    out = np.fft.fftn(f.values)
    for axis in range(f.grid.n):
        out = np.moveaxis(np.tensordot(E, out, axes=([1], [axis])), 0, axis)
    if np.abs(f.values.imag).max() == 0.0:
        out = out.real.astype(np.complex128)
    result = ComplexField(f.grid, out)
    check_support(result.values, f.grid, mass_tol, "rescale output")
    return result


@dataclass(frozen=True)
class DecayFit:
    """Least-squares power-law fit of the free sup-norm decay."""

    times: np.ndarray
    sup_norms: np.ndarray
    slope: float
    intercept: float


def dispersive_decay_fit(u0: ComplexField, t_range: tuple, mass_tol: float = 1e-3) -> DecayFit:
    """Fit log ||exp(it Lap) u0||_inf against log t at DECAY_FIT_TIMES
    log-spaced times.

    For integrable profiles the slope approaches -n/2.  Raises
    SupportEscapeError once the evolved state no longer fits the box.
    """
    t0, t1 = t_range
    if not 0 < t0 < t1:
        raise PreconditionError("need 0 < t0 < t1 for a log-log fit")
    ts = np.geomspace(t0, t1, DECAY_FIT_TIMES)
    sups = np.empty(DECAY_FIT_TIMES)
    for i, t in enumerate(ts):
        ut = free_propagate(u0, float(t))
        check_support(ut.values, u0.grid, mass_tol, f"decay fit at t={t:.3g}")
        sups[i] = lq_norm(ut, "inf")
    slope, intercept = np.polyfit(np.log(ts), np.log(sups), 1)
    return DecayFit(times=ts, sup_norms=sups, slope=float(slope), intercept=float(intercept))
