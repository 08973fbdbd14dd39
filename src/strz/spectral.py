"""Periodic-box discretization, exact free propagation, and spatial norms.

The box [-L, L)^n stands in for R^n.  All sign conventions follow the
equation i u_t - Lap(u) + V u = F, so the free evolution multiplies the
Fourier coefficient at frequency xi by exp(+i t |xi|^2).

Every exp(i theta) of a real theta on a solve path (free_multiplier, the
solver's half-phases, the power tables of _sinc_matrix) is unit_phase:
cos(theta) + i sin(theta) in one complex array, bit for bit what
np.exp(1j * theta) gives, without its complex product and exp.

strang_step uses one extra worker thread on grids of at least
PARALLEL_MIN_POINTS = 2^18 points (64^3, 512^2 and up) when the process
may run on two or more CPUs; results are bit-identical either way, and
`taskset -c 0` runs it on one CPU.  There is no option or environment
variable for it.  The solver's Duhamel sweeps use the same thread on
smaller grids too (solver.WAVEFRONT_MIN_POINTS).
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from .errors import PreconditionError, SupportEscapeError
from .exponents import INF, Exponent, as_exponent

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

# Fraction of |u|^2 mass tolerated in the outer 10% shell of the box before a
# rescaling refuses to trust the periodic truncation; every potential
# evaluation guards at this default.
DEFAULT_MASS_TOL = 1e-8
SHELL_FRACTION = 0.9
DECAY_FIT_TIMES = 16  # sample times of a dispersive-decay fit
DECAY_FIT_MASS_TOL = 1e-3  # box tolerance of a dispersive-decay fit
# strang_step splits an array of at least this many points between two
# threads.  Per step on a 2-vCPU host the split won 10 of 10 alternating
# trials at 64^3 and 512^2 (about -40%) but only 5 of 10 at 32^3 and 256^2;
# no grid with n >= 2 has between 2^16 and 2^18 points.
PARALLEL_MIN_POINTS = 2**18

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
        if not 0 < self.L < math.inf:
            raise PreconditionError(f"box half-width must be positive and finite, got {self.L}")
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


@lru_cache(maxsize=8)
def _shell_mask(grid: Grid) -> np.ndarray:
    """Read-only mask of the outer (1 - SHELL_FRACTION) shell: the grid
    points where max_i |x_i| >= SHELL_FRACTION * L."""
    ax = np.abs(grid.axis())
    radius = ax
    for _ in range(grid.n - 1):
        radius = np.maximum.outer(radius, ax)
    mask = radius.reshape(grid.shape) >= SHELL_FRACTION * grid.L
    mask.flags.writeable = False
    return mask


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


def unit_phase(theta: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """exp(i theta) of real theta as cos(theta) + i sin(theta), written into
    out (a complex128 array of theta's shape, whose imaginary part may be
    theta itself) or into one new array.

    Bit for bit np.exp(1j * theta), without its complex product or the exp
    of a real part: 1j * theta is +0 + i theta, which turns theta = -0 into
    +0 and keeps every other theta, and numpy's complex exp of +-0 + i theta
    is exp(+-0) (cos theta + i sin theta) with exp(+-0) = 1 exactly.  That
    numpy's cos and sin agree with the ones inside its complex exp is pinned
    by the tests, on the numpy floor too."""
    if out is None:
        out = np.empty(np.shape(theta), dtype=np.complex128)
    np.add(theta, 0.0, out=out.imag)  # -0 + 0.0 is +0, as in 1j * theta
    np.cos(out.imag, out=out.real)
    np.sin(out.imag, out=out.imag)
    return out


def free_multiplier(grid: Grid, t: float) -> np.ndarray:
    """Fourier multiplier exp(+i t |xi|^2) of the free group, as
    unit_phase(t |xi|^2): bit for bit np.exp(1j * t * |xi|^2) for t >= 0.
    For t < 0 the xi = 0 entry is 1 + 0j, where that product kept the -0
    of t * 0 and gave 1 - 0j."""
    return unit_phase(t * _ksq(grid))


def strang_step(a: np.ndarray, kin: np.ndarray, phase: Optional[np.ndarray] = None,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """One Strang step P F^-1[kin F(P a)] with two FFTs: kin is a
    free_multiplier of the step length h and phase the potential half-phase
    P = exp(i (h/2) V); phase None (P = 1) makes it exact free propagation.

    P a (or a copy of a) is formed in the result and both FFTs and products
    then run in place, so a is never written and may be read-only.  Given
    out, a complex128 array of a's shape that does not overlap a, the step
    writes the result there, returns out and allocates nothing; else it
    returns one new array.

    An array of two or more axes and at least PARALLEL_MIN_POINTS points,
    in a process allowed two or more CPUs, steps in two threads
    (_split_strang_step), bit for bit the serial result."""
    if out is None:
        out = np.empty(np.shape(a), dtype=np.complex128)
    if out.ndim >= 2 and out.size >= PARALLEL_MIN_POINTS and _two_cpus():
        _split_strang_step(a, kin, phase, out)
        return out
    return _serial_strang_step(a, kin, phase, out, False)


def _serial_strang_step(a: np.ndarray, kin: np.ndarray, phase: Optional[np.ndarray],
                        out: np.ndarray, one_axis: bool) -> np.ndarray:
    """strang_step into out on this thread alone, whatever the size; with
    one_axis, every transform is one-axis passes (_transform)."""
    if phase is None:
        np.copyto(out, a)
    else:
        np.multiply(phase, a, out=out)
    if one_axis:
        _transform(out, None, False, True)
        np.multiply(kin, out, out=out)
        _transform(out, None, True, True)
    else:  # the calls of every serial step, kept free of _transform's dispatch
        np.fft.fftn(out, out=out)
        np.multiply(kin, out, out=out)
        np.fft.ifftn(out, out=out)
    if phase is not None:
        np.multiply(phase, out, out=out)
    return out


def _transform(o: np.ndarray, axes: Optional[Tuple[int, ...]], inverse: bool,
               one_axis: bool) -> None:
    """The fftn (ifftn) of o over axes (None: every axis), in place.  With
    one_axis it is made of one-axis np.fft.fft (ifft) passes in fftn's
    order, last axis first: the same pocketfft pass per axis, so bit for bit
    the same, and no call of the fftn and ifftn a tracer patches."""
    if one_axis:
        for axis in reversed(range(o.ndim) if axes is None else axes):
            (np.fft.ifft if inverse else np.fft.fft)(o, axis=axis, out=o)
    else:
        (np.fft.ifftn if inverse else np.fft.fftn)(o, axes=axes, out=o)


def _two_cpus() -> bool:
    """Whether this process may run on two or more CPUs (taskset and cpuset
    masks included); platforms without affinity masks step serially."""
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2


@lru_cache(maxsize=1)
def _worker(pid: int) -> ThreadPoolExecutor:
    """The one worker thread of process pid, made on first use.  A forked
    child has a new pid and so gets its own: the parent's thread does not
    run in the child."""
    # imported here: concurrent.futures loads logging, about 0.6 MB of peak
    # RSS that a process stepping only small grids need not pay
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="strz-step")


def _in_two_halves(mine: Callable[[], object], theirs: Callable[[], object]) -> None:
    """Run theirs() on the worker while mine() runs here.  Return, or raise
    the first error (mine before theirs), only once both have stopped, so
    no half still writes the result after the caller regains it."""
    future = _worker(os.getpid()).submit(theirs)
    try:
        mine()
    finally:
        future.exception()  # waits for theirs to stop; raises nothing
    future.result()


def _split_strang_step(a: np.ndarray, kin: np.ndarray, phase: Optional[np.ndarray],
                       out: np.ndarray) -> None:
    """strang_step into out in four stages, each split between this thread
    and the worker: (A) halves of axis 0 form P a and transform axes
    1..n-1; (B) halves of axis 1 transform axis 0 and multiply by kin;
    (C) halves of axis 0 inverse-transform axes 1..n-1; (D) halves of axis 1
    inverse-transform axis 0 and multiply by P.

    numpy's fftn and ifftn transform the last axis first and axis 0 last,
    each axis by the same one-axis pocketfft pass as fft and ifft, so every
    lane gets the serial arithmetic and the result is bit-identical.  This
    thread makes the one np.fft.fftn and np.fft.ifftn call of each
    transform, on its half of axis 0; the worker calls only one-axis
    np.fft.fft / np.fft.ifft and ufuncs, so a tracer that patches
    fftn/ifftn still counts two calls a step, all on the calling thread."""
    inner = tuple(range(1, out.ndim))
    top, bottom = np.s_[: len(out) // 2], np.s_[len(out) // 2:]
    left, right = np.s_[:, : out.shape[1] // 2], np.s_[:, out.shape[1] // 2:]

    def forward_rows(half, mine):
        o = out[half]
        if phase is None:
            np.copyto(o, a[half])
        else:
            np.multiply(phase[half], a[half], out=o)
        _transform(o, inner, False, not mine)

    def forward_cols(half):
        o = out[half]
        np.fft.fft(o, axis=0, out=o)
        np.multiply(kin[half], o, out=o)

    def backward_rows(half, mine):
        _transform(out[half], inner, True, not mine)

    def backward_cols(half):
        o = out[half]
        np.fft.ifft(o, axis=0, out=o)
        if phase is not None:
            np.multiply(phase[half], o, out=o)

    _in_two_halves(lambda: forward_rows(top, True), lambda: forward_rows(bottom, False))
    _in_two_halves(lambda: forward_cols(left), lambda: forward_cols(right))
    _in_two_halves(lambda: backward_rows(top, True), lambda: backward_rows(bottom, False))
    _in_two_halves(lambda: backward_cols(left), lambda: backward_cols(right))


def free_propagate(u: ComplexField, t: float) -> ComplexField:
    """Evolve u under i u_t - Lap(u) = 0 for time t (exact on the grid)."""
    if not math.isfinite(t):
        raise PreconditionError("propagation time must be finite")
    if t == 0.0:
        return u
    return ComplexField(u.grid, strang_step(u.values, free_multiplier(u.grid, t)))


def lq_norm_table(values: np.ndarray, grid: Grid,
                  qs: Iterable[QLike]) -> Dict[Exponent, np.ndarray]:
    """Spatial L^q norms, for every q of qs, of complex or real floating
    samples by Riemann sum over the trailing grid.n axes: one state gives a
    scalar per q and a stacked (m+1,) + grid.shape array one norm per state.
    Each norm of a stack is bit for bit that of its row alone as a stack of
    one, so a stack may be normed row by row.  A state that is not a stack
    may differ in the last bit for q other than 2 and inf: numpy takes a
    scalar's root by its C pow and an array's by its vectorized loop.

    One modulus pass fills |u| into the one real buffer the kernel allocates,
    and every q reads it: q = inf first (the grid max modulus).  Then the
    buffer is squared in place: q = 2 sums |u|^2, and q = 4 and q = 6 are
    fused multiply-sums (einsum) of two and three |u|^2 operands, so they
    make no temporary and call no pow.  Any other finite q (8 among them)
    takes its own power pass in the buffer, refilled with |u| first if it
    was already consumed.
    """
    exps = {as_exponent(q) for q in qs}
    even = [q for q in exps if float(q) in (2.0, 4.0, 6.0)]
    rest = [q for q in exps if q not in even and not q.is_infinite]
    axes = tuple(range(-grid.n, 0))
    mod = np.abs(values)
    table = {INF: mod.max(axis=axes)} if INF in exps else {}
    if even:
        sq = np.square(mod, out=mod)  # |u|^2
        sub = "..." + "ijk"[:grid.n]
        for q in even:
            if float(q) == 2.0:
                table[q] = np.sqrt(sq.sum(axis=axes) * grid.cell_volume)
                continue
            factors = 3 if float(q) == 6.0 else 2
            spec = ",".join([sub] * factors) + "->..."
            if factors == 2 and sq.ndim > grid.n:
                # einsum sums two operands in buffer-sized chunks once a
                # stack's rows exceed 8192 points; one call per row sums
                # each whole, as for a stack of one
                rows = sq.reshape((-1,) + grid.shape)
                total = np.array([np.einsum(spec, r, r) for r in rows])
                total = total.reshape(sq.shape[:-grid.n])
            else:
                total = np.einsum(spec, *[sq] * factors)
            table[q] = (total * grid.cell_volume) ** (1.0 / float(q))
    for i, q in enumerate(rest):
        if even or i:
            np.abs(values, out=mod)
        qf = float(q)
        mod **= qf
        table[q] = (mod.sum(axis=axes) * grid.cell_volume) ** (1.0 / qf)
    return table


def lq_norms(values: np.ndarray, grid: Grid, q: QLike) -> np.ndarray:
    """Spatial L^q norms of complex or real floating samples (lq_norm_table
    for the one q); q = inf gives the grid max modulus."""
    q = as_exponent(q)
    return lq_norm_table(values, grid, (q,))[q]


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


def _squared_modulus(values: np.ndarray) -> np.ndarray:
    """|u|^2 in one new real array; real samples are squared directly, since
    x^2 = |x|^2 exactly, which skips the modulus pass."""
    if not np.iscomplexobj(values):
        return np.square(values)
    mass = np.abs(values)
    return np.square(mass, out=mass)


def shell_mass_fraction(values: np.ndarray, grid: Grid) -> float:
    """Fraction of |u|^2 mass in the outer (1 - SHELL_FRACTION) shell;
    PreconditionError when the total mass is not finite (NaN or Inf
    samples).

    A finite sample above about 1.3e154 squares past the float64 range; the
    total is then taken again from the samples divided by their max modulus,
    which leaves the fraction as it is."""
    with np.errstate(over="ignore"):
        mass = _squared_modulus(values)
        total = mass.sum()
        if total == math.inf:
            peak = np.abs(values).max()  # not finite for NaN or Inf samples
            if math.isfinite(peak):
                mass = _squared_modulus(values / peak)
                total = mass.sum()
    if not math.isfinite(total):
        raise PreconditionError(f"|u|^2 mass {total} is not finite")
    if total == 0.0:
        return 0.0
    return float(mass[_shell_mask(grid)].sum() / total)


def check_support(values: np.ndarray, grid: Grid, mass_tol: float, what: str) -> None:
    frac = shell_mass_fraction(values, grid)
    if frac > mass_tol:
        raise SupportEscapeError(
            f"{what}: outer-shell mass fraction {frac:.3e} exceeds tolerance {mass_tol:.3e}"
        )


def _sinc_matrix(grid: Grid, eps: float) -> Tuple[np.ndarray, int]:
    """The in-box rows of the real per-axis matrix S that samples the
    trigonometric interpolant at eps * x_j, and the index of the first.
    S[j, k] is Trefethen's periodic sinc of eps * x_j - x_k.

    Only rows whose target eps * x_j lies in the box are built: they form
    one contiguous block around x = 0.  The rescaled field keeps the R^n
    meaning f(eps x), zero beyond the stored profile, so every other row of
    S is zero instead of sampling periodic images.

    S = E DFT, where E[j, m] = (1/N) exp(i xi_m (eps x_j + L)) evaluates the
    interpolant from fft(f).  With xi_m = (pi/L) (a B + b), E is an outer
    product of two tables of powers (about N (B + N/B) unit_phase entries,
    not N^2), and one fft of its rows gives S.  The Nyquist column is a
    cosine, so the +-xi pairs cancel and S is real.
    """
    N = grid.N
    x = grid.axis()
    inbox = np.flatnonzero(np.abs(eps * x) <= grid.L * (1.0 + 1e-12))
    lo = int(inbox[0])
    theta = (np.pi / grid.L) * (eps * x[lo:inbox[-1] + 1] + grid.L)
    B = 1 << (N.bit_length() // 2)  # about sqrt(N); N // B is even
    fine = unit_phase(np.outer(theta, np.arange(B)))
    fine /= N
    coarse = unit_phase(np.outer(theta, B * np.fft.fftfreq(N // B, B / N)))
    E = np.empty((len(theta), N // B, B), dtype=np.complex128)
    for c in range(N // B):  # one product per coarse column, no 3-D broadcast temporary
        np.multiply(coarse[:, c, None], fine, out=E[:, c, :])
    E = E.reshape(len(theta), N)  # k in fftfreq order
    nyq = N // 2
    E[:, nyq] = E[:, nyq].real
    np.fft.fftn(E, axes=(1,), out=E)
    return np.ascontiguousarray(E.real), lo


def rescale_field(values: np.ndarray, grid: Grid, eps: float,
                  mass_tol: float = DEFAULT_MASS_TOL) -> np.ndarray:
    """Band-limited samples of x -> f(eps x) on the grid, from samples of f.

    Applies the in-box rows of the real matrix of _sinc_matrix along each
    axis, so its one FFT builds the kernel and f is not transformed; the
    mapped block is placed in a zero grid.  Real samples give a float64
    result and complex ones a complex result; complex samples whose
    imaginary part is zero take real products, guarded before their one
    cast to complex, so that part stays exactly zero.  eps == 1 returns
    values itself.

    Satisfies the change-of-variables identity ||f_eps||_q = eps^(-n/q) ||f||_q
    up to quadrature error on well-resolved profiles.  Raises
    SupportEscapeError when either the input or the result carries more than
    the tolerated |u|^2 mass in the outer shell of the box, since in that
    case the periodic images contaminate the samples.
    """
    if not eps > 0:
        raise PreconditionError(f"rescale factor must be positive, got {eps}")
    if eps == 1.0:
        return values
    check_support(values, grid, mass_tol, "rescale input")
    S, lo = _sinc_matrix(grid, float(eps))
    block = values.real if np.iscomplexobj(values) and not values.imag.any() else values
    for _ in range(grid.n):  # map the leading axis, which comes back last
        block = block.reshape(grid.N, -1).T @ S.T
    out = np.zeros(grid.shape, dtype=block.dtype)
    out[(slice(lo, lo + len(S)),) * grid.n] = block.reshape((len(S),) * grid.n)
    check_support(out, grid, mass_tol, "rescale output")
    return out.astype(np.result_type(values, np.float64), copy=False)


@dataclass(frozen=True)
class DecayFit:
    """Least-squares power-law fit of the free sup-norm decay."""

    times: np.ndarray
    sup_norms: np.ndarray
    slope: float
    intercept: float


def dispersive_decay_fit(u0: ComplexField, t_range: tuple) -> DecayFit:
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
        check_support(ut.values, u0.grid, DECAY_FIT_MASS_TOL, f"decay fit at t={t:.3g}")
        sups[i] = lq_norm(ut, "inf")
    slope, intercept = np.polyfit(np.log(ts), np.log(sups), 1)
    return DecayFit(times=ts, sup_norms=sups, slope=float(slope), intercept=float(intercept))
