"""Periodic-box discretization, exact free propagation, and spatial norms.

The box [-L, L)^n stands in for R^n.  All sign conventions follow the
equation i u_t - Lap(u) + V u = F, so the free evolution multiplies the
Fourier coefficient at frequency xi by exp(+i t |xi|^2).

Every exp(i theta) of a real theta on a solve path (free_multiplier, the
solver's half-phases, the power tables of _sinc_matrix) is unit_phase:
cos(theta) + i sin(theta) in one complex array, bit for bit what
np.exp(1j * theta) gives, without its complex product and exp.

strang_step is the propagator's kernel: two complex FFTs around a product
by a Fourier multiplier.  real_fourier_multiply is the kernel of
groundstate's Helmholtz operators: on the real half spectrum of rfftn it
multiplies or divides by a real symbol, real samples in and float64 out,
at about half the work of complex transforms.  Both, and lq_norm_table
for a single state, split their work with one extra worker thread where
_split_here allows (2^18 points and up, two CPUs); results are
bit-identical either way, and `taskset -c 0` runs them on one CPU.  There
is no option or environment variable for it.  The solver's Duhamel sweeps
use the same thread on smaller grids too (solver.WAVEFRONT_MIN_POINTS).

lq_norm_table norms every row (one state, or one row of a stack) of at
least PARALLEL_MIN_POINTS points with n >= 2 as the two halves of its first
spatial axis.  q = 2, inf and every q but 4 and 6 keep the bits of a
whole-array pass, and the fused sums of q = 4 and 6 differ from one in
the last bits.
"""
from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple, Union)

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
# _split_here splits a kernel's work on at least this many points between
# two threads.  Per step on a 2-vCPU host the split won 10 of 10 alternating
# trials at 64^3 and 512^2 (about -40%) but only 5 of 10 at 32^3 and 256^2;
# no grid with n >= 2 has between 2^16 and 2^18 points.
PARALLEL_MIN_POINTS = 2**18
_WORKER_NAME = "strz-step"  # the worker thread's name prefix

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


@lru_cache(maxsize=8)
def _half_ksq(grid: Grid) -> np.ndarray:
    """|xi|^2 on rfftn's half spectrum: the last axis keeps its first
    N // 2 + 1 frequencies, the Nyquist one's square being that of +-N/2."""
    return np.ascontiguousarray(_ksq(grid)[..., : grid.N // 2 + 1])


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
    """One Strang step P F^-1[kin F(P a)] with two FFTs: kin is the Fourier
    multiplier of a step of length h (free_multiplier) and phase the
    potential half-phase P = exp(i (h/2) V); phase None (P = 1) makes it
    exact free propagation.  It is only the propagator: groundstate's
    Helmholtz operators are real_fourier_multiply.

    P a (or a copy of a) is formed in the result and both FFTs and products
    then run in place, so a is never written and may be read-only.  Given
    out, a complex128 array of a's shape that does not overlap a, the step
    writes the result there, returns out and allocates nothing; else it
    returns one new array.

    Where _split_here allows, the step runs in four stages, each split
    between this thread and the worker (_on_halves): (A) halves of axis 0
    form P a and transform axes 1..n-1; (B) halves of axis 1 transform
    axis 0 and multiply by kin; (C) halves of axis 0 inverse-transform axes
    1..n-1; (D) halves of axis 1 inverse-transform axis 0 and multiply by
    P.  numpy's fftn and ifftn transform the last axis first and axis 0
    last, each axis by the same one-axis pocketfft pass as fft and ifft, so
    every lane gets the serial arithmetic and the result is bit-identical."""
    if out is None:
        out = np.empty(np.shape(a), dtype=np.complex128)
    if not _split_here(out):
        return _serial_strang_step(a, kin, phase, out)
    inner = tuple(range(1, out.ndim))

    def forward_rows(o, a, phase):
        _phase_into(o, a, phase)
        _transform(o, inner, False)

    def forward_cols(o, kin):
        np.fft.fft(o, axis=0, out=o)
        np.multiply(kin, o, out=o)

    def backward_cols(o, phase):
        np.fft.ifft(o, axis=0, out=o)
        if phase is not None:
            np.multiply(phase, o, out=o)

    _on_halves(forward_rows, 0, out, a, phase)
    _on_halves(forward_cols, 1, out, kin)
    _on_halves(lambda o: _transform(o, inner, True), 0, out)
    _on_halves(backward_cols, 1, out, phase)
    return out


def _serial_strang_step(a: np.ndarray, kin: np.ndarray, phase: Optional[np.ndarray],
                        out: np.ndarray) -> np.ndarray:
    """strang_step into out on this thread alone, whatever the size."""
    _phase_into(out, a, phase)
    _transform(out, None, False)
    np.multiply(kin, out, out=out)
    _transform(out, None, True)
    if phase is not None:
        np.multiply(phase, out, out=out)
    return out


def _phase_into(o: np.ndarray, a: np.ndarray, phase: Optional[np.ndarray]) -> None:
    """o = P a, or a copy of a when phase is None."""
    if phase is None:
        np.copyto(o, a)
    else:
        np.multiply(phase, a, out=o)


def _transform(o: np.ndarray, axes: Optional[Tuple[int, ...]], inverse: bool) -> None:
    """The fftn (ifftn) of o over axes (None: every axis), in place.

    The worker's FFT rule: on the worker the transform is made of one-axis
    np.fft.fft (ifft) passes in fftn's order, last axis first.  That is the
    same pocketfft pass per axis, so bit for bit the same, and the worker
    calls none of the fftn and ifftn a tracer patches: every such call is
    made on the calling thread."""
    if _on_worker():
        for axis in reversed(range(o.ndim) if axes is None else axes):
            (np.fft.ifft if inverse else np.fft.fft)(o, axis=axis, out=o)
    else:
        (np.fft.ifftn if inverse else np.fft.fftn)(o, axes=axes, out=o)


def _on_worker() -> bool:
    """Whether this is the worker thread."""
    return threading.current_thread().name.startswith(_WORKER_NAME)


def _two_cpus() -> bool:
    """Whether this process may run on two or more CPUs (taskset and cpuset
    masks included); platforms without affinity masks step serially."""
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2


def _split_here(x: np.ndarray) -> bool:
    """Whether a kernel splits its work on x between this thread and the
    worker: x has two or more axes and at least PARALLEL_MIN_POINTS points,
    the process may run on two or more CPUs, and this is not the worker,
    which would wait on its own queue.  Either way the bits are the same."""
    return x.ndim >= 2 and x.size >= PARALLEL_MIN_POINTS and _two_cpus() and not _on_worker()


@lru_cache(maxsize=1)
def _worker(pid: int) -> ThreadPoolExecutor:
    """The one worker thread of process pid, made on first use.  A forked
    child has a new pid and so gets its own: the parent's thread does not
    run in the child."""
    # imported here: concurrent.futures loads logging, about 0.6 MB of peak
    # RSS that a process stepping only small grids need not pay
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=1, thread_name_prefix=_WORKER_NAME)


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


def _halves(x: Optional[np.ndarray], axis: int) -> Tuple[Optional[np.ndarray], ...]:
    """The two views of x cut at the middle of axis; (None, None) for None."""
    if x is None:
        return None, None
    cut = (slice(None),) * axis
    middle = x.shape[axis] // 2
    return x[cut + (slice(None, middle),)], x[cut + (slice(middle, None),)]


def _on_halves(stage: Callable[..., object], axis: int,
               *arrays: Optional[np.ndarray]) -> None:
    """stage on the first halves of arrays (cut at the middle of axis)
    here and on the second halves on the worker (_in_two_halves)."""
    first, second = zip(*(_halves(x, axis) for x in arrays))
    _in_two_halves(lambda: stage(*first), lambda: stage(*second))


def real_fourier_multiply(f: np.ndarray, symbol: np.ndarray, op: np.ufunc,
                          out: Optional[np.ndarray] = None,
                          spectrum: Optional[np.ndarray] = None) -> np.ndarray:
    """irfftn(op(rfftn(f), symbol)) over every axis of real f, op being
    np.multiply or np.divide (never a product by 1 / symbol: numpy's complex
    quotient and that product differ in the sign of zero parts) and symbol
    real on rfftn's half spectrum, shape f.shape[:-1] + (N // 2 + 1,).  Real
    samples have a Hermitian spectrum, so this is about half the work of
    complex transforms.

    The transform runs in place in spectrum (complex128, symbol's shape) and
    the result lands in out (float64, f's shape; f itself or a strided view
    will do), each new when None; out is returned.  The one-axis passes are
    those of numpy's rfftn and irfftn, in their order.

    Where _split_here allows, it runs in three stages split between this
    thread and the worker (_on_halves): halves of axis 0 take the rfft and
    the middle axes' fft, halves of spectrum's axis 1 the passes of axis 0
    and op, halves of axis 0 the inverse row passes.  Every lane gets the
    serial pass, so the bits are the serial ones."""
    if spectrum is None:
        spectrum = np.empty(np.shape(symbol), dtype=np.complex128)
    if out is None:
        out = np.empty(np.shape(f))
    if _split_here(f):
        _on_halves(_rfft_rows, 0, f, spectrum)
        _on_halves(lambda h, s: _symbol_columns(h, s, op), 1, spectrum, symbol)
        _on_halves(_irfft_rows, 0, spectrum, out)
    else:
        _rfft_rows(f, spectrum)
        _symbol_columns(spectrum, symbol, op)
        _irfft_rows(spectrum, out)
    return out


def _rfft_rows(f: np.ndarray, h: np.ndarray) -> None:
    """rfftn's passes but that of axis 0 (when f has other axes): the rfft
    of f's last axis into h, then the fft of h's middle axes, last first."""
    np.fft.rfft(f, axis=-1, out=h)
    for axis in range(h.ndim - 2, 0, -1):
        np.fft.fft(h, axis=axis, out=h)


def _symbol_columns(h: np.ndarray, symbol: np.ndarray, op: np.ufunc) -> None:
    """h = ifft(op(fft(h), symbol)) along axis 0, in place; op alone for one
    axis, which is then the last and so the rows'."""
    if h.ndim > 1:
        np.fft.fft(h, axis=0, out=h)
    op(h, symbol, out=h)
    if h.ndim > 1:
        np.fft.ifft(h, axis=0, out=h)


def _irfft_rows(h: np.ndarray, out: np.ndarray) -> None:
    """irfftn's passes but that of axis 0: the ifft of h's middle axes,
    first first, in place, then the irfft of its last axis into out."""
    for axis in range(1, h.ndim - 1):
        np.fft.ifft(h, axis=axis, out=h)
    np.fft.irfft(h, n=out.shape[-1], axis=-1, out=out)


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
    Each norm of a stack is bit for bit that of its row alone, as a single
    state or as a stack of one, so a stack may be normed row by row: a
    single state's root is taken on a one-element array, by numpy's
    vectorized pow as a stack's, not by the scalar C pow.

    _norm_sums takes every q's sum (the max for q = inf); the table scales
    and roots each once.  Rows of at least PARALLEL_MIN_POINTS = 2^18 points
    with n >= 2 (64^3, 512^2 and up) are summed as the two halves of their
    first spatial axis, maxima combined by np.maximum and sums by +.  A
    single state takes its halves on this thread and the worker where
    _split_here allows; a stack, or a state it refuses, takes both here in
    the same order, so the bits do not depend on the threads.  numpy sums
    a contiguous power-of-two block pairwise, splitting it at its midpoint,
    so q = 2, inf and every q but 4 and 6 keep the bits of one whole-row
    sum; the einsums of q = 4 and 6 differ from it in the last bits.
    """
    exps = {as_exponent(q) for q in qs}
    if grid.n >= 2 and grid.npoints >= PARALLEL_MIN_POINTS:
        sums = _sums_in_halves(values, grid, exps)
    else:
        sums = _norm_sums(values, grid, exps)
    table = {}
    for q, total in sums.items():
        if q.is_infinite:
            table[q] = total
        elif float(q) == 2.0:
            table[q] = np.sqrt(total * grid.cell_volume)
        else:
            scaled = np.reshape(total * grid.cell_volume, -1)  # one element for one state
            table[q] = np.power(scaled, 1.0 / float(q)).reshape(np.shape(total))[()]
    return table


def _sums_in_halves(values: np.ndarray, grid: Grid,
                    exps: Set[Exponent]) -> Dict[Exponent, np.ndarray]:
    """_norm_sums of values from the two halves of the first spatial axis;
    a single state's bottom half runs on the worker (see lq_norm_table)."""
    halves = _halves(values, values.ndim - grid.n)
    sums: List[Dict[Exponent, np.ndarray]] = [{}, {}]

    def norm(i: int) -> None:
        sums[i] = _norm_sums(halves[i], grid, exps)

    if values.ndim == grid.n and _split_here(values):
        _in_two_halves(lambda: norm(0), lambda: norm(1))
    else:
        norm(0)
        norm(1)
    top, bottom = sums
    return {q: np.maximum(s, bottom[q]) if q.is_infinite else s + bottom[q]
            for q, s in top.items()}


def _norm_sums(values: np.ndarray, grid: Grid,
               exps: Set[Exponent]) -> Dict[Exponent, np.ndarray]:
    """The grid max modulus (q = inf) and the sum of |u|^q (finite q) over
    the trailing grid.n axes, for every q of exps, without scaling or root.

    One modulus pass fills |u| into the one real buffer the kernel allocates,
    and every q reads it: q = inf first.  Then the buffer is squared in
    place: q = 2 sums |u|^2, and q = 4 and q = 6 are fused multiply-sums
    (einsum) of two and three |u|^2 operands, so they make no temporary and
    call no pow.  Any other finite q (8 among them) takes its own power pass
    in the buffer, refilled with |u| first if it was already consumed.
    """
    even = [q for q in exps if float(q) in (2.0, 4.0, 6.0)]
    rest = [q for q in exps if q not in even and not q.is_infinite]
    axes = tuple(range(-grid.n, 0))
    mod = np.abs(values)
    sums = {INF: mod.max(axis=axes)} if INF in exps else {}
    if even:
        sq = np.square(mod, out=mod)  # |u|^2
        sub = "..." + "ijk"[:grid.n]
        for q in even:
            if float(q) == 2.0:
                sums[q] = sq.sum(axis=axes)
                continue
            factors = 3 if float(q) == 6.0 else 2
            spec = ",".join([sub] * factors) + "->..."
            if factors == 2 and sq.ndim > grid.n:
                # einsum sums two operands in buffer-sized chunks once a
                # stack's rows exceed 8192 points; one call per row sums
                # each whole, as for a stack of one
                rows = sq.reshape((-1,) + sq.shape[-grid.n:])
                total = np.array([np.einsum(spec, r, r) for r in rows])
                sums[q] = total.reshape(sq.shape[:-grid.n])
            else:
                sums[q] = np.einsum(spec, *[sq] * factors)
    for i, q in enumerate(rest):
        if even or i:
            np.abs(values, out=mod)
        mod **= float(q)
        sums[q] = mod.sum(axis=axes)
    return sums


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
    E = (coarse[:, :, None] * fine[:, None, :]).reshape(len(theta), N)  # k in fftfreq order
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
    if not 0 < eps < math.inf:
        raise PreconditionError(f"rescale factor must be positive and finite, got {eps}")
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
