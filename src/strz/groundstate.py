"""Constrained variational ground state on the grid.

Solves min of integral(|grad f|^2 + |f|^2) over the set {f : integral(w |f|^2) = 1}
for a weight w with max(w) > 0.  The Euler-Lagrange equation is the
generalized eigenproblem (-Lap + 1) f = mu w f; the smallest positive mu is
reached by power iteration on the compact operator (-Lap + 1)^(-1) (w .),
whose dominant eigenvalue is 1/mu.  Negating the weight, W = -mu w, turns f
into a standing wave: u(t) = exp(-it) f solves i u_t - Lap(u) + W u = 0.

The Helmholtz operators run on the real half spectrum through
spectral.real_fourier_multiply with the symbol 1 + |xi|^2: real samples in,
float64 out, and a complex input as its real and imaginary parts.  On grids
of 2^18 points and up they share the kernel's worker thread, bit for bit the
serial result.  ground_pair holds one half spectrum and two real iterates
for all its iterations.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .errors import ConvergenceError, EmptyConstraintError, PreconditionError
from .spectral import (ComplexField, Grid, _half_ksq, _ksq, gaussian_field,
                       real_fourier_multiply)

GROUND_TOL = 1e-11  # relative Euler-Lagrange residual at which iteration stops
GROUND_MAXIT = 3000


@lru_cache(maxsize=8)
def _symbol(grid: Grid) -> np.ndarray:
    """1 + |xi|^2, the Fourier symbol of -Lap + 1."""
    return 1.0 + _ksq(grid)


@lru_cache(maxsize=8)
def _half_symbol(grid: Grid) -> np.ndarray:
    """1 + |xi|^2 on the half spectrum of a real transform."""
    return 1.0 + _half_ksq(grid)


def helmholtz_apply(f: np.ndarray, grid: Grid) -> np.ndarray:
    """(-Lap + 1) f via the spectral Laplacian, in one new array: float64 for
    real f, complex for complex f."""
    return _helmholtz(f, grid, np.multiply)


def helmholtz_solve(f: np.ndarray, grid: Grid) -> np.ndarray:
    """(-Lap + 1)^(-1) f via the spectral Laplacian, in one new array:
    float64 for real f, complex for complex f."""
    return _helmholtz(f, grid, np.divide)


def _helmholtz(f: np.ndarray, grid: Grid, op: np.ufunc, out: Optional[np.ndarray] = None,
               spectrum: Optional[np.ndarray] = None) -> np.ndarray:
    """The symbol 1 + |xi|^2 applied by op (np.multiply, or np.divide for
    the inverse) on the real half spectrum; a complex f as its real and
    imaginary parts, each in place in that part of a complex out.  out and
    spectrum are as for real_fourier_multiply, each new when None."""
    sym = _half_symbol(grid)
    if not np.iscomplexobj(f):
        return real_fourier_multiply(f, sym, op, out, spectrum)
    if out is None:
        out = np.empty(np.shape(f), dtype=np.complex128)
    if spectrum is None:
        spectrum = np.empty(sym.shape, dtype=np.complex128)
    real_fourier_multiply(f.real, sym, op, out.real, spectrum)
    real_fourier_multiply(f.imag, sym, op, out.imag, spectrum)
    return out


def h1_norm_sq(f: ComplexField) -> float:
    """integral(|grad f|^2 + |f|^2) computed in Fourier space (Parseval)."""
    g = f.grid
    hat = np.fft.fftn(f.values, out=np.empty(g.shape, dtype=np.complex128))
    return float(np.sum(_symbol(g) * np.abs(hat) ** 2) * g.cell_volume / g.npoints)


@dataclass(frozen=True)
class GroundPair:
    """Eigenvalue mu > 0 and constraint-normalized eigenfunction f."""

    mu: float
    f: ComplexField
    w: ComplexField
    residual: float
    iterations: int


def _residual(fvals: np.ndarray, wvals: np.ndarray, mu: float, grid: Grid,
              r: np.ndarray, spectrum: np.ndarray) -> float:
    """||(-Lap + 1) f - mu w f||_2 / ||f||_2, formed in the real buffer r."""
    _helmholtz(fvals, grid, np.multiply, r, spectrum)
    r -= mu * wvals * fvals
    return float(np.linalg.norm(r) / np.linalg.norm(fvals))


def ground_pair(w: ComplexField) -> GroundPair:
    """Smallest positive generalized eigenvalue of (-Lap + 1) f = mu w f.

    Power iteration on (-Lap + 1)^(-1)(w .) from a positive seed; mu is the
    reciprocal of the converged L^2 Rayleigh quotient of that operator, so
    the variational identity mu = integral(|grad f|^2 + |f|^2) on the
    constraint set is a genuine independent check, not a tautology.  Stops
    once the residual is below GROUND_TOL, or raises after GROUND_MAXIT steps.
    """
    grid = w.grid
    if np.abs(w.values.imag).max() != 0.0:
        raise PreconditionError("constraint weight must be real valued")
    wvals = w.values.real
    if wvals.max() <= 0.0:
        raise EmptyConstraintError("weight is nonpositive everywhere; constraint set empty")

    f = np.where(wvals > 0, wvals, 0.0)
    f /= np.linalg.norm(f)
    g = np.empty_like(f)  # the next iterate, solved in place; then the residual
    spectrum = np.empty(_half_symbol(grid).shape, dtype=np.complex128)
    lam = 0.0
    mu = res = np.inf
    for it in range(1, GROUND_MAXIT + 1):
        np.multiply(wvals, f, out=g)
        _helmholtz(g, grid, np.divide, g, spectrum)
        lam = float(np.dot(f.ravel(), g.ravel()))  # L2 Rayleigh quotient, ||f|| = 1
        nrm = np.linalg.norm(g)
        if nrm == 0.0:
            raise ConvergenceError("iteration collapsed to zero; weight too degenerate")
        f, g = g, f
        f /= nrm
        mu = 1.0 / lam
        if it % 5 == 0 or it == GROUND_MAXIT:  # the last iteration is always checked
            res = _residual(f, wvals, mu, grid, g, spectrum)
            if res < GROUND_TOL:
                break
    if res >= GROUND_TOL:
        raise ConvergenceError(
            f"inverse iteration stagnated: residual {res:.3e} after {it} iterations"
        )

    # Normalize to the constraint integral(w f^2) = 1 and fix the sign at the
    # maximum of w.
    c = float(np.sum(wvals * f**2) * grid.cell_volume)
    if c <= 0.0:
        raise ConvergenceError("converged eigenfunction has nonpositive constraint value")
    f = f / np.sqrt(c)
    peak = np.unravel_index(np.argmax(wvals), grid.shape)
    if f[peak] < 0:
        f = -f
    values = f.astype(np.complex128)
    values.flags.writeable = False  # so ComplexField keeps it, not a copy
    return GroundPair(mu=mu, f=ComplexField(grid, values), w=w, residual=res, iterations=it)


def constraint_value(gp: GroundPair) -> float:
    """integral(w |f|^2); equals 1 for a valid ground pair."""
    g = gp.f.grid
    return float(np.sum(gp.w.values.real * np.abs(gp.f.values) ** 2) * g.cell_volume)


def standing_wave_potential(gp: GroundPair) -> Tuple[ComplexField, ComplexField]:
    """The pair (W, u0) with W = -mu w and u0 = f, so that
    -Lap(u0) + W u0 + u0 = 0 and u(t) = exp(-it) u0 solves the evolution."""
    W = ComplexField(gp.f.grid, -gp.mu * gp.w.values)
    return W, gp.f


def standing_wave_residual(W: ComplexField, u0: ComplexField) -> float:
    """|| -Lap(u0) + W u0 + u0 ||_2 / ||u0||_2 via the spectral Laplacian."""
    grid = u0.grid
    r = helmholtz_apply(u0.values, grid) + W.values * u0.values
    return float(np.linalg.norm(r) / np.linalg.norm(u0.values))


def default_weight(grid: Grid, sigma: float = 1.0, amplitude: float = 1.0) -> ComplexField:
    """A positive Gaussian bump truncated at machine-negligible values."""
    g = gaussian_field(grid, sigma=sigma, amplitude=amplitude)
    vals = g.values.real
    vals = np.where(vals < 1e-16 * amplitude, 0.0, vals)
    return ComplexField(grid, vals.astype(np.complex128))
