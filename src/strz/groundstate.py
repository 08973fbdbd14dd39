"""Constrained variational ground state on the grid.

Solves min of integral(|grad f|^2 + |f|^2) over the set {f : integral(w |f|^2) = 1}
for a weight w with max(w) > 0.  The Euler-Lagrange equation is the
generalized eigenproblem (-Lap + 1) f = mu w f; the smallest positive mu is
reached by power iteration on the compact operator (-Lap + 1)^(-1) (w .),
whose dominant eigenvalue is 1/mu.  Negating the weight, W = -mu w, turns f
into a standing wave: u(t) = exp(-it) f solves i u_t - Lap(u) + W u = 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ConvergenceError, EmptyConstraintError, PreconditionError
from .spectral import ComplexField, Grid, _ksq, gaussian_field

GROUND_TOL = 1e-11  # relative Euler-Lagrange residual at which iteration stops
GROUND_MAXIT = 3000


def helmholtz_apply(f: np.ndarray, grid: Grid) -> np.ndarray:
    """(-Lap + 1) f via the spectral Laplacian."""
    return np.fft.ifftn((1.0 + _ksq(grid)) * np.fft.fftn(f))


def helmholtz_solve(f: np.ndarray, grid: Grid) -> np.ndarray:
    """(-Lap + 1)^(-1) f via the spectral Laplacian."""
    return np.fft.ifftn(np.fft.fftn(f) / (1.0 + _ksq(grid)))


def h1_norm_sq(f: ComplexField) -> float:
    """integral(|grad f|^2 + |f|^2) computed in Fourier space (Parseval)."""
    g = f.grid
    hat = np.fft.fftn(f.values)
    return float(np.sum((1.0 + _ksq(g)) * np.abs(hat) ** 2) * g.cell_volume / g.npoints)


@dataclass(frozen=True)
class GroundPair:
    """Eigenvalue mu > 0 and constraint-normalized eigenfunction f."""

    mu: float
    f: ComplexField
    w: ComplexField
    residual: float
    iterations: int


def _residual(fvals: np.ndarray, wvals: np.ndarray, mu: float, grid: Grid) -> float:
    r = helmholtz_apply(fvals, grid) - mu * wvals * fvals
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
    lam = 0.0
    mu = np.inf
    for it in range(1, GROUND_MAXIT + 1):
        g = helmholtz_solve(wvals * f, grid).real
        lam = float(np.dot(f.ravel(), g.ravel()))  # L2 Rayleigh quotient, ||f|| = 1
        nrm = np.linalg.norm(g)
        if nrm == 0.0:
            raise ConvergenceError("iteration collapsed to zero; weight too degenerate")
        f = g / nrm
        mu = 1.0 / lam
        if it % 5 == 0 or it == GROUND_MAXIT:
            if _residual(f, wvals, mu, grid) < GROUND_TOL:
                break
    res = _residual(f, wvals, mu, grid)
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
    field = ComplexField(grid, f.astype(np.complex128))
    return GroundPair(mu=mu, f=field, w=w, residual=res, iterations=it)


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


def mixture_weight(grid: Grid, bumps) -> ComplexField:
    """Positive mixture of Gaussian bumps; bumps = [(amplitude, sigma, center), ...]."""
    acc = np.zeros(grid.shape)
    for amp, sigma, center in bumps:
        if amp <= 0:
            raise PreconditionError("mixture amplitudes must be positive")
        acc = acc + gaussian_field(grid, sigma=sigma, amplitude=amp, center=center).values.real
    acc = np.where(acc < 1e-16 * acc.max(), 0.0, acc)
    return ComplexField(grid, acc.astype(np.complex128))
