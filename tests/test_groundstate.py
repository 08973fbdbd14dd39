import random

import numpy as np
import pytest

from strz.errors import EmptyConstraintError, PreconditionError
from strz.groundstate import (
    constraint_value,
    default_weight,
    ground_pair,
    h1_norm_sq,
    helmholtz_solve,
    mixture_weight,
    standing_wave_potential,
    standing_wave_residual,
)
from strz.potentials import trajectory_mixed_norm
from strz.spectral import ComplexField, Trajectory, lq_norm, make_grid


def dense_oracle_mu(w, grid):
    """Dense generalized eigensolve: largest eigenvalue of
    diag(sqrt w) (-Lap + 1)^(-1) diag(sqrt w) is 1/mu."""
    N = grid.N
    wv = w.values.real
    sq = np.sqrt(np.clip(wv, 0.0, None))
    cols = []
    for j in range(N):
        e = np.zeros(N)
        e[j] = 1.0
        cols.append(helmholtz_solve(e, grid).real)
    inv_helm = np.array(cols).T
    S = sq[:, None] * inv_helm * sq[None, :]
    S = 0.5 * (S + S.T)
    lam_max = np.linalg.eigvalsh(S)[-1]
    return 1.0 / lam_max


@pytest.fixture(scope="module")
def pair1d():
    grid = make_grid(1, 12.0, 64)
    w = default_weight(grid, sigma=1.0)
    return ground_pair(w)


class TestGroundPair:
    def test_dense_oracle_match(self, pair1d):
        mu_oracle = dense_oracle_mu(pair1d.w, pair1d.f.grid)
        assert abs(pair1d.mu - mu_oracle) / mu_oracle < 1e-8

    def test_constraint_normalized(self, pair1d):
        assert abs(constraint_value(pair1d) - 1.0) < 1e-10

    def test_variational_identity(self, pair1d):
        assert abs(pair1d.mu - h1_norm_sq(pair1d.f)) < 1e-8

    def test_residual(self, pair1d):
        assert pair1d.residual < 1e-10

    def test_sign_fixed_at_peak(self, pair1d):
        grid = pair1d.f.grid
        peak = np.unravel_index(np.argmax(pair1d.w.values.real), grid.shape)
        assert pair1d.f.values.real[peak] > 0

    def test_weight_scaling(self, pair1d):
        grid = pair1d.f.grid
        w2 = ComplexField(grid, 2.0 * pair1d.w.values)
        gp2 = ground_pair(w2)
        assert gp2.mu == pytest.approx(pair1d.mu / 2.0, rel=1e-10)
        # eigenfunction direction unchanged (normalization differs)
        f1 = pair1d.f.values.real / np.linalg.norm(pair1d.f.values.real)
        f2 = gp2.f.values.real / np.linalg.norm(gp2.f.values.real)
        assert np.abs(np.dot(f1, f2)) == pytest.approx(1.0, abs=1e-10)

    def test_empty_constraint(self):
        grid = make_grid(1, 12.0, 64)
        w = ComplexField(grid, -default_weight(grid).values)
        with pytest.raises(EmptyConstraintError):
            ground_pair(w)

    def test_complex_weight_rejected(self):
        grid = make_grid(1, 12.0, 64)
        w = ComplexField(grid, 1j * default_weight(grid).values)
        with pytest.raises(PreconditionError):
            ground_pair(w)

    def test_grid_refinement_order(self):
        # sigma tuned so the coarse errors sit far above roundoff; the
        # spectral eigensolve then converges much faster than order 2
        L, sigma = 24.0, 0.885
        mus = {}
        for N in (32, 64, 128, 512):
            grid = make_grid(1, L, N)
            mus[N] = ground_pair(default_weight(grid, sigma=sigma)).mu
        e32 = abs(mus[32] - mus[512])
        e64 = abs(mus[64] - mus[512])
        e128 = abs(mus[128] - mus[512])
        assert e32 / e64 >= 4.0
        assert e64 / e128 >= 4.0

    def test_random_mixtures(self):
        rng = random.Random(5)
        grid = make_grid(1, 16.0, 128)
        for _ in range(20):
            nb = rng.randint(1, 3)
            bumps = [
                (rng.uniform(0.5, 2.0), rng.uniform(0.7, 1.5), (rng.uniform(-3, 3),))
                for _ in range(nb)
            ]
            gp = ground_pair(mixture_weight(grid, bumps))
            assert abs(constraint_value(gp) - 1.0) < 1e-10
            assert gp.residual < 1e-10
            assert abs(gp.mu - h1_norm_sq(gp.f)) < 1e-8
            assert gp.mu > 0


class TestStandingWave:
    def test_potential_and_residual(self, pair1d):
        W, u0 = standing_wave_potential(pair1d)
        np.testing.assert_array_equal(W.values, -pair1d.mu * pair1d.w.values)
        assert standing_wave_residual(W, u0) < 1e-8

    def test_sign(self, pair1d):
        W, _ = standing_wave_potential(pair1d)
        wv = pair1d.w.values.real
        assert np.all(W.values.real[wv > 0] < 0)

    def test_discrete_standing_wave_mixed_norm(self, pair1d):
        # ||exp(-it) u0||_{L^p(0,T;L^q)} = T^(1/p) ||u0||_q exactly in the
        # discrete model: the time modulus is identically one
        _, u0 = standing_wave_potential(pair1d)
        T = 2.0
        times = np.linspace(0.0, T, 41)
        states = [ComplexField(u0.grid, np.exp(-1j * t) * u0.values) for t in times]
        traj = Trajectory(times=times, states=states, energy_log=np.ones(41))
        for p, q in [(2, 6), (4, 4)]:
            got = trajectory_mixed_norm(traj, p, q)
            assert got == pytest.approx(T ** (1 / p) * lq_norm(u0, q), rel=1e-12)
