import random
import tracemalloc

import numpy as np
import pytest

from strz import groundstate, spectral
from strz.errors import EmptyConstraintError, PreconditionError
from strz.groundstate import (
    constraint_value,
    default_weight,
    ground_pair,
    h1_norm_sq,
    helmholtz_apply,
    helmholtz_solve,
    standing_wave_potential,
    standing_wave_residual,
)
from strz.potentials import trajectory_mixed_norm
from strz.spectral import ComplexField, Trajectory, _ksq, gaussian_field, lq_norm, make_grid

from conftest import same_bits


def mixture_weight(grid, bumps):
    """Positive mixture of Gaussian bumps; bumps = [(amplitude, sigma, center), ...]."""
    acc = sum(gaussian_field(grid, sigma=sigma, amplitude=amp, center=center).values.real
              for amp, sigma, center in bumps)
    acc = np.where(acc < 1e-16 * acc.max(), 0.0, acc)
    return ComplexField(grid, acc.astype(np.complex128))


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

    def test_one_residual_per_check(self, pair1d, monkeypatch):
        # the residual of the last check is the one reported, not taken again
        checks = []
        residual = groundstate._residual
        monkeypatch.setattr(groundstate, "_residual",
                            lambda *args: checks.append(1) or residual(*args))
        gp = ground_pair(pair1d.w)
        assert gp.iterations % 5 == 0 and len(checks) == gp.iterations // 5
        assert same_bits(gp.residual, pair1d.residual)

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


def complex_formula(f, grid, op):
    """The Helmholtz operator as two complex FFTs over the full spectrum."""
    return np.fft.ifftn(op(np.fft.fftn(f), 1.0 + _ksq(grid)))


def real_formula(f, grid, op):
    """The Helmholtz operator on the real half spectrum, spelled with numpy's
    own rfftn and irfftn; a complex f as its real and imaginary parts."""
    axes = tuple(range(grid.n))
    half = (1.0 + _ksq(grid))[..., : grid.N // 2 + 1]

    def part(x):
        return np.fft.irfftn(op(np.fft.rfftn(x, axes=axes), half), s=grid.shape, axes=axes)

    if not np.iscomplexobj(f):
        return part(f)
    out = np.empty(grid.shape, dtype=np.complex128)
    out.real, out.imag = part(f.real), part(f.imag)
    return out


def complex_helmholtz(f, grid, op, out=None, spectrum=None):
    """groundstate._helmholtz by complex_formula, for the real iterates of
    ground_pair."""
    res = complex_formula(f, grid, op)
    if out is None:
        return res if np.iscomplexobj(f) else res.real.copy()
    out[...] = res if np.iscomplexobj(out) else res.real
    return out


# 2^18 points each (spectral.PARALLEL_MIN_POINTS), then grids below it
SPLIT_GRIDS = [(3, 64), (2, 512)]
SERIAL_GRIDS = [(3, 32), (2, 256), (1, 64)]
ONE_AXIS_FFTS = {"rfft", "fft", "ifft", "irfft"}


class TestHelmholtz:
    @pytest.mark.parametrize("n, N", SPLIT_GRIDS + SERIAL_GRIDS)
    @pytest.mark.parametrize("two_cpus", [True, False])
    def test_bit_identical_to_out_of_place(self, n, N, two_cpus, monkeypatch, worker_ffts):
        monkeypatch.setattr(spectral, "_two_cpus", lambda: two_cpus)
        grid = make_grid(n, 8.0, N)
        rng = np.random.default_rng(N)
        real = rng.standard_normal(grid.shape)
        cplx = real + 1j * rng.standard_normal(grid.shape)
        # negative zeros tell a quotient by the symbol from a product by
        # its reciprocal
        zeros = (np.full(grid.shape, -0.0), np.full(grid.shape, complex(-0.0, -0.0)))
        # the worker takes half of every transform on the split path, in
        # one-axis passes only
        split = two_cpus and grid.npoints >= spectral.PARALLEL_MIN_POINTS
        for f in (real, cplx) + zeros:
            before = f.copy()
            for helper, op in ((helmholtz_apply, np.multiply), (helmholtz_solve, np.divide)):
                worker_ffts.clear()
                got = helper(f, grid)
                assert set(worker_ffts) == (ONE_AXIS_FFTS if split else set())
                assert same_bits(got, real_formula(f, grid, op))
                # real in, float64 out; the complex formula agrees to roundoff
                assert got.dtype == (np.complex128 if np.iscomplexobj(f) else np.float64)
                old = complex_formula(f, grid, op)
                assert np.abs(got - old).max() <= 1e-14 * np.abs(old).max()
            assert same_bits(f, before)

    def test_ground_pair_split_path_bit_identical(self, monkeypatch, worker_ffts):
        w = default_weight(make_grid(3, 8.0, 64))
        monkeypatch.setattr(spectral, "_two_cpus", lambda: True)
        split = ground_pair(w)
        assert set(worker_ffts) == ONE_AXIS_FFTS  # no n-axis transform off this thread
        monkeypatch.setattr(spectral, "_two_cpus", lambda: False)
        serial = ground_pair(w)
        assert split.iterations == serial.iterations
        assert same_bits(split.mu, serial.mu)
        assert same_bits(split.residual, serial.residual)
        assert same_bits(split.f.values, serial.f.values)
        assert same_bits(standing_wave_residual(*standing_wave_potential(split)),
                         standing_wave_residual(*standing_wave_potential(serial)))

    @pytest.mark.parametrize("n, N", [(1, 64), (2, 32), (3, 16)])
    def test_solve_inverts_apply(self, n, N):
        grid = make_grid(n, 8.0, N)
        rng = np.random.default_rng(n)
        real = rng.standard_normal(grid.shape)
        cplx = ComplexField(grid, real + 1j * rng.standard_normal(grid.shape)).values
        for f in (real, cplx):
            before = f.copy()
            back = helmholtz_solve(helmholtz_apply(f, grid), grid)
            np.testing.assert_array_equal(f, before)
            assert np.abs(back - f).max() <= 1e-13 * np.abs(f).max()

    def test_ground_pair_matches_out_of_place_helmholtz(self, pair1d, monkeypatch):
        monkeypatch.setattr(groundstate, "_helmholtz", complex_helmholtz)
        ref = ground_pair(pair1d.w)
        assert ref.iterations == pair1d.iterations
        assert abs(pair1d.mu - ref.mu) <= 1e-15 * ref.mu
        assert np.abs(pair1d.f.values - ref.f.values).max() <= 1e-15 * np.abs(ref.f.values).max()

    @pytest.mark.parametrize("n, N", [(2, 128), (3, 32)])
    def test_ground_pair_matches_the_complex_formula(self, n, N, monkeypatch):
        w = default_weight(make_grid(n, 8.0, N))
        got = ground_pair(w)
        monkeypatch.setattr(groundstate, "_helmholtz", complex_helmholtz)
        ref = ground_pair(w)
        assert ref.iterations == got.iterations
        assert abs(got.mu - ref.mu) <= 1e-15 * ref.mu
        assert np.abs(got.f.values - ref.f.values).max() <= 1e-15 * np.abs(ref.f.values).max()

    def test_ground_pair_peak_does_not_grow_with_iterations(self, monkeypatch):
        # one half spectrum and two real iterates serve every iteration
        w = default_weight(make_grid(2, 8.0, 128))
        ground_pair(w)  # fills the grid's symbol caches
        peaks, iterations = [], []
        for tol in (1e-3, groundstate.GROUND_TOL):
            monkeypatch.setattr(groundstate, "GROUND_TOL", tol)
            tracemalloc.start()
            try:
                iterations.append(ground_pair(w).iterations)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert iterations[0] < iterations[1]
        assert peaks[1] <= peaks[0] + 4096


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
