import math
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from strz.errors import (
    CalibrationError,
    NonContractionError,
    PreconditionError,
    SupportEscapeError,
)
from strz.exponents import Exponent
from strz.groundstate import default_weight, ground_pair, standing_wave_potential
from strz import potentials, solver, spectral
from strz.exponents import ScheduleKind, ScheduleParams
from strz.potentials import (
    PatchedRescaledPotential,
    PseudoconformalPotential,
    Schedule,
    StaticPotential,
    SumPotential,
    Window,
    ZeroPotential,
    evaluate,
    partition_interval,
    real_profile,
    time_lattice,
    trajectory_mixed_norm,
)
from strz.solver import (
    DEFAULT_Q_FALLBACK,
    PotentialSampler,
    calibrate_tau,
    duhamel_iterate,
    endpoint_q,
    solve_global,
    split_step_evolve,
)
from strz.spectral import (
    ComplexField,
    free_multiplier,
    free_propagate,
    gaussian_field,
    lq_norm,
    lq_norm_table,
    lq_norms,
    make_grid,
    strang_step,
)


@pytest.fixture(scope="module")
def standing1d():
    grid = make_grid(1, 12.0, 64)
    gp = ground_pair(default_weight(grid, sigma=1.0))
    W, u0 = standing_wave_potential(gp)
    return grid, W, u0


@pytest.fixture(scope="module")
def standing2d():
    grid = make_grid(2, 10.0, 32)
    gp = ground_pair(default_weight(grid, sigma=1.0))
    W, u0 = standing_wave_potential(gp)
    return grid, W, u0


@pytest.fixture(scope="module")
def standing3d():
    grid = make_grid(3, 8.0, 16)
    gp = ground_pair(default_weight(grid, sigma=1.0))
    W, u0 = standing_wave_potential(gp)
    return grid, W, u0


def stack_z_norm(times, stack, grid):
    """The Z-norm of a stacked piece trajectory, from one norm-table call."""
    return solver._z_norm(times, lq_norm_table(stack, grid, (2, endpoint_q(grid.n))), grid)


def linf_l2_gap(traj_a, traj_b, scale):
    vol = traj_a.grid.cell_volume
    diffs = [
        np.sqrt(np.sum(np.abs(a.values - b.values) ** 2) * vol)
        for a, b in zip(traj_a.states, traj_b.states)
    ]
    return max(diffs) / scale


def standing_wave_probe(grid, u0):
    """A step probe and the dict in which it keeps the largest relative L^2
    distance of a state from the standing wave exp(-it) u0; the difference is
    formed in one buffer per run."""
    err = {"max": 0.0}
    diff = np.empty(grid.shape, dtype=np.complex128)
    u0_l2 = lq_norm(u0, 2)

    def probe(t, vals):
        np.multiply(np.exp(-1j * t), u0.values, out=diff)
        np.subtract(vals, diff, out=diff)
        d = np.sqrt(np.sum(np.abs(diff) ** 2) * grid.cell_volume)
        err["max"] = max(err["max"], d / u0_l2)

    return probe, err


class TestSplitStep:
    def test_zero_potential_matches_free(self):
        grid = make_grid(1, 16.0, 128)
        u0 = gaussian_field(grid, sigma=1.0)
        rep = split_step_evolve(u0, ZeroPotential(), interval=(0.0, 1.0), dt=1e-2)
        for t, s in zip(rep.trajectory.times, rep.trajectory.states):
            exact = free_propagate(u0, float(t))
            assert np.abs(s.values - exact.values).max() < 1e-10

    def test_standing_wave_phase(self, standing1d):
        grid, W, u0 = standing1d
        probe, err = standing_wave_probe(grid, u0)
        rep = split_step_evolve(u0, StaticPotential(W), interval=(0.0, 2.0), dt=1e-3,
                                step_probe=probe)
        assert err["max"] < 1e-4
        assert rep.energy_drift < 1e-10

    def test_second_order_self_convergence(self, standing1d):
        grid, W, u0 = standing1d

        def phase_err(dt):
            probe, e = standing_wave_probe(grid, u0)
            split_step_evolve(u0, StaticPotential(W), interval=(0.0, 1.0), dt=dt,
                              step_probe=probe)
            return e["max"]

        e_coarse, e_fine = phase_err(4e-3), phase_err(2e-3)
        assert e_coarse / e_fine == pytest.approx(4.0, rel=0.15)

    def test_energy_conserved_random_potential(self):
        grid = make_grid(1, 10.0, 64)
        rng = np.random.default_rng(1)
        vals = rng.standard_normal(grid.shape)
        V = StaticPotential(real_profile(grid, vals))
        u0 = gaussian_field(grid, sigma=1.0)
        rep = split_step_evolve(u0, V, interval=(0.0, 1.0), dt=1e-3)
        assert rep.energy_drift < 1e-10

    def test_source_term_accuracy(self, standing1d):
        # manufactured solution: u = exp(-it) u0 solves the equation with
        # W shifted by a constant c when F = c exp(-it) u0
        grid, W, u0 = standing1d
        c = 0.3
        Wc = real_profile(grid, W.values.real + c)

        def F(t):
            return ComplexField(grid, c * np.exp(-1j * t) * u0.values)

        probe, err = standing_wave_probe(grid, u0)
        split_step_evolve(u0, StaticPotential(Wc), F=F, interval=(0.0, 1.0), dt=1e-3,
                          step_probe=probe)
        assert err["max"] < 1e-4

    def test_ratio_tracking_inf2_is_one(self, standing2d):
        grid, W, u0 = standing2d
        rep = split_step_evolve(u0, StaticPotential(W), interval=(0.0, 1.0), dt=1e-3,
                                pairs=[("inf", 2)])
        key = (Exponent("inf"), Exponent(2))
        assert rep.strichartz_ratios[key] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("p, q, route", [(4, 4, "split"), (3, 6, "split"),
                                             (4, 4, "global"), (3, 6, "global")],
                             ids=["4-4", "3-6", "4-4-global", "3-6-global"])
    def test_ratios_match_trajectory_mixed_norm(self, standing2d, p, q, route):
        # the per-step norm series and the stored-trajectory quadrature agree
        # when every step is stored; a Gaussian start makes |u| vary in time
        grid, W, _ = standing2d
        u0 = gaussian_field(grid, sigma=1.0)
        if route == "global":
            rep = solve_global(u0, None, StaticPotential(W), (0.0, 0.5), 2, 2, tau=1.0,
                               dt=1e-2, pairs=[(p, q)], store_every=1)
            assert rep.pieces >= 2
        else:
            rep = split_step_evolve(u0, StaticPotential(W), interval=(0.0, 0.5), dt=1e-2,
                                    store_every=1, pairs=[(p, q)])
        got = rep.strichartz_ratios[(Exponent(p), Exponent(q))] * lq_norm(u0, 2)
        assert got == pytest.approx(trajectory_mixed_norm(rep.trajectory, p, q), rel=1e-12)

    def test_inadmissible_pair_rejected(self, standing1d):
        grid, W, u0 = standing1d
        with pytest.raises(PreconditionError):
            split_step_evolve(u0, StaticPotential(W), interval=(0.0, 0.1), dt=1e-2,
                              pairs=[(4, 4)])  # no admissible pairs for n = 1

    def test_kept_states_beyond_memory_rejected_before_any_step(self, standing1d, monkeypatch):
        # 101 kept states of 64 points; memory for 100 refuses before V is sampled
        def never(*args):
            raise AssertionError("the potential was sampled before the size check")

        grid, W, u0 = standing1d
        monkeypatch.setattr(solver, "evaluate", never)
        monkeypatch.setattr(solver, "PHYSICAL_MEMORY", 100 * 64 * 16)
        with pytest.raises(PreconditionError, match="GiB"):
            split_step_evolve(u0, StaticPotential(W), interval=(0.0, 1.0), dt=1e-2,
                              store_every=1)

    def test_singularity_propagates_from_potential(self, standing1d):
        from strz.errors import SingularityError
        from strz.potentials import PseudoconformalPotential

        grid, W, u0 = standing1d
        V = PseudoconformalPotential(W)
        with pytest.raises(SingularityError):
            # first midpoint sits at negative time
            split_step_evolve(u0, V, interval=(-0.5, 0.5), dt=1e-2)


    def test_one_norm_table_call_per_sample(self, standing2d, monkeypatch):
        grid, W, u0 = standing2d
        calls = []
        real = solver.lq_norm_table

        def counting(values, g, qs):
            calls.append(sorted(qs))
            return real(values, g, qs)

        monkeypatch.setattr(solver, "lq_norm_table", counting)
        rep = split_step_evolve(u0, StaticPotential(W), interval=(0.0, 0.2), dt=0.01,
                                pairs=[("inf", 2), (4, 4), (3, 6)])
        assert len(calls) == 20 + 1
        assert all(qs == [Exponent(2), Exponent(4), Exponent(6)] for qs in calls)
        assert len(rep.strichartz_ratios) == 3

    def test_fft_count_identity_moving_potential(self, standing2d, monkeypatch):
        # the benchmark's identity fft.calls == 2 steps + rescale_field.calls:
        # two FFTs per Strang step, one per sinc kernel, and one evaluate
        # and one rescale per step of a moving potential
        grid, W, u0 = standing2d
        calls = {"fft": 0, "rescale_field": 0, "evaluate": 0}
        threads = set()

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                threads.add(threading.get_ident())
                return fn(*args, **kwargs)

            return wrapper

        for name in ("fftn", "ifftn"):
            monkeypatch.setattr(np.fft, name, counted("fft", getattr(np.fft, name)))
        monkeypatch.setattr(potentials, "rescale_field",
                            counted("rescale_field", potentials.rescale_field))
        monkeypatch.setattr(solver, "evaluate", counted("evaluate", solver.evaluate))
        steps = 20
        split_step_evolve(u0, PseudoconformalPotential(W), interval=(0.8, 1.0), dt=0.01)
        assert calls["fft"] == 2 * steps + calls["rescale_field"]
        assert calls["rescale_field"] == steps
        assert calls["evaluate"] == steps
        # a 64^3 step (PARALLEL_MIN_POINTS) may split between two threads,
        # yet makes its two fftn/ifftn calls on the calling thread, where
        # the benchmark's single-threaded tracer counts them
        big = make_grid(3, 8.0, 64)
        bump = gaussian_field(big, sigma=1.0)
        calls["fft"] = 0
        threads.clear()
        split_step_evolve(bump, StaticPotential(real_profile(big, -0.5 * bump.values.real)),
                          interval=(0.0, 0.05), dt=0.01)
        assert calls["fft"] == 2 * 5
        assert threads == {threading.get_ident()}


class TestZNorm:
    def test_endpoint_exponents(self):
        assert endpoint_q(3) == Exponent(6)
        assert endpoint_q(4) == Exponent(4)
        assert endpoint_q(2) == Exponent(DEFAULT_Q_FALLBACK) == Exponent(8)
        assert endpoint_q(1) == Exponent(8)

    def test_zero_only_for_zero(self, standing1d):
        grid, _, u0 = standing1d
        rep = split_step_evolve(u0, ZeroPotential(), interval=(0.0, 0.5), dt=1e-2,
                                store_every=1)
        traj = rep.trajectory
        stack = np.stack([s.values for s in traj.states])
        zn = stack_z_norm(traj.times, stack, grid)
        assert zn > 0
        assert trajectory_mixed_norm(traj, "inf", 2) <= zn
        assert stack_z_norm(traj.times, np.zeros_like(stack), grid) == 0.0

    def test_max_of_mixed_norms_and_stacked_form(self, standing2d):
        grid, W, _ = standing2d
        rep = split_step_evolve(gaussian_field(grid, sigma=1.0), StaticPotential(W),
                                interval=(0.0, 0.5), dt=1e-2, store_every=1)
        traj = rep.trajectory
        # the Duhamel iteration's Z-norm, taken on its stacked piece array
        stack = np.stack([s.values for s in traj.states])
        zn = stack_z_norm(traj.times, stack, grid)
        assert zn > 0
        assert zn == pytest.approx(max(trajectory_mixed_norm(traj, "inf", 2),
                                       trajectory_mixed_norm(traj, 2, endpoint_q(2))),
                                   rel=1e-12)


class TestPotentialSampler:
    def sampled_times(self, V, grid, times, monkeypatch):
        calls = []
        real = solver.evaluate

        def counting(V, t, g):
            calls.append(t)
            return real(V, t, g)

        monkeypatch.setattr(solver, "evaluate", counting)
        sampler = PotentialSampler(V, grid)
        for t in times:
            np.testing.assert_array_equal(sampler.values_at(t), real(V, t, grid))
        return calls

    def test_caches_static_and_zero_once(self, standing1d, monkeypatch):
        grid, W, _ = standing1d
        for V in (ZeroPotential(), StaticPotential(W)):
            assert self.sampled_times(V, grid, [0.0, 0.3, 0.7], monkeypatch) == [0.0]

    def test_caches_patched_per_window(self, standing1d, monkeypatch):
        grid, W, _ = standing1d
        kind = ScheduleKind.LOCAL
        sched = Schedule(kind=kind, params=ScheduleParams(alpha=2, beta=4, kind=kind), n=1,
                         windows=(Window(1, 0.0, 0.5, 1.0), Window(2, 0.5, 0.25, 1.1)),
                         total_time=1.0)
        V = PatchedRescaledPotential(W, sched)
        times = [0.1, 0.2, 0.6, 0.7, 0.8, 0.9]
        assert self.sampled_times(V, grid, times, monkeypatch) == [0.1, 0.6, 0.8]

    def test_pseudoconformal_never_cached(self, standing1d, monkeypatch):
        grid, W, _ = standing1d
        times = [0.9, 0.95, 1.0]
        calls = self.sampled_times(PseudoconformalPotential(W), grid, times, monkeypatch)
        assert calls == times

    def test_static_sample_is_the_profile(self, standing1d):
        # a static V's sample is a read-only view of its stored profile
        grid, W, _ = standing1d
        V = StaticPotential(W)
        sample = PotentialSampler(V, grid).values_at(0.3)
        assert np.shares_memory(sample, V.profile.values)
        assert not sample.flags.writeable

    def test_pseudoconformal_sample_owns_its_data(self, standing1d):
        # the rescaled samples are the sample's own real array
        grid, W, _ = standing1d
        sample = PotentialSampler(PseudoconformalPotential(W), grid).values_at(0.9)
        assert sample.flags.owndata
        assert not np.shares_memory(sample, W.values)

    @pytest.mark.parametrize("kind", ["zero", "static", "patched"])
    def test_phase_built_once_per_key_and_step(self, standing1d, kind):
        grid, W, _ = standing1d
        if kind == "zero":
            V, same, other = ZeroPotential(), (0.0, 0.7), 0.9
        elif kind == "static":
            V, same, other = StaticPotential(W), (0.0, 0.7), 0.9
        else:
            sk = ScheduleKind.LOCAL
            sched = Schedule(kind=sk, params=ScheduleParams(alpha=2, beta=4, kind=sk), n=1,
                             windows=(Window(1, 0.0, 0.5, 1.0), Window(2, 0.5, 0.25, 1.1)),
                             total_time=1.0)
            V, same, other = PatchedRescaledPotential(W, sched), (0.1, 0.4), 0.6
        sampler = PotentialSampler(V, grid)
        first = sampler.phase_at(same[0], 0.01)
        np.testing.assert_array_equal(first,
                                      np.exp(1j * (0.01 / 2) * sampler.values_at(same[0])))
        assert sampler.phase_at(same[1], 0.01) is first
        assert sampler.phase_at(same[0], 0.005) is not first
        assert sampler.phase_at(same[0], 0.005) is sampler.phase_at(same[1], 0.005)
        if kind == "patched":
            assert sampler.phase_at(other, 0.01) is not first
        else:
            assert sampler.phase_at(other, 0.01) is first

    def test_pseudoconformal_phase_never_cached(self, standing1d):
        grid, W, _ = standing1d
        sampler = PotentialSampler(PseudoconformalPotential(W), grid)
        first = sampler.phase_at(0.9, 0.01)
        assert sampler.phase_at(0.9, 0.01) is not first
        np.testing.assert_array_equal(first, np.exp(1j * (0.01 / 2) * sampler.values_at(0.9)))

    @pytest.mark.parametrize("h", [2.5e-4, 1e-3, 0.01])
    def test_phase_matches_complex_exp_bit_for_bit(self, standing1d, h):
        grid, W, _ = standing1d
        vals = W.values.real.copy()
        vals[:4] = -0.0, 0.0, -1e-310, 5e-324  # signed zeros and subnormals
        for V, t in ((StaticPotential(real_profile(grid, vals)), 0.3),
                     (PseudoconformalPotential(W), 0.9), (PseudoconformalPotential(W), 1.7)):
            sampler = PotentialSampler(V, grid)
            ref = np.exp((0.5j * h) * sampler.values_at(t))
            got = sampler.phase_at(t, h)
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def reference_duhamel(u0, F, V, piece, dt, tol=1e-8, maxit=30):
    """The Picard loop of duhamel_iterate over the out-of-place row recursion
    out[j+1] = K(out[j] - i(h/2) g_j) - i(h/2) g_{j+1} with g = F - V v,
    one temporary per operation; returns the iterate, its iteration count,
    factors and relative residual."""
    grid = u0.grid
    times, h = time_lattice(piece, dt)
    sampler = PotentialSampler(V, grid)
    kin = free_multiplier(grid, h)
    Vs = [sampler.values_at(float(t)) for t in times]
    Fs = [solver._source_at(F, float(t), grid) for t in times]

    def g(j, v):
        if v is None:
            return 0.0
        gj = -Vs[j] * v[j]
        return gj if Fs[j] is None else gj + Fs[j]

    def sweep(v):
        out = np.empty((len(times),) + grid.shape, dtype=np.complex128)
        out[0] = u0.values
        for j in range(len(times) - 1):
            out[j + 1] = strang_step(out[j] - 1j * (h / 2) * g(j, v), kin)
            out[j + 1] -= 1j * (h / 2) * g(j + 1, v)
        return out

    def z(a):
        return stack_z_norm(times, a, grid)

    v = sweep(None)
    scale = z(v)
    v_next = sweep(v)
    d_first = z(v - v_next)
    factors, iterations = [], 1
    v, prev = v_next, d_first
    if d_first > 1e-14 * scale:
        while True:
            v_next = sweep(v)
            d = z(v - v_next)
            factors.append(d / prev if prev > 0 else 0.0)
            iterations += 1
            v, prev = v_next, d
            if d <= tol * d_first or iterations >= maxit:
                break
    return v, iterations, factors, z(sweep(v) - v) / z(v)


class TestDuhamel:
    def test_zero_potential_one_iteration(self, standing1d):
        grid, _, u0 = standing1d
        res = duhamel_iterate(u0, None, ZeroPotential(), (0.0, 0.5), dt=0.01)
        assert res.iterations == 1
        assert res.residual == 0.0 and res.factors == []
        for t, s in zip(res.trajectory.times, res.trajectory.states):
            exact = free_propagate(u0, float(t))
            assert np.abs(s.values - exact.values).max() < 1e-10

    def test_zero_potential_with_source(self, standing1d):
        # Phi does not depend on v when V = 0: fixed point after one
        # corrective application
        grid, _, u0 = standing1d
        F = ComplexField(grid, 0.5 * u0.values)
        res = duhamel_iterate(u0, F, ZeroPotential(), (0.0, 0.5), dt=0.01)
        assert res.iterations == 2
        assert res.residual < 1e-12

    @pytest.mark.parametrize("dim, kind", [("standing1d", "static"),
                                           ("standing2d", "pseudoconformal")])
    def test_bit_identical_to_out_of_place_rows(self, request, dim, kind):
        grid, W, u0 = request.getfixturevalue(dim)
        F, V, piece = None, StaticPotential(W), (0.0, 0.25)
        if kind == "pseudoconformal":
            def F(t):
                return ComplexField(grid, 0.3 * np.exp(-1j * t) * u0.values)

            V, piece = PseudoconformalPotential(W), (0.8, 1.0)
        res = duhamel_iterate(u0, F, V, piece, 0.005, tol=1e-10)
        v, iterations, factors, residual = reference_duhamel(u0, F, V, piece, 0.005, tol=1e-10)
        assert res.iterations == iterations > 2
        assert res.factors == factors
        assert res.residual == residual
        np.testing.assert_array_equal(np.array([s.values for s in res.trajectory.states]), v)

    def test_contraction_and_residual(self, standing1d):
        grid, W, u0 = standing1d
        res = duhamel_iterate(u0, None, StaticPotential(W), (0.0, 0.25), dt=0.005,
                              tol=1e-8)
        assert all(f < 1.0 for f in res.factors)
        assert res.residual < 1e-8

    def test_factors_scale_with_amplitude(self, standing1d):
        grid, W, u0 = standing1d
        facs = []
        amps = np.linspace(0.2, 2.0, 10)
        for c in amps:
            V = StaticPotential(real_profile(grid, c * W.values.real))
            r = duhamel_iterate(u0, None, V, (0.0, 0.25), dt=0.01)
            facs.append(max(r.factors) if r.factors else 0.0)
        # monotone in amplitude and roughly linear
        assert all(a < b for a, b in zip(facs, facs[1:]))
        ratio = facs[-1] / facs[4]
        assert ratio == pytest.approx(amps[-1] / amps[4], rel=0.2)

    def test_agrees_with_split_step(self, standing1d):
        grid, W, u0 = standing1d
        res = duhamel_iterate(u0, None, StaticPotential(W), (0.0, 0.25), dt=0.005)
        rep = split_step_evolve(u0, StaticPotential(W), interval=(0.0, 0.25), dt=0.005,
                                store_every=1)
        assert linf_l2_gap(res.trajectory, rep.trajectory, lq_norm(u0, 2)) < 1e-3

    def test_non_contraction_error(self, standing1d):
        grid, W, u0 = standing1d
        V = StaticPotential(real_profile(grid, 40.0 * W.values.real))
        with pytest.raises(NonContractionError):
            duhamel_iterate(u0, None, V, (0.0, 1.0), dt=0.01, maxit=8)

    def test_buffers_beyond_memory_rejected(self, monkeypatch):
        # 10^7 + 1 samples of 512^2 points need about 168 TB of buffers
        def never(*args):
            raise AssertionError("the potential was sampled before the size check")

        monkeypatch.setattr(solver, "evaluate", never)
        u0 = gaussian_field(make_grid(2, 10.0, 512), sigma=1.0)
        with pytest.raises(PreconditionError, match="GiB"):
            duhamel_iterate(u0, None, ZeroPotential(), (0.0, 1.0), dt=1e-7)

    def test_stacks_beyond_memory_rejected_before_any_sample_key(self, monkeypatch):
        # the three stacks alone exceed memory, so the 10^7 + 1 sample keys are
        # never asked for
        def never(self, t):
            raise AssertionError("sample_key was called before the size check")

        monkeypatch.setattr(ZeroPotential, "sample_key", never)
        u0 = gaussian_field(make_grid(2, 10.0, 512), sigma=1.0)
        with pytest.raises(PreconditionError, match="GiB"):
            duhamel_iterate(u0, None, ZeroPotential(), (0.0, 1.0), dt=1e-7)

    def test_buffers_count_the_kept_samples(self, monkeypatch):
        # a pseudoconformal V keeps one real sample per node (half a stack) and
        # a callable F one more field per node: v, Phi(v), the states and those
        # two make 4.5 stacks of 41 nodes, which 4.25 stacks of memory cannot hold
        def never(*args):
            raise AssertionError("the potential was sampled before the size check")

        grid = make_grid(2, 10.0, 64)
        u0 = gaussian_field(grid, sigma=1.0)
        V = PseudoconformalPotential(real_profile(grid, u0.values.real))
        monkeypatch.setattr(solver, "evaluate", never)
        monkeypatch.setattr(solver, "PHYSICAL_MEMORY", 4.25 * 41 * 64**2 * 16)
        with pytest.raises(PreconditionError, match="GiB"):
            duhamel_iterate(u0, lambda t: u0, V, (0.8, 1.0), dt=0.005)

    def test_peak_memory_three_stacks(self):
        # one 2D N=64 piece of 41 nodes: v, Phi(v) and the returned states
        # (the real |.|^q temporaries of a Z-norm add half a stack)
        grid = make_grid(2, 10.0, 64)
        u0 = gaussian_field(grid, sigma=1.0)
        V = StaticPotential(real_profile(grid, u0.values.real))
        tracemalloc.start()
        try:
            duhamel_iterate(u0, None, V, (0.8, 1.0), dt=0.005)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.0 * 41 * 64**2 * 16, peak / (41 * 64**2 * 16)

    def test_peak_memory_kept_samples_are_real(self):
        # a pseudoconformal V keeps a real sample per node, half a stack in all;
        # F returns one field, so its samples share it
        grid = make_grid(2, 10.0, 64)
        u0 = gaussian_field(grid, sigma=1.0)
        V = PseudoconformalPotential(real_profile(grid, u0.values.real))
        tracemalloc.start()
        try:
            duhamel_iterate(u0, lambda t: u0, V, (0.8, 1.0), dt=0.005)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.25 * 41 * 64**2 * 16, peak / (41 * 64**2 * 16)


class TestDuhamelOrder:
    """The trapezoid Duhamel discretization is second order in dt: against
    the standing wave exp(-it) u0, halving dt quarters the L^inf_t L^2 error."""

    @staticmethod
    def error(traj, u0):
        vol = u0.grid.cell_volume
        return max(np.sqrt(np.sum(np.abs(s.values - np.exp(-1j * t) * u0.values) ** 2) * vol)
                   for t, s in zip(traj.times, traj.states)) / lq_norm(u0, 2)

    @pytest.mark.parametrize("dim", ["standing1d", "standing2d", "standing3d"])
    @pytest.mark.parametrize("route", ["duhamel", "global"])
    def test_second_order(self, request, dim, route):
        grid, W, u0 = request.getfixturevalue(dim)
        V = StaticPotential(W)
        # in 3D a single dt = 0.02 slice of this W already exceeds tau = 1
        tau = 3.0 if grid.n == 3 else 1.0
        errors = []
        for dt in (0.02, 0.01, 0.005):
            if route == "global":
                traj = solve_global(u0, None, V, (0.0, 1.0), 2, 2, tau=tau, dt=dt, tol=1e-12,
                                    pairs=[], store_every=1).trajectory
            else:
                traj = duhamel_iterate(u0, None, V, (0.0, 0.25), dt, tol=1e-12).trajectory
            errors.append(self.error(traj, u0))
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert orders.min() >= 1.9, orders

    def test_time_dependent_potential_with_source(self, standing1d):
        # V(t) and F(t) change at every sample, so each trapezoid node must read
        # its own V; the gap to split-step is the O(dt^2) of both schemes
        grid, W, u0 = standing1d
        V = PseudoconformalPotential(W)

        def F(t):
            return ComplexField(grid, 0.3 * np.exp(-1j * t) * u0.values)

        gaps = []
        for dt in (0.01, 0.005, 0.0025):
            res = duhamel_iterate(u0, F, V, (0.8, 1.0), dt, tol=1e-12)
            rep = split_step_evolve(u0, V, F=F, interval=(0.8, 1.0), dt=dt, store_every=1)
            gaps.append(linf_l2_gap(res.trajectory, rep.trajectory, lq_norm(u0, 2)))
        orders = np.log2(np.array(gaps[:-1]) / np.array(gaps[1:]))
        assert orders.min() >= 1.9, orders


class TestDuhamelFixedPoint:
    """Picard's limit is the discrete trapezoid fixed point, which one implicit
    sweep solves exactly: the term (h/2) V_{j+1} v_{j+1} is pointwise, so
    v_{j+1} = (K(v_j - i(h/2) g_j) - i(h/2) F_{j+1}) / (1 - i(h/2) V_{j+1})
    with g = F - V v and K the exact free step of length h."""

    @staticmethod
    def implicit_sweep(u0, F, V, piece, dt):
        grid = u0.grid
        times, h = time_lattice(piece, dt)
        Vs = [evaluate(V, float(t), grid) for t in times]
        Fs = [np.zeros(grid.shape) if F is None else
              (F if isinstance(F, ComplexField) else F(float(t))).values for t in times]
        v = [u0.values]
        for j in range(len(times) - 1):
            g = Fs[j] - Vs[j] * v[j]
            w = free_propagate(ComplexField(grid, v[j] - 0.5j * h * g), h).values
            v.append((w - 0.5j * h * Fs[j + 1]) / (1.0 - 0.5j * h * Vs[j + 1]))
        return times, v

    @pytest.mark.parametrize("dim, kind", [("standing1d", "pseudoconformal"),
                                           ("standing2d", "static"),
                                           ("standing2d", "patched"),
                                           ("standing3d", "static")])
    def test_picard_limit_is_implicit_sweep(self, request, dim, kind):
        grid, W, u0 = request.getfixturevalue(dim)
        F, V, piece = None, StaticPotential(W), (0.0, 0.25)
        if kind == "pseudoconformal":
            def F(t):
                return ComplexField(grid, 0.3 * np.exp(-1j * t) * u0.values)

            V, piece = PseudoconformalPotential(W), (0.8, 1.0)
        elif kind == "patched":
            sk = ScheduleKind.LOCAL
            sched = Schedule(kind=sk, params=ScheduleParams(alpha=2, beta=4, kind=sk), n=2,
                             windows=(Window(1, 0.0, 0.5, 1.0), Window(2, 0.5, 0.25, 1.1)),
                             total_time=1.0)
            F = ComplexField(grid, 0.5 * u0.values)
            V, piece = PatchedRescaledPotential(W, sched), (0.4, 0.6)
        res = duhamel_iterate(u0, F, V, piece, 0.005, tol=1e-13, maxit=60)
        times, exact = self.implicit_sweep(u0, F, V, piece, 0.005)
        np.testing.assert_array_equal(res.trajectory.times, times)
        gap = max(lq_norms(s.values - e, grid, 2) for s, e in zip(res.trajectory.states, exact))
        assert gap <= 1e-12 * max(lq_norms(np.array(exact), grid, 2)), gap


class TestBoxGuard:
    """Every route that rescales a potential profile guards the box at
    spectral.DEFAULT_MASS_TOL: at T near 20 the pseudoconformal profile
    W(X/T) puts 8.9e-2 of its mass in the outer shell."""

    @pytest.fixture
    def escaping(self, standing1d):
        grid, W, u0 = standing1d
        return grid, PseudoconformalPotential(W), u0, (19.9, 20.0)

    def assert_guarded(self, call):
        with pytest.raises(SupportEscapeError, match=r"exceeds tolerance 1\.000e-08"):
            call()

    def test_evaluate(self, escaping):
        grid, V, _, (a, b) = escaping
        self.assert_guarded(lambda: evaluate(V, 0.5 * (a + b), grid))

    def test_split_step(self, escaping):
        _, V, u0, piece = escaping
        self.assert_guarded(lambda: split_step_evolve(u0, V, interval=piece, dt=0.05))

    def test_duhamel(self, escaping):
        _, V, u0, piece = escaping
        self.assert_guarded(lambda: duhamel_iterate(u0, None, V, piece, dt=0.05))

    def test_partition_of_sum(self, escaping):
        grid, V, _, piece = escaping
        V_sum = SumPotential(((V, Exponent(2), Exponent(2)),))
        self.assert_guarded(lambda: partition_interval(V_sum, 2, 2, piece, tau=1.0, dt=0.05,
                                                       grid=grid))


class TestSolveGlobal:
    def test_zero_potential_single_piece(self, standing1d):
        grid, _, u0 = standing1d
        rep = solve_global(u0, None, ZeroPotential(), (0.0, 1.0), 2, 2, tau=1.0,
                           dt=0.01, pairs=[])
        assert rep.pieces == 1
        assert rep.energy_drift < 1e-12
        for t, s in zip(rep.trajectory.times, rep.trajectory.states):
            exact = free_propagate(u0, float(t))
            assert np.abs(s.values - exact.values).max() < 1e-10

    def test_chained_equals_single_when_tau_large(self, standing1d):
        grid, W, u0 = standing1d
        rep = solve_global(u0, None, StaticPotential(W), (0.0, 0.5), 2, 2, tau=100.0,
                           dt=0.01, pairs=[], store_every=1)
        single = duhamel_iterate(u0, None, StaticPotential(W), (0.0, 0.5), dt=0.01)
        assert rep.pieces == 1
        gap = linf_l2_gap(rep.trajectory, single.trajectory, lq_norm(u0, 2))
        assert gap < 1e-12

    def test_chained_matches_split_step(self, standing1d):
        grid, W, u0 = standing1d
        tau = 1.5
        rep = solve_global(u0, None, StaticPotential(W), (0.0, 2.0), 2, 2, tau=tau,
                           dt=0.005, pairs=[], store_every=1)
        assert rep.pieces >= 2
        ss = split_step_evolve(u0, StaticPotential(W), interval=(0.0, 2.0), dt=0.005,
                               store_every=1)
        assert linf_l2_gap(rep.trajectory, ss.trajectory, lq_norm(u0, 2)) < 1e-3
        assert rep.energy_drift < 1e-6

    @pytest.fixture
    def duhamel_calls(self, monkeypatch):
        """The pieces solve_global hands to duhamel_iterate."""
        calls = []
        real = solver.duhamel_iterate

        def counting(*args, **kwargs):
            calls.append(args[3])
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "duhamel_iterate", counting)
        return calls

    def test_inadmissible_pair_rejected_before_any_piece(self, standing1d, duhamel_calls):
        grid, W, u0 = standing1d
        with pytest.raises(PreconditionError):
            solve_global(u0, None, StaticPotential(W), (0.0, 1.0), 2, 2, tau=1.0, dt=0.01,
                         pairs=[(4, 4)])  # no admissible pairs for n = 1
        assert duhamel_calls == []

    def test_default_thinning_matches_split_step(self):
        # 256 steps: both solvers store every step by the same default rule
        grid = make_grid(1, 12.0, 64)
        u0 = gaussian_field(grid, sigma=1.0)
        glob = solve_global(u0, None, ZeroPotential(), (0.0, 2.56), 2, 2, tau=1.0, dt=0.01)
        ss = split_step_evolve(u0, ZeroPotential(), interval=(0.0, 2.56), dt=0.01)
        assert len(glob.trajectory.states) == len(ss.trajectory.states) == 257
        np.testing.assert_array_equal(glob.trajectory.times, ss.trajectory.times)
        assert glob.strichartz_ratios == ss.strichartz_ratios == {}

    def test_kept_states_beyond_memory_rejected_before_any_piece(self, standing1d,
                                                                  monkeypatch, duhamel_calls):
        # pieces of 37 nodes need 3 * 37 + 1/2 fields of Duhamel buffers, which
        # 200 fields of memory hold; the 401 kept states do not fit
        grid, W, u0 = standing1d
        monkeypatch.setattr(solver, "PHYSICAL_MEMORY", 200 * 64 * 16)
        with pytest.raises(PreconditionError, match="GiB"):
            solve_global(u0, None, StaticPotential(W), (0.0, 2.0), 2, 2, tau=1.0, dt=0.005,
                         pairs=[], store_every=1)
        assert duhamel_calls == []

    def test_peak_memory_one_piece_at_a_time(self):
        # 37 pieces of about 22 nodes and 801 samples, 9 of them kept: the chain
        # holds one piece's buffers and the kept states, not every state
        grid = make_grid(2, 10.0, 64)
        u0 = gaussian_field(grid, sigma=1.0)
        V = StaticPotential(real_profile(grid, -0.5 * u0.values.real))
        tracemalloc.start()
        try:
            rep = solve_global(u0, None, V, (0.0, 4.0), 2, 2, tau=0.3, dt=5e-3, pairs=[],
                               store_every=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rep.pieces, len(rep.trajectory.states)) == (37, 9)
        assert peak <= 150 * 64**2 * 16, peak / (64**2 * 16)

    def test_store_every_zero_rejected_before_any_piece(self, standing1d, duhamel_calls):
        grid, W, u0 = standing1d
        with pytest.raises(PreconditionError, match="store_every"):
            solve_global(u0, None, StaticPotential(W), (0.0, 1.0), 2, 2, tau=1.0, dt=0.01,
                         pairs=[], store_every=0)
        assert duhamel_calls == []
        with pytest.raises(PreconditionError, match="store_every"):
            split_step_evolve(u0, StaticPotential(W), interval=(0.0, 1.0), dt=0.01,
                              store_every=0)

    def test_report_contents(self, standing2d):
        grid, W, u0 = standing2d
        rep = solve_global(u0, None, StaticPotential(W), (0.0, 1.0), 2, 2, tau=1.5,
                           dt=0.01, pairs=[("inf", 2)])
        assert rep.tau == 1.5
        assert rep.c_hat == pytest.approx(1.0 / 3.0)
        k = rep.pieces
        assert rep.constant_bound == pytest.approx(k * (1 + 2 * rep.c_hat) ** k)
        key = (Exponent("inf"), Exponent(2))
        assert rep.strichartz_ratios[key] == pytest.approx(1.0, abs=1e-6)
        assert rep.strichartz_ratios[key] <= rep.constant_bound
        d = rep.to_json_dict()
        assert d["pieces"] == k
        assert "partition" in d

    def test_modulus_of_continuity_stable_under_refinement(self, standing1d):
        # discrete C_t L^2 bound: max step increment scales like dt, with a
        # stable constant across refinements
        grid, W, u0 = standing1d
        consts = []
        for dt in (0.02, 0.01, 0.005):
            rep = split_step_evolve(u0, StaticPotential(W), interval=(0.0, 1.0),
                                    dt=dt, store_every=1)
            states = rep.trajectory.states
            inc = max(
                np.sqrt(np.sum(np.abs(a.values - b.values) ** 2) * grid.cell_volume)
                for a, b in zip(states, states[1:])
            )
            consts.append(inc / dt)
        assert max(consts) / min(consts) < 1.5


def same_bits(a, b):
    """Equal bit for bit, so that +0 and -0 differ (== would pass them)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def assert_same_piece(got, want):
    assert got.iterations == want.iterations
    assert same_bits(got.factors, want.factors)
    assert same_bits(got.residual, want.residual)
    assert same_bits(got.trajectory.times, want.trajectory.times)
    assert same_bits(got.trajectory.energy_log, want.trajectory.energy_log)
    assert same_bits([s.values for s in got.trajectory.states],
                     [s.values for s in want.trajectory.states])


def serially(monkeypatch, call):
    """call() with the Duhamel sweeps on one thread."""
    with monkeypatch.context() as m:
        m.setattr(solver, "WAVEFRONT_MIN_POINTS", math.inf)
        return call()


def static_piece(n, N, amplitude=-2.0):
    grid = make_grid(n, 8.0, N)
    u0 = gaussian_field(grid, sigma=1.0)
    return u0, StaticPotential(real_profile(grid, amplitude * u0.values.real))


def _wavefront_in_child(u0, V, piece, dt, expected, parent_worker):
    """Target of a forked child: its own worker, the parent's bits."""
    assert spectral._worker(os.getpid()) is not parent_worker
    assert_same_piece(duhamel_iterate(u0, None, V, piece, dt), expected)


def _error_in_child(raiser, u0, V, piece, want):
    """Target of a forked child: the 60th FFT call of one side raises; the
    error reaches the caller once neither thread sweeps, and the worker
    still serves the next piece."""
    main = threading.get_ident()
    calls = {"caller": 0, "worker": 0}

    def failing(fn):
        def wrapper(*args, **kwargs):
            side = "caller" if threading.get_ident() == main else "worker"
            calls[side] += 1
            if side == raiser and calls[side] == 60:  # a few sweeps in
                raise RuntimeError(f"{raiser} sweep")
            return fn(*args, **kwargs)

        return wrapper

    real = np.fft.fftn, np.fft.fft
    # the caller transforms with fftn, the worker with one-axis fft
    np.fft.fftn, np.fft.fft = failing(real[0]), failing(real[1])
    try:
        with pytest.raises(RuntimeError, match=f"{raiser} sweep"):
            duhamel_iterate(u0, None, V, piece, 0.005)
        seen = dict(calls)
        time.sleep(0.1)
        assert calls == seen  # neither thread still sweeps
    finally:
        np.fft.fftn, np.fft.fft = real
    assert seen["caller"] and seen["worker"]
    assert spectral._worker(os.getpid()).submit(lambda: 1).result(timeout=5) == 1
    assert_same_piece(duhamel_iterate(u0, None, V, piece, 0.005), want)


def run_in_fork(target, args, timeout=120):
    child = multiprocessing.get_context("fork").Process(target=target, args=args)
    with warnings.catch_warnings():
        # Python 3.12 warns on fork() in a process with threads; the child
        # touches only its own worker
        warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                DeprecationWarning)
        child.start()
    child.join(timeout=timeout)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child's piece did not finish")
    assert child.exitcode == 0


class TestWavefront:
    """On grids of WAVEFRONT_MIN_POINTS points and up, with two CPUs allowed,
    the even sweeps of a piece run on the caller and the odd ones on
    spectral's worker thread, each one row behind the last, with the serial
    bits, factors, iterations, residual and errors."""

    @pytest.fixture
    def worker_ffts(self, monkeypatch):
        """Records every one-axis FFT made off the calling thread."""
        main = threading.get_ident()
        calls = []
        for name in ("fft", "ifft"):
            def recorded(*args, _fn=getattr(np.fft, name), **kwargs):
                if threading.get_ident() != main:
                    calls.append(threading.get_ident())
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, recorded)
        return calls

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        """The wavefront wherever the grid allows it, one CPU or more."""
        monkeypatch.setattr(spectral, "_two_cpus", lambda: True)

    @pytest.fixture
    def small_grids(self, monkeypatch, two_cpus):
        monkeypatch.setattr(solver, "WAVEFRONT_MIN_POINTS", 1)

    def test_static_32cubed_piece(self, monkeypatch, worker_ffts):
        # the gate as it stands: a wavefront exactly when two CPUs are allowed
        u0, V = static_piece(3, 32)
        assert u0.grid.npoints >= solver.WAVEFRONT_MIN_POINTS
        got = duhamel_iterate(u0, None, V, (0.0, 0.16), 0.01)
        assert bool(worker_ffts) == spectral._two_cpus()
        want = serially(monkeypatch, lambda: duhamel_iterate(u0, None, V, (0.0, 0.16), 0.01))
        assert got.iterations > 2
        assert_same_piece(got, want)

    def test_solve_global_32cubed(self, monkeypatch, two_cpus, worker_ffts):
        u0, V = static_piece(3, 32)

        def solve():
            return solve_global(u0, None, V, (0.0, 0.3), 2, 2, tau=1.5, dt=0.01,
                                pairs=[("inf", 2), (2, 6)], store_every=1)

        got = solve()
        assert worker_ffts
        want = serially(monkeypatch, solve)
        assert got.pieces == want.pieces >= 2
        assert got.iterations == want.iterations
        assert same_bits(sum(got.contraction_factors, []), sum(want.contraction_factors, []))
        assert same_bits(got.residuals, want.residuals)
        assert got.strichartz_ratios == want.strichartz_ratios
        assert same_bits(got.energy_log, want.energy_log)
        assert same_bits([s.values for s in got.trajectory.states],
                         [s.values for s in want.trajectory.states])

    def test_callable_source_2d(self, standing2d, monkeypatch, small_grids, worker_ffts):
        grid, W, u0 = standing2d

        def F(t):
            return ComplexField(grid, 0.3 * np.exp(-1j * t) * u0.values)

        V, piece = PseudoconformalPotential(W), (0.8, 1.0)
        got = duhamel_iterate(u0, F, V, piece, 0.005, tol=1e-10)
        assert worker_ffts
        assert_same_piece(got, serially(
            monkeypatch, lambda: duhamel_iterate(u0, F, V, piece, 0.005, tol=1e-10)))
        v, iterations, factors, residual = reference_duhamel(u0, F, V, piece, 0.005, tol=1e-10)
        assert (got.iterations, got.factors, got.residual) == (iterations, factors, residual)
        assert same_bits([s.values for s in got.trajectory.states], v)

    def test_zero_potential_stops_after_first_iteration(self, standing2d, monkeypatch,
                                                        small_grids, worker_ffts):
        grid, _, u0 = standing2d
        got = duhamel_iterate(u0, None, ZeroPotential(), (0.0, 0.5), dt=0.01)
        assert worker_ffts
        assert (got.iterations, got.factors, got.residual) == (1, [], 0.0)
        assert_same_piece(got, serially(
            monkeypatch, lambda: duhamel_iterate(u0, None, ZeroPotential(), (0.0, 0.5),
                                                 dt=0.01)))

    def test_non_contraction_error_at_maxit(self, standing2d, monkeypatch, small_grids):
        grid, W, u0 = standing2d
        V = StaticPotential(real_profile(grid, 40.0 * W.values.real))
        with pytest.raises(NonContractionError) as got:
            duhamel_iterate(u0, None, V, (0.0, 0.5), dt=0.01, maxit=4)
        with pytest.raises(NonContractionError) as want:
            serially(monkeypatch, lambda: duhamel_iterate(u0, None, V, (0.0, 0.5), dt=0.01,
                                                          maxit=4))
        assert "after 4 iterations (last factor" in str(want.value)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("slow", ["worker", "caller"])
    def test_decisions_in_sweep_order_when_one_side_is_slow(self, monkeypatch, small_grids,
                                                            slow):
        # each Z-norm of the slow side takes 20 ms more, so the other side
        # finishes its next sweep first, and must wait to decide after it
        u0, V = static_piece(2, 32)
        want = serially(monkeypatch, lambda: duhamel_iterate(u0, None, V, (0.0, 0.16), 0.01))
        main, real = threading.get_ident(), solver.time_lp

        def time_lp(*args):
            if (threading.get_ident() == main) == (slow == "caller"):
                time.sleep(0.02)
            return real(*args)

        monkeypatch.setattr(solver, "time_lp", time_lp)
        assert_same_piece(duhamel_iterate(u0, None, V, (0.0, 0.16), 0.01), want)

    def test_bits_hold_under_a_short_switch_interval(self, monkeypatch, small_grids,
                                                     worker_ffts):
        # the threads hand the interpreter back and forth every microsecond,
        # so a row read before it is finished would change the bits
        u0, V = static_piece(2, 32)
        want = serially(monkeypatch, lambda: duhamel_iterate(u0, None, V, (0.0, 0.16), 0.01))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = duhamel_iterate(u0, None, V, (0.0, 0.16), 0.01)
        finally:
            sys.setswitchinterval(interval)
        assert worker_ffts
        assert_same_piece(got, want)

    @pytest.mark.parametrize("raiser", ["worker", "caller"])
    def test_error_surfaces_after_both_threads_stop(self, standing2d, monkeypatch,
                                                    small_grids, raiser):
        # in a child on a timeout, so that a thread left waiting fails the
        # test instead of hanging the suite
        grid, W, u0 = standing2d
        V, piece = StaticPotential(W), (0.0, 0.25)
        want = serially(monkeypatch, lambda: duhamel_iterate(u0, None, V, piece, 0.005))
        run_in_fork(_error_in_child, (raiser, u0, V, piece, want), timeout=60)

    def test_one_cpu_takes_the_serial_path(self, monkeypatch, worker_ffts):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        u0, V = static_piece(3, 32)
        got = duhamel_iterate(u0, None, V, (0.0, 0.08), 0.01)
        assert worker_ffts == []
        assert_same_piece(got, serially(
            monkeypatch, lambda: duhamel_iterate(u0, None, V, (0.0, 0.08), 0.01)))

    def test_forked_child_gets_its_own_worker(self, monkeypatch, small_grids, worker_ffts):
        u0, V = static_piece(2, 32)
        expected = duhamel_iterate(u0, None, V, (0.0, 0.16), 0.01)  # starts this worker
        assert worker_ffts
        run_in_fork(_wavefront_in_child, (u0, V, (0.0, 0.16), 0.01, expected,
                                          spectral._worker(os.getpid())))

    def test_large_grid_steps_serially_on_both_threads(self, monkeypatch, two_cpus):
        # at PARALLEL_MIN_POINTS a strang_step would queue half of every step
        # on the worker that is running the odd sweeps; a child on a timeout
        # keeps a deadlock from hanging the suite
        u0, V = static_piece(3, 64)
        assert u0.grid.npoints >= spectral.PARALLEL_MIN_POINTS
        piece = (0.0, 0.08)  # 9 nodes: the shortest wavefront piece
        expected = serially(monkeypatch, lambda: duhamel_iterate(u0, None, V, piece, 0.01))
        assert len(expected.trajectory.times) == 9
        run_in_fork(_wavefront_in_child, (u0, V, piece, 0.01, expected,
                                          spectral._worker(os.getpid())))

    @pytest.mark.parametrize("piece, stacks", [((0.8, 0.84), 3.0), ((0.8, 1.0), 2.25)])
    def test_peak_memory_two_stacks_and_grid_buffers(self, small_grids, worker_ffts, piece,
                                                     stacks):
        # 2D N=64: the shortest wavefront piece (9 nodes) stays within the
        # three stacks duhamel_iterate checks for, a piece of 41 nodes within
        # two stacks and its grid buffers; the worker is started beforehand,
        # since its first start imports concurrent.futures
        spectral._worker(os.getpid())
        u0, V = static_piece(2, 64, amplitude=1.0)
        tracemalloc.start()
        try:
            res = duhamel_iterate(u0, None, V, piece, dt=0.005)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stack = len(res.trajectory.times) * 64**2 * 16
        assert worker_ffts and len(res.trajectory.times) in (9, 41)
        assert peak <= stacks * stack, peak / stack

    def test_fftn_calls_on_the_caller_twice_per_row(self, monkeypatch, two_cpus):
        # bench/layers.py counts np.fft.fftn/ifftn in a single-threaded tracer
        u0, V = static_piece(3, 32)
        calls, threads = [0], set()
        for name in ("fftn", "ifftn"):
            def counted(*args, _fn=getattr(np.fft, name), **kwargs):
                calls[0] += 1
                threads.add(threading.get_ident())
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        m = 16
        res = duhamel_iterate(u0, None, V, (0.0, 0.16), 0.01)
        even_sweeps = (res.iterations + 1) // 2 + 1  # of S_0 .. S_{K+1}
        assert calls[0] == 2 * m * even_sweeps
        assert threads == {threading.get_ident()}
        calls[0] = 0
        serially(monkeypatch, lambda: duhamel_iterate(u0, None, V, (0.0, 0.16), 0.01))
        assert calls[0] == 2 * m * (res.iterations + 2)


class TestStoreBudget:
    """The default stride keeps the stored states within solver.STORE_BUDGET."""

    grid = make_grid(2, 10.0, 16)
    interval = (0.0, 1.0)  # 100 steps of dt = 0.01
    pairs = [("inf", 2), (4, 4)]

    @pytest.fixture
    def budget(self, monkeypatch):
        """A budget of ten 2D N = 16 states, in bytes."""
        monkeypatch.setattr(solver, "STORE_BUDGET", 10 * self.grid.npoints * 16)
        return solver.STORE_BUDGET

    def runs(self, store_every):
        u0 = gaussian_field(self.grid, sigma=1.0)
        V = StaticPotential(real_profile(self.grid, -0.5 * u0.values.real))
        ss = split_step_evolve(u0, V, interval=self.interval, dt=0.01, pairs=self.pairs,
                               store_every=store_every)
        glob = solve_global(u0, None, V, self.interval, 2, 2, tau=0.3, dt=0.01,
                            pairs=self.pairs, store_every=store_every)
        assert glob.pieces > 1
        return ss, glob

    def test_default_keeps_budget_and_last(self, budget):
        full = self.runs(1)
        for rep, every in zip(self.runs(None), full):
            states = rep.trajectory.states
            assert 2 < len(states) <= budget // (self.grid.npoints * 16) + 1
            assert rep.trajectory.times[-1] == self.interval[1]
            np.testing.assert_array_equal(states[-1].values, every.trajectory.states[-1].values)

    def test_explicit_stride_keeps_every_state(self, budget):
        for rep in self.runs(1):
            assert len(rep.trajectory.states) == 101

    def test_norm_logs_unchanged_by_thinning(self, budget):
        for thin, every in zip(self.runs(None), self.runs(1)):
            assert thin.energy_drift == every.energy_drift
            assert thin.strichartz_ratios == every.strichartz_ratios
            kept = np.isin(every.trajectory.times, thin.trajectory.times)
            np.testing.assert_array_equal(thin.trajectory.energy_log,
                                          every.trajectory.energy_log[kept])

    @pytest.mark.parametrize("n, N, m, kept", [
        (2, 128, 2000, 251),  # the count stride 8 keeps 62.75 MiB, within the budget
        (3, 64, 300, 17),  # 4 MiB states: the count stride 2 would keep 604 MiB
        (3, 32, 200, 101),  # 512 KiB states: the count stride 1 would keep 100.5 MiB
    ])
    def test_real_budget_stride(self, n, N, m, kept):
        # counted from the recorder alone: nothing is solved or stored
        grid = make_grid(n, 10.0, N)
        rec = solver._Recorder(grid, m, None, None)
        assert len(rec.kept) == kept
        assert rec.kept[-1] == m
        assert (len(rec.kept) - 1) * grid.npoints * 16 <= solver.STORE_BUDGET


class TestKeepStates:
    """keep_states=False copies only the final state; everything else in the
    report equals the default run's."""

    grid = make_grid(2, 10.0, 16)
    interval = (0.0, 2.6)  # 260 steps of dt = 0.01: the default stride 2 keeps 131
    pairs = [("inf", 2), (4, 4)]

    def runs(self, **kw):
        u0 = gaussian_field(self.grid, sigma=1.0)
        V = StaticPotential(real_profile(self.grid, -0.5 * u0.values.real))
        ss = split_step_evolve(u0, V, interval=self.interval, dt=0.01, pairs=self.pairs, **kw)
        glob = solve_global(u0, None, V, self.interval, 2, 2, tau=0.3, dt=0.01,
                            pairs=self.pairs, **kw)
        assert glob.pieces > 1
        return ss, glob

    def test_matches_default_run(self):
        for lean, full in zip(self.runs(keep_states=False), self.runs()):
            assert len(full.trajectory.states) == 131
            assert lean.energy_drift == full.energy_drift
            assert lean.strichartz_ratios == full.strichartz_ratios
            for rep in (lean, full):
                np.testing.assert_array_equal(rep.times, full.trajectory.times)
                np.testing.assert_array_equal(rep.energy_log, full.trajectory.energy_log)
            assert len(lean.trajectory.states) == 1
            assert lean.trajectory.times.tolist() == [self.interval[1]]
            assert lean.trajectory.energy_log.tolist() == [full.energy_log[-1]]
            np.testing.assert_array_equal(lean.trajectory.states[0].values,
                                          full.trajectory.states[-1].values)
            assert lean.to_json_dict() == full.to_json_dict()

    def test_memory_check_counts_one_state(self, monkeypatch):
        # memory for three states: every state of a store_every=1 run does not fit
        monkeypatch.setattr(solver, "PHYSICAL_MEMORY", 3 * self.grid.npoints * 16)
        u0 = gaussian_field(self.grid, sigma=1.0)
        with pytest.raises(PreconditionError, match="GiB"):
            split_step_evolve(u0, ZeroPotential(), interval=self.interval, dt=0.01,
                              store_every=1)
        rep = split_step_evolve(u0, ZeroPotential(), interval=self.interval, dt=0.01,
                                store_every=1, keep_states=False)
        assert len(rep.times) == 261
        assert len(rep.trajectory.states) == 1


class TestCalibrateTau:
    def test_zero_reference_returns_cap(self, standing1d):
        grid, _, _ = standing1d
        tau = calibrate_tau([ZeroPotential()], grid, dt=0.02, cap=8.0)
        assert tau == 8.0

    def test_deterministic(self, standing1d):
        grid, W, _ = standing1d
        refs = [StaticPotential(W)]
        a = calibrate_tau(refs, grid, dt=0.02, rounds=8)
        b = calibrate_tau(refs, grid, dt=0.02, rounds=8)
        assert a == b
        assert 0 < a < 8.0

    def test_calibrated_tau_contracts(self, standing1d):
        grid, W, u0 = standing1d
        tau = calibrate_tau([StaticPotential(W)], grid, dt=0.01, rounds=8)
        rep = solve_global(u0, None, StaticPotential(W), (0.0, 1.0), 2, 2, tau=tau,
                           dt=0.01, pairs=[])
        for fs in rep.contraction_factors:
            if fs:
                assert max(fs) <= 0.6

    def test_empty_reference_error(self, standing1d):
        grid, _, _ = standing1d
        with pytest.raises(PreconditionError):
            calibrate_tau([], grid, dt=0.02)

    @pytest.mark.parametrize("case", ["zero dt", "reversed interval", "probe grid"])
    def test_caller_mistakes_raise_precondition_error(self, standing1d, case):
        grid, W, _ = standing1d
        kwargs = {"dt": 0.02}
        if case == "zero dt":
            kwargs["dt"] = 0.0
        elif case == "reversed interval":
            kwargs["interval"] = (1.0, 0.0)
        else:
            kwargs["probe_state"] = gaussian_field(make_grid(1, 12.0, 32), sigma=1.0)
        with pytest.raises(PreconditionError):
            calibrate_tau([StaticPotential(W)], grid, **kwargs)

    def test_impossible_reference_error(self, standing1d):
        grid, W, _ = standing1d
        V = StaticPotential(real_profile(grid, 500.0 * W.values.real))
        with pytest.raises(CalibrationError):
            calibrate_tau([V], grid, dt=0.05, cap=0.5, rounds=4, maxit=6)
