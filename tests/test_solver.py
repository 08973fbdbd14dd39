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
from strz import solver
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
    trajectory_mixed_norm,
)
from strz.solver import (
    DEFAULT_Q_FALLBACK,
    PotentialSampler,
    calibrate_tau,
    duhamel_iterate,
    endpoint_q,
    frozen_duhamel,
    solve_global,
    split_step_evolve,
    z_norm,
)
from strz.spectral import (
    ComplexField,
    free_propagate,
    gaussian_field,
    lq_norm,
    make_grid,
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


def linf_l2_gap(traj_a, traj_b, scale):
    vol = traj_a.grid.cell_volume
    diffs = [
        np.sqrt(np.sum(np.abs(a.values - b.values) ** 2) * vol)
        for a, b in zip(traj_a.states, traj_b.states)
    ]
    return max(diffs) / scale


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
        err = {"max": 0.0}

        def probe(t, vals):
            exact = np.exp(-1j * t) * u0.values
            d = np.sqrt(np.sum(np.abs(vals - exact) ** 2) * grid.cell_volume)
            err["max"] = max(err["max"], d / lq_norm(u0, 2))

        rep = split_step_evolve(u0, StaticPotential(W), interval=(0.0, 2.0), dt=1e-3,
                                step_probe=probe)
        assert err["max"] < 1e-4
        assert rep.energy_drift < 1e-10

    def test_second_order_self_convergence(self, standing1d):
        grid, W, u0 = standing1d

        def phase_err(dt):
            e = {"max": 0.0}

            def probe(t, vals):
                exact = np.exp(-1j * t) * u0.values
                d = np.sqrt(np.sum(np.abs(vals - exact) ** 2) * grid.cell_volume)
                e["max"] = max(e["max"], d / lq_norm(u0, 2))

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

        err = {"max": 0.0}

        def probe(t, vals):
            exact = np.exp(-1j * t) * u0.values
            d = np.sqrt(np.sum(np.abs(vals - exact) ** 2) * grid.cell_volume)
            err["max"] = max(err["max"], d / lq_norm(u0, 2))

        split_step_evolve(u0, StaticPotential(Wc), F=F, interval=(0.0, 1.0), dt=1e-3,
                          step_probe=probe)
        assert err["max"] < 1e-4

    def test_ratio_tracking_inf2_is_one(self, standing2d):
        grid, W, u0 = standing2d
        rep = split_step_evolve(u0, StaticPotential(W), interval=(0.0, 1.0), dt=1e-3,
                                pairs=[("inf", 2)])
        key = (Exponent("inf"), Exponent(2))
        assert rep.strichartz_ratios[key] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("p, q", [(4, 4), (3, 6)])
    def test_ratios_match_trajectory_mixed_norm(self, standing2d, p, q):
        # the per-step norm series and the stored-trajectory quadrature agree
        # when every step is stored; a Gaussian start makes |u| vary in time
        grid, W, _ = standing2d
        u0 = gaussian_field(grid, sigma=1.0)
        rep = split_step_evolve(u0, StaticPotential(W), interval=(0.0, 0.5), dt=1e-2,
                                store_every=1, pairs=[(p, q)])
        got = rep.strichartz_ratios[(Exponent(p), Exponent(q))] * lq_norm(u0, 2)
        assert got == pytest.approx(trajectory_mixed_norm(rep.trajectory, p, q), rel=1e-12)

    def test_inadmissible_pair_rejected(self, standing1d):
        grid, W, u0 = standing1d
        with pytest.raises(PreconditionError):
            split_step_evolve(u0, StaticPotential(W), interval=(0.0, 0.1), dt=1e-2,
                              pairs=[(4, 4)])  # no admissible pairs for n = 1

    def test_singularity_propagates_from_potential(self, standing1d):
        from strz.errors import SingularityError
        from strz.potentials import PseudoconformalPotential

        grid, W, u0 = standing1d
        V = PseudoconformalPotential(W)
        with pytest.raises(SingularityError):
            # first midpoint sits at negative time
            split_step_evolve(u0, V, interval=(-0.5, 0.5), dt=1e-2)


class TestZNorm:
    def test_endpoint_exponents(self):
        assert endpoint_q(3) == Exponent(6)
        assert endpoint_q(4) == Exponent(4)
        assert endpoint_q(2) == Exponent(8)
        assert endpoint_q(2, q_fallback=12) == Exponent(12)

    def test_zero_only_for_zero(self, standing1d):
        grid, _, u0 = standing1d
        rep = split_step_evolve(u0, ZeroPotential(), interval=(0.0, 0.5), dt=1e-2,
                                store_every=1)
        zn = z_norm(rep.trajectory)
        assert zn.value > 0
        assert zn.l_inf_l2 <= zn.value

    def test_max_of_mixed_norms_and_stacked_form(self, standing2d):
        grid, W, _ = standing2d
        rep = split_step_evolve(gaussian_field(grid, sigma=1.0), StaticPotential(W),
                                interval=(0.0, 0.5), dt=1e-2, store_every=1)
        traj = rep.trajectory
        zn = z_norm(traj)
        assert zn.value == max(trajectory_mixed_norm(traj, "inf", 2),
                               trajectory_mixed_norm(traj, 2, endpoint_q(2)))
        # the Duhamel iteration takes the same norm on its stacked piece array
        stack = np.stack([s.values for s in traj.states])
        stacked = solver._stack_z_norm(traj.times, stack, grid, DEFAULT_Q_FALLBACK)
        assert stacked == pytest.approx(zn.value, rel=1e-12)


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
            np.testing.assert_array_equal(sampler.values_at(t),
                                          real(V, t, grid).values.real)
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


class TestDuhamel:
    def test_zero_potential_one_iteration(self, standing1d):
        grid, _, u0 = standing1d
        res = duhamel_iterate(u0, None, ZeroPotential(), (0.0, 0.5), dt=0.01)
        assert res.iterations == 1
        assert res.first_increment == 0.0
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


class TestDuhamelOrder:
    """The trapezoid Duhamel discretization is second order in dt: against
    the standing wave exp(-it) u0, halving dt quarters the L^inf_t L^2 error."""

    @staticmethod
    def error(traj, u0):
        vol = u0.grid.cell_volume
        return max(np.sqrt(np.sum(np.abs(s.values - np.exp(-1j * t) * u0.values) ** 2) * vol)
                   for t, s in zip(traj.times, traj.states)) / lq_norm(u0, 2)

    @pytest.mark.parametrize("dim", ["standing1d", "standing2d", "standing3d"])
    @pytest.mark.parametrize("route", ["duhamel", "frozen", "global"])
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
                run = duhamel_iterate if route == "duhamel" else frozen_duhamel
                traj = run(u0, None, V, (0.0, 0.25), dt, tol=1e-12).trajectory
            errors.append(self.error(traj, u0))
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert orders.min() >= 1.9, orders


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


class TestFrozenDuhamel:
    def test_static_one_iteration(self, standing1d):
        grid, W, u0 = standing1d
        res = frozen_duhamel(u0, None, StaticPotential(W), (0.0, 0.5), dt=0.01)
        assert res.iterations == 1
        assert res.first_increment == 0.0

    def test_slow_variation_contracts_faster_on_short_pieces(self, standing1d):
        # slowly varying potential emulated by four windows whose rescale
        # factors drift with time: the frozen perturbation W(t) = V(t) - V(0)
        # shrinks with the piece length, and so do the contraction factors
        grid, W, u0 = standing1d
        from strz.exponents import ScheduleKind, ScheduleParams
        from strz.potentials import PatchedRescaledPotential, Schedule, Window
        from fractions import Fraction as F

        params = ScheduleParams(alpha=F(3, 2), beta=F(2), kind=ScheduleKind.LOCAL)

        def ramp_potential(piece_len):
            windows = tuple(
                Window(k=i + 1, start=i * piece_len / 4, length=piece_len / 4,
                       eps=1.0 + 0.02 * i)
                for i in range(4)
            )
            sched = Schedule(kind=ScheduleKind.LOCAL, params=params, n=1,
                             windows=windows, total_time=piece_len)
            return PatchedRescaledPotential(W, sched)

        factors = []
        for piece_len in (2.0, 1.0, 0.5):
            V = ramp_potential(piece_len)
            res = frozen_duhamel(u0, None, V, (0.0, piece_len), dt=piece_len / 200,
                                 maxit=60)
            factors.append(max(res.factors) if res.factors else 0.0)
        # shorter pieces -> smaller frozen perturbation -> smaller factors
        assert factors[2] < factors[1] < factors[0]

    def test_agrees_with_split_step(self, standing1d):
        grid, W, u0 = standing1d
        scaled = StaticPotential(real_profile(grid, 0.5 * W.values.real))
        res = frozen_duhamel(u0, None, scaled, (0.0, 0.5), dt=0.005)
        rep = split_step_evolve(u0, scaled, interval=(0.0, 0.5), dt=0.005,
                                store_every=1)
        assert linf_l2_gap(res.trajectory, rep.trajectory, lq_norm(u0, 2)) < 1e-3


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

    def test_inadmissible_pair_rejected_before_any_piece(self, standing1d, monkeypatch):
        grid, W, u0 = standing1d
        calls = []
        real = solver.duhamel_iterate

        def counting(*args, **kwargs):
            calls.append(args[3])
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "duhamel_iterate", counting)
        with pytest.raises(PreconditionError):
            solve_global(u0, None, StaticPotential(W), (0.0, 1.0), 2, 2, tau=1.0, dt=0.01,
                         pairs=[(4, 4)])  # no admissible pairs for n = 1
        assert calls == []

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
