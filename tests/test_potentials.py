import math
import random
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from strz.errors import (
    CannotPartitionError,
    PreconditionError,
    SingularityError,
    UnsplittableSliceError,
)
from strz.exponents import (
    Exponent,
    ScheduleKind,
    ScheduleParams,
    global_subcritical_params,
    local_params,
    scaling_exponent,
)
from strz import potentials
from strz.potentials import (
    PatchedRescaledPotential,
    PseudoconformalPotential,
    Schedule,
    StaticPotential,
    SumPotential,
    Window,
    ZeroPotential,
    analytic_patched_norm,
    analytic_pseudoconformal_norm,
    evaluate,
    make_schedule,
    mixed_norm,
    partition_interval,
    real_profile,
    schedule_rows,
    time_lattice,
    trajectory_mixed_norm,
)
from strz.solver import PotentialSampler
from strz.spectral import (
    ComplexField,
    Trajectory,
    gaussian_field,
    lq_norm,
    make_grid,
    rescale_field,
)

F = Fraction


@pytest.fixture(scope="module")
def grid1d():
    return make_grid(1, 16.0, 256)


@pytest.fixture(scope="module")
def bump(grid1d):
    return real_profile(grid1d, gaussian_field(grid1d, sigma=1.0).values)


def step_schedule(windows, n=1):
    """Hand-made window list wrapped in a Schedule container (tests only)."""
    params = ScheduleParams(alpha=F(3, 2), beta=F(2), kind=ScheduleKind.LOCAL)
    return Schedule(kind=ScheduleKind.LOCAL, params=params, n=n,
                    windows=tuple(Window(k=i + 1, start=s, length=ln, eps=e)
                                  for i, (s, ln, e) in enumerate(windows)),
                    total_time=max(s + ln for s, ln, e in windows))


class TestSchedules:
    def test_subcritical_windows(self):
        params = global_subcritical_params(4, 6, 3)
        sched = make_schedule(ScheduleKind.GLOBAL_SUBCRITICAL, params, 4, 6, 3, K=6)
        a, b = float(params.alpha), float(params.beta)
        assert sched.windows[0].start == 0.0
        for w in sched.windows:
            assert w.length == pytest.approx(w.k**a)
            assert w.eps == pytest.approx(w.k ** (-b / 2))
        starts = [w.start for w in sched.windows]
        assert starts == sorted(starts)

    def test_supercritical_windows(self):
        params = local_params(1, 2, 3, kind=ScheduleKind.GLOBAL_SUPERCRITICAL)
        sched = make_schedule(ScheduleKind.GLOBAL_SUPERCRITICAL, params, 1, 2, 3, K=5)
        for w in sched.windows:
            assert w.start == w.k
            assert w.length == pytest.approx(float(w.k) ** (-float(params.alpha)))
            assert w.eps == pytest.approx(float(w.k) ** (float(params.beta) / 2))

    def test_local_windows_tile_and_converge(self):
        params = local_params(1, 2, 3)
        sched = make_schedule(ScheduleKind.LOCAL, params, 1, 2, 3, K=50)
        # contiguous tiling: next start = previous start + previous length
        for prev, cur in zip(sched.windows, sched.windows[1:]):
            assert cur.start == pytest.approx(prev.start + prev.length)
        # all windows inside [0, total_time]; the tail bound dominates zeta
        last = sched.windows[-1]
        assert last.start + last.length <= sched.total_time
        alpha = float(params.alpha)
        true_total = sum(k ** (-alpha) for k in range(1, 200000))
        assert sched.total_time >= true_total - 1e-6

    def test_window_lookup(self):
        params = global_subcritical_params(4, 6, 3)
        sched = make_schedule(ScheduleKind.GLOBAL_SUBCRITICAL, params, 4, 6, 3, K=3)
        assert sched.window_at(0.0).k == 1
        assert sched.window_at(0.999).k == 1
        assert sched.window_at(1.0).k == 2
        end = sched.windows[-1].start + sched.windows[-1].length
        assert sched.window_at(end) is None

    def test_param_mismatch_rejected(self):
        params = global_subcritical_params(4, 6, 3)
        with pytest.raises(PreconditionError):
            make_schedule(ScheduleKind.LOCAL, params, 4, 6, 3, K=3)


class TestEvaluate:
    def test_zero(self, grid1d):
        f = evaluate(ZeroPotential(), 3.7, grid1d)
        assert f.dtype == np.float64
        assert np.all(f == 0)

    def test_static(self, grid1d, bump):
        # the stored profile itself: a read-only view of its real part, no copy
        V = StaticPotential(bump)
        got = evaluate(V, 0.5, grid1d)
        assert got.base is bump.values
        assert not got.flags.writeable
        np.testing.assert_array_equal(got, bump.values.real)

    def test_patched_inside_unit_window(self, grid1d, bump):
        sched = step_schedule([(0.0, 1.0, 1.0), (2.0, 1.0, 0.5)])
        V = PatchedRescaledPotential(bump, sched)
        inside = evaluate(V, 0.5, grid1d)
        np.testing.assert_allclose(inside, bump.values, atol=1e-13)

    def test_patched_outside_zero(self, grid1d, bump):
        sched = step_schedule([(0.0, 1.0, 1.0), (2.0, 1.0, 0.5)])
        V = PatchedRescaledPotential(bump, sched)
        assert np.all(evaluate(V, 1.5, grid1d) == 0)

    def test_patched_scaling(self, grid1d, bump):
        sched = step_schedule([(0.0, 1.0, 0.5)])
        V = PatchedRescaledPotential(bump, sched)
        got = evaluate(V, 0.5, grid1d)
        x = grid1d.axis()
        np.testing.assert_allclose(got, 0.25 * np.exp(-((0.5 * x) ** 2) / 2),
                                   atol=1e-10)

    def test_pseudoconformal_identity_at_one(self, grid1d, bump):
        V = PseudoconformalPotential(bump)
        got = evaluate(V, 1.0, grid1d)
        np.testing.assert_allclose(got, bump.values, atol=1e-13)

    def test_pseudoconformal_at_one_leaves_profile_unchanged(self, grid1d, bump):
        # V(1) = W is the profile's own read-only view, so scaling by 1 / T^2
        # never writes it
        V = PseudoconformalPotential(bump)
        before = bump.values.copy()
        got = V.field_at(1.0, grid1d)
        assert np.shares_memory(got, bump.values)
        assert not got.flags.writeable
        for t in (0.5, 1.0, 2.0):
            V.field_at(t, grid1d)
        np.testing.assert_array_equal(bump.values, before)

    def test_pseudoconformal_singularity(self, grid1d, bump):
        V = PseudoconformalPotential(bump)
        with pytest.raises(SingularityError):
            evaluate(V, 0.0, grid1d)
        with pytest.raises(SingularityError):
            evaluate(V, -0.5, grid1d)

    def test_sum_pointwise(self, grid1d, bump):
        V = SumPotential(
            terms=(
                (StaticPotential(bump), Exponent(2), Exponent(2)),
                (StaticPotential(bump), Exponent(4), Exponent(2)),
            )
        )
        got = evaluate(V, 0.0, grid1d)
        np.testing.assert_allclose(got, 2 * bump.values, atol=1e-13)

    def test_sum_sample_is_sum_of_term_samples(self, grid1d, bump):
        sched = step_schedule([(0.0, 1.0, 0.5)])
        terms = (StaticPotential(bump), PatchedRescaledPotential(bump, sched),
                 PseudoconformalPotential(bump), ZeroPotential())
        V = SumPotential(terms=tuple((term, Exponent(2), Exponent(2)) for term in terms))
        got = evaluate(V, 0.5, grid1d)
        want = np.zeros(grid1d.shape)
        for term in terms:
            want = want + evaluate(term, 0.5, grid1d)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)
        assert got.flags.writeable  # the sum's own array, not a term's view

    def test_real_enforced(self, grid1d):
        vals = gaussian_field(grid1d).values * 1j
        with pytest.raises(PreconditionError):
            StaticPotential(ComplexField(grid1d, vals))

    def test_grid_mismatch(self, bump):
        other = make_grid(1, 16.0, 128)
        with pytest.raises(PreconditionError):
            evaluate(StaticPotential(bump), 0.0, other)

    def test_sum_terms_on_two_grids_refused(self, bump):
        # such a sum could never be sampled or normed
        g = make_grid(1, 16.0, 128)
        other = real_profile(g, np.zeros(g.shape))
        with pytest.raises(PreconditionError, match="different grids"):
            SumPotential(terms=((StaticPotential(bump), Exponent(2), Exponent(2)),
                                (ZeroPotential(), Exponent(2), Exponent(2)),
                                (StaticPotential(other), Exponent(2), Exponent(2))))

    def test_evaluate_refuses_a_sum_on_another_grid(self, bump):
        V = SumPotential(terms=((ZeroPotential(), Exponent(2), Exponent(2)),
                                (StaticPotential(bump), Exponent(2), Exponent(2))))
        assert V.grid == bump.grid
        with pytest.raises(PreconditionError, match="sum potential defined on a different grid"):
            evaluate(V, 0.0, make_grid(1, 16.0, 128))

    def test_mixed_norm_pseudoconformal_singular_interval(self, bump):
        V = PseudoconformalPotential(bump)
        with pytest.raises(SingularityError):
            mixed_norm(V, 1, 2, (0.0, 1.0), dt=0.01)


class TestMixedNorm:
    def test_constant_separable(self):
        # |c| (2L)^(1/s) T^(1/r) for a constant on a 1d box
        g = make_grid(1, 4.0, 64)
        c = 3.0
        V = StaticPotential(real_profile(g, np.full(g.shape, c)))
        T = 2.0
        for r, s in [(2, 2), (4, 3), (1, 2)]:
            expected = c * (2 * g.L) ** (1 / s) * T ** (1 / r)
            got = mixed_norm(V, r, s, (0.0, T), dt=0.01)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_r_inf_is_sup_over_samples(self, grid1d, bump):
        V = StaticPotential(bump)
        got = mixed_norm(V, "inf", 2, (0.0, 1.0), dt=0.1)
        assert got == pytest.approx(lq_norm(bump, 2), rel=1e-12)

    def test_r_inf_ramp_takes_max_time_slice(self, grid1d, bump):
        # amplitude ramps up window by window; the L^inf_t norm is the
        # spatial norm of the last (largest) slice
        sched = step_schedule([(0.0, 1.0, 0.5), (1.0, 1.0, 0.75), (2.0, 1.0, 1.0)])
        V = PatchedRescaledPotential(bump, sched)
        got = mixed_norm(V, "inf", 2, (0.0, 3.0), dt=0.05)
        # n=1, s=2: the window factor is eps^(2 - 1/2); largest at eps = 1
        assert got == pytest.approx(lq_norm(bump, 2), rel=1e-12)

    def test_patched_numeric_vs_analytic(self, grid1d, bump):
        # reuse the n=3 params with a 1d profile grid: the schedule n only
        # scales the eps powers, and the quadrature comparison is 1d-cheap
        params = global_subcritical_params(4, 6, 3)
        sched = make_schedule(ScheduleKind.GLOBAL_SUBCRITICAL, params, 4, 6, 3, K=4)
        sched = Schedule(kind=sched.kind, params=sched.params, n=1,
                         windows=sched.windows, total_time=sched.total_time)
        V = PatchedRescaledPotential(bump, sched)
        r, s = Exponent(4), Exponent(6)
        end = sched.windows[-1].start + sched.windows[-1].length
        bound = analytic_patched_norm(sched, r, s, lq_norm(bump, 6))
        exact = float((np.sum(bound.summands ** float(r))) ** (1 / float(r)))
        got = mixed_norm(V, r, s, (0.0, end), dt=2e-3)
        assert got == pytest.approx(exact, rel=1e-3)

    def test_trajectory_norm_constant(self):
        g = make_grid(1, 4.0, 64)
        f = real_profile(g, np.full(g.shape, 2.0))
        times = np.linspace(0.0, 3.0, 31)
        traj = Trajectory(times=times, states=[f] * 31, energy_log=np.ones(31))
        expected = lq_norm(f, 3) * 3.0 ** (1 / 2)
        assert trajectory_mixed_norm(traj, 2, 3) == pytest.approx(expected, rel=1e-12)


class TestScalingLaw:
    def test_static_rescaling_exact(self):
        # Exact change of variables: representing eps^2 V(eps x) on the grid
        # with half-width L/eps makes the mixed-norm ratio exactly eps^sigma.
        rng = random.Random(7)
        g = make_grid(2, 8.0, 32)
        base = real_profile(g, gaussian_field(g, sigma=1.2).values)
        T = 1.0
        for _ in range(10):
            n = 2
            r = Exponent(F(rng.randint(1, 12), rng.randint(1, 4)) + 1)
            s = Exponent(F(rng.randint(1, 12), rng.randint(1, 4)) + 1)
            sigma = scaling_exponent(r, s, n)
            for eps in (0.5, 2.0):
                g_scaled = make_grid(n, g.L / eps, g.N)
                scaled = real_profile(g_scaled, eps**2 * base.values)
                ref = mixed_norm(StaticPotential(base), r, s, (0.0, T), dt=0.05)
                got = mixed_norm(StaticPotential(scaled), r, s, (0.0, T / eps**2),
                                 dt=0.05 / eps**2)
                assert got == pytest.approx(eps ** float(sigma) * ref, rel=1e-9)

    def test_critical_factor_is_one(self):
        g = make_grid(2, 8.0, 32)
        base = real_profile(g, gaussian_field(g, sigma=1.2).values)
        r, s = Exponent(2), Exponent(2)  # critical for n = 2
        assert scaling_exponent(r, s, 2) == 0
        ref = mixed_norm(StaticPotential(base), r, s, (0.0, 1.0), dt=0.05)
        for eps in (0.5, 2.0):
            g_scaled = make_grid(2, g.L / eps, g.N)
            scaled = real_profile(g_scaled, eps**2 * base.values)
            got = mixed_norm(StaticPotential(scaled), r, s, (0.0, 1.0 / eps**2),
                             dt=0.05 / eps**2)
            assert got == pytest.approx(ref, rel=1e-9)


class TestAnalyticPatched:
    def test_single_window_trivial(self, bump):
        sched = step_schedule([(0.0, 1.0, 1.0)])
        w2 = lq_norm(bump, 2)
        bound = analytic_patched_norm(sched, 2, 2, w2)
        assert bound.summands[0] == pytest.approx(w2)
        assert bound.partial_sums[-1] == pytest.approx(w2)

    def test_subcritical_exponent_bookkeeping(self):
        params = global_subcritical_params(4, 6, 3)
        sched = make_schedule(ScheduleKind.GLOBAL_SUBCRITICAL, params, 4, 6, 3, K=40)
        bound = analytic_patched_norm(sched, 4, 6, 1.0)
        a, b = params.alpha, params.beta
        assert bound.exponent == a / 4 - b * (1 - F(1, 4))
        assert bound.converges
        # summands are exact powers of k
        ks = np.arange(1, 41, dtype=float)
        np.testing.assert_allclose(bound.summands, ks ** float(bound.exponent), rtol=1e-12)
        # the tail bound really bounds the tail (integral test, checked coarsely)
        true_tail = sum(k ** float(bound.exponent) for k in range(41, 200000))
        assert bound.tail_bound >= true_tail

    def test_supercritical_convergent(self):
        params = local_params(1, 2, 3, kind=ScheduleKind.GLOBAL_SUPERCRITICAL)
        sched = make_schedule(ScheduleKind.GLOBAL_SUPERCRITICAL, params, 1, 2, 3, K=30)
        bound = analytic_patched_norm(sched, 1, 2, 2.5)
        assert bound.converges
        assert bound.exponent == -params.alpha + params.beta * (1 - F(3, 4))
        assert bound.total is not None and bound.total > bound.partial_sums[-1]

    def test_divergent_flagged(self):
        # query the norm in a space the schedule was not built for: small s
        # flips the eps power positive and the series diverges
        sub = global_subcritical_params(4, 6, 3)
        sched = make_schedule(ScheduleKind.GLOBAL_SUBCRITICAL, sub, 4, 6, 3, K=10)
        bound = analytic_patched_norm(sched, 4, 1, 1.0)
        assert bound.exponent > -1
        assert not bound.converges
        assert bound.total is None
        assert math.isinf(bound.tail_bound)

    def test_monotone_partial_sums(self):
        params = global_subcritical_params(4, 6, 3)
        sched = make_schedule(ScheduleKind.GLOBAL_SUBCRITICAL, params, 4, 6, 3, K=25)
        bound = analytic_patched_norm(sched, 4, 6, 3.0)
        diffs = np.diff(bound.partial_sums)
        assert np.all(diffs > 0)
        assert np.all(bound.partial_sums <= bound.total + 1e-12)

    def test_r_inf_max_over_windows(self, bump):
        sched = step_schedule([(0.0, 1.0, 1.0), (2.0, 1.0, 0.5)])
        w2 = lq_norm(bump, 2)
        bound = analytic_patched_norm(sched, "inf", 2, w2)
        # eps^(2 - n/s) with n=1, s=2: exponent 3/2; max over {1, 0.5}
        assert bound.total == pytest.approx(w2 * 1.0)

    def test_csv_rows(self, bump):
        params = global_subcritical_params(4, 6, 3)
        sched = make_schedule(ScheduleKind.GLOBAL_SUBCRITICAL, params, 4, 6, 3, K=5)
        rows = schedule_rows(sched, 4, 6, 1.0)
        assert len(rows) == 5
        ks, starts, lengths, eps, norms = zip(*rows)
        assert ks == (1, 2, 3, 4, 5)
        assert all(nr > 0 for nr in norms)


class TestAnalyticPseudoconformal:
    def test_closed_form_sqrt(self):
        # r=1, s=2, n=3: integral of T^(-1/2) from 0 to 1 equals 2
        val = analytic_pseudoconformal_norm(1, 2, 3, delta=1e-12, W_snorm=1.5)
        assert val == pytest.approx(2.0 * 1.5, rel=1e-5)

    def test_delta_one_empty(self):
        assert analytic_pseudoconformal_norm(1, 2, 3, delta=1.0, W_snorm=2.0) == 0.0

    def test_log_branch(self):
        # r(n/s - 2) = -1 at r=1, s = n/(2 - 1/r)= ... choose n=3, s=2? that
        # gives -1/2; the edge needs n/s = 2 - 1/r: r=2, n=3 -> n/s = 3/2 -> s=2
        val = analytic_pseudoconformal_norm(2, 2, 3, delta=0.25, W_snorm=1.0)
        assert val == pytest.approx(math.sqrt(math.log(4.0)))

    def test_numeric_quadrature_agrees(self, grid1d):
        # time-trapezoid of the exact spatial factors vs the antiderivative
        g = make_grid(2, 8.0, 32)
        W = real_profile(g, gaussian_field(g, sigma=1.0).values)
        V = PseudoconformalPotential(W)
        r, s, delta = Exponent(1), Exponent(F(3, 2)), 0.25
        closed = analytic_pseudoconformal_norm(r, s, 2, delta, lq_norm(W, s))
        got = mixed_norm(V, r, s, (delta, 1.0), dt=2e-5)
        assert got == pytest.approx(closed, rel=1e-6)

    def test_range_validation(self):
        with pytest.raises(PreconditionError):
            analytic_pseudoconformal_norm(1, 3, 3, delta=0.5, W_snorm=1.0)  # s = n
        with pytest.raises(PreconditionError):
            analytic_pseudoconformal_norm(1, 2, 3, delta=0.0, W_snorm=1.0)
        with pytest.raises(PreconditionError):
            analytic_pseudoconformal_norm("inf", 2, 3, delta=0.5, W_snorm=1.0)


class TestPseudoconformalSample:
    @pytest.mark.parametrize("n, L, N", [(1, 16.0, 128), (2, 12.0, 64), (3, 10.0, 32)])
    def test_matches_complex_division(self, n, L, N):
        # the real product by 1 / t^2 equals dividing the complex rescale by t^2
        g = make_grid(n, L, N)
        W = real_profile(g, -1.5 * gaussian_field(g, sigma=1.0).values.real)
        V = PseudoconformalPotential(W)
        for t in (0.3, 0.5, 0.77, 1.0, 1.25):
            np.testing.assert_array_equal(V.field_at(t, g),
                                          rescale_field(W.values, g, 1.0 / t) / t**2)

    @pytest.mark.parametrize("t", [1e-160, 1e-170, 1e-320])
    def test_tiny_t_is_singular(self, t, monkeypatch):
        # 1 / T^2 is not a finite float: refused before any grid work
        g = make_grid(2, 12.0, 64)
        V = PseudoconformalPotential(real_profile(g, gaussian_field(g).values))

        def no_grid_work(*args, **kwargs):
            raise AssertionError("rescaled a profile at a singular T")

        monkeypatch.setattr(potentials, "rescale_field", no_grid_work)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularityError, match="overflows"):
                V.field_at(t, g)

    def test_tiny_t_norm_is_singular(self):
        # T^(n/s - 2) = T^(-3/2) overflows at T = 1e-320
        g = make_grid(2, 12.0, 64)
        V = PseudoconformalPotential(real_profile(g, gaussian_field(g).values))
        norm = V.norm_function(Exponent(4))
        assert math.isfinite(norm(1e-200))
        with pytest.raises(SingularityError, match="overflows"):
            norm(1e-320)

    def test_peak_memory_of_one_phase(self):
        # one half-phase of a moving V on a 2D N = 128 grid: a complex divide
        # of the rescaled field plus its copy would peak at 3.13 fields
        g = make_grid(2, 20.0, 128)
        W = real_profile(g, -2.0 * gaussian_field(g, sigma=1.5).values.real)
        sampler = PotentialSampler(PseudoconformalPotential(W), g)
        sampler.phase_at(0.7, 2.5e-4)  # build the per-grid caches first
        tracemalloc.start()
        try:
            phase = sampler.phase_at(0.8, 2.5e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert phase.shape == g.shape
        assert peak <= 2.85 * g.npoints * 16, peak / (g.npoints * 16)


class TestTimeLattice:
    @pytest.mark.parametrize("interval", [(0.0, math.inf), (-math.inf, 1.0)])
    def test_nonfinite_ends(self, interval):
        with pytest.raises(PreconditionError, match="finite"):
            time_lattice(interval, 0.01)
        with pytest.raises(PreconditionError, match="finite"):
            mixed_norm(ZeroPotential(), 2, 2, interval, dt=0.01)


def brute_force_min_pieces(powers, budget):
    """DP oracle: minimal number of contiguous groups with group sums <= budget."""
    m = len(powers)
    INFTY = 10**9
    dp = [0] + [INFTY] * m
    for i in range(1, m + 1):
        total = 0.0
        for j in range(i - 1, -1, -1):
            total += powers[j]
            if total > budget * (1 + 1e-12):
                break
            if dp[j] + 1 < dp[i]:
                dp[i] = dp[j] + 1
    return dp[m]


class TestPartition:
    def test_zero_single_piece(self):
        part = partition_interval(ZeroPotential(), 2, 2, (0.0, 5.0), tau=0.1, dt=0.1)
        assert part.pieces == [(0.0, 5.0)]

    def test_grid_free_sum_has_norm_zero(self):
        # a sum of zero potentials has no grid to norm on, and needs none
        V = SumPotential(((ZeroPotential(), Exponent(2), Exponent(2)),
                          (ZeroPotential(), Exponent(4), Exponent(3))))
        assert mixed_norm(V, 2, 2, (0.0, 1.0), dt=0.1) == 0.0
        part = partition_interval(V, 2, 2, (0.0, 5.0), tau=0.1, dt=0.1)
        assert part.pieces == [(0.0, 5.0)]
        assert part.piece_norms == [0.0]

    def test_constant_piece_count(self):
        # tau_len = (tau / (|c| (2L)^(n/s)))^r slices of the interval
        g = make_grid(1, 2.0, 64)
        c = 1.5
        V = StaticPotential(real_profile(g, np.full(g.shape, c)))
        r, s = 2, 2
        tau = 0.6
        tau_len = (tau / (c * (2 * g.L) ** (1 / s))) ** r
        T = 2.0
        dt = 0.005  # tau_len = 0.04 is a whole number of slices
        per = int(tau_len / dt + 1e-9)
        expected = math.ceil(round(T / dt) / per)
        assert expected == math.ceil(T / tau_len - 1e-9)  # closed form, roundoff-guarded
        part = partition_interval(V, r, s, (0.0, T), tau=tau, dt=dt)
        assert len(part) == expected
        for nrm in part.piece_norms:
            assert nrm <= tau * (1 + 1e-9)

    def test_tau_zero_error(self, grid1d, bump):
        with pytest.raises(PreconditionError):
            partition_interval(StaticPotential(bump), 2, 2, (0.0, 1.0), tau=0.0, dt=0.1)

    @pytest.mark.parametrize("tau", [math.inf, math.nan])
    def test_tau_not_finite_error(self, grid1d, bump, tau):
        # tau = inf would make one piece and a summary "tau": Infinity, not JSON
        with pytest.raises(PreconditionError, match="positive and finite"):
            partition_interval(StaticPotential(bump), 2, 2, (0.0, 1.0), tau=tau, dt=0.1)

    def test_unsplittable_slice(self, grid1d, bump):
        with pytest.raises(UnsplittableSliceError):
            partition_interval(StaticPotential(bump), 2, 2, (0.0, 1.0), tau=1e-6, dt=0.25)

    def test_r_inf_paths(self, grid1d, bump):
        big = lq_norm(bump, 2)
        part = partition_interval(StaticPotential(bump), "inf", 2, (0.0, 1.0),
                                  tau=big * 1.01, dt=0.1)
        assert part.pieces == [(0.0, 1.0)]
        with pytest.raises(CannotPartitionError):
            partition_interval(StaticPotential(bump), "inf", 2, (0.0, 1.0),
                               tau=big * 0.5, dt=0.1)

    def test_tiling_and_bounds_random_steps(self, grid1d, bump):
        rng = random.Random(42)
        r, s = Exponent(2), Exponent(2)
        for trial in range(20):
            nslices = rng.randint(4, 64)
            dt = 0.125
            T = nslices * dt
            # random step potential: windows on the slice lattice
            windows = []
            t0 = 0.0
            while t0 < T - dt / 2:
                length = rng.randint(1, 4) * dt
                length = min(length, T - t0)
                eps = rng.choice([0.5, 0.75, 1.0, 1.5])
                if rng.random() < 0.7:
                    windows.append((t0, length, eps))
                t0 += length
            if not windows:
                continue
            sched = step_schedule(windows)
            V = PatchedRescaledPotential(bump, sched)
            from strz.potentials import slice_powers

            powers, dt_eff = slice_powers(V, r, s, (0.0, T), dt)
            tau = (max(powers.max(), 1e-12) * rng.uniform(1.2, 6.0)) ** (1 / 2)
            part = partition_interval(V, r, s, (0.0, T), tau=tau, dt=dt)
            # pieces tile exactly
            assert part.pieces[0][0] == 0.0
            assert part.pieces[-1][1] == pytest.approx(T)
            for (a0, b0), (a1, b1) in zip(part.pieces, part.pieces[1:]):
                assert b0 == pytest.approx(a1)
            for nrm in part.piece_norms:
                assert nrm <= tau * (1 + 1e-9)
            # greedy count matches the brute-force minimum
            assert len(part) == brute_force_min_pieces(list(powers), tau**2)


class TestSumTriangle:
    def test_triangle_inequality(self, grid1d, bump):
        rng = random.Random(3)
        for _ in range(5):
            amps = [rng.uniform(0.2, 2.0) for _ in range(2)]
            terms = []
            for a in amps:
                prof = real_profile(grid1d, a * bump.values.real)
                terms.append((StaticPotential(prof), Exponent(2), Exponent(3)))
            V = SumPotential(terms=tuple(terms))
            whole = mixed_norm(V, 2, 3, (0.0, 1.0), dt=0.05)
            parts = sum(mixed_norm(t, 2, 3, (0.0, 1.0), dt=0.05) for t, _, _ in terms)
            assert whole <= parts * (1 + 1e-12)
