from fractions import Fraction

import numpy as np
import pytest

from strz.errors import DivergentNormError, PreconditionError, RegimeError
from strz.exponents import Exponent, ScheduleKind, ScheduleParams, schedule_params_valid
from strz.groundstate import default_weight, ground_pair, standing_wave_potential
from strz.counterexamples import (
    build_family,
    pseudoconformal_build,
    pseudoconformal_residual,
    pseudoconformal_solution_norm,
    pseudoconformal_solution_norm_numeric,
    pseudoconformal_state,
    ratio_series,
    reflect_translate,
    schedule_params_for_growth,
    window_crosscheck,
)
from strz.spectral import lq_norm, make_grid

F = Fraction


@pytest.fixture(scope="module")
def base3d():
    grid = make_grid(3, 10.0, 32)
    gp = ground_pair(default_weight(grid, sigma=1.0))
    W, u0 = standing_wave_potential(gp)
    return W, u0


@pytest.fixture(scope="module")
def base2d():
    grid = make_grid(2, 12.0, 64)
    gp = ground_pair(default_weight(grid, sigma=1.0))
    W, u0 = standing_wave_potential(gp)
    return W, u0


class TestBuildFamily:
    def test_subcritical_window_data(self, base3d):
        W, u0 = base3d
        fam = build_family(ScheduleKind.GLOBAL_SUBCRITICAL, 4, 6, 3, W, u0, K=50)
        a = float(fam.schedule.params.alpha)
        for w in fam.schedule.windows:
            assert w.length == pytest.approx(w.k**a)
        assert fam.analytic_norm.converges
        assert fam.analytic_norm.total is not None

    def test_local_total_time_finite(self, base3d):
        W, u0 = base3d
        fam = build_family(ScheduleKind.LOCAL, 1, 2, 3, W, u0, K=100)
        alpha = float(fam.schedule.params.alpha)
        # alpha > 1, so the window lengths are summable
        assert alpha > 1
        last = fam.schedule.windows[-1]
        assert last.start + last.length <= fam.schedule.total_time
        zeta_lower = sum(k ** (-alpha) for k in range(1, 5000))
        assert fam.schedule.total_time >= zeta_lower - 1e-9

    def test_regime_mismatch(self, base3d):
        W, u0 = base3d
        with pytest.raises(RegimeError):
            build_family(ScheduleKind.GLOBAL_SUBCRITICAL, 1, 2, 3, W, u0, K=5)
        with pytest.raises(RegimeError):
            build_family(ScheduleKind.LOCAL, 4, 6, 3, W, u0, K=5)

    def test_infinite_r_needs_explicit_params(self, base3d):
        W, u0 = base3d
        params = ScheduleParams(alpha=F(2), beta=F(3), kind=ScheduleKind.LOCAL)
        fam = build_family(ScheduleKind.LOCAL, "inf", 1, 3, W, u0, K=5, params=params)
        assert fam.analytic_norm.converges
        with pytest.raises(PreconditionError, match="r < inf") as info:
            build_family(ScheduleKind.LOCAL, "inf", 1, 3, W, u0, K=5)
        assert not isinstance(info.value, RegimeError)

    def test_no_window_refused(self, base3d):
        W, u0 = base3d
        with pytest.raises(PreconditionError, match="at least one window"):
            build_family(ScheduleKind.LOCAL, 1, 2, 3, W, u0, K=0)

    def test_divergent_params_rejected(self, base3d):
        W, u0 = base3d
        # valid ScheduleParams inequalities are exactly what rules divergence
        # out, so sneak in a wrong-kind tag to force the divergent series
        bad = ScheduleParams(alpha=F(1, 2), beta=F(4), kind=ScheduleKind.GLOBAL_SUPERCRITICAL)
        assert not schedule_params_valid(bad, 1, 2, 3)
        with pytest.raises((DivergentNormError, PreconditionError)):
            build_family(ScheduleKind.GLOBAL_SUPERCRITICAL, 1, 2, 3, W, u0, K=5, params=bad)

    def test_single_window_family(self, base3d):
        W, u0 = base3d
        fam = build_family(ScheduleKind.GLOBAL_SUBCRITICAL, 4, 6, 3, W, u0, K=1)
        rs = ratio_series(fam, 2, 6)
        assert len(rs.ratios) == 1
        assert rs.fitted_slope is None


class TestGrowthParams:
    @pytest.mark.parametrize(
        "kind,r,s",
        [
            (ScheduleKind.GLOBAL_SUBCRITICAL, 4, 6),
            (ScheduleKind.GLOBAL_SUPERCRITICAL, 1, 2),
            (ScheduleKind.LOCAL, 1, 2),
        ],
    )
    def test_valid_and_strong(self, kind, r, s):
        params = schedule_params_for_growth(kind, r, s, 3)
        assert schedule_params_valid(params, r, s, 3)
        gap = abs(params.alpha - params.beta)
        assert gap >= F(1, 2) * F(3)

    def test_wrong_regime(self):
        with pytest.raises(RegimeError):
            schedule_params_for_growth(ScheduleKind.LOCAL, 4, 6, 3)

    def test_wrong_regime_names_the_regime_needed(self, base3d):
        W, u0 = base3d
        with pytest.raises(RegimeError, match="is subcritical, need supercritical$"):
            schedule_params_for_growth(ScheduleKind.LOCAL, 4, 6, 3)
        with pytest.raises(RegimeError, match="is supercritical, need subcritical$"):
            build_family(ScheduleKind.GLOBAL_SUBCRITICAL, 1, 2, 3, W, u0, K=5)

    def test_infinite_r_refused(self):
        with pytest.raises(PreconditionError, match="r < inf") as info:
            schedule_params_for_growth(ScheduleKind.LOCAL, "inf", 1, 3)
        assert not isinstance(info.value, RegimeError)


class TestRatioSeries:
    def test_predicted_slopes(self, base3d):
        W, u0 = base3d
        params = schedule_params_for_growth(ScheduleKind.GLOBAL_SUBCRITICAL, 4, 6, 3)
        fam = build_family(ScheduleKind.GLOBAL_SUBCRITICAL, 4, 6, 3, W, u0, K=60,
                           params=params)
        rs = ratio_series(fam, 2, 6)
        assert rs.predicted_slope == float((params.alpha - params.beta) / 2)
        assert rs.fitted_slope == pytest.approx(rs.predicted_slope, rel=1e-9)

        sup = schedule_params_for_growth(ScheduleKind.GLOBAL_SUPERCRITICAL, 1, 2, 3)
        fam2 = build_family(ScheduleKind.GLOBAL_SUPERCRITICAL, 1, 2, 3, W, u0, K=60,
                            params=sup)
        rs2 = ratio_series(fam2, F(8, 3), 4)
        assert rs2.predicted_slope == float((sup.beta - sup.alpha) * F(3, 8))
        assert rs2.fitted_slope == pytest.approx(rs2.predicted_slope, rel=1e-9)

    def test_monotone_increase(self, base3d):
        W, u0 = base3d
        fam = build_family(
            ScheduleKind.GLOBAL_SUBCRITICAL, 4, 6, 3, W, u0, K=60,
            params=schedule_params_for_growth(ScheduleKind.GLOBAL_SUBCRITICAL, 4, 6, 3),
        )
        rs = ratio_series(fam, 2, 6)
        assert np.all(np.diff(rs.ratios) > 0)

    def test_energy_pair_constant_one(self, base3d):
        W, u0 = base3d
        fam = build_family(ScheduleKind.GLOBAL_SUBCRITICAL, 4, 6, 3, W, u0, K=40)
        rs = ratio_series(fam, "inf", 2)
        np.testing.assert_allclose(rs.ratios, 1.0, atol=1e-12)
        assert rs.predicted_slope == 0.0

    def test_inadmissible_pair_rejected(self, base3d):
        W, u0 = base3d
        fam = build_family(ScheduleKind.GLOBAL_SUBCRITICAL, 4, 6, 3, W, u0, K=10)
        with pytest.raises(PreconditionError):
            ratio_series(fam, 3, 6)  # not admissible for n=3

    def test_ratio_formula_against_direct_norms(self, base3d):
        # oracle: R_k from the closed-form window norms computed directly
        W, u0 = base3d
        fam = build_family(ScheduleKind.GLOBAL_SUBCRITICAL, 4, 6, 3, W, u0, K=12)
        p, q = Exponent(2), Exponent(6)
        rs = ratio_series(fam, p, q)
        for i, w in enumerate(fam.schedule.windows):
            window_norm = w.length ** 0.5 * w.eps ** (-3.0 / 6.0) * lq_norm(u0, 6)
            energy = w.eps ** (-1.5) * lq_norm(u0, 2)
            assert rs.ratios[i] == pytest.approx(window_norm / energy, rel=1e-12)


class TestWindowCrosscheck:
    def test_first_window_is_phase_test(self, base2d):
        W, u0 = base2d
        fam = build_family(ScheduleKind.GLOBAL_SUBCRITICAL, 4, 4, 2, W, u0, K=3)
        checks = window_crosscheck(fam, [1], dt=5e-3, pairs=[(4, 4)])
        c = checks[0]
        assert c.eps == 1.0
        assert c.phase_error < 1e-3
        assert c.energy_start == pytest.approx(c.energy_predicted, rel=1e-12)
        assert c.norm_errors[(Exponent(4), Exponent(4))] < 0.02

    def test_later_window_rescaled(self, base2d):
        W, u0 = base2d
        fam = build_family(ScheduleKind.GLOBAL_SUBCRITICAL, 4, 4, 2, W, u0, K=3)
        checks = window_crosscheck(fam, [2], dt=5e-3, pairs=[(4, 4)])
        c = checks[0]
        assert c.eps < 1.0
        assert abs(c.energy_start - c.energy_predicted) / c.energy_predicted < 0.01
        assert c.norm_errors[(Exponent(4), Exponent(4))] < 0.02

    def test_too_many_windows(self, base2d):
        W, u0 = base2d
        fam = build_family(ScheduleKind.GLOBAL_SUBCRITICAL, 4, 4, 2, W, u0, K=6)
        with pytest.raises(PreconditionError):
            window_crosscheck(fam, [1, 2, 3, 4], dt=1e-2)


class TestPseudoconformal:
    def test_build_and_norms(self, base2d):
        W, u0 = base2d
        fam, sampler = pseudoconformal_build(W, u0, 1, F(3, 2), 2, delta=0.25)
        assert fam.analytic_norm > 0
        state = sampler(1.0)
        # at T = 1: U(1, X) = exp(i(1 - |X|^2/4)) u0(X)
        grid = u0.grid
        rsq = sum(x**2 for x in grid.coords())
        expected = np.exp(1j * (1.0 - rsq / 4.0)) * u0.values
        assert np.abs(state.values - expected).max() < 1e-10

    def test_condition_checked(self, base2d):
        W, u0 = base2d
        # (r, s) failing the pseudoconformal inequality for n = 2
        with pytest.raises(PreconditionError):
            pseudoconformal_build(W, u0, 2, F(3, 2), 2, delta=0.25)

    def test_solution_norm_formulas(self, base2d):
        _, u0 = base2d
        # delta = 1/2: time factor (1/delta - 1)^(1/p) = 1
        val = pseudoconformal_solution_norm(u0, 4, 4, 0.5)
        assert val == pytest.approx(lq_norm(u0, 4), rel=1e-12)
        # norm vanishes as delta -> 1
        small = pseudoconformal_solution_norm(u0, 4, 4, 1.0 - 1e-9)
        assert small < 1e-2 * lq_norm(u0, 4)

    def test_solution_norm_p2_endpoint(self, base3d):
        # the n=3 endpoint pair (2, 6): delta = 1/2 gives (2 - 1)^(1/2) = 1
        _, u0 = base3d
        val = pseudoconformal_solution_norm(u0, 2, 6, 0.5)
        assert val == pytest.approx(lq_norm(u0, 6), rel=1e-12)

    def test_numeric_matches_closed(self, base2d):
        _, u0 = base2d
        for delta in (0.1, 0.25, 0.5):
            closed = pseudoconformal_solution_norm(u0, 4, 4, delta)
            numeric = pseudoconformal_solution_norm_numeric(u0, 4, 4, delta, nt=8193)
            assert abs(closed - numeric) / closed < 1e-6

    def test_residual_refines(self):
        res = {}
        for N in (32, 64):
            grid = make_grid(2, 20.0, N)
            gp = ground_pair(default_weight(grid, sigma=1.0))
            W, u0 = standing_wave_potential(gp)
            res[N] = pseudoconformal_residual(W, u0, 0.5)
        assert res[32] / res[64] >= 4.0

    def test_reflect_translate(self, base2d):
        W, u0 = base2d
        _, sampler = pseudoconformal_build(W, u0, 1, F(3, 2), 2, delta=0.25)
        reflected = reflect_translate(sampler)
        a = reflected(0.4)
        b = sampler(0.6)
        np.testing.assert_allclose(a.values, np.conj(b.values), atol=1e-14)

    def test_state_requires_positive_time(self, base2d):
        _, u0 = base2d
        with pytest.raises(PreconditionError):
            pseudoconformal_state(u0, 0.0)
