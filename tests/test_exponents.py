import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from strz import exponents
from strz.errors import DimensionError, PreconditionError, RegimeError
from strz.exponents import (
    INF,
    Criticality,
    Exponent,
    ExponentPair,
    ScheduleKind,
    ScheduleParams,
    classify_potential,
    dual,
    dual_pair_case_b,
    global_subcritical_params,
    holder_split_case_a,
    is_admissible,
    local_params,
    pseudoconformal_ok,
    scaling_exponent,
    schedule_params_valid,
    validate_schedule_params,
)
from conftest import random_critical_pair, random_rational

F = Fraction


class TestExponent:
    def test_construction(self):
        assert Exponent(2).value == 2
        assert Exponent("8/3").value == F(8, 3)
        assert Exponent("inf").is_infinite
        assert Exponent(F(3, 2)).value == F(3, 2)

    def test_rejects_floats_and_bad_values(self):
        with pytest.raises(TypeError):
            Exponent(2.5)
        with pytest.raises(ValueError):
            Exponent(F(1, 2))
        with pytest.raises(ValueError):
            Exponent(0)
        with pytest.raises(ValueError, match="zero denominator"):
            Exponent("1/0")

    def test_reciprocal_convention(self):
        assert INF.reciprocal == 0
        assert Exponent(4).reciprocal == F(1, 4)

    def test_hash_and_float_match_the_value(self):
        for e, value in ((Exponent(2), 2), (Exponent("8/3"), F(8, 3)), (INF, None)):
            assert hash(e) == hash(value)
            assert float(e) == (float("inf") if value is None else float(value))
            assert e == Exponent(str(e)) and e == str(e)

    def test_unpickled_in_another_process_keys_its_dicts(self):
        # hash(None), the hash of inf, differs between processes before
        # Python 3.12, so a pickle must not carry the hash taken here
        data = pickle.dumps([INF, Exponent("8/3")])
        code = ("import pickle, sys\n"
                "from strz.exponents import Exponent\n"
                "got = pickle.loads(sys.stdin.buffer.read())\n"
                "assert {Exponent('inf'): 0, Exponent('8/3'): 1} == dict(zip(got, (0, 1)))\n")
        src = os.path.dirname(os.path.dirname(exponents.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        assert subprocess.run([sys.executable, "-c", code], input=data, env=env).returncode == 0

    def test_ordering(self):
        assert Exponent(2) < Exponent(3) < INF
        assert not INF < INF
        assert Exponent(2) <= 2
        assert INF >= Exponent(1000)


class TestDual:
    def test_worked_examples(self):
        assert dual(2) == Exponent(2)
        assert dual(INF) == Exponent(1)
        assert dual(6) == Exponent(F(6, 5))
        assert dual(1) == INF

    def test_involution(self, rng):
        for _ in range(1000):
            e = Exponent(random_rational(rng, F(1), F(64), max_den=32))
            assert dual(dual(e)) == e
        assert dual(dual(INF)) == INF


class TestAdmissible:
    def test_worked_examples(self):
        assert is_admissible(INF, 2, 3) is True
        assert is_admissible(2, 6, 3) is True
        assert is_admissible(2, INF, 2) is False
        assert is_admissible(4, 3, 3) is True

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            is_admissible(2, 6, 1)

    def test_non_admissible(self):
        assert is_admissible(1, 2, 3) is False  # p < 2
        assert is_admissible(3, 6, 3) is False  # identity fails

    def test_endpoint_allowed_for_n3(self):
        # (2, 2n/(n-2)) is the endpoint pair when n >= 3
        assert is_admissible(2, 6, 3) is True
        assert is_admissible(2, 4, 4) is True

    def test_admissible_identity(self, rng):
        # p(n/2 - n/q) = 2 for every admissible pair with finite p
        for _ in range(1000):
            n = rng.choice([2, 3])
            p = Exponent(random_rational(rng, F(2), F(40), max_den=16))
            if p < 2 or p.is_infinite:
                continue
            q_recip = F(1, 2) - F(2, n) * p.reciprocal
            if q_recip < 0 or q_recip > F(1, 2):
                continue
            q = Exponent.from_reciprocal(q_recip)
            if not is_admissible(p, q, n):
                continue
            assert p.value * (F(n, 2) - n * q.reciprocal) == 2


class TestClassify:
    def test_worked_examples(self):
        assert classify_potential(2, 3, 3).criticality is Criticality.CRITICAL
        assert classify_potential(4, 6, 3).criticality is Criticality.SUBCRITICAL
        for n in (2, 3):
            cls = classify_potential(INF, F(n, 2) if n > 2 else 1, n)
            assert cls.criticality is Criticality.CRITICAL

    def test_rho_exact(self):
        assert classify_potential(2, 3, 3).rho == 1
        assert classify_potential(4, 6, 3).rho == F(1, 2)

    def test_scaling_exponent_examples(self):
        assert scaling_exponent(2, 3, 3) == 0
        assert scaling_exponent(INF, INF, 3) == 2
        assert scaling_exponent(1, 2, 3) == F(-3, 2)

    def test_scaling_zero_iff_critical(self, rng):
        for _ in range(1000):
            n = rng.choice([2, 3])
            r = Exponent(random_rational(rng, F(1), F(16)))
            s = Exponent(random_rational(rng, F(1), F(16)))
            sigma = scaling_exponent(r, s, n)
            crit = classify_potential(r, s, n).criticality
            assert (sigma == 0) == (crit is Criticality.CRITICAL)


class TestHolderSplitCaseA:
    def test_worked_examples(self):
        assert holder_split_case_a(2, 3, 3) == ExponentPair(INF, Exponent(2), 3)
        assert holder_split_case_a(4, 2, 3) == ExponentPair(Exponent(4), Exponent(3), 3)
        assert holder_split_case_a(2, 4, 4) == ExponentPair(INF, Exponent(2), 4)

    def test_regime_errors(self):
        with pytest.raises(RegimeError):
            holder_split_case_a(4, 6, 3)  # subcritical
        with pytest.raises(PreconditionError):
            holder_split_case_a(F(3, 2), 6, 4)  # r < 2

    def test_split_always_admissible(self, rng):
        for _ in range(1000):
            n = rng.choice([2, 3])
            r, s = random_critical_pair(rng, n, F(2), F(30))
            pair = holder_split_case_a(r, s, n)
            assert pair.admissible
            # reciprocals reproduce the defining relations exactly
            assert pair.p.reciprocal == F(1, 2) - r.reciprocal
            assert pair.q.reciprocal == F(n + 2, 2 * n) - s.reciprocal


class TestDualPairCaseB:
    def test_worked_examples(self):
        pair, d = dual_pair_case_b(2, 3, 3)
        assert pair == ExponentPair(Exponent(2), Exponent(6), 3)
        assert d == (Exponent(2), Exponent(F(6, 5)))

        pair, d = dual_pair_case_b(1, INF, 3)
        assert pair == ExponentPair(INF, Exponent(2), 3)
        assert d == (Exponent(1), Exponent(2))

        pair, d = dual_pair_case_b(F(3, 2), 6, 4)
        assert pair == ExponentPair(Exponent(3), Exponent(3), 4)
        assert d == (Exponent(F(3, 2)), Exponent(F(3, 2)))

    def test_regime_errors(self):
        with pytest.raises(RegimeError):
            dual_pair_case_b(1, 2, 3)  # supercritical
        with pytest.raises(PreconditionError):
            dual_pair_case_b(4, 6, 3)  # subcritical -> regime error subclass

    def test_excluded_corner(self):
        # (n, r, s) = (2, 2, 2) maps onto the forbidden endpoint (2, 2, inf)
        with pytest.raises(PreconditionError):
            dual_pair_case_b(2, 2, 2)

    def test_components_dual_and_admissible(self, rng):
        for _ in range(1000):
            n = rng.choice([2, 3])
            r, s = random_critical_pair(rng, n, F(1), F(2))
            pair, (dr, dq) = dual_pair_case_b(r, s, n)
            assert pair.admissible
            assert dual(pair.p) == dr
            assert dual(pair.q) == dq
            assert Exponent(1) <= dr <= Exponent(2)
            assert Exponent(1) <= dq <= Exponent(2)


class TestScheduleParams:
    def test_subcritical_examples(self):
        p = global_subcritical_params(4, 6, 3)
        rho = F(1, 2)
        assert p.beta == F(11, 5)  # (1 + 1/10) / (1 - rho) with rho = 1/2
        assert p.alpha > p.beta > 1 / (1 - rho)
        assert (p.alpha - p.beta) / 4 + p.beta * rho < p.beta - 1

        p = global_subcritical_params(2, 4, 2)
        rho = F(1, 2) + F(1, 4)
        assert (p.alpha - p.beta) / 2 + F(3, 4) * p.beta < p.beta - 1

    def test_boundary_rejected(self):
        bad = ScheduleParams(alpha=F(2), beta=F(2), kind=ScheduleKind.GLOBAL_SUBCRITICAL)
        assert not schedule_params_valid(bad, 4, 6, 3)
        with pytest.raises(PreconditionError):
            validate_schedule_params(bad, 4, 6, 3)

    def test_local_examples(self):
        p = local_params(1, 2, 3)
        rho = F(7, 4)
        assert p.beta > 1 / (rho - 1)
        assert p.beta > p.alpha > 1
        assert (p.alpha - p.beta) / 1 + p.beta * rho > p.beta + 1
        # equivalent first form from the divergence computation
        assert -p.alpha + (1 - F(3, 4)) * p.beta < -1

        p = local_params(1, 1, 2)
        assert -p.alpha + 0 * p.beta < -1
        assert p.beta > p.alpha > 1

    def test_alpha_equals_beta_rejected(self):
        bad = ScheduleParams(alpha=F(3), beta=F(3), kind=ScheduleKind.LOCAL)
        assert not schedule_params_valid(bad, 1, 2, 3)

    def test_wrong_regime(self):
        with pytest.raises(RegimeError):
            global_subcritical_params(2, 3, 3)  # critical
        with pytest.raises(RegimeError):
            global_subcritical_params(1, 2, 3)  # supercritical
        with pytest.raises(RegimeError):
            local_params(4, 6, 3)  # subcritical

    def test_selectors_satisfy_invariants_randomly(self, rng):
        done = 0
        while done < 500:
            n = rng.choice([2, 3])
            r = Exponent(random_rational(rng, F(1), F(12), max_den=16))
            s = Exponent(random_rational(rng, F(1), F(12), max_den=16))
            if r.is_infinite:
                continue
            cls = classify_potential(r, s, n)
            if cls.criticality is Criticality.SUBCRITICAL:
                p = global_subcritical_params(r, s, n)
            elif cls.criticality is Criticality.SUPERCRITICAL:
                p = local_params(r, s, n)
                assert schedule_params_valid(
                    ScheduleParams(p.alpha, p.beta, ScheduleKind.GLOBAL_SUPERCRITICAL), r, s, n
                )
            else:
                continue
            assert schedule_params_valid(p, r, s, n)
            done += 1

    def test_deterministic(self):
        assert global_subcritical_params(4, 6, 3) == global_subcritical_params(4, 6, 3)
        assert local_params(1, 2, 3) == local_params(1, 2, 3)


class TestPseudoconformalOk:
    def test_worked_examples(self):
        assert pseudoconformal_ok(1, 2, 3) is True
        assert pseudoconformal_ok(2, F(3, 2), 2) is False
        with pytest.raises(PreconditionError):
            pseudoconformal_ok(2, 3, 3)  # s = n excluded

    def test_range_errors(self):
        with pytest.raises(PreconditionError):
            pseudoconformal_ok(INF, 2, 3)
        with pytest.raises(PreconditionError):
            pseudoconformal_ok(2, F(3, 2), 3)  # s = n/2 excluded

    def test_formulations_agree(self, rng):
        # against the equivalent form r(n/s - 2) > -1
        done = 0
        while done < 1000:
            n = rng.choice([2, 3])
            lo, hi = F(n, 2), F(n)
            s = lo + (hi - lo) * F(rng.randint(1, 31), 32)
            if not lo < s < hi:
                continue
            r = random_rational(rng, F(1), F(20), max_den=16)
            assert pseudoconformal_ok(Exponent(r), Exponent(s), n) == (r * (n / s - 2) > -1)
            done += 1
