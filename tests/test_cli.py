import csv
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import strz
from strz.cli import (
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    main,
)
from strz.config import (
    ExperimentConfig,
    parse_pairs,
    potential_from_config,
)
from strz.errors import ConfigError, PreconditionError
from strz.exponents import Exponent
from strz.groundstate import default_weight, ground_pair, standing_wave_potential
from strz.potentials import (
    PatchedRescaledPotential,
    StaticPotential,
    SumPotential,
    ZeroPotential,
    real_profile,
)
from strz.snapshot import read_snapshot, write_snapshot
from strz.solver import solve_global, split_step_evolve
from strz.spectral import gaussian_field, make_grid


class TestExperimentConfig:
    def test_round_trip_idempotent(self):
        text = """
[run]
dt = 0.01
t1 = 2.0

[grid]
n = 2
l = 12.0
n_points = 64
"""
        cfg = ExperimentConfig.parse(text)
        once = cfg.serialize()
        twice = ExperimentConfig.parse(once).serialize()
        assert once == twice
        assert ExperimentConfig.parse(once).config_hash() == cfg.config_hash()

    def test_typed_accessors(self):
        cfg = ExperimentConfig.parse("[a]\nx = 3\ny = 2.5\nz = 8/3\n")
        assert cfg.get_int("a", "x") == 3
        assert cfg.get_float("a", "y") == 2.5
        assert cfg.get_exponent("a", "z") == Exponent("8/3")
        with pytest.raises(ConfigError):
            cfg.get_int("a", "y")
        with pytest.raises(ConfigError):
            cfg.get_int("a", "missing", required=True)
        zero = ExperimentConfig.parse("[a]\nalpha = 1/0\n")
        with pytest.raises(ConfigError, match="is not a rational"):
            zero.get_fraction("a", "alpha")
        with pytest.raises(ConfigError, match="is not an exponent"):
            zero.get_exponent("a", "alpha")

    def test_malformed(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.parse("not a config at all [")

    def test_parse_pairs(self):
        pairs = parse_pairs("2,6;8/3,4;inf,2")
        assert pairs[1] == (Exponent("8/3"), Exponent(4))
        assert pairs[2][0].is_infinite
        with pytest.raises(ConfigError):
            parse_pairs("2;6")
        with pytest.raises(ConfigError, match="bad pair"):
            parse_pairs("1/0,2")


PATCHED = """
[potential]
kind = patched
profile = W.strz
schedule = global-subcritical
alpha = 121/50
beta = 11/5
k = 4
r = 4
s = 4
"""


class TestPotentialConfig:
    @pytest.fixture(scope="class")
    def family(self):
        from strz.counterexamples import build_family
        from strz.exponents import ScheduleKind

        grid = make_grid(2, 10.0, 32)
        W, u0 = standing_wave_potential(ground_pair(default_weight(grid, sigma=1.0)))
        return build_family(ScheduleKind.GLOBAL_SUBCRITICAL, 4, 4, 2, W, u0, K=4)

    def test_static_round_trip(self, tmp_path):
        grid = make_grid(1, 12.0, 64)
        w = default_weight(grid, sigma=1.0)
        write_snapshot(w, tmp_path / "w.strz")
        cfg = ExperimentConfig.parse("[potential]\nkind = static\nprofile = w.strz\n")
        V = potential_from_config(cfg, base_dir=tmp_path)
        assert isinstance(V, StaticPotential)
        np.testing.assert_array_equal(V.profile.values, w.values)

    def test_patched_round_trip(self, tmp_path, family):
        write_snapshot(family.W, tmp_path / "W.strz")
        V = potential_from_config(ExperimentConfig.parse(PATCHED), base_dir=tmp_path)
        assert isinstance(V, PatchedRescaledPotential)
        assert V.schedule == family.potential.schedule
        np.testing.assert_array_equal(V.profile.values, family.W.values)

    def test_sum_round_trip(self, tmp_path):
        grid = make_grid(1, 12.0, 64)
        w = default_weight(grid, sigma=1.0)
        write_snapshot(w, tmp_path / "w.strz")
        text = """
[potential]
kind = sum
terms = 2

[potential.term1]
kind = static
profile = w.strz
r = 2
s = 3

[potential.term2]
kind = zero
r = inf
s = 2
"""
        back = potential_from_config(ExperimentConfig.parse(text), base_dir=tmp_path)
        assert isinstance(back, SumPotential)
        assert [(type(t), r, s) for t, r, s in back.terms] == [
            (StaticPotential, Exponent(2), Exponent(3)),
            (ZeroPotential, Exponent("inf"), Exponent(2)),
        ]
        np.testing.assert_array_equal(back.terms[0][0].profile.values, w.values)

    def test_sum_missing_term_section(self):
        cfg = ExperimentConfig.parse("[potential]\nkind = sum\nterms = 2\n\n"
                                     "[potential.term1]\nkind = zero\nr = 2\ns = 2\n")
        with pytest.raises(ConfigError, match=r"\[potential\.term2\] kind"):
            potential_from_config(cfg)

    def test_patched_term_lives_in_its_own_pair(self, tmp_path, family):
        """A patched term of a sum reads one (r, s): its budget in the sum and
        the exponents its schedule is validated against."""
        write_snapshot(family.W, tmp_path / "W.strz")
        term = PATCHED.replace("[potential]", "[potential.term1]")
        text = "[potential]\nkind = sum\nterms = 1\n" + term
        back = potential_from_config(ExperimentConfig.parse(text), base_dir=tmp_path)
        assert back.terms[0][1:] == (Exponent(4), Exponent(4))
        assert back.terms[0][0].schedule == family.potential.schedule
        # (3, 3) is subcritical in 2D too, but alpha = 121/50, beta = 11/5 violate it
        bad = text.replace("r = 4\ns = 4", "r = 3\ns = 3")
        with pytest.raises(PreconditionError, match="violate"):
            potential_from_config(ExperimentConfig.parse(bad), base_dir=tmp_path)

    def test_unknown_schedule(self, tmp_path, family):
        write_snapshot(family.W, tmp_path / "W.strz")
        cfg = ExperimentConfig.parse(PATCHED.replace("global-subcritical", "bogus"))
        with pytest.raises(ConfigError, match=r"\[potential\] schedule = 'bogus' is not one of "
                                              r"global-subcritical, global-supercritical, local"):
            potential_from_config(cfg, base_dir=tmp_path)

    def test_zero(self):
        cfg = ExperimentConfig({"potential": {"kind": "zero"}})
        assert isinstance(potential_from_config(cfg), ZeroPotential)

    def test_unknown_kind(self):
        cfg = ExperimentConfig({"potential": {"kind": "nope"}})
        with pytest.raises(ConfigError):
            potential_from_config(cfg)


class TestCliBasics:
    def test_admissible_true(self, capsys):
        assert main(["admissible", "--p", "2", "--q", "6", "--n", "3"]) == EXIT_OK
        assert "admissible: true" in capsys.readouterr().out

    def test_admissible_excluded_endpoint(self, capsys):
        assert main(["admissible", "--p", "2", "--q", "inf", "--n", "2"]) == EXIT_OK
        assert "admissible: false" in capsys.readouterr().out

    def test_admissible_p_below_two(self, capsys):
        assert main(["admissible", "--p", "1", "--q", "2", "--n", "3"]) == EXIT_OK
        assert "admissible: false" in capsys.readouterr().out

    def test_admissible_with_potential_info(self, capsys):
        assert main(["admissible", "--p", "2", "--q", "6", "--n", "3",
                     "--r", "2", "--s", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "criticality: critical" in out
        assert "holder_split: (inf, 2)" in out

    def test_admissible_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["admissible", "--p", "nonsense", "--q", "2", "--n", "3"])
        assert exc.value.code == EXIT_USAGE

    def test_admissible_zero_denominator_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["admissible", "--p", "1/0", "--q", "6", "--n", "3"])
        assert exc.value.code == EXIT_USAGE
        assert "zero denominator" in capsys.readouterr().err

    def test_admissible_validation_error(self):
        assert main(["admissible", "--p", "2", "--q", "6", "--n", "1"]) == EXIT_VALIDATION

    def test_params(self, capsys):
        assert main(["params", "--r", "4", "--s", "6", "--n", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "criticality: subcritical" in out
        assert "alpha:" in out and "beta:" in out

    def test_params_critical_rejected(self):
        assert main(["params", "--r", "2", "--s", "3", "--n", "3"]) == EXIT_VALIDATION

    def test_eigensolve(self, capsys, tmp_path):
        assert main(["eigensolve", "--n", "1", "--N", "64", "--L", "12",
                     "--out", str(tmp_path / "eig")]) == EXIT_OK
        out = capsys.readouterr().out
        assert "mu:" in out and "residual:" in out
        summary = json.loads((tmp_path / "eig" / "summary.json").read_text())
        assert "groundstate.strz" in summary["files"]
        assert summary["residual"] < 1e-8


class TestPythonDashM:
    """python -m strz, as a source checkout runs the command line."""

    @staticmethod
    def run(*argv):
        src = os.path.dirname(os.path.dirname(strz.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        return subprocess.run([sys.executable, "-m", "strz", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    def test_prints_what_main_prints(self, capsys):
        argv = ["admissible", "--p", "2", "--q", "6", "--n", "3"]
        done = self.run(*argv)
        assert main(argv) == EXIT_OK
        assert done.returncode == EXIT_OK
        assert done.stdout == capsys.readouterr().out

    def test_unknown_flag_exits_2(self):
        done = self.run("admissible", "--p", "2", "--q", "6", "--n", "3", "--bogus")
        assert done.returncode == EXIT_USAGE == 2
        assert "--bogus" in done.stderr


class TestCliSimulate:
    def make_config(self, tmp_path, method="split-step"):
        grid = make_grid(1, 12.0, 64)
        gp = ground_pair(default_weight(grid, sigma=1.0))
        W, u0 = standing_wave_potential(gp)
        write_snapshot(W, tmp_path / "W.strz")
        write_snapshot(u0, tmp_path / "u0.strz")
        lines = [
            "[grid]", "n = 1", "l = 12.0", "n_points = 64", "",
            "[initial]", "kind = snapshot", "path = u0.strz", "",
            "[potential]", "kind = static", "profile = W.strz", "",
            "[run]", f"method = {method}", "t0 = 0", "t1 = 0.5", "dt = 0.01",
        ]
        if method == "global":
            lines += ["r = 2", "s = 2", "tau = 1.5"]
        (tmp_path / "sim.cfg").write_text("\n".join(lines) + "\n")
        return tmp_path / "sim.cfg"

    def test_split_step_run(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["energy_drift"] < 1e-10
        assert "energy.csv" in summary["files"]

    def test_global_run_writes_pieces(self, tmp_path):
        cfg = self.make_config(tmp_path, method="global")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert (out / "pieces.csv").exists()

    @pytest.mark.parametrize("method", ["split-step", "global"])
    def test_determinism_byte_identical_csv(self, tmp_path, method):
        cfg = self.make_config(tmp_path, method=method)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
        names = sorted(p.name for p in out1.glob("*.csv"))
        assert names == sorted(p.name for p in out2.glob("*.csv"))
        assert ("pieces.csv" in names) == (method == "global")
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_missing_config_io_error(self, tmp_path):
        # ConfigError covers unreadable configs: validation exit code
        code = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION

    def test_missing_snapshot_io_error(self, tmp_path):
        (tmp_path / "sim.cfg").write_text(
            "\n".join([
                "[grid]", "n = 1", "l = 12.0", "n_points = 64", "",
                "[initial]", "kind = snapshot", "path = missing.strz", "",
                "[potential]", "kind = zero", "",
                "[run]", "method = split-step", "t1 = 0.5", "dt = 0.01",
            ]) + "\n"
        )
        code = main(["simulate", "--config", str(tmp_path / "sim.cfg"),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_IO

    def test_zero_potential_drift(self, tmp_path):
        (tmp_path / "sim.cfg").write_text(
            "\n".join([
                "[grid]", "n = 1", "l = 12.0", "n_points = 64", "",
                "[initial]", "kind = gaussian", "sigma = 1.0", "",
                "[potential]", "kind = zero", "",
                "[run]", "method = split-step", "t1 = 1.0", "dt = 0.01",
            ]) + "\n"
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(tmp_path / "sim.cfg"),
                     "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["energy_drift"] < 1e-12

    @pytest.mark.parametrize("grid_l, t1", [("inf", "1.0"), ("12.0", "inf")])
    def test_nonfinite_length_validation_exit(self, tmp_path, capsys, grid_l, t1):
        (tmp_path / "sim.cfg").write_text(
            "\n".join([
                "[grid]", "n = 1", f"l = {grid_l}", "n_points = 64", "",
                "[initial]", "kind = gaussian", "sigma = 1.0", "",
                "[potential]", "kind = zero", "",
                "[run]", "method = split-step", f"t1 = {t1}", "dt = 0.01",
            ]) + "\n"
        )
        code = main(["simulate", "--config", str(tmp_path / "sim.cfg"),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["split-step", "global"])
    def test_unknown_store_rejected_before_any_solve(self, tmp_path, capsys, method):
        cfg = self.make_config(tmp_path, method=method)
        cfg.write_text(cfg.read_text() + "store = fnal\n")
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "store" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method, bad, word", [
        ("globl", None, "method"),
        ("global", ("s = 2", "s = 1/0"), "s"),
        ("global", ("tau = 1.5", "tau = soon"), "tau"),
    ], ids=["method", "s", "tau"])
    def test_bad_run_section_leaves_no_output_directory(self, tmp_path, capsys, method,
                                                         bad, word):
        cfg = self.make_config(tmp_path, method=method)
        if bad is not None:
            cfg.write_text(cfg.read_text().replace(*bad))
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert word in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("method", ["split-step", "global"])
    @pytest.mark.parametrize("summed", [False, True], ids=["static", "sum-term"])
    def test_profile_on_another_grid_leaves_no_output_directory(self, tmp_path, capsys,
                                                                 method, summed):
        cfg = self.make_config(tmp_path, method=method)
        other = make_grid(1, 12.0, 32)
        write_snapshot(default_weight(other), tmp_path / "W32.strz")
        text = cfg.read_text()
        if summed:
            text = text.replace(
                "[potential]\nkind = static\nprofile = W.strz\n",
                "[potential]\nkind = sum\nterms = 2\n\n"
                "[potential.term1]\nkind = static\nprofile = W.strz\nr = 2\ns = 2\n\n"
                "[potential.term2]\nkind = static\nprofile = W32.strz\nr = 2\ns = 2\n")
        else:
            text = text.replace("profile = W.strz", "profile = W32.strz")
        assert "W32.strz" in text
        cfg.write_text(text)
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "[grid]" in capsys.readouterr().err
        assert not out.exists()


class TestCliSimulateFinalState:
    """strz simulate copies only the final state, and its files still hold
    what a default-stride API run of the same config reports."""

    grid = make_grid(2, 10.0, 64)
    field_bytes = 64**2 * 16
    pairs = [("inf", 2), (4, 4)]

    def make_config(self, tmp_path, method):
        u0 = gaussian_field(self.grid, sigma=1.0)
        write_snapshot(real_profile(self.grid, -0.5 * u0.values.real), tmp_path / "W.strz")
        lines = [
            "[grid]", "n = 2", "l = 10.0", "n_points = 64", "",
            "[initial]", "kind = gaussian", "sigma = 1.0", "",
            "[potential]", "kind = static", "profile = W.strz", "",
            # 401 samples: the default stride 2 keeps 201 of them
            "[run]", f"method = {method}", "t0 = 0", "t1 = 2.0", "dt = 0.005",
            "r = 2", "s = 2", "tau = 0.3", "pairs = inf,2;4,4", "store = final",
        ]
        (tmp_path / "sim.cfg").write_text("\n".join(lines) + "\n")
        return tmp_path / "sim.cfg"

    def api_run(self, method):
        u0 = gaussian_field(self.grid, sigma=1.0)
        V = StaticPotential(real_profile(self.grid, -0.5 * u0.values.real))
        if method == "split-step":
            return split_step_evolve(u0, V, interval=(0.0, 2.0), dt=0.005, pairs=self.pairs)
        return solve_global(u0, None, V, (0.0, 2.0), 2, 2, tau=0.3, dt=0.005,
                            pairs=self.pairs)

    @pytest.mark.parametrize("method", ["split-step", "global"])
    def test_peak_memory_keeps_one_state(self, tmp_path, method):
        # keeping the 201 states of the default stride peaks above 200 fields
        cfg = self.make_config(tmp_path, method)
        tracemalloc.start()
        try:
            code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak <= 100 * self.field_bytes, peak / self.field_bytes

    @pytest.mark.parametrize("method", ["split-step", "global"])
    def test_files_match_default_api_run(self, tmp_path, method):
        cfg = self.make_config(tmp_path, method)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        rep = self.api_run(method)
        traj = rep.trajectory
        assert len(traj.states) == 201
        with open(out / "energy.csv", newline="") as fh:
            rows = [(float(r["t"]), float(r["l2_norm"])) for r in csv.DictReader(fh)]
        assert rows == list(zip(traj.times.tolist(), traj.energy_log.tolist()))
        assert json.loads((out / "summary.json").read_text())["samples"] == 201
        np.testing.assert_array_equal(read_snapshot(out / "final.strz").values,
                                      traj.states[-1].values)


class TestCliPartition:
    def test_partition_run(self, tmp_path):
        grid = make_grid(1, 12.0, 64)
        gp = ground_pair(default_weight(grid, sigma=1.0))
        W, _ = standing_wave_potential(gp)
        write_snapshot(W, tmp_path / "W.strz")
        (tmp_path / "part.cfg").write_text(
            "\n".join([
                "[grid]", "n = 1", "l = 12.0", "n_points = 64", "",
                "[potential]", "kind = static", "profile = W.strz", "",
                "[partition]", "r = 2", "s = 2", "tau = 1.5", "dt = 0.01", "t1 = 2.0",
            ]) + "\n"
        )
        out = tmp_path / "out"
        assert main(["partition", "--config", str(tmp_path / "part.cfg"),
                     "--out", str(out)]) == EXIT_OK
        rows = (out / "pieces.csv").read_text().splitlines()
        assert rows[0] == "k,start,length,eps,piece_norm"
        assert len(rows) >= 2

    def test_unsplittable_numerical_exit(self, tmp_path):
        grid = make_grid(1, 12.0, 64)
        gp = ground_pair(default_weight(grid, sigma=1.0))
        W, _ = standing_wave_potential(gp)
        write_snapshot(W, tmp_path / "W.strz")
        (tmp_path / "part.cfg").write_text(
            "\n".join([
                "[grid]", "n = 1", "l = 12.0", "n_points = 64", "",
                "[potential]", "kind = static", "profile = W.strz", "",
                "[partition]", "r = 2", "s = 2", "tau = 1e-8", "dt = 0.25", "t1 = 2.0",
            ]) + "\n"
        )
        assert main(["partition", "--config", str(tmp_path / "part.cfg"),
                     "--out", str(tmp_path / "out")]) == EXIT_NUMERICAL

    def test_profile_on_another_grid_leaves_no_output_directory(self, tmp_path, capsys):
        # as for simulate: a profile sampled on N = 32 under a [grid] of N = 64
        write_snapshot(default_weight(make_grid(1, 12.0, 32)), tmp_path / "W32.strz")
        (tmp_path / "part.cfg").write_text(
            "\n".join([
                "[grid]", "n = 1", "l = 12.0", "n_points = 64", "",
                "[potential]", "kind = static", "profile = W32.strz", "",
                "[partition]", "r = 2", "s = 2", "tau = 1.5", "dt = 0.01", "t1 = 2.0",
            ]) + "\n"
        )
        out = tmp_path / "out"
        assert main(["partition", "--config", str(tmp_path / "part.cfg"),
                     "--out", str(out)]) == EXIT_VALIDATION
        assert "[grid]" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_denominator_validation_exit(self, tmp_path, capsys):
        (tmp_path / "part.cfg").write_text(
            "\n".join([
                "[grid]", "n = 1", "l = 12.0", "n_points = 64", "",
                "[potential]", "kind = zero", "",
                "[partition]", "r = 1/0", "s = 2", "tau = 1.5", "t1 = 2.0",
            ]) + "\n"
        )
        assert main(["partition", "--config", str(tmp_path / "part.cfg"),
                     "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
        assert "[partition] r = '1/0' is not an exponent" in capsys.readouterr().err


class TestCliCounterexample:
    def test_local_family(self, tmp_path, capsys):
        out = tmp_path / "cex"
        code = main([
            "counterexample", "--kind", "local", "--r", "1", "--s", "2", "--n", "3",
            "--K", "50", "--pairs", "2,6;inf,2", "--grid-N", "16", "--grid-L", "8",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        txt = capsys.readouterr().out
        assert "diverges" in txt
        summary = json.loads((out / "summary.json").read_text())
        assert summary["pairs"]["2,6"]["verdict"] == "diverges"
        assert "constant" in summary["pairs"]["inf,2"]["verdict"]
        assert (out / "windows.csv").exists()
        assert (out / "ratios_2_6.csv").exists()

    def test_regime_mismatch_is_validation_error(self, tmp_path):
        code = main([
            "counterexample", "--kind", "local", "--r", "4", "--s", "6", "--n", "3",
            "--K", "10", "--grid-N", "16", "--grid-L", "8",
            "--out", str(tmp_path / "x"),
        ])
        assert code == EXIT_VALIDATION

    def test_global_subcritical_two_pairs(self, tmp_path):
        out = tmp_path / "cex2"
        code = main([
            "counterexample", "--kind", "global-subcritical", "--r", "4", "--s", "6",
            "--n", "3", "--K", "30", "--pairs", "2,6;8/3,4", "--grid-N", "16",
            "--grid-L", "8", "--out", str(out),
        ])
        assert code == EXIT_OK


class TestCliVerify:
    def test_verify_subset(self, capsys):
        assert main(["verify", "--criteria", "c01,c02"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS] c01" in out
        assert "all 2 criteria passed" in out

    def test_verify_failure_exit_code(self, capsys, monkeypatch):
        import strz.acceptance as acc
        from strz.cli import EXIT_VERIFY

        def broken(ctx):
            ch = acc.Checks()
            ch.add("always fails", False, "stub")
            return ch

        monkeypatch.setattr(acc, "CRITERIA",
                            [("c99", "stub criterion", broken, None)])
        assert main(["verify", "--criteria", "c99"]) == EXIT_VERIFY
        out = capsys.readouterr().out
        assert "[FAIL] c99" in out
        assert "FAILED criteria: c99" in out

    def test_unknown_key_refused_before_any_criterion(self, capsys, monkeypatch):
        import strz.acceptance as acc

        def never(ctx):
            raise AssertionError("a criterion ran before every key was checked")

        monkeypatch.setattr(acc, "CRITERIA",
                            [(k, t, never, b) for k, t, _, b in acc.CRITERIA])
        assert main(["verify", "--criteria", "c01,c99"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "unknown criteria: c99" in captured.err
        assert "c01" not in captured.out
