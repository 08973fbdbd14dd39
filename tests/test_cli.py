import json

import numpy as np
import pytest

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
    potential_to_config,
)
from strz.errors import ConfigError, PreconditionError
from strz.exponents import Exponent
from strz.groundstate import default_weight, ground_pair, standing_wave_potential
from strz.potentials import (
    PatchedRescaledPotential,
    StaticPotential,
    SumPotential,
    ZeroPotential,
)
from strz.snapshot import write_snapshot
from strz.spectral import make_grid


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


class TestPotentialConfig:
    def test_static_round_trip(self, tmp_path):
        grid = make_grid(1, 12.0, 64)
        w = default_weight(grid, sigma=1.0)
        write_snapshot(w, tmp_path / "w.strz")
        sections = potential_to_config(StaticPotential(w), profile_path="w.strz")
        cfg = ExperimentConfig(sections)
        V = potential_from_config(cfg, base_dir=tmp_path)
        assert isinstance(V, StaticPotential)
        np.testing.assert_array_equal(V.profile.values, w.values)

    def test_patched_round_trip(self, tmp_path):
        from strz.counterexamples import build_family
        from strz.exponents import ScheduleKind

        grid = make_grid(2, 10.0, 32)
        gp = ground_pair(default_weight(grid, sigma=1.0))
        W, u0 = standing_wave_potential(gp)
        fam = build_family(ScheduleKind.GLOBAL_SUBCRITICAL, 4, 4, 2, W, u0, K=4)
        write_snapshot(W, tmp_path / "W.strz")
        sections = potential_to_config(fam.potential, profile_path="W.strz")
        sections["potential"]["r"] = "4"
        sections["potential"]["s"] = "4"
        cfg = ExperimentConfig(sections)
        V = potential_from_config(cfg, base_dir=tmp_path)
        assert isinstance(V, PatchedRescaledPotential)
        assert len(V.schedule.windows) == 4
        assert V.schedule.windows[2].eps == fam.potential.schedule.windows[2].eps

    def test_sum_round_trip(self, tmp_path):
        grid = make_grid(1, 12.0, 64)
        w = default_weight(grid, sigma=1.0)
        write_snapshot(w, tmp_path / "w.strz")
        V = SumPotential(terms=((StaticPotential(w), Exponent(2), Exponent(3)),
                                (ZeroPotential(), Exponent("inf"), Exponent(2))))
        sections = potential_to_config(V, profile_path="w.strz")
        assert sections["potential"] == {"kind": "sum", "terms": "2"}
        back = potential_from_config(ExperimentConfig(sections), base_dir=tmp_path)
        assert [(type(t), r, s) for t, r, s in back.terms] == \
            [(type(t), r, s) for t, r, s in V.terms]
        np.testing.assert_array_equal(back.terms[0][0].profile.values, w.values)

    def test_profile_path_required(self):
        grid = make_grid(1, 12.0, 64)
        with pytest.raises(PreconditionError, match="static potential needs a profile path"):
            potential_to_config(StaticPotential(default_weight(grid)))

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
