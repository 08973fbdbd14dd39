"""Toy-size checks of the benchmark itself: gates, tracing and the entry point.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""
from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import layers  # noqa: E402
import refclock  # noqa: E402
import workloads  # noqa: E402
from strz import solver, spectral  # noqa: E402
from tracing import Tracer, patched  # noqa: E402

TOY = {
    "standing_wave_3d": lambda: workloads.StandingWave3D(N=16, L=10.0, t1=0.4, dt=0.02),
    "pseudoconformal_2d": lambda: workloads.Pseudoconformal2D(N=128, L=20.0, t0=0.9, dt=1e-3),
    "simulate_global_3d": lambda: workloads.SimulateGlobal3D(N=16, L=10.0, t1=0.2, dt=0.01),
}


def test_toy_sizes_cover_every_workload():
    assert set(TOY) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TOY))
def test_toy_run_passes_gate(name, tmp_path):
    wl = TOY[name]()
    args = Namespace(seed=7)
    att, prep, metrics, detail = harness.run_untraced(wl, args, tmp_path, time.perf_counter())
    assert att.failures == []
    assert att.attempted == harness.MIN_SOLVES
    assert set(metrics) == set(harness.END_TO_END_UNITS)
    assert metrics["pass_frac"] == 1.0
    assert 0 < metrics["solution_err"] < 1e-3
    assert all(v > 0 for v in metrics.values())


def _corrupt_report(rep: solver.SolveReport) -> solver.SolveReport:
    traj = rep.trajectory
    last = traj.states[-1]
    bad = spectral.ComplexField(last.grid, last.values * (1.0 + 1e-2))
    states = traj.states[:-1] + [bad]
    rep.trajectory = spectral.Trajectory(times=traj.times, states=states,
                                         energy_log=traj.energy_log)
    return rep


@pytest.mark.parametrize("name", ["standing_wave_3d", "pseudoconformal_2d"])
def test_corrupted_final_state_counts_as_failure(name, tmp_path):
    wl = TOY[name]()
    prep = wl.prepare(3, tmp_path)
    att = harness.Attempts()

    class Corrupting:
        solve = staticmethod(lambda p, probe=None: _corrupt_report(wl.solve(p, probe)))
        check = staticmethod(wl.check)

    att.run(Corrupting, prep)
    att.run(wl, prep)
    assert att.attempted == 2
    assert att.failed == 1
    assert "rel L2 error" in att.failures[0]


def test_corrupted_snapshot_file_counts_as_failure(tmp_path):
    wl = TOY["simulate_global_3d"]()
    prep = wl.prepare(3, tmp_path)
    assert wl.check(prep, wl.solve(prep)).passed
    assert not prep.inputs["out"].exists()  # a later check never sees stale files
    code = wl.solve(prep)
    final = prep.inputs["out"] / "final.strz"
    raw = bytearray(final.read_bytes())
    raw[-8:] = np.float64(0.5).tobytes()
    final.write_bytes(bytes(raw))
    gate = wl.check(prep, code)
    assert not gate.passed
    assert any("final.strz" in f for f in gate.failures())


def test_solver_exception_is_counted_not_dropped(tmp_path):
    wl = TOY["standing_wave_3d"]()
    prep = wl.prepare(3, tmp_path)

    class Raising:
        @staticmethod
        def solve(p, probe=None):
            raise FloatingPointError("boom")

    att = harness.Attempts()
    att.run(Raising, prep)
    assert att.attempted == 1 and att.failed == 1 and len(att.walls) == 1


@pytest.mark.parametrize("name", sorted(TOY))
def test_traced_toy_run_reports_every_layer_metric(name, tmp_path):
    originals = (np.fft.fftn, solver.evaluate, workloads.cli.main)
    att, prep, metrics, detail = harness.run_traced(TOY[name](), Namespace(seed=5), tmp_path,
                                                   time.perf_counter())
    assert (np.fft.fftn, solver.evaluate, workloads.cli.main) == originals
    assert att.failures == []
    assert set(metrics) == set(layers.PER_LAYER_UNITS)
    iters = detail["iterations"]
    assert len(iters) == harness.MIN_TRACED
    for count in layers.EXACT_COUNTS:
        assert len({m[count] for m in iters}) == 1
    assert metrics["fft.calls"] > 0
    assert metrics["groundstate.ground_pair.iterations"] > 0
    assert metrics["trace.coverage"] >= 0.9
    if name == "simulate_global_3d":
        assert metrics["solver.duhamel_sweeps"] > metrics["solver.duhamel_iterate.calls"] > 0
        assert 0 < metrics["solver.max_factor"] < 1
        assert metrics["snapshot.bytes"] > 0
    else:
        steps = TOY[name]().prepare(5, tmp_path).steps
        # two per Strang step, plus one per rescale_field of a moving potential
        assert metrics["fft.calls"] == 2 * steps + metrics["spectral.rescale_field.calls"]
        assert metrics["potentials.evaluate.calls"] == (1 if name == "standing_wave_3d" else steps)
        assert metrics["solver.step_ms.p50"] > 0


def test_self_time_subtracts_child_coverage():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            time.sleep(0.02)
        time.sleep(0.01)
    self_s = tr.self_times()
    outer = tr.durations("outer")[0]
    assert self_s["inner"] == pytest.approx(tr.durations("inner")[0])
    assert self_s["outer"] == pytest.approx(outer - self_s["inner"])
    assert tr.top_level_time() == pytest.approx(outer)
    assert tr.spans[1].parent == 0


def test_patched_restores_after_error():
    tr = Tracer()
    original = np.fft.fftn
    with pytest.raises(RuntimeError):
        with patched([(np.fft, "fftn", lambda f: tr.wrap("fft", f))]):
            np.fft.fftn(np.ones(4))
            raise RuntimeError
    assert np.fft.fftn is original
    assert tr.counters["fft.calls"] == 1


def test_ref_clock_samples_kernel_and_restores_handler():
    before = signal.getsignal(signal.SIGALRM)
    clock = refclock.RefClock(period_s=0.02)
    with clock.section() as sec:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sec.ref_s) >= 3
    assert 0 < sec.own_s < sec.wall_s
    hmean = len(sec.ref_s) / sum(1 / t for t in sec.ref_s)
    assert clock.scaled([sec])[0] == pytest.approx(sec.own_s * refclock.NOMINAL_REF_S / hmean)
    # a section too short to be sampled is scaled by the others' kernel times
    with clock.section() as short:
        pass
    assert short.ref_s == []
    assert clock.scaled([sec, short])[1] == pytest.approx(
        short.own_s * refclock.NOMINAL_REF_S / hmean)
    assert clock.scaled([short])[0] >= 0
    # with pooled=True (set-ups) every section is scaled by the kernel times of all
    with clock.section() as one:
        time.sleep(0.03)
    one.ref_s = sec.ref_s[:1]
    everything = sec.ref_s + one.ref_s
    pooled_hmean = len(everything) / sum(1 / t for t in everything)
    assert clock.scaled([sec, one], pooled=True) == pytest.approx(
        [s.own_s * refclock.NOMINAL_REF_S / pooled_hmean for s in (sec, one)])


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER_UNITS
    predictions = json.loads((BENCH / "predictions.json").read_text())
    for row in predictions["predictions"]:
        assert row["layer_metric"] in layers.PER_LAYER_UNITS
        assert set(row["moves"]) <= set(harness.END_TO_END_UNITS)
        assert set(row["on"]) | set(row["unchanged_on"]) <= set(workloads.WORKLOADS)


def test_entry_point_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "standing_wave_3d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
