"""Which strz names a traced run wraps, and the per-layer metrics it derives.

Each target is a module-level name through which one layer calls the next,
so patching it times every call into that layer without editing the
package.  Set-up and solve are traced with separate target lists: the FFT
and solver counters then describe only the solve that ``solve_s`` measures,
while ``ground_pair`` keeps its own FFTs inside its span.
"""
from __future__ import annotations

import math
import os
import statistics
from typing import Dict, List

import numpy as np

from strz import cli, config, groundstate, potentials, solver

from tracing import Tracer

# Per-layer metrics reported by a traced run, in the order of BENCHMARK.json.
PER_LAYER_UNITS = {
    "fft.calls": "count",
    "fft.self_s": "s",
    "fft.bytes_computed": "B",
    "fft.flops_computed": "flop",
    "solver.split_step_evolve.self_s": "s",
    "solver.step_ms.p50": "ms",
    "solver.step_ms.p99": "ms",
    "potentials.evaluate.calls": "count",
    "potentials.evaluate.self_s": "s",
    "spectral.rescale_field.calls": "count",
    "spectral.rescale_field.self_s": "s",
    "solver.solve_global.self_s": "s",
    "solver.duhamel_iterate.calls": "count",
    "solver.duhamel_iterate.self_s": "s",
    "solver.duhamel_sweeps": "count",
    "solver.max_factor": "ratio",
    "potentials.partition_interval.s": "s",
    "potentials.partition_interval.pieces": "count",
    "potentials.trajectory_mixed_norm.s": "s",
    "spectral.lq_norm.calls": "count",
    "groundstate.ground_pair.s": "s",
    "groundstate.ground_pair.iterations": "count",
    "snapshot.read_s": "s",
    "snapshot.write_s": "s",
    "snapshot.bytes": "B",
    "config.write_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}

# Counts that must repeat exactly when the same inputs are solved again.
EXACT_COUNTS = ("fft.calls", "solver.duhamel_sweeps", "potentials.evaluate.calls")


def _on_fft(tr: Tracer, args: tuple, result) -> None:
    size = np.asarray(args[0]).size
    tr.count("fft.bytes_computed", 2 * 16 * size)
    tr.count("fft.flops_computed", 5 * size * math.log2(size))


def _on_duhamel(tr: Tracer, args: tuple, result) -> None:
    # Fixed-point iterations; each piece also makes one residual sweep not counted here.
    tr.count("solver.duhamel_sweeps", result.iterations)
    if result.factors:
        tr.record_max("solver.max_factor", max(result.factors))


def _on_partition(tr: Tracer, args: tuple, result) -> None:
    tr.count("potentials.partition_interval.pieces", len(result))


def _on_ground_pair(tr: Tracer, args: tuple, result) -> None:
    tr.count("groundstate.ground_pair.iterations", result.iterations)


def _on_snapshot_read(tr: Tracer, args: tuple, result) -> None:
    tr.count("snapshot.bytes", os.path.getsize(args[0]))


def _on_snapshot_write(tr: Tracer, args: tuple, result) -> None:
    tr.count("snapshot.bytes", os.path.getsize(args[1]))


def setup_targets(tr: Tracer) -> List[tuple]:
    return [(groundstate, "ground_pair",
             lambda f: tr.wrap("groundstate.ground_pair", f, _on_ground_pair))]


def solve_targets(tr: Tracer) -> List[tuple]:
    def w(name, on_call=None):
        return lambda f: tr.wrap(name, f, on_call)

    return [
        (np.fft, "fftn", w("fft", _on_fft)),
        (np.fft, "ifftn", w("fft", _on_fft)),
        (solver, "split_step_evolve", w("solver.split_step_evolve")),
        (solver, "evaluate", w("potentials.evaluate")),
        (potentials, "rescale_field", w("spectral.rescale_field")),
        (solver, "duhamel_iterate", w("solver.duhamel_iterate", _on_duhamel)),
        (solver, "partition_interval", w("potentials.partition_interval", _on_partition)),
        (solver, "trajectory_mixed_norm", w("potentials.trajectory_mixed_norm")),
        (solver, "lq_norm", w("spectral.lq_norm")),
        (potentials, "lq_norm", w("spectral.lq_norm")),
        (cli, "main", w("cli.main")),
        (cli, "solve_global", w("solver.solve_global")),
        (cli, "read_snapshot", w("snapshot.read", _on_snapshot_read)),
        (config, "read_snapshot", w("snapshot.read", _on_snapshot_read)),
        (config, "write_snapshot", w("snapshot.write", _on_snapshot_write)),
        (config.ResultBundle, "write_csv", w("config.write")),
        (config.ResultBundle, "finalize", w("config.write")),
    ]


def quantile_ms(gaps_s: List[float], pct: int) -> float:
    """The pct-th percentile of step gaps in ms (0 when there are none)."""
    if len(gaps_s) < 2:
        return 1e3 * gaps_s[0] if gaps_s else 0.0
    return 1e3 * statistics.quantiles(gaps_s, n=100, method="inclusive")[pct - 1]


def layer_metrics(tr: Tracer, step_gaps_s: List[float]) -> Dict[str, float]:
    """Per-layer metrics of one traced iteration (trace.* are added by the
    caller, which knows the untraced timings)."""
    self_s = tr.self_times()
    c = tr.counters

    def total(name):
        return sum(tr.durations(name))

    return {
        "fft.calls": c["fft.calls"],
        "fft.self_s": self_s.get("fft", 0.0),
        "fft.bytes_computed": c["fft.bytes_computed"],
        "fft.flops_computed": c["fft.flops_computed"],
        "solver.split_step_evolve.self_s": self_s.get("solver.split_step_evolve", 0.0),
        "solver.step_ms.p50": quantile_ms(step_gaps_s, 50),
        "solver.step_ms.p99": quantile_ms(step_gaps_s, 99),
        "potentials.evaluate.calls": c["potentials.evaluate.calls"],
        "potentials.evaluate.self_s": self_s.get("potentials.evaluate", 0.0),
        "spectral.rescale_field.calls": c["spectral.rescale_field.calls"],
        "spectral.rescale_field.self_s": self_s.get("spectral.rescale_field", 0.0),
        "solver.solve_global.self_s": self_s.get("solver.solve_global", 0.0),
        "solver.duhamel_iterate.calls": c["solver.duhamel_iterate.calls"],
        "solver.duhamel_iterate.self_s": self_s.get("solver.duhamel_iterate", 0.0),
        "solver.duhamel_sweeps": c["solver.duhamel_sweeps"],
        "solver.max_factor": tr.maxima.get("solver.max_factor", 0.0),
        "potentials.partition_interval.s": total("potentials.partition_interval"),
        "potentials.partition_interval.pieces": c["potentials.partition_interval.pieces"],
        "potentials.trajectory_mixed_norm.s": total("potentials.trajectory_mixed_norm"),
        "spectral.lq_norm.calls": c["spectral.lq_norm.calls"],
        "groundstate.ground_pair.s": total("groundstate.ground_pair"),
        "groundstate.ground_pair.iterations": c["groundstate.ground_pair.iterations"],
        "snapshot.read_s": total("snapshot.read"),
        "snapshot.write_s": total("snapshot.write"),
        "snapshot.bytes": c["snapshot.bytes"],
        "config.write_s": total("config.write"),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
    }
