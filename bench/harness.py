"""Measurement loops of the strz benchmark: set-up, solves and traced solves.

Imported by ``run.py`` once the thread caps are set and ``src/`` is on the
import path, since importing this module imports numpy and strz.
"""
from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import layers
from refclock import RefClock, WallClock
from tracing import Tracer, patched
from workloads import WORKLOADS

SETUP_REPEATS = 5  # at least; cheap set-ups repeat until SETUP_MIN_S is spent
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 50
MIN_SOLVES = 2  # untraced solves in a run with --trace 0
MIN_TRACED = 2  # traced iterations, so exact counts can be compared

END_TO_END_UNITS = {
    "solve_s": "s",
    "steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "solution_err": "ratio",
    "pass_frac": "ratio",
}


def cache_sizes() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def machine_record(workload: str, seed: int, array_bytes: int, thread_vars) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "caches": cache_sizes(),
        "thread_env": {k: os.environ.get(k) for k in thread_vars},
        "workload": workload,
        "seed": seed,
        "array_bytes": array_bytes,
    }


class Attempts:
    """Solve timings and gate outcomes of one run; failures are never dropped."""

    def __init__(self, clock=None):
        self.clock = clock or WallClock()
        self.sections, self.errors, self.failures = [], [], []
        self.attempted = 0

    @property
    def walls(self):
        return [s.wall_s for s in self.sections]

    def run(self, wl, prep, step_probe=None, stage=lambda name: contextlib.nullcontext()):
        """Solve and check once; ``stage(name)`` wraps the solve and the check."""
        self.attempted += 1
        try:
            with stage("solve"), self.clock.section() as sec:
                self.sections.append(sec)
                out = wl.solve(prep, step_probe)
            with stage("check"):
                gate = wl.check(prep, out)
        except Exception:  # the loop keeps measuring; the failure is counted
            self.failures.append(traceback.format_exc(limit=3))
            return
        self.errors.append(gate.solution_err)
        if not gate.passed:
            self.failures.append("; ".join(gate.failures()))

    @property
    def failed(self) -> int:
        # a traced run may add a failure of its own (counts that did not repeat)
        return min(len(self.failures), self.attempted)


def timed_setup(wl, seed, workdir, repeats, min_s=0.0, clock=None):
    """Build the workload's inputs ``repeats`` times, and more until ``min_s``
    is spent; returns the last inputs and every set-up section of ``clock``."""
    clock = clock or WallClock()
    sections, prep = [], None
    while len(sections) < repeats or (
            sum(s.wall_s for s in sections) < min_s and len(sections) < SETUP_MAX_REPEATS):
        prep = None  # let the previous inputs go before building new ones
        with clock.section() as sec:
            prep = wl.prepare(seed, workdir)
        sections.append(sec)
    return prep, sections


def run_untraced(wl, args, workdir, deadline):
    """Solve until the deadline; times are at the reference speed of refclock."""
    clock = RefClock()
    prep, setups = timed_setup(wl, args.seed, workdir, SETUP_REPEATS, SETUP_MIN_S, clock)
    att = Attempts(clock)
    while True:
        t = time.perf_counter()
        att.run(wl, prep)
        took = time.perf_counter() - t
        if att.attempted >= MIN_SOLVES and time.perf_counter() + took > deadline:
            break
    solve_times, setup_times = clock.scaled(att.sections), clock.scaled(setups, pooled=True)
    solve_s = statistics.median(solve_times)
    metrics = {
        "solve_s": solve_s,
        "steps_per_s": prep.steps / solve_s,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # with no output to compare, count the error as total (1.0, not inf: JSON)
        "solution_err": statistics.median(att.errors) if att.errors else 1.0,
        "pass_frac": (att.attempted - att.failed) / att.attempted,
    }
    detail = {
        "solve_s": solve_times,
        "solve_walls_s": att.walls,
        "solve_ref_hmean_s": [statistics.harmonic_mean(s.ref_s) if s.ref_s else None
                              for s in att.sections],
        "setup_s": setup_times,
        "setup_walls_s": [s.wall_s for s in setups],
        "failures": att.failures,
    }
    return att, prep, metrics, detail


def run_traced(wl, args, workdir, deadline):
    """Alternate an untraced solve (the baseline of trace.overhead_s) with a
    traced set-up, solve and check, at least MIN_TRACED times."""
    prep, _ = timed_setup(wl, args.seed, workdir, 1)
    att = Attempts()
    per_iter, traces = [], []
    while True:
        att.run(wl, prep)
        baseline = att.walls[-1]
        tr = Tracer()
        stamps = []

        @contextlib.contextmanager
        def stage(name):
            with tr.span(name):
                if name == "solve":
                    with patched(layers.solve_targets(tr)):
                        yield
                else:
                    yield

        begin = time.perf_counter()
        with tr.span("setup"), patched(layers.setup_targets(tr)):
            prep = None
            prep = wl.prepare(args.seed, workdir)
        att.run(wl, prep, lambda t, u: stamps.append(time.perf_counter()), stage)
        iteration = time.perf_counter() - begin
        m = layers.layer_metrics(tr, [b - a for a, b in zip(stamps, stamps[1:])])
        m["trace.overhead_s"] = sum(tr.durations("solve")) - baseline
        m["trace.coverage"] = tr.top_level_time() / iteration
        per_iter.append(m)
        traces.append(tr.to_json())
        if len(per_iter) >= MIN_TRACED and time.perf_counter() + iteration + baseline > deadline:
            break
    for name in layers.EXACT_COUNTS:
        seen = {m[name] for m in per_iter}
        if len(seen) != 1:
            att.failures.append(f"{name} differs between identical traced solves: {sorted(seen)}")
    metrics = {name: statistics.median(m[name] for m in per_iter)
               for name in layers.PER_LAYER_UNITS}
    detail = {"iterations": per_iter, "traces": traces, "failures": att.failures}
    return att, prep, metrics, detail


def run(args, out_dir: Path, thread_vars) -> int:
    """Run one workload as ``args`` asks and print the machine record and the
    result line; details and spans go to ``out_dir``."""
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]()
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    deadline = time.perf_counter() + args.seconds
    try:
        runner = run_traced if args.trace else run_untraced
        att, prep, metrics, detail = runner(wl, args, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = layers.PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    machine = machine_record(args.workload, args.seed, prep.array_bytes, thread_vars)
    out_dir.mkdir(exist_ok=True)
    detail_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps({"machine": machine, "metrics": metrics, **detail}))
    for failure in att.failures:
        print(f"bench: failed: {failure}", file=sys.stderr)
    print(json.dumps({"machine": machine, "detail": detail_path.name}))
    print(json.dumps({
        "correct": att.failed == 0,
        "attempted": att.attempted,
        "failed": att.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0
