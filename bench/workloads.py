"""The benchmark's three workloads and their correctness gates.

Each workload drives the public strz API the way a user would, on inputs
made from a seed, and checks what the program returns against a solution
known in closed form:

* ``standing_wave_3d`` -- Strang split-step under the static potential
  W = -mu w, whose exact solution is exp(-it) u0.
* ``pseudoconformal_2d`` -- split-step under V(T, X) = T^-2 W(X/T), whose
  exact solution is the pseudoconformal state U(T, X).
* ``simulate_global_3d`` -- ``strz simulate`` with the partition-and-chain
  Duhamel solver, checked from the files it writes.

The seed perturbs the weight w only: sigma by at most 0.25 % and the
amplitude by at most 10 %.  The exact references hold for every such weight.
Scaling the amplitude of w leaves W = -mu w unchanged and only rescales u0,
so the work and the relative errors of a run do not depend on it; sigma
changes W itself and is kept close to 1 because the solution error of
pseudoconformal_2d moves about ten times faster than sigma does.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import shutil
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from strz import cli, counterexamples, groundstate, potentials, snapshot, solver, spectral
from strz.exponents import as_exponent

SIGMA_SPREAD = 0.0025
AMPLITUDE_SPREAD = 0.10

StepProbe = Optional[Callable[[float, np.ndarray], None]]


@dataclass(frozen=True)
class Perturbation:
    sigma: float
    amplitude: float


def perturbation(seed: int) -> Perturbation:
    rng = random.Random(seed)
    return Perturbation(sigma=1.0 + rng.uniform(-SIGMA_SPREAD, SIGMA_SPREAD),
                        amplitude=1.0 + rng.uniform(-AMPLITUDE_SPREAD, AMPLITUDE_SPREAD))


@dataclass
class Check:
    name: str
    value: float
    bound: float

    @property
    def ok(self) -> bool:
        return math.isfinite(self.value) and self.value <= self.bound


@dataclass
class Gate:
    """Every check a run must pass, plus the headline solution error."""

    checks: List[Check] = field(default_factory=list)
    solution_err: float = math.nan

    def le(self, name: str, value: float, bound: float) -> None:
        self.checks.append(Check(name, float(value), bound))

    @property
    def passed(self) -> bool:
        return bool(self.checks) and all(c.ok for c in self.checks)

    def failures(self) -> List[str]:
        return [f"{c.name}: {c.value:.3e} > {c.bound:.1e}" for c in self.checks if not c.ok]


@dataclass
class Prepared:
    """Inputs of one solve, built during set-up."""

    steps: int  # time-lattice steps on [t0, t1]
    grid: spectral.Grid
    u0: spectral.ComplexField  # ground state f, the profile of every reference
    inputs: Dict[str, object]

    @property
    def array_bytes(self) -> int:
        return self.grid.npoints * 16


def _ground_state(grid: spectral.Grid, seed: int):
    pert = perturbation(seed)
    w = groundstate.default_weight(grid, sigma=pert.sigma, amplitude=pert.amplitude)
    gp = groundstate.ground_pair(w)
    return groundstate.standing_wave_potential(gp)


def _rel_l2(values: np.ndarray, exact: np.ndarray) -> float:
    return float(np.linalg.norm(values - exact) / np.linalg.norm(exact))


def _steps(t0: float, t1: float, dt: float) -> int:
    return max(1, round((t1 - t0) / dt))


def _check_closed_form_ratios(gate: Gate, rep: solver.SolveReport, u0: spectral.ComplexField,
                              t_len: float, tol: float) -> None:
    """|u(t)| = |u0| for the standing wave, so the (p, q) ratio with p finite
    is t_len^(1/p) ||u0||_q / ||u0||_2."""
    u0_l2 = spectral.lq_norm(u0, 2)
    for (p, q), ratio in rep.strichartz_ratios.items():
        if not p.is_infinite:
            closed = t_len ** float(p.reciprocal) * spectral.lq_norm(u0, q) / u0_l2
            gate.le(f"ratio ({p},{q}) rel error vs closed form", abs(ratio - closed) / closed, tol)


class StandingWave3D:
    name = "standing_wave_3d"

    def __init__(self, N: int = 64, L: float = 16.0, t1: float = 2.4, dt: float = 8e-3):
        self.N, self.L, self.t1, self.dt = N, L, t1, dt
        self.pairs = [("inf", 2), (2, 6), (Fraction(8, 3), 4)]

    def prepare(self, seed: int, workdir: Path) -> Prepared:
        grid = spectral.make_grid(3, self.L, self.N)
        W, u0 = _ground_state(grid, seed)
        return Prepared(_steps(0.0, self.t1, self.dt), grid, u0,
                        {"V": potentials.StaticPotential(W)})

    def solve(self, prep: Prepared, step_probe: StepProbe = None) -> solver.SolveReport:
        return solver.split_step_evolve(prep.u0, prep.inputs["V"], interval=(0.0, self.t1),
                                        dt=self.dt, pairs=self.pairs, step_probe=step_probe)

    def check(self, prep: Prepared, rep: solver.SolveReport) -> Gate:
        gate = Gate()
        t = float(rep.trajectory.times[-1])
        gate.le("final time offset", abs(t - self.t1), 1e-12)
        exact = np.exp(-1j * t) * prep.u0.values
        gate.solution_err = _rel_l2(rep.trajectory.states[-1].values, exact)
        gate.le("final state rel L2 error vs exp(-it) u0", gate.solution_err, 1e-3)
        gate.le("energy drift", rep.energy_drift, 1e-10)
        _check_closed_form_ratios(gate, rep, prep.u0, self.t1, 1e-3)
        gate.le("(inf,2) ratio minus 1",
                abs(rep.strichartz_ratios[(as_exponent("inf"), as_exponent(2))] - 1.0),
                1e-10)
        return gate


class Pseudoconformal2D:
    name = "pseudoconformal_2d"

    def __init__(self, N: int = 128, L: float = 20.0, t0: float = 0.5, dt: float = 2.5e-4):
        self.N, self.L, self.t0, self.dt = N, L, t0, dt
        self.pairs = [(4, 4)]

    def prepare(self, seed: int, workdir: Path) -> Prepared:
        grid = spectral.make_grid(2, self.L, self.N)
        W, u0 = _ground_state(grid, seed)
        start = counterexamples.pseudoconformal_state(u0, self.t0)
        return Prepared(_steps(self.t0, 1.0, self.dt), grid, u0,
                        {"V": potentials.PseudoconformalPotential(W), "start": start})

    def solve(self, prep: Prepared, step_probe: StepProbe = None) -> solver.SolveReport:
        return solver.split_step_evolve(prep.inputs["start"], prep.inputs["V"],
                                        interval=(self.t0, 1.0), dt=self.dt, pairs=self.pairs,
                                        step_probe=step_probe)

    def check(self, prep: Prepared, rep: solver.SolveReport) -> Gate:
        gate = Gate()
        gate.le("final time offset", abs(float(rep.trajectory.times[-1]) - 1.0), 1e-12)
        exact = counterexamples.pseudoconformal_state(prep.u0, 1.0).values
        gate.solution_err = _rel_l2(rep.trajectory.states[-1].values, exact)
        gate.le("final state rel L2 error vs U(1)", gate.solution_err, 2e-4)
        gate.le("energy drift", rep.energy_drift, 1e-10)
        start_l2 = spectral.lq_norm(prep.inputs["start"], 2)
        for (p, q), ratio in rep.strichartz_ratios.items():
            closed = counterexamples.pseudoconformal_solution_norm(prep.u0, p, q, self.t0)
            gate.le(f"({p},{q}) norm rel error vs closed form",
                    abs(ratio * start_l2 - closed) / closed, 1e-5)
        return gate


_SNAPSHOT_HEADER = struct.Struct("<4sIIId")


def _read_snapshot_values(path: Path) -> np.ndarray:
    """Decode a snapshot file from its documented layout, independently of
    strz.snapshot, so a defect there cannot hide from the check."""
    raw = path.read_bytes()
    magic, _version, n, N, _L = _SNAPSHOT_HEADER.unpack_from(raw)
    if magic != b"STRZ":
        raise ValueError(f"{path}: bad magic {magic!r}")
    return np.frombuffer(raw[_SNAPSHOT_HEADER.size:], dtype="<c16").reshape((N,) * n)


def _read_csv(path: Path) -> List[Dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class SimulateGlobal3D:
    name = "simulate_global_3d"

    def __init__(self, N: int = 32, L: float = 10.0, t1: float = 1.0, dt: float = 5e-3,
                 tau: float = 3.0):
        self.N, self.L, self.t1, self.dt, self.tau = N, L, t1, dt, tau

    def prepare(self, seed: int, workdir: Path) -> Prepared:
        grid = spectral.make_grid(3, self.L, self.N)
        W, u0 = _ground_state(grid, seed)
        workdir.mkdir(parents=True, exist_ok=True)
        snapshot.write_snapshot(W, workdir / "W.strz")
        snapshot.write_snapshot(u0, workdir / "u0.strz")
        config = workdir / "run.cfg"
        config.write_text(
            "[grid]\nn = 3\n"
            f"l = {self.L!r}\nn_points = {self.N}\n\n"
            "[initial]\nkind = snapshot\npath = u0.strz\n\n"
            "[potential]\nkind = static\nprofile = W.strz\n\n"
            "[run]\nmethod = global\nt0 = 0\n"
            f"t1 = {self.t1!r}\ndt = {self.dt!r}\nr = 2\ns = 2\ntau = {self.tau!r}\n"
            "pairs = inf,2;2,6;8/3,4\nstore = final\n"
        )
        return Prepared(_steps(0.0, self.t1, self.dt), grid, u0,
                        {"config": config, "out": workdir / "out"})

    def solve(self, prep: Prepared, step_probe: StepProbe = None) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["simulate", "--config", str(prep.inputs["config"]),
                             "--out", str(prep.inputs["out"])])

    def check(self, prep: Prepared, exit_code: int) -> Gate:
        out: Path = prep.inputs["out"]
        try:
            return self._check_files(prep, exit_code, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)  # the next solve must write its own files

    def _check_files(self, prep: Prepared, exit_code: int, out: Path) -> Gate:
        gate = Gate()
        gate.le("exit code", abs(exit_code), 0)
        final = _read_snapshot_values(out / "final.strz")
        exact = np.exp(-1j * self.t1) * prep.u0.values
        gate.solution_err = _rel_l2(final, exact)
        gate.le("final.strz rel L2 error vs exp(-i) u0", gate.solution_err, 1e-3)
        pieces = _read_csv(out / "pieces.csv")
        gate.le("pieces tile [t0, t1]",
                abs(float(pieces[-1]["end"]) - self.t1) if pieces else math.inf, 1e-12)
        gate.le("max contraction factor",
                max((float(r["max_factor"]) for r in pieces), default=math.inf), 0.999)
        l2 = np.array([float(r["l2_norm"]) for r in _read_csv(out / "energy.csv")])
        gate.le("energy drift in energy.csv", float(np.abs(l2 - l2[0]).max() / l2[0]), 1e-3)
        ratios = json.loads((out / "summary.json").read_text())["strichartz_ratios"]
        gate.le("(inf,2) ratio minus 1", abs(ratios["inf,2"] - 1.0), 1e-3)
        return gate


WORKLOADS = {wl.name: wl for wl in (StandingWave3D, Pseudoconformal2D, SimulateGlobal3D)}
