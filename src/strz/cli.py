"""Command-line entry point for reproducible desk experiments.

Subcommands: admissible, params, simulate, eigensolve, partition,
counterexample, verify.  Sequence data is emitted as CSV, run summaries as
JSON with a manifest of every written file; binary field snapshots are
written only on request.  Identical configs produce byte-identical CSV
tables (timestamps live only in the JSON summary).

Exit codes:
    0  success
    2  usage error (bad flags or malformed values)
    3  validation error (preconditions, config contents)
    4  numerical failure (no contraction, no convergence, support escape,
       unsplittable partition, divergent schedule norm)
    5  verification failure (one or more acceptance criteria failed)
    6  I/O failure (missing files, malformed snapshots)
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from . import acceptance
from .config import ExperimentConfig, ResultBundle, parse_pairs, potential_from_config
from .counterexamples import (
    build_family,
    default_params,
    ratio_series,
    schedule_params_for_growth,
)
from .errors import (
    CalibrationError,
    ConfigError,
    ConvergenceError,
    DivergentNormError,
    NonContractionError,
    PartitionError,
    PreconditionError,
    SingularityError,
    SnapshotFormatError,
    SupportEscapeError,
)
from .exponents import (
    Exponent,
    ScheduleKind,
    classify_potential,
    holder_split_case_a,
    is_admissible,
    scaling_exponent,
)
from .groundstate import default_weight, ground_pair, standing_wave_potential
from .potentials import (ProfilePotential, SumPotential, mixed_norm, partition_interval,
                         schedule_rows)
from .snapshot import read_snapshot
from .solver import calibrate_tau, solve_global, split_step_evolve
from .spectral import ComplexField, gaussian_field, lq_norm, make_grid

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4
EXIT_VERIFY = 5
EXIT_IO = 6

_VALIDATION_ERRORS = (ConfigError, PreconditionError, ValueError, TypeError, KeyError)
_NUMERICAL_ERRORS = (
    CalibrationError,
    ConvergenceError,
    DivergentNormError,
    NonContractionError,
    PartitionError,
    SingularityError,
    SupportEscapeError,
)
_IO_ERRORS = (SnapshotFormatError, OSError)


def _exponent_arg(text: str) -> Exponent:
    try:
        return Exponent(text)
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"bad exponent {text!r}: {exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strz",
        description="Desk-scale experiments: Schrodinger evolution with "
        "mixed-norm potentials, standing waves and divergent cascades.",
        epilog="Exit codes: 0 success, 2 usage, 3 validation, 4 numerical "
        "failure, 5 verification failure, 6 I/O failure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_adm = sub.add_parser("admissible", help="check pair admissibility and exponent algebra")
    p_adm.add_argument("--p", type=_exponent_arg, required=True)
    p_adm.add_argument("--q", type=_exponent_arg, required=True)
    p_adm.add_argument("--n", type=int, required=True)
    p_adm.add_argument("--r", type=_exponent_arg, help="potential time exponent (optional)")
    p_adm.add_argument("--s", type=_exponent_arg, help="potential space exponent (optional)")

    p_par = sub.add_parser("params", help="select cascade schedule parameters")
    p_par.add_argument("--r", type=_exponent_arg, required=True)
    p_par.add_argument("--s", type=_exponent_arg, required=True)
    p_par.add_argument("--n", type=int, required=True)
    p_par.add_argument("--kind", choices=[k.value for k in ScheduleKind], default=None,
                       help="defaults to the kind matching the criticality regime")
    p_par.add_argument("--growth", action="store_true",
                       help="widen the alpha-beta gap for fast ratio divergence")

    p_sim = sub.add_parser("simulate", help="evolve an initial state under a potential")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", default="strz-out")

    p_eig = sub.add_parser("eigensolve", help="constrained ground state of a weight")
    p_eig.add_argument("--n", type=int, default=1)
    p_eig.add_argument("--N", type=int, default=64)
    p_eig.add_argument("--L", type=float, default=12.0)
    p_eig.add_argument("--sigma", type=float, default=1.0)
    p_eig.add_argument("--amplitude", type=float, default=1.0)
    p_eig.add_argument("--out", default=None, help="write W/u0 snapshots and summary here")

    p_part = sub.add_parser("partition", help="greedy small-norm interval partition")
    p_part.add_argument("--config", required=True)
    p_part.add_argument("--out", default="strz-out")

    p_cex = sub.add_parser("counterexample", help="cascade families and ratio series")
    p_cex.add_argument("--kind", choices=[k.value for k in ScheduleKind], required=True)
    p_cex.add_argument("--r", type=_exponent_arg, required=True)
    p_cex.add_argument("--s", type=_exponent_arg, required=True)
    p_cex.add_argument("--n", type=int, required=True)
    p_cex.add_argument("--K", type=int, default=200)
    p_cex.add_argument("--pairs", default="2,6;8/3,4" , help="semicolon list, e.g. '2,6;8/3,4'")
    p_cex.add_argument("--grid-N", type=int, default=32)
    p_cex.add_argument("--grid-L", type=float, default=10.0)
    p_cex.add_argument("--params-mode", choices=["default", "growth"], default="growth")
    p_cex.add_argument("--out", default="strz-out")

    p_ver = sub.add_parser("verify", help="run the acceptance suite")
    p_ver.add_argument("--criteria", default=None,
                       help="comma list of criterion keys (default: all)")
    p_ver.add_argument("-v", "--verbose", action="store_true")
    return parser


# ---------------------------------------------------------------------------
# subcommand bodies


def cmd_admissible(args) -> int:
    ok = is_admissible(args.p, args.q, args.n)
    print(f"admissible: {'true' if ok else 'false'}")
    if args.r is not None and args.s is not None:
        cls = classify_potential(args.r, args.s, args.n)
        print(f"criticality: {cls.criticality.value}")
        print(f"rho: {cls.rho}")
        print(f"scaling_exponent: {scaling_exponent(args.r, args.s, args.n)}")
        if cls.criticality.value == "critical":
            if args.r >= 2 and not args.r.is_infinite:
                split = holder_split_case_a(args.r, args.s, args.n)
                print(f"holder_split: ({split.p}, {split.q})")
            elif args.r <= 2:
                from .exponents import dual_pair_case_b

                pair, dual = dual_pair_case_b(args.r, args.s, args.n)
                print(f"dual_pair_admissible: ({pair.p}, {pair.q})")
                print(f"dual_pair_dual: ({dual[0]}, {dual[1]})")
    return EXIT_OK


def cmd_params(args) -> int:
    cls = classify_potential(args.r, args.s, args.n)
    print(f"criticality: {cls.criticality.value}")
    if args.kind is not None:
        kind = ScheduleKind(args.kind)
    elif cls.criticality.value == "subcritical":
        kind = ScheduleKind.GLOBAL_SUBCRITICAL
    elif cls.criticality.value == "supercritical":
        kind = ScheduleKind.LOCAL
    else:
        raise PreconditionError("critical (r, s) admit no cascade schedule")
    if args.growth:
        params = schedule_params_for_growth(kind, args.r, args.s, args.n)
    else:
        params = default_params(kind, args.r, args.s, args.n)
    print(f"kind: {params.kind.value}")
    print(f"alpha: {params.alpha}")
    print(f"beta: {params.beta}")
    return EXIT_OK


def _load_initial(cfg: ExperimentConfig, grid, base_dir) -> ComplexField:
    kind = cfg.get_str("initial", "kind", default="gaussian")
    if kind == "gaussian":
        sigma = cfg.get_float("initial", "sigma", default=1.0)
        amp = cfg.get_float("initial", "amplitude", default=1.0)
        return gaussian_field(grid, sigma=sigma, amplitude=amp)
    if kind == "snapshot":
        rel = cfg.get_str("initial", "path", required=True)
        state = read_snapshot(Path(base_dir) / rel)
        if state.grid != grid:
            raise ConfigError("initial snapshot grid does not match [grid]")
        return state
    if kind == "groundstate":
        sigma = cfg.get_float("initial", "sigma", default=1.0)
        amp = cfg.get_float("initial", "amplitude", default=1.0)
        gp = ground_pair(default_weight(grid, sigma=sigma, amplitude=amp))
        return gp.f
    raise ConfigError(f"unknown initial state kind {kind!r}")


def _check_profile_grids(V, grid) -> None:
    """ConfigError unless every profile of V, a sum's terms' included, is
    sampled on grid."""
    if isinstance(V, SumPotential):
        for term, _, _ in V.terms:
            _check_profile_grids(term, grid)
    elif isinstance(V, ProfilePotential) and V.profile.grid != grid:
        raise ConfigError("potential profile grid does not match [grid]")


def _grid_from_config(cfg: ExperimentConfig):
    return make_grid(
        cfg.get_int("grid", "n", required=True),
        cfg.get_float("grid", "l", required=True),
        cfg.get_int("grid", "n_points", required=True),
    )


def cmd_simulate(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    store = cfg.get_str("run", "store", default="none")
    if store not in ("final", "none"):
        raise ConfigError(f"unknown store {store!r}: expected final or none")
    method = cfg.get_str("run", "method", default="split-step")
    if method == "global":
        r = cfg.get_exponent("run", "r", required=True)
        s = cfg.get_exponent("run", "s", required=True)
        tau = cfg.get_float("run", "tau", default=None)
        tol = cfg.get_float("run", "tol", default=1e-8)
    elif method != "split-step":
        raise ConfigError(f"unknown method {method!r}")
    base_dir = Path(args.config).parent
    grid = _grid_from_config(cfg)
    u0 = _load_initial(cfg, grid, base_dir)
    V = potential_from_config(cfg, base_dir=base_dir)
    _check_profile_grids(V, grid)
    t0 = cfg.get_float("run", "t0", default=0.0)
    t1 = cfg.get_float("run", "t1", required=True)
    dt = cfg.get_float("run", "dt", required=True)
    pairs_text = cfg.get_str("run", "pairs", default=None)
    pairs = parse_pairs(pairs_text) if pairs_text else []
    bundle = ResultBundle(out_dir=args.out, command="simulate",
                          config_hash=cfg.config_hash())
    if method == "split-step":
        rep = split_step_evolve(u0, V, interval=(t0, t1), dt=dt, pairs=pairs,
                                keep_states=False)
    else:
        if tau is None:
            tau = calibrate_tau([V], grid, dt=max(dt, (t1 - t0) / 100),
                                interval=(t0, min(t1, t0 + 1.0)), r=r, s=s)
        rep = solve_global(u0, None, V, (t0, t1), r, s, tau, dt, tol=tol, pairs=pairs,
                           keep_states=False)
    rows = [(float(t), float(e)) for t, e in zip(rep.times, rep.energy_log)]
    bundle.write_csv("energy.csv", ("t", "l2_norm"), rows)
    if rep.partition is not None:
        bundle.write_csv(
            "pieces.csv",
            ("k", "start", "end", "piece_norm", "iterations", "max_factor"),
            [
                (i + 1, a, b, nrm, it, max(fs) if fs else 0.0)
                for i, ((a, b), nrm, it, fs) in enumerate(
                    zip(rep.partition.pieces, rep.partition.piece_norms,
                        rep.iterations, rep.contraction_factors)
                )
            ],
        )
    if store == "final":
        bundle.write_snapshot("final.strz", rep.trajectory.states[-1])
    bundle.summary.update(rep.to_json_dict())
    path = bundle.finalize()
    print(f"energy drift: {rep.energy_drift:.3e}")
    for (p, q), ratio in rep.strichartz_ratios.items():
        print(f"ratio L^{p} L^{q}: {ratio:.6f}")
    print(f"summary: {path}")
    return EXIT_OK


def cmd_eigensolve(args) -> int:
    grid = make_grid(args.n, args.L, args.N)
    w = default_weight(grid, sigma=args.sigma, amplitude=args.amplitude)
    gp = ground_pair(w)
    W, u0 = standing_wave_potential(gp)
    from .groundstate import constraint_value

    print(f"mu: {gp.mu:.12f}")
    print(f"residual: {gp.residual:.3e}")
    print(f"constraint: {constraint_value(gp):.12f}")
    print(f"iterations: {gp.iterations}")
    if args.out:
        bundle = ResultBundle(out_dir=args.out, command="eigensolve")
        bundle.write_snapshot("weight.strz", w)
        bundle.write_snapshot("potential.strz", W)
        bundle.write_snapshot("groundstate.strz", u0)
        bundle.summary.update(
            {"mu": gp.mu, "residual": gp.residual, "iterations": gp.iterations,
             "grid": {"n": args.n, "N": args.N, "L": args.L}}
        )
        print(f"summary: {bundle.finalize()}")
    return EXIT_OK


def cmd_partition(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    base_dir = Path(args.config).parent
    grid = _grid_from_config(cfg)
    V = potential_from_config(cfg, base_dir=base_dir)
    _check_profile_grids(V, grid)
    r = cfg.get_exponent("partition", "r", required=True)
    s = cfg.get_exponent("partition", "s", required=True)
    tau = cfg.get_float("partition", "tau", required=True)
    dt = cfg.get_float("partition", "dt", default=0.01)
    t0 = cfg.get_float("partition", "t0", default=0.0)
    t1 = cfg.get_float("partition", "t1", required=True)
    part = partition_interval(V, r, s, (t0, t1), tau=tau, dt=dt)
    bundle = ResultBundle(out_dir=args.out, command="partition",
                          config_hash=cfg.config_hash())
    bundle.write_csv(
        "pieces.csv",
        ("k", "start", "length", "eps", "piece_norm"),
        [
            (i + 1, a, b - a, 1.0, nrm)
            for i, ((a, b), nrm) in enumerate(zip(part.pieces, part.piece_norms))
        ],
    )
    bundle.summary.update({"pieces": len(part), "tau": tau,
                           "total_norm": mixed_norm(V, r, s, (t0, t1), dt=dt)})
    path = bundle.finalize()
    print(f"pieces: {len(part)}")
    print(f"summary: {path}")
    return EXIT_OK


def cmd_counterexample(args) -> int:
    kind = ScheduleKind(args.kind)
    pairs = parse_pairs(args.pairs)
    grid = make_grid(args.n, args.grid_L, args.grid_N)
    gp = ground_pair(default_weight(grid, sigma=1.0))
    W, u0 = standing_wave_potential(gp)
    if args.params_mode == "growth":
        params = schedule_params_for_growth(kind, args.r, args.s, args.n)
    else:
        params = default_params(kind, args.r, args.s, args.n)
    family = build_family(kind, args.r, args.s, args.n, W, u0, K=args.K, params=params)
    series = [ratio_series(family, p, q) for p, q in pairs]

    bundle = ResultBundle(out_dir=args.out, command="counterexample")
    bundle.write_csv(
        "windows.csv",
        ("k", "start", "length", "eps", "piece_norm"),
        schedule_rows(family.schedule, args.r, args.s, lq_norm(W, args.s)),
    )
    for rs in series:
        p, q = rs.pair
        name = f"ratios_{p}_{q}.csv".replace("/", "-")
        bundle.write_csv(
            name,
            ("k", "start", "length", "eps", "R_k"),
            [
                (w.k, w.start, w.length, w.eps, float(v))
                for w, v in zip(family.schedule.windows, rs.ratios)
            ],
        )
    verdicts = {}
    for rs in series:
        p, q = rs.pair
        key = f"{p},{q}"
        entry = {
            "predicted_slope": rs.predicted_slope,
            "fitted_slope": rs.fitted_slope,
            "growth_R_last_over_R_first": float(rs.ratios[-1] / rs.ratios[0]),
        }
        if p.is_infinite:
            entry["verdict"] = "constant (energy pair excluded from divergence)"
        elif rs.fitted_slope is None:
            entry["verdict"] = "single window: no fit"
        else:
            rel = abs(rs.fitted_slope - rs.predicted_slope) / max(rs.predicted_slope, 1e-300)
            entry["verdict"] = "diverges" if rel < 0.1 and entry[
                "growth_R_last_over_R_first"] > 1 else "inconclusive"
        verdicts[key] = entry
    bound = family.analytic_norm
    bundle.summary.update(
        {
            "kind": kind.value,
            "r": str(args.r),
            "s": str(args.s),
            "n": args.n,
            "K": args.K,
            "alpha": str(params.alpha),
            "beta": str(params.beta),
            "potential_norm_partial": float(bound.partial_sums[-1]),
            "potential_norm_tail_bound": float(bound.tail_bound),
            "potential_norm_total": float(bound.total),
            "pairs": verdicts,
        }
    )
    path = bundle.finalize()
    for key, entry in verdicts.items():
        print(f"pair ({key}): predicted {entry['predicted_slope']:.4f} "
              f"fitted {entry['fitted_slope'] if entry['fitted_slope'] is not None else 'n/a'} "
              f"-> {entry['verdict']}")
    print(f"potential norm <= {bound.total:.6f} (certified tail bound)")
    print(f"summary: {path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    keys = args.criteria.split(",") if args.criteria else None
    results = acceptance.run_all(keys=keys, verbose=args.verbose)
    if all(r.passed for r in results):
        print(f"verify: all {len(results)} criteria passed")
        return EXIT_OK
    failed = [r.key for r in results if not r.passed]
    print(f"verify: FAILED criteria: {', '.join(failed)}")
    return EXIT_VERIFY


_COMMANDS = {
    "admissible": cmd_admissible,
    "params": cmd_params,
    "simulate": cmd_simulate,
    "eigensolve": cmd_eigensolve,
    "partition": cmd_partition,
    "counterexample": cmd_counterexample,
    "verify": cmd_verify,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _NUMERICAL_ERRORS as exc:
        print(f"error ({args.command}): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _VALIDATION_ERRORS as exc:
        print(f"invalid input ({args.command}): {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except _IO_ERRORS as exc:
        print(f"i/o error ({args.command}): {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
