"""Command-line pipeline: fit, transform, audit, sweep, presets, validate.

Exit codes are a stable contract: 0 success, 2 infeasible optimization,
3 configuration/usage error, 4 I/O or data error, 5 a KL objective that
is infinite on the whole feasible set.  Every artifact embeds
the configuration fingerprint; audit and transform refuse artifacts fit
under a different configuration unless explicitly overridden.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from typing import Optional

import numpy as np
import yaml

from . import __version__
from .audit import (
    audit_discrimination,
    audit_distortion,
    audit_utility,
    check_estimation_discrimination,
    cohort_delta_table,
    map_advantage,
    pushforward_joint,
    robustness_bounds,
)
from .config import PipelineConfig, load_config
from .dataio import read_dataset, read_kernel, write_dataset, write_kernel
from .domain import estimate_empirical, l1_distance
from .errors import (
    ConfigError,
    EmptyDatasetError,
    FairmapError,
    InvalidParamsError,
    LengthMismatchError,
    MissingOutcomeError,
    ProvenanceMismatchError,
    SchemaMismatchError,
)
from .optimizer import Problem, assemble, sof_solve, solve, sweep_epsilon
from .presets import preset_dict, preset_names
from .transform import derive_apply_kernel, transform_apply, transform_train

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_CONFIG = 3
EXIT_IO = 4
EXIT_INFINITE = 5


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return str(obj)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _read_input(config: PipelineConfig, path: str, apply_filters: bool = True):
    """Records of a file laid out like the configured input."""
    return read_dataset(
        path,
        config.schema,
        delimiter=config.delimiter,
        has_header=config.has_header,
        columns=config.columns,
        filters=config.filters,
        apply_filters=apply_filters,
    )


def _load_training(config: PipelineConfig):
    dataset = _read_input(config, config.input_path)
    return dataset, estimate_empirical(dataset)


def _assemble(config: PipelineConfig, pmf) -> Problem:
    return assemble(
        pmf,
        config.discrimination,
        config.metric,
        config.budget,
        objective=config.objective,
    )


def _solve(config: PipelineConfig, problem: Problem):
    if config.solver.strategy == "full":
        return solve(problem, tol=config.solver.tol, max_iters=config.solver.max_iters)
    strategy = (
        "fix_conditional"
        if config.solver.strategy == "sof_fix_conditional"
        else "alternating"
    )
    return sof_solve(
        problem,
        strategy=strategy,
        tol=config.solver.tol,
        max_outer=config.solver.max_outer,
        max_iters=config.solver.max_iters,
    )


def _ensure_out(config: PipelineConfig, override: Optional[str]) -> str:
    out = override or config.output_dir
    os.makedirs(out, exist_ok=True)
    return out


def _solution_payload(sol, config: PipelineConfig) -> dict:
    payload = {
        "fingerprint": config.fingerprint(),
        "status": sol.status,
        "objective": sol.objective,
        "residual": sol.residual,
        "certificate": sol.certificate,
        "iterations": sol.iterations,
    }
    diag = {
        k: v
        for k, v in sol.diagnostics.items()
        if k in ("worst_constraint", "worst_violation", "violation_by_family",
                 "objective_trace", "strategy", "lower_bound", "outer_iterations",
                 "f_divergence_lower_bound", "certificate_note",
                 "uncovered_cell", "simplex_iterations")
    }
    if diag:
        payload["diagnostics"] = diag
    return payload


def cmd_fit(args) -> int:
    config = load_config(args.config)
    out_dir = _ensure_out(config, args.out_dir)
    dataset, pmf = _load_training(config)
    problem = _assemble(config, pmf)
    sol = _solve(config, problem)
    payload = _solution_payload(sol, config)
    payload["n_records"] = len(dataset)
    payload["warnings"] = list(problem.warnings)
    _write_json(os.path.join(out_dir, "fit_report.json"), payload)
    lines = [
        f"fairmap fit ({config.objective} objective)",
        f"  fingerprint {config.fingerprint()}",
        f"  status      {sol.status}",
        f"  objective   {sol.objective:.9g}",
        f"  residual    {sol.residual:.3g}",
        f"  certificate {sol.certificate:.3g}",
        f"  records     {len(dataset)}",
    ]
    if sol.status == "infeasible":
        lines.append(
            "  most violated: "
            f"{sol.diagnostics.get('worst_constraint', '?')}"
            f" by {sol.diagnostics.get('worst_violation', float('nan')):.3g}"
        )
    if sol.status == "infinite_objective":
        lines.append(
            "  uncovered:   "
            f"{sol.diagnostics.get('uncovered_cell', '?')}"
            " gets no mass from any feasible transform"
        )
    with open(os.path.join(out_dir, "fit_report.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    if sol.status == "infeasible":
        return EXIT_INFEASIBLE
    if sol.status == "infinite_objective":
        return EXIT_INFINITE
    provenance = {
        "fingerprint": config.fingerprint(),
        "objective": config.objective,
        "tol": config.solver.tol,
    }
    write_kernel(
        os.path.join(out_dir, "kernel.csv"), replace(sol.kernel, provenance=provenance)
    )
    return EXIT_OK


def cmd_transform(args) -> int:
    config = load_config(args.config)
    out_dir = _ensure_out(config, args.out_dir)
    kernel = read_kernel(
        args.kernel,
        config.schema,
        expected_fingerprint=config.fingerprint(),
        allow_mismatch=args.allow_provenance_mismatch,
    )
    seed = args.seed_override if args.seed_override is not None else config.seed
    dataset = _read_input(
        config, args.input or config.input_path, apply_filters=not args.no_filters
    )
    if args.mode == "train":
        transformed = transform_train(dataset, kernel, seed)
    else:
        if not args.input and not args.no_filters:
            pmf = estimate_empirical(dataset)  # dataset is the training data
        else:
            _, pmf = _load_training(config)
        mapper = derive_apply_kernel(kernel, pmf)
        for warning in mapper.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        transformed = transform_apply(dataset, mapper, seed)
    out_path = os.path.join(out_dir, f"transformed_{args.mode}.csv")
    write_dataset(out_path, transformed, delimiter=config.delimiter,
                  fingerprint=config.fingerprint())
    print(f"wrote {out_path} ({len(transformed)} records, seed {seed})")
    return EXIT_OK


def _discrimination_section(report, schema) -> dict:
    return {
        "rates": {
            schema.d_label(d): report.rates[d].tolist()
            for d in range(schema.nd)
            if report.rates[d].sum() > 0
        },
        "per_group_j": {
            f"y={schema.y_label(y)},d={schema.d_label(d)}": j
            for (y, d), j in sorted(report.per_group.items())
        },
        "pairwise_j": {
            f"y={schema.y_label(y)},{schema.d_label(d1)}|{schema.d_label(d2)}": j
            for (y, d1, d2), j in sorted(report.pairwise.items())
        },
        "max_j": report.max_j,
    }


def _rates_table(before, after, schema) -> list[str]:
    lines = [
        "  group            p(y=0) before  p(y=1) before  p(y=0) after  p(y=1) after"
    ]
    for d in range(schema.nd):
        if before.rates[d].sum() <= 0:
            continue
        b0, b1 = before.rates[d]
        a0, a1 = after.rates[d] if after is not None else (float("nan"),) * 2
        lines.append(
            f"  {schema.d_label(d):<16} {b0:>13.3f}  {b1:>13.3f}"
            f"  {a0:>12.3f}  {a1:>12.3f}"
        )
    return lines


def cmd_audit(args) -> int:
    config = load_config(args.config)
    out_dir = _ensure_out(config, args.out_dir)
    schema = config.schema
    original = _read_input(config, args.original or config.input_path)
    pmf = estimate_empirical(original)
    spec = config.discrimination
    target = spec.target if spec.target is not None else pmf.p_y()

    kernel = None
    if args.kernel:
        kernel = read_kernel(
            args.kernel,
            schema,
            expected_fingerprint=config.fingerprint(),
            allow_mismatch=args.allow_provenance_mismatch,
        )
    transformed = None
    if args.transformed:
        # artifacts this package writes are self-describing: header row
        # plus a provenance comment, regardless of the raw input's layout
        transformed = read_dataset(
            args.transformed,
            schema,
            delimiter=config.delimiter,
            has_header=True,
            filters=(),
            apply_filters=False,
            expected_fingerprint=config.fingerprint(),
            allow_mismatch=args.allow_provenance_mismatch,
        )
    if kernel is None and transformed is None:
        raise ConfigError("audit needs --kernel and/or --transformed")

    payload: dict = {"fingerprint": config.fingerprint(), "n_records": len(original)}
    before = audit_discrimination(pmf, spec)
    payload["discrimination_before"] = _discrimination_section(before, schema)
    after = None
    if kernel is not None:
        after = audit_discrimination(pmf, spec, kernel=kernel, target=target)
        payload["discrimination_after"] = _discrimination_section(after, schema)
        util = audit_utility(pmf, kernel)
        payload["utility"] = {"kl": util.kl, "l1": util.l1}
        joint_after = pushforward_joint(pmf, kernel).sum(axis=1)
        adv_after = map_advantage(joint_after)
        eps_scalar = (
            float(spec.epsilon)
            if np.isscalar(spec.epsilon)
            else max(spec.epsilon.values())
        )
        verdict = check_estimation_discrimination(
            joint_after, eps_scalar, target=target
        )
        payload["advantage"] = {
            "before": map_advantage(pmf.p_dy()).advantage,
            "after": adv_after.advantage,
            "after_map_probability": adv_after.map_probability,
            "epsilon": eps_scalar,
            "exceeds_bound": verdict.exceeds,
        }
        c_m = float(joint_after.min()) if joint_after.min() > 0 else float("nan")
        if pmf.n and joint_after.min() > 0:
            bound = robustness_bounds(
                n=pmf.n,
                beta=args.beta,
                m=schema.nd * schema.nx * schema.ny,
                c_m=c_m,
                epsilon=eps_scalar,
                mu=util.l1,
                joint_dy=joint_after,
            )
            payload["robustness"] = {
                "n": bound.n, "beta": bound.beta, "m": bound.m, "c_m": bound.c_m,
                "tau": bound.tau, "h": bound.h,
                "group_rate_interval": [bound.interval_low, bound.interval_high],
                "eps_drift_exact": bound.eps_drift_exact,
                "eps_drift_linearized": bound.eps_drift_linearized,
                "linearization_flagged": bound.linearization_flagged,
                "mu_drift": bound.mu_drift,
                "asymptotic_rate": bound.asymptotic_rate,
                "small_tau_valid": bound.valid,
            }
        rows = cohort_delta_table(pmf, kernel=kernel,
                                  min_count=spec.min_cell_count)
        _write_cohort_csv(
            os.path.join(out_dir, "cohort_deltas.csv"), rows, config.fingerprint()
        )
    if transformed is not None and not transformed.has_outcomes:
        # apply-mode artifact: no transformed outcomes to audit against
        emp_x = np.zeros(schema.nx)
        np.add.at(emp_x, transformed.x, 1.0)
        payload["feature_drift_l1"] = l1_distance(pmf.p_x(), emp_x / emp_x.sum())
        payload["note"] = (
            "transformed file carries no outcomes; outcome-level sections"
            " need a train-mode artifact"
        )
    elif transformed is not None:
        emp = audit_discrimination(transformed, spec, target=target)
        payload["discrimination_empirical"] = _discrimination_section(emp, schema)
        p_emp = estimate_empirical(transformed) if transformed.has_outcomes else None
        if p_emp is not None:
            payload["utility_empirical"] = {
                "l1": l1_distance(pmf.p_xy(), p_emp.p_xy()),
            }
            if config.metric is not None:
                thresholds = (
                    [t for t, _ in config.budget.pairs]
                    if config.budget.mode == "thresholded"
                    else []
                )
                summary = audit_distortion(
                    original, transformed, config.metric, thresholds=thresholds
                )
                payload["distortion"] = {
                    "mean": summary.mean,
                    "max": summary.max,
                    "exceedance": summary.exceedance,
                }

    _write_json(os.path.join(out_dir, "audit_report.json"), payload)
    lines = ["fairmap audit", f"  fingerprint {config.fingerprint()}"]
    lines += ["", "Outcome rates by group (before / after):"]
    lines += _rates_table(before, after if after is not None else None, schema)
    if after is not None:
        lines += ["", f"  max J after (analytic): {after.max_j:.6f}"]
    if "utility" in payload:
        lines += [
            "",
            f"  utility loss: KL {payload['utility']['kl']:.6g}"
            f"  l1 {payload['utility']['l1']:.6g}",
        ]
    with open(os.path.join(out_dir, "audit_report.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK


def _write_cohort_csv(path: str, rows, fingerprint: str) -> None:
    import csv as _csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# fairmap-report fingerprint={fingerprint}\n")
        writer = _csv.writer(fh)
        writer.writerow(["x", "d", "before", "after", "delta", "count"])
        for r in rows:
            writer.writerow(
                [r.x_label, r.d_label or "(all)", f"{r.before:.6f}",
                 f"{r.after:.6f}", f"{r.delta:+.6f}", r.count]
            )


def _parse_grid(text: str) -> list[float]:
    grid = [float(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]
    if not grid:
        raise ConfigError("empty epsilon grid")
    return grid


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    if config.solver.strategy != "full":
        raise ConfigError(
            f"sweep solves the full program only; solver.strategy"
            f" {config.solver.strategy!r} is not supported"
        )
    out_dir = _ensure_out(config, args.out_dir)
    _, pmf = _load_training(config)
    problem = _assemble(config, pmf)
    grid = _parse_grid(args.eps_grid)
    result = sweep_epsilon(
        problem, grid, tol=config.solver.tol, max_iters=config.solver.max_iters
    )
    csv_path = os.path.join(out_dir, "sweep.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(f"# fairmap-report fingerprint={config.fingerprint()}\n")
        fh.write("epsilon,status,objective\n")
        for e in result.entries:
            fh.write(f"{e.epsilon:.9g},{e.status},{e.objective:.9g}\n")
    _write_json(
        os.path.join(out_dir, "sweep.json"),
        {
            "fingerprint": config.fingerprint(),
            "entries": [
                {"epsilon": e.epsilon, "status": e.status, "objective": e.objective}
                for e in result.entries
            ],
            "monotone_nonincreasing": result.monotone_nonincreasing,
            "infeasible_boundary": result.infeasible_boundary,
            "zero_boundary": result.zero_boundary,
        },
    )
    for e in result.entries:
        print(f"  eps={e.epsilon:<8g} {e.status:<16} objective={e.objective:.6g}")
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_presets(args) -> int:
    if args.name:
        print(yaml.safe_dump(preset_dict(args.name), sort_keys=True), end="")
    else:
        for name in preset_names():
            print(name)
    return EXIT_OK


def cmd_validate(args) -> int:
    config = load_config(args.config)
    print(config.to_yaml(), end="")
    print(f"# fingerprint: {config.fingerprint()}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairmap",
        description=(
            "Learn, apply, and audit randomized pre-processing transforms"
            " that trade off group fairness, individual distortion, and"
            " data utility."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="learn a transformation kernel")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("transform", help="apply a fitted kernel to data")
    p.add_argument("--config", required=True)
    p.add_argument("--kernel", required=True)
    p.add_argument("--mode", choices=["train", "apply"], default="train")
    p.add_argument("--input", help="data file (defaults to the config input)")
    p.add_argument("--out-dir")
    p.add_argument("--seed-override", type=int)
    p.add_argument("--no-filters", action="store_true",
                   help="skip config row filters (pre-filtered input)")
    p.add_argument("--allow-provenance-mismatch", action="store_true")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("audit", help="before/after fairness and utility report")
    p.add_argument("--config", required=True)
    p.add_argument("--kernel")
    p.add_argument("--transformed")
    p.add_argument("--original", help="defaults to the config input")
    p.add_argument("--out-dir")
    p.add_argument("--beta", type=float, default=0.05,
                   help="failure probability for the robustness bounds")
    p.add_argument("--allow-provenance-mismatch", action="store_true")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("sweep", help="objective vs discrimination budget")
    p.add_argument("--config", required=True)
    p.add_argument("--eps-grid", required=True,
                   help="comma-separated ascending epsilons")
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("presets", help="list or dump built-in configurations")
    p.add_argument("--name")
    p.set_defaults(func=cmd_presets)

    p = sub.add_parser("validate", help="check a config and print its"
                                        " canonical form")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ProvenanceMismatchError, InvalidParamsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        OSError,
        EmptyDatasetError,
        SchemaMismatchError,
        LengthMismatchError,
        MissingOutcomeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except FairmapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
