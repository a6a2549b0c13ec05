"""Command-line pipeline: fit, transform, audit, sweep, presets, validate.

Exit codes are a stable contract: 0 success, 2 infeasible optimization,
3 configuration/usage error, 4 I/O or data error, 5 a KL objective that
is infinite on the whole feasible set.  A solver failure
(``NumericalBreakdownError``, naming the LP and HiGHS's status) exits 3.

Every artifact starts with one provenance record naming the
configuration fingerprint; a kernel's and a transformed file's name the
SHA-256 of the data they stand for as well.  ``_check_provenance`` is
the one place that decides what those records must match: it runs
before ``transform`` or ``audit`` parses any artifact or the training
file, and ``--allow-provenance-mismatch`` waives its mismatches.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace
from functools import cache
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
from .dataio import (
    TRAINING_FILE,
    file_sha256,
    provenance_line,
    provenance_records,
    read_dataset,
    read_kernel,
    read_training,
    write_dataset,
    write_kernel,
    write_training,
)
from .domain import estimate_empirical, l1_distance
from .errors import (
    ConfigError,
    EmptyDatasetError,
    FairmapError,
    LengthMismatchError,
    MissingOutcomeError,
    ProvenanceMismatchError,
    SchemaMismatchError,
)
from .optimizer import Problem, assemble, sof_solve, solve, sweep_epsilon
from .presets import preset_dict, preset_names
from .solver import STATUS_INFEASIBLE, STATUS_INFINITE
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


def _read_input(config: PipelineConfig, path: str, filtered: bool = True):
    """Records of a file laid out like the configured input, with the
    configured row filters unless ``filtered`` is false."""
    return read_dataset(
        path,
        config.schema,
        delimiter=config.delimiter,
        has_header=config.has_header,
        columns=config.columns,
        filters=config.filters if filtered else (),
    )


def _training_binding(config: PipelineConfig, data_sha256: str) -> dict:
    """What the training records depend on: the file's bytes, the layout
    it is read with, and the configuration (schema and filters)."""
    return {
        "data_sha256": data_sha256,
        "fingerprint": config.fingerprint(),
        "input": repr((config.delimiter, config.has_header, config.columns)),
    }


def _check_provenance(config: PipelineConfig, args, reads_training: bool,
                      kernel: Optional[str] = None,
                      transformed: Optional[str] = None) -> Optional[str]:
    """Refuse the artifacts at ``kernel`` and ``transformed`` (paths or
    None) before anything is parsed: one with more than one provenance
    line; then, unless ``--allow-provenance-mismatch``, a record under
    another fingerprint and, when the run reads the training file, a
    ``data_sha256`` other than that file's.  Returns that file's SHA-256
    when it is read and a record names one (the key of the
    ``training.npz`` cache), else None."""
    allow, expected = args.allow_provenance_mismatch, config.fingerprint()
    records = []
    for path, kind, what in ((kernel, "kernel", "kernel was fit"),
                             (transformed, "data", "data file was produced")):
        found = provenance_records(path, kind) if path else []
        if len(found) > 1:
            raise ProvenanceMismatchError(f"{path} has {len(found)} provenance lines")
        fingerprint = found[0].get("fingerprint", "") if found else expected
        if fingerprint != expected and not allow:
            raise ProvenanceMismatchError(
                f"{what} under fingerprint {fingerprint!r}, configuration is {expected!r}")
        records += found
    recorded = {r["data_sha256"] for r in records if "data_sha256" in r}
    if not (reads_training and recorded):
        return None
    digest = file_sha256(config.input_path)
    if recorded != {digest} and not allow:
        raise ProvenanceMismatchError(
            f"{config.input_path} has data_sha256 {digest}, the artifacts "
            f"record data_sha256 {' '.join(sorted(recorded - {digest}))}"
        )
    return digest


def _training_records(config: PipelineConfig, args, digest: Optional[str]):
    """The records of the training file: those saved in the
    ``training.npz`` beside ``args.kernel`` when it was saved from the
    bytes whose SHA-256 is ``digest`` under this configuration, else the
    file parsed.  The sidecar is only a cache; a None ``digest`` parses."""
    if digest is not None and args.kernel:
        saved = read_training(
            os.path.join(os.path.dirname(args.kernel), TRAINING_FILE),
            config.schema, _training_binding(config, digest))
        if saved is not None:
            return saved
    return _read_input(config, config.input_path)


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
    return sof_solve(
        problem,
        strategy=config.solver.strategy.removeprefix("sof_"),
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
    # the factorized solver's two factor arrays are kernel-sized data
    diag = {
        k: v
        for k, v in sol.diagnostics.items()
        if k not in ("sof_y_given_xhat", "sof_xhat_given_dxy")
    }
    if diag:
        payload["diagnostics"] = diag
    return payload


def cmd_fit(args) -> int:
    config = load_config(args.config)
    out_dir = _ensure_out(config, args.out_dir)
    digest = file_sha256(config.input_path)
    dataset = _read_input(config, config.input_path)
    problem = _assemble(config, estimate_empirical(dataset))
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
    if sol.status == STATUS_INFEASIBLE:
        lines.append(
            "  most violated: "
            f"{sol.diagnostics.get('worst_constraint', '?')}"
            f" by {sol.diagnostics.get('worst_violation', float('nan')):.3g}"
        )
    if sol.status == STATUS_INFINITE:
        lines.append(
            "  uncovered:   "
            f"{sol.diagnostics.get('uncovered_cell', '?')}"
            " gets no mass from any feasible transform"
        )
    with open(os.path.join(out_dir, "fit_report.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    if sol.status == STATUS_INFEASIBLE:
        return EXIT_INFEASIBLE
    if sol.status == STATUS_INFINITE:
        return EXIT_INFINITE
    provenance = {
        "fingerprint": config.fingerprint(),
        "objective": config.objective,
        "tol": config.solver.tol,
        "data_sha256": digest,
        "n_records": len(dataset),
    }
    write_kernel(
        os.path.join(out_dir, "kernel.csv"), replace(sol.kernel, provenance=provenance)
    )
    write_training(os.path.join(out_dir, TRAINING_FILE), dataset,
                   _training_binding(config, digest))
    return EXIT_OK


def cmd_transform(args) -> int:
    config = load_config(args.config)
    out_dir = _ensure_out(config, args.out_dir)
    training = not args.input and not args.no_filters
    digest = _check_provenance(config, args, training or args.mode == "apply",
                               kernel=args.kernel)
    kernel = read_kernel(args.kernel, config.schema)
    seed = args.seed_override if args.seed_override is not None else config.seed
    dataset = _training_records(config, args, digest) if training else _read_input(
        config, args.input or config.input_path, filtered=not args.no_filters
    )
    if args.mode == "train":
        transformed = transform_train(dataset, kernel, seed)
    else:
        pmf = estimate_empirical(
            dataset if training else _training_records(config, args, digest))
        mapper = derive_apply_kernel(kernel, pmf)
        for warning in mapper.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        transformed = transform_apply(dataset, mapper, seed)
    # the data a file stands for: the rows a train-mode file was drawn
    # from, the training data behind an apply-mode file's p(y | d, x)
    source = (file_sha256(args.input) if args.input and args.mode == "train"
              else kernel.provenance.get("data_sha256"))
    record = {"fingerprint": config.fingerprint(), "data_sha256": source}
    out_path = os.path.join(out_dir, f"transformed_{args.mode}.csv")
    write_dataset(out_path, transformed, delimiter=config.delimiter,
                  record={k: v for k, v in record.items() if v is not None})
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
            f"y={schema.y_label(y)},d1={schema.d_label(d1)},d2={schema.d_label(d2)}": j
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
    if not (args.kernel or args.transformed):
        raise ConfigError("audit needs --kernel and/or --transformed")
    config = load_config(args.config)
    out_dir = _ensure_out(config, args.out_dir)
    schema = config.schema
    digest = _check_provenance(config, args, not args.original,
                               kernel=args.kernel, transformed=args.transformed)
    kernel = read_kernel(args.kernel, schema) if args.kernel else None
    original = (_read_input(config, args.original) if args.original
                else _training_records(config, args, digest))
    pmf = estimate_empirical(original)
    spec = config.discrimination
    target = spec.target if spec.target is not None else pmf.p_y()

    # a transformed file has a header row whatever the input's layout
    transformed = (read_dataset(args.transformed, schema, delimiter=config.delimiter)
                   if args.transformed else None)

    payload: dict = {"fingerprint": config.fingerprint(), "n_records": len(original)}
    before = audit_discrimination(pmf, spec)
    payload["discrimination_before"] = _discrimination_section(before, schema)
    after = emp = None
    if kernel is not None:
        after = audit_discrimination(pmf, spec, kernel=kernel, target=target)
        payload["discrimination_after"] = _discrimination_section(after, schema)
        util = audit_utility(pmf, kernel)
        payload["utility"] = {"kl": util.kl, "l1": util.l1}
        joint_after = pushforward_joint(pmf, kernel).sum(axis=1)
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
            "after": verdict.report.advantage,
            "after_map_probability": verdict.report.map_probability,
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
        p_emp = estimate_empirical(transformed)
        payload["utility_empirical"] = {
            "l1": l1_distance(pmf.p_xy(), p_emp.p_xy()),
        }
        if config.metric is not None:
            thresholds = [t for t, _ in config.budget.pairs if t is not None]
            summary = audit_distortion(
                original, transformed, config.metric, thresholds=thresholds
            )
            payload["distortion"] = {
                "mean": summary.mean,
                "max": summary.max,
                "exceedance": summary.exceedance,
            }
    # groups the reports skipped, each named once, in report order
    warnings = dict.fromkeys(w for report in (before, after, emp) if report is not None
                             for w in report.warnings)
    if warnings:
        payload["warnings"] = list(warnings)

    _write_json(os.path.join(out_dir, "audit_report.json"), payload)
    lines = ["fairmap audit", f"  fingerprint {config.fingerprint()}"]
    lines += ["", "Outcome rates by group (before / after):"]
    lines += _rates_table(before, after, schema)
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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(provenance_line("report", {"fingerprint": fingerprint}))
        writer = csv.writer(fh)
        writer.writerow(["x", "d", "before", "after", "delta", "count"])
        for r in rows:
            writer.writerow(
                [r.x_label, r.d_label or "(all)", f"{r.before:.6f}",
                 f"{r.after:.6f}", f"{r.delta:+.6f}", r.count]
            )


def _parse_grid(text: str) -> list[float]:
    grid = []
    for tok in filter(str.strip, text.replace(";", ",").split(",")):
        try:
            grid.append(float(tok))
        except ValueError:
            raise ConfigError(f"--eps-grid: {tok.strip()!r} is not a number") from None
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
    grid = _parse_grid(args.eps_grid)
    out_dir = _ensure_out(config, args.out_dir)
    dataset = _read_input(config, config.input_path)
    problem = _assemble(config, estimate_empirical(dataset))
    result = sweep_epsilon(
        problem, grid, tol=config.solver.tol, max_iters=config.solver.max_iters
    )
    csv_path = os.path.join(out_dir, "sweep.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(provenance_line("report", {"fingerprint": config.fingerprint()}))
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


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors (an unknown flag, a missing required
    one) print the usage and raise ``ConfigError``, so that they exit 3
    with one ``error:`` line, not argparse's 2, which means infeasible
    here.  ``--help`` and ``--version`` still exit 0."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


@cache  # parsing leaves the parser as it is, so one serves every in-process call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
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
