"""Span recorder for the traced run, wrapping fairmap from the outside.

Spans are recorded around the public functions of each layer, at the
names their callers look up: the CLI calls ``fairmap.cli.read_dataset``,
so that is the attribute replaced, not ``fairmap.dataio.read_dataset``.
The same holds for ``fairmap.optimizer.solve``/``solve_kl``/``solve_tv``
(looked up inside the optimizer module) and ``fairmap.solver.linprog``/
``phase1_violation`` (looked up inside the solver module).

Each span has a name, start, end, parent and the id of the pass it
belongs to.  Spans stay in memory and are written as JSONL at the end.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Callable, Optional


class Recorder:
    """Nested spans for one process; wrappers are installed per step."""

    def __init__(self):
        self.spans: list[dict] = []
        self.pass_id = 0
        self.rows_by_path: dict[str, int] = {}
        self._stack: list[dict] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "pass": self.pass_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name, note: Optional[Callable] = None):
        """Replace ``module.attr`` by a spanning wrapper.  ``name`` is a
        span name or a function of the call's arguments; ``note(rec, args,
        kwargs, result)`` adds counts to the span after it closes."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            with self.span(span_name) as rec:
                result = original(*args, **kwargs)
            if note is not None:
                note(rec, args, kwargs, result)
            return result

        self._patches.append((module, attr, original))
        setattr(module, attr, traced)

    def unwrap_all(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write_jsonl(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header}, default=str) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec, default=str) + "\n")


# per-layer metric -> unit, in report order
LAYER_UNITS = {
    "dataio.read_s": "s", "dataio.read_calls": "count",
    "dataio.rows_in": "count", "dataio.kept_ratio": "ratio",
    "dataio.us_per_row_read": "us", "dataio.write_s": "s",
    "dataio.rows_written": "count", "dataio.kernel_io_s": "s",
    "transform.sample_s": "s", "transform.records": "count",
    "transform.us_per_record": "us", "transform.derive_apply_s": "s",
    "audit.analytic_s": "s", "audit.empirical_s": "s",
    "cli.self_s": "s", "config.load_s": "s", "domain.estimate_s": "s",
    "optimizer.assemble_s": "s", "optimizer.n_vars": "count",
    "optimizer.n_constraints": "count",
    "solver.solve_s": "s", "solver.lp_calls": "count",
    "solver.start_lp_s": "s", "solver.oracle_lp_s": "s",
    "solver.l1_lp_s": "s", "solver.phase1_lp_s": "s", "solver.self_s": "s",
    "solver.lp_s_per_call": "s", "solver.fw_iterations": "count",
    "solver.atoms": "count", "solver.atoms_per_oracle_call": "ratio",
    "solver.infeasible_solves": "count",
}


def duration(rec: dict) -> float:
    return rec["end"] - rec["start"]


def child_time(spans: list[dict]) -> dict[int, float]:
    """Summed duration of each span's direct children, by parent id."""
    covered: dict[int, float] = {}
    for rec in spans:
        if rec["parent"] is not None:
            covered[rec["parent"]] = covered.get(rec["parent"], 0.0) + duration(rec)
    return covered


def self_time(rec: dict, covered: dict[int, float]) -> float:
    return duration(rec) - covered.get(rec["id"], 0.0)


def children_within_parents(spans: list[dict]) -> list[str]:
    """Spans whose direct children add up to more than the span itself
    (children of one parent run serially, so this must never happen)."""
    covered = child_time(spans)
    return [
        f"{rec['name']}#{rec['id']}: children {covered[rec['id']]:.6f}s"
        f" > span {duration(rec):.6f}s"
        for rec in spans
        if covered.get(rec["id"], 0.0) > duration(rec) + 1e-9
    ]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer seconds and counts of one pass's spans."""
    by_id = {rec["id"]: rec for rec in spans}
    covered = child_time(spans)

    def total(*names: str) -> float:
        return sum(duration(r) for r in spans if r["name"] in names)

    def count(*names: str) -> int:
        return sum(1 for r in spans if r["name"] in names)

    def attr_sum(name: str, key: str) -> float:
        return sum(r.get(key, 0) for r in spans if r["name"] == name)

    solves = [r for r in spans if r["name"] in ("solver.solve_kl", "solver.solve_tv")]
    lps = [r for r in spans if r["name"] == "solver.linprog"]
    split = {"start": 0.0, "oracle": 0.0, "l1": 0.0}
    oracle_calls = 0
    first_lp_seen: set[int] = set()
    for lp in lps:
        parent = by_id.get(lp["parent"])
        kind = parent["name"] if parent is not None else ""
        if kind == "solver.solve_kl":
            if lp["parent"] in first_lp_seen:
                split["oracle"] += duration(lp)
                oracle_calls += 1
            else:
                first_lp_seen.add(lp["parent"])
                split["start"] += duration(lp)
        elif kind == "solver.solve_tv":
            split["l1"] += duration(lp)
    lp_s = sum(duration(r) for r in lps)
    rows_in = attr_sum("dataio.read", "rows_in")
    read_s = total("dataio.read")
    records = attr_sum("transform.sample", "records")
    sample_s = total("transform.sample")
    atoms = attr_sum("solver.solve_kl", "atoms")
    return {
        "dataio.read_s": read_s,
        "dataio.read_calls": count("dataio.read"),
        "dataio.rows_in": rows_in,
        "dataio.kept_ratio": attr_sum("dataio.read", "rows_kept") / rows_in
        if rows_in else 0.0,
        "dataio.us_per_row_read": 1e6 * read_s / rows_in if rows_in else 0.0,
        "dataio.write_s": total("dataio.write"),
        "dataio.rows_written": attr_sum("dataio.write", "rows"),
        "dataio.kernel_io_s": total("dataio.kernel_io"),
        "transform.sample_s": sample_s,
        "transform.records": records,
        "transform.us_per_record": 1e6 * sample_s / records if records else 0.0,
        "transform.derive_apply_s": total("transform.derive_apply"),
        "audit.analytic_s": total("audit.analytic"),
        "audit.empirical_s": total("audit.empirical"),
        "cli.self_s": sum(
            self_time(r, covered) for r in spans if r["name"].startswith("cli.")
        ),
        "config.load_s": total("config.load"),
        "domain.estimate_s": total("domain.estimate"),
        "optimizer.assemble_s": total("optimizer.assemble"),
        "optimizer.n_vars": attr_sum("optimizer.assemble", "n_vars"),
        "optimizer.n_constraints": attr_sum("optimizer.assemble", "n_constraints"),
        "solver.solve_s": sum(duration(r) for r in solves),
        "solver.lp_calls": len(lps),
        "solver.start_lp_s": split["start"],
        "solver.oracle_lp_s": split["oracle"],
        "solver.l1_lp_s": split["l1"],
        "solver.phase1_lp_s": total("solver.phase1"),
        "solver.self_s": sum(self_time(r, covered) for r in solves),
        "solver.lp_s_per_call": lp_s / len(lps) if lps else 0.0,
        "solver.fw_iterations": attr_sum("solver.solve_kl", "iterations"),
        "solver.atoms": atoms,
        "solver.atoms_per_oracle_call": atoms / oracle_calls if oracle_calls else 0.0,
        "solver.infeasible_solves": sum(
            1 for r in solves if r.get("status") == "infeasible"
        ),
    }


def solver_accounting_gap(metrics: dict[str, float]) -> float:
    """solve_s minus its parts (LPs by role, phase 1, solver self time);
    zero unless a solve span gained children of another kind."""
    parts = sum(metrics[f"solver.{k}"] for k in (
        "start_lp_s", "oracle_lp_s", "l1_lp_s", "phase1_lp_s", "self_s"))
    return abs(metrics["solver.solve_s"] - parts)


def install(rec: Recorder) -> None:
    """Wrap every layer boundary the CLI and the optimizer cross."""
    import fairmap.cli as cli
    import fairmap.optimizer as optimizer
    import fairmap.solver as solver
    from fairmap.domain import Dataset

    def note_read(span, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        span["rows_in"] = rec.rows_by_path.get(path, 0)
        span["rows_kept"] = len(result)

    def note_write(span, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        span["rows"] = len(args[1])
        rec.rows_by_path[path] = len(args[1])

    def note_records(span, args, kwargs, result):
        span["records"] = len(result)

    def note_problem(span, args, kwargs, result):
        span["n_vars"] = result.n_vars
        span["n_constraints"] = int(result.program.h.size)

    def note_outcome(span, args, kwargs, result):
        span["status"] = result.status
        span["iterations"] = int(result.iterations)
        span["atoms"] = int(result.diagnostics.get("atoms", 0))

    def audit_name(source, *args, **kwargs):
        return "audit.empirical" if isinstance(source, Dataset) else "audit.analytic"

    rec.wrap(cli, "load_config", "config.load")
    rec.wrap(cli, "read_dataset", "dataio.read", note_read)
    rec.wrap(cli, "write_dataset", "dataio.write", note_write)
    rec.wrap(cli, "read_kernel", "dataio.kernel_io")
    rec.wrap(cli, "write_kernel", "dataio.kernel_io")
    rec.wrap(cli, "estimate_empirical", "domain.estimate")
    rec.wrap(cli, "assemble", "optimizer.assemble", note_problem)
    rec.wrap(cli, "solve", "optimizer.solve")
    rec.wrap(cli, "sof_solve", "optimizer.solve")
    rec.wrap(cli, "sweep_epsilon", "optimizer.sweep")
    rec.wrap(cli, "transform_train", "transform.sample", note_records)
    rec.wrap(cli, "transform_apply", "transform.sample", note_records)
    rec.wrap(cli, "derive_apply_kernel", "transform.derive_apply")
    rec.wrap(cli, "audit_discrimination", audit_name)
    rec.wrap(cli, "audit_distortion", "audit.empirical")
    for attr in ("audit_utility", "pushforward_joint", "map_advantage",
                 "check_estimation_discrimination", "robustness_bounds",
                 "cohort_delta_table"):
        rec.wrap(cli, attr, "audit.analytic")
    rec.wrap(optimizer, "assemble", "optimizer.assemble", note_problem)
    rec.wrap(optimizer, "solve", "optimizer.solve")
    rec.wrap(optimizer, "sweep_epsilon", "optimizer.sweep")
    rec.wrap(optimizer, "solve_kl", "solver.solve_kl", note_outcome)
    rec.wrap(optimizer, "solve_tv", "solver.solve_tv", note_outcome)
    rec.wrap(optimizer, "phase1_violation", "solver.phase1")
    rec.wrap(solver, "phase1_violation", "solver.phase1")
    rec.wrap(solver, "linprog", "solver.linprog")
