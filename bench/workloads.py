"""Benchmark worker: runs one workload in this process and prints the result.

Started by ``bench/run.py``, which pins BLAS/OpenMP threads and puts the
checkout's ``src/`` on ``PYTHONPATH`` before this file imports numpy.
One client, closed loop: each pass starts when the previous one has
finished and its outputs have been checked.  See README.md for the
workloads and the metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback

import numpy as np
import scipy
import yaml

import inputs
import spans
from run import THREAD_VARS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import fairmap  # noqa: E402  (after the launcher set PYTHONPATH)
from fairmap import cli, dataio, optimizer  # noqa: E402
from fairmap.audit import audit_discrimination  # noqa: E402
from fairmap.config import config_from_dict  # noqa: E402
from fairmap.domain import JointPMF, estimate_empirical  # noqa: E402
from fairmap.presets import preset_dict  # noqa: E402

SETUP_REPS = 3
MIN_PASSES = 2
CERT_TOL = 1e-6  # the package's certified tolerance; never loosened here
BINOMIAL_Z = 5.0

END_TO_END = ("pass_s", "setup_s", "peak_rss_mb")


# ---------------------------------------------------------------------------
# bookkeeping
# ---------------------------------------------------------------------------


class Checks:
    """Operations attempted and failed; an operation fails when any of
    its output checks fails or the check itself cannot run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def run(self, op: str, check) -> None:
        self.attempted += 1
        try:
            results = check()
        except Exception:  # a missing or malformed output fails the op
            results = [(f"check raised: {traceback.format_exc(limit=2)}", False)]
        bad = [label for label, ok in results if not ok]
        if bad:
            self.failed += 1
            self.messages.append(f"{op}: " + "; ".join(bad))


class Harness:
    """Times steps; in a traced pass wraps the layers around each step."""

    def __init__(self, trace: bool):
        self.recorder = spans.Recorder() if trace else None
        self.tracing = False

    def timed(self, name: str, fn, *args, **kwargs):
        """Run one step; returns (result or None on error, seconds)."""
        result = None
        ctx = contextlib.nullcontext()
        if self.tracing:
            spans.install(self.recorder)
            ctx = self.recorder.span(name)
        start = time.perf_counter()
        try:
            with ctx:
                result = fn(*args, **kwargs)
        except Exception:
            traceback.print_exc(file=sys.stderr)
        finally:
            seconds = time.perf_counter() - start
            if self.tracing:
                self.recorder.unwrap_all()
        return result, seconds


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Digests:
    """Output digests of the first pass; later passes must match them."""

    def __init__(self):
        self.first: dict[str, str] = {}

    def same(self, key: str, digest: str) -> tuple[str, bool]:
        expected = self.first.setdefault(key, digest)
        return (f"{key} digest differs from the first pass", digest == expected)


def codes(labels: np.ndarray, categories) -> np.ndarray:
    """Category index of each label; -1 where it is not a category."""
    out = np.full(labels.shape, -1, dtype=np.int64)
    for i, cat in enumerate(categories):
        out[labels == cat] = i
    return out


def read_columns(path: str) -> dict[str, np.ndarray]:
    """A CSV written by the program, as label columns (comments skipped)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip() and not ln.startswith("#")]
    header = lines[0].split(",")
    cells = np.array([ln.split(",") for ln in lines[1:]], dtype=object)
    cells = cells.reshape(len(lines) - 1, len(header))
    return {name: cells[:, i].astype(str) for i, name in enumerate(header)}


def within_binomial(counts: np.ndarray, probs: np.ndarray) -> bool:
    """Observed category counts against n draws from ``probs``."""
    n = counts.sum()
    sd = np.sqrt(n * probs * (1.0 - probs))
    return bool((np.abs(counts - n * probs) <= BINOMIAL_Z * sd + 1.0).all())


def max_j(pmf: JointPMF, spec, kernel) -> float:
    return audit_discrimination(pmf, spec, kernel=kernel).max_j


def compas_pmf(schema, data: inputs.CompasInput) -> JointPMF:
    """The kept rows' joint pmf, computed from the generator's codes."""
    d_var = {v.name: v.alphabet.categories for v in schema.d_vars}
    x_var = {v.name: v.alphabet.categories for v in schema.x_vars}
    sex = codes(inputs.SEXES[data.sex].astype(str), d_var["sex"])
    race = codes(inputs.RACES[data.race].astype(str), d_var["race"])
    age = codes(inputs.AGE_CATS[data.age].astype(str), x_var["age_cat"])
    charge = codes(inputs.CHARGES[data.charge].astype(str), x_var["c_charge_degree"])
    d = np.ravel_multi_index((sex, race), schema.d_sizes)
    x = np.ravel_multi_index((age, charge, data.priors_bucket), schema.x_sizes)
    counts = np.zeros((schema.nd, schema.nx, schema.ny))
    np.add.at(counts, (d, x, data.recid), 1.0)
    return JointPMF(schema, counts / counts.sum(), n=data.n_kept)


def adult_pmf(schema, data: inputs.AdultInput) -> JointPMF:
    race = (data.race != 0).astype(np.int64)  # White | Minority
    age_edges = schema.variable("age").quantizer.edges
    age = np.searchsorted(age_edges, data.age, side="right")
    d = np.ravel_multi_index((race, data.sex), schema.d_sizes)
    x = np.ravel_multi_index((age, data.edu - 1), schema.x_sizes)
    counts = np.zeros((schema.nd, schema.nx, schema.ny))
    np.add.at(counts, (d, x, data.income), 1.0)
    return JointPMF(schema, counts / counts.sum(), n=int(data.age.size))


def compas_config(raw_path: str, out_dir: str, objective: str, epsilon: float):
    raw = preset_dict("compas")
    raw["input"]["path"] = raw_path
    raw["discrimination"]["epsilon"] = epsilon
    raw["objective"] = objective
    raw["output"]["dir"] = out_dir
    return raw


def ingest_compas(path: str, n: int, seed: int, cfg, checks: Checks):
    """Generate, let the program ingest and estimate, check the pmf."""
    data = inputs.compas_input(n, seed)
    inputs.write_compas(path, data)
    ds = dataio.read_dataset(path, cfg.schema, delimiter=cfg.delimiter,
                             has_header=cfg.has_header, filters=cfg.filters)
    pmf = estimate_empirical(ds)
    expected = compas_pmf(cfg.schema, data)
    checks.run("setup.compas", lambda: [
        ("kept fraction off the preset filters' share",
         abs(data.n_kept / n - inputs.COMPAS_KEPT_FRACTION) < 1.0 / n),
        ("ingestion kept a different row count", len(ds) == data.n_kept),
        ("ingested pmf differs from the generated cells",
         np.allclose(pmf.mass, expected.mass, rtol=0, atol=1e-15)),
    ])
    return data, pmf


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Records:
    """In-process CLI: fit -> transform train -> transform apply -> audit
    on a 100k-row compas-shaped raw CSV (l1 objective, epsilon 0.45)."""

    N_ROWS = 100_000
    EPSILON = 0.45

    def __init__(self, work: str, seed: int, harness: Harness):
        self.work, self.seed, self.h = work, seed, harness
        self.raw_path = os.path.join(work, "compas.csv")
        self.cfg_path = os.path.join(work, "records.yaml")
        self.out = os.path.join(work, "out")
        self.kernel_path = os.path.join(self.out, "kernel.csv")
        self.digests = Digests()

    def setup(self, checks: Checks) -> None:
        data = inputs.compas_input(self.N_ROWS, self.seed)
        inputs.write_compas(self.raw_path, data)
        raw = compas_config(self.raw_path, self.out, "l1", self.EPSILON)
        with open(self.cfg_path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(raw, fh)
        self.data = data
        self.cfg = config_from_dict(raw)
        self.pmf = compas_pmf(self.cfg.schema, data)
        if self.h.recorder is not None:
            self.h.recorder.rows_by_path[self.raw_path] = self.N_ROWS
        checks.run("setup.compas", lambda: [
            ("kept fraction off the preset filters' share",
             abs(data.n_kept / self.N_ROWS - inputs.COMPAS_KEPT_FRACTION)
             < 1.0 / self.N_ROWS),
        ])

    @staticmethod
    def _cli(argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def run_pass(self, checks: Checks) -> dict[str, float]:
        base = ["--config", self.cfg_path]
        kern = ["--kernel", self.kernel_path]
        code, fit_s = self.h.timed("cli.fit", self._cli, ["fit"] + base)
        checks.run("fit", lambda: self._check_fit(code))
        code, train_s = self.h.timed(
            "cli.transform_train", self._cli,
            ["transform"] + base + kern + ["--mode", "train"])
        checks.run("transform_train", lambda: self._check_transformed(code, "train"))
        code, apply_s = self.h.timed(
            "cli.transform_apply", self._cli,
            ["transform"] + base + kern + ["--mode", "apply"])
        checks.run("transform_apply", lambda: self._check_transformed(code, "apply"))
        code, audit_s = self.h.timed(
            "cli.audit", self._cli,
            ["audit"] + base + kern + ["--transformed", self._out("train")])
        checks.run("audit", lambda: self._check_audit(code))
        return {"fit_s": fit_s, "transform_train_s": train_s,
                "transform_apply_s": apply_s, "audit_s": audit_s}

    def _out(self, mode: str) -> str:
        return os.path.join(self.out, f"transformed_{mode}.csv")

    def _check_fit(self, code) -> list:
        with open(os.path.join(self.out, "fit_report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        # the l1 certificate is clamped to min(gap, tol), so it proves
        # nothing; optimality rests on status and an independent audit
        self.kernel = dataio.read_kernel(self.kernel_path, self.cfg.schema)
        self.max_j = max_j(self.pmf, self.cfg.discrimination, self.kernel)
        return [
            (f"exit code {code}", code == 0),
            (f"status {report['status']}", report["status"] == "optimal"),
            (f"residual {report['residual']}", report["residual"] <= CERT_TOL),
            ("fit saw a different record count",
             report["n_records"] == self.data.n_kept),
            (f"analytic max_j {self.max_j}", self.max_j <= self.EPSILON + CERT_TOL),
            self.digests.same("kernel.csv", sha256_file(self.kernel_path)),
        ]

    def _check_transformed(self, code, mode: str) -> list:
        cols = read_columns(self._out(mode))
        schema, data = self.cfg.schema, self.data
        n = data.n_kept
        results = [
            (f"exit code {code}", code == 0),
            ("record count", cols["sex"].size == n),
            ("stream ids are not the record positions",
             np.array_equal(cols["_stream"].astype(np.int64), np.arange(n))),
            ("sex changed", np.array_equal(cols["sex"], inputs.SEXES[data.sex])),
            ("race changed", np.array_equal(cols["race"], inputs.RACES[data.race])),
        ]
        x_codes = [codes(cols[v.name], v.alphabet.categories) for v in schema.x_vars]
        x_hat = np.ravel_multi_index(tuple(x_codes), schema.x_sizes)
        q = np.einsum("dxy,dxyj->j", self.pmf.mass, self.kernel.probs)
        if mode == "train":
            y_hat = codes(cols[schema.y_var.name], schema.y_var.alphabet.categories)
            cell_counts = np.bincount(x_hat * schema.ny + y_hat,
                                      minlength=schema.nx * schema.ny)
            results += [
                ("recidivism raised", not ((data.recid == 0) & (y_hat == 1)).any()),
                ("(x_hat, y_hat) frequencies off the pushforward",
                 within_binomial(cell_counts, q)),
            ]
        else:
            q_x = q.reshape(schema.nx, schema.ny).sum(axis=1)
            results += [
                ("apply output carries outcomes", schema.y_var.name not in cols),
                ("x_hat frequencies off the pushforward",
                 within_binomial(np.bincount(x_hat, minlength=schema.nx), q_x)),
            ]
        results.append(self.digests.same(mode, sha256_file(self._out(mode))))
        return results

    def _check_audit(self, code) -> list:
        path = os.path.join(self.out, "audit_report.json")
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        reported = report["discrimination_after"]["max_j"]
        return [
            (f"exit code {code}", code == 0),
            (f"reported max_j {reported}", reported <= self.EPSILON + CERT_TOL),
            ("reported max_j differs from the independent audit",
             abs(reported - self.max_j) <= 1e-9),
            ("no empirical section", "discrimination_empirical" in report),
            self.digests.same("audit_report.json", sha256_file(path)),
        ]

    def summary(self, steps: list[dict], pass_s: list[float]) -> dict:
        out = {"records_per_s": (median([self.data.n_kept / s for s in pass_s]), "1/s")}
        for key in ("fit_s", "transform_train_s", "transform_apply_s", "audit_s"):
            out[key] = (median([s[key] for s in steps]), "s")
        return out


class Fit:
    """assemble + solve on two pmfs estimated at set-up: compas-shaped KL
    (epsilon 0.45) and adult-shaped l1 (preset epsilon 0.15)."""

    COMPAS_ROWS = 20_000
    ADULT_ROWS = 30_000
    EPSILON = 0.45

    def __init__(self, work: str, seed: int, harness: Harness):
        self.work, self.seed, self.h = work, seed, harness
        self.digests = Digests()

    def setup(self, checks: Checks) -> None:
        compas_path = os.path.join(self.work, "compas.csv")
        self.kl_cfg = config_from_dict(
            compas_config(compas_path, self.work, "kl", self.EPSILON))
        _, self.kl_pmf = ingest_compas(compas_path, self.COMPAS_ROWS, self.seed,
                                       self.kl_cfg, checks)
        adult_path = os.path.join(self.work, "adult.data")
        raw = preset_dict("adult")
        raw["input"]["path"] = adult_path
        self.l1_cfg = config_from_dict(raw)
        data = inputs.adult_input(self.ADULT_ROWS, self.seed)
        inputs.write_adult(adult_path, data)
        cfg = self.l1_cfg
        ds = dataio.read_dataset(adult_path, cfg.schema, delimiter=cfg.delimiter,
                                 has_header=cfg.has_header, columns=cfg.columns,
                                 filters=cfg.filters)
        self.l1_pmf = estimate_empirical(ds)
        expected = adult_pmf(cfg.schema, data)
        checks.run("setup.adult", lambda: [
            ("ingestion dropped rows", len(ds) == self.ADULT_ROWS),
            ("ingested pmf differs from the generated cells",
             np.allclose(self.l1_pmf.mass, expected.mass, rtol=0, atol=1e-15)),
        ])

    def _fit(self, cfg, pmf):
        problem = optimizer.assemble(pmf, cfg.discrimination, cfg.metric,
                                     cfg.budget, objective=cfg.objective)
        return optimizer.solve(problem, tol=cfg.solver.tol,
                               max_iters=cfg.solver.max_iters)

    def _check(self, key: str, sol, cfg, pmf) -> list:
        j = max_j(pmf, cfg.discrimination, sol.kernel)
        results = [
            (f"status {sol.status}", sol.status == "optimal"),
            (f"residual {sol.residual}", sol.residual <= CERT_TOL),
            (f"analytic max_j {j}", j <= cfg.discrimination.epsilon + CERT_TOL),
            self.digests.same(key, hashlib.sha256(sol.kernel.probs.tobytes()).hexdigest()),
        ]
        if cfg.objective == "kl":  # the Frank-Wolfe gap is a real bound
            results.append((f"FW gap {sol.certificate}", sol.certificate <= cfg.solver.tol))
        return results

    def run_pass(self, checks: Checks) -> dict[str, float]:
        sol, kl_s = self.h.timed("bench.fit_kl", self._fit, self.kl_cfg, self.kl_pmf)
        checks.run("fit_kl", lambda: self._check("kl", sol, self.kl_cfg, self.kl_pmf))
        sol, l1_s = self.h.timed("bench.fit_l1", self._fit, self.l1_cfg, self.l1_pmf)
        checks.run("fit_l1", lambda: self._check("l1", sol, self.l1_cfg, self.l1_pmf))
        return {"fit_kl_s": kl_s, "fit_l1_s": l1_s}

    def summary(self, steps: list[dict], pass_s: list[float]) -> dict:
        return {k: (median([s[k] for s in steps]), "s") for k in ("fit_kl_s", "fit_l1_s")}


class Sweep:
    """sweep_epsilon on the compas-shaped KL problem over a grid that
    crosses the feasibility boundary (between 0.42 and 0.45 on these
    inputs) and ends at a point where the identity kernel is feasible."""

    COMPAS_ROWS = 20_000
    GRID = (0.40, 0.45, 0.50, 0.55, 0.65)
    EXPECTED = ("infeasible", "optimal", "optimal", "optimal", "optimal")

    def __init__(self, work: str, seed: int, harness: Harness):
        self.work, self.seed, self.h = work, seed, harness
        self.digests = Digests()

    def setup(self, checks: Checks) -> None:
        path = os.path.join(self.work, "compas.csv")
        self.cfg = config_from_dict(compas_config(path, self.work, "kl", self.GRID[1]))
        _, self.pmf = ingest_compas(path, self.COMPAS_ROWS, self.seed, self.cfg, checks)

    def _sweep(self):
        cfg = self.cfg
        problem = optimizer.assemble(self.pmf, cfg.discrimination, cfg.metric,
                                     cfg.budget, objective=cfg.objective)
        return optimizer.sweep_epsilon(problem, self.GRID, tol=cfg.solver.tol,
                                       max_iters=cfg.solver.max_iters)

    def _check(self, result) -> list:
        statuses = tuple(e.status for e in result.entries)
        objectives = [e.objective for e in result.entries]
        tol = self.cfg.solver.tol
        return [
            (f"statuses {statuses}", statuses == self.EXPECTED),
            ("objective increases with epsilon", result.monotone_nonincreasing),
            (f"infeasible boundary {result.infeasible_boundary}",
             result.infeasible_boundary == self.GRID[0]),
            (f"zero boundary {result.zero_boundary}",
             result.zero_boundary == self.GRID[-1]),
            ("a middle point has a zero objective",
             all(obj > tol for obj in objectives[1:-1])),
            self.digests.same("sweep", hashlib.sha256(
                np.array(objectives).tobytes()).hexdigest()),
        ]

    def run_pass(self, checks: Checks) -> dict[str, float]:
        result, sweep_s = self.h.timed("bench.sweep", self._sweep)
        checks.run("sweep", lambda: self._check(result))
        return {"sweep_s": sweep_s}

    def summary(self, steps: list[dict], pass_s: list[float]) -> dict:
        return {"sweep_s": (median(pass_s), "s")}


WORKLOADS = {"records": Records, "fit": Fit, "sweep": Sweep}


# ---------------------------------------------------------------------------
# measurement loop
# ---------------------------------------------------------------------------


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def environment() -> dict:
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    threads = {k: os.environ.get(k) for k in THREAD_VARS}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "fairmap": fairmap.__version__,
        "platform": platform.platform(),
        "threads": threads,
    }


def run(args) -> int:
    if not os.path.abspath(fairmap.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"fairmap imported from {fairmap.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    work = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: str) -> int:
    trace = bool(args.trace)
    harness = Harness(trace)
    checks = Checks()
    workload = WORKLOADS[args.workload](work, args.seed, harness)
    setup_s = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        workload.setup(checks)
        setup_s.append(time.perf_counter() - start)

    steps: list[dict] = []
    pass_s: list[float] = []
    traced_s: list[float] = []
    layers: list[dict] = []
    walls: list[float] = []
    begin = time.perf_counter()
    while True:
        harness.tracing = trace and len(walls) % 2 == 1
        start = time.perf_counter()
        if harness.tracing:
            harness.recorder.pass_id += 1
            first_span = len(harness.recorder.spans)
        step = workload.run_pass(checks)
        walls.append(time.perf_counter() - start)
        if harness.tracing:
            traced_s.append(sum(step.values()))
            pass_spans = harness.recorder.spans[first_span:]
            layer = spans.layer_metrics(pass_spans)
            bad = spans.children_within_parents(pass_spans)
            gap = spans.solver_accounting_gap(layer)
            checks.run("trace", lambda: [
                ("children exceed parent: " + ", ".join(bad), not bad),
                (f"solver split misses {gap:.3g}s of solve time",
                 gap <= 1e-9 * max(1.0, layer["solver.solve_s"])),
            ])
            layers.append(layer)
        else:
            steps.append(step)
            pass_s.append(sum(step.values()))
        elapsed = time.perf_counter() - begin
        if len(walls) >= MIN_PASSES and elapsed + median(walls) > args.seconds:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    summary = workload.summary(steps, pass_s)
    summary["pass_s"] = (median(pass_s), "s")
    summary["setup_s"] = (median(setup_s), "s")
    summary["peak_rss_mb"] = (peak_rss_mb, "MB")
    summary["error_rate"] = (checks.failed / max(checks.attempted, 1), "ratio")
    print(f"passes untraced_s={[round(x, 4) for x in pass_s]} "
          f"traced_s={[round(x, 4) for x in traced_s]}")
    print(f"summary workload={args.workload} seed={args.seed} passes={len(walls)} "
          + " ".join(f"{k}={v:.6g}{u and ' ' + u}" for k, (v, u) in summary.items()))
    for msg in checks.messages:
        print(f"check failed: {msg}", file=sys.stderr)

    if trace:
        metrics = {k: {"value": median([m[k] for m in layers]), "unit": unit}
                   for k, unit in spans.LAYER_UNITS.items()}
        metrics["trace.overhead_ratio"] = {
            "value": median(traced_s) / median(pass_s) - 1.0, "unit": "ratio"}
        out_dir = os.path.join(HERE, "results")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        harness.recorder.write_jsonl(path, {"workload": args.workload,
                                            "seed": args.seed, "env": env})
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    else:
        metrics = {k: {"value": summary[k][0], "unit": summary[k][1]}
                   for k in END_TO_END}
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
