"""Applying a learned kernel to data.

Train mode randomizes (x, y) jointly per record through the full kernel;
apply mode first marginalizes the outcome out of the kernel (weighting by
the outcome-given-input conditional) and randomizes features only.

Randomness is counter-based: each record owns a Philox stream keyed by
(master seed, record stream id), so output is reproducible, independent
of thread scheduling or batch splits, and permuting records permutes the
output with it.  A record's draw is the first output of Philox4x64-10
(Salmon et al., SC'11) under key ``(seed, stream id)``, computed for all
records at once in array arithmetic; it equals
``SeedSpec.stream(stream_id).random()`` bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .constants import MASS_ATOL, ROW_ATOL
from .distortion import DistortionBudget
from .domain import Dataset, JointPMF, Schema, cond_y_given_dx
from .errors import InvalidParamsError, MissingOutcomeError
from .optimizer import TransformKernel


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus the per-record stream derivation."""

    master_seed: int

    def stream(self, stream_id: int) -> np.random.Generator:
        key = np.array(
            [self.master_seed & 0xFFFFFFFFFFFFFFFF, stream_id & 0xFFFFFFFFFFFFFFFF],
            dtype=np.uint64,
        )
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class ApplyMapper:
    """Feature-only randomization p(x_hat | d, x) for unlabeled data."""

    schema: Schema
    rows: np.ndarray  # (nd, nx, nx)
    provenance: Mapping[str, object] = field(default_factory=dict)
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        nd, nx = self.schema.nd, self.schema.nx
        if rows.shape != (nd, nx, nx):
            raise InvalidParamsError(f"mapper must have shape {(nd, nx, nx)}")
        if rows.min() < 0:
            raise InvalidParamsError("mapper has negative probabilities")
        if np.abs(rows.sum(axis=2) - 1.0).max() > ROW_ATOL:
            raise InvalidParamsError("mapper rows must sum to 1")
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "provenance", dict(self.provenance))


def derive_apply_kernel(kernel: TransformKernel, pmf: JointPMF) -> ApplyMapper:
    """Marginalize the outcome out of the kernel for apply-time use.

    p(x_hat | d, x) = sum_y p(y | x, d) sum_yh k(x_hat, yh | d, x, y).
    Input cells the data never populated fall back to the identity row
    (distortion-free) with a warning.
    """
    schema = kernel.schema
    nd, nx, ny = schema.nd, schema.nx, schema.ny
    cond, present = cond_y_given_dx(pmf)
    # per (d, x, y): kernel row marginalized over y_hat -> (nd, nx, ny, nx)
    k_x = kernel.probs.reshape(nd, nx, ny, nx, ny).sum(axis=4)
    rows = np.einsum("dxy,dxyk->dxk", cond, k_x)
    warnings = []
    for d in range(nd):
        for x in range(nx):
            if not present[d, x]:
                rows[d, x] = 0.0
                rows[d, x, x] = 1.0
                warnings.append(
                    f"no data for d={schema.d_label(d)!r} x={schema.x_label(x)!r};"
                    " identity row used"
                )
    sums = rows.sum(axis=2, keepdims=True)
    if np.abs(sums - 1.0).max() > MASS_ATOL * 1e3:
        raise InvalidParamsError("apply rows failed to marginalize cleanly")
    rows = rows / sums
    return ApplyMapper(
        schema, rows, provenance=dict(kernel.provenance), warnings=tuple(warnings)
    )


_MASK32 = np.uint64(0xFFFFFFFF)
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))


def _mulhilo(a: np.ndarray, b: np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products ``a * b``, through
    32-bit halves so that no partial product overflows 64 bits."""
    a_lo, a_hi = a & _MASK32, a >> np.uint64(32)
    b_lo, b_hi = b & _MASK32, b >> np.uint64(32)
    mid = a_hi * b_lo + ((a_lo * b_lo) >> np.uint64(32))
    cross = a_lo * b_hi + (mid & _MASK32)
    hi = a_hi * b_hi + (mid >> np.uint64(32)) + (cross >> np.uint64(32))
    return hi, a * b


def _philox_uniforms(master_seed: int, stream_ids: np.ndarray) -> np.ndarray:
    """``SeedSpec(master_seed).stream(sid).random()`` for every ``sid``:
    the first 64-bit word of Philox4x64-10 at counter 1 (numpy's
    generator increments its counter before the first block), shifted to
    53 bits and scaled into [0, 1)."""
    sids = np.asarray(stream_ids, dtype=np.int64).view(np.uint64)
    n = sids.size
    k0 = np.full(n, master_seed & 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
    k1 = sids.copy()
    c0 = np.ones(n, dtype=np.uint64)
    c1, c2, c3 = (np.zeros(n, dtype=np.uint64) for _ in range(3))
    for rnd in range(10):
        if rnd:
            k0 += _PHILOX_W[0]
            k1 += _PHILOX_W[1]
        hi0, lo0 = _mulhilo(c0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo(c2, _PHILOX_M[1])
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return (c0 >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def _sample_categories(rows: np.ndarray, seed: SeedSpec,
                       stream_ids: np.ndarray) -> np.ndarray:
    """One draw per record from its probability row via its own stream:
    the first index whose cumulative mass exceeds the record's uniform,
    clamped to the last index when rounding leaves the row's total
    below the draw."""
    cums = np.cumsum(rows, axis=1)
    u = _philox_uniforms(seed.master_seed, stream_ids)
    drawn = (cums <= u[:, None]).sum(axis=1)
    return np.minimum(drawn, rows.shape[1] - 1)


def transform_train(dataset: Dataset, kernel: TransformKernel,
                    seed: int) -> Dataset:
    """Randomize a labeled dataset record-by-record through the kernel.

    Protected attributes pass through unchanged; stream ids are retained
    so a permuted input yields the correspondingly permuted output.
    """
    if not dataset.has_outcomes:
        raise MissingOutcomeError("train-mode transformation requires outcomes")
    schema = dataset.schema
    rows = kernel.probs[dataset.d, dataset.x, dataset.y]
    drawn = _sample_categories(rows, SeedSpec(seed), dataset.stream_ids)
    return Dataset(
        schema,
        dataset.d,
        drawn // schema.ny,
        drawn % schema.ny,
        stream_ids=dataset.stream_ids,
    )


def transform_apply(dataset: Dataset, mapper: ApplyMapper, seed: int) -> Dataset:
    """Randomize features of (possibly unlabeled) data; outcomes are not
    produced."""
    schema = dataset.schema
    rows = mapper.rows[dataset.d, dataset.x]
    drawn = _sample_categories(rows, SeedSpec(seed), dataset.stream_ids)
    return Dataset(
        schema,
        dataset.d,
        drawn,
        np.full(len(dataset), -1),
        stream_ids=dataset.stream_ids,
    )


@dataclass(frozen=True)
class ApplyBudget:
    """Apply-time distortion bounds per (d, x) input.

    For expected-mode budgets this is the exact apply-time guarantee; for
    thresholded budgets the same outcome-weighted average is reported per
    threshold as a bound on each exceedance probability (a derived figure,
    not one the training constraints stated directly).
    """

    mode: str
    values: Mapping[tuple[int, int], object]
    derived: bool
    note: str = ""


def apply_distortion_bound(budget: DistortionBudget, pmf: JointPMF) -> ApplyBudget:
    """Average per-outcome budgets into per-(d, x) apply-time bounds.

    c(x, d) = sum_y p(y | x, d) c(d, x, y); with outcome-independent
    budgets the training bound carries over unchanged.
    """
    schema = pmf.schema
    cond, present = cond_y_given_dx(pmf)
    shape = (schema.nd, schema.nx, schema.ny)
    values = {}
    if budget.mode == "expected":
        cgrid = budget.cell_c(shape)
        avg = (cond * cgrid).sum(axis=2)
        for d in range(schema.nd):
            for x in range(schema.nx):
                if present[d, x]:
                    values[(d, x)] = float(avg[d, x])
        return ApplyBudget("expected", values, derived=False)
    pairs = budget.cell_pairs(shape)
    for d in range(schema.nd):
        for x in range(schema.nx):
            if present[d, x]:
                values[(d, x)] = tuple(
                    (t, float((cond[d, x] * cgrid[d, x]).sum())) for t, cgrid in pairs
                )
    return ApplyBudget(
        "thresholded",
        values,
        derived=True,
        note=(
            "outcome-averaged exceedance budgets; bounds each threshold's"
            " apply-time exceedance probability"
        ),
    )
