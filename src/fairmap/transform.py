"""Applying a learned kernel to data.

Train mode randomizes (x, y) jointly per record through the full kernel;
apply mode first sums the outcome out of the kernel (weighting by the
outcome-given-input conditional) and randomizes features only.

Randomness is counter-based: each record owns a Philox stream keyed by
(master seed, record stream id), so output is reproducible, independent
of thread scheduling or batch splits, and permuting records permutes the
output with it.  A record's draw is the first output of Philox4x64-10
(Salmon et al., SC'11) under key ``(seed, stream id)``, computed for all
records at once in array arithmetic; it equals
``SeedSpec.stream(stream_id).random()`` bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .constants import MASS_ATOL, ROW_ATOL
from .distortion import DistortionBudget
from .domain import Dataset, JointPMF, Schema, conditional, probabilities
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
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        nd, nx = self.schema.nd, self.schema.nx
        object.__setattr__(
            self, "rows", probabilities(self.rows, (nd, nx, nx), ROW_ATOL, "mapper", axis=-1))


def derive_apply_kernel(kernel: TransformKernel, pmf: JointPMF) -> ApplyMapper:
    """Marginalize the outcome out of the kernel for apply-time use.

    p(x_hat | d, x) = sum_y p(y | x, d) sum_yh k(x_hat, yh | d, x, y).
    Input cells the data never populated fall back to the identity row
    (distortion-free) with a warning.
    """
    schema = kernel.schema
    nd, nx, ny = schema.nd, schema.nx, schema.ny
    cond, present = conditional(pmf.mass)
    # per (d, x, y): kernel row summed over y_hat -> (nd, nx, ny, nx)
    k_x = kernel.probs.reshape(nd, nx, ny, nx, ny).sum(axis=4)
    rows = np.einsum("dxy,dxyk->dxk", cond, k_x)
    d_absent, x_absent = np.nonzero(~present)
    rows[d_absent, x_absent] = 0.0
    rows[d_absent, x_absent, x_absent] = 1.0
    warnings = [
        f"no data for d={schema.d_label(d)!r} x={schema.x_label(x)!r};"
        " identity row used"
        for d, x in zip(d_absent.tolist(), x_absent.tolist())
    ]
    sums = rows.sum(axis=2, keepdims=True)
    if np.abs(sums - 1.0).max() > MASS_ATOL * 1e3:
        raise InvalidParamsError("apply rows failed to sum to 1")
    rows = rows / sums
    return ApplyMapper(schema, rows, warnings=tuple(warnings))


_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))


def _mulhi(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High words of the 128-bit products ``a * b``, through 32-bit halves
    so that no partial product overflows 64 bits."""
    b_lo, b_hi = b & _MASK32, b >> _SHIFT32
    a_lo = a & _MASK32
    hi = a >> _SHIFT32
    mid = a_lo * b_lo
    mid >>= _SHIFT32
    part = hi * b_lo
    mid += part
    np.bitwise_and(mid, _MASK32, out=part)
    a_lo *= b_hi
    part += a_lo
    part >>= _SHIFT32
    mid >>= _SHIFT32
    hi *= b_hi
    hi += mid
    hi += part
    return hi


def _philox_uniforms(master_seed: int, stream_ids: np.ndarray) -> np.ndarray:
    """``SeedSpec(master_seed).stream(sid).random()`` for every ``sid``:
    the first 64-bit word of Philox4x64-10 at counter 1 (numpy's
    generator increments its counter before the first block), shifted to
    53 bits and scaled into [0, 1).  The last round computes only that
    word."""
    k1 = np.asarray(stream_ids, dtype=np.int64).view(np.uint64).copy()
    # each round's first key word, the same for every record
    k0 = [np.uint64((master_seed + r * int(_PHILOX_W[0])) & 0xFFFFFFFFFFFFFFFF)
          for r in range(10)]
    # round 0 takes the counter (1, 0, 0, 0) to (k0, 0, k1, M0)
    c0, c1, c2 = np.full(k1.size, k0[0]), np.zeros_like(k1), k1.copy()
    c3 = np.full(k1.size, _PHILOX_M[0])
    for rnd in range(1, 9):
        k1 += _PHILOX_W[1]
        hi0 = _mulhi(c0, _PHILOX_M[0])
        c0 *= _PHILOX_M[0]
        hi1 = _mulhi(c2, _PHILOX_M[1])
        c2 *= _PHILOX_M[1]
        hi1 ^= c1
        hi1 ^= k0[rnd]
        hi0 ^= c3
        hi0 ^= k1
        c0, c1, c2, c3 = hi1, c2, hi0, c0
    # round 9: its first word only
    word = _mulhi(c2, _PHILOX_M[1])
    word ^= c1
    word ^= k0[9]
    word >>= np.uint64(11)
    return word * (1.0 / 9007199254740992.0)


def _sample_categories(rows: np.ndarray, master_seed: int, stream_ids: np.ndarray,
                       cells: np.ndarray) -> np.ndarray:
    """One draw per record from its (nonnegative) probability row via its
    own stream of ``SeedSpec(master_seed)``: the first index whose
    cumulative mass exceeds the record's uniform, clamped to the last index
    when rounding leaves the row's total below the draw.

    Record ``i`` draws from ``rows[cells[i]]``.  Each row some record draws
    from is summed once, and its records are drawn together.
    """
    u = _philox_uniforms(master_seed, stream_ids)
    order = np.argsort(cells)
    ordered = cells[order]
    starts = np.flatnonzero(np.diff(ordered, prepend=-1))
    cums = np.cumsum(rows[ordered[starts]], axis=1)
    u = u[order]
    bounds = [*starts.tolist(), u.size]
    drawn = np.empty_like(order)
    drawn[order] = np.concatenate([
        np.searchsorted(cum, u[start:stop], side="right")
        for cum, start, stop in zip(cums, bounds, bounds[1:])
    ])
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
    nd, nx, ny = schema.nd, schema.nx, schema.ny
    drawn = _sample_categories(
        kernel.probs.reshape(nd * nx * ny, nx * ny), seed, dataset.stream_ids,
        np.ravel_multi_index((dataset.d, dataset.x, dataset.y), (nd, nx, ny)))
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
    nd, nx = schema.nd, schema.nx
    drawn = _sample_categories(
        mapper.rows.reshape(nd * nx, nx), seed, dataset.stream_ids,
        np.ravel_multi_index((dataset.d, dataset.x), (nd, nx)))
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
    cond, present = conditional(pmf.mass)
    cells = [tuple(cell) for cell in np.argwhere(present).tolist()]
    shape = (schema.nd, schema.nx, schema.ny)
    avgs = [(t, (cond * cgrid).sum(axis=2)) for t, cgrid in budget.cells(shape)]
    if budget.mode == "expected":
        [(_, avg)] = avgs
        return ApplyBudget("expected", {c: float(avg[c]) for c in cells}, derived=False)
    return ApplyBudget(
        "thresholded",
        {c: tuple((t, float(avg[c])) for t, avg in avgs) for c in cells},
        derived=True,
        note=(
            "outcome-averaged exceedance budgets; bounds each threshold's"
            " apply-time exceedance probability"
        ),
    )
