"""Auditors: discrimination, estimation advantage, distortion summaries,
and finite-sample robustness bounds.

Discrimination audits work analytically (pushing the estimation joint
through a kernel) or empirically (from a transformed dataset); the
analytic route is what the solver contract is checked against.  The
robustness calculators evaluate the closed-form finite-n constants: the
type-concentration radius tau, the ratio-bound exponent g = sqrt(3 tau /
p_min), the group-rate drift interval, and the l1 utility drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .constraints import DiscriminationSpec, ratio_distance, segments
from .distortion import DistortionMetric, distortion_matrix
from .domain import Dataset, JointPMF, conditional, kl_divergence, l1_distance
from .errors import (
    InvalidParamsError,
    LengthMismatchError,
    MissingOutcomeError,
    ZeroReferenceError,
)
from .optimizer import TransformKernel, identity_kernel


def pushforward_joint(pmf: JointPMF, kernel: TransformKernel) -> np.ndarray:
    """Joint (d, x_hat, y_hat) distribution after transformation."""
    schema = pmf.schema
    flat = np.einsum("dxy,dxyj->dj", pmf.mass, kernel.probs)
    return flat.reshape(schema.nd, schema.nx, schema.ny)


def pushforward_xy(pmf: JointPMF, kernel: TransformKernel) -> np.ndarray:
    """Transformed (x_hat, y_hat) distribution."""
    return pushforward_joint(pmf, kernel).sum(axis=0)


# ---------------------------------------------------------------------------
# discrimination
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscriminationReport:
    """Ratio-distance evaluations of group outcome rates.

    ``per_group`` maps (y, d) to J(rate, target); ``pairwise`` maps
    (y, d1, d2) to J(rate_1, rate_2); ``segment`` maps (y, d, b) when a
    conditional spec was audited analytically.  ``max_j`` is the maximum
    over the spec's own mode.
    """

    rates: np.ndarray  # (nd, ny) outcome rates per group
    per_group: Mapping[tuple, float]
    pairwise: Mapping[tuple, float]
    segment: Mapping[tuple, float]
    max_j: float
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "per_group", dict(self.per_group))
        object.__setattr__(self, "pairwise", dict(self.pairwise))
        object.__setattr__(self, "segment", dict(self.segment))


def _joint_dy_from_dataset(dataset: Dataset) -> np.ndarray:
    if not dataset.has_outcomes:
        raise MissingOutcomeError("discrimination audit needs outcome labels")
    joint = np.zeros((dataset.schema.nd, dataset.schema.ny))
    np.add.at(joint, (dataset.d, dataset.y), 1.0)
    return joint / joint.sum()


def audit_discrimination(
    source: Union[JointPMF, Dataset],
    spec: DiscriminationSpec,
    kernel: Optional[TransformKernel] = None,
    target: Optional[np.ndarray] = None,
) -> DiscriminationReport:
    """Evaluate the discrimination distances of a (possibly transformed)
    distribution against a spec.

    ``source`` is an estimation joint (optionally pushed through
    ``kernel``) or a transformed dataset.  The target defaults to the
    spec's, then to the source's own outcome marginal before
    transformation.
    """
    segment_j: dict = {}
    if isinstance(source, JointPMF):
        if kernel is not None:
            joint_full = pushforward_joint(source, kernel)
            joint_dy = joint_full.sum(axis=1)
        else:
            joint_dy = source.p_dy()
        if target is None and spec.target is None:
            target = source.p_y()
        if spec.mode == "conditional":
            segment_j = _segment_js(
                source, identity_kernel(source.schema) if kernel is None else kernel, spec)
    elif kernel is not None:
        raise InvalidParamsError("pass either a dataset or a pmf+kernel")
    else:
        joint_dy = _joint_dy_from_dataset(source)
    if target is None:
        target = spec.target if spec.target is not None else joint_dy.sum(axis=0)
    target = np.asarray(target, dtype=np.float64)
    if (target <= 0).any():
        raise ZeroReferenceError("target must be positive on both outcomes")

    rates, has_mass = conditional(joint_dy)
    present = np.flatnonzero(has_mass).tolist()
    warnings = [f"group {source.schema.d_label(d)!r} has zero mass; skipped"
                for d in np.flatnonzero(~has_mass).tolist()]
    per_group = {
        (y, d): ratio_distance(rates[d, y], target[y])
        for d in present
        for y in (0, 1)
    }
    pairwise = {}
    for i, d1 in enumerate(present):
        for d2 in present[i + 1 :]:
            for y in (0, 1):
                if rates[d2, y] > 0:
                    pairwise[(y, d1, d2)] = ratio_distance(rates[d1, y], rates[d2, y])
                if rates[d1, y] > 0:
                    pairwise[(y, d2, d1)] = ratio_distance(rates[d2, y], rates[d1, y])
    if spec.mode == "pairwise":
        max_j = max(pairwise.values(), default=0.0)
    elif spec.mode == "conditional" and segment_j:
        max_j = max(segment_j.values(), default=0.0)
    else:
        max_j = max(per_group.values(), default=0.0)
    return DiscriminationReport(
        rates=rates,
        per_group=per_group,
        pairwise=pairwise,
        segment=segment_j,
        max_j=max_j,
        warnings=tuple(warnings),
    )


def _segment_js(pmf: JointPMF, kernel: TransformKernel,
                spec: DiscriminationSpec) -> dict:
    """Analytic segment-level J values for a conditional spec."""
    schema = pmf.schema
    b_of_x, b_labels = segments(schema, spec.condition_on)
    # q(yh | d, b) with b evaluated on the original features
    k_y = kernel.probs.reshape(
        schema.nd, schema.nx, schema.ny, schema.nx, schema.ny
    ).sum(axis=3)
    out: dict = {}
    n = pmf.n
    for d in range(schema.nd):
        for b in range(len(b_labels)):
            sel = b_of_x == b
            mass = pmf.mass[d, sel, :].sum()
            if mass <= 0:
                continue
            if n is not None and mass * n < spec.min_cell_count:
                continue
            q = np.einsum("xy,xyt->t", pmf.mass[d, sel, :], k_y[d, sel]) / mass
            if spec.target is not None:
                target_b = spec.target
            else:
                seg = pmf.mass[:, sel, :].sum(axis=(0, 1))
                target_b = seg / seg.sum()
            for y in (0, 1):
                if target_b[y] > 0:
                    out[(y, d, b)] = ratio_distance(q[y], target_b[y])
    return out


# ---------------------------------------------------------------------------
# estimation advantage (MAP)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdvantageReport:
    """How much better than blind guessing the protected attribute can be
    estimated from the outcome alone."""

    map_probability: float  # best estimator's success probability
    blind_probability: float  # most likely group's mass
    advantage: float  # ratio of the two, >= 1


def map_advantage(joint_dy: np.ndarray) -> AdvantageReport:
    """Exact MAP success probability and multiplicative advantage of a
    (d, y) joint such as ``pmf.p_dy()``.

    map_probability = sum_y max_d p(d, y); the maximum-a-posteriori
    estimator of the group given the outcome.
    """
    joint = np.asarray(joint_dy, dtype=np.float64)
    if joint.ndim != 2 or (joint < 0).any():
        raise InvalidParamsError("need a nonnegative (d, y) joint")
    total = joint.sum()
    if total <= 0:
        raise InvalidParamsError("joint has no mass")
    joint = joint / total
    p_c = float(joint.max(axis=0).sum())
    p_star = float(joint.sum(axis=1).max())
    return AdvantageReport(p_c, p_star, p_c / p_star)


@dataclass(frozen=True)
class AdvantageVerdict:
    report: AdvantageReport
    exceeds: bool  # advantage above 1 + epsilon certifies discrimination
    witness: Optional[tuple[int, int, float]]  # (y, d, J) with J > epsilon


def check_estimation_discrimination(
    joint_dy: np.ndarray,
    epsilon: float,
    target: Optional[np.ndarray] = None,
) -> AdvantageVerdict:
    """Estimation-based discrimination detection on a (d, y) joint.

    If the advantage exceeds 1 + epsilon, some group/outcome pair must
    have ratio distance above epsilon from any target; the witness with
    the largest such distance (the first in (d, y) order on ties) is
    returned.  Conversely, when all ratio distances are within epsilon
    the advantage cannot exceed 1 + epsilon.
    """
    if not epsilon >= 0:  # NaN fails this test too
        raise InvalidParamsError("epsilon must be nonnegative")
    report = map_advantage(joint_dy)
    joint = np.asarray(joint_dy, dtype=np.float64)
    joint = joint / joint.sum()
    if target is None:
        target = joint.sum(axis=0)
    target = np.asarray(target, dtype=np.float64)
    exceeds = report.advantage > 1.0 + epsilon
    witness = None
    rates, present = conditional(joint)
    usable = present[:, None] & (target > 0)
    if exceeds and usable.any():
        with np.errstate(invalid="ignore", divide="ignore"):
            j = np.where(usable, np.abs(rates / target - 1.0), -np.inf)
        d, y = np.unravel_index(np.argmax(j), j.shape)
        witness = (int(y), int(d), float(j[d, y]))
    return AdvantageVerdict(report, exceeds, witness)


# ---------------------------------------------------------------------------
# robustness bounds
# ---------------------------------------------------------------------------


def type_concentration_tau(n: int, beta: float, m: int) -> float:
    """Radius tau with KL(empirical || true) <= tau w.p. 1 - beta:
    tau = (1/n) log((1/beta) (e (n+m) / m)^m)."""
    if n < 1 or not 0 < beta < 1 or m < 2:
        raise InvalidParamsError("need n >= 1, 0 < beta < 1, m >= 2")
    return (math.log(1.0 / beta) + m * (1.0 + math.log((n + m) / m))) / n


def ratio_bound_exponent(tau: float, p_min: float) -> float:
    """g(tau, p_min) = sqrt(3 tau / p_min)."""
    if not tau >= 0 or not 0 < p_min <= 1:
        raise InvalidParamsError("need tau >= 0 and 0 < p_min <= 1")
    return math.sqrt(3.0 * tau / p_min)


@dataclass(frozen=True)
class RatioBoundInterval:
    low: float
    high: float
    g: float


def ratio_drift_bounds(
    tau: float,
    p_m: float,
    gamma1: float = 1.0,
    gamma2: float = 1.0,
) -> RatioBoundInterval:
    """Interval [gamma1 e^-g, gamma2 e^g] trapping q/r when
    KL(p || q) <= tau and gamma1 <= p/r <= gamma2, with g = sqrt(3 tau / p_m)."""
    g = ratio_bound_exponent(tau, p_m)
    return RatioBoundInterval(gamma1 * math.exp(-g), gamma2 * math.exp(g), g)


@dataclass(frozen=True)
class RobustnessBound:
    """Finite-sample degradation bounds for a transform fit on n samples.

    With probability 1 - beta, group rates trained to ratio distance
    epsilon stay inside the multiplicative interval
    [(1 - eps) e^-h, (1 + eps) e^h] around the target, and the l1 utility
    loss grows by at most 4 sqrt(2 tau).
    """

    n: int
    beta: float
    m: int
    c_m: float
    tau: float
    h: float
    interval_low: float
    interval_high: float
    eps_drift_exact: float
    eps_drift_linearized: float
    linearization_flagged: bool
    mu_drift: float
    asymptotic_rate: float
    tau_ceiling: Optional[float] = None
    valid: Optional[bool] = None


def robustness_bounds(
    n: int,
    beta: float,
    m: int,
    c_m: float,
    epsilon: float,
    mu: float,
    joint_dy: Optional[np.ndarray] = None,
) -> RobustnessBound:
    """Evaluate the closed-form finite-n robustness constants.

    ``c_m`` is the least (group, transformed outcome) mass; ``joint_dy``
    (the transformed (d, y) joint), when given, evaluates the exact
    small-tau validity condition.
    """
    if not 0 < c_m <= 1:
        raise InvalidParamsError("need 0 < c_m <= 1")
    if not (epsilon >= 0 and mu >= 0):
        raise InvalidParamsError("epsilon and mu must be nonnegative")
    tau = type_concentration_tau(n, beta, m)
    drift = ratio_drift_bounds(tau, c_m, 1.0 - epsilon, 1.0 + epsilon)
    eps_exact = max(drift.high - 1.0, 1.0 - drift.low)
    eps_lin = epsilon + (1.0 + epsilon) * drift.g
    flagged = (
        abs(eps_lin - eps_exact) > 0.01 * max(eps_exact, 1e-300)
    )
    mu_drift = mu + 4.0 * math.sqrt(2.0 * tau)
    rate = math.sqrt(math.log(n / beta) / n)
    ceiling = None
    valid = None
    if joint_dy is not None:
        joint = np.asarray(joint_dy, dtype=np.float64)
        joint = joint / joint.sum()
        cond, _ = conditional(joint)
        cells = joint[joint > 0]
        conds = cond[joint > 0]
        ceiling = float(np.min(cells * (1.0 - conds) / (3.0 * (1.0 + conds) ** 2)))
        valid = tau <= ceiling
    return RobustnessBound(
        n=int(n), beta=float(beta), m=int(m), c_m=float(c_m),
        tau=tau, h=drift.g,
        interval_low=drift.low, interval_high=drift.high,
        eps_drift_exact=eps_exact, eps_drift_linearized=eps_lin,
        linearization_flagged=flagged, mu_drift=mu_drift,
        asymptotic_rate=rate, tau_ceiling=ceiling, valid=valid,
    )


# ---------------------------------------------------------------------------
# distortion audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistortionSummary:
    """Empirical per-record distortion of a train-mode transformation."""

    mean: float
    max: float
    exceedance: Mapping[float, float]  # threshold -> fraction over it

    def __post_init__(self):
        object.__setattr__(self, "exceedance", dict(self.exceedance))


def audit_distortion(
    original: Dataset,
    transformed: Dataset,
    metric: DistortionMetric,
    thresholds: Sequence[float] = (),
) -> DistortionSummary:
    """Exact per-record distortions between aligned datasets, aggregated
    overall and per threshold."""
    if len(original) != len(transformed):
        raise LengthMismatchError(
            f"{len(original)} original vs {len(transformed)} transformed records"
        )
    if not original.has_outcomes or not transformed.has_outcomes:
        raise MissingOutcomeError("distortion audit needs outcomes on both sides")
    delta = distortion_matrix(metric, original.schema)
    ny = original.schema.ny
    from_cell = original.x * ny + original.y
    to_cell = transformed.x * ny + transformed.y
    values = delta[from_cell, to_cell]
    return DistortionSummary(
        mean=float(values.mean()),
        max=float(values.max()),
        exceedance={float(t): float((values > t).mean()) for t in thresholds},
    )


# ---------------------------------------------------------------------------
# utility + cohort deltas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UtilityReport:
    kl: float
    l1: float


def audit_utility(pmf: JointPMF, kernel: TransformKernel) -> UtilityReport:
    """Divergences between the original and transformed (x, y) laws."""
    q = pushforward_xy(pmf, kernel)
    p = pmf.p_xy()
    return UtilityReport(kl=kl_divergence(p, q), l1=l1_distance(p, q))


@dataclass(frozen=True)
class CohortDeltaRow:
    x_label: str
    d_label: str  # "" for the overall (all-groups) column
    before: float
    after: float
    count: int

    @property
    def delta(self) -> float:
        return self.after - self.before


def cohort_delta_table(pmf: JointPMF, kernel: TransformKernel,
                       min_count: int = 20) -> list[CohortDeltaRow]:
    """Positive-outcome rates per feature cohort before and after.

    ``before`` is p(y=1 | x, d) on the original data; ``after`` is the
    rate at the same cell under the kernel's pushforward of ``pmf``.
    Cohorts with fewer than ``min_count`` original samples are omitted
    (when the sample size is known).
    """
    schema = pmf.schema
    after_joint = pushforward_joint(pmf, kernel)
    before = pmf.mass
    n = pmf.n
    rows: list[CohortDeltaRow] = []

    def rate(joint_slice: np.ndarray) -> Optional[float]:
        tot = joint_slice.sum()
        return None if tot <= 0 else float(joint_slice[..., 1].sum() / tot)

    for x in range(schema.nx):
        combos = [("", slice(None))] + [
            (schema.d_label(d), d) for d in range(schema.nd)
        ]
        for d_label, sel in combos:
            b = rate(before[sel, x, :])
            a = rate(after_joint[sel, x, :])
            if b is None or a is None:
                continue
            count = int(round(before[sel, x, :].sum() * n)) if n else 0
            if n and count < min_count:
                continue
            rows.append(CohortDeltaRow(schema.x_label(x), d_label, b, a, count))
    return rows
