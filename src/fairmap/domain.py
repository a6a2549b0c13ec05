"""Finite categorical domains, datasets, and exact discrete-distribution algebra.

Everything here is index-based: records and probability tables refer to
categories by integer index into their alphabets.  Labels (including the
"|"-joined composite labels for multi-variable groups) only appear at the
edges, for I/O and reporting.  All containers are immutable after
construction and all operations are pure functions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Mapping, Optional, Sequence

import numpy as np

from .constants import MASS_ATOL
from .errors import (
    EmptyDatasetError,
    InvalidParamsError,
    MissingOutcomeError,
    SupportMismatchError,
    UnknownVariableError,
)

COMPOSITE_SEP = "|"

ROLE_D = "D"
ROLE_X = "X"
ROLE_Y = "Y"


@dataclass(frozen=True)
class Alphabet:
    """A named finite set of category labels."""

    name: str
    categories: tuple[str, ...]

    def __post_init__(self):
        if not self.categories:
            raise InvalidParamsError(f"alphabet {self.name!r} has no categories")
        if len(set(self.categories)) != len(self.categories):
            raise InvalidParamsError(f"alphabet {self.name!r} has duplicate labels")
        object.__setattr__(self, "categories", tuple(str(c) for c in self.categories))

    def __len__(self) -> int:
        return len(self.categories)

    def index(self, label: str) -> int:
        try:
            return self.categories.index(label)
        except ValueError:
            raise InvalidParamsError(
                f"label {label!r} not in alphabet {self.name!r}"
            ) from None


@dataclass(frozen=True)
class Quantizer:
    """Declarative ingestion rule mapping raw field values to categories.

    kind "map": explicit raw-value -> category mapping; unmapped values
        fall back to ``default`` when set, drop the whole record when
        ``drop_unmapped`` (used e.g. to remove sparse groups), and raise
        otherwise.
    kind "bins": numeric binning with right-open intervals; ``edges``
        ascending, ``len(labels) == len(edges) + 1``.  ±inf fall in the
        outer bins; NaN raises ``ValueError``.
    """

    kind: str
    mapping: Optional[Mapping[str, str]] = None
    default: Optional[str] = None
    drop_unmapped: bool = False
    edges: Optional[tuple[float, ...]] = None
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if self.kind not in ("map", "bins"):
            raise InvalidParamsError(f"unknown quantizer kind {self.kind!r}")
        if self.kind == "map" and not self.mapping:
            raise InvalidParamsError("map quantizer needs a mapping")
        if self.kind == "bins":
            if not self.edges or not self.labels:
                raise InvalidParamsError("bins quantizer needs edges and labels")
            edges = tuple(float(e) for e in self.edges)
            if list(edges) != sorted(edges):
                raise InvalidParamsError("bin edges must be ascending")
            if len(self.labels) != len(edges) + 1:
                raise InvalidParamsError("bins need len(labels) == len(edges) + 1")
            object.__setattr__(self, "edges", edges)
            object.__setattr__(self, "labels", tuple(self.labels))

    DROP = object()  # sentinel: record should be dropped

    def apply(self, raw: str):
        """Return the category label for ``raw``, or ``Quantizer.DROP``."""
        raw = raw.strip()
        if self.kind == "map":
            if raw in self.mapping:
                return self.mapping[raw]
            if self.default is not None:
                return self.default
            if self.drop_unmapped:
                return Quantizer.DROP
            raise InvalidParamsError(f"unmapped value {raw!r}")
        value = float(raw)
        if np.isnan(value):
            raise ValueError("NaN falls in no bin")
        idx = int(np.searchsorted(self.edges, value, side="right"))
        return self.labels[idx]


@dataclass(frozen=True)
class Variable:
    alphabet: Alphabet
    role: str
    quantizer: Optional[Quantizer] = None

    def __post_init__(self):
        if self.role not in (ROLE_D, ROLE_X, ROLE_Y):
            raise InvalidParamsError(f"unknown role {self.role!r}")

    @property
    def name(self) -> str:
        return self.alphabet.name


def composite_labels(variables: Sequence[Variable]) -> tuple[str, ...]:
    """The "|"-joined label of each row-major product of the variables' categories."""
    return tuple(map(COMPOSITE_SEP.join, product(*(v.alphabet.categories for v in variables))))


@dataclass(frozen=True)
class Schema:
    """Named variables with roles; the product of D (resp. X) categories
    forms the flattened protected-group (resp. feature) domain.

    Exactly one binary outcome variable Y; at least one D and one X
    variable.  Multi-variable groups flatten row-major in declaration
    order and round-trip through "|"-joined composite labels, so no D or
    X category may contain "|".
    """

    variables: tuple[Variable, ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise InvalidParamsError("duplicate variable names in schema")
        d_vars = tuple(v for v in self.variables if v.role == ROLE_D)
        x_vars = tuple(v for v in self.variables if v.role == ROLE_X)
        y_vars = tuple(v for v in self.variables if v.role == ROLE_Y)
        if len(y_vars) != 1:
            raise InvalidParamsError("schema needs exactly one Y variable")
        if len(y_vars[0].alphabet) != 2:
            raise InvalidParamsError("outcome variable must be binary")
        if not d_vars or not x_vars:
            raise InvalidParamsError("schema needs at least one D and one X variable")
        for v in d_vars + x_vars:
            if any(COMPOSITE_SEP in c for c in v.alphabet.categories):
                raise InvalidParamsError(f"a category of {v.name!r} contains {COMPOSITE_SEP!r}")
        object.__setattr__(self, "d_vars", d_vars)
        object.__setattr__(self, "x_vars", x_vars)
        object.__setattr__(self, "y_var", y_vars[0])

    # -- flattened domain sizes ------------------------------------------------
    @property
    def d_sizes(self) -> tuple[int, ...]:
        return tuple(len(v.alphabet) for v in self.d_vars)

    @property
    def x_sizes(self) -> tuple[int, ...]:
        return tuple(len(v.alphabet) for v in self.x_vars)

    @property
    def nd(self) -> int:
        return int(np.prod(self.d_sizes))

    @property
    def nx(self) -> int:
        return int(np.prod(self.x_sizes))

    @property
    def ny(self) -> int:
        return 2

    def variable(self, name: str) -> Variable:
        for v in self.variables:
            if v.name == name:
                return v
        raise UnknownVariableError(name)

    # -- composite labels ------------------------------------------------------
    @cached_property
    def d_labels(self) -> tuple[str, ...]:
        """The composite label of each flat group index."""
        return composite_labels(self.d_vars)

    @cached_property
    def x_labels(self) -> tuple[str, ...]:
        """The composite label of each flat feature index."""
        return composite_labels(self.x_vars)

    @cached_property
    def _flat(self) -> dict[str, dict[str, int]]:
        """The inverse of each label table, by role."""
        return {role: {label: i for i, label in enumerate(labels)}
                for role, labels in ((ROLE_D, self.d_labels), (ROLE_X, self.x_labels))}

    def d_label(self, flat: int) -> str:
        return self.d_labels[flat]

    def x_label(self, flat: int) -> str:
        return self.x_labels[flat]

    def y_label(self, idx: int) -> str:
        return self.y_var.alphabet.categories[idx]

    def d_from_label(self, label: str) -> int:
        return self._from_label(ROLE_D, label)

    def x_from_label(self, label: str) -> int:
        return self._from_label(ROLE_X, label)

    def _from_label(self, role: str, label: str) -> int:
        try:
            return self._flat[role][label]
        except KeyError:
            raise InvalidParamsError(f"unknown composite {role} label {label!r}") from None

    def y_from_label(self, label: str) -> int:
        return self.y_var.alphabet.index(label)


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Dataset:
    """Records as flattened category indices; ``y < 0`` marks a missing
    outcome (apply-mode data).  ``stream_ids`` key per-record randomness
    and default to the record position."""

    schema: Schema
    d: np.ndarray
    x: np.ndarray
    y: np.ndarray
    stream_ids: np.ndarray = None

    def __post_init__(self):
        d = np.asarray(self.d, dtype=np.int64)
        x = np.asarray(self.x, dtype=np.int64)
        y = np.asarray(self.y, dtype=np.int64)
        if not (d.shape == x.shape == y.shape) or d.ndim != 1:
            raise InvalidParamsError("d, x, y must be 1-d arrays of equal length")
        if d.size == 0:
            raise EmptyDatasetError("dataset has no records")
        nd, nx, ny = self.schema.nd, self.schema.nx, self.schema.ny
        if d.min() < 0 or d.max() >= nd or x.min() < 0 or x.max() >= nx:
            raise InvalidParamsError("record index outside schema domain")
        if y.max() >= ny or y.min() < -1:  # -1 marks a missing outcome
            raise InvalidParamsError("record index outside schema domain")
        sid = self.stream_ids
        if sid is None:
            sid = np.arange(d.size, dtype=np.int64)
        else:
            sid = np.asarray(sid, dtype=np.int64)
            if sid.shape != d.shape:
                raise InvalidParamsError("stream_ids must align with records")
        object.__setattr__(self, "d", _readonly(d))
        object.__setattr__(self, "x", _readonly(x))
        object.__setattr__(self, "y", _readonly(y))
        object.__setattr__(self, "stream_ids", _readonly(sid))

    def __len__(self) -> int:
        return int(self.d.size)

    @property
    def has_outcomes(self) -> bool:
        return bool((self.y >= 0).all())


@dataclass(frozen=True)
class JointPMF:
    """Dense joint distribution over (D, X, Y), exactly normalized.

    ``n`` records the sample count when empirically estimated, for use by
    the finite-sample robustness bounds.
    """

    schema: Schema
    mass: np.ndarray
    n: Optional[int] = None

    def __post_init__(self):
        shape = (self.schema.nd, self.schema.nx, self.schema.ny)
        object.__setattr__(self, "mass", probabilities(self.mass, shape, MASS_ATOL, "mass"))

    # convenient marginals used throughout the package
    def p_d(self) -> np.ndarray:
        return self.mass.sum(axis=(1, 2))

    def p_y(self) -> np.ndarray:
        return self.mass.sum(axis=(0, 1))

    def p_xy(self) -> np.ndarray:
        return self.mass.sum(axis=0)

    def p_x(self) -> np.ndarray:
        return self.mass.sum(axis=(0, 2))

    def p_dy(self) -> np.ndarray:
        return self.mass.sum(axis=1)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def estimate_empirical(dataset: Dataset) -> JointPMF:
    """Empirical joint distribution of a fully-labeled dataset.

    Retains the record count for the robustness-bound calculators.
    """
    if not dataset.has_outcomes:
        raise MissingOutcomeError("empirical estimation requires outcome labels")
    schema = dataset.schema
    counts = np.zeros((schema.nd, schema.nx, schema.ny), dtype=np.float64)
    np.add.at(counts, (dataset.d, dataset.x, dataset.y), 1.0)
    return JointPMF(schema, counts / counts.sum(), n=len(dataset))


def _vectors(p, q) -> tuple[np.ndarray, np.ndarray]:
    pv, qv = (np.asarray(a, dtype=np.float64).ravel() for a in (p, q))
    if pv.shape != qv.shape:
        raise SupportMismatchError(f"supports differ: {pv.shape} vs {qv.shape}")
    return pv, qv


def _rel_entr(x: float, y: float) -> float:
    # SciPy's rel_entr (1.17) term for term: log1p where x / y is near 1,
    # and log x - log y where x / y is not a normal float
    if x > 0.0 and y > 0.0:
        r = x / y
        if 0.5 < r < 2.0:
            return x * math.log1p((x - y) / y)
        if sys.float_info.min <= r <= sys.float_info.max:
            return x * math.log(r)
        return x * (math.log(x) - math.log(y))
    if x == 0.0 and y >= 0.0:
        return 0.0
    return math.nan if x != x or y != y else math.inf


def _xlogy(x: float, y: float) -> float:
    if x == 0.0 and y == y:
        return 0.0
    if y > 0.0:
        return x * math.log(y)
    return x * -math.inf if y == 0.0 else math.nan


def _libm(term, x, y) -> np.ndarray:
    # one libm call per element, through math: numpy's SIMD log and log1p
    # differ from libm in the last bit
    x, y = (np.asarray(a, dtype=np.float64).ravel().tolist() for a in (x, y))
    return np.fromiter(map(term, x, y), np.float64, len(x))


def rel_entr(x, y) -> np.ndarray:
    """x log(x / y) elementwise, 0 where x = 0 <= y, NaN where x or y is NaN
    and inf wherever else x and y are not both positive: the same floats as
    ``scipy.special.rel_entr``."""
    return _libm(_rel_entr, x, y)


def xlogy(x, y) -> np.ndarray:
    """x log y elementwise, 0 where x is 0 and y is not NaN: the same floats
    as ``scipy.special.xlogy``."""
    return _libm(_xlogy, x, y)


def kl_divergence(p, q) -> float:
    """KL divergence in nats; +inf when q misses mass where p has some.

    Clamped at 0 (Gibbs' inequality): the sum rounds below 0 for p and q
    a few ulps apart."""
    pv, qv = _vectors(p, q)
    return max(float(rel_entr(pv, qv).sum()), 0.0)


def l1_distance(p, q) -> float:
    """Sum of absolute differences (twice the total variation); at most 2."""
    pv, qv = _vectors(p, q)
    return float(np.abs(pv - qv).sum())


def conditional(mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``mass`` over its last axis divided by their totals, and
    the mask of rows that carry mass; rows without mass are all zero.

    ``conditional(pmf.mass)`` is p(y | d, x), ``conditional(pmf.p_xy())``
    is p(y | x) and ``conditional(pmf.p_dy())`` the group outcome rates."""
    totals = mass.sum(axis=-1, keepdims=True)
    present = totals[..., 0] > 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        cond = np.where(totals > 0.0, mass / np.where(totals > 0, totals, 1.0), 0.0)
    return cond, present


def probabilities(values, shape: tuple, atol: float, name: str,
                  axis: Optional[int] = None) -> np.ndarray:
    """``values`` as a read-only float64 array of ``shape`` whose entries
    are finite and nonnegative and sum to 1 within ``atol`` over the whole
    array, or over ``axis``: the one rule of every pmf, kernel, apply
    mapper and target.  ``name`` names the array in a refusal."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != shape:
        raise InvalidParamsError(f"{name} must have shape {shape}, not {arr.shape}")
    # NaN fails every comparison, so it fails both of these
    if not (arr.min() >= 0.0 and arr.max() < np.inf):
        raise InvalidParamsError(f"{name} has negative or non-finite probabilities")
    if not np.abs(arr.sum(axis=axis) - 1.0).max() <= atol:
        raise InvalidParamsError(f"{name} does not sum to 1 within {atol}")
    return _readonly(arr)
