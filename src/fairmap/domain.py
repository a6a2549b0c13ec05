"""Finite categorical domains, datasets, and exact discrete-distribution algebra.

Everything here is index-based: records and probability tables refer to
categories by integer index into their alphabets.  Labels (including the
"|"-joined composite labels for multi-variable groups) only appear at the
edges, for I/O and reporting.  All containers are immutable after
construction and all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np
from scipy.special import rel_entr

from .constants import MASS_ATOL, ROW_ATOL
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
    """A named finite set of category labels.

    ``ordinal`` marks alphabets whose declared order carries meaning
    (age bands, prior-count buckets); distortion rules may then speak of
    category "jumps".
    """

    name: str
    categories: tuple[str, ...]
    ordinal: bool = False

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

    kind "identity": the stripped raw string must already be a category.
    kind "map": explicit raw-value -> category mapping; unmapped values
        fall back to ``default`` when set, drop the whole record when
        ``drop_unmapped`` (used e.g. to remove sparse groups), and raise
        otherwise.
    kind "bins": numeric binning with right-open intervals; ``edges``
        ascending, ``len(labels) == len(edges) + 1``.
    """

    kind: str = "identity"
    mapping: Optional[Mapping[str, str]] = None
    default: Optional[str] = None
    drop_unmapped: bool = False
    edges: Optional[tuple[float, ...]] = None
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if self.kind not in ("identity", "map", "bins"):
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
        if self.kind == "identity":
            return raw
        if self.kind == "map":
            if raw in self.mapping:
                return self.mapping[raw]
            if self.default is not None:
                return self.default
            if self.drop_unmapped:
                return Quantizer.DROP
            raise InvalidParamsError(f"unmapped value {raw!r}")
        value = float(raw)
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


def _flatten(sizes: Sequence[int], indices: Sequence[int]) -> int:
    flat = 0
    for size, idx in zip(sizes, indices):
        flat = flat * size + idx
    return flat


@dataclass(frozen=True)
class Schema:
    """Named variables with roles; the product of D (resp. X) categories
    forms the flattened protected-group (resp. feature) domain.

    Exactly one binary outcome variable Y; at least one D and one X
    variable.  Multi-variable groups flatten row-major in declaration
    order and round-trip through "|"-joined composite labels.
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

    # -- composite indices and labels -------------------------------------------
    def flatten_d(self, indices: Sequence[int]) -> int:
        return _flatten(self.d_sizes, indices)

    def flatten_x(self, indices: Sequence[int]) -> int:
        return _flatten(self.x_sizes, indices)

    def unflatten_d(self, flat: int) -> tuple[int, ...]:
        return tuple(int(i) for i in np.unravel_index(flat, self.d_sizes))

    def unflatten_x(self, flat: int) -> tuple[int, ...]:
        return tuple(int(i) for i in np.unravel_index(flat, self.x_sizes))

    def d_label(self, flat: int) -> str:
        parts = self.unflatten_d(flat)
        return COMPOSITE_SEP.join(
            v.alphabet.categories[i] for v, i in zip(self.d_vars, parts)
        )

    def x_label(self, flat: int) -> str:
        parts = self.unflatten_x(flat)
        return COMPOSITE_SEP.join(
            v.alphabet.categories[i] for v, i in zip(self.x_vars, parts)
        )

    def y_label(self, idx: int) -> str:
        return self.y_var.alphabet.categories[idx]

    def d_from_label(self, label: str) -> int:
        parts = label.split(COMPOSITE_SEP)
        if len(parts) != len(self.d_vars):
            raise InvalidParamsError(f"bad composite D label {label!r}")
        return self.flatten_d(
            [v.alphabet.index(p) for v, p in zip(self.d_vars, parts)]
        )

    def x_from_label(self, label: str) -> int:
        parts = label.split(COMPOSITE_SEP)
        if len(parts) != len(self.x_vars):
            raise InvalidParamsError(f"bad composite X label {label!r}")
        return self.flatten_x(
            [v.alphabet.index(p) for v, p in zip(self.x_vars, parts)]
        )

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

    @classmethod
    def from_records(cls, schema: Schema, records: Iterable[tuple]) -> "Dataset":
        """Build from (d, x, y) index triples; y may be None."""
        rows = list(records)
        if not rows:
            raise EmptyDatasetError("dataset has no records")
        d = [r[0] for r in rows]
        x = [r[1] for r in rows]
        y = [-1 if r[2] is None else r[2] for r in rows]
        return cls(schema, np.array(d), np.array(x), np.array(y))

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
        mass = np.asarray(self.mass, dtype=np.float64)
        shape = (self.schema.nd, self.schema.nx, self.schema.ny)
        if mass.shape != shape:
            raise InvalidParamsError(f"mass must have shape {shape}")
        if (mass < 0).any():
            raise InvalidParamsError("negative probability mass")
        total = float(mass.sum())
        if abs(total - 1.0) > MASS_ATOL:
            raise InvalidParamsError(f"total mass {total} not within {MASS_ATOL} of 1")
        object.__setattr__(self, "mass", _readonly(mass))

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


@dataclass(frozen=True)
class MarginalPMF:
    """Distribution over an ordered subset of schema variables (one array
    axis per variable, in schema declaration order)."""

    variables: tuple[Alphabet, ...]
    mass: np.ndarray

    def __post_init__(self):
        mass = np.asarray(self.mass, dtype=np.float64)
        shape = tuple(len(a) for a in self.variables)
        if mass.shape != shape:
            raise InvalidParamsError(f"marginal mass must have shape {shape}")
        if (mass < 0).any():
            raise InvalidParamsError("negative probability mass")
        if abs(float(mass.sum()) - 1.0) > MASS_ATOL:
            raise InvalidParamsError("marginal mass not normalized")
        object.__setattr__(self, "mass", _readonly(mass))


@dataclass(frozen=True)
class ConditionalPMF:
    """Rows of conditional probabilities, one per positive-mass given-cell.

    ``rows`` maps a given-cell index tuple to a vector over flattened
    target cells.  Zero-mass given-cells are listed in ``absent`` instead
    of being invented; downstream consumers skip them with a warning.
    """

    given_variables: tuple[Alphabet, ...]
    target_variables: tuple[Alphabet, ...]
    rows: Mapping[tuple, np.ndarray]
    absent: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        frozen = {}
        for cell, row in self.rows.items():
            row = np.asarray(row, dtype=np.float64)
            if abs(float(row.sum()) - 1.0) > ROW_ATOL:
                raise InvalidParamsError(f"conditional row {cell} does not sum to 1")
            frozen[tuple(cell)] = _readonly(row)
        object.__setattr__(self, "rows", frozen)
        object.__setattr__(self, "absent", frozenset(self.absent))

    def row(self, cell: tuple) -> np.ndarray:
        return self.rows[tuple(cell)]


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


def _axes_by_variable(pmf: JointPMF) -> tuple[tuple[Alphabet, ...], np.ndarray]:
    """Joint mass reshaped with one axis per schema variable (D, X, Y order)."""
    schema = pmf.schema
    ordered = schema.d_vars + schema.x_vars + (schema.y_var,)
    alphabets = tuple(v.alphabet for v in ordered)
    shape = tuple(len(a) for a in alphabets)
    return alphabets, pmf.mass.reshape(shape)


def marginalize(pmf: JointPMF, keep: Iterable[str]) -> MarginalPMF:
    """Sum out all variables not named in ``keep``; mass is preserved."""
    keep = set(keep)
    alphabets, full = _axes_by_variable(pmf)
    names = [a.name for a in alphabets]
    for name in keep:
        if name not in names:
            raise UnknownVariableError(name)
    drop_axes = tuple(i for i, name in enumerate(names) if name not in keep)
    kept = tuple(a for a in alphabets if a.name in keep)
    mass = full.sum(axis=drop_axes) if drop_axes else full
    return MarginalPMF(kept, mass)


def condition(pmf: JointPMF, given: Iterable[str]) -> ConditionalPMF:
    """Conditional of the remaining variables given the named ones.

    Rows exist only for given-cells with positive marginal mass; the rest
    are reported as absent rather than filled in.
    """
    given = list(given)
    alphabets, full = _axes_by_variable(pmf)
    names = [a.name for a in alphabets]
    for name in given:
        if name not in names:
            raise UnknownVariableError(name)
    given_axes = tuple(i for i, name in enumerate(names) if name in given)
    target_axes = tuple(i for i in range(len(names)) if i not in given_axes)
    given_alpha = tuple(alphabets[i] for i in given_axes)
    target_alpha = tuple(alphabets[i] for i in target_axes)
    # move given axes to the front, flatten both groups
    moved = np.moveaxis(full, given_axes, range(len(given_axes)))
    g_size = int(np.prod([len(a) for a in given_alpha], initial=1))
    t_size = int(np.prod([len(a) for a in target_alpha], initial=1))
    table = moved.reshape(g_size, t_size)
    rows = {}
    absent = set()
    g_shape = tuple(len(a) for a in given_alpha)
    for flat in range(g_size):
        cell = tuple(int(i) for i in np.unravel_index(flat, g_shape)) if g_shape else ()
        total = table[flat].sum()
        if total <= 0.0:
            absent.add(cell)
        else:
            rows[cell] = table[flat] / total
    return ConditionalPMF(given_alpha, target_alpha, rows, frozenset(absent))


def _as_vector(p) -> np.ndarray:
    if isinstance(p, (JointPMF, MarginalPMF)):
        return np.asarray(p.mass, dtype=np.float64).ravel()
    return np.asarray(p, dtype=np.float64).ravel()


def kl_divergence(p, q) -> float:
    """KL divergence in nats; +inf when q misses mass where p has some.

    Clamped at 0 (Gibbs' inequality): the sum rounds below 0 for p and q
    a few ulps apart."""
    pv, qv = _as_vector(p), _as_vector(q)
    if pv.shape != qv.shape:
        raise SupportMismatchError(
            f"supports differ: {pv.shape} vs {qv.shape}"
        )
    return max(float(rel_entr(pv, qv).sum()), 0.0)


def l1_distance(p, q) -> float:
    """Sum of absolute differences (twice the total variation); at most 2."""
    pv, qv = _as_vector(p), _as_vector(q)
    if pv.shape != qv.shape:
        raise SupportMismatchError(
            f"supports differ: {pv.shape} vs {qv.shape}"
        )
    return float(np.abs(pv - qv).sum())


def cond_y_given_dx(pmf: JointPMF) -> tuple[np.ndarray, np.ndarray]:
    """p(y | d, x) as an (nd, nx, ny) array plus a boolean mask of the
    (d, x) cells that actually carry mass (rows elsewhere are unusable)."""
    mass = pmf.mass
    totals = mass.sum(axis=2, keepdims=True)
    present = totals[..., 0] > 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        cond = np.where(totals > 0.0, mass / np.where(totals > 0, totals, 1.0), 0.0)
    return cond, present


def cond_y_given_x(pmf: JointPMF) -> tuple[np.ndarray, np.ndarray]:
    """p(y | x) as an (nx, ny) array plus the positive-mass x mask."""
    xy = pmf.p_xy()
    totals = xy.sum(axis=1, keepdims=True)
    present = totals[:, 0] > 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        cond = np.where(totals > 0.0, xy / np.where(totals > 0, totals, 1.0), 0.0)
    return cond, present
