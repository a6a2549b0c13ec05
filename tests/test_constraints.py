"""Constraint-assembly unit and property tests."""

import hashlib
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairmap import (
    DiscriminationSpec,
    DistortionBudget,
    DistortionMetric,
    JointPMF,
    TransformKernel,
    VariableLayout,
    assemble,
    audit_discrimination,
    identity_kernel,
    ratio_distance,
)
from fairmap._csr import CSR, vstack, zeros
from fairmap.constants import FORBIDDEN
from fairmap.constraints import (
    _discrimination_rows,
    _distortion_rows,
    _distortion_terms,
)
from fairmap.errors import MissingBudgetError, UnknownVariableError, ZeroReferenceError
from fairmap.optimizer import _identity_anchor, _image_map
from fairmap.presets import preset_config

from conftest import make_schema, make_schema_multi, random_pmf, scipy_csr
from test_properties import random_instance


def kernel_vec(layout, kernel):
    return np.concatenate([kernel.probs[cell] for cell in cells(layout)])


def cells(layout):
    return list(zip(layout.d.tolist(), layout.x.tolist(), layout.y.tolist()))


SideRows = namedtuple("SideRows", "G h labels warnings")


def full_layout_rows(pmf, spec, metric=None, budget=None, layout=None):
    """The side rows (G, h, labels, warnings) of a program in which every
    layout entry is a variable, and the entries the budget pins (None
    without a metric): the full-layout reference that an assembled
    program restricts."""
    if layout is None:
        layout = VariableLayout.from_pmf(pmf)
    every = np.arange(layout.n_vars)
    blocks, pinned = [(zeros((0, layout.n_vars)), np.zeros(0), (), ())], None
    if spec is not None:
        blocks.append(_discrimination_rows(spec, pmf, layout, every))
    if metric is not None:
        D, pairs, pinned = _distortion_terms(metric, budget, layout)
        blocks.append(_distortion_rows(D, pairs, layout, every) + ((),))
    G, h, labels, warnings = zip(*blocks)
    return SideRows(vstack(G), np.concatenate(h), sum(labels, ()),
                    sum(warnings, ())), pinned


def flip_metric(cost01=1.0, cost10=1.0):
    return DistortionMetric(
        "per_attribute",
        x_tables=(np.zeros((1, 1)),),
        y_table=np.array([[0.0, cost01], [cost10, 0.0]]),
        combiner="sum",
    )


class TestRatioDistance:
    def test_identity(self):
        assert ratio_distance(0.5, 0.5) == 0.0

    def test_forced_arithmetic(self):
        assert ratio_distance(0.6, 0.5) == pytest.approx(0.2, abs=1e-15)

    def test_compas_before_rates(self):
        # male A-A vs male Caucasian positive rates before transformation
        assert ratio_distance(0.593, 0.430) == pytest.approx(
            0.3790697674418605, abs=1e-12
        )
        assert ratio_distance(0.593, 0.430) > 0.1

    def test_zero_reference(self):
        with pytest.raises(ZeroReferenceError):
            ratio_distance(0.5, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(1e-3, 1.0),
        st.floats(0.0, 1.0),
    )
    def test_quasiconvex_in_first_argument(self, a, b, q, lam):
        mid = ratio_distance(lam * a + (1 - lam) * b, q)
        assert mid <= max(ratio_distance(a, q), ratio_distance(b, q)) + 1e-12


class TestDiscriminationAssembly:
    def test_target_counting_two_groups_binary(self, rng):
        pmf = random_pmf(make_schema(nx=1), rng)
        spec = DiscriminationSpec(mode="target", epsilon=0.1)
        cs, _ = full_layout_rows(pmf, spec)
        assert cs.h.size == 8  # 2 outcomes x 2 groups x 2 sides

    def test_pairwise_counting(self, rng):
        pmf = random_pmf(make_schema(nx=1, nd=3), rng)
        spec = DiscriminationSpec(mode="pairwise", epsilon=0.1)
        cs, _ = full_layout_rows(pmf, spec)
        # 3 unordered pairs x 2 outcomes x 2 one-sided bounds
        assert cs.h.size == 12

    def test_identity_kernel_on_independent_pmf_satisfies(self, rng):
        schema = make_schema(nx=2)
        pd = np.array([0.4, 0.6])
        pxy = rng.dirichlet(np.ones(4)).reshape(2, 2)
        pmf = JointPMF(schema, pd[:, None, None] * pxy[None, :, :])
        layout = VariableLayout.from_pmf(pmf)
        kvec = kernel_vec(layout, identity_kernel(schema))
        for eps in (0.0, 0.1, 0.7):
            spec = DiscriminationSpec(mode="target", epsilon=eps)
            cs, _ = full_layout_rows(pmf, spec, layout=layout)
            assert (cs.G @ kvec - cs.h).max() <= 1e-12

    def test_identity_kernel_on_biased_pmf_violates(self):
        # group rates 0.593 vs 0.430: pairwise J > 0.1 at the identity
        schema = make_schema(nx=1)
        mass = np.array(
            [[[0.5 * 0.407, 0.5 * 0.593]], [[0.5 * 0.570, 0.5 * 0.430]]]
        )
        pmf = JointPMF(schema, mass / mass.sum())
        layout = VariableLayout.from_pmf(pmf)
        kvec = kernel_vec(layout, identity_kernel(schema))
        spec = DiscriminationSpec(mode="pairwise", epsilon=0.1)
        cs, _ = full_layout_rows(pmf, spec, layout=layout)
        assert (cs.G @ kvec - cs.h).max() > 0.01

    def test_zero_mass_group_skipped_with_warning(self):
        schema = make_schema(nx=1, nd=3)
        mass = np.zeros((3, 1, 2))
        mass[0, 0] = [0.3, 0.2]
        mass[1, 0] = [0.1, 0.4]
        pmf = JointPMF(schema, mass)
        spec = DiscriminationSpec(mode="target", epsilon=0.1)
        cs, _ = full_layout_rows(pmf, spec)
        assert cs.h.size == 8
        assert any("zero mass" in w for w in cs.warnings)

    def test_degenerate_target_rejected(self, rng):
        pmf = random_pmf(make_schema(nx=1), rng)
        spec = DiscriminationSpec(
            mode="target", target=np.array([1.0, 0.0]), epsilon=0.1
        )
        with pytest.raises(ZeroReferenceError):
            full_layout_rows(pmf, spec)

    def test_conditional_segments_and_min_count(self, rng):
        schema = make_schema(nx=2)
        pmf = random_pmf(schema, rng, n=1000)
        spec = DiscriminationSpec(
            mode="conditional", epsilon=0.2, condition_on=("feat",),
            min_cell_count=20,
        )
        cs, _ = full_layout_rows(pmf, spec)
        # 2 groups x 2 segments x 2 outcomes x 2 sides unless undersized
        assert cs.h.size + 4 * len(cs.warnings) == 16

    def test_unknown_variable(self, rng):
        pmf = random_pmf(make_schema(nx=2), rng, n=1000)
        spec = DiscriminationSpec(mode="conditional", epsilon=0.2, condition_on=("nope",))
        with pytest.raises(UnknownVariableError):
            full_layout_rows(pmf, spec)

    def test_conditional_undersized_segment_warns(self):
        schema = make_schema(nx=2)
        mass = np.array([
            [[0.30, 0.30], [0.004, 0.006]],
            [[0.20, 0.18], [0.005, 0.005]],
        ])
        pmf = JointPMF(schema, mass / mass.sum(), n=1000)
        spec = DiscriminationSpec(
            mode="conditional", epsilon=0.2, condition_on=("feat",),
            min_cell_count=20,
        )
        cs, _ = full_layout_rows(pmf, spec)
        assert any("fewer than 20" in w for w in cs.warnings)
        assert cs.h.size == 8  # only the populated segment survives

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    @example(seed=106)  # target mode on a pmf with no y=1 mass
    def test_constraint_linearity_midpoint(self, seed):
        rng = np.random.default_rng(seed)
        schema = make_schema(nx=2)
        pmf = random_pmf(schema, rng, zero_fraction=0.2)
        layout = VariableLayout.from_pmf(pmf)
        mode = "target" if seed % 2 == 0 else "pairwise"
        spec = DiscriminationSpec(mode=mode, epsilon=0.2)
        if mode == "target" and (pmf.p_y() <= 0).any():
            # the default target is the outcome marginal, which must be
            # positive on both outcomes
            with pytest.raises(ZeroReferenceError, match="positive on both outcomes"):
                full_layout_rows(pmf, spec, layout=layout)
            return
        cs, _ = full_layout_rows(pmf, spec, layout=layout)
        k1 = rng.dirichlet(np.ones(layout.row_dim), size=layout.n_rows).ravel()
        k2 = rng.dirichlet(np.ones(layout.row_dim), size=layout.n_rows).ravel()
        mid = 0.5 * (k1 + k2)
        lhs_mid = cs.G @ mid
        lhs_avg = 0.5 * (cs.G @ k1 + cs.G @ k2)
        np.testing.assert_allclose(lhs_mid, lhs_avg, atol=1e-12)


class TestRowsMeanRates:
    """Applied to a kernel, each discrimination row gives the rate that
    the audit computes on its own from the pushforward joint."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_rows_reproduce_audited_rates(self, seed):
        rng = np.random.default_rng(seed)
        mode = ("target", "pairwise", "conditional")[seed % 3]
        if mode == "conditional":
            schema = make_schema_multi()
        else:
            schema = make_schema(nx=int(rng.integers(1, 4)), nd=int(rng.integers(1, 4)))
        pmf = random_pmf(schema, rng, zero_fraction=0.3)
        row_dim = schema.nx * schema.ny
        kernel = TransformKernel(schema, rng.dirichlet(
            np.ones(row_dim), size=(schema.nd, schema.nx, schema.ny)))
        target = np.array([0.45, 0.55])
        eps = 0.1
        if mode == "conditional":
            condition_on = [("age",), ("job",), ("job", "age")][int(rng.integers(3))]
            spec = DiscriminationSpec(mode=mode, target=target, epsilon=eps,
                                      condition_on=condition_on)
        else:
            spec = DiscriminationSpec(mode=mode, target=target, epsilon=eps)
        cs, _ = full_layout_rows(pmf, spec)
        assert cs.G.shape[0] == cs.h.size == len(cs.labels)
        layout = VariableLayout.from_pmf(pmf)
        gk = cs.G @ kernel_vec(layout, kernel)
        report = audit_discrimination(pmf, spec, kernel=kernel)
        present = np.flatnonzero(pmf.p_d() > 0)
        if mode == "target":
            expected = report.rates[present].ravel()
            np.testing.assert_allclose(gk[0::2], expected, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(gk[1::2], -gk[0::2])
        elif mode == "pairwise":
            r = report.rates
            expected = [
                v
                for i, d1 in enumerate(present)
                for d2 in present[i + 1 :]
                for y in (0, 1)
                for v in (r[d1, y] - (1 + eps) * r[d2, y],
                          r[d2, y] - (1 + eps) * r[d1, y])
            ]
            np.testing.assert_allclose(gk, expected, rtol=0, atol=1e-12)
        else:
            # the audit reports J = |rate / target - 1| per (y, d, b), in
            # the rows' (d, b, y) order
            upper = gk[0::2]
            assert upper.size == len(report.segment)
            js = np.abs(upper / np.tile(target, upper.size // 2) - 1.0)
            np.testing.assert_allclose(js, list(report.segment.values()),
                                       rtol=0, atol=1e-12)


class TestDistortionAssembly:
    def test_expected_one_per_positive_cell(self, rng):
        schema = make_schema(nx=1)
        pmf = random_pmf(schema, rng, zero_fraction=0.3)
        layout = VariableLayout.from_pmf(pmf)
        cs, _ = full_layout_rows(
            pmf, None, flip_metric(), DistortionBudget("expected", c=0.5), layout
        )
        assert cs.h.size == layout.n_rows

    def test_zero_budget_forces_identity(self, rng):
        schema = make_schema(nx=1)
        pmf = random_pmf(schema, rng)
        layout = VariableLayout.from_pmf(pmf)
        cs, _ = full_layout_rows(
            pmf, None, flip_metric(), DistortionBudget("expected", c=0.0), layout
        )
        kvec = kernel_vec(layout, identity_kernel(schema))
        assert (cs.G @ kvec - cs.h).max() <= 0.0
        # any off-identity mass violates
        bad = kvec.copy()
        bad[0], bad[1] = 0.9, 0.1
        if layout.y[0] == 0:
            assert (cs.G @ bad - cs.h).max() > 0.0

    def test_thresholded_counts_and_zero_budget_pinning(self, rng):
        schema = make_schema(nx=1)
        pmf = random_pmf(schema, rng)
        layout = VariableLayout.from_pmf(pmf)
        budget = DistortionBudget(
            "thresholded", pairs=((0.9, 0.1), (1.9, 0.05), (2.9, 0.0))
        )
        metric = flip_metric(cost01=3.0, cost10=1.0)
        cs, pinned = full_layout_rows(pmf, None, metric, budget, layout)
        assert cs.h.size == 3 * layout.n_rows == cs.G.shape[0] == len(cs.labels)
        assert pinned is not None
        # flipping 0 -> 1 costs 3 > 2.9 with budget 0: pinned
        for row, (d, x, y) in enumerate(cells(layout)):
            base = row * layout.row_dim
            if y == 0:
                assert pinned[base + 1]
            else:
                assert not pinned[base]

    def test_thresholded_reduces_to_exceedance_bound(self, rng):
        # single threshold + 0/1-valued distortion: the constraint is the
        # probability of an undesirable mapping
        schema = make_schema(nx=1)
        pmf = random_pmf(schema, rng)
        layout = VariableLayout.from_pmf(pmf)
        metric = flip_metric(cost01=1.0, cost10=1.0)
        budget = DistortionBudget("thresholded", pairs=((0.5, 0.2),))
        cs, _ = full_layout_rows(pmf, None, metric, budget, layout)
        kvec = rng.dirichlet(np.ones(2), size=layout.n_rows).ravel()
        residuals = cs.G @ kvec - cs.h
        for row, (d, x, y) in enumerate(cells(layout)):
            flip_mass = kvec[row * 2 + (1 - y)]
            expected_residual = flip_mass - 0.2
            assert residuals[row] == pytest.approx(
                expected_residual, abs=1e-12
            )

    def test_forbidden_entries_pinned_under_expected_budget(self, rng):
        schema = make_schema(nx=1)
        pmf = random_pmf(schema, rng)
        layout = VariableLayout.from_pmf(pmf)
        metric = flip_metric(cost01=1e4, cost10=2.0)
        _, pinned = full_layout_rows(
            pmf, None, metric, DistortionBudget("expected", c=0.5), layout
        )
        for row, (d, x, y) in enumerate(cells(layout)):
            base = row * layout.row_dim
            assert pinned[base + 1] == (y == 0)

    def test_missing_budget_raises(self, rng):
        schema = make_schema(nx=1)
        pmf = random_pmf(schema, rng)
        cgrid = np.full((2, 1, 2), np.nan)
        with pytest.raises(MissingBudgetError):
            full_layout_rows(
                pmf, None, flip_metric(), DistortionBudget("expected", c=cgrid)
            )

    def test_layout_counts(self, rng):
        schema = make_schema(nx=2)
        pmf = random_pmf(schema, rng)
        layout = VariableLayout.from_pmf(pmf)
        assert layout.n_rows == 8
        assert layout.row_dim == 4
        assert layout.n_vars == 32


# ---------------------------------------------------------------------------
# pinned bytes: fixed instances whose assembled blocks must not change
# ---------------------------------------------------------------------------


def patterned_pmf(schema, zeros=(), n=None):
    """Masses 1..11 in a fixed pattern, listed (d, x, y) cells zeroed;
    integer totals keep the normalization exact."""
    shape = (schema.nd, schema.nx, schema.ny)
    mass = ((np.arange(int(np.prod(shape))) * 7) % 11 + 1.0).reshape(shape)
    for cell in zeros:
        mass[cell] = 0.0
    return JointPMF(schema, mass / mass.sum(), n=n)


def _pairwise_eps():
    eps = {}
    for y in (0, 1):
        for d1 in range(3):
            for d2 in range(3):
                if d1 != d2:
                    eps[(y, d1, d2)] = 0.1 + 0.05 * y
    eps[(0, 0, 2)] = 0.13  # asymmetric, with a lower side of zero weight
    eps[(0, 2, 0)] = 1.0
    eps[(1, 1, 2)] = 0.17  # asymmetric
    return eps


def _three_cell_metric():
    x_table = np.array([[0.0, 1.0, FORBIDDEN], [1.0, 0.0, 1.0], [FORBIDDEN, 1.0, 0.0]])
    return DistortionMetric(
        "per_attribute", x_tables=(x_table,),
        y_table=np.array([[0.0, 2.0], [0.5, 0.0]]), combiner="sum",
    )


def _pinned_inputs(name):
    """(pmf, disc_spec, metric, budget) of a pinned case: a discrimination
    spec or a distortion pair, the other omitted."""
    multi = make_schema_multi()
    if name == "target_zero_group":
        schema = make_schema(nx=3, nd=3)
        pmf = patterned_pmf(
            schema, zeros=[(1, x, y) for x in range(3) for y in range(2)]
            + [(0, 2, 1), (2, 0, 0)],
        )
        eps = {(y, d): 0.05 + 0.1 * y + 0.02 * d for y in (0, 1) for d in range(3)}
        return pmf, DiscriminationSpec(mode="target", epsilon=eps), None, None
    if name == "pairwise_asymmetric":
        pmf = patterned_pmf(make_schema(nx=2, nd=3), zeros=[(1, 1, 0)])
        return pmf, DiscriminationSpec(mode="pairwise", epsilon=_pairwise_eps()), None, None
    if name == "pairwise_unit_tolerance":
        # eps(y, d1, d2) = 1 for one ordered pair d1 < d2: the lower side
        # (1|2) then has coefficient 1 - eps = 0 on the rate of d2, so
        # that row holds -R_d1 alone
        pmf = patterned_pmf(make_schema(nx=2, nd=3), zeros=[(2, 0, 1)])
        eps = {(y, d1, d2): 0.2 for y in (0, 1) for d1 in range(3) for d2 in range(3)
               if d1 != d2}
        eps[(0, 0, 1)] = 1.0
        eps[(1, 1, 2)] = 1.0
        return pmf, DiscriminationSpec(mode="pairwise", epsilon=eps), None, None
    if name == "conditional_explicit_target":
        pmf = patterned_pmf(multi, zeros=[(0, 1, 1), (2, 4, 0), (3, 5, 1)])
        spec = DiscriminationSpec(mode="conditional", target=np.array([0.35, 0.65]),
                                  epsilon=0.2, condition_on=("job",))
        return pmf, spec, None, None
    if name == "conditional_default_target":
        # zero mass in segment (d=1, x=3); condition order differs from
        # the declaration order
        pmf = patterned_pmf(multi, zeros=[(1, 3, 0), (1, 3, 1), (2, 0, 1)], n=100_000)
        eps = {(y, d, b): 0.1 + 0.01 * ((y + d + b) % 5)
               for y in (0, 1) for d in range(4) for b in range(6)}
        spec = DiscriminationSpec(mode="conditional", epsilon=eps,
                                  condition_on=("job", "age"))
        return pmf, spec, None, None
    if name == "conditional_undersized":
        pmf = patterned_pmf(multi, zeros=[(0, 0, 0), (0, 1, 0), (0, 1, 1)], n=300)
        spec = DiscriminationSpec(mode="conditional", epsilon=0.25,
                                  condition_on=("age",), min_cell_count=20)
        return pmf, spec, None, None
    if name == "expected_forbidden":
        schema = make_schema(nx=3, nd=2)
        pmf = patterned_pmf(schema, zeros=[(0, 1, 1), (1, 2, 0)])
        cgrid = ((np.arange(12) * 5) % 7 * 0.25).reshape(2, 3, 2)
        cgrid[1, 0, 1] = 2 * FORBIDDEN  # reaches the forbidden entries
        cgrid[1, 2, 0] = np.nan  # zero-mass cell: no budget needed
        return pmf, None, _three_cell_metric(), DistortionBudget("expected", c=cgrid)
    if name == "thresholded_zero_budget":
        schema = make_schema(nx=3, nd=2)
        pmf = patterned_pmf(schema, zeros=[(1, 1, 0)])
        per_cell = ((np.arange(12) * 3) % 4 * 0.1).reshape(2, 3, 2)
        budget = DistortionBudget(
            "thresholded", pairs=((0.75, 0.4), (1.5, per_cell), (2.5, 0.0)))
        return pmf, None, _three_cell_metric(), budget
    raise KeyError(name)


def _pinned_case(name):
    """The full-layout rows of a pinned case, and its pinned entries."""
    return full_layout_rows(*_pinned_inputs(name))


def block_digests(cs, pinned):
    """sha256 (first 16 hex digits) of each part of an assembled block."""
    parts = {
        "data": cs.G.data.tobytes(),
        "indices": cs.G.indices.astype(np.int64).tobytes(),
        "indptr": cs.G.indptr.astype(np.int64).tobytes(),
        "h": cs.h.tobytes(),
        "labels": "\n".join(cs.labels).encode(),
        "warnings": "\n".join(cs.warnings).encode(),
        "pinned": b"none" if pinned is None else pinned.astype(np.uint8).tobytes(),
    }
    return {k: hashlib.sha256(v).hexdigest()[:16] for k, v in parts.items()}


_PARTS = ("data", "indices", "indptr", "h", "labels", "warnings", "pinned")


# a changed digest means the solver is handed a different program
PINNED_DIGESTS = {
    "target_zero_group": dict(zip(_PARTS, (
        "a91091a6af0ba1c2", "82a45e47267acd02", "f06a419426679083",
        "b9f5808d56f06d76", "54a81133ec931c72", "e099140ac62dbd27", "140bedbf9c3f6d56",
    ))),
    "pairwise_asymmetric": dict(zip(_PARTS, (
        "d5b6ec9aee75ef05", "bbd36dc7fd32be74", "3832598882069a4b",
        "38723a2e5e8a17aa", "4c6be0a83a3cc9a7", "e3b0c44298fc1c14", "140bedbf9c3f6d56",
    ))),
    "pairwise_unit_tolerance": dict(zip(_PARTS, (
        "580562e0aa8217e3", "242458e3e1181ea5", "3ee2aa58872868a9",
        "38723a2e5e8a17aa", "85da0f8ee057bee0", "e3b0c44298fc1c14", "140bedbf9c3f6d56",
    ))),
    "conditional_explicit_target": dict(zip(_PARTS, (
        "af719500881411db", "48eccb74c9edf128", "9bc89446beb5cfad",
        "71719a0bf2e23ac9", "e998652dba22b558", "e3b0c44298fc1c14", "140bedbf9c3f6d56",
    ))),
    "conditional_default_target": dict(zip(_PARTS, (
        "dde1b878e9e19025", "a370795273f3851f", "37908bd03c2b24ea",
        "35e2e319e94f83b0", "af4f53ddcb6e0ccb", "c62f15c56553a2c1", "140bedbf9c3f6d56",
    ))),
    "conditional_undersized": dict(zip(_PARTS, (
        "81cc994d0b9af198", "9b33c97d1436a88d", "218e59ff0ce8e166",
        "c26594eacc41e38f", "cc19e83417237b08", "08f9f9516761dfaf", "140bedbf9c3f6d56",
    ))),
    "expected_forbidden": dict(zip(_PARTS, (
        "c6eca0bfd091b2c3", "992e6a23cb955ba4", "adf7eb6ff8fcdf24",
        "bf84668c73425ab4", "4486c297a5b37eb2", "e3b0c44298fc1c14", "0605ef8c4744dcae",
    ))),
    "thresholded_zero_budget": dict(zip(_PARTS, (
        "f1c81324f1ec86f4", "507111ebc18a1951", "5c758418b1e9e479",
        "7e6a8f3b3d0c97cf", "43fc7e9de62f2fe9", "e3b0c44298fc1c14", "e6199aeb6f04dd81",
    ))),
}


class TestPinnedBytes:
    @pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
    def test_digests(self, name):
        assert block_digests(*_pinned_case(name)) == PINNED_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
    def test_canonical_csr(self, name):
        G = _pinned_case(name)[0].G
        assert isinstance(G, CSR) and G.indptr.dtype == G.indices.dtype == np.int32
        assert scipy_csr(G).has_sorted_indices
        assert all((np.diff(G.indices[a:b]) > 0).all()
                   for a, b in zip(G.indptr[:-1], G.indptr[1:]))
        assert (G.data != 0).all()


# ---------------------------------------------------------------------------
# the assembled program: rows built on the free entries alone
# ---------------------------------------------------------------------------


def reference_program(pmf, spec, metric, budget):
    """The side rows, free entries and image map of a program built from
    the full-layout rows, restricted to the entries the budget leaves free."""
    layout = VariableLayout.from_pmf(pmf)
    merged, pinned = full_layout_rows(pmf, spec, metric, budget, layout)
    free = np.arange(layout.n_vars) if pinned is None else np.flatnonzero(~pinned)
    return dict(
        G=scipy_csr(merged.G)[:, free], h=merged.h, labels=merged.labels, warnings=merged.warnings,
        free=free, A=_image_map(layout, free), anchor=_identity_anchor(layout, free),
        row_ptr=np.searchsorted(free, np.arange(layout.n_rows + 1) * layout.row_dim),
    )


def program_bytes(parts):
    """Every array of a program as (dtype, bytes); labels and warnings as text."""
    out = {}
    for name in ("G", "A"):
        for attr in ("data", "indices", "indptr"):
            arr = getattr(parts[name], attr)
            out[f"{name}.{attr}"] = (arr.dtype.str, arr.tobytes())
        out[f"{name}.shape"] = parts[name].shape
    for name in ("h", "free", "anchor", "row_ptr"):
        out[name] = (parts[name].dtype.str, parts[name].tobytes())
    out["labels"] = "\n".join(parts["labels"])
    out["warnings"] = "\n".join(parts["warnings"])
    return out


def assert_program_matches_reference(pmf, spec, metric, budget, objective):
    problem = assemble(pmf, spec, metric, budget, objective)
    prog = problem.program
    built = dict(G=prog.G, h=prog.h, labels=prog.labels, warnings=problem.warnings,
                 free=problem.free, A=prog.A, anchor=prog.anchor, row_ptr=prog.row_ptr)
    expected = program_bytes(reference_program(pmf, spec, metric, budget))
    got = program_bytes(built)
    assert [k for k in expected if got[k] != expected[k]] == []


class TestProgramOnFreeEntries:
    """``assemble`` builds its rows on the free entries only; the program
    must equal, byte for byte, the full-layout blocks restricted to them."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["l1", "kl"]))
    def test_random_instances(self, seed, objective):
        assert_program_matches_reference(*random_instance(seed), objective)

    @pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
    def test_pinned_cases(self, name):
        assert_program_matches_reference(*_pinned_inputs(name), "l1")

    @pytest.mark.parametrize("seed", [0, 1])
    def test_adult_preset_with_a_zero_threshold_budget(self, seed):
        # the preset's thresholded budget ends in a zero pair, which pins
        # every transition it exceeds; with the spec omitted, only the
        # distortion rows remain
        cfg = preset_config("adult")
        assert 0.0 in [c for _, c in cfg.budget.pairs]
        pmf = random_pmf(cfg.schema, np.random.default_rng(seed), zero_fraction=0.5)
        for spec in (cfg.discrimination, None):
            assert_program_matches_reference(pmf, spec, cfg.metric, cfg.budget, "l1")
        problem = assemble(pmf, cfg.discrimination, cfg.metric, cfg.budget, "l1")
        assert 0 < problem.free.size < problem.layout.n_vars

    def test_without_side_constraints(self, rng):
        pmf = random_pmf(make_schema(nx=2, nd=3), rng, zero_fraction=0.25)
        assert_program_matches_reference(pmf, None, None, None, "kl")
