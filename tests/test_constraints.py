"""Constraint-assembly unit and property tests."""

import hashlib

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
    audit_discrimination,
    build_discrimination_constraints,
    build_distortion_constraints,
    identity_kernel,
    ratio_distance,
)
from fairmap.constants import FORBIDDEN
from fairmap.errors import MissingBudgetError, ZeroReferenceError

from conftest import make_schema, make_schema_multi, random_pmf


def kernel_vec(layout, kernel):
    return np.concatenate([kernel.probs[cell] for cell in cells(layout)])


def cells(layout):
    return list(zip(layout.d.tolist(), layout.x.tolist(), layout.y.tolist()))


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
        cs = build_discrimination_constraints(spec, pmf)
        assert cs.n_constraints == 8  # 2 outcomes x 2 groups x 2 sides

    def test_pairwise_counting(self, rng):
        pmf = random_pmf(make_schema(nx=1, nd=3), rng)
        spec = DiscriminationSpec(mode="pairwise", epsilon=0.1)
        cs = build_discrimination_constraints(spec, pmf)
        # 3 unordered pairs x 2 outcomes x 2 one-sided bounds
        assert cs.n_constraints == 12

    def test_identity_kernel_on_independent_pmf_satisfies(self, rng):
        schema = make_schema(nx=2)
        pd = np.array([0.4, 0.6])
        pxy = rng.dirichlet(np.ones(4)).reshape(2, 2)
        pmf = JointPMF(schema, pd[:, None, None] * pxy[None, :, :])
        layout = VariableLayout.from_pmf(pmf)
        kvec = kernel_vec(layout, identity_kernel(schema))
        for eps in (0.0, 0.1, 0.7):
            spec = DiscriminationSpec(mode="target", epsilon=eps)
            cs = build_discrimination_constraints(spec, pmf, layout)
            assert cs.residuals(kvec).max() <= 1e-12

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
        cs = build_discrimination_constraints(spec, pmf, layout)
        assert cs.residuals(kvec).max() > 0.01

    def test_zero_mass_group_skipped_with_warning(self):
        schema = make_schema(nx=1, nd=3)
        mass = np.zeros((3, 1, 2))
        mass[0, 0] = [0.3, 0.2]
        mass[1, 0] = [0.1, 0.4]
        pmf = JointPMF(schema, mass)
        spec = DiscriminationSpec(mode="target", epsilon=0.1)
        cs = build_discrimination_constraints(spec, pmf)
        assert cs.n_constraints == 8
        assert any("zero mass" in w for w in cs.warnings)

    def test_degenerate_target_rejected(self, rng):
        pmf = random_pmf(make_schema(nx=1), rng)
        spec = DiscriminationSpec(
            mode="target", target=np.array([1.0, 0.0]), epsilon=0.1
        )
        with pytest.raises(ZeroReferenceError):
            build_discrimination_constraints(spec, pmf)

    def test_conditional_segments_and_min_count(self, rng):
        schema = make_schema(nx=2)
        pmf = random_pmf(schema, rng, n=1000)
        spec = DiscriminationSpec(
            mode="conditional", epsilon=0.2, condition_on=("feat",),
            min_cell_count=20,
        )
        cs = build_discrimination_constraints(spec, pmf)
        # 2 groups x 2 segments x 2 outcomes x 2 sides unless undersized
        assert cs.n_constraints + 4 * len(cs.warnings) == 16

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
        cs = build_discrimination_constraints(spec, pmf)
        assert any("fewer than 20" in w for w in cs.warnings)
        assert cs.n_constraints == 8  # only the populated segment survives

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
                build_discrimination_constraints(spec, pmf, layout)
            return
        cs = build_discrimination_constraints(spec, pmf, layout)
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
        cs = build_discrimination_constraints(spec, pmf)
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
        cs = build_distortion_constraints(
            flip_metric(), DistortionBudget("expected", c=0.5), pmf, layout
        )
        assert cs.n_constraints == layout.n_rows

    def test_zero_budget_forces_identity(self, rng):
        schema = make_schema(nx=1)
        pmf = random_pmf(schema, rng)
        layout = VariableLayout.from_pmf(pmf)
        cs = build_distortion_constraints(
            flip_metric(), DistortionBudget("expected", c=0.0), pmf, layout
        )
        kvec = kernel_vec(layout, identity_kernel(schema))
        assert cs.residuals(kvec).max() <= 0.0
        # any off-identity mass violates
        bad = kvec.copy()
        bad[0], bad[1] = 0.9, 0.1
        if layout.y[0] == 0:
            assert cs.residuals(bad).max() > 0.0

    def test_thresholded_counts_and_zero_budget_pinning(self, rng):
        schema = make_schema(nx=1)
        pmf = random_pmf(schema, rng)
        layout = VariableLayout.from_pmf(pmf)
        budget = DistortionBudget(
            "thresholded", pairs=((0.9, 0.1), (1.9, 0.05), (2.9, 0.0))
        )
        metric = flip_metric(cost01=3.0, cost10=1.0)
        cs = build_distortion_constraints(metric, budget, pmf, layout)
        assert cs.n_constraints == 3 * layout.n_rows
        assert cs.fixed_zero is not None
        # flipping 0 -> 1 costs 3 > 2.9 with budget 0: pinned
        for row, (d, x, y) in enumerate(cells(layout)):
            base = row * layout.row_dim
            if y == 0:
                assert cs.fixed_zero[base + 1]
            else:
                assert not cs.fixed_zero[base]

    def test_thresholded_reduces_to_exceedance_bound(self, rng):
        # single threshold + 0/1-valued distortion: the constraint is the
        # probability of an undesirable mapping
        schema = make_schema(nx=1)
        pmf = random_pmf(schema, rng)
        layout = VariableLayout.from_pmf(pmf)
        metric = flip_metric(cost01=1.0, cost10=1.0)
        budget = DistortionBudget("thresholded", pairs=((0.5, 0.2),))
        cs = build_distortion_constraints(metric, budget, pmf, layout)
        kvec = rng.dirichlet(np.ones(2), size=layout.n_rows).ravel()
        for row, (d, x, y) in enumerate(cells(layout)):
            flip_mass = kvec[row * 2 + (1 - y)]
            expected_residual = flip_mass - 0.2
            assert cs.residuals(kvec)[row] == pytest.approx(
                expected_residual, abs=1e-12
            )

    def test_forbidden_entries_pinned_under_expected_budget(self, rng):
        schema = make_schema(nx=1)
        pmf = random_pmf(schema, rng)
        layout = VariableLayout.from_pmf(pmf)
        metric = flip_metric(cost01=1e4, cost10=2.0)
        cs = build_distortion_constraints(
            metric, DistortionBudget("expected", c=0.5), pmf, layout
        )
        for row, (d, x, y) in enumerate(cells(layout)):
            base = row * layout.row_dim
            assert cs.fixed_zero[base + 1] == (y == 0)

    def test_missing_budget_raises(self, rng):
        schema = make_schema(nx=1)
        pmf = random_pmf(schema, rng)
        cgrid = np.full((2, 1, 2), np.nan)
        with pytest.raises(MissingBudgetError):
            build_distortion_constraints(
                flip_metric(), DistortionBudget("expected", c=cgrid), pmf
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


def _pinned_case(name):
    multi = make_schema_multi()
    if name == "target_zero_group":
        schema = make_schema(nx=3, nd=3)
        pmf = patterned_pmf(
            schema, zeros=[(1, x, y) for x in range(3) for y in range(2)]
            + [(0, 2, 1), (2, 0, 0)],
        )
        eps = {(y, d): 0.05 + 0.1 * y + 0.02 * d for y in (0, 1) for d in range(3)}
        return build_discrimination_constraints(
            DiscriminationSpec(mode="target", epsilon=eps), pmf)
    if name == "pairwise_asymmetric":
        pmf = patterned_pmf(make_schema(nx=2, nd=3), zeros=[(1, 1, 0)])
        return build_discrimination_constraints(
            DiscriminationSpec(mode="pairwise", epsilon=_pairwise_eps()), pmf)
    if name == "conditional_explicit_target":
        pmf = patterned_pmf(multi, zeros=[(0, 1, 1), (2, 4, 0), (3, 5, 1)])
        spec = DiscriminationSpec(mode="conditional", target=np.array([0.35, 0.65]),
                                  epsilon=0.2, condition_on=("job",))
        return build_discrimination_constraints(spec, pmf)
    if name == "conditional_default_target":
        # zero mass in segment (d=1, x=3); condition order differs from
        # the declaration order
        pmf = patterned_pmf(multi, zeros=[(1, 3, 0), (1, 3, 1), (2, 0, 1)], n=100_000)
        eps = {(y, d, b): 0.1 + 0.01 * ((y + d + b) % 5)
               for y in (0, 1) for d in range(4) for b in range(6)}
        spec = DiscriminationSpec(mode="conditional", epsilon=eps,
                                  condition_on=("job", "age"))
        return build_discrimination_constraints(spec, pmf)
    if name == "conditional_undersized":
        pmf = patterned_pmf(multi, zeros=[(0, 0, 0), (0, 1, 0), (0, 1, 1)], n=300)
        spec = DiscriminationSpec(mode="conditional", epsilon=0.25,
                                  condition_on=("age",), min_cell_count=20)
        return build_discrimination_constraints(spec, pmf)
    if name == "expected_forbidden":
        schema = make_schema(nx=3, nd=2)
        pmf = patterned_pmf(schema, zeros=[(0, 1, 1), (1, 2, 0)])
        cgrid = ((np.arange(12) * 5) % 7 * 0.25).reshape(2, 3, 2)
        cgrid[1, 0, 1] = 2 * FORBIDDEN  # reaches the forbidden entries
        cgrid[1, 2, 0] = np.nan  # zero-mass cell: no budget needed
        return build_distortion_constraints(
            _three_cell_metric(), DistortionBudget("expected", c=cgrid), pmf)
    if name == "thresholded_zero_budget":
        schema = make_schema(nx=3, nd=2)
        pmf = patterned_pmf(schema, zeros=[(1, 1, 0)])
        per_cell = ((np.arange(12) * 3) % 4 * 0.1).reshape(2, 3, 2)
        budget = DistortionBudget(
            "thresholded", pairs=((0.75, 0.4), (1.5, per_cell), (2.5, 0.0)))
        return build_distortion_constraints(_three_cell_metric(), budget, pmf)
    raise KeyError(name)


def block_digests(cs):
    """sha256 (first 16 hex digits) of each part of an assembled block."""
    parts = {
        "data": cs.G.data.tobytes(),
        "indices": cs.G.indices.astype(np.int64).tobytes(),
        "indptr": cs.G.indptr.astype(np.int64).tobytes(),
        "h": cs.h.tobytes(),
        "labels": "\n".join(cs.labels).encode(),
        "warnings": "\n".join(cs.warnings).encode(),
        "fixed_zero": b"none" if cs.fixed_zero is None
        else cs.fixed_zero.astype(np.uint8).tobytes(),
    }
    return {k: hashlib.sha256(v).hexdigest()[:16] for k, v in parts.items()}


_PARTS = ("data", "indices", "indptr", "h", "labels", "warnings", "fixed_zero")


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
        cs = _pinned_case(name)
        assert block_digests(cs) == PINNED_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
    def test_canonical_csr(self, name):
        G = _pinned_case(name).G
        assert G.format == "csr"
        assert G.has_sorted_indices
        assert all((np.diff(G.indices[a:b]) > 0).all()
                   for a, b in zip(G.indptr[:-1], G.indptr[1:]))
        assert (G.data != 0).all()
