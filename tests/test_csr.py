"""The program-matrix record ``fairmap._csr.CSR`` against ``scipy.sparse``
matrices built from the same entries: every operation the package calls
(construction, stacking, row selection, the C R and G S products, matvec,
transpose matvec and column sums) gives the same arrays and floats, bit
for bit."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmap import assemble
from fairmap._csr import CSR, hstack, identity, vstack, zeros
from fairmap.presets import preset_config

from conftest import scipy_csr
from test_kl_model import compas_like_pmf
from test_properties import random_instance

SEEDS = st.integers(0, 2**32 - 1)


def random_pair(rng, shape, density=None):
    """A record and its ``scipy.sparse`` oracle with the same entries:
    distinct positions in random order, nonzero values of mixed magnitude."""
    size = shape[0] * shape[1]
    n = rng.binomial(size, rng.uniform(0.05, 0.6) if density is None else density)
    rows, cols = np.divmod(rng.choice(size, n, replace=False), shape[1])
    vals = rng.normal(size=n) * 10.0 ** rng.integers(-8, 3, n)
    vals[vals == 0.0] = 1.0
    return (CSR.from_entries(rows, cols, vals, shape),
            sp.csr_matrix((vals, (rows, cols)), shape=shape))


def random_shape(rng):
    return int(rng.integers(0, 12)), int(rng.integers(1, 12))


def assert_same(record, oracle):
    """Equal arrays, with the oracle's zeros dropped and indices sorted."""
    oracle = sp.csr_matrix(oracle, copy=True)
    oracle.eliminate_zeros()
    oracle.sort_indices()
    assert isinstance(record, CSR)
    assert record.shape == oracle.shape
    assert record.indptr.dtype == record.indices.dtype == np.int32
    np.testing.assert_array_equal(record.indptr, oracle.indptr)
    np.testing.assert_array_equal(record.indices, oracle.indices)
    assert record.data.tobytes() == oracle.data.astype(np.float64).tobytes()


def assert_bits(got, expected):
    assert np.asarray(got).tobytes() == np.asarray(expected, dtype=np.float64).ravel().tobytes()


def assert_vector_ops(record, oracle, rng):
    x = rng.normal(size=record.shape[1]) * 10.0 ** rng.integers(-3, 4, record.shape[1])
    y = rng.normal(size=record.shape[0])
    assert_bits(record @ x, oracle @ x)
    assert_bits(record.rmatvec(y), oracle.T @ y)
    assert_bits(record.col_sums(), oracle.sum(axis=0))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(SEEDS)
def test_construction_and_vector_ops(seed):
    rng = np.random.default_rng(seed)
    record, oracle = random_pair(rng, random_shape(rng))
    assert_same(record, oracle)
    assert_same(-record, -oracle)
    assert_vector_ops(record, oracle, rng)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(SEEDS)
def test_stacks_and_row_selection(seed):
    rng = np.random.default_rng(seed)
    n_rows, n_cols = random_shape(rng)
    wide = [random_pair(rng, (n_rows, int(rng.integers(1, 8)))) for _ in range(3)]
    wide += [(identity(n_rows), sp.identity(n_rows, format="csr")),
             (zeros((n_rows, 2)), sp.csr_matrix((n_rows, 2)))]
    order = rng.permutation(len(wide))
    assert_same(hstack([wide[i][0] for i in order]),
                sp.hstack([wide[i][1] for i in order], format="csr"))
    tall = [random_pair(rng, (int(rng.integers(0, 8)), n_cols)) for _ in range(3)]
    tall.append((zeros((0, n_cols)), sp.csr_matrix((0, n_cols))))
    assert_same(vstack([r for r, _ in tall]), sp.vstack([o for _, o in tall], format="csr"))
    record, oracle = random_pair(rng, (n_rows, n_cols))
    picked = rng.integers(0, n_rows, int(rng.integers(0, 2 * n_rows + 1))) if n_rows else []
    mask = rng.random(n_rows) < 0.5
    assert_same(record.take_rows(picked), oracle[np.asarray(picked, dtype=int)])
    assert_same(record.take_rows(mask), oracle[mask])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(SEEDS)
def test_products(seed):
    # G S: sums over repeated positions add up in scipy's order
    rng = np.random.default_rng(seed)
    m, k = random_shape(rng)
    left, left_oracle = random_pair(rng, (m, k))
    right, right_oracle = random_pair(rng, (k, int(rng.integers(1, 12))))
    product = left @ right
    assert_same(product, left_oracle @ right_oracle)
    assert_vector_ops(product, scipy_csr(product), rng)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(SEEDS, st.sampled_from([0.0, 0.25, 1.0]))
def test_rate_products(seed, eps):
    # C R as the discrimination rows build it: each row of R on columns of
    # its own, and C's rows combining at most two of them; with eps = 1 a
    # lower pairwise row has a zero coefficient, which C does not store
    rng = np.random.default_rng(seed)
    n_rates, n_cols = int(rng.integers(2, 7)), int(rng.integers(2, 30))
    owner = rng.integers(0, n_rates, n_cols)
    weights = rng.uniform(0.01, 1.0, n_cols) / rng.uniform(0.01, 1.0, n_rates)[owner]
    R = CSR.from_entries(owner, np.arange(n_cols), weights, (n_rates, n_cols))
    R_oracle = sp.csr_matrix((weights, (owner, np.arange(n_cols))), shape=(n_rates, n_cols))
    c_row, c_col, c_val = [], [], []
    for i in range(int(rng.integers(0, 10))):
        r1, r2 = rng.choice(n_rates, 2, replace=False)
        pairs = [((r1, 1.0), (r2, -(1.0 + eps))), ((r1, -1.0), (r2, 1.0 - eps)),
                 ((r1, float(rng.choice([1.0, -1.0]))),)][i % 3]
        for r, coef in pairs:
            c_row.append(i)
            c_col.append(r)
            c_val.append(coef)
    shape = (max(c_row, default=-1) + 1, n_rates)
    C = CSR.from_entries(c_row, c_col, c_val, shape)
    C_oracle = sp.csr_matrix((c_val, (c_row, c_col)), shape=shape)
    assert_same(C, C_oracle)
    assert_same(C @ R, C_oracle @ R_oracle)


def compas_program(objective):
    cfg = preset_config("compas")
    return assemble(compas_like_pmf(cfg.schema), cfg.discrimination, cfg.metric,
                    cfg.budget, objective=objective).program


@pytest.mark.parametrize("objective", ["l1", "kl"])
def test_compas_program_matrices(objective):
    prog, rng = compas_program(objective), np.random.default_rng(7)
    for matrix in (prog.G, prog.A, prog.row_sum_matrix()):
        assert_vector_ops(matrix, scipy_csr(matrix), rng)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(SEEDS)
def test_program_matrices(seed):
    prog, rng = assemble(*random_instance(seed), "l1").program, np.random.default_rng(seed)
    for matrix in (prog.G, prog.A, prog.row_sum_matrix()):
        assert_vector_ops(matrix, scipy_csr(matrix), rng)
