"""Compressed sparse rows: the one matrix type of a kernel program.

The image map A, the side rows G, the group-rate matrix R and coefficient
matrix C of the discrimination rows, the substitutions of the factorized
solve and the rows handed to HiGHS are all :class:`CSR` records: int32
``indptr`` and ``indices``, float64 ``data``, sorted column indices in
every row and no stored zeros.  Only the operations the package calls
are here.  Every sum adds its terms in entry order starting from 0.0, the
order of SciPy's sparsetools (``csr_matvec``, ``csc_matvec`` for the
transpose, ``csr_matmat``), so a product or matvec returns the floats
``scipy.sparse`` returns for the same arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _indptr(counts: np.ndarray) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(counts))).astype(np.int32)


def _spans(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The positions starts[i], ..., starts[i] + counts[i] - 1, for each i in turn."""
    offsets = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return offsets + np.arange(offsets.size)


@dataclass(frozen=True, eq=False)
class CSR:
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self):
        object.__setattr__(self, "indptr", np.asarray(self.indptr, dtype=np.int32))
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=np.int32))
        object.__setattr__(self, "data", np.asarray(self.data, dtype=np.float64))
        object.__setattr__(self, "shape", (int(self.shape[0]), int(self.shape[1])))

    @classmethod
    def from_entries(cls, rows, cols, vals, shape) -> "CSR":
        """The matrix with entries ``vals`` at (``rows``, ``cols``).  Entries
        at one position add up in the order given, and zero sums are not
        stored."""
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        key = rows * shape[1] + cols
        order = np.argsort(key)
        first = np.ones(key.size, dtype=bool)
        first[1:] = np.diff(key[order]) != 0
        if first.all():
            vals = vals[order]
        else:
            # a stable order, so that repeated positions add up in entry order
            order = np.argsort(key, kind="stable")
            vals = np.bincount(np.cumsum(first) - 1, weights=vals[order])
            order = order[first]
        keep = vals != 0.0
        rows, cols = rows[order][keep], cols[order][keep]
        return cls(_indptr(np.bincount(rows, minlength=shape[0])), cols, vals[keep], shape)

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def row_ids(self) -> np.ndarray:
        """The row of every entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def __neg__(self) -> "CSR":
        return CSR(self.indptr, self.indices, -self.data, self.shape)

    def __matmul__(self, other):
        """``self @ x`` for a vector x, or the product with a CSR ``other``."""
        if not isinstance(other, CSR):
            return np.bincount(self.row_ids(), weights=self.data * other[self.indices],
                               minlength=self.shape[0])
        # entry (i, j) of self meets every entry (j, k) of other
        counts = np.diff(other.indptr)[self.indices]
        pos = _spans(other.indptr[self.indices], counts)
        return CSR.from_entries(np.repeat(self.row_ids(), counts), other.indices[pos],
                                np.repeat(self.data, counts) * other.data[pos],
                                (self.shape[0], other.shape[1]))

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """``self.T @ y``."""
        return np.bincount(self.indices, weights=self.data * y[self.row_ids()],
                           minlength=self.shape[1])

    def col_sums(self) -> np.ndarray:
        return np.bincount(self.indices, weights=self.data, minlength=self.shape[1])

    def take_rows(self, rows) -> "CSR":
        """The rows ``rows`` (indices or a boolean mask), in that order."""
        rows = np.arange(self.shape[0])[rows]
        counts = np.diff(self.indptr)[rows]
        pos = _spans(self.indptr[rows], counts)
        return CSR(_indptr(counts), self.indices[pos], self.data[pos], (rows.size, self.shape[1]))


def zeros(shape) -> CSR:
    return CSR(np.zeros(shape[0] + 1), (), (), shape)


def identity(n: int) -> CSR:
    return CSR(np.arange(n + 1), np.arange(n), np.ones(n), (n, n))


def vstack(blocks) -> CSR:
    """The blocks' rows, one block after another (equal widths)."""
    counts = [np.diff(b.indptr) for b in blocks]
    return CSR(_indptr(np.concatenate(counts)), np.concatenate([b.indices for b in blocks]),
               np.concatenate([b.data for b in blocks]),
               (sum(b.shape[0] for b in blocks), blocks[0].shape[1]))


def hstack(blocks) -> CSR:
    """The blocks side by side (equal heights): each row holds the first
    block's entries of that row, then the second's, and so on."""
    n_rows = blocks[0].shape[0]
    counts = [np.diff(b.indptr) for b in blocks]
    indptr = _indptr(sum(counts))
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1])
    start, offset = indptr[:-1].copy(), 0
    for b, c in zip(blocks, counts):
        rows = b.row_ids()
        pos = start[rows] + np.arange(b.nnz) - b.indptr[rows]
        indices[pos], data[pos] = b.indices + offset, b.data
        start += c
        offset += b.shape[1]
    return CSR(indptr, indices, data, (n_rows, offset))
