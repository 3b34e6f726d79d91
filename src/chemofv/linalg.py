"""CSR sparse matrices, M-matrix structure checks, deterministic solves.

The solve contract is a relative residual tolerance (default 1e-12), not a
method. A solve takes one of two paths, by what the operator is:

- an operator built once per run (the chem operator) is factorized once,
  by ``factorize``, and keeps its LU factor; every solve with it is a
  direct LU solve;
- any other matrix (the per-step cell operator) goes through
  Jacobi-preconditioned BiCGSTAB first, and through a direct sparse LU
  when that misses the tolerance.

Every result is residual-checked, and an unmet tolerance raises instead of
returning silently.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SolverError(RuntimeError):
    """Linear solve failed to reach the requested residual tolerance."""


@dataclass
class SolveReport:
    iterations: int
    residual: float
    method: str


@dataclass
class StructureReport:
    """Sign pattern and diagonal-dominance slacks of a square matrix.

    Slack vectors hold |diag| - sum|offdiag| per row / per column; strict
    dominance means every slack is positive.
    """

    diag_positive: bool
    offdiag_nonpositive: bool
    row_slack: np.ndarray
    col_slack: np.ndarray

    @property
    def row_dominant(self) -> bool:
        return bool(np.all(self.row_slack > 0))

    @property
    def col_dominant(self) -> bool:
        return bool(np.all(self.col_slack > 0))


class SparseMatrix:
    """Square CSR matrix with exactly one diagonal entry per row.

    Column indices are sorted within each row and explicit off-diagonal
    zeros are pruned at construction. Instances are immutable; their
    scipy form, structure report and LU factor are computed on first use
    and kept.
    """

    def __init__(self, n: int, indptr, indices, data):
        self.n = int(n)
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        data = np.array(data, dtype=float)  # own copy; assemblies reuse buffers
        if indptr.shape != (self.n + 1,) or indptr[0] != 0:
            raise ValueError("malformed indptr")
        if indices.shape != data.shape or indices.size != indptr[-1]:
            raise ValueError("indices/data sizes do not match indptr")
        rows = np.repeat(np.arange(self.n), np.diff(indptr))
        offdiag = indices != rows
        keep = ~(offdiag & (data == 0.0))
        if not np.all(keep):
            indices = indices[keep]
            data = data[keep]
            counts = np.bincount(rows[keep], minlength=self.n)
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            rows = rows[keep]
            offdiag = indices != rows
        # sorted columns within each row, no duplicates
        order_ok = np.ones(indices.size, dtype=bool)
        if indices.size > 1:
            same_row = rows[1:] == rows[:-1]
            order_ok[1:] = ~same_row | (indices[1:] > indices[:-1])
        if not np.all(order_ok):
            raise ValueError("column indices must be strictly increasing per row")
        diag_count = np.bincount(rows[~offdiag], minlength=self.n)
        if not np.all(diag_count == 1):
            raise ValueError("every row must store exactly one diagonal entry")
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self._diag_slots = np.flatnonzero(~offdiag)
        self._csr: sp.csr_matrix | None = None
        self._structure: StructureReport | None = None
        self._lu: spla.SuperLU | None = None

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    @classmethod
    def from_coo(cls, n, rows, cols, vals) -> "SparseMatrix":
        """Build from triplets; duplicates are summed, missing diagonals
        are stored as explicit zeros."""
        rows = np.concatenate([np.asarray(rows, dtype=np.int64), np.arange(n)])
        cols = np.concatenate([np.asarray(cols, dtype=np.int64), np.arange(n)])
        vals = np.concatenate([np.asarray(vals, dtype=float), np.zeros(n)])
        m = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        m.sum_duplicates()
        m.sort_indices()
        return cls(n, m.indptr, m.indices, m.data)

    @classmethod
    def from_dense(cls, a) -> "SparseMatrix":
        a = np.asarray(a, dtype=float)
        n = a.shape[0]
        rows, cols = np.nonzero(a)
        return cls.from_coo(n, rows, cols, a[rows, cols])

    @classmethod
    def identity(cls, n) -> "SparseMatrix":
        r = np.arange(n)
        return cls.from_coo(n, r, r, np.ones(n))

    def diagonal(self) -> np.ndarray:
        return self.data[self._diag_slots]

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        out[rows, self.indices] = self.data
        return out

    def to_scipy(self) -> sp.csr_matrix:
        """The matrix as scipy CSR; one shared, read-only object per matrix."""
        if self._csr is None:
            self._csr = sp.csr_matrix(
                (self.data, self.indices, self.indptr), shape=(self.n, self.n)
            )
        return self._csr

    def content_digest(self) -> bytes:
        h = hashlib.sha1()
        h.update(np.int64(self.n).tobytes())
        h.update(self.indptr.tobytes())
        h.update(self.indices.tobytes())
        h.update(self.data.tobytes())
        return h.digest()

    def dump_coo(self, path) -> None:
        """Write coordinate text format: one 'row col value' line per entry."""
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        with open(path, "w") as fh:
            for r, c, v in zip(rows, self.indices, self.data):
                fh.write(f"{r} {c} {float(v)!r}\n")


def spmv(m: SparseMatrix, x: np.ndarray) -> np.ndarray:
    """Sparse matrix-vector product with fixed within-row accumulation order
    (scipy's CSR product sums each row's entries in storage order)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (m.n,):
        raise ValueError(f"dimension mismatch: matrix is {m.n}, vector is {x.shape}")
    return m.to_scipy() @ x


def check_m_matrix_pattern(m: SparseMatrix) -> StructureReport:
    """Sign pattern plus row/column dominance slacks (cached on the matrix)."""
    if m._structure is not None:
        return m._structure
    diag = m.diagonal()
    absdata = np.abs(m.data)
    rows = np.repeat(np.arange(m.n), np.diff(m.indptr))
    row_abs = np.bincount(rows, weights=absdata, minlength=m.n)
    col_abs = np.bincount(m.indices, weights=absdata, minlength=m.n)
    absdiag = np.abs(diag)
    offdiag_mask = np.ones(m.nnz, dtype=bool)
    offdiag_mask[m._diag_slots] = False
    report = StructureReport(
        diag_positive=bool(np.all(diag > 0)),
        offdiag_nonpositive=bool(np.all(m.data[offdiag_mask] <= 0)),
        row_slack=2.0 * absdiag - row_abs,
        col_slack=2.0 * absdiag - col_abs,
    )
    m._structure = report
    return report


def factorize(m: SparseMatrix) -> spla.SuperLU:
    """The LU factor of ``m``, computed on first use and kept on the matrix.

    Every operator shares one structurally symmetric 5-point pattern, so the
    columns are ordered by minimum degree on A^T + A.
    """
    if m._lu is None:
        try:
            m._lu = spla.splu(m.to_scipy().tocsc(), permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:  # singular factor
            raise SolverError(f"direct factorization failed: {exc}") from exc
    return m._lu


class LinearSolver:
    """Deterministic solver front end with two paths.

    A matrix that carries an LU factor (see ``factorize``) is solved with
    it. Any other matrix with a nonzero diagonal goes through
    Jacobi-BiCGSTAB first; when that breaks down or misses ``tol`` the
    matrix is factorized and the solve is reported as
    ``direct-lu(fallback)``. A matrix with a zero on its diagonal is
    factorized directly.
    """

    def __init__(self, tol: float = 1e-12):
        if tol <= 0:
            raise ValueError("tol must be positive")
        self.tol = tol

    def solve(self, m: SparseMatrix, rhs: np.ndarray) -> tuple[np.ndarray, SolveReport]:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (m.n,):
            raise ValueError(f"rhs has shape {rhs.shape}, matrix is {m.n}x{m.n}")
        rhs_norm = float(np.linalg.norm(rhs))
        if rhs_norm == 0.0:
            return np.zeros(m.n), SolveReport(0, 0.0, "trivial")

        def relative_residual(x):
            return float(np.linalg.norm(spmv(m, x) - rhs)) / rhs_norm

        method = "direct-lu"
        if m._lu is None and np.all(m.diagonal() != 0):
            x, iters = self._jacobi_bicgstab(m, rhs)
            residual = np.inf if x is None else relative_residual(x)
            # NaN compares false: a non-finite Krylov result falls back too
            method = "jacobi-bicgstab" if residual <= self.tol else "direct-lu(fallback)"
        if method != "jacobi-bicgstab":
            x, iters = factorize(m).solve(rhs), 0
            residual = relative_residual(x)
        if residual > self.tol or not np.all(np.isfinite(x)):
            raise SolverError(
                f"residual {residual:.3e} above tolerance {self.tol:.3e} "
                f"(method {method}, n={m.n})"
            )
        return x, SolveReport(iters, residual, method)

    def _jacobi_bicgstab(self, m, rhs):
        """Jacobi-preconditioned BiCGSTAB: (solution, iterations), or
        (None, 0) when it breaks down or runs out of iterations."""
        a = m.to_scipy()
        precond = sp.diags(1.0 / m.diagonal())
        count = [0]

        def tick(_):
            count[0] += 1

        x, info = spla.bicgstab(
            a, rhs, rtol=max(self.tol * 0.1, 1e-14), atol=0.0,
            maxiter=min(m.n, 300), M=precond, callback=tick,
        )
        if info != 0:
            return None, 0
        return x, count[0]


def solve(m: SparseMatrix, rhs, tol: float = 1e-12) -> tuple[np.ndarray, SolveReport]:
    """One-shot solve with a fresh LinearSolver at the given tolerance."""
    return LinearSolver(tol=tol).solve(m, np.asarray(rhs, dtype=float))
