"""Sparse operators, M-matrix structure checks, deterministic solves.

An operator (``SparseMatrix``) is square and stored in scipy's DIA layout:
sorted diagonal offsets that include 0, and one row of values per offset.
The five-point operators of the uniform rectangle have offsets
(-nx, -1, 0, 1, nx), written by slices. The residual check and the
structure check (``check_m_matrix_pattern``) read that one
``dia_matrix``, and the Krylov products a column-scaled copy of its data
on the same offsets; no CSR or CSC matrix is built in a run unless a solve
falls back to LU.

Operators are made in two ways. The constructor validates offsets and
data and builds the ``dia_matrix``; a run does this once, for the chem
operator, when its plan is built. Every later operator on the same layout
(the cell operator of each step) is made by ``SparseMatrix.with_data``
from that validated one: the offsets and layout are shared, and only the
new data is checked, by the same data checks the constructor runs.

The solve contract is a relative residual tolerance (``LinearSolver.tol``,
1e-12), not a method. A solve takes one of two paths:

- the chem operator, built once per run, keeps an exact solve by the 2-D
  discrete cosine transform that diagonalises it (``keep_dct_solve``), and
  every solve with it is that transform solve;
- any other matrix (the per-step cell operator) goes through
  right-Jacobi-preconditioned BiCGSTAB, which iterates on the scaled
  operator A·D⁻¹ (D the diagonal of A) and so applies no preconditioner
  inside its loop; only when that misses the tolerance, or the diagonal
  holds a zero, is the matrix LU-factorized for that one solve, and
  nothing of the factorization is kept.

Every result is residual-checked, and an unmet tolerance raises instead of
returning silently.

Every inner product and norm, in the Krylov loop and in the residual
check, is one pass of ``np.einsum("i,i->", a, b)`` (``fixed_dot``), which
multiplies and sums in the same loop and never calls BLAS. Its summation
order is fixed by the numpy build: it does not depend on the thread count
or on where the operands start in memory, where BLAS ``ddot``/``dnrm2``
split the sum by thread. The transforms run on one worker, so a run ends
in the same bits at any BLAS, OpenMP or ``scipy.fft`` worker count.
"""

from __future__ import annotations

import copy
import hashlib
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.sparse as sp


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

    The slack vectors are the signed row and column sums. Whenever the sign
    pattern holds (positive diagonal, nonpositive off-diagonals) these
    equal |diag| - sum|offdiag| per row / per column, and strict dominance
    means every slack is positive; otherwise they are only sums. Only the
    slacks asked of ``check_m_matrix_pattern`` are filled: both by default,
    ``row_slack`` alone for ``slack="rows"`` and ``col_slack`` alone for
    ``slack="cols"``; the other one is None.
    """

    diag_positive: bool
    offdiag_nonpositive: bool
    row_slack: np.ndarray | None
    col_slack: np.ndarray | None


def readonly_copy(a, dtype=np.int64) -> np.ndarray:
    """Read-only copy of ``a`` as ``dtype``."""
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _takes_over(data) -> bool:
    """Whether an operator may keep ``data`` as it is: a read-only float64
    array that owns its memory, which no one can write through."""
    return (
        isinstance(data, np.ndarray)
        and data.base is None
        and data.dtype == np.float64
        and not data.flags.writeable
    )


def _check_data(offsets: list[int], data: np.ndarray, n: int | None = None) -> None:
    """Raise ``ValueError`` unless ``data`` holds one row per offset (of
    ``n`` columns, when ``n`` is given) and no nonzero entry outside the
    n-by-n matrix."""
    if data.ndim != 2 or data.shape[0] != len(offsets) or n not in (None, data.shape[1]):
        need = "n" if n is None else n
        raise ValueError(f"data has shape {data.shape}, need ({len(offsets)}, {need})")
    n = data.shape[1]
    for offset, row in zip(offsets, data):
        # columns j with 0 <= j - offset < n lie inside the matrix: all but
        # the first ``offset`` columns of an upper diagonal, all but the
        # last ``-offset`` of a lower one
        outside = row[:offset] if offset >= 0 else row[max(n + offset, 0) :]
        if np.count_nonzero(outside):
            raise ValueError(f"nonzero entry outside the matrix on diagonal {offset}")


class SparseMatrix:
    """Square n-by-n operator in scipy's DIA layout.

    ``offsets`` are sorted, unique and include 0; ``data`` holds one row per
    offset, ``data[d, j] = A[j - offsets[d], j]``, and an entry that falls
    outside the matrix must be zero. Both arrays are read-only, and the one
    scipy ``dia_matrix``, ``dia``, that every product with A reads (the
    Krylov loop multiplies by a column-scaled copy) is built on them.
    Instances are immutable; the chem operator also keeps its exact
    transform solve, a (solve, method label) pair, from ``keep_dct_solve``.

    There are two ways to make one. The constructor checks the offsets and
    the data and builds ``dia``; ``data`` is copied unless it is already a
    read-only float64 array that owns its memory: such an array is taken
    over as it is, so the caller hands it over and does not make it
    writable again. ``with_data`` makes an operator on the layout of one
    already built, for a step's cell operator: it checks only the data,
    which it takes over and so refuses unless it could be taken over, and
    shares the offsets and a shallow copy of ``dia``, so scipy does not
    check the layout again.
    """

    def __init__(self, offsets, data):
        offsets = readonly_copy(offsets)
        if not _takes_over(data):
            data = readonly_copy(data, float)  # own copy keeps the operator immutable
        listed = offsets.tolist()
        if offsets.ndim != 1 or listed != sorted(set(listed)) or 0 not in listed:
            raise ValueError(f"offsets {offsets} must be sorted, unique and include 0")
        _check_data(listed, data)
        n = data.shape[1]
        self.n = n
        self.offsets = offsets
        self.data = data
        self.dia = sp.dia_matrix((data, offsets), shape=(n, n))
        self.dia.offsets.setflags(write=False)
        self._exact: tuple[Callable[[np.ndarray], np.ndarray], str] | None = None

    def with_data(self, data: np.ndarray) -> SparseMatrix:
        """A new operator on this one's offsets and size holding ``data``,
        which must be a read-only float64 array that owns its memory (it is
        taken over, not copied) and passes the constructor's data checks.
        No exact solve is carried over."""
        if not _takes_over(data):
            raise ValueError("data must be a read-only float64 array that owns its memory")
        _check_data(self.offsets.tolist(), data, self.n)
        out = object.__new__(SparseMatrix)
        out.n, out.offsets, out.data = self.n, self.offsets, data
        out.dia = copy.copy(self.dia)  # shares offsets and shape
        out.dia.data = data
        out._exact = None
        return out

    def diagonal(self) -> np.ndarray:
        return self.data[np.searchsorted(self.offsets, 0)]

    def to_dense(self) -> np.ndarray:
        return self.dia.toarray()

    def content_digest(self) -> bytes:
        h = hashlib.sha1()
        h.update(np.int64(self.n).tobytes())
        h.update(self.offsets.tobytes())
        h.update(self.data.tobytes())
        return h.digest()


def spmv(m: SparseMatrix, x: np.ndarray) -> np.ndarray:
    """Sparse matrix-vector product with fixed within-row accumulation order
    (scipy's DIA product sums each row's entries by increasing offset, that
    is by increasing column, as a sorted CSR product does)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (m.n,):
        raise ValueError(f"dimension mismatch: matrix is {m.n}, vector is {x.shape}")
    return m.dia @ x


def fixed_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product of two vectors in one pass of ``np.einsum``, not by
    BLAS (einsum calls BLAS only when asked to optimize). The summation
    order is fixed by the numpy build, whatever the thread count or the
    operands' alignment."""
    return float(np.einsum("i,i->", a, b))


def fixed_norm(a: np.ndarray) -> float:
    """Euclidean norm through ``fixed_dot``."""
    return math.sqrt(fixed_dot(a, a))


def check_m_matrix_pattern(m: SparseMatrix, slack: str = "both") -> StructureReport:
    """Sign pattern on the stored diagonals plus the signed row sums
    (``slack`` "rows" or "both") and column sums ("cols" or "both"), which
    are the dominance slacks whenever the sign pattern holds.

    A row sum is the product with ones; a column sum adds column j's
    entries by increasing row, which is decreasing offset. Both add each
    row's or column's entries in the order a sorted CSR operator stores
    them; the zeros the layout stores beside them add nothing.
    """
    if slack not in ("rows", "cols", "both"):
        raise ValueError(f"slack must be 'rows', 'cols' or 'both', got {slack!r}")
    return StructureReport(
        diag_positive=bool((m.diagonal() > 0).all()),
        offdiag_nonpositive=bool((m.data[m.offsets != 0] <= 0).all()),
        row_slack=None if slack == "cols" else m.dia @ np.ones(m.n),
        col_slack=None if slack == "rows" else np.add.reduce(m.data[::-1], axis=0),
    )


def _lu_solve(m: SparseMatrix) -> Callable[[np.ndarray], np.ndarray]:
    """The solve of a fresh LU factorization of ``m``, for the one solve
    that needed it; nothing is kept on ``m``.

    Every operator shares one structurally symmetric 5-point pattern, so the
    columns are ordered by minimum degree on A^T + A. The CSC copy that is
    factorized holds the nonzero entries only; scipy's conversion drops the
    zeros the DIA layout stores.
    """
    # imported on first use: it adds ~10 MiB to a process's RSS, and a run
    # whose cell solves all converge never factorizes
    import scipy.sparse.linalg as spla

    try:
        return spla.splu(m.dia.tocsc(), permc_spec="MMD_AT_PLUS_A").solve
    except RuntimeError as exc:  # singular factor
        raise SolverError(f"direct factorization failed: {exc}") from exc


def keep_dct_solve(m: SparseMatrix, eigenvalues: np.ndarray) -> None:
    """Keep on ``m`` its exact solve by the orthonormal 2-D DCT-II,
    labelled ``direct-dct``.

    ``m`` must act on row-major cells of an (ny, nx) grid and be
    diagonalised by the DCT-II along both axes, with ``eigenvalues`` (shape
    (ny, nx)) its eigenvalues: a constant-coefficient Neumann operator on a
    uniform rectangle. A solve is ``dctn``, a divide by the eigenvalues and
    ``idctn``, each on one worker whatever ``scipy.fft.set_workers`` says.
    An eigenvalue that is not positive raises ``SolverError`` here.
    """
    eigenvalues = readonly_copy(eigenvalues, float)
    if not np.all(eigenvalues > 0):  # NaN fails too
        raise SolverError(
            f"operator is not positive definite: smallest eigenvalue "
            f"{np.min(eigenvalues):.3e} (n={m.n})"
        )

    def solve(rhs):
        coeffs = scipy.fft.dctn(
            rhs.reshape(eigenvalues.shape), type=2, norm="ortho", workers=1
        )
        coeffs /= eigenvalues
        x = scipy.fft.idctn(coeffs, type=2, norm="ortho", overwrite_x=True, workers=1)
        return x.ravel()

    m._exact = (solve, "direct-dct")


class LinearSolver:
    """Deterministic solver front end: an exact DCT solve, or Krylov with a
    per-solve LU fallback.

    A matrix that keeps an exact solve, the chem operator's DCT solve
    (``keep_dct_solve``), is solved with it. Any other matrix with a
    nonzero diagonal (the cell operator) goes through the in-house
    Jacobi-BiCGSTAB (``_jacobi_bicgstab``), whose loop iterates on A·D⁻¹
    and unscales its result once; when that breaks down, returns
    a non-finite result or misses ``tol``, or when the diagonal holds a
    zero, the solve LU-factorizes the matrix (``_lu_solve``), is reported
    as ``direct-lu(fallback)`` and keeps nothing on the matrix. The Krylov
    loop and the residual check reduce in a fixed order (``fixed_dot``) and
    the transforms run on one worker, so the result, its reported residual
    and the path taken do not depend on the BLAS or FFT thread count.
    """

    tol = 1e-12  # relative residual every solve must reach

    def solve(self, m: SparseMatrix, rhs: np.ndarray) -> tuple[np.ndarray, SolveReport]:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (m.n,):
            raise ValueError(f"rhs has shape {rhs.shape}, matrix is {m.n}x{m.n}")
        rhs_norm = fixed_norm(rhs)
        if rhs_norm == 0.0:
            return np.zeros(m.n), SolveReport(0, 0.0, "trivial")

        def relative_residual(x):
            return fixed_norm(spmv(m, x) - rhs) / rhs_norm

        method = None
        if m._exact is None and np.all(m.diagonal() != 0):
            x, iters = self._jacobi_bicgstab(m, rhs, rhs_norm)
            residual = np.inf if x is None else relative_residual(x)
            # NaN compares false: a non-finite Krylov result falls back too
            if residual <= self.tol:
                method = "jacobi-bicgstab"
        if method is None:
            exact_solve, method = m._exact or (_lu_solve(m), "direct-lu(fallback)")
            x, iters = exact_solve(rhs), 0
            residual = relative_residual(x)
        if residual > self.tol or not np.all(np.isfinite(x)):
            raise SolverError(
                f"residual {residual:.3e} above tolerance {self.tol:.3e} "
                f"(method {method}, n={m.n})"
            )
        return x, SolveReport(iters, residual, method)

    def _jacobi_bicgstab(self, m, rhs, rhs_norm):
        """Right-Jacobi-preconditioned BiCGSTAB (van der Vorst 1992) from
        x = 0: (solution, full iterations), or (None, 0) when it breaks down
        or runs out of iterations. ``rhs_norm`` is ``fixed_norm(rhs)``.

        The loop iterates on the right-scaled operator A·D⁻¹ (D the
        diagonal of A), built once per solve as one ``dia_matrix``: its
        data is A's with column j scaled by 1/d_j, which in the DIA layout
        is a multiply of every row by 1/diag. It solves A·D⁻¹ y = b for
        y = D·x and returns x = D⁻¹·y, so no iteration applies the
        preconditioner. The recurrence, stopping rule
        (||r|| < max(tol/10, 1e-14)·||b||) and breakdown tests are those
        of ``scipy.sparse.linalg.bicgstab`` with M = D⁻¹; the inner
        products are ``fixed_dot``. ||r_0|| is ||b||, and each later ||r||
        is taken once, where r is updated, for the next test. The work
        vectors live for the solve and are updated in place;
        s = r - alpha·v overwrites r.
        """
        inv_diag = 1.0 / m.diagonal()
        a_hat = copy.copy(m.dia)  # shares offsets and shape, skips re-validation
        a_hat.data = m.data * inv_diag
        atol = max(self.tol * 0.1, 1e-14) * rhs_norm
        breakdown = np.finfo(float).eps ** 2
        y = np.zeros(m.n)
        r = rhs.copy()
        r_norm = rhs_norm
        r_tilde = rhs  # the shadow residual stays r_0 = b; never written
        p = rhs.copy()
        work = np.empty(m.n)
        for iteration in range(min(m.n, 300)):
            if r_norm < atol:
                return np.multiply(y, inv_diag, out=y), iteration
            rho = fixed_dot(r_tilde, r)
            if abs(rho) < breakdown:
                return None, 0
            if iteration > 0:
                if abs(omega) < breakdown:
                    return None, 0
                p -= np.multiply(v, omega, out=work)
                p *= (rho / rho_prev) * (alpha / omega)
                p += r
            v = a_hat @ p
            rv = fixed_dot(r_tilde, v)
            if rv == 0.0:
                return None, 0
            alpha = rho / rv
            r -= np.multiply(v, alpha, out=work)
            if fixed_norm(r) < atol:
                y += np.multiply(p, alpha, out=work)
                return np.multiply(y, inv_diag, out=y), iteration
            t = a_hat @ r
            tt = fixed_dot(t, t)
            if tt == 0.0:  # scipy's omega turns NaN here and never recovers
                return None, 0
            omega = fixed_dot(t, r) / tt
            y += np.multiply(p, alpha, out=work)
            y += np.multiply(r, omega, out=work)
            r -= np.multiply(t, omega, out=work)
            r_norm = fixed_norm(r)
            rho_prev = rho
        return None, 0
