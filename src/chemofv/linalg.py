"""Sparse operators, M-matrix structure checks, deterministic solves.

An operator (``SparseMatrix``) is square and stored in scipy's DIA layout:
sorted diagonal offsets that include 0, and one row of values per offset.
The five-point operators of the uniform rectangle have offsets
(-nx, -1, 0, 1, nx), written by slices. The residual check multiplies by
its data rows, the structure check (``check_m_matrix_pattern``) takes their
column sums, which are the dominance slacks, and the Krylov products use a
column-scaled copy of the data on the same offsets; no CSR or CSC matrix
is built in a run unless a solve falls back to LU. The structure check
returns one sign verdict and the slacks; the scheme runs it, when a run
asks for it, where each operator is assembled.

An operator is made in one way, by its constructor, which validates the
offsets and the data and takes over read-only arrays that own their
memory instead of copying them; an operator is not changed once built.
Each step's cell operator is built on the chem operator's offsets array,
so every operator of a run shares that one array.

The hot path calls three compiled kernels itself, each bound once at import:
scipy's DIA product ``dia_matvec`` (which ``dia_matrix @ x`` runs), one
pocketfft ``dct`` call per transform (which ``scipy.fft.dctn``/``idctn``
run) and numpy's ``c_einsum`` (which ``np.einsum`` runs unoptimized). These
private entry points of numpy >= 2.0 and scipy get their wrappers' arguments
and give the same bits, as the tests check. The scipy two are loaded from
their own files (``_load_compiled``), so a run does not import
``scipy.fft``, ``scipy.special`` or ``scipy.sparse`` (~29 MiB of RSS).

The solve contract is a relative residual tolerance (``LinearSolver.tol``,
1e-12), not a method. A solve takes one of two paths:

- the chem operator, built once per run, is built with an exact solve by
  the 2-D discrete cosine transform that diagonalises it (``dct_solve``),
  and every solve with it is that transform solve;
- any other matrix (the per-step cell operator) goes through
  right-Jacobi-preconditioned BiCGSTAB, which iterates on the scaled
  operator A·D⁻¹ (D the diagonal of A) and so applies no preconditioner
  inside its loop; only when that misses the tolerance, or the diagonal
  holds a zero, is the matrix LU-factorized for that one solve, and
  nothing of the factorization is kept.

Every result is residual-checked, and an unmet tolerance raises instead of
returning silently.

Every inner product and norm, in the Krylov loop and in the residual
check, is one pass of einsum's ``"i,i->"`` (``fixed_dot``), which
multiplies and sums in the same loop and never calls BLAS. Its summation
order is fixed by the numpy build: it does not depend on the thread count
or on where the operands start in memory, where BLAS ``ddot``/``dnrm2``
split the sum by thread. The transforms run on one thread, so a run ends
in the same bits at any BLAS, OpenMP or ``scipy.fft`` worker count.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from numpy._core.multiarray import c_einsum


def _load_compiled(name: str):
    """Compiled module ``name``, loaded from its file: no package ``__init__``
    runs. A single-phase extension registers itself in ``sys.modules`` as it
    loads; that entry is dropped again unless ``name`` was there before, or
    a later import of its package would find it there and never set the
    package's attribute."""
    package, *parts = name.split(".")
    directory = importlib.util.find_spec(package).submodule_search_locations[0]
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, *parts) + suffix
        if os.path.isfile(path):
            registered = name in sys.modules
            loader = importlib.machinery.ExtensionFileLoader(name, path)
            module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
            loader.exec_module(module)
            if not registered:
                sys.modules.pop(name, None)
            return module
    raise ImportError(f"compiled module {name} not found in {directory}")


pocketfft_dct = _load_compiled("scipy.fft._pocketfft.pypocketfft").dct
dia_matvec = _load_compiled("scipy.sparse._sparsetools").dia_matvec


_BREAKDOWN = np.finfo(float).eps ** 2  # BiCGSTAB's breakdown threshold, scipy's


class SolverError(RuntimeError):
    """Linear solve failed to reach the requested residual tolerance."""


@dataclass
class SolveReport:
    iterations: int
    residual: float
    method: str


ExactSolve = tuple[Callable[[np.ndarray], np.ndarray], str]  # (solve, method label)


def readonly_copy(a, dtype=np.int64) -> np.ndarray:
    """Read-only copy of ``a`` as ``dtype``."""
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _takes_over(a, dtype) -> bool:
    """Whether an operator may keep ``a`` as it is: a read-only ``dtype``
    array that owns its memory, which no one can write through."""
    return (
        isinstance(a, np.ndarray)
        and a.base is None
        and a.dtype == dtype
        and not a.flags.writeable
    )


def _check_data(offsets: list[int], data: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``data`` holds one row per offset and no
    nonzero entry outside the n-by-n matrix, n its number of columns."""
    if data.ndim != 2 or data.shape[0] != len(offsets):
        raise ValueError(f"data has shape {data.shape}, need ({len(offsets)}, n)")
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
    outside the matrix must be zero. Both arrays are read-only. A scipy
    ``dia_matrix`` on them, ``dia``, is built when it is first read;
    products with A read the arrays themselves (``_dia_product``), and
    ``dia`` serves ``to_dense``, LU and tests. ``exact``, when given, is the
    operator's exact solve, a (solve, method label) pair such as the chem
    operator's ``dct_solve``. Instances are immutable.

    The constructor checks the offsets and the data. Each is copied unless
    it is already a read-only array, int64 offsets and float64 data, that
    owns its memory: such an array is taken over as it is, so the caller
    hands it over and does not make it writable again. So a step's cell
    operator, built on the chem operator's offsets, shares that array.
    """

    def __init__(self, offsets, data, exact: ExactSolve | None = None):
        if not _takes_over(offsets, np.int64):
            offsets = readonly_copy(offsets)
        if not _takes_over(data, np.float64):
            data = readonly_copy(data, float)  # own copy keeps the operator immutable
        listed = offsets.tolist()
        if offsets.ndim != 1 or listed != sorted(set(listed)) or 0 not in listed:
            raise ValueError(f"offsets {offsets} must be sorted, unique and include 0")
        _check_data(listed, data)
        self.n = data.shape[1]
        self.offsets = offsets
        self.data = data
        self.zero = listed.index(0)  # the diagonal's row of ``data``
        self._exact = exact

    @functools.cached_property
    def dia(self):  # built, and scipy.sparse imported, on first read
        import scipy.sparse
        offsets = readonly_copy(self.offsets, np.int32)  # scipy's index type
        return scipy.sparse.dia_matrix((self.data, offsets), shape=(self.n, self.n))

    def diagonal(self) -> np.ndarray:
        return self.data[self.zero]

    def to_dense(self) -> np.ndarray:
        return self.dia.toarray()

    def content_digest(self) -> bytes:
        import hashlib  # OpenSSL's libcrypto costs ~3.6 MiB of RSS; only this needs it

        h = hashlib.sha1()
        h.update(np.int64(self.n).tobytes())
        h.update(self.offsets.tobytes())
        h.update(self.data.tobytes())
        return h.digest()


def _dia_product(offsets, data: np.ndarray, x, out: np.ndarray) -> np.ndarray:
    """``out`` = A·x, A the square DIA matrix on ``offsets`` and ``data``, by
    scipy's ``dia_matvec``: ``out`` is zeroed, as ``dia_matrix @ x`` zeroes
    its result, and each row's terms are added by increasing offset, that
    is by increasing column, as a sorted CSR product adds them."""
    out.fill(0.0)
    dia_matvec(out.size, out.size, offsets.size, data.shape[1], offsets, data, x, out)
    return out


def spmv(m: SparseMatrix, x: np.ndarray) -> np.ndarray:
    """Sparse matrix-vector product ``m.dia @ x``, bit for bit, with a fixed
    within-row accumulation order (``_dia_product``)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (m.n,):
        raise ValueError(f"dimension mismatch: matrix is {m.n}, vector is {x.shape}")
    return _dia_product(m.offsets, m.data, x, np.empty(m.n))


def fixed_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product of two vectors in one pass of ``c_einsum("i,i->")``,
    the kernel ``np.einsum`` runs unoptimized, without its dispatch; never
    BLAS. The summation order is fixed by the numpy build, whatever the
    thread count or the operands' alignment."""
    return float(c_einsum("i,i->", a, b))


def fixed_norm(a: np.ndarray) -> float:
    """Euclidean norm through ``fixed_dot``."""
    return math.sqrt(fixed_dot(a, a))


def check_m_matrix_pattern(m: SparseMatrix) -> tuple[bool, np.ndarray]:
    """``(signs_hold, slack)``: whether ``m`` has the M-matrix sign pattern
    (positive diagonal, nonpositive off-diagonals) on its stored diagonals,
    and its signed column sums. Where the signs hold, column j's sum is
    |a_jj| - sum_i |a_ij| over i != j, its dominance slack, so strict
    column dominance means every slack is positive; otherwise the sums are
    only sums. For a symmetric operator, such as the chem operator B, they
    are also its row slacks.

    A column sum adds column j's entries by increasing row, which is
    decreasing offset; the zeros the layout stores beside them add nothing.
    The signs are read from the rows of ``data`` without copying them (NaN
    fails the test).
    """
    below, above = m.data[: m.zero], m.data[m.zero + 1 :]
    signs_hold = bool((m.data[m.zero] > 0).all() and (below <= 0).all() and (above <= 0).all())
    return signs_hold, np.add.reduce(m.data[::-1], axis=0)


def _lu_solve(m: SparseMatrix) -> Callable[[np.ndarray], np.ndarray]:
    """The solve of a fresh LU factorization of ``m``, for the one solve
    that needed it; nothing is kept on ``m``.

    Every operator shares one structurally symmetric 5-point pattern, so the
    columns are ordered by minimum degree on A^T + A. The CSC copy that is
    factorized holds the nonzero entries only; scipy's conversion drops the
    zeros the DIA layout stores.
    """
    # imported on first use, as ``m.dia`` imports scipy.sparse: the two add
    # ~25 MiB of RSS, and a run whose cell solves all converge never factorizes
    import scipy.sparse.linalg as spla

    try:
        return spla.splu(m.dia.tocsc(), permc_spec="MMD_AT_PLUS_A").solve
    except RuntimeError as exc:  # singular factor
        raise SolverError(f"direct factorization failed: {exc}") from exc


def dct_solve(eigenvalues: np.ndarray) -> ExactSolve:
    """The exact solve by the orthonormal 2-D DCT-II of an operator with
    ``eigenvalues``, labelled ``direct-dct``: the ``exact`` pair its
    ``SparseMatrix`` is built with.

    The operator must act on row-major cells of an (ny, nx) grid and be
    diagonalised by the DCT-II along both axes, with ``eigenvalues`` (shape
    (ny, nx)) its eigenvalues: a constant-coefficient Neumann operator on a
    uniform rectangle. A solve is one pocketfft DCT-II over both axes, a
    divide by the eigenvalues and one DCT-III in place, both with ``inorm``
    1, which is what ``scipy.fft.dctn``/``idctn(norm="ortho")`` pass. Both
    run on one thread whatever ``scipy.fft.set_workers`` says.
    An eigenvalue that is not positive raises ``SolverError`` here.
    """
    eigenvalues = readonly_copy(eigenvalues, float)
    if not np.all(eigenvalues > 0):  # NaN fails too
        raise SolverError(
            f"operator is not positive definite: smallest eigenvalue "
            f"{np.min(eigenvalues):.3e} (n={eigenvalues.size})"
        )

    def solve(rhs):
        coeffs = pocketfft_dct(rhs.reshape(eigenvalues.shape), 2, inorm=1, nthreads=1)
        coeffs /= eigenvalues
        return pocketfft_dct(coeffs, 3, inorm=1, out=coeffs, nthreads=1).ravel()

    return solve, "direct-dct"


class LinearSolver:
    """Deterministic solver front end: an exact DCT solve, or Krylov with a
    per-solve LU fallback.

    A matrix built with an exact solve, the chem operator's DCT solve
    (``dct_solve``), is solved with it. Any other matrix with a
    nonzero diagonal (the cell operator) goes through the in-house
    Jacobi-BiCGSTAB (``_jacobi_bicgstab``), whose loop iterates on A·D⁻¹
    and unscales its result once; when that breaks down, returns
    a non-finite result or misses ``tol``, or when the diagonal holds a
    zero, the solve LU-factorizes the matrix (``_lu_solve``), is reported
    as ``direct-lu(fallback)`` and keeps nothing on the matrix. The Krylov
    loop and the residual check reduce in a fixed order (``fixed_dot``) and
    the transforms run on one worker, so the result, its reported residual
    and the path taken do not depend on the BLAS or FFT thread count. A
    right-hand side whose norm overflows or is NaN raises ``SolverError``
    before any path is taken.
    """

    tol = 1e-12  # relative residual every solve must reach

    def solve(self, m: SparseMatrix, rhs: np.ndarray) -> tuple[np.ndarray, SolveReport]:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (m.n,):
            raise ValueError(f"rhs has shape {rhs.shape}, matrix is {m.n}x{m.n}")
        rhs_norm = fixed_norm(rhs)
        if not math.isfinite(rhs_norm):  # no solve path can meet a residual relative to it
            raise SolverError(
                f"right-hand side norm {rhs_norm} is not finite: the data overflowed "
                f"or holds NaN (n={m.n})"
            )
        if rhs_norm == 0.0:
            return np.zeros(m.n), SolveReport(0, 0.0, "trivial")

        def relative_residual(x):
            return fixed_norm(spmv(m, x) - rhs) / rhs_norm

        method = None
        diag = m.diagonal()
        if m._exact is None and diag.all():  # no zero on the diagonal
            x, iters = self._jacobi_bicgstab(m, rhs, rhs_norm, diag)
            residual = np.inf if x is None else relative_residual(x)
            # NaN compares false: a non-finite Krylov result falls back too
            if residual <= self.tol:
                method = "jacobi-bicgstab"
        if method is None:
            exact_solve, method = m._exact or (_lu_solve(m), "direct-lu(fallback)")
            x, iters = exact_solve(rhs), 0
            residual = relative_residual(x)
        if residual > self.tol or not np.isfinite(x).all():
            raise SolverError(
                f"residual {residual:.3e} above tolerance {self.tol:.3e} "
                f"(method {method}, n={m.n})"
            )
        return x, SolveReport(iters, residual, method)

    def _jacobi_bicgstab(self, m, rhs, rhs_norm, diag):
        """Right-Jacobi-preconditioned BiCGSTAB (van der Vorst 1992) from
        x = 0: (solution, full iterations), or (None, 0) when it breaks down
        or runs out of iterations. ``rhs_norm`` is ``fixed_norm(rhs)`` and
        ``diag`` is ``m.diagonal()``.

        The loop iterates on the right-scaled operator A·D⁻¹ (D the
        diagonal of A), whose data, built once per solve, is A's with
        column j scaled by 1/d_j: in the DIA layout, every row times
        1/diag. Its products (``_dia_product``) go into two vectors, v and
        t, that the solve allocates once. It solves A·D⁻¹ y = b for
        y = D·x and returns x = D⁻¹·y, so no iteration applies the
        preconditioner. The recurrence, stopping rule
        (||r|| < max(tol/10, 1e-14)·||b||) and breakdown tests are those
        of ``scipy.sparse.linalg.bicgstab`` with M = D⁻¹; the inner
        products are ``fixed_dot``. ||r_0|| is ||b||, and each later ||r||
        is taken once, where r is updated, for the next test. The work
        vectors live for the solve and are updated in place;
        s = r - alpha·v overwrites r.
        """
        inv_diag = 1.0 / diag
        scaled = m.data * inv_diag
        atol = max(self.tol * 0.1, 1e-14) * rhs_norm
        y = np.zeros(m.n)
        r = rhs.copy()
        r_norm = rhs_norm
        r_tilde = rhs  # the shadow residual stays r_0 = b; never written
        p = rhs.copy()
        work, v, t = np.empty(m.n), np.empty(m.n), np.empty(m.n)
        for iteration in range(min(m.n, 300)):
            if r_norm < atol:
                return np.multiply(y, inv_diag, out=y), iteration
            rho = fixed_dot(r_tilde, r)
            if abs(rho) < _BREAKDOWN:
                return None, 0
            if iteration > 0:
                if abs(omega) < _BREAKDOWN:
                    return None, 0
                p -= np.multiply(v, omega, out=work)
                p *= (rho / rho_prev) * (alpha / omega)
                p += r
            _dia_product(m.offsets, scaled, p, v)
            rv = fixed_dot(r_tilde, v)
            if rv == 0.0:
                return None, 0
            alpha = rho / rv
            r -= np.multiply(v, alpha, out=work)
            if fixed_norm(r) < atol:
                y += np.multiply(p, alpha, out=work)
                return np.multiply(y, inv_diag, out=y), iteration
            _dia_product(m.offsets, scaled, r, t)
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
