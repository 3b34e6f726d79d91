"""Independent brute-force oracles used only by the tests.

Everything here is deliberately written without touching the production
code paths (no SparseMatrix; the scipy solvers are the reference BiCGSTAB
and the sparse LU that production calls only as the cell operator's
fallback), so that agreement between the two sides is meaningful.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def dense_gauss_solve(a, b):
    """Dense Gaussian elimination with partial pivoting."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = a.shape[0]
    for k in range(n - 1):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if a[p, k] == 0.0:
            raise ZeroDivisionError("singular matrix")
        if p != k:
            a[[k, p]] = a[[p, k]]
            b[[k, p]] = b[[p, k]]
        for i in range(k + 1, n):
            f = a[i, k] / a[k, k]
            if f != 0.0:
                a[i, k:] -= f * a[k, k:]
                b[i] -= f * b[k]
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        if a[i, i] == 0.0:
            raise ZeroDivisionError("singular matrix")
        x[i] = (b[i] - a[i, i + 1 :] @ x[i + 1 :]) / a[i, i]
    return x


def dense_spmv(a, x):
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    out = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for j in range(a.shape[1]):
            acc += a[i, j] * x[j]
        out[i] = acc
    return out


def beta_brute_force(u, u_prev):
    """Scalar transcription of the correction safety factor."""

    def g(v):
        return v / (v + 1.0)

    candidates = []
    for un, up in zip(u, u_prev):
        if 2.0 * g(un) - g(up) < 0.0:
            candidates.append(g(un) / (g(up) - g(un)))
    if not candidates:
        return 1.0
    return min(1.0, min(candidates))


def h1_seminorm_direct(values, mesh, p=2.0):
    """Edge-by-edge transcription of the W^{1,p} seminorm (boundary edges
    carry no jump, so the interior edges are the whole sum)."""
    total = 0.0
    for e in range(mesh.n_interior_edges):
        jump = abs(values[mesh.interior_cell_b[e]] - values[mesh.interior_cell_a[e]])
        total += (
            mesh.interior_measures[e] / mesh.interior_distances[e] ** (p - 1.0) * jump**p
        )
    return total ** (1.0 / p)


def random_dominant_m_matrix(rng, n, density=0.3, slack_scale=1.0):
    """Dense array with M-matrix sign pattern, strictly dominant both ways."""
    a = -rng.random((n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(a, 0.0)
    row_abs = np.abs(a).sum(axis=1)
    col_abs = np.abs(a).sum(axis=0)
    slack = slack_scale * (0.1 + rng.random(n))
    np.fill_diagonal(a, np.maximum(row_abs, col_abs) + slack)
    return a


def abs_sum_slacks(a):
    """Dominance slacks |a_kk| - sum_{l != k} |a_kl| of a dense square
    array: (per row, per column)."""
    a = np.asarray(a, dtype=float)
    absdiag = np.abs(np.diag(a))
    off = np.abs(a) - np.diag(absdiag)
    return absdiag - off.sum(axis=1), absdiag - off.sum(axis=0)


def adjacency_pattern_loops(mesh):
    """Loop transcription of the operators' CSR pattern, read off the
    mesh's interior edge list.

    Row k holds k and every cell across an interior edge of k, in increasing
    column order. Returns int64 arrays (indptr, indices, diag_slots,
    kl_slots, lk_slots), the last two listing the slots of (a, b) and
    (b, a) for each interior edge in edge order.
    """
    n = mesh.n_cells
    edges = [
        (int(a), int(b)) for a, b in zip(mesh.interior_cell_a, mesh.interior_cell_b)
    ]
    rows = [[k] for k in range(n)]
    for a, b in edges:
        rows[a].append(b)
        rows[b].append(a)
    indptr, indices, slot = [0], [], {}
    for r, cols in enumerate(rows):
        for c in sorted(cols):
            slot[(r, c)] = len(indices)
            indices.append(c)
        indptr.append(len(indices))
    diag_slots = [slot[(k, k)] for k in range(n)]
    kl_slots = [slot[(a, b)] for a, b in edges]
    lk_slots = [slot[(b, a)] for a, b in edges]
    return tuple(
        np.array(v, dtype=np.int64)
        for v in (indptr, indices, diag_slots, kl_slots, lk_slots)
    )


def scipy_jacobi_bicgstab(a, b, tol=1e-12):
    """scipy's Jacobi-preconditioned BiCGSTAB with the production stopping
    rule: (solution, full iterations, info). ``a`` is a scipy sparse matrix;
    info 0 means converged."""
    count = [0]

    def tick(_):
        count[0] += 1

    x, info = spla.bicgstab(
        a, b, rtol=max(tol * 0.1, 1e-14), atol=0.0,
        maxiter=min(a.shape[0], 300), M=sp.diags(1.0 / a.diagonal()), callback=tick,
    )
    return x, count[0], info


def splu_solve(a, b):
    """Direct solve by scipy's SuperLU with its default column ordering;
    ``a`` is a scipy sparse matrix."""
    return spla.splu(sp.csc_matrix(a)).solve(np.asarray(b, dtype=float))
