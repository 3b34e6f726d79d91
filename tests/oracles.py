"""Independent brute-force oracles used only by the tests.

Everything here is deliberately written without touching the production
code paths (the scipy solvers are the reference BiCGSTAB and the sparse
LU that production calls only as the cell operator's fallback), so that
agreement between the two sides is meaningful. The exceptions are
``from_coo``, ``from_dense`` and ``identity``, which lay test matrices
out as the production ``SparseMatrix``, and ``five_point`` with the
``*_edge_list`` forms and ``assemble_cell_reference``, which keep
earlier forms of the operators and norms, on the per-edge arrays of
``edge_list``, on the production limiter and layout offsets;
``five_point`` writes each entry by index, sharing no code with the
production assembly.
``write_snapshot_csv_per_row`` and ``write_vtk_per_value`` are the
snapshot writers as they were before they streamed one mesh row per
write: one ``csv.writer`` row per cell, one ``write`` per VTK value.
``cell_centers_reference``, ``region_contains_reference`` and
``initial_state_reference`` keep the per-cell (n_cells, 2) centers the
mesh once stored and the point-wise region test the initial state read.
"""

import csv
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from chemofv import SparseMatrix
from chemofv import model as _model
from chemofv.scheme import limiter_S

# mesh shapes for the layout references: degenerate, small, the desk grid
# and the test1 and test4 preset grids
LAYOUT_SHAPES = [(1, 1), (2, 1), (1, 5), (3, 5), (48, 48), (35, 350), (150, 150)]


class EdgeList(NamedTuple):
    """A mesh's interior edges as per-edge arrays: edge e joins cells
    ``cell_a[e]`` < ``cell_b[e]``, in the mesh's edge order."""

    cell_a: np.ndarray
    cell_b: np.ndarray
    measures: np.ndarray
    distances: np.ndarray
    tau: np.ndarray
    tau_sum: np.ndarray  # per cell, the tau of its edges by ``np.bincount``


def edge_list(mesh) -> EdgeList:
    """The interior edges of ``mesh`` as an explicit edge list: the x-normal
    edges (K, K+1), then the y-normal edges (K, K+nx), each in row-major
    order of K, with measure, center distance and tau = measure / distance
    per edge."""
    k = np.arange(mesh.n_cells, dtype=np.int64).reshape(mesh.ny, mesh.nx)
    x_normal = k[:, :-1].ravel()
    y_normal = k[:-1, :].ravel()
    cell_a = np.concatenate([x_normal, y_normal])
    cell_b = np.concatenate([x_normal + 1, y_normal + mesh.nx])
    measures = np.concatenate(
        [np.full(x_normal.size, mesh.dy), np.full(y_normal.size, mesh.dx)]
    )
    distances = np.concatenate(
        [np.full(x_normal.size, mesh.dx), np.full(y_normal.size, mesh.dy)]
    )
    tau = measures / distances
    tau_sum = np.bincount(cell_a, weights=tau, minlength=mesh.n_cells) + np.bincount(
        cell_b, weights=tau, minlength=mesh.n_cells
    )
    return EdgeList(cell_a, cell_b, measures, distances, tau, tau_sum)


def five_point(mesh, diag, upper, lower) -> SparseMatrix:
    """The operator on ``mesh``'s DIA layout with ``diag`` on the diagonal
    and, for interior edge e joining a < b, ``upper[e]`` at (a, b) and
    ``lower[e]`` at (b, a); every other entry is +0.0. Each entry is
    written by index from ``edge_list``: entry (k, l) goes to column l of
    the row for offset l - k."""
    offsets = mesh.adjacency_csr()
    data = np.zeros((offsets.size, mesh.n_cells))
    data[np.searchsorted(offsets, 0)] = diag
    a, b = edge_list(mesh)[:2]
    data[np.searchsorted(offsets, b - a), b] = upper
    data[np.searchsorted(offsets, a - b), a] = lower
    return SparseMatrix(offsets, data)


def chem_operator_edge_list(mesh, chem_decay, dt) -> SparseMatrix:
    """The chem operator B, without its DCT solve, from the per-edge tau
    and the bincount tau sums."""
    edges = edge_list(mesh)
    m = mesh.cell_measures
    diag = edges.tau_sum + chem_decay * m
    if dt is not None:
        diag = diag + m / dt
    return five_point(mesh, diag, -edges.tau, -edges.tau)


def h1_seminorm_edge_list(values, mesh):
    """The H^1 seminorm from per-edge weights m(sigma) / d_sigma."""
    edges = edge_list(mesh)
    jumps = np.abs(values[edges.cell_b] - values[edges.cell_a])
    weights = edges.measures / edges.distances
    return float(np.sum(weights * jumps**2) ** 0.5)


def gradient_energy_edge_list(values, mesh):
    """sum over interior edges of (tau_sigma D_sigma v) D_sigma v."""
    edges = edge_list(mesh)
    jumps = values[edges.cell_b] - values[edges.cell_a]
    weighted = edges.tau * jumps
    weighted *= jumps
    return float(np.sum(weighted))


def from_dense(a) -> SparseMatrix:
    """``a`` in the DIA layout: one diagonal for every offset that holds a
    nonzero entry, plus offset 0, stored even when it is all zero."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    rows, cols = np.nonzero(a)
    offsets = np.union1d(cols - rows, [0])
    data = np.zeros((offsets.size, n))
    for d, offset in enumerate(offsets):
        col = np.arange(max(offset, 0), min(n + offset, n))
        data[d, col] = a[col - offset, col]  # data[d, j] = A[j - offset, j]
    return SparseMatrix(offsets, data)


def from_coo(n, rows, cols, vals) -> SparseMatrix:
    """Build from triplets; duplicates are summed, then laid out as in
    ``from_dense``."""
    dense = np.zeros((n, n))
    np.add.at(dense, (np.asarray(rows), np.asarray(cols)), np.asarray(vals, dtype=float))
    return from_dense(dense)


def identity(n) -> SparseMatrix:
    return SparseMatrix([0], np.ones((1, n)))


def limiter_where(threshold, x):
    """The flux limiter S as its piecewise definition: 0 below -t, x/2 on
    [-t, t], x above t."""
    x = np.asarray(x, dtype=float)
    return np.where(x < -threshold, 0.0, np.where(x > threshold, x, 0.5 * x))


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


def h1_seminorm_direct(values, mesh):
    """Edge-by-edge transcription of the H^1 seminorm (boundary edges
    carry no jump, so the interior edges are the whole sum)."""
    edges = edge_list(mesh)
    total = 0.0
    for e in range(mesh.n_interior_edges):
        jump = abs(values[edges.cell_b[e]] - values[edges.cell_a[e]])
        total += edges.measures[e] / edges.distances[e] * jump**2
    return total**0.5


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
    """Column dominance slacks |a_kk| - sum_{l != k} |a_lk| of a dense
    square array."""
    a = np.asarray(a, dtype=float)
    absdiag = np.abs(np.diag(a))
    off = np.abs(a) - np.diag(absdiag)
    return absdiag - off.sum(axis=0)


def dia_layout_loops(mesh):
    """Loop transcription of the operators' DIA layout, read off the
    interior edge list: (offsets, slots).

    ``offsets`` are the int64 sorted offsets l - k of every stored entry
    (k, l): the diagonal and both directions of every interior edge.
    ``slots[(k, l)]`` is the (diagonal index, column) at which entry (k, l)
    sits in the data array, whose column is always l.
    """
    entries = [(k, k) for k in range(mesh.n_cells)]
    edges = edge_list(mesh)
    for a, b in zip(edges.cell_a.tolist(), edges.cell_b.tolist()):
        entries += [(a, b), (b, a)]
    offsets = sorted({l - k for k, l in entries})
    slots = {(k, l): (offsets.index(l - k), l) for k, l in entries}
    return np.array(offsets, dtype=np.int64), slots


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


def assemble_cell_reference(state, c_new, plan):
    """The cell system (A, F) as the assembly computed it before it wrote
    in place: edge jumps gathered by ``concatenate``, fresh arrays for every
    intermediate and both outflow sums, the per-edge tau of ``edge_list``,
    the operator laid out by ``five_point``. The cubic kind's dt guard is
    left out."""
    mesh, model, dt = plan.mesh, plan.model, plan.dt
    m = mesh.cell_measures
    u = state.u
    tau = edge_list(mesh).tau

    c_grid = c_new.reshape(mesh.ny, mesh.nx)
    dc_x, dc_y = c_grid[:, 1:] - c_grid[:, :-1], c_grid[1:] - c_grid[:-1]
    dc = np.concatenate([dc_x.ravel(), dc_y.ravel()])
    s_plus = limiter_S(plan.limiter, dc)
    w_plus = tau * (model.cell_diffusion + model.chemo_sensitivity * s_plus)
    w_minus = tau * (model.cell_diffusion + model.chemo_sensitivity * (s_plus - dc))

    def grids(values):
        n_x = (mesh.nx - 1) * mesh.ny
        return (
            values[:n_x].reshape(mesh.ny, mesh.nx - 1),
            values[n_x:].reshape(mesh.ny - 1, mesh.nx),
        )

    flux_out_a, flux_out_b = np.zeros((2, mesh.ny, mesh.nx))
    (plus_x, plus_y), (minus_x, minus_y) = grids(w_plus), grids(w_minus)
    flux_out_a[:, :-1] += plus_x
    flux_out_a[:-1, :] += plus_y
    flux_out_b[:, 1:] += minus_x
    flux_out_b[1:, :] += minus_y
    diag = m / dt + flux_out_a.ravel() + flux_out_b.ravel()
    rhs = m * u / dt
    if model.growth == _model.GROWTH_QUADRATIC:
        growth = model.growth_rate * m * u
        diag = diag + growth
        rhs = rhs + growth
    elif model.growth == _model.GROWTH_CUBIC:
        diag = diag - m * u * (1.0 - u)
    return five_point(mesh, diag, -w_minus, -w_plus), rhs


def cell_centers_reference(mesh) -> np.ndarray:
    """The (n_cells, 2) cell centers, row-major (x fastest): the meshgrid of
    the 1-D center coordinates x0 + (i + 1/2) dx and y0 + (j + 1/2) dy."""
    cx = mesh.x_range[0] + (np.arange(mesh.nx) + 0.5) * mesh.dx
    cy = mesh.y_range[0] + (np.arange(mesh.ny) + 0.5) * mesh.dy
    gx, gy = np.meshgrid(cx, cy)
    return np.column_stack([gx.ravel(), gy.ravel()])


def region_contains_reference(region, points) -> np.ndarray:
    """Point-wise membership of the rows of an (n, 2) point array in an open
    ``RectRegion`` or ``DiskRegion``."""
    x, y = points[:, 0], points[:, 1]
    if isinstance(region, _model.RectRegion):
        inside_x = (x > region.x_min) & (x < region.x_max)
        return inside_x & (y > region.y_min) & (y < region.y_max)
    dx, dy = x - region.cx, y - region.cy
    return dx * dx + dy * dy < region.radius * region.radius


def initial_state_reference(mesh, ic) -> tuple[np.ndarray, np.ndarray]:
    """(u, c) of the initial state: the region tested point by point on the
    reference centers, the PCG64 draws taken in cell-index order."""
    u = np.full(mesh.n_cells, float(ic.base_u))
    if ic.region is not None:
        mask = region_contains_reference(ic.region, cell_centers_reference(mesh))
        n_hit = int(mask.sum())
        if n_hit:
            rng = np.random.default_rng(ic.rng_seed)
            u[mask] += rng.random((n_hit, 10)).mean(axis=1)
    return u, np.full(mesh.n_cells, float(ic.base_c))


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # plain-float repr even for numpy scalars
    return str(value)


def write_snapshot_csv_per_row(path, mesh, u, c) -> None:
    centers = cell_centers_reference(mesh)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cell_index", "cx", "cy", "u", "c"])
        for k in range(mesh.n_cells):
            writer.writerow(
                [
                    k,
                    _fmt(float(centers[k, 0])),
                    _fmt(float(centers[k, 1])),
                    _fmt(float(u[k])),
                    _fmt(float(c[k])),
                ]
            )


def write_vtk_per_value(path, mesh, values, name: str) -> None:
    """Legacy ASCII structured-points file with a single scalar field."""
    values = np.asarray(values, dtype=float)
    cx0 = mesh.x_range[0] + 0.5 * mesh.dx
    cy0 = mesh.y_range[0] + 0.5 * mesh.dy
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(f"chemofv field {name}\n")
        fh.write("ASCII\n")
        fh.write("DATASET STRUCTURED_POINTS\n")
        fh.write(f"DIMENSIONS {mesh.nx} {mesh.ny} 1\n")
        fh.write(f"ORIGIN {cx0!r} {cy0!r} 0.0\n")
        fh.write(f"SPACING {mesh.dx!r} {mesh.dy!r} 1.0\n")
        fh.write(f"POINT_DATA {mesh.n_cells}\n")
        fh.write(f"SCALARS {name} double 1\n")
        fh.write("LOOKUP_TABLE default\n")
        for v in values:  # row-major, x fastest, matches cell indexing
            fh.write(f"{float(v)!r}\n")
