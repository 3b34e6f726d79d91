"""Uniform rectangular finite volume meshes with two-point flux geometry.

Cells are open rectangles indexed row-major (x fastest), centers at the
centroids, so the center-segment/edge orthogonality required by two-point
flux approximations holds by construction. The Mesh type itself is general
(cell and edge arrays, transmissibilities); only the uniform rectangular
builder is provided.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .linalg import CsrPattern, readonly_copy


class MeshError(ValueError):
    """Invalid mesh construction or point lookup."""


@dataclass(frozen=True)
class Edge:
    """One mesh edge; ``cell_b`` is None for boundary edges.

    ``distance`` is the center-to-center distance for interior edges and the
    center-to-edge distance for boundary edges; ``tau`` is stored as
    measure/distance, computed once at construction.
    """

    index: int
    cell_a: int
    cell_b: int | None
    measure: float
    distance: float
    tau: float

    @property
    def is_boundary(self) -> bool:
        return self.cell_b is None


@dataclass(frozen=True, eq=False)
class AdjacencyPattern(CsrPattern):
    """CSR sparsity pattern of the cell-coupling operators on a mesh.

    A validated ``CsrPattern`` (its ``diag_slots[k]`` is the position of
    entry (k, k) in the value array) plus ``kl_slots[e]`` / ``lk_slots[e]``,
    the read-only positions of (K, L) and (L, K) for interior edge e,
    aligned with Mesh.interior_cell_a/b.
    """

    kl_slots: np.ndarray
    lk_slots: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "kl_slots", readonly_copy(self.kl_slots))
        object.__setattr__(self, "lk_slots", readonly_copy(self.lk_slots))


class Mesh:
    """Admissible two-point-flux mesh over a rectangular domain.

    Immutable after construction; safe to share across workers. Geometric
    quantities are exposed as numpy arrays (used by the assemblies); the
    edges are also listed as Edge objects.
    """

    def __init__(self, x_range, y_range, nx, ny):
        x0, x1 = float(x_range[0]), float(x_range[1])
        y0, y1 = float(y_range[0]), float(y_range[1])
        if not (x1 > x0 and y1 > y0):
            raise MeshError(f"empty or reversed range: x={x_range}, y={y_range}")
        if nx < 1 or ny < 1:
            raise MeshError(f"need nx, ny >= 1, got nx={nx}, ny={ny}")

        self.nx = int(nx)
        self.ny = int(ny)
        self.x_range = (x0, x1)
        self.y_range = (y0, y1)
        self.dx = (x1 - x0) / nx
        self.dy = (y1 - y0) / ny
        self.n_cells = self.nx * self.ny
        self.domain_area = (x1 - x0) * (y1 - y0)

        ix = np.arange(self.nx)
        iy = np.arange(self.ny)
        cx = x0 + (ix + 0.5) * self.dx
        cy = y0 + (iy + 0.5) * self.dy
        gx, gy = np.meshgrid(cx, cy)  # row-major: index = iy*nx + ix
        self.cell_centers = np.column_stack([gx.ravel(), gy.ravel()])
        self.cell_measures = np.full(self.n_cells, self.dx * self.dy)

        self._build_edges()

        self.h = math.hypot(self.dx, self.dy)
        self.regularity = compute_regularity(self)
        self._validate()
        self._edges_cache = None
        self._pattern_cache = None

    def _build_edges(self):
        nx, ny = self.nx, self.ny
        dx, dy = self.dx, self.dy

        # Interior vertical edges (x-normal) between (ix,iy) and (ix+1,iy),
        # then interior horizontal edges (y-normal), then boundary edges.
        # Center-to-edge distances are construction-exact (half a cell side
        # for a centroid mesh), so regularity comes out exact.
        ka, kb, meas, dist, cdist = [], [], [], [], []
        if nx > 1:
            iyv, ixv = np.meshgrid(np.arange(ny), np.arange(nx - 1), indexing="ij")
            k = iyv.ravel() * nx + ixv.ravel()
            ka.append(k)
            kb.append(k + 1)
            meas.append(np.full(k.size, dy))
            dist.append(np.full(k.size, dx))
            cdist.append(np.full(k.size, dx / 2.0))
        if ny > 1:
            iyh, ixh = np.meshgrid(np.arange(ny - 1), np.arange(nx), indexing="ij")
            k = iyh.ravel() * nx + ixh.ravel()
            ka.append(k)
            kb.append(k + nx)
            meas.append(np.full(k.size, dx))
            dist.append(np.full(k.size, dy))
            cdist.append(np.full(k.size, dy / 2.0))

        n_int = sum(a.size for a in ka)

        def boundary(cells, m, d):
            ka.append(cells)
            kb.append(np.full(cells.size, -1))
            meas.append(np.full(cells.size, m))
            dist.append(np.full(cells.size, d))
            cdist.append(np.full(cells.size, d))

        iy = np.arange(ny)
        ix = np.arange(nx)
        boundary(iy * nx, dy, dx / 2.0)  # west
        boundary(iy * nx + (nx - 1), dy, dx / 2.0)  # east
        boundary(ix, dx, dy / 2.0)  # south
        boundary((ny - 1) * nx + ix, dx, dy / 2.0)  # north

        self.edge_cell_a = np.concatenate(ka).astype(np.int64)
        self.edge_cell_b = np.concatenate(kb).astype(np.int64)
        self.edge_measures = np.concatenate(meas)
        self.edge_distances = np.concatenate(dist)
        self.edge_center_dist = np.concatenate(cdist)  # d(x_K, sigma), per edge
        self.edge_tau = self.edge_measures / self.edge_distances
        self.n_edges = self.edge_cell_a.size
        self.n_interior_edges = n_int

        # Interior-edge views used by every assembly.
        self.interior_cell_a = self.edge_cell_a[:n_int]
        self.interior_cell_b = self.edge_cell_b[:n_int]
        self.interior_tau = self.edge_tau[:n_int]
        self.tau_sum_interior = np.bincount(
            self.interior_cell_a, weights=self.interior_tau, minlength=self.n_cells
        ) + np.bincount(
            self.interior_cell_b, weights=self.interior_tau, minlength=self.n_cells
        )

    def _validate(self):
        if np.any(self.cell_measures <= 0):
            raise MeshError("nonpositive cell measure")
        # The centers are the tensor product of the 1-D center coordinates,
        # so they are pairwise distinct when both of those strictly increase.
        xs = self.cell_centers[: self.nx, 0]
        ys = self.cell_centers[:: self.nx, 1]
        if np.any(np.diff(xs) <= 0) or np.any(np.diff(ys) <= 0):
            raise MeshError("cell centers are not pairwise distinct")
        total = self.cell_measures.sum()
        if abs(total - self.domain_area) > 1e-12 * self.domain_area:
            raise MeshError(
                f"cell measures sum to {total}, domain area is {self.domain_area}"
            )
        # The interior views are the leading block of the edge arrays, and
        # the assemblies couple a cell only through the edges listed here.
        n_int = self.n_interior_edges
        if (
            np.any(self.interior_cell_b < 0)
            or np.any(self.interior_cell_b == self.interior_cell_a)
            or np.any(self.edge_cell_b[n_int:] >= 0)
        ):
            raise MeshError("interior edges must join two distinct cells")
        edges_per_cell = np.bincount(
            np.concatenate([self.edge_cell_a, self.interior_cell_b]),
            minlength=self.n_cells,
        )
        if edges_per_cell.size != self.n_cells or np.any(edges_per_cell != 4):
            raise MeshError("every cell must have four edges")
        if not 0.0 < self.regularity <= 1.0:
            raise MeshError(f"mesh regularity {self.regularity} outside (0, 1]")

    @property
    def edges(self) -> list[Edge]:
        if self._edges_cache is None:
            self._edges_cache = [
                Edge(
                    e,
                    int(self.edge_cell_a[e]),
                    int(self.edge_cell_b[e]) if self.edge_cell_b[e] >= 0 else None,
                    float(self.edge_measures[e]),
                    float(self.edge_distances[e]),
                    float(self.edge_tau[e]),
                )
                for e in range(self.n_edges)
            ]
        return self._edges_cache

    def adjacency_csr(self) -> AdjacencyPattern:
        """Sparsity pattern shared by all operators assembled on this mesh."""
        if self._pattern_cache is not None:
            return self._pattern_cache
        # Diagonal plus both directions of every interior edge, sorted by
        # (row, column); the inverse permutation maps each edge entry to its
        # slot (the pattern finds the diagonal slots itself).
        n = self.n_cells
        diag = np.arange(n, dtype=np.int64)
        rows = np.concatenate([diag, self.interior_cell_a, self.interior_cell_b])
        cols = np.concatenate([diag, self.interior_cell_b, self.interior_cell_a])
        order = np.lexsort((cols, rows))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        slots = np.empty(order.size, dtype=np.int64)
        slots[order] = np.arange(order.size)
        kl_slots, lk_slots = np.split(slots[n:], 2)
        self._pattern_cache = AdjacencyPattern(n, indptr, cols[order], kl_slots, lk_slots)
        return self._pattern_cache


def build_uniform_rect_mesh(x_range, y_range, nx: int, ny: int) -> Mesh:
    """Build the uniform nx-by-ny rectangular mesh over x_range x y_range."""
    return Mesh(x_range, y_range, nx, ny)


def compute_regularity(mesh: Mesh) -> float:
    """Mesh regularity: min over interior edges of d(x_K, sigma)/d(x_K, x_L).

    Both adjacent cells of each interior edge are considered. Returns 1.0
    by convention on meshes without interior edges.
    """
    n_int = mesh.n_interior_edges
    if n_int == 0:
        return 1.0
    # Symmetric cells on both sides of every interior edge, so one stored
    # center distance per edge covers both ratios.
    ratios = mesh.edge_center_dist[:n_int] / mesh.edge_distances[:n_int]
    return float(ratios.min())


def locate_cell(mesh: Mesh, point) -> int:
    """Index of the cell containing ``point``.

    Points on shared faces resolve to the lexicographically smaller cell
    index; points outside the domain closure raise MeshError.
    """
    x, y = float(point[0]), float(point[1])
    (x0, x1), (y0, y1) = mesh.x_range, mesh.y_range
    if not (x0 <= x <= x1 and y0 <= y <= y1):
        raise MeshError(f"point {(x, y)} outside domain")

    def axis_index(v, v0, dv, count):
        k = int(math.floor((v - v0) / dv))
        k = min(max(k, 0), count - 1)
        # exact face hit -> smaller index
        if k > 0 and v0 + k * dv == v:
            k -= 1
        return k

    ix = axis_index(x, x0, mesh.dx, mesh.nx)
    iy = axis_index(y, y0, mesh.dy, mesh.ny)
    return iy * mesh.nx + ix


def dump_cells_csv(mesh: Mesh, path) -> None:
    """Write the cell table as CSV: cell_index, cx, cy, measure."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cell_index", "cx", "cy", "measure"])
        for k in range(mesh.n_cells):
            writer.writerow(
                [
                    k,
                    repr(float(mesh.cell_centers[k, 0])),
                    repr(float(mesh.cell_centers[k, 1])),
                    repr(float(mesh.cell_measures[k])),
                ]
            )
