"""Uniform rectangular finite volume meshes with two-point flux geometry.

The mesh is the uniform nx-by-ny rectangle: cells are open rectangles
indexed row-major (x fastest), centers at the centroids, so the
center-segment/edge orthogonality required by two-point flux
approximations holds by construction. The scheme's boundary condition is
homogeneous Neumann, so a boundary edge carries no flux and is not stored;
every edge array lists interior edges only.
"""

from __future__ import annotations

import numpy as np

from .linalg import fixed_dot, readonly_copy


class MeshError(ValueError):
    """Invalid mesh construction."""


class Mesh:
    """Uniform nx-by-ny rectangular mesh over x_range x y_range.

    Immutable after construction: every array is a read-only copy, so
    derived arrays cannot go stale. Safe
    to share across workers. Interior edge e joins cells
    ``interior_cell_a[e]`` and ``interior_cell_b[e]``: first the x-normal
    edges (K, K+1), then the y-normal edges (K, K+nx), each in row-major
    order of K. The zero-flux boundary edges are not stored.
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
        centers = np.column_stack([gx.ravel(), gy.ravel()])
        self.cell_centers = readonly_copy(centers, float)
        self.cell_measures = readonly_copy(np.full(self.n_cells, self.dx * self.dy), float)

        k = np.arange(self.n_cells, dtype=np.int64).reshape(self.ny, self.nx)
        x_normal = k[:, :-1].ravel()
        y_normal = k[:-1, :].ravel()
        self.interior_cell_a = readonly_copy(np.concatenate([x_normal, y_normal]))
        self.interior_cell_b = readonly_copy(
            np.concatenate([x_normal + 1, y_normal + self.nx])
        )
        measures = np.concatenate(
            [np.full(x_normal.size, self.dy), np.full(y_normal.size, self.dx)]
        )
        distances = np.concatenate(
            [np.full(x_normal.size, self.dx), np.full(y_normal.size, self.dy)]
        )
        self.interior_measures = readonly_copy(measures, float)
        self.interior_distances = readonly_copy(distances, float)
        self.interior_tau = readonly_copy(measures / distances, float)
        self.n_interior_edges = self.interior_cell_a.size
        tau_sum = np.bincount(
            self.interior_cell_a, weights=self.interior_tau, minlength=self.n_cells
        ) + np.bincount(
            self.interior_cell_b, weights=self.interior_tau, minlength=self.n_cells
        )
        self.tau_sum_interior = readonly_copy(tau_sum, float)

        self._validate()

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

    def integral(self, values) -> float:
        """sum over cells of m(K) v_K, in ``fixed_dot``'s one-pass fixed
        order, so it does not depend on the BLAS thread count."""
        return fixed_dot(self.cell_measures, values)

    def edge_grids(self, values) -> tuple[np.ndarray, np.ndarray]:
        """An interior-edge array as its x-normal part, a (ny, nx-1) grid,
        and its y-normal part, a (ny-1, nx) grid; both are views."""
        n_x = (self.nx - 1) * self.ny
        return (
            values[:n_x].reshape(self.ny, self.nx - 1),
            values[n_x:].reshape(self.ny - 1, self.nx),
        )

    def edge_jumps(self, values) -> np.ndarray:
        """v_b - v_a over every interior edge e joining a < b, in the edge
        order (x-normal edges, then y-normal, each row-major), taken by
        slices of the cell grid into one fresh array."""
        grid = np.asarray(values, dtype=float).reshape(self.ny, self.nx)
        jumps = np.empty(self.n_interior_edges)
        jump_x, jump_y = self.edge_grids(jumps)
        np.subtract(grid[:, 1:], grid[:, :-1], out=jump_x)
        np.subtract(grid[1:], grid[:-1], out=jump_y)
        return jumps

    def adjacency_csr(self) -> np.ndarray:
        """DIA layout shared by all operators assembled on this mesh: the
        read-only sorted offsets (-nx, -1, 0, 1, nx). An x-normal edge
        (K, K+1) couples cells on the +-1 diagonals and a y-normal edge
        (K, K+nx) on the +-nx ones; a mesh one cell wide in x has no
        x-normal edges, and one cell wide in y no y-normal edges, so
        their offsets are left out."""
        offsets = {0}
        if self.nx > 1:
            offsets |= {-1, 1}
        if self.ny > 1:
            offsets |= {-self.nx, self.nx}
        return readonly_copy(sorted(offsets))


def build_uniform_rect_mesh(x_range, y_range, nx: int, ny: int) -> Mesh:
    """Build the uniform nx-by-ny rectangular mesh over x_range x y_range."""
    return Mesh(x_range, y_range, nx, ny)
