"""Uniform rectangular finite volume meshes with two-point flux geometry.

The mesh is the uniform nx-by-ny rectangle: cells are open rectangles
indexed row-major (x fastest), centers at the centroids, so the
center-segment/edge orthogonality required by two-point flux
approximations holds by construction. The centers are the tensor product
of nx x- and ny y-coordinates, stored as those two vectors. The scheme's
boundary condition is homogeneous Neumann, so a boundary edge carries no
flux and is not stored; every edge array lists interior edges only, in the
grid layout of ``Mesh.edge_grids``.
"""

from __future__ import annotations

import numpy as np

from .linalg import fixed_dot, readonly_copy


class MeshError(ValueError):
    """Invalid mesh construction."""


class Mesh:
    """Uniform nx-by-ny rectangular mesh over x_range x y_range.

    Immutable after construction: every array is a read-only copy, so
    derived arrays cannot go stale. Safe to share across workers.

    Cell K = iy*nx + ix is centered at (``x_centers[ix]``, ``y_centers[iy]``),
    the read-only vectors x0 + (i + 1/2) dx and y0 + (j + 1/2) dy.

    An edge array lists the interior edges: the x-normal edges (K, K+1),
    then the y-normal edges (K, K+nx), each in row-major order of K. An
    x-normal edge has measure hy and center distance hx, a y-normal one
    measure hx and distance hy, so the edge geometry is two
    transmissibilities m(sigma)/d_sigma: ``tau_x`` = hy/hx, ``tau_y`` = hx/hy.
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

        self.x_centers = readonly_copy(x0 + (np.arange(self.nx) + 0.5) * self.dx, float)
        self.y_centers = readonly_copy(y0 + (np.arange(self.ny) + 0.5) * self.dy, float)
        self.cell_measures = readonly_copy(np.full(self.n_cells, self.dx * self.dy), float)
        self._validate()

        self.tau_x = self.dy / self.dx
        self.tau_y = self.dx / self.dy
        self.n_interior_edges = (self.nx - 1) * self.ny + self.nx * (self.ny - 1)

    def _validate(self):
        if np.any(self.cell_measures <= 0):
            raise MeshError("nonpositive cell measure")
        # the tensor-product centers are distinct when both vectors increase
        if np.any(np.diff(self.x_centers) <= 0) or np.any(np.diff(self.y_centers) <= 0):
            raise MeshError("cell centers are not pairwise distinct")
        total = self.cell_measures.sum()
        if abs(total - self.domain_area) > 1e-12 * self.domain_area:
            raise MeshError(
                f"cell measures sum to {total}, domain area is {self.domain_area}"
            )

    def cell_field(self, values) -> np.ndarray:
        """``values`` as a float array, which must hold one value per cell."""
        v = np.asarray(values, dtype=float)
        if v.shape != self.cell_measures.shape:
            raise ValueError(
                f"field has {v.size} values, but mesh.n_cells is {self.n_cells}"
            )
        return v

    def integral(self, values) -> float:
        """sum over cells of m(K) v_K, in ``fixed_dot``'s one-pass fixed
        order, so it does not depend on the BLAS thread count."""
        return fixed_dot(self.cell_measures, self.cell_field(values))

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
        grid = self.cell_field(values).reshape(self.ny, self.nx)
        jumps = np.empty(self.n_interior_edges)
        jump_x, jump_y = self.edge_grids(jumps)
        np.subtract(grid[:, 1:], grid[:, :-1], out=jump_x)
        np.subtract(grid[1:], grid[:-1], out=jump_y)
        return jumps

    def scale_edges(self, values, x_weight, y_weight) -> np.ndarray:
        """Multiply an interior-edge array in place, its x-normal part by
        ``x_weight`` and its y-normal part by ``y_weight``; returns it."""
        for grid, weight in zip(self.edge_grids(values), (x_weight, y_weight)):
            grid *= weight
        return values

    def adjacency_csr(self) -> np.ndarray:
        """DIA layout shared by all operators assembled on this mesh: the
        read-only sorted offsets (-nx, -1, 0, 1, nx). An x-normal edge
        (K, K+1) couples cells on the +-1 diagonals and a y-normal edge
        (K, K+nx) on the +-nx ones; a mesh one cell wide in x has no
        x-normal edges, and one cell wide in y no y-normal edges, so
        their offsets are left out. The CSR name predates the DIA layout; it
        stays while ``bench/tracer.py`` wraps it (see ROADMAP item 1)."""
        offsets = {0}
        if self.nx > 1:
            offsets |= {-1, 1}
        if self.ny > 1:
            offsets |= {-self.nx, self.nx}
        return readonly_copy(sorted(offsets))


def build_uniform_rect_mesh(x_range, y_range, nx: int, ny: int) -> Mesh:
    """Build the uniform nx-by-ny rectangular mesh over x_range x y_range."""
    return Mesh(x_range, y_range, nx, ny)
