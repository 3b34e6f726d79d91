import re

import numpy as np
import pytest

from chemofv import MeshError, build_uniform_rect_mesh

from oracles import (
    LAYOUT_SHAPES,
    cell_centers_reference,
    dia_layout_loops,
    edge_list,
    five_point,
)


def test_single_cell_mesh():
    mesh = build_uniform_rect_mesh((0.0, 1.0), (0.0, 1.0), 1, 1)
    assert mesh.n_cells == 1
    assert mesh.cell_measures[0] == 1.0
    assert mesh.n_interior_edges == 0
    edges = edge_list(mesh)
    assert edges.cell_a.size == edges.tau.size == 0


def test_two_cell_interior_edge_geometry(mesh_2cell):
    assert mesh_2cell.n_interior_edges == 1
    assert mesh_2cell.tau_x == 1.0
    edges = edge_list(mesh_2cell)
    assert edges.measures[0] == 1.0
    assert edges.distances[0] == 1.0
    assert edges.tau[0] == 1.0
    assert {edges.cell_a[0], edges.cell_b[0]} == {0, 1}


def test_test1_grid_total_measure():
    # 35 x 350 = 12250 control volumes on (-7/2, 7/2) x (-35, 35)
    mesh = build_uniform_rect_mesh((-3.5, 3.5), (-35.0, 35.0), 35, 350)
    assert mesh.n_cells == 12250
    assert mesh.cell_measures.sum() == pytest.approx(490.0, rel=1e-12)


@pytest.mark.parametrize("nx,ny", [(2, 2), (3, 5), (48, 48), (2, 1)])
def test_regularity_uniform_grids_exactly_half(nx, ny):
    # Regularity: min over interior edges sigma = K|L, and over both of its
    # cells, of d(x_K, sigma) / d(x_K, x_L). Centroid centers give 1/2.
    x0, y0 = 0.0, -1.0
    mesh = build_uniform_rect_mesh((x0, 7.0), (y0, 3.0), nx, ny)
    edges = edge_list(mesh)
    a, b = edges.cell_a, edges.cell_b
    centers = cell_centers_reference(mesh)
    ca, cb = centers[a], centers[b]
    x_normal = ca[:, 1] == cb[:, 1]
    assert np.all(x_normal | (ca[:, 0] == cb[:, 0]))
    face = np.where(x_normal, x0 + (a % nx + 1) * mesh.dx, y0 + (a // nx + 1) * mesh.dy)
    axis = np.where(x_normal, 0, 1)
    rows = np.arange(a.size)
    center_dist = np.linalg.norm(cb - ca, axis=1)
    ratios = np.concatenate(
        [face - ca[rows, axis], cb[rows, axis] - face]
    ) / np.tile(center_dist, 2)
    np.testing.assert_allclose(center_dist, edges.distances, rtol=1e-14)
    assert ratios.min() == pytest.approx(0.5, rel=1e-12)
    assert ratios.max() == pytest.approx(0.5, rel=1e-12)


def test_tau_matches_measure_over_distance():
    mesh = build_uniform_rect_mesh((0.0, 3.0), (0.0, 2.0), 3, 4)
    assert mesh.n_interior_edges > 0
    edges = edge_list(mesh)
    for e in range(mesh.n_interior_edges):
        assert edges.tau[e] == edges.measures[e] / edges.distances[e]
    # the mesh's two scalars are the per-edge tau of each edge direction:
    # the x-normal edges come first, then the y-normal ones
    n_x = (mesh.nx - 1) * mesh.ny
    tau_x, tau_y = edges.tau[:n_x], edges.tau[n_x:]
    assert tau_x.size and np.all(tau_x == mesh.tau_x) and mesh.tau_x == mesh.dy / mesh.dx
    assert tau_y.size and np.all(tau_y == mesh.tau_y) and mesh.tau_y == mesh.dx / mesh.dy
    assert mesh.tau_x != mesh.tau_y


def test_cell_measure_sum_matches_area():
    mesh = build_uniform_rect_mesh((-8.0, 8.0), (-8.0, 8.0), 100, 100)
    area = 16.0 * 16.0
    assert abs(mesh.cell_measures.sum() - area) <= 1e-12 * area


def test_edge_incidence_and_counts():
    nx, ny = 5, 3
    mesh = build_uniform_rect_mesh((0.0, 5.0), (0.0, 3.0), nx, ny)
    a, b = edge_list(mesh)[:2]
    assert mesh.n_interior_edges == a.size == b.size == (nx - 1) * ny + nx * (ny - 1)
    assert np.all(a != b)
    # a cell's four edges are its interior edges plus its sides on the
    # domain boundary (zero-flux edges, not stored)
    degree = np.bincount(np.concatenate([a, b]), minlength=mesh.n_cells)
    ix, iy = np.arange(mesh.n_cells) % nx, np.arange(mesh.n_cells) // nx
    boundary_sides = (
        (ix == 0).astype(int) + (ix == nx - 1) + (iy == 0) + (iy == ny - 1)
    )
    np.testing.assert_array_equal(degree + boundary_sides, np.full(mesh.n_cells, 4))
    assert boundary_sides.sum() == 2 * (nx + ny)
    interior_cell = 1 * nx + 2
    assert degree[interior_cell] == 4
    # the layout stores the diagonal and both sides of every edge, each once
    ones = np.ones(mesh.n_interior_edges)
    operator = five_point(mesh, np.ones(mesh.n_cells), ones, ones)
    assert np.count_nonzero(operator.data) == mesh.n_cells + 2 * mesh.n_interior_edges


def test_adjacency_neighbors_symmetric():
    mesh = build_uniform_rect_mesh((0.0, 4.0), (0.0, 4.0), 4, 4)
    offsets = mesh.adjacency_csr()
    np.testing.assert_array_equal(offsets, -offsets[::-1])
    ones = np.ones(mesh.n_interior_edges)
    dense = five_point(mesh, np.zeros(mesh.n_cells), ones, ones).to_dense()
    np.testing.assert_array_equal(dense, dense.T)


@pytest.mark.parametrize("nx,ny", LAYOUT_SHAPES)
def test_dia_layout_matches_loop_reference(nx, ny):
    mesh = build_uniform_rect_mesh((0.0, 1.0), (-2.0, 2.0), nx, ny)
    offsets, slots = dia_layout_loops(mesh)
    layout = mesh.adjacency_csr()
    assert layout.dtype == offsets.dtype
    np.testing.assert_array_equal(layout, offsets)
    with pytest.raises(ValueError, match="read-only"):
        layout[0] = 0
    # a distinct value per entry shows where each one lands
    n, n_edges = mesh.n_cells, mesh.n_interior_edges
    diag = 1.0 + np.arange(n)
    upper, lower = -1.0 - np.arange(n_edges), -1.0 - n_edges - np.arange(n_edges)
    operator = five_point(mesh, diag, upper, lower)
    want = np.zeros((offsets.size, n))
    for k in range(n):
        want[slots[(k, k)]] = diag[k]
    edges = edge_list(mesh)
    for e, (a, b) in enumerate(zip(edges.cell_a.tolist(), edges.cell_b.tolist())):
        want[slots[(a, b)]] = upper[e]
        want[slots[(b, a)]] = lower[e]
    # every other entry, those outside the matrix included, is a zero
    np.testing.assert_array_equal(operator.data, want)


@pytest.mark.parametrize(
    "x_range,y_range",
    [
        ((1.0, 1.0), (0.0, 1.0)),
        ((2.0, 1.0), (0.0, 1.0)),
        ((0.0, 1.0), (5.0, -5.0)),
        ((0.0, 5e-324), (0.0, 1.0)),  # half the range rounds to a cell width of 0
    ],
)
def test_invalid_ranges_rejected(x_range, y_range):
    with pytest.raises(MeshError):
        build_uniform_rect_mesh(x_range, y_range, 2, 2)


@pytest.mark.parametrize(
    "x_range,y_range,nx,ny",
    [((1.0, 1.0 + 1e-15), (0.0, 1.0), 100, 1), ((0.0, 1.0), (1e6, 1e6 + 1e-9), 1, 1000)],
)
def test_coincident_cell_centers_rejected(x_range, y_range, nx, ny):
    # cells narrower than the float spacing of their coordinates
    with pytest.raises(MeshError, match="not pairwise distinct"):
        build_uniform_rect_mesh(x_range, y_range, nx, ny)


@pytest.mark.parametrize(
    "x_range,y_range",
    [((0.0, np.inf), (0.0, 1.0)), ((-np.inf, 0.0), (0.0, 1.0)), ((0.0, 1.0), (np.nan, 1.0)),
     ((0.0, 1.0), (0.0, np.nan))],
)
def test_non_finite_ranges_rejected(x_range, y_range):
    # an infinite range used to make inf and nan cell widths, and a NaN one
    # to read as empty
    with pytest.raises(MeshError, match="x_range and y_range must be finite"):
        build_uniform_rect_mesh(x_range, y_range, 2, 2)


def test_invalid_counts_rejected():
    with pytest.raises(MeshError):
        build_uniform_rect_mesh((0.0, 1.0), (0.0, 1.0), 0, 3)


@pytest.mark.parametrize("count", [2.5, "4", True])
def test_non_integer_counts_rejected(count):
    # 2.5 used to fail on the cell measures' sum, "4" with a bare
    # TypeError, and True to build a one-column mesh
    with pytest.raises(MeshError, match=re.escape(f"integers, got nx={count!r}, ny=3")):
        build_uniform_rect_mesh((0.0, 1.0), (0.0, 1.0), count, 3)
    with pytest.raises(MeshError, match=re.escape(f"integers, got nx=3, ny={count!r}")):
        build_uniform_rect_mesh((0.0, 1.0), (0.0, 1.0), 3, count)


def test_numpy_integer_counts_accepted():
    mesh = build_uniform_rect_mesh((0.0, 1.0), (0.0, 1.0), np.int64(3), np.int32(2))
    assert (mesh.nx, mesh.ny, mesh.n_cells) == (3, 2, 6)


def test_row_major_indexing_x_fastest():
    mesh = build_uniform_rect_mesh((0.0, 3.0), (0.0, 2.0), 3, 2)

    def center(k):  # cell k = iy*nx + ix
        return [mesh.x_centers[k % mesh.nx], mesh.y_centers[k // mesh.nx]]

    np.testing.assert_allclose(center(0), [0.5, 0.5])
    np.testing.assert_allclose(center(1), [1.5, 0.5])
    np.testing.assert_allclose(center(3), [0.5, 1.5])


def test_no_per_cell_array_but_the_measures():
    # the centers are two coordinate vectors, not an (n_cells, 2) array
    mesh = build_uniform_rect_mesh((0.0, 3.0), (0.0, 3.0), 150, 150)
    assert mesh.x_centers.shape == (150,) and mesh.y_centers.shape == (150,)
    arrays = [v for v in vars(mesh).values() if isinstance(v, np.ndarray)]
    assert sum(a.nbytes for a in arrays) <= (mesh.n_cells + mesh.nx + mesh.ny + 5) * 8


@pytest.mark.parametrize("name", ["x_centers", "y_centers", "cell_measures"])
def test_mesh_arrays_read_only(name):
    # a write would leave stale the operators built from the mesh, such as
    # the chem operator a StepPlan builds once per run
    mesh = build_uniform_rect_mesh((0.0, 3.0), (0.0, 3.0), 3, 3)
    with pytest.raises(ValueError, match="read-only"):
        getattr(mesh, name)[0] = 7
