import csv

import numpy as np
import pytest

from chemofv import (
    MeshError,
    build_uniform_rect_mesh,
    compute_regularity,
    locate_cell,
)
from chemofv.mesh import dump_cells_csv

from oracles import adjacency_pattern_loops


def test_single_cell_mesh():
    mesh = build_uniform_rect_mesh((0.0, 1.0), (0.0, 1.0), 1, 1)
    assert mesh.n_cells == 1
    assert mesh.cell_measures[0] == 1.0
    assert mesh.n_interior_edges == 0
    assert mesh.n_edges == 4
    assert all(e.is_boundary for e in mesh.edges)


def test_two_cell_interior_edge_geometry(mesh_2cell):
    interior = [e for e in mesh_2cell.edges if not e.is_boundary]
    assert len(interior) == 1
    edge = interior[0]
    assert edge.measure == 1.0
    assert edge.distance == 1.0
    assert edge.tau == 1.0
    assert {edge.cell_a, edge.cell_b} == {0, 1}


def test_test1_grid_total_measure():
    # 35 x 350 = 12250 control volumes on (-7/2, 7/2) x (-35, 35)
    mesh = build_uniform_rect_mesh((-3.5, 3.5), (-35.0, 35.0), 35, 350)
    assert mesh.n_cells == 12250
    assert mesh.cell_measures.sum() == pytest.approx(490.0, rel=1e-12)


@pytest.mark.parametrize("nx,ny", [(2, 2), (3, 5), (48, 48), (2, 1)])
def test_regularity_uniform_grids_exactly_half(nx, ny):
    mesh = build_uniform_rect_mesh((0.0, 7.0), (-1.0, 3.0), nx, ny)
    assert compute_regularity(mesh) == 0.5
    assert mesh.regularity == 0.5


def test_regularity_single_cell_convention():
    mesh = build_uniform_rect_mesh((0.0, 1.0), (0.0, 1.0), 1, 1)
    assert compute_regularity(mesh) == 1.0


def test_tau_matches_measure_over_distance():
    mesh = build_uniform_rect_mesh((0.0, 3.0), (0.0, 2.0), 3, 4)
    for edge in mesh.edges:
        assert edge.tau == edge.measure / edge.distance


def test_cell_measure_sum_matches_area():
    mesh = build_uniform_rect_mesh((-8.0, 8.0), (-8.0, 8.0), 100, 100)
    area = 16.0 * 16.0
    assert abs(mesh.cell_measures.sum() - area) <= 1e-12 * area


def test_edge_incidence_and_counts():
    nx, ny = 5, 3
    mesh = build_uniform_rect_mesh((0.0, 5.0), (0.0, 3.0), nx, ny)
    interior = mesh.edge_cell_b >= 0
    # (edge, cell) incidences: every edge has cell_a, interior edges cell_b too
    edge_ids = np.concatenate([np.arange(mesh.n_edges), np.flatnonzero(interior)])
    cell_ids = np.concatenate([mesh.edge_cell_a, mesh.edge_cell_b[interior]])
    seen = np.bincount(edge_ids, minlength=mesh.n_edges)
    for edge in mesh.edges:
        assert seen[edge.index] == (1 if edge.is_boundary else 2)
        assert edge.cell_a != edge.cell_b
    n_boundary = sum(1 for e in mesh.edges if e.is_boundary)
    assert n_boundary == 2 * (nx + ny)
    # interior cell of a rectangular grid touches 4 edges
    interior_cell = 1 * nx + 2
    assert np.bincount(cell_ids, minlength=mesh.n_cells)[interior_cell] == 4
    # every stored entry is the diagonal or one side of exactly one edge
    pattern = mesh.adjacency_csr()
    owners = np.concatenate([pattern.diag_slots, pattern.kl_slots, pattern.lk_slots])
    assert np.array_equal(np.bincount(owners, minlength=pattern.nnz), np.ones(pattern.nnz))


def test_adjacency_neighbors_symmetric():
    mesh = build_uniform_rect_mesh((0.0, 4.0), (0.0, 4.0), 4, 4)
    pattern = mesh.adjacency_csr()
    neighbors = [
        set(pattern.indices[pattern.indptr[k] : pattern.indptr[k + 1]].tolist()) - {k}
        for k in range(mesh.n_cells)
    ]
    for k, nbs in enumerate(neighbors):
        for nb in nbs:
            assert k in neighbors[nb]


@pytest.mark.parametrize(
    "nx,ny", [(1, 1), (2, 1), (1, 5), (3, 5), (48, 48), (35, 350), (150, 150)]
)
def test_adjacency_pattern_matches_loop_reference(nx, ny):
    mesh = build_uniform_rect_mesh((0.0, 1.0), (-2.0, 2.0), nx, ny)
    pattern = mesh.adjacency_csr()
    names = ("indptr", "indices", "diag_slots", "kl_slots", "lk_slots")
    for name, expected in zip(names, adjacency_pattern_loops(mesh)):
        actual = getattr(pattern, name)
        assert actual.dtype == expected.dtype, name
        np.testing.assert_array_equal(actual, expected, err_msg=name)


@pytest.mark.parametrize(
    "x_range,y_range",
    [((1.0, 1.0), (0.0, 1.0)), ((2.0, 1.0), (0.0, 1.0)), ((0.0, 1.0), (5.0, -5.0))],
)
def test_invalid_ranges_rejected(x_range, y_range):
    with pytest.raises(MeshError):
        build_uniform_rect_mesh(x_range, y_range, 2, 2)


def test_invalid_counts_rejected():
    with pytest.raises(MeshError):
        build_uniform_rect_mesh((0.0, 1.0), (0.0, 1.0), 0, 3)


class TestLocateCell:
    def test_cell_center_maps_to_itself(self, mesh_small):
        for k in (0, 5, 15):
            assert locate_cell(mesh_small, mesh_small.cell_centers[k]) == k

    def test_domain_corner(self, mesh_small):
        assert locate_cell(mesh_small, (0.0, 0.0)) == 0
        assert locate_cell(mesh_small, (1.0, 1.0)) == mesh_small.n_cells - 1

    def test_interior_face_resolves_to_smaller_index(self):
        mesh = build_uniform_rect_mesh((0.0, 5.0), (0.0, 1.0), 5, 1)
        # face between cells 3 and 4 sits at x = 4.0 exactly
        assert locate_cell(mesh, (4.0, 0.5)) == 3

    def test_outside_domain_raises(self, mesh_small):
        with pytest.raises(MeshError):
            locate_cell(mesh_small, (1.5, 0.5))


def test_row_major_indexing_x_fastest():
    mesh = build_uniform_rect_mesh((0.0, 3.0), (0.0, 2.0), 3, 2)
    np.testing.assert_allclose(mesh.cell_centers[0], [0.5, 0.5])
    np.testing.assert_allclose(mesh.cell_centers[1], [1.5, 0.5])
    np.testing.assert_allclose(mesh.cell_centers[3], [0.5, 1.5])


def test_h_is_cell_diagonal():
    mesh = build_uniform_rect_mesh((0.0, 3.0), (0.0, 8.0), 3, 4)
    assert mesh.h == pytest.approx(np.hypot(1.0, 2.0))


def test_dump_cells_csv(tmp_path):
    mesh = build_uniform_rect_mesh((0.0, 2.0), (0.0, 1.0), 2, 1)
    path = tmp_path / "mesh.csv"
    dump_cells_csv(mesh, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["cell_index", "cx", "cy", "measure"]
    assert len(rows) == 1 + mesh.n_cells
    assert float(rows[1][3]) == 1.0
