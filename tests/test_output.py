import tracemalloc

import numpy as np
import pytest

from chemofv import build_uniform_rect_mesh
from chemofv.cli import main
from chemofv.output import (
    read_snapshot_csv,
    write_diagnostics_csv,
    write_snapshot_csv,
    write_vtk_structured_points,
)
from chemofv.sim import Diagnostics, DiagnosticsRecord

from oracles import cell_centers_reference, write_snapshot_csv_per_row, write_vtk_per_value

SHAPES = [(1, 1), (1, 7), (7, 1), (6, 5), (100, 100)]
SPECIALS = np.array(
    [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2, 1e300]
)


def make_mesh(nx, ny):
    return build_uniform_rect_mesh((-1.0, 2.3), (0.1, 0.7), nx, ny)


def fields(n, shift, seed=0):
    """u and c of n values that cycle through the special values, offset by
    ``shift`` so that a one-cell mesh sees each of them in turn."""
    rng = np.random.default_rng(seed)
    pool = np.concatenate([SPECIALS, rng.standard_normal(8) * 10.0 ** rng.integers(-8, 9, 8)])
    u = np.resize(np.roll(pool, -shift), n)
    c = np.resize(np.roll(pool[::-1], shift), n)
    return u, c


def write_both(tmp_path, writer, oracle, *args):
    new, old = tmp_path / "new", tmp_path / "old"
    writer(new, *args)
    oracle(old, *args)
    return new.read_bytes(), old.read_bytes()


@pytest.mark.parametrize("nx, ny", SHAPES)
class TestBytesMatchPerRowWriters:
    def test_snapshot_csv(self, tmp_path, nx, ny):
        mesh = make_mesh(nx, ny)
        for shift in range(SPECIALS.size):
            u, c = fields(mesh.n_cells, shift)
            new, old = write_both(
                tmp_path, write_snapshot_csv, write_snapshot_csv_per_row, mesh, u, c
            )
            assert new == old
        assert new.count(b"\r\n") == 1 + mesh.n_cells

    def test_vtk(self, tmp_path, nx, ny):
        mesh = make_mesh(nx, ny)
        for shift in range(SPECIALS.size):
            u, _ = fields(mesh.n_cells, shift)
            new, old = write_both(
                tmp_path, write_vtk_structured_points, write_vtk_per_value, mesh, u, "u"
            )
            assert new == old
        assert new.count(b"\n") == 10 + mesh.n_cells

    def test_lists_and_other_dtypes(self, tmp_path, nx, ny):
        mesh = make_mesh(nx, ny)
        u = list(fields(mesh.n_cells, 0)[0])
        c = np.arange(mesh.n_cells, dtype=np.float32) / 3
        new, old = write_both(
            tmp_path, write_snapshot_csv, write_snapshot_csv_per_row, mesh, u, c
        )
        assert new == old
        ints = np.arange(mesh.n_cells) - 3
        new, old = write_both(
            tmp_path, write_vtk_structured_points, write_vtk_per_value, mesh, ints, "c"
        )
        assert new == old


class TestFieldSize:
    @pytest.mark.parametrize("size", [29, 31, 0])
    def test_snapshot_csv_rejects_wrong_size(self, tmp_path, size):
        mesh = make_mesh(6, 5)
        good = np.ones(mesh.n_cells)
        for u, c, name in [(np.ones(size), good, "u"), (good, np.ones(size), "c")]:
            with pytest.raises(ValueError, match=rf"{name} has {size} values.*n_cells is 30"):
                write_snapshot_csv(tmp_path / "s.csv", mesh, u, c)
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("size", [29, 31, 0])
    def test_vtk_rejects_wrong_size(self, tmp_path, size):
        mesh = make_mesh(6, 5)
        with pytest.raises(ValueError, match=rf"rho has {size} values.*n_cells is 30"):
            write_vtk_structured_points(tmp_path / "s.vtk", mesh, np.ones(size), "rho")
        assert not (tmp_path / "s.vtk").exists()


class TestReadSnapshot:
    @pytest.mark.parametrize("nx, ny", [(1, 1), (6, 5), (100, 100)])
    def test_round_trip_bit_for_bit(self, tmp_path, nx, ny):
        mesh = make_mesh(nx, ny)
        u, c = fields(mesh.n_cells, 0, seed=3)
        write_snapshot_csv(tmp_path / "s.csv", mesh, u, c)
        data = read_snapshot_csv(tmp_path / "s.csv")
        for key, want in [
            ("u", u),
            ("c", c),
            ("cx", cell_centers_reference(mesh)[:, 0]),
            ("cy", cell_centers_reference(mesh)[:, 1]),
        ]:
            assert data[key].dtype == np.float64
            assert data[key].tobytes() == np.ascontiguousarray(want).tobytes(), key
        np.testing.assert_array_equal(data["cell_index"], np.arange(mesh.n_cells))
        assert data["cell_index"].dtype.kind == "i"

    def short_row_file(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("cell_index,cx,cy,u,c\n0,0.5,0.5,1.0,2.0\n1,1.5,0.5,1.0\n")
        return path

    def test_short_row_names_file_and_line(self, tmp_path):
        path = self.short_row_file(tmp_path)
        with pytest.raises(ValueError, match=r"short\.csv: line 3 has 4 fields, expected 5"):
            read_snapshot_csv(path)

    def test_bad_value_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("cell_index,cx,cy,u,c\n0,0.5,0.5,1.0,2.0\n\n1,1.5,0.5,oops,2.0\n")
        with pytest.raises(ValueError, match=r"bad\.csv: line 4: .*'oops'"):
            read_snapshot_csv(path)

    def test_contour_on_short_row_exits_2_naming_the_line(self, tmp_path, capsys):
        path = self.short_row_file(tmp_path)
        assert main(["contour", str(path), "--x0", "0.5"]) == 2
        err = capsys.readouterr().err
        assert f"{path}: line 3 has 4 fields" in err
        assert "inhomogeneous" not in err


class TestStreamingMemory:
    """Each writer holds one mesh row's text at a time, so writing a
    300x300 snapshot peaks far below its file's size (over 4 MiB for the
    CSV, over 1 MiB for the VTK file)."""

    LIMIT = 1 << 20

    @pytest.fixture(scope="class")
    def big(self):
        mesh = make_mesh(300, 300)
        return mesh, *fields(mesh.n_cells, 0)

    def peak_bytes(self, write):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            write()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_snapshot_csv_peak(self, tmp_path, big):
        mesh, u, c = big
        path = tmp_path / "s.csv"
        peak = self.peak_bytes(lambda: write_snapshot_csv(path, mesh, u, c))
        assert peak < self.LIMIT
        assert path.stat().st_size > 4 * self.LIMIT

    def test_vtk_peak(self, tmp_path, big):
        mesh, u, _ = big
        path = tmp_path / "s.vtk"
        peak = self.peak_bytes(lambda: write_vtk_structured_points(path, mesh, u, "u"))
        assert peak < self.LIMIT
        assert path.stat().st_size > self.LIMIT


def test_diagnostics_header_is_the_published_columns(tmp_path):
    diagnostics = Diagnostics()
    diagnostics.append(DiagnosticsRecord(0, 0.0, 1.5, 1.0, 2.0, 0.0, 0.5, 1.25, 0.75))
    write_diagnostics_csv(tmp_path / "d.csv", diagnostics)
    assert (tmp_path / "d.csv").read_bytes() == (
        b"step,time,mass,min_u,max_u,min_c,max_c,l2_u,h1_u\r\n"
        b"0,0.0,1.5,1.0,2.0,0.0,0.5,1.25,0.75\r\n"
    )
