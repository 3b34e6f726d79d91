"""CSV and legacy-VTK writers for snapshots, diagnostics and study tables.

Floats are written with repr so that files round-trip losslessly; the VTK
files use the legacy ASCII structured-points layout with one scalar field
per file, laying cell values on the lattice of cell centers.

``write_snapshot`` writes a snapshot's CSV and, for ``csv+vtk``, both
VTK files in one pass, streamed one mesh row at a time: each row of u and
c is formatted once, from ``ndarray.tolist()``, and that text goes into
the CSV row and the field's VTK row, so a write holds one row's text,
never a whole file. ``write_snapshot_csv`` and
``write_vtk_structured_points`` write one file each through the same row
loop. The bytes are those that ``csv.writer`` (``\\r\\n`` line ends,
nothing quoted) and one ``repr`` per value wrote. Every writer rejects a
field that does not have ``mesh.n_cells`` values before it opens a file.
"""

from __future__ import annotations

import csv
from contextlib import ExitStack
from dataclasses import fields

import numpy as np

from .mesh import Mesh
from .sim import Diagnostics, DiagnosticsRecord, StudyReport

DIAGNOSTIC_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord))


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # plain-float repr even for numpy scalars
    return str(value)


def _field_rows(mesh: Mesh, values, name: str) -> np.ndarray:
    """``values`` as an (ny, nx) float grid; a field must have one value per cell."""
    arr = np.asarray(values, dtype=float)
    if arr.size != mesh.n_cells:
        raise ValueError(
            f"field {name} has {arr.size} values, but mesh.n_cells is {mesh.n_cells}"
        )
    return arr.reshape(mesh.ny, mesh.nx)


def _vtk_header(mesh: Mesh, name: str) -> str:
    cx0, cy0 = mesh.x_centers[0].item(), mesh.y_centers[0].item()
    return (
        "# vtk DataFile Version 3.0\n"
        f"chemofv field {name}\n"
        "ASCII\n"
        "DATASET STRUCTURED_POINTS\n"
        f"DIMENSIONS {mesh.nx} {mesh.ny} 1\n"
        f"ORIGIN {cx0!r} {cy0!r} 0.0\n"
        f"SPACING {mesh.dx!r} {mesh.dy!r} 1.0\n"
        f"POINT_DATA {mesh.n_cells}\n"
        f"SCALARS {name} double 1\n"
        "LOOKUP_TABLE default\n"
    )


def _write_snapshot_files(mesh: Mesh, values: dict, csv_path, vtk_paths: dict) -> None:
    """The one snapshot row loop: ``values`` maps field names to values, the
    CSV at ``csv_path`` (None for none) holds ``u`` and ``c``, and
    ``vtk_paths`` maps a field name to its VTK file. Every field is checked
    before any file is opened, and each row of a field is formatted once."""
    grids = {name: _field_rows(mesh, field, name) for name, field in values.items()}
    with ExitStack() as stack:
        csv_fh = None
        if csv_path is not None:
            csv_fh = stack.enter_context(open(csv_path, "w", newline=""))
            csv_fh.write("cell_index,cx,cy,u,c\r\n")
        vtk_fhs = {}
        for name, path in vtk_paths.items():
            vtk_fhs[name] = stack.enter_context(open(path, "w"))
            vtk_fhs[name].write(_vtk_header(mesh, name))
        # the centre grid is a tensor product: its text is nx + ny reprs
        cx_text = [f",{x!r}," for x in mesh.x_centers.tolist()]
        cy_text = [f"{y!r}," for y in mesh.y_centers.tolist()]
        for j, cy in enumerate(cy_text):  # row-major, x fastest, matches cell indexing
            text = {name: list(map(repr, grid[j].tolist())) for name, grid in grids.items()}
            for name, fh in vtk_fhs.items():
                fh.write("\n".join(text[name]) + "\n")
            if csv_fh is not None:
                k0 = j * mesh.nx
                cells = zip(range(k0, k0 + mesh.nx), cx_text, text["u"], text["c"])
                csv_fh.write("".join([f"{k}{cx}{cy}{a},{b}\r\n" for k, cx, a, b in cells]))


def write_snapshot(stem, mesh: Mesh, u, c, vtk: bool) -> None:
    """``{stem}.csv`` and, if ``vtk``, ``{stem}_u.vtk`` and ``{stem}_c.vtk``,
    written in one pass that formats each value once."""
    vtk_paths = {name: f"{stem}_{name}.vtk" for name in ("u", "c")} if vtk else {}
    _write_snapshot_files(mesh, {"u": u, "c": c}, f"{stem}.csv", vtk_paths)


def write_snapshot_csv(path, mesh: Mesh, u, c) -> None:
    """One ``cell_index,cx,cy,u,c`` row per cell."""
    _write_snapshot_files(mesh, {"u": u, "c": c}, path, {})


def read_snapshot_csv(path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["cell_index", "cx", "cy", "u", "c"]:
            raise ValueError(f"{path}: not a snapshot file (header {header})")
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != 5:
                raise ValueError(
                    f"{path}: line {reader.line_num} has {len(row)} fields, expected 5"
                )
            try:
                rows.append([float(x) for x in row])
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: snapshot has no data rows")
    arr = np.asarray(rows)
    return {
        "cell_index": arr[:, 0].astype(int),
        "cx": arr[:, 1],
        "cy": arr[:, 2],
        "u": arr[:, 3],
        "c": arr[:, 4],
    }


def write_vtk_structured_points(path, mesh: Mesh, values, name: str) -> None:
    """Legacy ASCII structured-points file with a single scalar field."""
    _write_snapshot_files(mesh, {name: values}, None, {name: path})


def write_diagnostics_csv(path, diagnostics: Diagnostics) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DIAGNOSTIC_COLUMNS)
        for rec in diagnostics.records:
            writer.writerow([_fmt(getattr(rec, col)) for col in DIAGNOSTIC_COLUMNS])


def write_study_csv(path, report: StudyReport) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "dt", "l2_error", "rate"])
        for variant, row in report.rows():
            writer.writerow(
                [
                    variant,
                    _fmt(row.dt),
                    _fmt(row.error),
                    "" if row.rate is None else _fmt(row.rate),
                ]
            )


def format_study_table(report: StudyReport) -> str:
    """Aligned text table: one dt column, (error, rate) pair per variant."""
    variants = list(report.tables)
    headers = ["dt"]
    for v in variants:
        headers += [f"L2-error {v}", "rate"]
    dts = [row.dt for row in report.tables[variants[0]]]
    lines = [headers]
    for i, dt in enumerate(dts):
        line = [f"{dt:g}"]
        for v in variants:
            row = report.tables[v][i]
            line.append(f"{row.error:.3e}")
            line.append("---" if row.rate is None else f"{row.rate:.3f}")
        lines.append(line)
    widths = [max(len(line[j]) for line in lines) for j in range(len(headers))]
    rendered = [
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
        for line in lines
    ]
    rendered.insert(1, "-" * len(rendered[0]))
    rendered.insert(0, f"reference dt = {report.reference_dt:g}, field = u")
    return "\n".join(rendered) + "\n"


def write_contour_csv(path, ys, values) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "u"])
        for y, v in zip(ys, values):
            writer.writerow([_fmt(float(y)), _fmt(float(v))])
