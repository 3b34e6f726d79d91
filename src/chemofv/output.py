"""CSV and legacy-VTK writers for snapshots, diagnostics and study tables.

Floats are written with repr so that files round-trip losslessly; the VTK
files use the legacy ASCII structured-points layout with one scalar field
per file, laying cell values on the lattice of cell centers.

The snapshot CSV and VTK files are streamed one mesh row per write, so a
write holds one row's text, never the whole file. Their bytes are those
that ``csv.writer`` (``\\r\\n`` line ends, nothing quoted) and one
``repr`` per value wrote: each value is formatted once, from
``ndarray.tolist()``. Both writers reject a field that does not have
``mesh.n_cells`` values.
"""

from __future__ import annotations

import csv

import numpy as np

from .mesh import Mesh
from .sim import Diagnostics, StudyReport

DIAGNOSTIC_COLUMNS = (
    "step",
    "time",
    "mass",
    "min_u",
    "max_u",
    "min_c",
    "max_c",
    "l2_u",
    "h1_u",
)


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


def write_snapshot_csv(path, mesh: Mesh, u, c) -> None:
    """One ``cell_index,cx,cy,u,c`` row per cell. The centre grid is a tensor
    product, so the ``cx`` and ``cy`` text comes from ``nx + ny`` reprs."""
    u_rows = _field_rows(mesh, u, "u")
    c_rows = _field_rows(mesh, c, "c")
    cx_text = [f",{x!r}," for x in mesh.cell_centers[: mesh.nx, 0].tolist()]
    cy_text = [f"{y!r}," for y in mesh.cell_centers[:: mesh.nx, 1].tolist()]
    with open(path, "w", newline="") as fh:
        fh.write("cell_index,cx,cy,u,c\r\n")
        starts = range(0, mesh.n_cells, mesh.nx)
        for k0, cy, u_row, c_row in zip(starts, cy_text, u_rows, c_rows):
            cells = zip(range(k0, k0 + mesh.nx), cx_text, u_row.tolist(), c_row.tolist())
            fh.write("".join([f"{k}{cx}{cy}{a!r},{b!r}\r\n" for k, cx, a, b in cells]))


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
    rows = _field_rows(mesh, values, name)
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
        for row in rows:  # row-major, x fastest, matches cell indexing
            fh.write("".join([f"{v!r}\n" for v in row.tolist()]))


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
