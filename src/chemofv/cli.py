"""Command-line front end: single runs, convergence studies, oracle checks
and contour extraction.

Exit codes: 0 success, 1 runtime failure, 2 usage/config error, 3 oracle
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import output as outmod
from . import scheme as schememod
from . import sim as simmod
from .config import ConfigError
from .linalg import SolverError
from .model import make_initial_state
from .scheme import SchemeError, step, step_coupled_oracle
from .sim import InvariantError, discrete_norm

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_ORACLE = 3


def _build_doc(args) -> dict:
    doc = cfgmod.load_config_file(args.config) if args.config else {}
    if getattr(args, "preset", None):
        doc["preset"] = args.preset
    doc = cfgmod.apply_overrides(doc, getattr(args, "set", None))
    if getattr(args, "output_dir", None):
        doc.setdefault("output", {})
        doc["output"]["directory"] = args.output_dir
    if not doc:
        raise ConfigError("no configuration given: pass a config file or --preset")
    return doc


def cmd_run(args) -> int:
    resolved = cfgmod.resolve(_build_doc(args))
    mesh = resolved.run.mesh
    out_dir = Path(resolved.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)  # an unusable directory fails before step 1
    final, diagnostics, snapshots = simmod.run(resolved.run)

    cfgmod.write_manifest(out_dir / "manifest.yaml", resolved)
    outmod.write_diagnostics_csv(out_dir / "diagnostics.csv", diagnostics)
    vtk = resolved.output_format == "csv+vtk"
    for snap in snapshots:
        stem = out_dir / f"snapshot_{snap.step:08d}"
        outmod.write_snapshot(stem, mesh, snap.u, snap.c, vtk)
    log.info(
        "run finished at t=%g (%d steps); outputs in %s",
        final.step_index * resolved.run.dt,
        final.step_index,
        out_dir,
    )
    return EXIT_OK


def cmd_study(args) -> int:
    if len(args.dt) < 2:
        raise ConfigError("a study needs at least two dt values")
    resolved = cfgmod.resolve(_build_doc(args))
    base = resolved.run
    if args.reference_dt is not None:
        base = dataclasses.replace(base, dt=args.reference_dt)
    variants = [dataclasses.replace(base.variant, kind=name) for name in args.variants]
    dt_list = sorted(args.dt, reverse=True)
    out_dir = Path(resolved.output_dir)
    try:
        simmod.study_step_sizes(base.dt, dt_list)  # a dt error leaves no directory
        out_dir.mkdir(parents=True, exist_ok=True)  # an unusable one fails before any run
        report = simmod.convergence_study(base, dt_list, variants)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    outmod.write_study_csv(out_dir / "study.csv", report)
    table = outmod.format_study_table(report)
    (out_dir / "study.txt").write_text(table)
    print(table, end="")
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    run = cfgmod.resolve(_build_doc(args)).run
    mesh = run.mesh
    if mesh.n_cells > schememod.ORACLE_CELL_LIMIT:
        print(
            f"refusing oracle check: {mesh.n_cells} cells exceed the "
            f"limit of {schememod.ORACLE_CELL_LIMIT}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    corrected, plain = (
        simmod.plan_for(
            dataclasses.replace(run, variant=dataclasses.replace(run.variant, kind=kind))
        )
        for kind in (schememod.VARIANT_CORRECTED, schememod.VARIANT_PLAIN)
    )

    # The correction term is identically zero at step 0 (corrected == plain
    # there), so compare one step later.
    state = step(make_initial_state(mesh, run.ic), corrected)

    try:
        oracle = step_coupled_oracle(state, plain)
    except SchemeError as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    step_corr = step(state, corrected)
    step_plain = step(state, plain)

    d_corr = discrete_norm(step_corr.u - oracle.u, mesh)
    d_plain = discrete_norm(step_plain.u - oracle.u, mesh)
    print(f"distance(corrected, oracle) = {d_corr:.6e}")
    print(f"distance(plain, oracle)     = {d_plain:.6e}")
    # roundoff allowance so exact ties (uniform data) compare as equal
    tie_tol = 1e-14 * max(discrete_norm(oracle.u, mesh), 1.0)
    if d_corr <= d_plain + tie_tol:
        print("ok: corrected step is at least as close to the coupled solution")
        return EXIT_OK
    print("FAIL: corrected step is farther from the coupled solution", file=sys.stderr)
    return EXIT_RUNTIME


def cmd_contour(args) -> int:
    data = outmod.read_snapshot_csv(args.snapshot)
    xs = np.unique(data["cx"])
    dx = float(np.min(np.diff(xs))) if xs.size > 1 else 0.0
    if not xs[0] - 0.5 * dx <= args.x0 <= xs[-1] + 0.5 * dx:
        print(
            f"x0={args.x0} lies outside the snapshot domain "
            f"[{xs[0] - 0.5 * dx}, {xs[-1] + 0.5 * dx}]",
            file=sys.stderr,
        )
        return EXIT_USAGE
    x_col, ys, values = simmod.column_profile(data["cx"], data["cy"], data["u"], args.x0)
    outmod.write_contour_csv(args.output, ys, values)
    log.info("wrote %d contour points at x=%g to %s", ys.size, x_col, args.output)
    return EXIT_OK


def _add_config_options(p: argparse.ArgumentParser):
    p.add_argument("config", nargs="?", help="YAML config file")
    p.add_argument("--preset", help="experiment preset (test1..test4)")
    p.add_argument(
        "--set",
        action="append",
        metavar="SECTION.KEY=VALUE",
        help="override a config value (repeatable)",
    )
    p.add_argument("--output-dir", help="output directory (beats output.directory)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chemofv",
        description="Finite volume chemotaxis solver with corrected decoupled stepping",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation")
    _add_config_options(p_run)
    p_run.set_defaults(func=cmd_run)

    p_study = sub.add_parser("study", help="temporal convergence study")
    _add_config_options(p_study)
    p_study.add_argument(
        "--dt", type=float, nargs="+", required=True, help="study step sizes"
    )
    p_study.add_argument(
        "--variants",
        nargs="+",
        default=[schememod.VARIANT_CORRECTED, schememod.VARIANT_PLAIN],
        choices=list(schememod.VARIANT_KINDS[:3]),
        help="scheme variants to tabulate",
    )
    p_study.add_argument(
        "--reference-dt",
        type=float,
        default=None,
        help="reference step size (defaults to time.dt)",
    )
    p_study.set_defaults(func=cmd_study)

    p_oracle = sub.add_parser(
        "oracle-check", help="compare one corrected/plain step to the coupled scheme"
    )
    _add_config_options(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle_check)

    p_contour = sub.add_parser(
        "contour", help="extract a (y, u) profile from a snapshot CSV"
    )
    p_contour.add_argument("snapshot", help="snapshot CSV produced by `run`")
    p_contour.add_argument("--x0", type=float, required=True, help="line position x=x0")
    p_contour.add_argument("--output", default="contour.csv", help="output CSV path")
    p_contour.set_defaults(func=cmd_contour)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ConfigError, FileNotFoundError too
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SchemeError, SolverError, InvariantError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
