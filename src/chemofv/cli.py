"""Command-line front end: single runs, convergence studies, oracle checks
and contour extraction.

Exit codes: 0 success, 1 runtime failure, 2 usage/config error, 3 oracle
failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import output as outmod
from . import scheme as schememod
from . import sim as simmod
from .config import ConfigError
from .linalg import LinearSolver, SolverError
from .model import make_initial_state
from .scheme import FluxLimiter, SchemeError, SchemeVariant, step, step_coupled_oracle
from .sim import InvariantError, RunConfig, discrete_norm

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
    run_cfg = RunConfig(
        mesh=resolved.mesh,
        model=resolved.model,
        ic=resolved.ic,
        variant=resolved.variant,
        dt=resolved.dt,
        t_final=resolved.t_final,
        epsilon=resolved.epsilon,
        snapshot_every=resolved.snapshot_every,
        diagnostics_every=resolved.diagnostics_every,
    )
    final, diagnostics, snapshots = simmod.run(run_cfg)

    out_dir = Path(resolved.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfgmod.write_manifest(out_dir / "manifest.yaml", resolved)
    outmod.write_diagnostics_csv(out_dir / "diagnostics.csv", diagnostics)
    for snap in snapshots:
        stem = f"snapshot_{snap.step:08d}"
        outmod.write_snapshot_csv(out_dir / f"{stem}.csv", resolved.mesh, snap.u, snap.c)
        if resolved.output_format == "csv+vtk":
            outmod.write_vtk_structured_points(
                out_dir / f"{stem}_u.vtk", resolved.mesh, snap.u, "u"
            )
            outmod.write_vtk_structured_points(
                out_dir / f"{stem}_c.vtk", resolved.mesh, snap.c, "c"
            )
    log.info(
        "run finished at t=%g (%d steps); outputs in %s",
        final.time,
        final.step_index,
        out_dir,
    )
    return EXIT_OK


def cmd_study(args) -> int:
    if len(args.dt) < 2:
        raise ConfigError("a study needs at least two dt values")
    resolved = cfgmod.resolve(_build_doc(args))
    reference_dt = args.reference_dt if args.reference_dt else resolved.dt
    base = RunConfig(
        mesh=resolved.mesh,
        model=resolved.model,
        ic=resolved.ic,
        variant=resolved.variant,
        dt=reference_dt,
        t_final=resolved.t_final,
        epsilon=resolved.epsilon,
        snapshot_every=0,
        diagnostics_every=0,
    )
    variants = [
        SchemeVariant(kind=name, beta_policy=resolved.variant.beta_policy)
        for name in args.variants
    ]
    try:
        report = simmod.convergence_study(base, sorted(args.dt, reverse=True), variants)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    out_dir = Path(resolved.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outmod.write_study_csv(out_dir / "study.csv", report)
    table = outmod.format_study_table(report)
    (out_dir / "study.txt").write_text(table)
    print(table, end="")
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    resolved = cfgmod.resolve(_build_doc(args))
    mesh = resolved.mesh
    if mesh.n_cells > args.cell_limit:
        print(
            f"refusing oracle check: {mesh.n_cells} cells exceed the "
            f"limit of {args.cell_limit}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    solver = LinearSolver()
    lim = FluxLimiter(
        resolved.model.cell_diffusion,
        resolved.model.chemo_sensitivity,
        resolved.epsilon,
    )
    corrected = SchemeVariant(
        kind=schememod.VARIANT_CORRECTED, beta_policy=resolved.variant.beta_policy
    )
    plain = SchemeVariant(kind=schememod.VARIANT_PLAIN)

    state = make_initial_state(mesh, resolved.ic, dt=resolved.dt)
    # The correction term is identically zero at step 0 (corrected == plain
    # there), so compare one step later unless asked otherwise.
    for _ in range(args.warmup):
        state = step(state, resolved.model, mesh, lim, corrected, solver)

    try:
        oracle = step_coupled_oracle(
            state, resolved.model, mesh, lim, solver, cell_limit=args.cell_limit
        )
    except SchemeError as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    step_corr = step(state, resolved.model, mesh, lim, corrected, solver)
    step_plain = step(state, resolved.model, mesh, lim, plain, solver)

    d_corr = discrete_norm(step_corr.u - oracle.u, mesh, 2.0)
    d_plain = discrete_norm(step_plain.u - oracle.u, mesh, 2.0)
    print(f"distance(corrected, oracle) = {d_corr:.6e}")
    print(f"distance(plain, oracle)     = {d_plain:.6e}")
    # roundoff allowance so exact ties (uniform data) compare as equal
    tie_tol = 1e-14 * max(discrete_norm(oracle.u, mesh, 2.0), 1.0)
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
    p_oracle.add_argument(
        "--cell-limit",
        type=int,
        default=schememod.DEFAULT_ORACLE_CELL_LIMIT,
        help="largest mesh the oracle will accept",
    )
    p_oracle.add_argument(
        "--warmup", type=int, default=1, help="steps taken before the comparison"
    )
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
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SchemeError, SolverError, InvariantError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
