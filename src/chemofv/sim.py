"""Time-loop driver, the run's invariant checks, discrete norms,
diagnostics and convergence studies."""

from __future__ import annotations

import logging
import math
from dataclasses import InitVar, dataclass, field, replace

import numpy as np

from . import model as _model
from . import scheme as _scheme
from .linalg import LinearSolver
from .mesh import Mesh
from .model import InitialConditionSpec, ModelSpec, make_initial_state
from .scheme import InvariantError, SchemeVariant, StepPlan, step
from .state import State

log = logging.getLogger(__name__)

EPSILON_PRODUCTION = 1e-6
EPSILON_REFERENCE = 0.0


@dataclass(frozen=True)
class RunConfig:
    """A run's inputs; any whose first step would overflow raise ``ValueError``.
    ``strict`` and ``check_matrices`` remain only because the benchmark's spots
    and desk workloads pass them; neither is stored or read, as every run
    raises on a broken invariant and checks its matrices."""

    mesh: Mesh
    model: ModelSpec
    ic: InitialConditionSpec
    variant: SchemeVariant
    dt: float
    t_final: float
    epsilon: float = EPSILON_PRODUCTION
    snapshot_every: int = 0  # 0 -> final snapshot only
    diagnostics_every: int = 1  # 0 -> initial and final records only
    strict: InitVar[bool] = True
    check_matrices: InitVar[bool] = True

    def __post_init__(self, _strict, _check_matrices):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (np.isfinite(self.t_final) and self.t_final >= 0):
            raise ValueError(f"t_final must be >= 0 and finite, got {self.t_final}")
        if not np.isfinite(float(self.t_final) / float(self.dt)):  # n_steps would overflow
            raise ValueError(f"t_final / dt is not finite: t_final={self.t_final}, dt={self.dt}")
        for name in ("snapshot_every", "diagnostics_every"):
            every = getattr(self, name)
            if isinstance(every, bool) or not isinstance(every, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {every!r}")
            if every < 0:
                raise ValueError(f"{name} must be >= 0, got {every}")
        n_cells, limit = self.mesh.n_cells, _scheme.ORACLE_CELL_LIMIT
        if self.variant.kind == _scheme.VARIANT_ORACLE and n_cells > limit:
            raise ValueError(f"coupled oracle limited to {limit} cells, mesh has {n_cells}")
        # Python floats overflow silently. Step 0's mass and sum m u^2 are below
        # area u_max^2; step 1's right-hand sides are m f, f below u/dt (+ r u) for the
        # cell and g(u) (+ c/dt) for the chem, so their squared norms are below area m f^2
        ic, model, dt = self.ic, self.model, float(self.dt)
        area, m = float(self.mesh.domain_area), float(self.mesh.dx * self.mesh.dy)
        u_max = float(ic.base_u) + (ic.region is not None)  # a region adds < 1
        r = float(model.growth_rate) if model.growth == _model.GROWTH_QUADRATIC else 0.0
        c_dt = float(ic.base_c) / dt if model.chem_dynamics == _model.CHEM_PARABOLIC else 0.0
        g = _model.chem_source_value(model, u_max)
        for what, cell, f in (("the initial mass or L2 norm of u", 1.0, u_max),
                              ("step 1's cell right-hand side", m, u_max / dt + r * u_max),
                              ("step 1's chem right-hand side", m, g + c_dt)):
            if not math.isfinite(area * cell * f * f):
                raise ValueError(f"ic.base_u={ic.base_u:g} overflows {what} with ic.base_c="
                                 f"{ic.base_c:g} and dt={dt:g} (domain area {area:g})")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))


@dataclass(frozen=True)
class DiagnosticsRecord:
    step: int
    time: float
    mass: float
    min_u: float
    max_u: float
    min_c: float
    max_c: float
    l2_u: float
    h1_u: float


@dataclass
class Diagnostics:
    records: list[DiagnosticsRecord] = field(default_factory=list)

    def append(self, rec: DiagnosticsRecord):
        if self.records and rec.time < self.records[-1].time:
            raise ValueError("diagnostics records must be monotone in time")
        self.records.append(rec)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])


@dataclass(frozen=True)
class Snapshot:
    step: int
    u: np.ndarray
    c: np.ndarray


def discrete_norm(field_values, mesh: Mesh) -> float:
    """Cell-average L^2 norm (sum m(K) v_K^2)^(1/2)."""
    v = mesh.cell_field(field_values)
    return float(np.add.reduce(mesh.cell_measures * np.square(v)) ** 0.5)


def _gradient_sum(field_values, mesh: Mesh):
    """sum over interior edges of tau_sigma |D_sigma v|^2: the edges' jumps,
    taken by slices of the cell grid in edge order, squared and scaled in place."""
    nx, ny = mesh.nx, mesh.ny
    grid = mesh.cell_field(field_values).reshape(ny, nx)
    terms = np.empty(mesh.n_interior_edges)
    x_part, y_part = terms[: (nx - 1) * ny], terms[(nx - 1) * ny :]
    np.subtract(grid[:, 1:], grid[:, :-1], out=x_part.reshape(ny, nx - 1))
    np.subtract(grid[1:], grid[:-1], out=y_part.reshape(ny - 1, nx))
    np.square(terms, out=terms)
    x_part *= mesh.tau_x
    y_part *= mesh.tau_y
    return np.add.reduce(terms)


def discrete_h1_seminorm(field_values, mesh: Mesh) -> float:
    """Interior edge-jump H^1 seminorm (sum tau_sigma |D_sigma v|^2)^(1/2);
    boundary edges carry no jump."""
    return float(_gradient_sum(field_values, mesh) ** 0.5)


def gradient_energy(field_values, mesh: Mesh) -> float:
    """sum over interior edges of tau_sigma |D_sigma v|^2."""
    return float(_gradient_sum(field_values, mesh))


def relative_l2_error(field_values, reference, mesh: Mesh) -> float:
    reference = mesh.cell_field(reference)
    ref_norm = discrete_norm(reference, mesh)
    if ref_norm == 0.0:
        raise ValueError("reference field has zero norm")
    return discrete_norm(mesh.cell_field(field_values) - reference, mesh) / ref_norm


def _record(state: State, mesh: Mesh, dt: float) -> DiagnosticsRecord:
    return DiagnosticsRecord(
        step=state.step_index,
        time=state.step_index * dt,
        mass=mesh.integral(state.u),
        min_u=float(state.u.min()),
        max_u=float(state.u.max()),
        min_c=float(state.c.min()),
        max_c=float(state.c.max()),
        l2_u=discrete_norm(state.u, mesh),
        h1_u=discrete_h1_seminorm(state.u, mesh),
    )


def plan_for(config: RunConfig, solver: LinearSolver | None = None) -> StepPlan:
    """The ``StepPlan`` of a run of ``config``, solving with ``solver`` (a
    fresh ``LinearSolver`` by default)."""
    return StepPlan(config.mesh, config.model, config.epsilon, config.variant, config.dt,
                    solver or LinearSolver())


def check_invariants(state: State, plan: StepPlan, mass0, mass_prev):
    """Enforce ``plan.invariants`` on ``state`` as a run does: mass against
    the last state's ``mass_prev`` and step 0's ``mass0``, and the bounds on
    c and its gradient energy. Returns the state's mass if mass is conserved."""
    n, invariants, enforce = state.step_index, plan.invariants, _scheme.enforce
    mass = None
    if "mass" in invariants:
        mass = plan.mesh.integral(state.u)
        enforce("step mass", abs(mass - mass_prev), 1e-10 * max(abs(mass_prev), 1e-300), n,
                prev=mass_prev, mass=mass)
        enforce("mass", abs(mass - mass0), 1e-10 * abs(mass0), n, mass0=mass0, mass=mass)
    if "c bound" in invariants:
        limit, name = invariants["c bound"]
        enforce("c bound", float(state.c.max()), limit * (1.0 + 1e-12), n, name=name, limit=limit)
        limit, name = invariants["energy"]
        enforce("energy", gradient_energy(state.c, plan.mesh), limit, n, name=name)
    return mass


def run(
    config: RunConfig,
    solver: LinearSolver | None = None,
    observer=None,
) -> tuple[State, Diagnostics, list[Snapshot]]:
    """March the configured scheme to t_final.

    Diagnostics are recorded at step 0, every ``diagnostics_every`` steps
    and at the final step; snapshots follow ``snapshot_every`` with the
    final snapshot always emitted, and hold the state's own u and c arrays,
    which nothing writes to. ``observer``, when given, is called with
    each new State. The run's ``StepPlan`` (``plan_for``) is built once.
    Each invariant, the step's and then the run's (``check_invariants``),
    raises the error its row in ``scheme.INVARIANTS`` names, or is logged
    once; the run keeps only step 0's mass and the set of invariants logged.
    """
    n_steps = config.n_steps
    if abs(n_steps * config.dt - config.t_final) > 1e-9 * max(config.t_final, config.dt):
        log.warning("t_final=%g is not an integer multiple of dt=%g; running %d steps",
                    config.t_final, config.dt, n_steps)
    if config.epsilon == 0.0 and 1.0 - 2.0 * config.model.chemo_sensitivity * config.dt < 0.0:
        log.warning("time-step condition violated (1 - 2*a*dt < 0 with eps=0); the scheme may "
                    "still run fine, but the convergence theory does not cover this step size")

    if config.model.chem_source == _model.SOURCE_LINEAR:
        log.info("the chem source is linear: the theory gives no bound on c, so none is checked")

    mesh = config.mesh
    plan = plan_for(config, solver)
    state = make_initial_state(mesh, config.ic)
    mass0 = mass = mesh.integral(state.u)
    logged: set[str] = set()

    diagnostics = Diagnostics()
    diagnostics.append(_record(state, mesh, config.dt))
    snapshots: list[Snapshot] = []

    for n in range(n_steps):
        state = step(state, plan, logged)
        mass = check_invariants(state, plan, mass0, mass)
        if observer is not None:
            observer(state)
        done = n + 1 == n_steps
        if done or (config.diagnostics_every > 0 and (n + 1) % config.diagnostics_every == 0):
            diagnostics.append(_record(state, mesh, config.dt))
        if done or (config.snapshot_every > 0 and (n + 1) % config.snapshot_every == 0):
            snapshots.append(Snapshot(state.step_index, state.u, state.c))

    if n_steps == 0:
        snapshots.append(Snapshot(0, state.u, state.c))
    return state, diagnostics, snapshots


@dataclass(frozen=True)
class StudyRow:
    dt: float
    error: float
    rate: float | None


@dataclass
class StudyReport:
    """Per-variant relative L2 errors of u at t_final against a reference."""

    reference_dt: float
    tables: dict[str, list[StudyRow]]

    def rows(self):
        for variant, table in self.tables.items():
            for row in table:
                yield variant, row


def convergence_rates(dts, errors) -> list[float | None]:
    """Observed orders between consecutive (dt, error) pairs; first is None."""
    rates: list[float | None] = [None]
    for i in range(1, len(dts)):
        rates.append(
            float(np.log(errors[i - 1] / errors[i]) / np.log(dts[i - 1] / dts[i]))
        )
    return rates


def study_step_sizes(reference_dt: float, dt_list) -> list[float]:
    """``dt_list`` as floats if distinct, decreasing and above ``reference_dt``
    (which one dt may equal); ``ValueError`` otherwise. Makes no run."""
    dt_list = [float(d) for d in dt_list]
    repeated = [d for i, d in enumerate(dt_list) if d in dt_list[:i]]
    if repeated:
        raise ValueError(
            f"the study's step sizes must be distinct: dt={repeated[0]:g} is repeated"
        )
    if any(dt_list[i] <= dt_list[i + 1] for i in range(len(dt_list) - 1)):
        raise ValueError("dt_list must be sorted in decreasing order")
    # a member at the reference dt has error 0: no order between it and the next
    smallest = min(dt_list, default=np.inf)
    if reference_dt > smallest or (reference_dt == smallest and len(dt_list) > 1):
        raise ValueError(
            f"reference dt {reference_dt} must be below the smallest study dt {smallest}"
        )
    return dt_list


def convergence_study(base: RunConfig, dt_list, variants) -> StudyReport:
    """Temporal convergence study against a fine corrected-scheme reference.

    ``base.dt`` is the reference step size, below every dt in ``dt_list``
    (a single-dt study may use the reference dt itself), run with the
    corrected variant at limiter constant ``EPSILON_REFERENCE`` (0); every
    requested variant is then run at every dt in ``dt_list`` (distinct and
    sorted decreasing) at ``base.epsilon``, and the relative L2 error of u at
    t_final is tabulated together with the observed orders between
    consecutive step sizes. Every run is made with ``snapshot_every`` and
    ``diagnostics_every`` 0.
    """
    dt_list = study_step_sizes(base.dt, dt_list)

    def member(dt, variant, **changes):
        cfg = replace(
            base, dt=dt, variant=variant, snapshot_every=0, diagnostics_every=0, **changes
        )
        final, _, _ = run(cfg)
        return final

    reference_variant = replace(base.variant, kind=_scheme.VARIANT_CORRECTED)
    log.info("study: reference run dt=%g", base.dt)
    reference = member(base.dt, reference_variant, epsilon=EPSILON_REFERENCE)

    tables: dict[str, list[StudyRow]] = {}
    for variant in variants:
        errors = []
        for dt in dt_list:
            log.info("study: variant=%s dt=%g", variant.kind, dt)
            final = member(dt, variant)
            errors.append(relative_l2_error(final.u, reference.u, base.mesh))
        rates = convergence_rates(dt_list, errors)
        tables[variant.kind] = [
            StudyRow(dt, err, rate) for dt, err, rate in zip(dt_list, errors, rates)
        ]
    return StudyReport(reference_dt=base.dt, tables=tables)


def column_profile(cx, cy, values, x0) -> tuple[float, np.ndarray, np.ndarray]:
    """Values of the cells whose center x is the one nearest x = x0.

    ``cx``, ``cy`` and ``values`` are per-cell arrays. Returns the column's
    x and its (y, value) pairs ordered by y.
    """
    xs = np.unique(cx)
    x_col = xs[int(np.argmin(np.abs(xs - x0)))]
    mask = cx == x_col
    order = np.argsort(cy[mask], kind="stable")
    return x_col, cy[mask][order], values[mask][order]
