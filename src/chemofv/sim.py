"""Time-loop driver, the run's invariant monitor, discrete norms,
diagnostics and convergence studies."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import model as _model
from . import scheme as _scheme
from .linalg import LinearSolver
from .mesh import Mesh
from .model import InitialConditionSpec, ModelSpec, make_initial_state
from .scheme import SchemeVariant, StepPlan, step
from .state import State

log = logging.getLogger(__name__)

EPSILON_PRODUCTION = 1e-6
EPSILON_REFERENCE = 0.0


class InvariantError(RuntimeError):
    """A monitored scheme invariant failed during a strict-mode run."""


@dataclass(frozen=True)
class RunConfig:
    mesh: Mesh
    model: ModelSpec
    ic: InitialConditionSpec
    variant: SchemeVariant
    dt: float
    t_final: float
    epsilon: float = EPSILON_PRODUCTION
    snapshot_every: int = 0  # 0 -> final snapshot only
    diagnostics_every: int = 1  # 0 -> initial and final records only
    strict: bool = False
    check_matrices: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (np.isfinite(self.t_final) and self.t_final >= 0):
            raise ValueError(f"t_final must be >= 0 and finite, got {self.t_final}")
        for name in ("snapshot_every", "diagnostics_every"):
            every = getattr(self, name)
            if isinstance(every, bool) or not isinstance(every, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {every!r}")
            if every < 0:
                raise ValueError(f"{name} must be >= 0, got {every}")

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


def _check_exponent(p: float):
    # NaN fails both tests; an infinite p would turn every sum into 1 or NaN
    if not (p >= 1 and math.isfinite(p)):
        raise ValueError(f"p must be finite and >= 1, got {p}")


def discrete_norm(field_values, mesh: Mesh, p: float = 2.0) -> float:
    """Cell-average L^p norm (sum m(K) |v_K|^p)^(1/p), for finite p >= 1."""
    _check_exponent(p)
    v = mesh.cell_field(field_values)
    return float(np.sum(mesh.cell_measures * np.abs(v) ** p) ** (1.0 / p))


def discrete_h1_seminorm(field_values, mesh: Mesh, p: float = 2.0) -> float:
    """Interior edge-jump W^{1,p} seminorm, for finite p >= 1; boundary
    edges carry no jump. Edge sigma's weight is m(sigma) / d_sigma^(p-1)."""
    _check_exponent(p)
    terms = np.abs(mesh.edge_jumps(field_values)) ** p
    weights = np.array([mesh.dy, mesh.dx]) / np.array([mesh.dx, mesh.dy]) ** (p - 1.0)
    mesh.scale_edges(terms, *weights)
    return float(np.sum(terms) ** (1.0 / p))


def gradient_energy(field_values, mesh: Mesh) -> float:
    """sum over interior edges of tau_sigma |D_sigma v|^2."""
    jumps = mesh.edge_jumps(field_values)
    weighted = mesh.scale_edges(jumps.copy(), mesh.tau_x, mesh.tau_y)
    weighted *= jumps
    return float(np.sum(weighted))


def relative_l2_error(field_values, reference, mesh: Mesh) -> float:
    reference = mesh.cell_field(reference)
    ref_norm = discrete_norm(reference, mesh, 2.0)
    if ref_norm == 0.0:
        raise ValueError("reference field has zero norm")
    return discrete_norm(mesh.cell_field(field_values) - reference, mesh, 2.0) / ref_norm


def _record(state: State, mesh: Mesh, dt: float) -> DiagnosticsRecord:
    return DiagnosticsRecord(
        step=state.step_index,
        time=state.step_index * dt,
        mass=mesh.integral(state.u),
        min_u=float(state.u.min()),
        max_u=float(state.u.max()),
        min_c=float(state.c.min()),
        max_c=float(state.c.max()),
        l2_u=discrete_norm(state.u, mesh, 2.0),
        h1_u=discrete_h1_seminorm(state.u, mesh, 2.0),
    )


def plan_for(config: RunConfig, solver: LinearSolver | None = None) -> StepPlan:
    """The ``StepPlan`` of a run of ``config``, solving with ``solver`` (a
    fresh ``LinearSolver`` by default)."""
    return StepPlan(
        config.mesh, config.model, config.epsilon, config.variant, config.dt,
        solver or LinearSolver(), config.check_matrices,
    )


class _InvariantMonitor:
    """The run's invariants after each step: mass without growth (within
    the step and since step 0), and for the elliptic saturated model a bound
    on c and on its gradient energy: c <= 2/gamma and 4*area/gamma for the
    corrected variant, c <= 1/gamma and area/(4*gamma) for the others.

    The bounds follow from B c = m(K) f, B an M-matrix with row sums
    gamma m(K), and the saturated g(u) = u/(u+1) in [0, 1). The corrected
    variant's f = (1+beta) g(u^n) - beta g(u^{n-1}), beta in [0, 1], lies
    in (-1, 2); the plain variant's f = g(u^n), and the lagged variant's
    and the coupled oracle's f = g(u^{n+1}), lie in [0, 1). Maximum
    principle: at the cell K where c is largest, (B c)_K >= gamma m(K) c_K,
    so max c < max f / gamma: 2/gamma, or 1/gamma. Energy identity: testing
    with c, sum tau |Dc|^2 + gamma sum m c^2 = sum m f c <= sum m f^2 /
    (4 gamma) + gamma sum m c^2, so the energy is below area max f^2 /
    (4 gamma): area/(4 gamma), or area/gamma for the corrected variant,
    which keeps the published 4*area/gamma. c may exceed its bound by 1e-12
    of it. Strict mode raises ``InvariantError``; otherwise the first
    violation of each is logged."""

    def __init__(self, config: RunConfig, mass0: float):
        model = config.model
        self.config = config
        self.mass0 = self.mass_prev = mass0
        self.conserves_mass = model.growth == _model.GROWTH_NONE
        self.bounds_c = (
            model.chem_dynamics == _model.CHEM_ELLIPTIC
            and model.chem_source == _model.SOURCE_SATURATED
        )
        gamma, area = model.chem_decay, config.mesh.domain_area
        if config.variant.kind == _scheme.VARIANT_CORRECTED:
            self.c_bound, self.c_bound_name = 2.0 / gamma, "2/gamma"
            self.energy_bound, self.energy_bound_name = 4.0 * area / gamma, "4*area/gamma"
        else:
            self.c_bound, self.c_bound_name = 1.0 / gamma, "1/gamma"
            self.energy_bound, self.energy_bound_name = area / (4.0 * gamma), "area/(4*gamma)"
        self._logged: set[str] = set()

    def _violations(self, state: State):
        """Yield (invariant, message) for each invariant the state breaks."""
        n, mesh = state.step_index, self.config.mesh
        if self.conserves_mass:
            mass, prev = mesh.integral(state.u), self.mass_prev
            self.mass_prev = mass
            if abs(mass - prev) > 1e-10 * max(abs(prev), 1e-300):
                yield "step mass", f"mass drifted within step {n}: {prev} -> {mass}"
            if abs(mass - self.mass0) > 1e-10 * abs(self.mass0):
                yield "mass", f"mass drift at step {n}: {self.mass0} -> {mass}"
        if self.bounds_c:
            max_c = float(state.c.max())
            if max_c > self.c_bound * (1.0 + 1e-12):
                yield "c", (
                    f"max c = {max_c} breaks the bound {self.c_bound_name} = "
                    f"{self.c_bound} at step {n}"
                )
            energy = gradient_energy(state.c, mesh)
            if energy > self.energy_bound:
                yield "energy", (
                    f"c's gradient energy {energy} exceeds {self.energy_bound_name} = "
                    f"{self.energy_bound} at step {n}"
                )

    def check(self, state: State):
        for kind, violation in self._violations(state):
            if self.config.strict:
                raise InvariantError(violation)
            if kind not in self._logged:
                self._logged.add(kind)
                log.warning("%s", violation)


def run(
    config: RunConfig,
    solver: LinearSolver | None = None,
    observer=None,
) -> tuple[State, Diagnostics, list[Snapshot]]:
    """March the configured scheme to t_final.

    Diagnostics are recorded at step 0, every ``diagnostics_every`` steps
    and at the final step; snapshots follow ``snapshot_every`` with the
    final snapshot always emitted. ``observer``, when given, is called with
    each new State. The run's ``StepPlan`` (``plan_for``) is built once.
    Every step checks positivity (and, with ``check_matrices``, matrix
    structure) itself and raises on a failure; the run's invariants (mass,
    the bounds on c and its gradient energy) raise ``InvariantError`` in
    strict mode and are logged once otherwise.
    """
    n_steps = config.n_steps
    if abs(n_steps * config.dt - config.t_final) > 1e-9 * max(config.t_final, config.dt):
        log.warning(
            "t_final=%g is not an integer multiple of dt=%g; running %d steps",
            config.t_final,
            config.dt,
            n_steps,
        )
    if config.epsilon == 0.0 and 1.0 - 2.0 * config.model.chemo_sensitivity * config.dt < 0.0:
        log.warning(
            "time-step condition violated (1 - 2*a*dt < 0 with eps=0); "
            "the scheme may still run fine, but the convergence theory "
            "does not cover this step size"
        )

    if config.model.chem_source == _model.SOURCE_LINEAR:
        log.info("the chem source is linear: the theory gives no bound on c, so none is checked")

    mesh = config.mesh
    plan = plan_for(config, solver)
    state = make_initial_state(mesh, config.ic)
    monitor = _InvariantMonitor(config, mesh.integral(state.u))

    diagnostics = Diagnostics()
    diagnostics.append(_record(state, mesh, config.dt))
    snapshots: list[Snapshot] = []

    for n in range(n_steps):
        state = step(state, plan)
        monitor.check(state)
        if observer is not None:
            observer(state)
        done = n + 1 == n_steps
        if done or (config.diagnostics_every > 0 and (n + 1) % config.diagnostics_every == 0):
            diagnostics.append(_record(state, mesh, config.dt))
        if done or (config.snapshot_every > 0 and (n + 1) % config.snapshot_every == 0):
            snapshots.append(Snapshot(state.step_index, state.u.copy(), state.c.copy()))

    if n_steps == 0:
        snapshots.append(Snapshot(0, state.u.copy(), state.c.copy()))
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


def convergence_study(
    base: RunConfig, dt_list, variants, *, solver: LinearSolver | None = None
) -> StudyReport:
    """Temporal convergence study against a fine corrected-scheme reference.

    ``base.dt`` is the reference step size, below every dt in ``dt_list``
    (a single-dt study may use the reference dt itself), run with the
    corrected variant at limiter constant ``EPSILON_REFERENCE`` (0); every
    requested variant is then run at every dt in ``dt_list`` (sorted
    decreasing) at ``base.epsilon``, and the relative L2 error of u at
    t_final is tabulated together with the observed orders between
    consecutive step sizes. Every run is made with ``snapshot_every`` and
    ``diagnostics_every`` 0.
    """
    dt_list = [float(d) for d in dt_list]
    if any(dt_list[i] <= dt_list[i + 1] for i in range(len(dt_list) - 1)):
        raise ValueError("dt_list must be sorted in decreasing order")
    # a member at the reference dt has error 0: no order between it and the next
    smallest = min(dt_list, default=np.inf)
    if base.dt > smallest or (base.dt == smallest and len(dt_list) > 1):
        raise ValueError(
            f"reference dt {base.dt} must be below the smallest study dt {smallest}"
        )
    solver = solver or LinearSolver()

    def member(dt, variant, **changes):
        cfg = replace(
            base, dt=dt, variant=variant, snapshot_every=0, diagnostics_every=0, **changes
        )
        final, _, _ = run(cfg, solver=solver)
        return final

    reference_variant = SchemeVariant(
        kind=_scheme.VARIANT_CORRECTED, beta_policy=base.variant.beta_policy
    )
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


def extract_contour(field_values, mesh: Mesh, x0: float) -> tuple[np.ndarray, np.ndarray]:
    """Profile of a cell field along the column of centers nearest x = x0.

    Returns fresh (y, value) arrays ordered by y; of two columns equally near, the left.
    """
    if not mesh.x_range[0] <= x0 <= mesh.x_range[1]:
        raise ValueError(f"x0={x0} outside the domain x-range {mesh.x_range}")
    grid = mesh.cell_field(field_values).reshape(mesh.ny, mesh.nx)
    ix = int(np.argmin(np.abs(mesh.x_centers - x0)))
    return mesh.y_centers.copy(), grid[:, ix].copy()
