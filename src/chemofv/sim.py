"""Time-loop driver, discrete norms, diagnostics and convergence studies."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import model as _model
from . import scheme as _scheme
from .linalg import LinearSolver
from .mesh import Mesh
from .model import InitialConditionSpec, ModelSpec, make_initial_state
from .scheme import FluxLimiter, SchemeVariant, step
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
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_final < 0:
            raise ValueError(f"t_final must be >= 0, got {self.t_final}")

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
    time: float
    u: np.ndarray
    c: np.ndarray


def discrete_norm(field_values, mesh: Mesh, p: float = 2.0) -> float:
    """Cell-average L^p norm (sum m(K) |v_K|^p)^(1/p)."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    v = np.asarray(field_values, dtype=float)
    return float(np.sum(mesh.cell_measures * np.abs(v) ** p) ** (1.0 / p))


def discrete_h1_seminorm(field_values, mesh: Mesh, p: float = 2.0) -> float:
    """Edge-jump W^{1,p} seminorm; jumps vanish on boundary edges."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    v = np.asarray(field_values, dtype=float)
    jumps = np.abs(v[mesh.interior_cell_b] - v[mesh.interior_cell_a])
    n_int = mesh.n_interior_edges
    weights = mesh.edge_measures[:n_int] / mesh.edge_distances[:n_int] ** (p - 1.0)
    return float(np.sum(weights * jumps**p) ** (1.0 / p))


def gradient_energy(field_values, mesh: Mesh) -> float:
    """sum over interior edges of tau_sigma |D_sigma v|^2."""
    v = np.asarray(field_values, dtype=float)
    jumps = v[mesh.interior_cell_b] - v[mesh.interior_cell_a]
    return float(np.sum(mesh.interior_tau * jumps * jumps))


def relative_l2_error(field_values, reference, mesh: Mesh) -> float:
    ref_norm = discrete_norm(reference, mesh, 2.0)
    if ref_norm == 0.0:
        raise ValueError("reference field has zero norm")
    diff = np.asarray(field_values, dtype=float) - np.asarray(reference, dtype=float)
    return discrete_norm(diff, mesh, 2.0) / ref_norm


def _record(state: State, mesh: Mesh) -> DiagnosticsRecord:
    return DiagnosticsRecord(
        step=state.step_index,
        time=state.time,
        mass=float(mesh.cell_measures @ state.u),
        min_u=float(state.u.min()),
        max_u=float(state.u.max()),
        min_c=float(state.c.min()),
        max_c=float(state.c.max()),
        l2_u=discrete_norm(state.u, mesh, 2.0),
        h1_u=discrete_h1_seminorm(state.u, mesh, 2.0),
    )


class _InvariantMonitor:
    """Per-run invariant checks: raise in strict mode, log otherwise."""

    def __init__(self, config: RunConfig, mass0: float):
        self.config = config
        self.mass0 = mass0
        self._logged: set[str] = set()

    def _violations(self, state: State) -> list[str]:
        model = self.config.model
        found = []
        if model.growth == _model.GROWTH_NONE:
            mass = float(self.config.mesh.cell_measures @ state.u)
            if abs(mass - self.mass0) > 1e-10 * abs(self.mass0):
                found.append(
                    f"mass drift at step {state.step_index}: "
                    f"{self.mass0} -> {mass}"
                )
        if (
            model.chem_dynamics == _model.CHEM_ELLIPTIC
            and model.chem_source == _model.SOURCE_SATURATED
        ):
            max_c = float(state.c.max())
            if max_c > 2.0 + 1e-12:
                found.append(
                    f"chemoattractant bound violated at step "
                    f"{state.step_index}: max c = {max_c}"
                )
            energy = gradient_energy(state.c, self.config.mesh)
            if energy > 4.0 * self.config.mesh.domain_area:
                found.append(
                    f"chemoattractant gradient energy {energy} exceeds "
                    f"4*area at step {state.step_index}"
                )
        return found

    def check(self, state: State):
        for violation in self._violations(state):
            if self.config.strict:
                raise InvariantError(violation)
            kind = violation.split(" at step")[0]
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
    each new State. Strict mode aborts on any monitored invariant
    violation (positivity is always enforced by the stepper itself).
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

    mesh = config.mesh
    solver = solver or LinearSolver()
    lim = FluxLimiter(
        config.model.cell_diffusion, config.model.chemo_sensitivity, config.epsilon
    )
    state = make_initial_state(mesh, config.ic, dt=config.dt)
    monitor = _InvariantMonitor(config, float(mesh.cell_measures @ state.u))

    diagnostics = Diagnostics()
    diagnostics.append(_record(state, mesh))
    snapshots: list[Snapshot] = []

    for n in range(n_steps):
        state = step(
            state,
            config.model,
            mesh,
            lim,
            config.variant,
            solver,
            check_matrices=config.check_matrices,
            debug_checks=config.strict,
        )
        monitor.check(state)
        if observer is not None:
            observer(state)
        done = n + 1 == n_steps
        if done or (config.diagnostics_every > 0 and (n + 1) % config.diagnostics_every == 0):
            diagnostics.append(_record(state, mesh))
        if done or (config.snapshot_every > 0 and (n + 1) % config.snapshot_every == 0):
            snapshots.append(
                Snapshot(state.step_index, state.time, state.u.copy(), state.c.copy())
            )

    if n_steps == 0:
        snapshots.append(Snapshot(0, 0.0, state.u.copy(), state.c.copy()))
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
    field_name: str
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
    base: RunConfig,
    dt_list,
    variants,
    *,
    epsilon_reference: float = EPSILON_REFERENCE,
    epsilon_members: float = EPSILON_PRODUCTION,
    solver: LinearSolver | None = None,
) -> StudyReport:
    """Temporal convergence study against a fine corrected-scheme reference.

    ``base.dt`` is the reference step size, run with the corrected variant
    and ``epsilon_reference``; every requested variant is then run at every
    dt in ``dt_list`` (sorted decreasing) with ``epsilon_members``, and the
    relative L2 error of u at t_final is tabulated together with the
    observed orders between consecutive step sizes.
    """
    dt_list = [float(d) for d in dt_list]
    if any(dt_list[i] <= dt_list[i + 1] for i in range(len(dt_list) - 1)):
        raise ValueError("dt_list must be sorted in decreasing order")
    if dt_list and base.dt > min(dt_list):
        raise ValueError(
            f"reference dt {base.dt} must not exceed the smallest study dt"
        )
    solver = solver or LinearSolver()

    def member(dt, variant, epsilon):
        cfg = RunConfig(
            mesh=base.mesh,
            model=base.model,
            ic=base.ic,
            variant=variant,
            dt=dt,
            t_final=base.t_final,
            epsilon=epsilon,
            snapshot_every=0,
            diagnostics_every=0,
            strict=base.strict,
            check_matrices=base.check_matrices,
        )
        final, _, _ = run(cfg, solver=solver)
        return final

    reference_variant = SchemeVariant(
        kind=_scheme.VARIANT_CORRECTED, beta_policy=base.variant.beta_policy
    )
    log.info("study: reference run dt=%g", base.dt)
    reference = member(base.dt, reference_variant, epsilon_reference)

    tables: dict[str, list[StudyRow]] = {}
    for variant in variants:
        errors = []
        for dt in dt_list:
            log.info("study: variant=%s dt=%g", variant.kind, dt)
            final = member(dt, variant, epsilon_members)
            errors.append(relative_l2_error(final.u, reference.u, base.mesh))
        rates = convergence_rates(dt_list, errors)
        tables[variant.kind] = [
            StudyRow(dt, err, rate) for dt, err, rate in zip(dt_list, errors, rates)
        ]
    return StudyReport(reference_dt=base.dt, field_name="u", tables=tables)


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

    Returns (y, value) pairs ordered by y.
    """
    if not mesh.x_range[0] <= x0 <= mesh.x_range[1]:
        raise ValueError(f"x0={x0} outside the domain x-range {mesh.x_range}")
    v = np.asarray(field_values, dtype=float)
    centers = mesh.cell_centers
    _, ys, values = column_profile(centers[:, 0], centers[:, 1], v, x0)
    return ys, values
