"""Hybrid flux limiter, correction term, and the decoupled step drivers.

The convective flux through an interior edge blends central differencing
(small chemoattractant jumps) with first-order upwinding (large jumps) via
the piecewise limiter S. The corrected decoupled step adds a lagged
increment of the chemoattractant source, scaled by a safety factor, to the
chem-equation right-hand side; the plain decoupled step omits it; the
lagged step solves the cell equation first against the old chemoattractant
field; the coupled oracle iterates the two solves to a fixed point and
serves as the accuracy reference in tests.

What stays constant for a run, the chem operator included, is one
``StepPlan``; the step functions and assemblies take a state and that plan.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import model as _model
from .linalg import LinearSolver, SparseMatrix, check_m_matrix_pattern, keep_dct_solve
from .mesh import Mesh
from .model import ModelSpec, chem_source_value
from .state import State

log = logging.getLogger(__name__)

VARIANT_CORRECTED = "corrected-decoupled"
VARIANT_PLAIN = "plain-decoupled"
VARIANT_LAGGED = "lagged"
VARIANT_ORACLE = "coupled-oracle"
VARIANT_KINDS = (VARIANT_CORRECTED, VARIANT_PLAIN, VARIANT_LAGGED, VARIANT_ORACLE)

BETA_FIXED = "fixed1"
BETA_FORMULA = "formula"

DEFAULT_ORACLE_CELL_LIMIT = 4096
ORACLE_TOL = 1e-12  # max-norm change of (u, c) that ends the fixed point
ORACLE_MAX_ITER = 200


class SchemeError(RuntimeError):
    """Assembly or stepping violated a scheme precondition or invariant."""


@dataclass(frozen=True)
class FluxLimiter:
    """Piecewise flux map S with hybridization constant eps.

    S(x) = 0 for x < -t, x/2 for |x| <= t, x for x > t, with threshold
    t = 2(mu - eps)/a. Requires 0 <= eps <= mu so that mu + a*S(x) >= eps,
    which keeps the assembled off-diagonals nonpositive.
    """

    mu: float
    a: float
    eps: float = 0.0

    def __post_init__(self):
        if self.mu <= 0 or self.a <= 0:
            raise ValueError("mu and a must be positive")
        if not 0.0 <= self.eps <= self.mu:
            raise ValueError(f"eps must lie in [0, mu], got {self.eps}")
        object.__setattr__(self, "threshold", 2.0 * (self.mu - self.eps) / self.a)


def limiter_S(lim: FluxLimiter, x):
    """Evaluate the limiter on a scalar or array.

    Branch-free: S(x) = x/2 + |x/2| where |x| > t, and x/2 elsewhere. Past
    the threshold that is exactly 0 for x < -t, and exactly x for x > t
    unless halving x rounds, which needs x below 2**-1021 and so a
    threshold that small (eps = mu gives t = 0). Otherwise it differs from
    the piecewise definition only in a zero's sign: -0, or a negative
    subnormal whose half rounds to -0, gives +0. NaN stays NaN and +inf
    stays +inf; -inf gives NaN.
    """
    arr = np.asarray(x, dtype=float)
    out = np.multiply(arr, 0.5)
    lift = np.abs(out)
    lift *= np.abs(arr) > lim.threshold
    out += lift
    if np.ndim(x) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class SchemeVariant:
    """Which step driver to run and how to pick the correction factor."""

    kind: str = VARIANT_CORRECTED
    beta_policy: str = BETA_FIXED

    def __post_init__(self):
        if self.kind not in VARIANT_KINDS:
            raise ValueError(f"unknown scheme variant {self.kind!r}")
        if self.beta_policy not in (BETA_FIXED, BETA_FORMULA):
            raise ValueError(f"unknown beta policy {self.beta_policy!r}")


def correction_term(state: State, model: ModelSpec, mesh: Mesh) -> np.ndarray:
    """Lagged chem-source increment T_K = m(K)(src(u^n) - src(u^{n-1})).

    Zero at step 0 because u_prev equals u there.
    """
    if state.n_cells != mesh.n_cells:
        raise ValueError("state and mesh sizes differ")
    return _correction(state, model, mesh, chem_source_value(model, state.u))


def _correction(state: State, model: ModelSpec, mesh: Mesh, src_now) -> np.ndarray:
    """``correction_term`` given ``src_now``, the source of ``state.u``."""
    return mesh.cell_measures * (src_now - chem_source_value(model, state.u_prev))


def beta_n(state: State, mesh: Mesh) -> float:
    """Safety factor keeping the corrected chem right-hand side nonnegative.

    Uses the saturated g(u) = u/(u+1) (the form the factor was derived
    for) regardless of the model's source kind; models with a linear source
    run with the fixed policy beta = 1 in practice. Over the cells where
    2 g(u^n) - g(u^{n-1}) < 0 the factor is the minimum of
    g(u^n) / (g(u^{n-1}) - g(u^n)); it is 1 when no such cell exists,
    including at step 0.
    """
    if state.n_cells != mesh.n_cells:
        raise ValueError("state and mesh sizes differ")
    g_now = state.u / (state.u + 1.0)
    g_prev = state.u_prev / (state.u_prev + 1.0)
    mask = 2.0 * g_now - g_prev < 0.0
    if not mask.any():
        return 1.0
    denom = g_prev[mask] - g_now[mask]
    assert np.all(denom > 0.0)  # membership forces g_prev > 2 g_now >= g_now
    return float(min(1.0, np.min(g_now[mask] / denom)))


def _five_point_rows(mesh: Mesh, offsets: np.ndarray):
    """A zeroed data array on ``mesh``'s DIA layout, whose sorted
    ``offsets`` are ``mesh.adjacency_csr()``, and writable views of its
    entries: ``(data, diag, upper, lower)``.

    ``diag`` is the diagonal. ``upper`` and ``lower`` are each an
    (x-normal, y-normal) pair of edge grids laid out as
    ``Mesh.edge_grids``: for interior edge e joining a < b, ``upper``
    holds entry (a, b) and ``lower`` entry (b, a). x-normal edges sit on
    the +-1 diagonals and y-normal edges on the +-nx ones; entry (a, b)
    sits at column b of its diagonal and (b, a) at column a, and every
    other entry stays zero. A mesh one cell wide has empty grids for the
    edges it lacks.
    """
    nx, ny = mesh.nx, mesh.ny
    data = np.zeros((offsets.size, mesh.n_cells))
    rows = dict(zip(offsets.tolist(), data))  # offset -> its row, a view
    upper = (
        rows[1].reshape(ny, nx)[:, 1:] if nx > 1 else np.empty((ny, 0)),
        rows[nx][nx:].reshape(ny - 1, nx) if ny > 1 else np.empty((0, nx)),
    )
    lower = (
        rows[-1].reshape(ny, nx)[:, :-1] if nx > 1 else np.empty((ny, 0)),
        rows[-nx][:-nx].reshape(ny - 1, nx) if ny > 1 else np.empty((0, nx)),
    )
    return data, rows[0], upper, lower


def _add_outflow(diag: np.ndarray, mesh: Mesh, plus, minus):
    """Add each cell K's outflow to ``diag``: ``plus`` over its edges to K+1
    and K+nx, then ``minus`` over its edges from K-1 and K-nx, each sum
    x-normal edge first. ``plus`` and ``minus`` are (x-normal, y-normal)
    pairs of ``Mesh.edge_grids`` grids, or of scalars standing for them."""
    (plus_x, plus_y), (minus_x, minus_y) = plus, minus
    outflow = np.zeros((mesh.ny, mesh.nx))
    outflow[:, :-1] = plus_x
    outflow[:-1, :] += plus_y
    diag += outflow.ravel()
    outflow[:, 1:] = minus_x
    outflow[:, 0] = 0.0  # no cell K-1 in the first column
    outflow[1:, :] += minus_y
    diag += outflow.ravel()


def chem_operator(mesh: Mesh, chem_decay: float, dt: float | None) -> SparseMatrix:
    """The chem operator B of a run: -tau_x on the +-1 diagonals, -tau_y on
    the +-nx ones, and on the diagonal the sum of a cell's edge taus plus
    gamma*m(K) (and m(K)/dt when ``dt`` is given, for parabolic dynamics).

    B depends on nothing else, so a run's ``StepPlan`` builds it once and
    every step solves with that object; each call builds a new B, the one
    operator of a run that the ``SparseMatrix`` constructor validates. On the
    uniform rectangle B is tau_x T_nx (x) I + tau_y I (x) T_ny plus
    (gamma + [1/dt]) hx hy I, with T_n the 1-D Neumann second difference,
    which the DCT-II diagonalises with eigenvalues 2(1 - cos(pi k / n)).
    The eigenvalue grid is built here and B keeps its exact solve by the
    transform (``keep_dct_solve``); B is never factorized. B stays
    assembled for the residual check and the structure checks. A singular
    B (gamma = 0, elliptic) raises ``SolverError`` here.
    """
    m = mesh.cell_measures
    taus = (mesh.tau_x, mesh.tau_y)
    offsets = mesh.adjacency_csr()
    data, diag, upper, lower = _five_point_rows(mesh, offsets)
    for row, tau in zip(upper + lower, taus + taus):
        row[...] = -tau
    _add_outflow(diag, mesh, taus, taus)
    diag += chem_decay * m
    if dt is not None:
        diag += m / dt
    data.setflags(write=False)  # hand the fresh array over without a copy
    b_mat = SparseMatrix(offsets, data)

    def neumann_eigenvalues(n):
        return 2.0 * (1.0 - np.cos(np.pi * np.arange(n) / n))

    shift = chem_decay if dt is None else chem_decay + 1.0 / dt
    eigenvalues = (
        mesh.tau_x * neumann_eigenvalues(mesh.nx)[None, :]
        + mesh.tau_y * neumann_eigenvalues(mesh.ny)[:, None]
        + shift * mesh.dx * mesh.dy
    )
    keep_dct_solve(b_mat, eigenvalues)
    return b_mat


@dataclass(frozen=True, eq=False)
class StepPlan:
    """What stays constant for a run: its mesh, model, limiter constant
    ``epsilon``, variant, dt, solver and matrix-check flag, and what they
    determine: the flux limiter (``limiter``, with the model's mu and chi)
    and the chem operator B (``chem_matrix``, with its DCT solve). B is
    also the run's validated five-point layout: every step's cell operator
    has B's offsets and size, and is made on them by ``B.with_data``. A
    state carries no dt; every step of it is the plan's. Building the plan checks
    that dt is positive and finite and that epsilon lies in [0, mu] and,
    with ``check_matrices``, checks B's sign pattern and row slack
    (gamma + [1/dt]) m(K) once, since B is the same matrix at every step.
    """

    mesh: Mesh
    model: ModelSpec
    epsilon: float
    variant: SchemeVariant
    dt: float
    solver: LinearSolver = field(default_factory=LinearSolver)
    check_matrices: bool = False
    limiter: FluxLimiter = field(init=False, repr=False)
    chem_matrix: SparseMatrix = field(init=False, repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise SchemeError(f"a step plan needs a positive, finite dt, got {self.dt}")
        model = self.model
        limiter = FluxLimiter(model.cell_diffusion, model.chemo_sensitivity, self.epsilon)
        gamma = model.chem_decay
        chem_dt = self.dt if model.chem_dynamics == _model.CHEM_PARABOLIC else None
        b_mat = chem_operator(self.mesh, gamma, chem_dt)
        if self.check_matrices:
            shift = gamma if chem_dt is None else gamma + 1.0 / chem_dt
            _check_structure(b_mat, shift * self.mesh.cell_measures, "rows", "chem matrix")
        object.__setattr__(self, "limiter", limiter)
        object.__setattr__(self, "chem_matrix", b_mat)


def assemble_chem_system(
    state: State,
    plan: StepPlan,
    beta: float = 0.0,
    u_source: np.ndarray | None = None,
) -> tuple[SparseMatrix, np.ndarray]:
    """Assemble the chemoattractant system B c^{n+1} = G.

    B is the plan's ``chem_matrix``. G carries the source from u^n, beta
    times the correction term (the corrected variant's step passes a
    nonzero beta), and m(K) c^n / dt for parabolic dynamics. The lagged
    variant and the coupled oracle pass the freshly solved density as
    ``u_source``. Without it, g(u^n) is taken once, for the source and the
    correction term alike.
    """
    mesh, model = plan.mesh, plan.model
    src = chem_source_value(model, state.u if u_source is None else u_source)
    rhs = mesh.cell_measures * src
    if model.chem_dynamics == _model.CHEM_PARABOLIC:
        rhs = rhs + mesh.cell_measures * state.c / plan.dt
    if beta:
        if u_source is not None:  # the correction is sourced from u^n
            src = chem_source_value(model, state.u)
        rhs = rhs + beta * _correction(state, model, mesh, src)
    return plan.chem_matrix, rhs


def assemble_cell_system(
    state: State, c_new: np.ndarray, plan: StepPlan
) -> tuple[SparseMatrix, np.ndarray]:
    """Assemble the cell-density system A u^{n+1} = F.

    ``c_new`` is the freshly solved chemoattractant field for the corrected
    and plain variants, or c^n for the lagged variant. Growth terms follow
    the semi-implicit splits: quadratic logistic adds r*m*u^n to both the
    diagonal and F; the cubic kind adds -m*u^n(1-u^n) to the diagonal only
    and requires every column slack m/dt - m*u^n(1-u^n) to stay positive,
    that is dt*max u^n(1-u^n) < 1.
    """
    mesh, model, dt = plan.mesh, plan.model, plan.dt
    mu, chi = model.cell_diffusion, model.chemo_sensitivity
    m = mesh.cell_measures
    u = state.u

    dc = mesh.edge_jumps(c_new)
    w_minus = limiter_S(plan.limiter, dc)  # S(dc) until w_plus is taken
    w_plus = np.multiply(w_minus, chi)
    w_plus += mu
    mesh.scale_edges(w_plus, mesh.tau_x, mesh.tau_y)
    # S(-x) = S(x) - x holds exactly in floating point on every branch
    w_minus -= dc
    w_minus *= chi
    w_minus += mu
    mesh.scale_edges(w_minus, mesh.tau_x, mesh.tau_y)

    # -w_minus at (a, b) and -w_plus at (b, a) for edge e joining a < b
    data, diag, upper, lower = _five_point_rows(mesh, plan.chem_matrix.offsets)
    plus, minus = mesh.edge_grids(w_plus), mesh.edge_grids(w_minus)
    for row, weights in zip(upper + lower, minus + plus):
        np.negative(weights, out=row)
    np.divide(m, dt, out=diag)
    _add_outflow(diag, mesh, plus, minus)
    rhs = m * u / dt
    if model.growth == _model.GROWTH_QUADRATIC:
        growth = model.growth_rate * m * u
        diag += growth
        rhs += growth
    elif model.growth == _model.GROWTH_CUBIC:
        diag -= m * u * (1.0 - u)
        worst = float(np.max(u * (1.0 - u)))
        if dt * worst >= 1.0:
            raise SchemeError(
                f"cubic growth left a column of the cell matrix without dominance "
                f"at step {state.step_index} (t={state.step_index * dt:.6g}) with "
                f"dt={dt:.6g}; reduce dt below the largest admissible dt {1.0 / worst:.6g}"
            )

    data.setflags(write=False)  # hand the fresh array over without a copy
    return plan.chem_matrix.with_data(data), rhs


def _require_nonnegative(field: np.ndarray, name: str, step_index: int, rel_tol=0.0):
    """Raise unless ``field``, the ``name`` field of state ``step_index``,
    stays at or above -rel_tol * max(field, 0). u is held to rel_tol 0:
    the next step's chem source refuses any negative density, so every u
    this check passes is one the next step accepts."""
    floor = -rel_tol * max(float(field.max()), 0.0) if rel_tol else 0.0
    worst = float(field.min())
    if worst < floor:
        raise SchemeError(
            f"{name} went negative at step {step_index}: min={worst:.3e}, "
            f"allowed {floor:.3e} (assembly bug?)"
        )


def _check_chem_positivity(c_new: np.ndarray, g_vec: np.ndarray, step_index: int):
    # A nonnegative right-hand side makes c >= 0 a hard guarantee (M-matrix
    # inverse is positive); breaking it then means an assembly/solver bug.
    # With the fixed beta = 1 policy the corrected right-hand side can dip
    # below zero under violent density drops, and a transiently negative c
    # is then the scheme's true output, not a defect.
    if float(g_vec.min()) >= -1e-15 * max(float(np.abs(g_vec).max()), 1.0):
        _require_nonnegative(c_new, "c", step_index, 1e-12)
    elif float(c_new.min()) < 0.0:
        log.warning(
            "chem right-hand side had negative entries (min %.3e); "
            "c dips to %.3e this step",
            float(g_vec.min()),
            float(c_new.min()),
        )


def _check_structure(matrix, expected_slack, by, what):
    report = check_m_matrix_pattern(matrix, by)
    if not report.diag_positive or not report.offdiag_nonpositive:
        raise SchemeError(f"{what} lost the M-matrix sign pattern")
    slack = report.row_slack if by == "rows" else report.col_slack
    if np.any(slack < (1.0 - 1e-12) * expected_slack):
        raise SchemeError(f"{what} dominance slack fell below the assembled value")


def step(state: State, plan: StepPlan) -> State:
    """Advance one time step, of the plan's dt, with the plan's variant.

    Corrected/plain: chem solve first, then the cell solve against the new
    field. Lagged: cell solve against c^n first, then the chem solve with
    the u^{n+1} source. Returns a new State with u_prev <- u^n.

    The step checks what only it sees: positivity of the new u and c and,
    with ``check_matrices``, the cell matrix's structure (B's was checked
    when the plan was built). The run's invariants are the run monitor's.
    """
    kind = plan.variant.kind
    if kind == VARIANT_ORACLE:
        return step_coupled_oracle(state, plan)
    solve = plan.solver.solve

    if kind == VARIANT_LAGGED:
        a_mat, f_vec = assemble_cell_system(state, state.c, plan)
        u_new, _ = solve(a_mat, f_vec)
        b_mat, g_vec = assemble_chem_system(state, plan, u_source=u_new)
        c_new, _ = solve(b_mat, g_vec)
    else:
        beta = 1.0 if kind == VARIANT_CORRECTED else 0.0
        if kind == VARIANT_CORRECTED and plan.variant.beta_policy == BETA_FORMULA:
            beta = beta_n(state, plan.mesh)
        b_mat, g_vec = assemble_chem_system(state, plan, beta)
        c_new, _ = solve(b_mat, g_vec)
        a_mat, f_vec = assemble_cell_system(state, c_new, plan)
        u_new, _ = solve(a_mat, f_vec)

    if plan.check_matrices:
        model, m = plan.model, plan.mesh.cell_measures
        expected_a = m / plan.dt
        if model.growth == _model.GROWTH_QUADRATIC:
            expected_a = expected_a + model.growth_rate * m * state.u
        elif model.growth == _model.GROWTH_CUBIC:
            expected_a = expected_a - m * state.u * (1.0 - state.u)
        _check_structure(a_mat, expected_a, "cols", "cell matrix")

    n_new = state.step_index + 1
    _require_nonnegative(u_new, "u", n_new)
    _check_chem_positivity(c_new, g_vec, n_new)
    return State(u_new, c_new, state.u, n_new)


def step_coupled_oracle(
    state: State, plan: StepPlan, cell_limit: int = DEFAULT_ORACLE_CELL_LIMIT
) -> State:
    """One step of the fully coupled scheme via fixed-point iteration.

    Starts from the plain decoupled chem solve, then alternates cell and
    chem solves (the latter sourced from the current u iterate) until the
    max-norm change of (u, c) drops to ``ORACLE_TOL``, within
    ``ORACLE_MAX_ITER`` iterations. The plan's variant is not read.
    Intended as a small-scale accuracy reference; refuses meshes above
    ``cell_limit`` cells.
    """
    n_cells = plan.mesh.n_cells
    if n_cells > cell_limit:
        raise SchemeError(
            f"coupled oracle limited to {cell_limit} cells, mesh has {n_cells}"
        )
    solve = plan.solver.solve
    b_mat, g_vec = assemble_chem_system(state, plan)
    c_k, _ = solve(b_mat, g_vec)
    u_k = state.u
    delta = np.inf
    for _ in range(ORACLE_MAX_ITER):
        a_mat, f_vec = assemble_cell_system(state, c_k, plan)
        u_next, _ = solve(a_mat, f_vec)
        b_mat, g_vec = assemble_chem_system(state, plan, u_source=u_next)
        c_next, _ = solve(b_mat, g_vec)
        delta = max(
            float(np.max(np.abs(u_next - u_k))), float(np.max(np.abs(c_next - c_k)))
        )
        u_k, c_k = u_next, c_next
        if delta <= ORACLE_TOL:
            n_new = state.step_index + 1
            _require_nonnegative(u_k, "u", n_new)
            _require_nonnegative(c_k, "c", n_new, 1e-12)
            return State(u_k, c_k, state.u, n_new)
    raise SchemeError(
        f"coupled oracle did not converge in {ORACLE_MAX_ITER} iterations "
        f"(last change {delta:.3e}, tol {ORACLE_TOL:.3e})"
    )
