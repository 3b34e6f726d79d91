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
from operator import ge, gt, lt, ne

import numpy as np

from . import model as _model
# check_m_matrix_pattern is not called here: bench/tracer.py wraps this binding
from .linalg import LinearSolver, SparseMatrix, check_m_matrix_pattern, dct_solve
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

ORACLE_CELL_LIMIT = 4096  # largest mesh the coupled oracle accepts
ORACLE_TOL = 1e-12  # max-norm change of (u, c) that ends the fixed point
ORACLE_MAX_ITER = 200


class SchemeError(RuntimeError):
    """Assembly or stepping violated a scheme precondition or invariant."""


class InvariantError(RuntimeError):
    """A run invariant broke: mass drifted, or c or its gradient energy left
    the bound the theory gives. Every run raises it."""


_NEGATIVE = " went negative at step {step}: min={value:.3e}, allowed {bound:.3e} (assembly bug?)"

# Every invariant checked: name -> (error raised or None if only logged, break
# test, message); ``test(value, bound)`` means a break. ``A signs``, checked on
# every cell assembly, holds (True) when every edge weight w = mu + chi S is
# >= 0, NaN failing, so A's off-diagonals -tau w are <= 0. A's column slack
# m/dt + growth is positive (``ModelSpec`` refuses r < 0; cubic growth has
# ``cubic dt``), so its diagonal, slack plus sum tau w, is too: every column
# is strictly dominant. B needs no run-time check: its off-diagonals -tau_x,
# -tau_y and slack (gamma + [1/dt]) m come from validated inputs.
INVARIANTS = {
    "u >= 0": (SchemeError, lt, "u" + _NEGATIVE),
    "c >= 0": (SchemeError, lt, "c" + _NEGATIVE),
    "c dip": (None, lt, "chem right-hand side had negative entries "
              "(min {rhs_min:.3e}); c dips to {value:.3e} this step"),
    "A signs": (SchemeError, ne, "cell matrix lost the M-matrix sign pattern"),
    "cubic dt": (SchemeError, ge, "cubic growth left a column of the cell matrix without "
                 "dominance at step {step} (t={time:.6g}) with dt={dt:.6g}; reduce dt "
                 "below the largest admissible dt {admissible:.6g}"),
    "step mass": (InvariantError, gt, "mass drifted within step {step}: {prev} -> {mass}"),
    "mass": (InvariantError, gt, "mass drift at step {step}: {mass0} -> {mass}"),
    "c bound": (InvariantError, gt,
                "max c = {value} breaks the bound {name} = {limit} at step {step}"),
    "energy": (InvariantError, gt,
               "c's gradient energy {value} exceeds {name} = {bound} at step {step}"),
}


def enforce(invariant, value, bound, step, logged=None, **fields):
    """The one place that raises for an invariant or logs one: a break
    raises the error its row of ``INVARIANTS`` names, in every run (no run
    option changes that: ``RunConfig`` reads neither ``strict`` nor
    ``check_matrices``); a row that names none is logged unless in ``logged``,
    the run's set of invariants logged, which it joins. Formats a message
    only on a break."""
    error, breaks, message = INVARIANTS[invariant]
    if not breaks(value, bound) or (error is None and invariant in (logged or ())):
        return
    text = message.format(value=value, bound=bound, step=step, **fields)
    if error is not None:
        raise error(text)
    if logged is not None:
        logged.add(invariant)
    log.warning("%s", text)


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
    if arr.ndim == 0:
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


def _correction(state: State, model: ModelSpec, mesh: Mesh, src_now) -> np.ndarray:
    """Lagged chem-source increment T_K = m(K)(src(u^n) - src(u^{n-1})),
    given ``src_now``, the source of ``state.u``. Zero at step 0 because
    u_prev equals u there.
    """
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


def _operator_data(mesh: Mesh, offsets: np.ndarray, slack, plus, minus):
    """A five-point operator's data on ``mesh``'s DIA layout, whose sorted
    ``offsets`` are ``mesh.adjacency_csr()``, and a writable view of its
    diagonal: ``(data, diag)``.

    ``plus`` and ``minus`` are (x-normal, y-normal) pairs of edge weights
    in cell layout, or scalars standing for them: edge (K, K+1) at K, the
    slot of each mesh row's last cell a pad, and edge (K, K+nx) at K. For
    the edge joining a < b, entry (b, a) is -tau plus and (a, b) is -tau
    minus, each row written by one product; pads and entries outside the
    matrix are +0.0. The diagonal is the column ``slack`` less the
    column's off-diagonal sums, the lower rows' and then the upper rows',
    so column K sums to ``slack`` up to round-off.
    """
    nx, n = mesh.nx, mesh.n_cells
    data = np.empty((offsets.size, n))
    rows = dict(zip(offsets.tolist(), data))  # offset -> its row, a view
    directions = ((1, mesh.tau_x, nx), (nx, mesh.tau_y, mesh.ny))
    for (step, tau, width), w_plus, w_minus in zip(directions, plus, minus):
        if width == 1:  # one cell wide: no edges in this direction
            continue
        below, above = rows[-step], rows[step]
        np.multiply(w_plus, -tau, out=below[: n - step])  # (K+step, K) at column K
        np.multiply(w_minus, -tau, out=above[step:])  # (K, K+step) at column K+step
        below[n - step :] = above[:step] = 0.0
    if nx > 1:
        rows[-1][nx - 1 :: nx] = rows[1][::nx] = 0.0  # no edge from a row's last cell
    zero = offsets.size // 2  # the offsets are symmetric about 0
    diag = data[zero]
    np.add.reduce(data[:zero], axis=0, out=diag)
    np.subtract(slack, diag, out=diag)
    diag -= np.add.reduce(data[zero + 1 :], axis=0)
    return data, diag


def chem_operator(mesh: Mesh, chem_decay: float, dt: float | None) -> SparseMatrix:
    """The chem operator B of a run: -tau_x on the +-1 diagonals, -tau_y on
    the +-nx ones, and on the diagonal the sum of a cell's edge taus plus
    gamma*m(K) (and m(K)/dt when ``dt`` is given, for parabolic dynamics).

    B depends on nothing else, so a run's ``StepPlan`` builds it once and
    every step solves with that object; each call builds a new B. On the
    uniform rectangle B is tau_x T_nx (x) I + tau_y I (x) T_ny plus
    (gamma + [1/dt]) hx hy I, with T_n the 1-D Neumann second difference,
    which the DCT-II diagonalises with eigenvalues 2(1 - cos(pi k / n)).
    The eigenvalue grid is built here and B is built with its exact solve
    by the transform (``dct_solve``); B is never factorized. B stays
    assembled for the residual check. A singular B (gamma = 0, elliptic)
    raises ``SolverError`` here.
    """
    m = mesh.cell_measures
    offsets = mesh.adjacency_csr()
    data, diag = _operator_data(mesh, offsets, 0.0, (1.0, 1.0), (1.0, 1.0))
    diag += chem_decay * m
    if dt is not None:
        diag += m / dt
    data.setflags(write=False)  # hand the fresh array over without a copy

    def neumann_eigenvalues(n):
        return 2.0 * (1.0 - np.cos(np.pi * np.arange(n) / n))

    shift = chem_decay if dt is None else chem_decay + 1.0 / dt
    eigenvalues = (
        mesh.tau_x * neumann_eigenvalues(mesh.nx)[None, :]
        + mesh.tau_y * neumann_eigenvalues(mesh.ny)[:, None]
        + shift * mesh.dx * mesh.dy
    )
    return SparseMatrix(offsets, data, dct_solve(eigenvalues))


@dataclass(frozen=True, eq=False)
class StepPlan:
    """What stays constant for a run: its mesh, model, limiter constant
    ``epsilon``, variant, dt and solver, and what they determine: the flux
    limiter (``limiter``, with the model's mu and chi), the chem operator B
    (``chem_matrix``, with its DCT solve) and the run's ``invariants``
    (``_invariants``). B's offsets array is the run's layout: every step's
    cell operator is built on that same array. A state carries no dt; every
    step of it is the plan's. Building the plan checks that dt is positive
    and finite and that epsilon lies in [0, mu]; B is then an M-matrix by
    construction (see ``INVARIANTS``).
    """

    mesh: Mesh
    model: ModelSpec
    epsilon: float
    variant: SchemeVariant
    dt: float
    solver: LinearSolver = field(default_factory=LinearSolver)
    limiter: FluxLimiter = field(init=False, repr=False)
    chem_matrix: SparseMatrix = field(init=False, repr=False)
    invariants: dict = field(init=False, repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise SchemeError(f"a step plan needs a positive, finite dt, got {self.dt}")
        model = self.model
        limiter = FluxLimiter(model.cell_diffusion, model.chemo_sensitivity, self.epsilon)
        chem_dt = self.dt if model.chem_dynamics == _model.CHEM_PARABOLIC else None
        object.__setattr__(self, "limiter", limiter)
        object.__setattr__(self, "chem_matrix", chem_operator(self.mesh, model.chem_decay, chem_dt))
        object.__setattr__(self, "invariants", _invariants(self))


def _invariants(plan: StepPlan) -> dict:
    """The invariants a run of ``plan`` checks after each step, mapped to
    their (bound, name) if any: mass without growth, and for the elliptic
    saturated model bounds on c and its gradient energy: c <= 2/gamma and
    4*area/gamma for the corrected variant, 1/gamma and area/(4*gamma) else.

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
    of it."""
    model = plan.model
    invariants = dict.fromkeys(["step mass", "mass"] if model.growth == _model.GROWTH_NONE else [])
    if (model.chem_dynamics, model.chem_source) == (_model.CHEM_ELLIPTIC, _model.SOURCE_SATURATED):
        gamma, area = model.chem_decay, plan.mesh.domain_area
        corrected = plan.variant.kind == VARIANT_CORRECTED
        invariants["c bound"] = (2.0 / gamma, "2/gamma") if corrected else (1.0 / gamma, "1/gamma")
        invariants["energy"] = ((4.0 * area / gamma, "4*area/gamma") if corrected
                                else (area / (4.0 * gamma), "area/(4*gamma)"))
    return invariants


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
    ``u_source`` and no beta: the correction term reads g(u^n), which such
    a source is not, so a nonzero beta with a ``u_source`` raises
    ``ValueError``. g(u^n) is taken once, for the source and the correction
    term alike.
    """
    if beta and u_source is not None:
        raise ValueError("a chem system takes a nonzero beta or a u_source, not both")
    mesh, model = plan.mesh, plan.model
    src = chem_source_value(model, state.u if u_source is None else u_source)
    rhs = mesh.cell_measures * src
    if model.chem_dynamics == _model.CHEM_PARABOLIC:
        rhs = rhs + mesh.cell_measures * state.c / plan.dt
    if beta:
        rhs = rhs + beta * _correction(state, model, mesh, src)
    return plan.chem_matrix, rhs


def assemble_cell_system(
    state: State, c_new: np.ndarray, plan: StepPlan
) -> tuple[SparseMatrix, np.ndarray]:
    """Assemble the cell-density system A u^{n+1} = F.

    ``c_new`` is the freshly solved chemoattractant field for the corrected
    and plain variants, c^n for the lagged variant, or the current iterate
    for the coupled oracle. Growth terms follow the semi-implicit splits:
    quadratic logistic adds r*m*u^n to both the diagonal and F; the cubic
    kind adds -m*u^n(1-u^n) to the diagonal only and requires every column
    slack m/dt - m*u^n(1-u^n) to stay positive, that is
    dt*max u^n(1-u^n) < 1. Every call enforces ``A signs`` on the edge
    weights: A is then an M-matrix (see ``INVARIANTS``).
    """
    mesh, model, dt = plan.mesh, plan.model, plan.dt
    mu, chi = model.cell_diffusion, model.chemo_sensitivity
    m = mesh.cell_measures
    u = state.u

    # jumps, limiter and weights in the cell layout of ``_operator_data``
    c = mesh.cell_field(c_new)
    n_x = mesh.n_cells - 1
    dc = np.empty(n_x + mesh.n_cells - mesh.nx)
    np.subtract(c[1:], c[:-1], out=dc[:n_x])
    np.subtract(c[mesh.nx :], c[: -mesh.nx], out=dc[n_x:])
    w_minus = limiter_S(plan.limiter, dc)  # S(dc) until w_plus is taken
    w_plus = np.multiply(w_minus, chi)
    w_plus += mu
    # S(-x) = S(x) - x holds exactly in floating point on every branch
    w_minus -= dc
    w_minus *= chi
    w_minus += mu
    # the min of no weights (a one-cell mesh) is inf; a NaN weight fails
    signs = w_plus.min(initial=math.inf) >= 0.0 and w_minus.min(initial=math.inf) >= 0.0
    enforce("A signs", signs, True, state.step_index + 1)

    data, diag = _operator_data(mesh, plan.chem_matrix.offsets, m / dt,
                                (w_plus[:n_x], w_plus[n_x:]), (w_minus[:n_x], w_minus[n_x:]))
    rhs = m * u / dt
    if model.growth == _model.GROWTH_QUADRATIC:
        growth = model.growth_rate * m * u
        diag += growth
        rhs += growth
    elif model.growth == _model.GROWTH_CUBIC:
        growth = m * u * (u - 1.0)  # -m u (1 - u), bit for bit
        diag += growth
        worst = float(np.max(u * (1.0 - u)))
        enforce("cubic dt", dt * worst, 1.0, state.step_index, time=state.step_index * dt,
                dt=dt, admissible=1.0 / worst if worst else math.inf)

    data.setflags(write=False)  # hand the fresh array over without a copy
    return SparseMatrix(plan.chem_matrix.offsets, data), rhs


def step(state: State, plan: StepPlan, logged: set | None = None) -> State:
    """Advance one time step, of the plan's dt, with the plan's variant.

    Corrected/plain: chem solve first, then the cell solve against the new
    field. Lagged: cell solve against c^n first, then the chem solve with
    the u^{n+1} source. Returns a new State with u_prev <- u^n.

    Enforces what only a step sees: u >= 0, and c >= 0 or c's dip, once
    per ``logged`` set; the cell matrix is checked where it is assembled.
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
    return _next_state(state, u_new, c_new, g_vec, logged)


def _next_state(state: State, u_new, c_new, g_vec, logged=None) -> State:
    """The next State once u >= 0 holds, with no tolerance as the next chem
    source refuses any negative u, and c >= 0 where the chem right-hand side
    ``g_vec`` is; where it dips, as beta = 1 allows, c's dip is logged."""
    n_new = state.step_index + 1
    enforce("u >= 0", float(u_new.min()), 0.0, n_new)
    g_min, g_max = float(g_vec.min()), float(g_vec.max())  # max |g|, with no |g| array
    if g_min >= -1e-15 * max(abs(g_min), abs(g_max), 1.0):
        enforce("c >= 0", float(c_new.min()), -1e-12 * max(float(c_new.max()), 0.0), n_new)
    else:
        enforce("c dip", float(c_new.min()), 0.0, n_new, logged, rhs_min=g_min)
    return State(u_new, c_new, state.u, n_new)


def step_coupled_oracle(state: State, plan: StepPlan) -> State:
    """One step of the fully coupled scheme via fixed-point iteration.

    Starts from the plain decoupled chem solve, then alternates cell and
    chem solves (the latter sourced from the current u iterate) until the
    max-norm change of (u, c) drops to ``ORACLE_TOL``, within
    ``ORACLE_MAX_ITER`` iterations. The plan's variant is not read; each
    iterate's cell matrix is checked as in ``step``. Intended as a
    small-scale accuracy reference; refuses meshes above
    ``ORACLE_CELL_LIMIT`` cells.
    """
    n_cells = plan.mesh.n_cells
    if n_cells > ORACLE_CELL_LIMIT:
        raise SchemeError(
            f"coupled oracle limited to {ORACLE_CELL_LIMIT} cells, mesh has {n_cells}"
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
            return _next_state(state, u_k, c_k, g_vec)
    raise SchemeError(
        f"coupled oracle did not converge in {ORACLE_MAX_ITER} iterations "
        f"(last change {delta:.3e}, tol {ORACLE_TOL:.3e})"
    )
