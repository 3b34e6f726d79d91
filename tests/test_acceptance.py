"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The desk-scale analogue used throughout is a 48x48 grid on (-3.5, 3.5)^2
with the stripe-experiment coefficients (mu=0.25, a=2, elliptic saturated
chemoattractant), horizon T_f=10 and the fixed seed 42; the full published
configurations (12250 cells, T_f=150, 150k reference steps) are hours of
compute and are exercised only through their presets.

Run with `pytest tests/test_acceptance.py -v`; the per-criterion lines
print regardless of capture mode.
"""

import contextlib
import io
import time
from contextlib import contextmanager

import numpy as np
import pytest
import yaml
from scipy import ndimage, special
from scipy.signal import find_peaks

from chemofv import (
    FluxLimiter,
    InitialConditionSpec,
    LinearSolver,
    ModelSpec,
    RunConfig,
    SchemeVariant,
    State,
    StepPlan,
    assemble_cell_system,
    assemble_chem_system,
    beta_n,
    build_uniform_rect_mesh,
    check_m_matrix_pattern,
    convergence_study,
    gradient_energy,
    limiter_S,
    make_initial_state,
    preset,
    run,
    step,
)
from chemofv.cli import main as cli_main
from chemofv.model import CHEM_PARABOLIC, RectRegion
from chemofv.scheme import (
    BETA_FORMULA,
    VARIANT_CORRECTED,
    VARIANT_LAGGED,
    VARIANT_PLAIN,
)
from oracles import dense_gauss_solve

SEED = 42
DESK_RANGE = (-3.5, 3.5)
DESK_N = 48
DESK_TFINAL = 10.0
STUDY_DTS = [1e-1, 5e-2, 1e-2]

CORRECTED = SchemeVariant(kind=VARIANT_CORRECTED)
PLAIN = SchemeVariant(kind=VARIANT_PLAIN)
LAGGED = SchemeVariant(kind=VARIANT_LAGGED)


@contextmanager
def criterion(capsys, num, title):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num:2d} FAIL: {title}")
        raise
    with capsys.disabled():
        print(f"criterion {num:2d} PASS: {title}")


def desk_mesh():
    return build_uniform_rect_mesh(DESK_RANGE, DESK_RANGE, DESK_N, DESK_N)


def desk_ic(base_c=0.0):
    return InitialConditionSpec(
        base_u=1.0,
        region=RectRegion(-4.5, 4.5, -1.0, 1.0),
        rng_seed=SEED,
        base_c=base_c,
    )


def desk_model(**kwargs):
    return ModelSpec(cell_diffusion=0.25, chemo_sensitivity=2.0, **kwargs)


@pytest.fixture(scope="module")
def desk_run():
    """Criteria 1-2: 1000 strict steps at dt=1e-2, diagnostics every step."""
    mesh = desk_mesh()
    cfg = RunConfig(
        mesh=mesh,
        model=desk_model(),
        ic=desk_ic(),
        variant=CORRECTED,
        dt=1e-2,
        t_final=DESK_TFINAL,
        epsilon=1e-6,
        diagnostics_every=1,
        strict=True,
        check_matrices=True,
    )
    energies = []
    t0 = time.perf_counter()
    final, diagnostics, _ = run(
        cfg, observer=lambda s: energies.append(gradient_energy(s.c, mesh))
    )
    elapsed = time.perf_counter() - t0
    return mesh, final, diagnostics, np.array(energies), elapsed


@pytest.fixture(scope="module")
def desk_study():
    """Criteria 3-4: reference dt=1e-4 (eps=0), members at eps=1e-6."""
    base = RunConfig(
        mesh=desk_mesh(),
        model=desk_model(),
        ic=desk_ic(),
        variant=CORRECTED,
        dt=1e-4,
        t_final=DESK_TFINAL,
        diagnostics_every=0,
        strict=True,
        check_matrices=True,
    )
    t0 = time.perf_counter()
    report = convergence_study(base, STUDY_DTS, [CORRECTED, PLAIN])
    elapsed = time.perf_counter() - t0
    return report, elapsed


@pytest.fixture(scope="module")
def desk_study_parabolic():
    """Criterion 5: parabolic-parabolic analogue, three variants."""
    base = RunConfig(
        mesh=desk_mesh(),
        model=desk_model(chem_dynamics=CHEM_PARABOLIC),
        ic=desk_ic(base_c=1.0 / 32.0),
        variant=CORRECTED,
        dt=1e-3,
        t_final=DESK_TFINAL,
        diagnostics_every=0,
        strict=True,
        check_matrices=True,
    )
    t0 = time.perf_counter()
    report = convergence_study(base, STUDY_DTS, [CORRECTED, PLAIN, LAGGED])
    elapsed = time.perf_counter() - t0
    return report, elapsed


def test_criterion_01_positivity_and_mass_conservation(desk_run, capsys):
    _, _, diagnostics, _, elapsed = desk_run
    with criterion(capsys, 1, "positivity and mass conservation"):
        min_u = diagnostics.column("min_u")
        min_c = diagnostics.column("min_c")
        mass = diagnostics.column("mass")
        assert len(diagnostics.records) == 1001  # initial + every one of 1000 steps
        assert min_u.min() >= -1e-12
        assert min_c.min() >= -1e-12
        assert np.max(np.abs(mass - mass[0])) <= 1e-10 * mass[0]
        assert elapsed <= 60.0, f"run took {elapsed:.1f}s"


def test_criterion_02_chemoattractant_bounds(desk_run, capsys):
    mesh, _, diagnostics, energies, _ = desk_run
    with criterion(capsys, 2, "chemoattractant bound and gradient energy"):
        max_c = diagnostics.column("max_c")
        assert max_c.max() <= 2.0 + 1e-12
        assert energies.shape == (1000,)  # recorded at every step
        assert energies.max() <= 4.0 * mesh.domain_area


@pytest.mark.slow
def test_criterion_03_temporal_convergence_orders(desk_study, capsys):
    report, elapsed = desk_study
    with criterion(capsys, 3, "temporal convergence orders"):
        corr_rates = [r.rate for r in report.tables[VARIANT_CORRECTED] if r.rate]
        plain_rates = [r.rate for r in report.tables[VARIANT_PLAIN] if r.rate]
        assert corr_rates and plain_rates
        assert all(0.7 <= r <= 1.2 for r in corr_rates), corr_rates
        assert all(0.6 <= r <= 1.2 for r in plain_rates), plain_rates
        assert elapsed <= 15 * 60.0, f"study took {elapsed / 60:.1f} min"
    with capsys.disabled():
        print(
            f"  corrected rates {[f'{r:.3f}' for r in corr_rates]}, "
            f"plain rates {[f'{r:.3f}' for r in plain_rates]}"
        )


@pytest.mark.slow
def test_criterion_04_correction_advantage(desk_study, capsys):
    report, _ = desk_study
    with criterion(capsys, 4, "corrected error <= 0.5 x plain error at every dt"):
        ratios = []
        for corr_row, plain_row in zip(
            report.tables[VARIANT_CORRECTED], report.tables[VARIANT_PLAIN]
        ):
            assert corr_row.dt == plain_row.dt
            assert corr_row.error <= 0.5 * plain_row.error, (
                f"dt={corr_row.dt}: {corr_row.error} vs {plain_row.error}"
            )
            ratios.append(plain_row.error / corr_row.error)
    with capsys.disabled():
        print(f"  accuracy advantage {[f'{r:.1f}x' for r in ratios]}")


@pytest.mark.slow
def test_criterion_05_parabolic_variant_ordering(desk_study_parabolic, capsys):
    report, _ = desk_study_parabolic
    with criterion(capsys, 5, "parabolic ordering corrected < plain <= 1.05 lagged"):
        for corr_row, plain_row, lag_row in zip(
            report.tables[VARIANT_CORRECTED],
            report.tables[VARIANT_PLAIN],
            report.tables[VARIANT_LAGGED],
        ):
            assert corr_row.error < plain_row.error, f"dt={corr_row.dt}"
            assert plain_row.error <= 1.05 * lag_row.error, f"dt={corr_row.dt}"


def test_criterion_06_oracle_dominance(tmp_path, capsys):
    doc = {
        "domain": {"x_range": [-1.0, 1.0], "y_range": [-1.0, 1.0], "nx": 8, "ny": 8},
        "model": {"mu": 0.25, "chi": 2.0},
        "time": {"dt": 0.5, "t_final": 1.0},
        "ic": {
            "base_u": 1.0,
            "seed": SEED,
            "region": {
                "kind": "rect",
                "x_min": -10.0,
                "x_max": 10.0,
                "y_min": -0.5,
                "y_max": 0.5,
            },
        },
        "output": {"directory": str(tmp_path / "out")},
    }
    cfg = tmp_path / "oracle.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    with criterion(capsys, 6, "one corrected step beats one plain step vs oracle"):
        t0 = time.perf_counter()
        results = {}
        for dt in (0.5, 0.1, 0.01):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli_main(["oracle-check", str(cfg), "--set", f"time.dt={dt}"])
            assert code == 0
            d_corr, d_plain = (
                float(line.rsplit("=", 1)[1])
                for line in buf.getvalue().splitlines()
                if line.startswith("distance(")
            )
            assert d_corr < d_plain, f"dt={dt}: {d_corr} vs {d_plain}"
            results[dt] = (d_corr, d_plain)
        elapsed = time.perf_counter() - t0
        assert elapsed <= 10.0, f"oracle checks took {elapsed:.1f}s"


def test_criterion_07_limiter_property_suite(capsys):
    rng = np.random.default_rng(SEED)
    with criterion(capsys, 7, "limiter identity, bounds and branch boundaries"):
        for mu, a, eps in [(0.25, 2.0, 0.0), (0.25, 2.0, 1e-6), (0.0625, 6.0, 1e-6)]:
            lim = FluxLimiter(mu, a, eps)
            x = rng.standard_normal(10_000) * (4.0 * lim.threshold + 1.0)
            s_pos = limiter_S(lim, x)
            s_neg = limiter_S(lim, -x)
            assert np.all(np.abs((s_pos - s_neg) - x) <= np.spacing(np.abs(x)))
            assert np.all(s_pos <= np.abs(x))
            assert np.all(mu + a * s_pos >= eps - 1e-15)
            t = lim.threshold
            assert limiter_S(lim, t) == t / 2.0
            assert limiter_S(lim, np.nextafter(t, 2 * t)) == np.nextafter(t, 2 * t)
            assert limiter_S(lim, -t) == -t / 2.0
            assert limiter_S(lim, np.nextafter(-t, -2 * t)) == 0.0


@pytest.mark.slow
def test_criterion_08_matrix_structure(desk_run, desk_study, capsys):
    # The heavy runs behind criteria 1-5 all executed with per-step matrix
    # checking enabled (check_matrices=True), which raises on any slack or
    # sign-pattern violation; here the slack identities are verified
    # explicitly on representative assemblies from the same configurations.
    solver = LinearSolver()
    with criterion(capsys, 8, "assembled matrices keep the M-matrix structure"):
        rng = np.random.default_rng(SEED)
        for dynamics in ("elliptic", "parabolic"):
            model = desk_model(chem_dynamics=dynamics)
            mesh = build_uniform_rect_mesh((-1.0, 1.0), (-1.0, 1.0), 8, 8)
            for dt in (0.5, 1e-2, 1e-4):
                plan = StepPlan(mesh, model, 1e-6, CORRECTED, dt, solver)
                state = make_initial_state(mesh, desk_ic(base_c=1.0 / 32.0))
                state = step(state, plan)
                n = mesh.n_cells
                state = State(
                    u=rng.random(n) * 2.0,
                    c=state.c,
                    u_prev=state.u,
                    step_index=state.step_index,
                )
                beta = beta_n(state, mesh)
                b_mat, _ = assemble_chem_system(state, plan, beta)
                a_mat, _ = assemble_cell_system(state, state.c, plan)
                m = mesh.cell_measures
                b_signs, b_slack = check_m_matrix_pattern(b_mat)
                a_signs, a_slack = check_m_matrix_pattern(a_mat)
                assert b_signs and a_signs
                expected_b = model.chem_decay * m
                if dynamics == "parabolic":
                    expected_b = expected_b + m / dt
                assert np.all(b_slack >= (1 - 1e-12) * expected_b)
                assert np.all(a_slack >= (1 - 1e-12) * m / dt)


def test_criterion_09_beta_contract(capsys):
    # 100 random states x 100 cells = 1e4 nonnegative (u^n, u^{n-1}) pairs
    mesh = build_uniform_rect_mesh((0.0, 10.0), (0.0, 10.0), 10, 10)  # m(K) = 1
    model = desk_model()
    variant = SchemeVariant(kind=VARIANT_CORRECTED, beta_policy=BETA_FORMULA)
    plan = StepPlan(mesh, model, 0.0, variant, 0.1)
    rng = np.random.default_rng(SEED)
    with criterion(capsys, 9, "beta in (0, 1] and corrected chem RHS nonnegative"):
        for _ in range(100):
            n = mesh.n_cells
            state = State(
                u=rng.random(n) * 4.0,
                c=rng.random(n),
                u_prev=rng.random(n) * 4.0,
                step_index=1,
            )
            beta = beta_n(state, mesh)
            assert 0.0 < beta <= 1.0
            _, g_vec = assemble_chem_system(state, plan, beta)
            assert g_vec.min() >= -1e-15, f"min RHS {g_vec.min()}"


def test_criterion_10_solver_oracle_equivalence(capsys):
    rng = np.random.default_rng(SEED)
    solver = LinearSolver()
    with criterion(capsys, 10, "production solves match dense elimination"):
        for trial in range(500):
            nx = int(rng.integers(2, 9))
            ny = int(rng.integers(2, 9))
            mesh = build_uniform_rect_mesh((0.0, float(nx)), (0.0, float(ny)), nx, ny)
            n = mesh.n_cells
            dt = float(rng.choice([5.0, 0.1, 1e-3]))
            parabolic = bool(rng.integers(2))
            model = desk_model(chem_dynamics="parabolic" if parabolic else "elliptic")
            state = State(
                u=rng.random(n) * 3.0,
                c=rng.random(n),
                u_prev=rng.random(n) * 3.0,
                step_index=1,
            )
            plan = StepPlan(mesh, model, 1e-6, PLAIN, dt, solver)
            b_mat, g_vec = assemble_chem_system(state, plan)
            a_mat, f_vec = assemble_cell_system(state, state.c, plan)
            for matrix, rhs in ((b_mat, g_vec), (a_mat, f_vec)):
                x, _ = solver.solve(matrix, rhs)
                want = dense_gauss_solve(matrix.to_dense(), rhs)
                assert np.max(np.abs(x - want)) <= 1e-10, f"trial {trial}"


def test_criterion_11a_ring_pattern(capsys):
    p3 = preset("test3")
    mesh = build_uniform_rect_mesh(p3.x_range, p3.y_range, 64, 64)
    cfg = RunConfig(
        mesh=mesh,
        model=p3.model,
        ic=p3.ic,
        variant=CORRECTED,
        dt=1e-2,
        t_final=30.0,
        strict=True,
        diagnostics_every=0,
    )
    with criterion(capsys, 11, "chemotaxis-growth run forms rings (radial maxima)"):
        t0 = time.perf_counter()
        final, _, _ = run(cfg)
        elapsed = time.perf_counter() - t0
        radius = np.hypot(mesh.x_centers, mesh.y_centers[:, None]).ravel()
        nbins = 40
        edges = np.linspace(0.0, float(radius.max()), nbins + 1)
        which = np.digitize(radius, edges[1:-1])
        profile = np.array([final.u[which == i].mean() for i in range(nbins)])
        peaks, _ = find_peaks(profile, prominence=0.05)
        assert len(peaks) >= 2, f"radial profile peaks: {peaks}"
        assert elapsed <= 10 * 60.0, f"run took {elapsed / 60:.1f} min"
    with capsys.disabled():
        print(f"  {len(peaks)} radial maxima, u in [{final.u.min():.2f}, {final.u.max():.2f}]")


def test_criterion_11b_spot_pattern(capsys):
    # chi=80 spot field at t=30; dt=0.05 keeps the spot crests above the
    # detection threshold on the 150x150 grid
    p4 = preset("test4", chi=80.0)
    mesh = build_uniform_rect_mesh(p4.x_range, p4.y_range, p4.nx, p4.ny)
    cfg = RunConfig(
        mesh=mesh,
        model=p4.model,
        ic=p4.ic,
        variant=CORRECTED,
        dt=0.05,
        t_final=30.0,
        strict=True,
        diagnostics_every=0,
    )
    with criterion(capsys, 11, "chi=80 run forms >= 10 disjoint spots"):
        t0 = time.perf_counter()
        final, _, _ = run(cfg)
        elapsed = time.perf_counter() - t0
        above = final.u.reshape(mesh.ny, mesh.nx) > 1.5
        _, n_spots = ndimage.label(above)
        assert n_spots >= 10, f"found {n_spots} spots"
        assert elapsed <= 10 * 60.0, f"run took {elapsed / 60:.1f} min"
    with capsys.disabled():
        print(f"  {n_spots} spots above u=1.5, max u {final.u.max():.2f}")


REFINE_RANGE = (-5.0, 5.0)
REFINE_NS = (16, 32, 64, 128)


def bump_cell_averages(mesh):
    """Exact cell averages of u0 = 1 + exp(-(x - 1)^2 - y^2) / 2, so the
    2x2 averages of a fine mesh's u0 are the coarse mesh's u0."""

    def mean_exp(edges, shift):  # mean of exp(-(s - shift)^2) over each interval
        return np.sqrt(np.pi) / 2 * np.diff(special.erf(edges - shift)) / np.diff(edges)

    x_edges = np.linspace(*mesh.x_range, mesh.nx + 1)
    y_edges = np.linspace(*mesh.y_range, mesh.ny + 1)
    return 1.0 + 0.5 * np.outer(mean_exp(y_edges, 0.0), mean_exp(x_edges, 1.0)).ravel()


def refinement_study(chi):
    """Corrected runs of the elliptic saturated model (mu = 0.25, eps =
    1e-6) to T = 1 at dt = 1e-3 on each mesh of REFINE_NS. Returns the
    observed orders of u and c, each from the RMS of u_h - R(u_{h/2}) (R
    the 2x2 average) on successive meshes, and the largest jump of c in the
    run over the limiter threshold on each mesh."""
    model = ModelSpec(cell_diffusion=0.25, chemo_sensitivity=chi)
    finals, jump_ratios = [], []
    for n in REFINE_NS:
        mesh = build_uniform_rect_mesh(REFINE_RANGE, REFINE_RANGE, n, n)
        u0 = bump_cell_averages(mesh)
        state = State(u=u0, c=np.zeros_like(u0), u_prev=u0.copy())
        plan = StepPlan(mesh, model, 1e-6, CORRECTED, 1e-3)
        largest = 0.0
        for _ in range(1000):
            state = step(state, plan)
            grid = state.c.reshape(n, n)  # the jumps across x- and y-normal edges
            jumps = (np.diff(grid, axis=1), np.diff(grid, axis=0))
            largest = max(largest, *(float(np.abs(j).max()) for j in jumps))
        finals.append(state)
        jump_ratios.append(largest / plan.limiter.threshold)
    orders = {}
    for name in ("u", "c"):
        errors = []
        for n, coarse, fine in zip(REFINE_NS, finals, finals[1:]):
            restricted = getattr(fine, name).reshape(n, 2, n, 2).mean(axis=(1, 3)).ravel()
            errors.append(np.sqrt(np.mean((getattr(coarse, name) - restricted) ** 2)))
        orders[name] = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    return orders, jump_ratios


# The gate, set from the scheme: two-point fluxes and central convection
# are second order on a uniform grid, and one dt for every mesh leaves the
# time error out of u_h - R(u_{h/2}). At chi = 2 every jump of c stays
# below the limiter threshold, so the orders lie within 0.25 of 2. At
# chi = 20 the coarse meshes upwind, which is first order and switches off
# as the mesh is refined: the orders are at least 0.9, with no upper bound.
@pytest.mark.slow
@pytest.mark.parametrize("chi", [2.0, 20.0])
def test_criterion_12_spatial_convergence_orders(chi, capsys):
    with criterion(capsys, 12, f"spatial convergence orders at chi={chi:g}"):
        orders, jump_ratios = refinement_study(chi)
        if chi == 2.0:
            assert max(jump_ratios) < 1.0, jump_ratios  # central fluxes only
            for name, found in orders.items():
                assert np.all(np.abs(found - 2.0) <= 0.25), (name, found)
        else:
            assert jump_ratios[0] > 1.0, jump_ratios  # upwinding active
            for name, found in orders.items():
                assert np.all(found >= 0.9), (name, found)
    with capsys.disabled():
        print(
            f"  orders u {np.round(orders['u'], 3).tolist()}, "
            f"c {np.round(orders['c'], 3).tolist()}; largest jump of c over the "
            f"threshold {np.round(jump_ratios, 3).tolist()}"
        )
