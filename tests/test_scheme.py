from dataclasses import replace

import numpy as np
import pytest
import scipy.fft
import scipy.sparse as sp

from chemofv import (
    FluxLimiter,
    LinearSolver,
    ModelSpec,
    SchemeError,
    SchemeVariant,
    SolverError,
    SparseMatrix,
    State,
    StepPlan,
    assemble_cell_system,
    assemble_chem_system,
    beta_n,
    build_uniform_rect_mesh,
    chem_source_value,
    check_m_matrix_pattern,
    discrete_norm,
    limiter_S,
    make_initial_state,
    preset,
    step,
    step_coupled_oracle,
)
from chemofv import linalg, scheme
from chemofv.model import (
    CHEM_PARABOLIC,
    GROWTH_CUBIC,
    GROWTH_NONE,
    GROWTH_QUADRATIC,
    SOURCE_LINEAR,
    InitialConditionSpec,
    RectRegion,
)
from chemofv.scheme import (
    BETA_FORMULA,
    ORACLE_CELL_LIMIT,
    VARIANT_CORRECTED,
    VARIANT_KINDS,
    VARIANT_LAGGED,
    VARIANT_ORACLE,
    VARIANT_PLAIN,
    chem_operator,
)
from chemofv.linalg import spmv
from oracles import (
    LAYOUT_SHAPES,
    abs_sum_slacks,
    assemble_cell_reference,
    beta_brute_force,
    chem_operator_edge_list,
    dia_layout_loops,
    edge_list,
    limiter_where,
    splu_solve,
)

CORRECTED = SchemeVariant(kind=VARIANT_CORRECTED)
PLAIN = SchemeVariant(kind=VARIANT_PLAIN)
LAGGED = SchemeVariant(kind=VARIANT_LAGGED)


def elliptic_model(**kwargs):
    return ModelSpec(cell_diffusion=0.25, chemo_sensitivity=2.0, **kwargs)


def plan_of(mesh, model, dt=0.1, eps=0.0, variant=CORRECTED, **kwargs):
    """The StepPlan of ``model`` on ``mesh`` with limiter constant ``eps``."""
    return StepPlan(mesh, model, eps, variant, dt, **kwargs)


def correction_term(state, model, mesh):
    """The corrected step's lagged source increment T of ``state``."""
    return scheme._correction(state, model, mesh, chem_source_value(model, state.u))


def state_of(u, c=None, u_prev=None, step_index=1):
    u = np.asarray(u, dtype=float)
    c = np.zeros_like(u) if c is None else np.asarray(c, dtype=float)
    u_prev = (u.copy() if step_index == 0 else np.asarray(u_prev, dtype=float))
    return State(u=u, c=c, u_prev=u_prev, step_index=step_index)


class TestLimiter:
    def test_central_regime(self):
        lim = FluxLimiter(mu=0.25, a=2.0, eps=0.0)  # threshold 0.25
        assert limiter_S(lim, 0.2) == 0.1

    def test_zero(self):
        assert limiter_S(FluxLimiter(1.0, 3.0, 0.0), 0.0) == 0.0

    def test_upwind_regimes(self):
        lim = FluxLimiter(mu=0.25, a=2.0, eps=0.0)
        assert limiter_S(lim, 0.3) == 0.3
        assert limiter_S(lim, -0.3) == 0.0

    def test_branch_boundaries_both_sides(self):
        lim = FluxLimiter(mu=0.25, a=2.0, eps=0.0)
        t = lim.threshold
        assert limiter_S(lim, t) == t / 2.0
        assert limiter_S(lim, np.nextafter(t, np.inf)) == np.nextafter(t, np.inf)
        assert limiter_S(lim, -t) == -t / 2.0
        assert limiter_S(lim, np.nextafter(-t, -np.inf)) == 0.0

    def test_identity_s_minus_s_of_negative(self):
        lim = FluxLimiter(mu=0.5, a=3.0, eps=1e-6)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(10_000) * 2.0
        lhs = limiter_S(lim, x) - limiter_S(lim, -x)
        assert np.all(np.abs(lhs - x) <= np.spacing(np.abs(x)))

    def test_bounds(self):
        lim = FluxLimiter(mu=0.5, a=3.0, eps=1e-4)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(10_000) * 5.0
        s = limiter_S(lim, x)
        assert np.all(s <= np.abs(x) + 1e-15)
        assert np.all(lim.mu + lim.a * s >= lim.eps - 1e-15)

    @pytest.mark.parametrize("mu,a,eps", [(1.0, 80.0, 0.0), (0.25, 2.0, 1e-6)])
    def test_matches_piecewise_reference(self, mu, a, eps):
        # the branch-free form against np.where on the piecewise definition:
        # the same values (a zero's sign aside) and bit-identical weights
        lim = FluxLimiter(mu, a, eps)
        t = lim.threshold
        rng = np.random.default_rng(43)
        jumps = rng.standard_normal((4, 250_000)) * np.array([[1e-3], [1.0], [1e2], [1e6]])
        edges = [t, np.nextafter(t, 0.0), np.nextafter(t, np.inf), 0.0, 5e-324]
        x = np.concatenate([jumps.ravel() * t, edges, np.negative(edges), [np.nan, np.inf]])
        s, want = limiter_S(lim, x), limiter_where(t, x)
        np.testing.assert_array_equal(s, want)  # NaN where NaN; 0.0 == -0.0
        with np.errstate(invalid="ignore"):  # inf - inf in the w_minus form
            weights = [(mu + a * s, mu + a * want), (mu + a * (s - x), mu + a * (want - x))]
        for got, ref in weights:
            np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            FluxLimiter(mu=0.25, a=2.0, eps=0.3)
        with pytest.raises(ValueError):
            FluxLimiter(mu=0.25, a=2.0, eps=-1e-9)


class TestCorrectionTerm:
    def test_zero_at_step_zero(self, mesh_2cell):
        state = state_of([1.0, 2.0], step_index=0)
        t = correction_term(state, elliptic_model(), mesh_2cell)
        np.testing.assert_array_equal(t, np.zeros(2))

    def test_saturated_direct_value(self):
        # m(K) = 2, u^n = 1, u^{n-1} = 0  ->  T = 2 (1/2 - 0) = 1
        mesh = build_uniform_rect_mesh((0.0, 2.0), (0.0, 1.0), 1, 1)
        state = state_of([1.0], u_prev=[0.0])
        t = correction_term(state, elliptic_model(), mesh)
        assert t[0] == pytest.approx(1.0)

    def test_linear_direct_value(self):
        # m(K) = 0.5, u^n = 3, u^{n-1} = 1  ->  T = 0.5 (3 - 1) = 1
        mesh = build_uniform_rect_mesh((0.0, 0.5), (0.0, 1.0), 1, 1)
        state = state_of([3.0], u_prev=[1.0])
        t = correction_term(state, elliptic_model(chem_source=SOURCE_LINEAR), mesh)
        assert t[0] == pytest.approx(1.0)


class TestBetaN:
    def test_no_decrease_gives_one(self, mesh_2cell):
        state = state_of([1.0, 2.0], u_prev=[1.0, 2.0])
        assert beta_n(state, mesh_2cell) == 1.0

    def test_step_zero_gives_one(self, mesh_2cell):
        state = state_of([1.0, 2.0], step_index=0)
        assert beta_n(state, mesh_2cell) == 1.0

    def test_single_cell_hand_value(self):
        # g(0.1) = 1/11, g(1) = 1/2; beta = (1/11) / (1/2 - 1/11) = 2/9
        mesh = build_uniform_rect_mesh((0.0, 1.0), (0.0, 1.0), 1, 1)
        state = state_of([0.1], u_prev=[1.0])
        got = beta_n(state, mesh)
        assert got == pytest.approx(2.0 / 9.0, rel=1e-14)
        assert got == pytest.approx(beta_brute_force(state.u, state.u_prev), rel=1e-15)

    def test_fuzz_matches_brute_force_and_stays_in_range(self, mesh_small):
        rng = np.random.default_rng(8)
        for _ in range(200):
            u = rng.random(mesh_small.n_cells) * 5.0
            u_prev = rng.random(mesh_small.n_cells) * 5.0
            state = state_of(u, u_prev=u_prev)
            got = beta_n(state, mesh_small)
            assert 0.0 < got <= 1.0
            assert got == pytest.approx(beta_brute_force(u, u_prev), rel=1e-14)


class TestStepPlan:
    def test_alternating_plans_build_each_operator_once(self, monkeypatch):
        builds = []
        solve = scheme.dct_solve

        def counting_solve(eigenvalues):
            builds.append(np.size(eigenvalues))
            return solve(eigenvalues)

        monkeypatch.setattr(scheme, "dct_solve", counting_solve)
        meshes = [
            build_uniform_rect_mesh((-1.0, 1.0), (-1.0, 1.0), 8, 8),
            build_uniform_rect_mesh((-1.0, 1.0), (-1.0, 1.0), 6, 10),
        ]
        plans = [plan_of(mesh, elliptic_model(), 0.01) for mesh in meshes]
        states = [perturbed_state(mesh) for mesh in meshes]
        for _ in range(5):
            states = [step(state, plan) for state, plan in zip(states, plans)]
        assert [state.step_index for state in states] == [5, 5]
        assert builds == [64, 60]

    def test_limiter_takes_mu_and_chi_from_the_model(self, mesh_small):
        plan = plan_of(mesh_small, ModelSpec(0.0625, 6.0), 0.1, 1e-6)
        assert plan.limiter == FluxLimiter(0.0625, 6.0, 1e-6)
        assert plan.epsilon == 1e-6

    @pytest.mark.parametrize("eps", [-1e-9, 0.25 + 1e-9, float("nan")])
    def test_plan_rejects_eps_outside_zero_mu(self, mesh_small, eps):
        # elliptic_model() has mu = 0.25
        with pytest.raises(ValueError, match="eps must lie in"):
            plan_of(mesh_small, elliptic_model(), 0.1, eps)

    @pytest.mark.parametrize("dt", [0.0, -0.1, float("nan"), float("inf")])
    def test_plan_rejects_nonpositive_or_non_finite_dt(self, mesh_small, dt):
        with pytest.raises(SchemeError, match="positive, finite dt"):
            plan_of(mesh_small, elliptic_model(), dt)

    @pytest.mark.parametrize("dynamics", ["elliptic", CHEM_PARABOLIC])
    def test_broken_chem_operator_caught_when_plan_built(
        self, mesh_small, monkeypatch, dynamics
    ):
        # B's row slack is (gamma + [1/dt]) m; this halves it in row 0
        model = elliptic_model(chem_dynamics=dynamics)
        dt = 0.01
        build = scheme.chem_operator

        def broken_operator(mesh, chem_decay, dt_or_none):
            b = build(mesh, chem_decay, dt_or_none)
            slack = chem_decay + (0.0 if dt_or_none is None else 1.0 / dt_or_none)
            data = b.data.copy()
            data[np.searchsorted(b.offsets, 0), 0] -= 0.5 * slack * mesh.cell_measures[0]
            return SparseMatrix(b.offsets, data)

        monkeypatch.setattr(scheme, "chem_operator", broken_operator)
        plan_of(mesh_small, model, dt)  # unchecked plans do not look
        with pytest.raises(SchemeError, match="chem matrix dominance slack"):
            plan_of(mesh_small, model, dt, check_matrices=True)

    @pytest.mark.parametrize("name", ["test1", "test2", "test3", "test4"])
    @pytest.mark.parametrize("shape", ["preset", "12x9", "1x9", "12x1"])
    def test_chem_operator_column_slacks_equal_row_sums(self, name, shape):
        # B is symmetric, so the column slacks the plan checks are its row
        # sums bit for bit; the row sums are taken here as the product with ones
        p = preset(name)
        mesh = p.build_mesh()
        if shape != "preset":
            nx, ny = map(int, shape.split("x"))
            mesh = build_uniform_rect_mesh(p.x_range, p.y_range, nx, ny)
        b = plan_of(mesh, p.model, p.dt_default).chem_matrix
        row_sums = b.dia @ np.ones(mesh.n_cells)
        assert check_m_matrix_pattern(b)[1].tobytes() == row_sums.tobytes()


class TestChemAssembly:
    def test_one_cell_zero_density(self):
        mesh = build_uniform_rect_mesh((0.0, 1.5), (0.0, 1.0), 1, 1)
        state = state_of([0.0], step_index=0)
        b, g = assemble_chem_system(state, plan_of(mesh, elliptic_model()))
        np.testing.assert_allclose(b.to_dense(), [[1.5]])
        np.testing.assert_array_equal(g, [0.0])
        x, _ = LinearSolver().solve(b, g)
        assert x[0] == 0.0

    def test_one_cell_saturated_limit(self, solver):
        # u = 1e6 stands in for the u -> inf limit: c = g(1e6) ~ 1
        mesh = build_uniform_rect_mesh((0.0, 1.5), (0.0, 1.0), 1, 1)
        u = 1e6
        state = state_of([u], step_index=0)
        b, g = assemble_chem_system(state, plan_of(mesh, elliptic_model()))
        c, _ = solver.solve(b, g)
        assert c[0] == pytest.approx(u / (u + 1.0), rel=1e-13)

    def test_row_dominance_slack_is_gamma_m(self, mesh_2cell):
        state = state_of([1.0, 2.0], u_prev=[1.0, 2.0])
        b, _ = assemble_chem_system(state, plan_of(mesh_2cell, elliptic_model()))
        np.testing.assert_allclose(b.to_dense(), [[2.0, -1.0], [-1.0, 2.0]])
        np.testing.assert_allclose(check_m_matrix_pattern(b)[1], mesh_2cell.cell_measures)

    def test_beta_with_a_u_source_is_refused(self, mesh_2cell):
        state = state_of([1.0, 2.0], u_prev=[2.0, 1.0])
        plan = plan_of(mesh_2cell, elliptic_model())
        u = np.array([1.5, 0.5])
        with pytest.raises(ValueError, match="beta or a u_source"):
            assemble_chem_system(state, plan, beta=1.0, u_source=u)
        _, g = assemble_chem_system(state, plan, u_source=u)
        np.testing.assert_allclose(g, mesh_2cell.cell_measures * u / (u + 1.0), rtol=1e-15)

    def test_parabolic_adds_time_terms(self, mesh_2cell):
        model = elliptic_model(chem_dynamics=CHEM_PARABOLIC)
        c0 = np.array([0.5, 0.25])
        state = state_of([1.0, 1.0], c=c0, u_prev=[1.0, 1.0])
        b, g = assemble_chem_system(state, plan_of(mesh_2cell, model, 0.5))
        np.testing.assert_allclose(b.to_dense(), [[4.0, -1.0], [-1.0, 4.0]])
        np.testing.assert_allclose(g, 0.5 + c0 / 0.5)

    def test_parabolic_requires_positive_dt(self, mesh_2cell):
        model = elliptic_model(chem_dynamics=CHEM_PARABOLIC)
        with pytest.raises(SchemeError):
            plan_of(mesh_2cell, model, dt=0.0)

    def test_operator_built_once_per_plan(self, mesh_small):
        n = mesh_small.n_cells
        parabolic = elliptic_model(chem_dynamics=CHEM_PARABOLIC)

        def operator(plan, beta=0.0):
            state = state_of(np.ones(n), u_prev=np.ones(n))
            return assemble_chem_system(state, plan, beta)[0]

        plan = plan_of(mesh_small, elliptic_model(), 0.1)
        b = plan.chem_matrix
        assert operator(plan) is b
        assert operator(plan, 1.0) is b
        other = plan_of(mesh_small, elliptic_model(), 0.01)
        assert operator(other) is not b  # each plan builds its own B
        np.testing.assert_array_equal(other.chem_matrix.data, b.data)  # elliptic B has no dt
        p = plan_of(mesh_small, parabolic, 0.01)
        assert operator(p) is p.chem_matrix
        np.testing.assert_allclose(
            operator(p).diagonal() - b.diagonal(),
            mesh_small.cell_measures / 0.01,
            rtol=1e-14,
        )

    def test_singular_operator_raises_when_built(self, mesh_2cell):
        # gamma = 0, elliptic: the pure Neumann Laplacian [[1, -1], [-1, 1]]
        with pytest.raises(SolverError):
            chem_operator(mesh_2cell, 0.0, None)

    def test_corrected_rhs_is_plain_rhs_plus_beta_t(self, mesh_small):
        model = elliptic_model()
        rng = np.random.default_rng(12)
        state = state_of(
            rng.random(mesh_small.n_cells),
            u_prev=rng.random(mesh_small.n_cells),
        )
        beta = beta_n(state, mesh_small)
        plan = plan_of(mesh_small, model)
        _, g_plain = assemble_chem_system(state, plan)
        _, g_corr = assemble_chem_system(state, plan, beta)
        t = correction_term(state, model, mesh_small)
        assert np.array_equal(g_corr, g_plain + beta * t)

    def test_gamma_scales_diagonal(self, mesh_2cell):
        model = ModelSpec(0.0625, 6.0, chem_decay=16.0, chem_source=SOURCE_LINEAR)
        state = state_of([1.0, 1.0], u_prev=[1.0, 1.0])
        b, _ = assemble_chem_system(state, plan_of(mesh_2cell, model))
        np.testing.assert_allclose(b.to_dense(), [[17.0, -1.0], [-1.0, 17.0]])

    @pytest.mark.parametrize("nx,ny", LAYOUT_SHAPES)
    @pytest.mark.parametrize("gamma,dt", [(1.0, None), (32.0, None), (16.0, 0.05), (0.3, 1e-3)])
    def test_operator_bit_equal_to_edge_list_reference(self, nx, ny, gamma, dt):
        # neither tau_x nor tau_y is a power of two, so products by them round
        mesh = build_uniform_rect_mesh((0.0, 0.7), (-2.0, 1.3), nx, ny)
        b_mat = chem_operator(mesh, gamma, dt)
        ref = chem_operator_edge_list(mesh, gamma, dt)
        np.testing.assert_array_equal(b_mat.offsets, ref.offsets)
        assert b_mat.data.tobytes() == ref.data.tobytes()


DCT_SMALL_MESHES = {
    "1x1": ((0.0, 1.5), (0.0, 1.0), 1, 1),
    "2x1": ((0.0, 2.0), (0.0, 1.0), 2, 1),
    "1x7": ((0.0, 0.5), (0.0, 7.0), 1, 7),
    "5x3": ((0.0, 1.0), (0.0, 2.0), 5, 3),  # hx = 0.2, hy = 2/3
}


def dct_mesh(name):
    """A degenerate or anisotropic mesh, or a preset's (test1 35x350,
    test4 150x150), for the chem DCT solve."""
    if name in DCT_SMALL_MESHES:
        return build_uniform_rect_mesh(*DCT_SMALL_MESHES[name])
    return preset(name).build_mesh()


class TestChemDctSolve:
    # (gamma, dt): test1's elliptic operator and test4's parabolic one
    OPERATORS = {"elliptic": (1.0, None), "parabolic": (32.0, 0.05)}

    @pytest.mark.parametrize("kind", sorted(OPERATORS))
    @pytest.mark.parametrize("name", ["1x1", "2x1", "1x7", "5x3", "test1", "test4"])
    def test_matches_lu_oracle(self, name, kind):
        mesh = dct_mesh(name)
        b = chem_operator(mesh, *self.OPERATORS[kind])
        rng = np.random.default_rng(sum(map(ord, name + kind)))
        for rhs in (rng.random(mesh.n_cells), rng.standard_normal(mesh.n_cells)):
            x, report = LinearSolver().solve(b, rhs)
            assert report.method == "direct-dct"
            residual = np.linalg.norm(b.dia @ x - rhs) / np.linalg.norm(rhs)
            assert residual <= 1e-12
            want = splu_solve(b.dia, rhs)
            assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))

    def test_point_source_stays_nonnegative(self):
        # test4's parabolic B: the far field of a one-cell source lies below
        # round-off, so any sign the transform leaves there shows
        mesh = dct_mesh("test4")
        b = chem_operator(mesh, 32.0, 0.05)
        rhs = np.zeros(mesh.n_cells)
        rhs[75 * mesh.nx + 75] = mesh.cell_measures[0]
        c, report = LinearSolver().solve(b, rhs)
        assert report.method == "direct-dct"
        assert c.min() >= -1e-12 * c.max()

    def test_pinned_to_one_worker(self):
        mesh = build_uniform_rect_mesh((0.0, 4.0), (0.0, 3.0), 64, 48)
        b = chem_operator(mesh, 1.0, 0.1)
        rhs = np.random.default_rng(5).random(mesh.n_cells)
        x1, _ = LinearSolver().solve(b, rhs)
        with scipy.fft.set_workers(2):
            x2, _ = LinearSolver().solve(b, rhs)
        assert np.array_equal(x1, x2)


class TestCellAssembly:
    @pytest.mark.parametrize("growth", [GROWTH_NONE, GROWTH_QUADRATIC, GROWTH_CUBIC])
    @pytest.mark.parametrize("nx,ny", LAYOUT_SHAPES)
    def test_matches_reference_bit_for_bit(self, nx, ny, growth):
        # neither tau_x nor tau_y is a power of two, so products by them round
        mesh = build_uniform_rect_mesh((0.0, 0.7), (-2.0, 1.3), nx, ny)
        model = ModelSpec(0.25, 6.0, growth=growth, growth_rate=2.0)
        for eps in (0.05, 0.0):  # threshold 1/15, and 1/12 with weights down to 0
            plan = plan_of(mesh, model, dt=0.5, eps=eps)
            rng = np.random.default_rng(nx * 1000 + ny)
            # u(1 - u) <= 1/4 keeps the cubic kind's columns dominant at dt = 0.5;
            # c on a 0.01 grid gives zero jumps and jumps on both sides of the
            # threshold
            u = rng.random(mesh.n_cells)
            c = np.round(rng.normal(0.5, 0.1, mesh.n_cells), 2)
            state = state_of(u, u_prev=rng.random(mesh.n_cells))
            a, f = assemble_cell_system(state, c, plan)
            a_ref, f_ref = assemble_cell_reference(state, c, plan)
            assert a.offsets is plan.chem_matrix.offsets  # made on the plan's layout
            np.testing.assert_array_equal(a.offsets, a_ref.offsets)
            # bytes, so a -0.0 where the reference holds +0.0 fails too
            assert a.data.tobytes() == a_ref.data.tobytes()
            assert f.tobytes() == f_ref.tobytes()
            x = rng.standard_normal(mesh.n_cells)
            assert np.array_equal(a.dia @ x, a_ref.dia @ x)

    def test_two_cell_hand_assembled_offdiagonals(self, mesh_2cell):
        # tau=1, mu=0.25, a=2, eps=0, Dc(cell 0) = 0.3:
        # row 0 off-diagonal -(0.25 + 2 S(-0.3)) = -0.25
        # row 1 off-diagonal -(0.25 + 2 S(0.3))  = -0.85
        state = state_of([1.0, 1.0], u_prev=[1.0, 1.0])
        c_new = np.array([0.0, 0.3])
        plan = plan_of(mesh_2cell, elliptic_model(), 0.5)
        a, f = assemble_cell_system(state, c_new, plan)
        dense = a.to_dense()
        assert dense[0, 1] == pytest.approx(-0.25)
        assert dense[1, 0] == pytest.approx(-0.85)
        assert dense[0, 0] == pytest.approx(1.0 / 0.5 + 0.85)
        assert dense[1, 1] == pytest.approx(1.0 / 0.5 + 0.25)
        np.testing.assert_allclose(f, state.u * 2.0)
        np.testing.assert_allclose(check_m_matrix_pattern(a)[1], [2.0, 2.0])  # m(K)/dt

    def test_constant_chem_yields_pure_diffusion(self, mesh_small, solver):
        model = elliptic_model()
        n = mesh_small.n_cells
        state = state_of(np.full(n, 1.5), u_prev=np.full(n, 1.5))
        c_new = np.full(n, 0.7)
        a, f = assemble_cell_system(state, c_new, plan_of(mesh_small, model, 0.1))
        dense = a.to_dense()
        # off-diagonals reduce to -tau*mu
        edges = edge_list(mesh_small)
        for k, l, tau in zip(edges.cell_a, edges.cell_b, edges.tau):
            assert dense[k, l] == pytest.approx(-tau * 0.25)
        u_next, _ = solver.solve(a, f)
        np.testing.assert_allclose(u_next, state.u, rtol=1e-13)

    def test_quadratic_growth_against_dense_transcription(self, mesh_small):
        lim = FluxLimiter(0.0625, 6.0, 1e-6)
        model = ModelSpec(
            0.0625,
            6.0,
            chem_decay=16.0,
            chem_source=SOURCE_LINEAR,
            growth=GROWTH_QUADRATIC,
            growth_rate=2.0,
        )
        rng = np.random.default_rng(3)
        n = mesh_small.n_cells
        u = rng.random(n) * 2.0
        c_new = rng.random(n)
        dt = 0.05
        state = state_of(u, u_prev=u)
        a, f = assemble_cell_system(state, c_new, plan_of(mesh_small, model, dt, lim.eps))

        # independent edge-by-edge transcription of the discretization
        dense = np.zeros((n, n))
        for k in range(n):
            dense[k, k] = mesh_small.cell_measures[k] / dt
        edges = edge_list(mesh_small)
        for k, l, tau in zip(edges.cell_a, edges.cell_b, edges.tau):
            dc = c_new[l] - c_new[k]
            wp = tau * (model.cell_diffusion + model.chemo_sensitivity * limiter_S(lim, dc))
            wm = tau * (model.cell_diffusion + model.chemo_sensitivity * limiter_S(lim, -dc))
            dense[k, k] += wp
            dense[l, l] += wm
            dense[k, l] -= wm
            dense[l, k] -= wp
        rhs = mesh_small.cell_measures * u / dt
        for k in range(n):
            dense[k, k] += 2.0 * mesh_small.cell_measures[k] * u[k]
            rhs[k] += 2.0 * mesh_small.cell_measures[k] * u[k]

        np.testing.assert_allclose(a.to_dense(), dense, rtol=1e-14, atol=1e-16)
        np.testing.assert_allclose(f, rhs, rtol=1e-14)

    def test_cubic_growth_diagonal_contribution(self, mesh_small):
        model = ModelSpec(
            0.0625, 6.0, chem_decay=32.0, chem_source=SOURCE_LINEAR, growth=GROWTH_CUBIC
        )
        n = mesh_small.n_cells
        u = np.full(n, 0.5)
        state = state_of(u, u_prev=u)
        c_new = np.zeros(n)
        a, f = assemble_cell_system(state, c_new, plan_of(mesh_small, model, 0.1, 1e-6))
        none_model = ModelSpec(0.0625, 6.0, chem_decay=32.0, chem_source=SOURCE_LINEAR)
        a0, f0 = assemble_cell_system(state, c_new, plan_of(mesh_small, none_model, 0.1, 1e-6))
        m = mesh_small.cell_measures
        np.testing.assert_allclose(
            a.diagonal(), a0.diagonal() - m * u * (1.0 - u), rtol=1e-14
        )
        np.testing.assert_array_equal(f, f0)

    def test_cubic_growth_rejects_nonpositive_diagonal(self):
        # single cell: diagonal m/dt - m u(1-u) <= 0 once dt > 1/(u(1-u))
        mesh = build_uniform_rect_mesh((0.0, 1.0), (0.0, 1.0), 1, 1)
        model = ModelSpec(
            0.0625, 6.0, chem_decay=32.0, chem_source=SOURCE_LINEAR, growth=GROWTH_CUBIC
        )
        state = state_of([0.5], u_prev=[0.5])
        # m/dt > m u(1-u) = 1/4 admits dt < 4
        with pytest.raises(
            SchemeError, match=r"step 1 \(t=5\).*reduce dt.*largest admissible dt 4$"
        ):
            assemble_cell_system(state, np.zeros(1), plan_of(mesh, model, 5.0))

    def test_cubic_growth_guard_reads_the_column_slack(self):
        # test4's model from a uniform u = 3 at dt = 5: three steps take u to
        # a uniform 0.5964, where dt u(1-u) = 5 * 0.2407 > 1, while the
        # diagonal m/dt - m u(1-u) + outflow is still positive
        p = preset("test4")
        mesh = build_uniform_rect_mesh(p.x_range, p.y_range, 12, 12)
        plan = plan_of(mesh, p.model, 5.0, 1e-6)
        state = make_initial_state(mesh, InitialConditionSpec(base_u=3.0))
        for _ in range(3):
            state = step(state, plan)
        assert state.step_index == 3
        np.testing.assert_allclose(state.u, 0.5964, rtol=1e-4)
        with pytest.raises(
            SchemeError, match=r"step 3 \(t=15\).*reduce dt.*largest admissible dt 4\.154"
        ):
            step(state, plan)

    def test_requires_positive_dt(self, mesh_2cell):
        with pytest.raises(SchemeError):
            plan_of(mesh_2cell, elliptic_model(), 0.0)

    @pytest.mark.parametrize("dynamics", ["elliptic", CHEM_PARABOLIC])
    @pytest.mark.parametrize("dt", [0.5, 1e-3])
    def test_slacks_match_abs_sum_formula(self, dynamics, dt):
        # random c puts the limiter on all three branches
        mesh = build_uniform_rect_mesh((-1.0, 1.0), (-1.0, 2.0), 12, 9)
        model = elliptic_model(chem_dynamics=dynamics)
        rng = np.random.default_rng(7)
        n = mesh.n_cells
        state = state_of(rng.random(n) * 2.0, u_prev=rng.random(n) * 2.0)
        plan = plan_of(mesh, model, dt, 1e-6)
        b_mat, _ = assemble_chem_system(state, plan, 1.0)
        a_mat, _ = assemble_cell_system(state, rng.random(n), plan)
        for mat in (b_mat, a_mat):
            tol = 1e-14 * np.abs(mat.diagonal()).max()
            signs_hold, slack = check_m_matrix_pattern(mat)
            assert signs_hold
            assert np.max(np.abs(slack - abs_sum_slacks(mat.to_dense()))) <= tol

    def test_operators_share_the_mesh_layout(self):
        mesh = build_uniform_rect_mesh((-1.0, 1.0), (-1.0, 1.0), 5, 7)
        state = perturbed_state(mesh)
        model = elliptic_model(chem_dynamics=CHEM_PARABOLIC)
        plan = plan_of(mesh, model, 0.1)
        b_mat, _ = assemble_chem_system(state, plan)
        a_mat, _ = assemble_cell_system(state, state.c, plan)
        np.testing.assert_array_equal(b_mat.offsets, [-5, -1, 0, 1, 5])
        np.testing.assert_array_equal(a_mat.offsets, mesh.adjacency_csr())

    @pytest.mark.parametrize("nx,ny", LAYOUT_SHAPES)
    def test_spmv_bit_equal_to_sorted_csr_product(self, nx, ny):
        # scipy's CSR product adds each row's entries in column order, as
        # the pre-DIA operators did; random c puts the limiter on all
        # three branches
        mesh = build_uniform_rect_mesh((0.0, 1.0), (-2.0, 2.0), nx, ny)
        n = mesh.n_cells
        rng = np.random.default_rng(nx * 1000 + ny)
        state = state_of(rng.random(n) * 2.0, c=rng.random(n), u_prev=rng.random(n) * 2.0)
        plan = plan_of(mesh, elliptic_model(chem_dynamics=CHEM_PARABOLIC), 0.01, 1e-6)
        b_mat, _ = assemble_chem_system(state, plan, 1.0)
        a_mat, _ = assemble_cell_system(state, rng.random(n) * 4.0, plan)
        _, slots = dia_layout_loops(mesh)
        for mat in (b_mat, a_mat):
            if n <= 48 * 48:
                csr = sp.csr_matrix(mat.to_dense())
            else:  # a dense copy takes 1-4 GB: read the loop layout's entries
                rows, cols = np.array(list(slots)).T
                d, j = np.array(list(slots.values())).T
                csr = sp.csr_matrix((mat.data[d, j], (rows, cols)), shape=(n, n))
                csr.sort_indices()
            for x in (rng.standard_normal(n), rng.random(n)):
                assert np.array_equal(spmv(mat, x), csr @ x)


def perturbed_state(mesh, seed=42):
    ic = InitialConditionSpec(
        base_u=1.0, region=RectRegion(-10.0, 10.0, -0.5, 0.5), rng_seed=seed
    )
    return make_initial_state(mesh, ic)


class TestStep:
    def test_uniform_state_is_fixed_point(self, mesh_small, solver):
        model = elliptic_model()
        n = mesh_small.n_cells
        state = make_initial_state(mesh_small, InitialConditionSpec(base_u=2.0))
        for variant in (CORRECTED, PLAIN, LAGGED):
            new = step(state, plan_of(mesh_small, model, 0.1, 0.0, variant, solver=solver))
            np.testing.assert_allclose(new.u, np.full(n, 2.0), rtol=1e-12)
            np.testing.assert_allclose(new.c, np.full(n, 2.0 / 3.0), rtol=1e-12)

    def test_one_step_mass_conservation_test1_coefficients(self, solver):
        mesh = build_uniform_rect_mesh((-3.5, 3.5), (-3.5, 3.5), 16, 16)
        state = perturbed_state(mesh)
        new = step(state, plan_of(mesh, elliptic_model(), 1e-2, 1e-6, solver=solver))
        m = mesh.cell_measures
        mass0, mass1 = float(m @ state.u), float(m @ new.u)
        assert abs(mass1 - mass0) <= 1e-10 * mass0

    def test_elliptic_saturated_chem_bound(self, solver):
        mesh = build_uniform_rect_mesh((-2.0, 2.0), (-2.0, 2.0), 12, 12)
        rng = np.random.default_rng(5)
        u = rng.random(mesh.n_cells) * 50.0
        state = State(u=u, c=np.zeros_like(u), u_prev=u.copy(), step_index=0)
        plan = plan_of(mesh, elliptic_model(), 0.1, solver=solver)
        new = step(state, plan)
        assert new.c.max() <= 2.0 + 1e-12

    def test_step_bookkeeping(self, mesh_small, solver):
        state = perturbed_state(mesh_small)
        new = step(state, plan_of(mesh_small, elliptic_model(), 0.05, 1e-6, solver=solver))
        assert new.step_index == 1
        assert np.array_equal(new.u_prev, state.u)

    def test_positivity_fuzz_random_states(self, mesh_small, solver):
        lim_params = [(0.25, 2.0), (0.0625, 6.0), (1.0, 1.0)]
        rng = np.random.default_rng(9)
        for trial in range(60):
            mu, a = lim_params[trial % len(lim_params)]
            model = ModelSpec(
                mu,
                a,
                chem_dynamics=CHEM_PARABOLIC if trial % 2 else "elliptic",
                chem_source=SOURCE_LINEAR if trial % 3 == 0 else "saturated",
            )
            n = mesh_small.n_cells
            state = State(
                u=rng.random(n) * 3.0,
                c=rng.random(n),
                u_prev=rng.random(n) * 3.0,
                step_index=1,
            )
            dt = float(rng.choice([1e-3, 1e-2, 1e-1]))
            variant = SchemeVariant(
                kind=VARIANT_CORRECTED,
                beta_policy=BETA_FORMULA if trial % 2 else "fixed1",
            )
            plan = plan_of(mesh_small, model, dt, 1e-6, variant, solver=solver)
            new = step(state, plan)
            assert new.u.min() >= -1e-12 * max(new.u.max(), 0.0)
            assert new.c.min() >= -1e-12 * max(new.c.max(), 0.0)

    @pytest.mark.parametrize("dip,accepted", [(-1e-15, False), (0.0, True), (-0.0, True)])
    def test_u_the_step_accepts_is_accepted_by_the_next_step(self, dip, accepted):
        # the step used to pass u >= -1e-12 max u, which the next step's
        # chem source then refused with a ValueError that named no step
        mesh = build_uniform_rect_mesh((-1.0, 1.0), (-1.0, 1.0), 8, 8)

        class DippingSolver(LinearSolver):
            def solve(self, m, rhs):
                x, report = super().solve(m, rhs)
                if m is not plan.chem_matrix:
                    x[5] = dip
                return x, report

        plan = plan_of(mesh, elliptic_model(), 0.01, 1e-6, solver=DippingSolver())
        state = replace(perturbed_state(mesh), u_prev=perturbed_state(mesh, 7).u, step_index=4)
        if not accepted:
            with pytest.raises(SchemeError, match=r"u went negative at step 5: min=-1\.000e-15"):
                step(state, plan)
            return
        state = step(state, plan)
        assert state.u[5] == 0.0 and state.step_index == 5
        assert step(state, plan).step_index == 6

    def test_lagged_variant_uses_old_chem_field(self, mesh_2cell, solver):
        # with a deliberately steep c^n, the lagged cell matrix must see it
        model = elliptic_model()
        c_old = np.array([0.0, 0.3])
        state = State(
            u=np.array([1.0, 1.0]),
            c=c_old,
            u_prev=np.array([1.0, 1.0]),
            step_index=1,
        )
        plan = plan_of(mesh_2cell, model, 0.5, 0.0, LAGGED, solver=solver)
        a_lagged, _ = assemble_cell_system(state, state.c, plan)
        assert a_lagged.to_dense()[1, 0] == pytest.approx(-0.85)
        new = step(state, plan)
        # chem solve then uses u^{n+1}: B c = m g(u^{n+1})
        b, g = assemble_chem_system(
            State(u=new.u, c=c_old, u_prev=state.u, step_index=1), plan
        )
        c_expect, _ = solver.solve(b, g)
        np.testing.assert_allclose(new.c, c_expect, rtol=1e-12)

    def test_check_matrices_mode_passes_on_valid_assembly(self, mesh_small, solver):
        state = perturbed_state(mesh_small)
        plan = plan_of(
            mesh_small, elliptic_model(), 0.01, 1e-6, solver=solver, check_matrices=True
        )
        step(state, plan)

    @pytest.mark.parametrize("stepper", [step, step_coupled_oracle])
    @pytest.mark.parametrize("broken", ["positive off-diagonal", "weak diagonal"])
    def test_check_matrices_mode_catches_broken_cell_matrix(
        self, mesh_small, solver, monkeypatch, broken, stepper
    ):
        dt = 0.01
        # B is built, and checked, before the fault inside the cell assembly is in place
        plan = plan_of(mesh_small, elliptic_model(), dt, 1e-6, solver=solver,
                       check_matrices=True)
        if broken == "positive off-diagonal":
            limiter = scheme.limiter_S

            def negative_weight(lim, x):
                s = limiter(lim, x)
                s[0] = -10.0 * lim.mu / lim.a  # the first edge's weight mu + a S is -9 mu
                return s

            monkeypatch.setattr(scheme, "limiter_S", negative_weight)
        else:
            operator_data = scheme._operator_data

            def weak_diagonal(mesh, offsets, slack, plus, minus):
                data, diag = operator_data(mesh, offsets, slack, plus, minus)
                diag[0] -= 0.5 * slack[0]  # halves column 0's slack m/dt
                return data, diag

            monkeypatch.setattr(scheme, "_operator_data", weak_diagonal)
        match = "sign pattern" if broken == "positive off-diagonal" else "dominance slack"
        with pytest.raises(SchemeError, match=match):
            stepper(perturbed_state(mesh_small), plan)

    @pytest.mark.parametrize("kind", VARIANT_KINDS)
    def test_without_check_matrices_no_structure_check_runs(self, mesh_small, monkeypatch, kind):
        def refuse(m):
            raise AssertionError("structure check ran")

        monkeypatch.setattr(scheme, "check_m_matrix_pattern", refuse)
        monkeypatch.setattr(linalg, "check_m_matrix_pattern", refuse)
        plan = plan_of(mesh_small, elliptic_model(), 0.01, 1e-6, SchemeVariant(kind))
        state = perturbed_state(mesh_small)
        for _ in range(2):
            state = step(state, plan)
        assert state.step_index == 2


class TestCoupledOracle:
    def test_uniform_data_converges_immediately(self, mesh_small, solver):
        state = make_initial_state(mesh_small, InitialConditionSpec(base_u=1.0))
        plan = plan_of(mesh_small, elliptic_model(), 0.1, solver=solver)
        new = step_coupled_oracle(state, plan)
        np.testing.assert_allclose(new.u, state.u, rtol=1e-12)
        np.testing.assert_allclose(new.c, np.full(mesh_small.n_cells, 0.5), rtol=1e-12)

    def test_oracle_matches_coupled_equation_residual(self, solver):
        mesh = build_uniform_rect_mesh((-1.0, 1.0), (-1.0, 1.0), 8, 8)
        state = perturbed_state(mesh)
        model = elliptic_model()
        plan = plan_of(mesh, model, 0.1, solver=solver)
        new = step_coupled_oracle(state, plan)
        # residual of the coupled chem equation with the u^{n+1} source
        b, g = assemble_chem_system(
            State(u=new.u, c=state.c, u_prev=state.u, step_index=1), plan
        )
        residual = np.max(np.abs(spmv(b, new.c) - g))
        assert residual <= 1e-10

    def test_corrected_closer_than_plain_after_warmup(self, solver):
        # desk-scale analogue of the accuracy comparison
        mesh = build_uniform_rect_mesh((-1.0, 1.0), (-1.0, 1.0), 8, 8)
        model = elliptic_model()
        state = perturbed_state(mesh)
        corrected_plan = plan_of(mesh, model, 0.1, solver=solver)
        plain_plan = plan_of(mesh, model, 0.1, 0.0, PLAIN, solver=solver)
        state = step(state, corrected_plan)  # warm-up: T != 0
        oracle = step_coupled_oracle(state, corrected_plan)
        corr = step(state, corrected_plan)
        plain = step(state, plain_plan)
        d_corr = discrete_norm(corr.u - oracle.u, mesh)
        d_plain = discrete_norm(plain.u - oracle.u, mesh)
        assert d_corr < d_plain

    def test_cell_limit_refusal(self):
        mesh = build_uniform_rect_mesh((0.0, 1.0), (0.0, 1.0), 70, 70)
        state = make_initial_state(mesh, InitialConditionSpec())
        with pytest.raises(SchemeError, match="limited"):
            step_coupled_oracle(state, plan_of(mesh, elliptic_model(), 0.1))

    def test_cell_limit_edge(self):
        solves = []

        class CountingSolver(LinearSolver):
            def solve(self, m, rhs):
                solves.append(m)
                return super().solve(m, rhs)

        assert 16 * 256 == ORACLE_CELL_LIMIT == 17 * 241 - 1
        at_limit = build_uniform_rect_mesh((0.0, 16.0), (0.0, 256.0), 16, 256)
        state = make_initial_state(at_limit, InitialConditionSpec())
        plan = plan_of(at_limit, elliptic_model(), 0.1, solver=CountingSolver())
        assert step_coupled_oracle(state, plan).step_index == 1
        assert solves
        solves.clear()
        above = build_uniform_rect_mesh((0.0, 17.0), (0.0, 241.0), 17, 241)
        state = make_initial_state(above, InitialConditionSpec())
        plan = plan_of(above, elliptic_model(), 0.1, solver=CountingSolver())
        with pytest.raises(SchemeError, match="limited to 4096 cells, mesh has 4097"):
            step_coupled_oracle(state, plan)
        assert solves == []  # refused before any solve

    def test_non_convergence_reports_residual(self, monkeypatch):
        mesh = build_uniform_rect_mesh((-1.0, 1.0), (-1.0, 1.0), 8, 8)
        state = perturbed_state(mesh)
        monkeypatch.setattr(scheme, "ORACLE_MAX_ITER", 1)
        with pytest.raises(SchemeError, match="did not converge"):
            step_coupled_oracle(state, plan_of(mesh, elliptic_model(), 0.5))

    def test_step_dispatches_oracle_variant(self, mesh_small, solver):
        state = make_initial_state(mesh_small, InitialConditionSpec(base_u=1.0))
        new = step(
            state,
            plan_of(
                mesh_small,
                elliptic_model(),
                0.1,
                0.0,
                SchemeVariant(kind=VARIANT_ORACLE),
                solver=solver,
            ),
        )
        assert new.step_index == 1
