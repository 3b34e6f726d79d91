import itertools
import logging
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import chemofv
from chemofv import (
    InitialConditionSpec,
    InvariantError,
    LinearSolver,
    ModelSpec,
    RunConfig,
    SchemeVariant,
    SparseMatrix,
    State,
    build_uniform_rect_mesh,
    convergence_study,
    discrete_h1_seminorm,
    discrete_norm,
    gradient_energy,
    preset,
    relative_l2_error,
    run,
)
from chemofv import scheme
from chemofv.mesh import Mesh
from chemofv.model import _CHEM_DYNAMICS, _CHEM_SOURCES, _GROWTHS, SOURCE_LINEAR, RectRegion
from chemofv.scheme import (
    VARIANT_CORRECTED,
    VARIANT_KINDS,
    VARIANT_LAGGED,
    VARIANT_ORACLE,
    VARIANT_PLAIN,
)
from chemofv.sim import check_invariants, column_profile, convergence_rates, plan_for
from oracles import (
    LAYOUT_SHAPES,
    cell_centers_reference,
    gradient_energy_edge_list,
    h1_seminorm_direct,
    h1_seminorm_edge_list,
    scipy_jacobi_bicgstab,
)

CORRECTED = SchemeVariant(kind=VARIANT_CORRECTED)
PLAIN = SchemeVariant(kind=VARIANT_PLAIN)


class TallySolver(LinearSolver):
    """LinearSolver that keeps every system it solves, as (matrix, rhs,
    solution), and every SolveReport it hands back."""

    def __init__(self):
        super().__init__()
        self.systems = []
        self.reports = []

    def solve(self, m, rhs):
        x, report = super().solve(m, rhs)
        self.systems.append((m, rhs, x))
        self.reports.append(report)
        return x, report


def spots_30x30_config():
    p = preset("test4", chi=80.0)
    return RunConfig(
        mesh=build_uniform_rect_mesh(p.x_range, p.y_range, 30, 30),
        model=p.model,
        ic=p.ic,
        variant=CORRECTED,
        dt=0.05,
        t_final=0.25,
        strict=True,
    )


def spots_preset_config():
    """test4 at chi=80 on the preset's own 150x150 mesh, as the spots
    workload runs it, for 12 steps; from step 10 on, a cell solve takes
    14-16 iterations."""
    p = preset("test4", chi=80.0)
    return RunConfig(
        mesh=p.build_mesh(),
        model=p.model,
        ic=p.ic,
        variant=CORRECTED,
        dt=0.05,
        t_final=12 * 0.05,
        diagnostics_every=0,
    )


def desk_config(mesh, dt, t_final, **kwargs):
    return RunConfig(
        mesh=mesh,
        model=ModelSpec(cell_diffusion=0.25, chemo_sensitivity=2.0),
        ic=InitialConditionSpec(
            base_u=1.0, region=RectRegion(-10.0, 10.0, -0.5, 0.5), rng_seed=42
        ),
        variant=CORRECTED,
        dt=dt,
        t_final=t_final,
        **kwargs,
    )


class TestNorms:
    def test_zero_field(self, mesh_small):
        assert discrete_norm(np.zeros(mesh_small.n_cells), mesh_small) == 0.0

    def test_constant_on_test1_domain(self):
        mesh = build_uniform_rect_mesh((-3.5, 3.5), (-35.0, 35.0), 35, 70)
        ones = np.ones(mesh.n_cells)
        assert discrete_norm(ones, mesh) == pytest.approx(np.sqrt(490.0), rel=1e-13)

    @pytest.mark.parametrize(
        "measure",
        [
            lambda v, mesh: discrete_norm(v, mesh),
            lambda v, mesh: mesh.integral(v),
            lambda v, mesh: relative_l2_error(np.ones(mesh.n_cells), v, mesh),
            lambda v, mesh: relative_l2_error(v, np.ones(mesh.n_cells), mesh),
            lambda v, mesh: discrete_h1_seminorm(v, mesh),
            lambda v, mesh: gradient_energy(v, mesh),
        ],
        ids=["norm", "integral", "rel-l2-reference", "rel-l2-field", "h1", "energy"],
    )
    def test_one_value_field_rejected(self, measure):
        # one value is not broadcast over the mesh's nine cells
        mesh = build_uniform_rect_mesh((0.0, 1.0), (0.0, 1.0), 3, 3)
        with pytest.raises(ValueError, match="field has 1 values, but mesh.n_cells is 9"):
            measure(np.array([2.0]), mesh)


class TestH1Seminorm:
    def test_constant_field_vanishes(self, mesh_small):
        v = np.full(mesh_small.n_cells, 3.7)
        assert discrete_h1_seminorm(v, mesh_small) == 0.0

    def test_two_cell_single_jump(self, mesh_2cell):
        assert discrete_h1_seminorm(np.array([0.0, 1.0]), mesh_2cell) == 1.0

    def test_linear_in_x_matches_direct_summation(self):
        mesh = build_uniform_rect_mesh((0.0, 2.0), (0.0, 1.0), 8, 5)
        v = 3.0 * np.tile(mesh.x_centers, mesh.ny)
        got = discrete_h1_seminorm(v, mesh)
        assert got == pytest.approx(h1_seminorm_direct(v, mesh), rel=1e-13)

    @pytest.mark.parametrize("nx,ny", LAYOUT_SHAPES)
    def test_bit_equal_to_edge_list_reference(self, nx, ny):
        # neither tau_x nor tau_y is a power of two, so products by them round
        mesh = build_uniform_rect_mesh((0.0, 0.7), (-2.0, 1.3), nx, ny)
        v = np.random.default_rng(nx + 7 * ny).random(mesh.n_cells) * 3.0
        assert discrete_h1_seminorm(v, mesh) == h1_seminorm_edge_list(v, mesh)
        assert gradient_energy(v, mesh) == gradient_energy_edge_list(v, mesh)

    def test_gradient_energy_is_squared_h1(self, mesh_small):
        # one sum serves both: the seminorm is the energy's square root, bit for bit
        rng = np.random.default_rng(3)
        v = rng.random(mesh_small.n_cells)
        assert discrete_h1_seminorm(v, mesh_small) == gradient_energy(v, mesh_small) ** 0.5

    def test_seminorm_does_not_call_the_public_energy(self, mesh_small, monkeypatch):
        # a tracer that wraps both public names records one span per call
        v = np.random.default_rng(5).random(mesh_small.n_cells)
        want = discrete_h1_seminorm(v, mesh_small)

        def refuse(*args):
            raise AssertionError("discrete_h1_seminorm called sim.gradient_energy")

        monkeypatch.setattr(chemofv.sim, "gradient_energy", refuse)
        assert discrete_h1_seminorm(v, mesh_small) == want


class TestRelativeError:
    def test_identical_fields(self, mesh_small):
        v = np.linspace(0.0, 1.0, mesh_small.n_cells)
        assert relative_l2_error(v, v, mesh_small) == 0.0

    def test_doubled_field(self, mesh_small):
        v = np.linspace(1.0, 2.0, mesh_small.n_cells)
        assert relative_l2_error(2.0 * v, v, mesh_small) == pytest.approx(1.0, rel=1e-13)

    def test_constant_offset(self, mesh_small):
        v = np.linspace(1.0, 2.0, mesh_small.n_cells)
        c0 = 0.25
        want = c0 * np.sqrt(mesh_small.domain_area) / discrete_norm(v, mesh_small)
        assert relative_l2_error(v + c0, v, mesh_small) == pytest.approx(want, rel=1e-13)

    def test_zero_reference_rejected(self, mesh_small):
        with pytest.raises(ValueError):
            relative_l2_error(
                np.ones(mesh_small.n_cells), np.zeros(mesh_small.n_cells), mesh_small
            )


class TestRun:
    def test_zero_steps_returns_initial_state(self, mesh_small):
        cfg = desk_config(mesh_small, dt=0.1, t_final=0.0)
        final, diagnostics, snapshots = run(cfg)
        assert final.step_index == 0
        assert len(diagnostics.records) == 1
        assert len(snapshots) == 1
        assert np.array_equal(snapshots[0].u, final.u)

    def test_mass_series_constant_for_growth_none(self):
        mesh = build_uniform_rect_mesh((-3.5, 3.5), (-3.5, 3.5), 16, 16)
        cfg = desk_config(mesh, dt=0.02, t_final=1.0, strict=True)
        _, diagnostics, _ = run(cfg)
        mass = diagnostics.column("mass")
        assert np.all(np.abs(mass - mass[0]) <= 1e-10 * mass[0])

    def test_bitwise_deterministic(self, mesh_small):
        cfg = desk_config(mesh_small, dt=0.05, t_final=0.5)
        final1, diag1, _ = run(cfg)
        final2, diag2, _ = run(cfg)
        assert np.array_equal(final1.u, final2.u)
        assert np.array_equal(final1.c, final2.c)
        assert diag1.records == diag2.records

    def test_diagnostics_and_snapshot_cadence(self, mesh_small):
        cfg = desk_config(
            mesh_small, dt=0.1, t_final=1.0, diagnostics_every=3, snapshot_every=4
        )
        _, diagnostics, snapshots = run(cfg)
        assert [r.step for r in diagnostics.records] == [0, 3, 6, 9, 10]
        assert [s.step for s in snapshots] == [4, 8, 10]

    @pytest.mark.parametrize("name", ["snapshot_every", "diagnostics_every"])
    def test_negative_cadence_rejected(self, mesh_small, name):
        with pytest.raises(ValueError, match=name):
            desk_config(mesh_small, dt=0.1, t_final=0.5, **{name: -1})
        desk_config(mesh_small, dt=0.1, t_final=0.5, **{name: 0})

    @pytest.mark.parametrize("name", ["snapshot_every", "diagnostics_every"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "2", None])
    def test_non_integer_cadence_rejected(self, mesh_small, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            desk_config(mesh_small, dt=0.1, t_final=0.5, **{name: value})
        desk_config(mesh_small, dt=0.1, t_final=0.5, **{name: np.int64(2)})

    @pytest.mark.parametrize("name", ["dt", "t_final"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_times_rejected(self, mesh_small, name, value):
        times = {"dt": 0.1, "t_final": 0.5, name: value}
        with pytest.raises(ValueError, match=f"{name} must be .* finite"):
            desk_config(mesh_small, **times)

    @pytest.mark.parametrize(
        "t_final,dt", [(1e308, 1e-10), (1.0, 5e-324), (np.float64(1e300), 1e-9)]
    )
    def test_step_count_overflow_rejected(self, mesh_small, t_final, dt):
        # n_steps used to raise OverflowError converting an infinite step count
        want = re.escape(f"t_final / dt is not finite: t_final={t_final}, dt={dt}")
        with pytest.raises(ValueError, match=want):
            desk_config(mesh_small, dt=dt, t_final=t_final)

    def test_chem_operator_never_factored(self, splu_calls):
        mesh = build_uniform_rect_mesh((-3.5, 3.5), (-3.5, 3.5), 8, 8)
        solver = TallySolver()
        run(desk_config(mesh, dt=0.01, t_final=0.05), solver=solver)
        # chem then cell solve per step; the chem operator goes by its DCT
        assert [r.method for r in solver.reports] == ["direct-dct", "jacobi-bicgstab"] * 5
        assert splu_calls == []

    def test_cell_operator_goes_krylov_first(self, splu_calls):
        # chi=80 upwinding breaks the cell matrix's row dominance; its column
        # dominance keeps Jacobi-BiCGSTAB converging, so nothing is factorized
        solver = TallySolver()
        run(spots_30x30_config(), solver=solver)
        assert [r.method for r in solver.reports] == ["direct-dct", "jacobi-bicgstab"] * 5
        assert splu_calls == []

    @pytest.mark.parametrize("config", [spots_30x30_config, spots_preset_config])
    def test_cell_solves_match_scipy_bicgstab(self, config):
        # the in-house Krylov loop is scipy's recurrence with fixed-order
        # inner products: same iteration count, both within the contract
        solver = TallySolver()
        run(config(), solver=solver)
        for (m, rhs, x), report in list(zip(solver.systems, solver.reports))[1::2]:
            want, iterations, info = scipy_jacobi_bicgstab(m.dia, rhs, solver.tol)
            assert info == 0
            assert report.iterations == iterations
            assert report.residual <= solver.tol
            assert np.linalg.norm(m.dia @ (x - want)) <= 2 * solver.tol * np.linalg.norm(rhs)

    def test_final_snapshot_always_written(self, mesh_small):
        cfg = desk_config(mesh_small, dt=0.1, t_final=0.5, snapshot_every=0)
        final, _, snapshots = run(cfg)
        assert [s.step for s in snapshots] == [5]
        assert snapshots[-1].u is final.u and snapshots[-1].c is final.c  # kept, not copied

    def test_inexact_horizon_warns(self, mesh_small, caplog):
        cfg = desk_config(mesh_small, dt=0.3, t_final=1.0)
        with caplog.at_level(logging.WARNING, logger="chemofv.sim"):
            run(cfg)
        assert any("integer multiple" in rec.message for rec in caplog.records)

    def test_large_dt_eps_zero_warns_about_step_condition(self, mesh_small, caplog):
        # 1 - 2 a dt < 0 with eps = 0 is outside the analyzed regime
        cfg = desk_config(mesh_small, dt=5.0, t_final=5.0, epsilon=0.0)
        with caplog.at_level(logging.WARNING, logger="chemofv.sim"):
            run(cfg)
        assert any("time-step condition" in rec.message for rec in caplog.records)

    @pytest.mark.parametrize("linear", [True, False])
    def test_unbounded_c_noticed_once_for_a_linear_source(self, mesh_small, caplog, linear):
        cfg = desk_config(mesh_small, dt=0.1, t_final=0.3)
        if linear:
            cfg = replace(cfg, model=replace(cfg.model, chem_source=SOURCE_LINEAR))
        with caplog.at_level(logging.INFO, logger="chemofv.sim"):
            run(cfg)
        hits = [r for r in caplog.records if "no bound on c" in r.message]
        assert len(hits) == (1 if linear else 0)

    def test_observer_sees_every_step(self, mesh_small):
        seen = []
        cfg = desk_config(mesh_small, dt=0.1, t_final=0.5)
        run(cfg, observer=lambda s: seen.append(s.step_index))
        assert seen == [1, 2, 3, 4, 5]

    def test_oracle_variant_runs(self, mesh_small):
        cfg = desk_config(mesh_small, dt=0.1, t_final=0.3)
        cfg = RunConfig(
            **{**cfg.__dict__, "variant": SchemeVariant(kind="coupled-oracle")}
        )
        final, _, _ = run(cfg)
        assert final.step_index == 3


# Runs 4 steps of test1 (dt=1e-2) and of test4 at chi=80 (dt=0.05,
# strict), both from seed 42, and prints a digest of each final u and c and
# of the recorded mass column.
THREAD_PROBE = """
from dataclasses import replace
import hashlib
from chemofv import RunConfig, SchemeVariant, build_uniform_rect_mesh, preset, run

for p, dt, strict in ((preset("test1"), 1e-2, False), (preset("test4", chi=80.0), 0.05, True)):
    final, diagnostics, _ = run(RunConfig(
        mesh=build_uniform_rect_mesh(p.x_range, p.y_range, p.nx, p.ny),
        model=p.model, ic=replace(p.ic, rng_seed=42),
        variant=SchemeVariant(kind="corrected-decoupled"), dt=dt, t_final=4 * dt,
        strict=strict,
    ))
    arrays = (final.u, final.c, diagnostics.column("mass"))
    print(p.name, *(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays))
"""


class TestStepTraffic:
    """What a step leaves to the plan: a strict, matrix-checked corrected
    run validates an operator and reads the mesh's layout only while its
    plan is built, takes the chem source twice a step (g(u^n) once, and
    g(u^{n-1})), and checks each matrix by column sums alone."""

    @staticmethod
    def traffic(monkeypatch, steps):
        """Call counts of building the plan of a run of ``steps`` steps,
        and of the run; "row products" counts the products with a matrix
        that a structure check makes."""
        counts = Counter()

        def count(owner, attr, key):
            original = getattr(owner, attr)

            def counting(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counting)

        count(SparseMatrix, "__init__", "operators")
        count(Mesh, "adjacency_csr", "layouts")
        count(scheme, "chem_source_value", "sources")
        check, matmul = scheme.check_m_matrix_pattern, sp.dia_matrix.__matmul__
        in_check = []

        def checking(*args, **kwargs):
            in_check.append(True)
            try:
                return check(*args, **kwargs)
            finally:
                in_check.pop()

        def product(self, other):
            if in_check:
                counts["row products"] += 1
            return matmul(self, other)

        monkeypatch.setattr(scheme, "check_m_matrix_pattern", checking)
        monkeypatch.setattr(sp.dia_matrix, "__matmul__", product)
        mesh = build_uniform_rect_mesh((-3.5, 3.5), (-3.5, 3.5), 8, 8)
        cfg = desk_config(mesh, dt=1e-3, t_final=steps * 1e-3, strict=True, check_matrices=True)
        plan_for(cfg)
        plan_counts = dict(counts)
        counts.clear()
        run(cfg)
        return plan_counts, dict(counts)

    @pytest.mark.parametrize("steps", [1, 4])
    def test_per_step_work_is_left_to_the_plan(self, monkeypatch, steps):
        plan_counts, run_counts = self.traffic(monkeypatch, steps)
        # B: one operator on one layout; its check takes column sums, no
        # product. Each step builds its cell operator on B's layout.
        assert plan_counts == {"operators": 1, "layouts": 1}
        assert run_counts == {**plan_counts, "operators": 1 + steps, "sources": 2 * steps}

    def test_recorded_operators_keep_their_own_data(self):
        probe = np.random.default_rng(3).standard_normal(64)

        class RecordingSolver(LinearSolver):
            """Keeps each cell operator with a copy of its data and its
            product with ``probe``, taken when it is solved."""

            def __init__(self):
                super().__init__()
                self.cell = []

            def solve(self, m, rhs):
                if m._exact is None:  # not the chem operator
                    self.cell.append((m, m.data.copy(), m.dia @ probe))
                return super().solve(m, rhs)

        mesh = build_uniform_rect_mesh((-3.5, 3.5), (-3.5, 3.5), 8, 8)
        solver = RecordingSolver()
        run(desk_config(mesh, dt=0.01, t_final=0.04, check_matrices=True), solver=solver)
        assert len(solver.cell) == 4
        for (a, _, _), (b, _, _) in zip(solver.cell, solver.cell[1:]):
            assert a.offsets is b.offsets  # one layout for the run
            assert not np.shares_memory(a.data, b.data)
            assert not np.array_equal(a.data, b.data)  # each step's own values
        for m, data, product in solver.cell:  # as they were when solved
            assert np.array_equal(m.data, data)
            assert np.array_equal(m.dia @ probe, product)


def python_probe(code: str, **env_vars: str) -> str:
    """stdout of ``code`` run by a fresh interpreter on this chemofv."""
    env = dict(os.environ, **env_vars)
    src = str(Path(chemofv.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def thread_probe_digests(threads: int) -> str:
    return python_probe(
        THREAD_PROBE, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads)
    )


def test_final_state_independent_of_blas_threads():
    one = thread_probe_digests(1)
    assert [line.split()[0] for line in one.splitlines()] == ["test1", "test4"]
    assert thread_probe_digests(2) == one


def test_run_loads_no_scipy_package():
    # chemofv loads its two scipy kernels from their own files: scipy.fft
    # (with scipy.special) and scipy.sparse add ~29 MiB of RSS, and
    # scipy.sparse.linalg ~10 MiB more, which only an LU solve needs. The
    # packages imported afterwards run the same kernels bit for bit.
    probe = """
import sys
import numpy as np
import chemofv, chemofv.cli
from chemofv import RunConfig, SchemeVariant, build_uniform_rect_mesh, preset, run, spmv
from chemofv.linalg import pocketfft_dct
from chemofv.scheme import chem_operator

p = preset("test1")
mesh = build_uniform_rect_mesh(p.x_range, p.y_range, 8, 80)
run(RunConfig(
    mesh=mesh, model=p.model, ic=p.ic, variant=SchemeVariant(), dt=1e-2, t_final=5e-2,
    strict=True,
))
print(*(name in sys.modules for name in
        ("scipy.fft", "scipy.special", "scipy.sparse", "scipy.sparse.linalg")))

import scipy.fft, scipy.sparse
b = chem_operator(mesh, 0.5, 0.1)
grid = np.random.default_rng(7).standard_normal((80, 8))
a = scipy.sparse.dia_matrix((b.data, b.offsets), shape=(b.n, b.n))
print(
    np.array_equal(pocketfft_dct(grid, 2, inorm=1, nthreads=1), scipy.fft.dctn(grid, norm="ortho")),
    np.array_equal(pocketfft_dct(grid, 3, inorm=1, nthreads=1), scipy.fft.idctn(grid, norm="ortho")),
    np.array_equal(spmv(b, grid.ravel()), a @ grid.ravel()),
)
"""
    assert python_probe(probe).splitlines() == ["False False False False", "True True True"]


KERNELS = ("scipy.sparse._sparsetools", "scipy.fft._pocketfft.pypocketfft")


def test_kernels_loaded_before_scipy_leave_no_module_behind():
    # a single-phase extension registers itself in sys.modules as it loads;
    # left there, a later `import scipy.sparse` would never set the
    # package's _sparsetools attribute
    probe = f"""
import sys
import numpy as np
import chemofv.linalg
from chemofv.linalg import SparseMatrix, spmv
print(*(name in sys.modules for name in {KERNELS!r}))

import scipy.sparse
offsets = [-3, -1, 0, 1, 3]
data = np.random.default_rng(5).standard_normal((5, 12))
data[0, 9:] = data[1, 11:] = data[3, :1] = data[4, :3] = 0.0
x = np.random.default_rng(6).standard_normal(12)
a = scipy.sparse.dia_matrix((data, offsets), shape=(12, 12))
print(
    scipy.sparse._sparsetools.__name__,
    np.array_equal(spmv(SparseMatrix(offsets, data), x), a @ x),
)
"""
    assert python_probe(probe).splitlines() == [
        "False False", "scipy.sparse._sparsetools True"
    ]


def test_kernels_loaded_after_scipy_keep_its_modules():
    probe = f"""
import sys
import scipy.fft, scipy.sparse
before = [sys.modules[name] for name in {KERNELS!r}]
import chemofv.linalg
print(*(sys.modules[name] is module for name, module in zip({KERNELS!r}, before)))
print(scipy.sparse._sparsetools is before[0])
"""
    assert python_probe(probe).splitlines() == ["True True", "True"]


def test_cli_import_loads_no_hashlib():
    # OpenSSL's libcrypto adds ~3.6 MiB of RSS; only content_digest needs it
    probe = """
import sys
import chemofv, chemofv.cli
print("hashlib" in sys.modules)
"""
    assert python_probe(probe).splitlines() == ["False"]


def invariant_checker(cfg, mass0):
    """Checks states in turn with ``check_invariants``, as a run of ``cfg``
    whose step-0 mass is ``mass0`` does."""
    plan, logged, mass = plan_for(cfg), set(), [mass0]

    def check(state):
        mass[0] = check_invariants(state, plan, mass0, mass[0], logged, cfg.strict)

    return check


class TestInvariantChecks:
    def _config(self, mesh, strict):
        return desk_config(mesh, dt=0.1, t_final=1.0, strict=strict)

    def test_strict_raises_on_chem_bound_violation(self, mesh_small):
        cfg = self._config(mesh_small, strict=True)
        check = invariant_checker(cfg, mass0=float(mesh_small.n_cells))
        n = mesh_small.n_cells
        bad = State(
            u=np.full(n, 16.0), c=np.full(n, 2.5), u_prev=np.full(n, 16.0),
            step_index=0,
        )
        with pytest.raises(InvariantError, match="bound"):
            check(bad)

    def test_non_strict_logs_instead(self, mesh_small, caplog):
        cfg = self._config(mesh_small, strict=False)
        check = invariant_checker(cfg, mass0=float(mesh_small.n_cells))
        n = mesh_small.n_cells
        checker = (np.arange(n) + np.arange(n) // 4) % 2  # steep, non-uniform c
        with caplog.at_level(logging.WARNING, logger="chemofv.scheme"):
            for k, (u, c_top) in enumerate([(17.0, 2.5), (18.0, 3.0), (19.0, 3.5)]):
                # every step breaks all four invariants, each with new values
                bad = State(
                    u=np.full(n, u), c=c_top * checker, u_prev=np.full(n, u),
                    step_index=k + 1,
                )
                check(bad)
        for invariant in ("within step", "mass drift at", "bound", "gradient energy"):
            hits = [r for r in caplog.records if invariant in r.message]
            assert len(hits) == 1, invariant

    def test_strict_raises_on_mass_drift_within_one_step(self, mesh_small):
        cfg = self._config(mesh_small, strict=True)
        mass0 = float(mesh_small.n_cells)
        check = invariant_checker(cfg, mass0=mass0)
        n = mesh_small.n_cells

        def state(mass, k):
            u = np.full(n, mass)  # the 4x4 unit square: mass = u
            return State(u=u, c=np.full(n, 0.5), u_prev=u, step_index=k)

        check(state(mass0 * (1.0 - 0.9e-10), 1))
        # drift 1.8e-10 within the step, 0.9e-10 since step 0
        with pytest.raises(InvariantError, match="within step 2"):
            check(state(mass0 * (1.0 + 0.9e-10), 2))

    def test_strict_run_with_small_gamma_passes(self):
        # c = g(3)/gamma = 3 everywhere: above 2, below the bound 2/gamma = 8
        model = ModelSpec(cell_diffusion=1.0, chemo_sensitivity=0.1, chem_decay=0.25)
        cfg = RunConfig(
            mesh=build_uniform_rect_mesh((0.0, 1.0), (0.0, 1.0), 16, 16),
            model=model,
            ic=InitialConditionSpec(base_u=3.0),
            variant=CORRECTED,
            dt=0.01,
            t_final=0.1,
            strict=True,
        )
        final, _, _ = run(cfg)
        np.testing.assert_allclose(final.c, 3.0, rtol=1e-12)

    def test_large_gamma_tightens_the_chem_bound(self, mesh_small):
        # gamma = 4: c <= 2/gamma = 0.5, so max c = 1 breaks it
        cfg = desk_config(mesh_small, dt=0.1, t_final=1.0, strict=True)
        cfg = RunConfig(**{**cfg.__dict__, "model": ModelSpec(0.25, 2.0, chem_decay=4.0)})
        check = invariant_checker(cfg, mass0=mesh_small.domain_area)  # u = 1
        n = mesh_small.n_cells
        state = State(
            u=np.ones(n), c=np.linspace(0.0, 1.0, n), u_prev=np.ones(n),
            step_index=1,
        )
        with pytest.raises(InvariantError, match="bound 2/gamma = 0.5"):
            check(state)

    @pytest.mark.parametrize("kind", [VARIANT_PLAIN, VARIANT_LAGGED, VARIANT_ORACLE])
    def test_uncorrected_variants_bound_c_by_one_over_gamma(self, mesh_small, kind):
        # gamma = 1: c = 1.5 is above 1/gamma, below the corrected 2/gamma
        n = mesh_small.n_cells
        state = State(
            u=np.ones(n), c=np.full(n, 1.5), u_prev=np.ones(n), step_index=1,
        )
        cfg = desk_config(mesh_small, dt=0.1, t_final=1.0, strict=True)
        invariant_checker(cfg, mass0=mesh_small.domain_area)(state)
        cfg = RunConfig(**{**cfg.__dict__, "variant": SchemeVariant(kind=kind)})
        check = invariant_checker(cfg, mass0=mesh_small.domain_area)
        with pytest.raises(InvariantError, match="bound 1/gamma = 1.0 at step 1"):
            check(state)

    def test_uncorrected_energy_bound_is_area_over_four_gamma(self, mesh_small):
        # 24 edges with tau = 1 and jump 0.15: energy 0.54, above area/4 = 0.25
        n = mesh_small.n_cells
        checker = (np.arange(n) + np.arange(n) // 4) % 2
        state = State(
            u=np.ones(n), c=0.5 + 0.15 * checker, u_prev=np.ones(n), step_index=1,
        )
        assert gradient_energy(state.c, mesh_small) == pytest.approx(0.54)
        cfg = desk_config(mesh_small, dt=0.1, t_final=1.0, strict=True)
        invariant_checker(cfg, mass0=mesh_small.domain_area)(state)
        cfg = RunConfig(**{**cfg.__dict__, "variant": PLAIN})
        check = invariant_checker(cfg, mass0=mesh_small.domain_area)
        with pytest.raises(InvariantError, match=r"exceeds area/\(4\*gamma\) = 0.25"):
            check(state)

    @pytest.mark.parametrize("kind", [VARIANT_PLAIN, VARIANT_LAGGED])
    def test_strict_uncorrected_desk_runs_pass(self, kind):
        mesh = build_uniform_rect_mesh((-3.5, 3.5), (-3.5, 3.5), 48, 48)
        cfg = desk_config(
            mesh, dt=1e-2, t_final=0.5, strict=True, check_matrices=True, epsilon=1e-6
        )
        final, _, _ = run(RunConfig(**{**cfg.__dict__, "variant": SchemeVariant(kind=kind)}))
        assert final.step_index == 50
        assert final.c.max() <= 1.0

    def test_strict_coupled_oracle_run_passes(self):
        mesh = build_uniform_rect_mesh((-1.0, 1.0), (-1.0, 1.0), 12, 12)
        cfg = desk_config(mesh, dt=0.05, t_final=0.25, strict=True)
        oracle = SchemeVariant(kind=VARIANT_ORACLE)
        final, _, _ = run(RunConfig(**{**cfg.__dict__, "variant": oracle}))
        assert final.step_index == 5

    def test_unit_gamma_keeps_the_published_bounds(self, mesh_small):
        invariants = plan_for(self._config(mesh_small, strict=True)).invariants
        assert invariants["c bound"] == (2.0, "2/gamma")
        assert invariants["energy"] == (4.0 * mesh_small.domain_area, "4*area/gamma")


def theory_invariants(dynamics, source, growth, kind):
    """The invariants the scheme's theory gives a model, with their policies."""
    want = {"u >= 0": "hard", "c >= 0": "hard", "B signs": "hard", "B slack": "hard",
            "A signs": "hard", "A slack": "hard"}
    # the chem right-hand side dips through the correction, or through
    # m c^n/dt where c^n >= 0 holds to 1e-12 only
    if kind == VARIANT_CORRECTED or dynamics == "parabolic":
        want["c dip"] = "warn"
    if growth == "cubic_logistic":
        want["cubic dt"] = "hard"
    if growth == "none":
        want |= {"step mass": "strict", "mass": "strict"}
    if (dynamics, source) == ("elliptic", "saturated"):
        want |= {"c bound": "strict", "energy": "strict"}
    return want


def recording_enforce(monkeypatch):
    """Replace ``scheme.enforce`` by one that also lists each call's
    (invariant, value, step) in the list it returns."""
    calls, enforce = [], scheme.enforce

    def recording(invariant, value, bound, step, *args, **kwargs):
        calls.append((invariant, value, step))
        return enforce(invariant, value, bound, step, *args, **kwargs)

    monkeypatch.setattr(scheme, "enforce", recording)
    return calls


class TestInvariantTable:
    # every model the CLI accepts
    @pytest.mark.parametrize(
        "dynamics,source,growth,kind",
        list(itertools.product(_CHEM_DYNAMICS, _CHEM_SOURCES, _GROWTHS, VARIANT_KINDS)),
    )
    def test_a_run_checks_what_the_theory_gives(self, monkeypatch, dynamics, source, growth, kind):
        want = theory_invariants(dynamics, source, growth, kind)
        assert {name: scheme.INVARIANTS[name][0] for name in want} == want
        model = ModelSpec(0.25, 2.0, chem_dynamics=dynamics, chem_source=source, growth=growth)
        cfg = replace(
            desk_config(build_uniform_rect_mesh((-3.5, 3.5), (-3.5, 3.5), 8, 8), dt=0.01,
                        t_final=0.03, strict=True, check_matrices=True),
            model=model, variant=SchemeVariant(kind=kind),
        )
        calls = recording_enforce(monkeypatch)
        assert run(cfg)[0].step_index == 3
        checked = {invariant for invariant, _, _ in calls}
        assert checked <= set(want)
        assert set(want) - checked <= {"c dip"}  # checked only where the side dips
        after_step = {name for name, policy in want.items() if policy == "strict"}
        assert set(plan_for(cfg).invariants) == after_step

    def test_c_dip_is_logged_once_per_run(self, monkeypatch, caplog):
        # a density bump on an empty field at dt = 1 drops by more than half
        # in a step: the corrected right-hand side dips at steps 2 and 3
        mesh = build_uniform_rect_mesh((-1.0, 1.0), (-1.0, 1.0), 8, 8)
        cfg = RunConfig(
            mesh=mesh, model=ModelSpec(0.25, 2.0, chem_decay=100.0),
            ic=InitialConditionSpec(base_u=0.0, region=RectRegion(-0.3, 0.3, -0.3, 0.3),
                                    rng_seed=1),
            variant=CORRECTED, dt=1.0, t_final=8.0, epsilon=1e-6, strict=True,
        )
        calls = recording_enforce(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="chemofv.scheme"):
            run(cfg)
        assert [step for name, c_min, step in calls if name == "c dip" and c_min < 0] == [2, 3]
        hits = [r for r in caplog.records if "c dips to" in r.message]
        assert len(hits) == 1 and "this step" in hits[0].message


class TestConvergenceStudy:
    def test_rate_helper_exact_first_order(self):
        dts = [0.1, 0.05, 0.01]
        rates = convergence_rates(dts, dts)  # e(dt) = dt
        assert rates[0] is None
        assert rates[1:] == [1.0, 1.0]

    def test_self_comparison_error_is_zero(self, mesh_small):
        base = desk_config(mesh_small, dt=0.05, t_final=0.25, epsilon=0.0)
        report = convergence_study(base, [0.05], [CORRECTED])
        rows = report.tables[VARIANT_CORRECTED]
        assert rows[0].error == 0.0
        assert rows[0].rate is None

    def test_reference_at_zero_members_at_the_base_epsilon(self):
        # a member at the reference dt differs from the reference by its
        # epsilon only; on this mesh c's jumps pass the limiter's threshold
        mesh = build_uniform_rect_mesh((-3.5, 3.5), (-7.0, 7.0), 4, 7)
        base = desk_config(mesh, dt=0.05, t_final=0.25, epsilon=0.2)
        report = convergence_study(base, [0.05], [CORRECTED])
        assert report.tables[VARIANT_CORRECTED][0].error > 0.0

    def test_tables_deterministic(self, mesh_small):
        base = desk_config(mesh_small, dt=0.025, t_final=0.2)
        variants = [CORRECTED, SchemeVariant(kind=VARIANT_PLAIN)]
        r1 = convergence_study(base, [0.1, 0.05], variants)
        r2 = convergence_study(base, [0.1, 0.05], variants)
        assert r1.tables == r2.tables
        assert set(r1.tables) == {VARIANT_CORRECTED, VARIANT_PLAIN}

    def test_dt_list_must_decrease(self, mesh_small):
        base = desk_config(mesh_small, dt=0.01, t_final=0.1)
        with pytest.raises(ValueError, match="decreasing"):
            convergence_study(base, [0.05, 0.1], [CORRECTED])

    def test_reference_dt_must_not_exceed_members(self, mesh_small):
        base = desk_config(mesh_small, dt=0.2, t_final=0.4)
        with pytest.raises(ValueError, match="reference"):
            convergence_study(base, [0.1, 0.05], [CORRECTED])
        base = desk_config(mesh_small, dt=0.05, t_final=0.4)
        with pytest.raises(ValueError, match="reference"):
            convergence_study(base, [0.1, 0.05], [CORRECTED])


class TestColumnProfile:
    # on the 7x20 mesh, x0 = -2.5 and -0.5 lie exactly halfway between two
    # columns: both pick the left one, as np.argmin does over np.unique(cx)
    @pytest.mark.parametrize("x0,x_col", [(-3.5, -3.0), (-2.5, -3.0), (-0.5, -1.0), (0.3, 0.0)])
    def test_nearest_column_ordered_by_y(self, x0, x_col):
        mesh = build_uniform_rect_mesh((-3.5, 3.5), (-35.0, 35.0), 7, 20)
        centers = cell_centers_reference(mesh)[::-1]  # any cell order
        v = np.random.default_rng(7).random(mesh.n_cells)
        got_x, ys, values = column_profile(centers[:, 0], centers[:, 1], v, x0)
        assert got_x == x_col
        np.testing.assert_array_equal(ys, mesh.y_centers)
        np.testing.assert_array_equal(values, v[centers[:, 0] == x_col][::-1])
