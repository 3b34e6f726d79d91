import math

import numpy as np
import pytest
import scipy.fft
import scipy.sparse as sp

from chemofv import (
    InitialConditionSpec,
    LinearSolver,
    Mesh,
    ModelSpec,
    RunConfig,
    SchemeVariant,
    SolverError,
    SparseMatrix,
    check_m_matrix_pattern,
    run,
    spmv,
)
from chemofv import scheme
from chemofv.linalg import _dia_product, _load_compiled, dct_solve, fixed_dot
from chemofv.model import RectRegion
from oracles import (
    abs_sum_slacks,
    dense_gauss_solve,
    dense_spmv,
    from_coo,
    from_dense,
    identity,
    random_dominant_m_matrix,
    scipy_jacobi_bicgstab,
)


class TestSparseMatrix:
    def test_identity_round_trip(self):
        m = identity(4)
        np.testing.assert_array_equal(m.to_dense(), np.eye(4))
        np.testing.assert_array_equal(m.diagonal(), np.ones(4))

    def test_zero_offdiagonals_pruned(self):
        dense = np.array([[2.0, 0.0], [-1.0, 3.0]])
        m = from_coo(2, [0, 0, 1, 1], [0, 1, 0, 1], [2.0, 0.0, -1.0, 3.0])
        np.testing.assert_array_equal(m.offsets, [-1, 0])  # only a zero at +1
        np.testing.assert_array_equal(m.to_dense(), dense)

    def test_zero_diagonal_kept(self):
        m = SparseMatrix([0], [[0.0, 1.0]])
        np.testing.assert_array_equal(m.diagonal(), [0.0, 1.0])
        m = from_dense([[0.0, 2.0], [3.0, 0.0]])
        np.testing.assert_array_equal(m.offsets, [-1, 0, 1])
        np.testing.assert_array_equal(m.diagonal(), [0.0, 0.0])

    @pytest.mark.parametrize(
        "offsets,match",
        [([1, 0], "sorted"), ([0, 0], "sorted"), ([-1, 1], "include 0"), ([[0]], "sorted")],
    )
    def test_bad_offsets_rejected(self, offsets, match):
        with pytest.raises(ValueError, match=match):
            SparseMatrix(offsets, np.zeros((2, 3)))

    @pytest.mark.parametrize(
        "offsets,shape",
        [([0], (2,)), ([0], (2, 2)), ([0], (1, 2, 2)),
         ([-1, 0, 1], (2, 3)), ([-1, 0, 1], (3,)), ([-1, 0, 1], (1, 3, 3))],
    )
    def test_data_shape_must_match_offsets(self, offsets, shape):
        with pytest.raises(ValueError, match=rf"data has shape .*, need \({len(offsets)}, n\)"):
            SparseMatrix(offsets, np.zeros(shape))

    @pytest.mark.parametrize("offset,column", [(1, 0), (-1, 2), (2, 1), (-4, 0), (4, 2)])
    def test_entry_outside_matrix_rejected(self, offset, column):
        # data[d, j] = A[j - offset, j]: row j - offset must lie in [0, 3)
        offsets = sorted({0, offset})
        data = np.zeros((len(offsets), 3))
        data[offsets.index(offset), column] = -1.0
        with pytest.raises(ValueError, match="outside the matrix"):
            SparseMatrix(offsets, data)
        data[offsets.index(offset), column] = 0.0
        SparseMatrix(offsets, data)  # zeros outside the matrix are fine

    def test_arrays_read_only(self):
        offsets, data = np.array([-1, 0, 1]), np.ones((3, 3))
        data[0, 2] = data[2, 0] = 0.0
        m = SparseMatrix(offsets, data)
        data[1, 0] = 7.0  # the operator holds its own copy
        assert m.diagonal()[0] == 1.0
        for array in (m.offsets, m.data, m.dia.offsets, m.dia.data):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_from_coo_sums_duplicates_and_adds_diagonal(self):
        m = from_coo(2, [0, 0, 0], [1, 1, 0], [1.0, 2.0, 4.0])
        np.testing.assert_array_equal(m.to_dense(), [[4.0, 3.0], [0.0, 0.0]])
        assert m.diagonal()[1] == 0.0

    @staticmethod
    def template():
        return from_dense([[3.0, -1.0, 0.0], [-2.0, 4.0, -1.0], [0.0, -1.0, 2.0]])

    @staticmethod
    def frozen(a, dtype=float):
        a = np.array(a, dtype=dtype)
        a.setflags(write=False)
        return a

    def test_read_only_owned_arrays_are_taken_over(self):
        # as each step's cell operator is built on the chem operator's offsets
        t = self.template()
        t = SparseMatrix(t.offsets, t.data, dct_solve(np.ones((1, 3))))
        data = self.frozen(2.0 * t.data)
        m = SparseMatrix(t.offsets, data)
        assert m.offsets is t.offsets
        assert m.data is data and m.dia.data is data
        assert m.n == 3 and m._exact is None  # t's exact solve stays its own
        np.testing.assert_array_equal(m.to_dense(), 2.0 * t.to_dense())
        x = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(spmv(m, x), m.dia @ x)
        np.testing.assert_array_equal(t.to_dense()[0], [3.0, -1.0, 0.0])  # t unchanged

    def test_arrays_it_cannot_take_over_are_copied(self):
        t = self.template()
        offsets = (t.offsets.copy(), self.frozen(np.r_[t.offsets, 9], np.int64)[:3],
                   self.frozen(t.offsets, np.int32), t.offsets.tolist())
        data = (t.data.copy(), self.frozen(t.data)[:, :],
                self.frozen(t.data, np.float32), t.data.tolist())
        for given_offsets, given_data in zip(offsets, data):  # writable, view, narrow, list
            m = SparseMatrix(given_offsets, given_data)
            assert m.offsets is not given_offsets and m.data is not given_data
            assert m.offsets.dtype == np.int64 and m.data.dtype == np.float64
            assert not (m.offsets.flags.writeable or m.data.flags.writeable)
            np.testing.assert_array_equal(m.to_dense(), t.to_dense())
            np.testing.assert_array_equal(given_data, t.data)  # the caller's array is untouched
        assert offsets[0].flags.writeable and data[0].flags.writeable

    def test_desk_run_builds_no_dia_matrix(self, monkeypatch):
        # a run reads the operators' arrays, never ``dia``: strict and
        # matrix-checked, as the benchmark's desk run
        def refuse(*args, **kwargs):
            raise AssertionError("a run built a dia_matrix")

        monkeypatch.setattr(sp, "dia_matrix", refuse)
        final, _, _ = run(RunConfig(
            mesh=Mesh((-3.5, 3.5), (-3.5, 3.5), 48, 48),
            model=ModelSpec(cell_diffusion=0.25, chemo_sensitivity=2.0),
            ic=InitialConditionSpec(base_u=1.0, region=RectRegion(-4.5, 4.5, -1.0, 1.0)),
            variant=SchemeVariant(), dt=1e-4, t_final=20e-4, epsilon=0.0,
            strict=True, check_matrices=True,
        ))
        assert final.step_index == 20


class TestLoadCompiled:
    """The scipy kernels are loaded from their own extension files."""

    def test_missing_file_raises_naming_module_and_directory(self, tmp_path, monkeypatch):
        package = tmp_path / "kernelless"
        (package / "sub").mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "sub" / "_kernel.py").write_text("")  # a source file is not compiled
        monkeypatch.syspath_prepend(str(tmp_path))
        with pytest.raises(ImportError) as error:
            _load_compiled("kernelless.sub._kernel")
        assert "kernelless.sub._kernel" in str(error.value)
        assert str(package) in str(error.value)


class TestSpmv:
    def test_identity(self):
        x = np.array([3.0, -1.0, 2.0])
        np.testing.assert_array_equal(spmv(identity(3), x), x)

    def test_diagonal_scaling(self):
        m = from_dense(np.diag([2.0, 3.0, -1.0]))
        np.testing.assert_array_equal(
            spmv(m, np.array([1.0, 1.0, 2.0])), [2.0, 3.0, -2.0]
        )

    def test_against_dense_oracle_within_ulps(self):
        rng = np.random.default_rng(11)
        dense = random_dominant_m_matrix(rng, 10)
        m = from_dense(dense)
        x = rng.standard_normal(10)
        got = spmv(m, x)
        want = dense_spmv(dense, x)
        # same accumulation order per row -> at most a couple of ulps apart
        assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            spmv(identity(3), np.ones(4))


class TestStructureChecks:
    def test_identity_flags(self):
        signs_hold, slack = check_m_matrix_pattern(identity(3))
        assert signs_hold is True
        np.testing.assert_array_equal(slack, np.ones(3))
        assert np.all(slack > 0)

    def test_sign_pattern_violations_detected(self):
        for dense in ([[1.0, 0.5], [-0.2, 1.0]], [[1.0, -0.5], [0.2, 1.0]],
                      [[-1.0, 0.0], [0.0, 1.0]]):
            signs_hold, _ = check_m_matrix_pattern(from_dense(dense))
            assert signs_hold is False, dense

    @pytest.mark.parametrize("row,col", [(0, 1), (1, 0), (1, 1)])
    def test_nan_entry_fails_the_sign_pattern(self, row, col):
        dense = np.array([[2.0, -1.0], [-1.0, 2.0]])
        dense[row, col] = np.nan
        assert check_m_matrix_pattern(from_dense(dense))[0] is False

    def test_slacks_match_abs_sum_formula(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            dense = random_dominant_m_matrix(rng, n, slack_scale=rng.random() * 10 + 0.01)
            signs_hold, slack = check_m_matrix_pattern(from_dense(dense))
            tol = 1e-14 * np.abs(np.diag(dense)).max()
            assert signs_hold
            assert np.max(np.abs(slack - abs_sum_slacks(dense))) <= tol

    def test_slack_values(self):
        m = from_dense([[3.0, -1.0], [-2.0, 4.0]])
        np.testing.assert_array_equal(check_m_matrix_pattern(m)[1], [1.0, 3.0])


class TestFixedDot:
    def test_same_bits_at_every_alignment(self):
        # each operand at 8 byte offsets 0, 8, ..., 56: every position in a
        # 64-byte line, so no SIMD path may see a different head or tail
        rng = np.random.default_rng(47)
        n = 22_500
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        want = fixed_dot(a, b)
        for shift_a in range(8):
            a_buf = np.empty(n + 8)
            a_buf[shift_a : shift_a + n] = a
            for shift_b in range(8):
                b_buf = np.empty(n + 8)
                b_buf[shift_b : shift_b + n] = b
                got = fixed_dot(a_buf[shift_a : shift_a + n], b_buf[shift_b : shift_b + n])
                assert got.hex() == want.hex(), (shift_a, shift_b)

    def test_nonnegative_operands_match_exact_sum(self):
        rng = np.random.default_rng(53)
        a, b = rng.random(22_500), rng.random(22_500) * 1e3
        exact = math.fsum((a * b).tolist())  # correctly rounded sum of the products
        assert abs(fixed_dot(a, b) - exact) <= 1e-13 * exact


class TestSolve:
    def test_identity(self):
        b = np.array([1.0, -2.0, 0.5])
        x, report = LinearSolver().solve(identity(3), b)
        np.testing.assert_allclose(x, b, rtol=1e-14)
        assert report.residual <= 1e-12

    def test_one_by_one_chem_balance(self):
        # [m(K)] c = m(K) g(u)
        m_k, u = 2.5, 4.0
        g = u / (u + 1.0)
        mat = from_dense([[m_k]])
        x, _ = LinearSolver().solve(mat, np.array([m_k * g]))
        assert x[0] == pytest.approx(g, rel=1e-14)

    def test_random_dominant_50x50_vs_dense_oracle(self):
        rng = np.random.default_rng(5)
        dense = random_dominant_m_matrix(rng, 50)
        b = rng.random(50)
        x, _ = LinearSolver().solve(from_dense(dense), b)
        want = dense_gauss_solve(dense, b)
        assert np.max(np.abs(x - want)) <= 1e-10

    def test_zero_rhs_gives_zero(self):
        m = from_dense([[2.0, -1.0], [-1.0, 2.0]])
        x, report = LinearSolver().solve(m, np.zeros(2))
        np.testing.assert_array_equal(x, np.zeros(2))
        assert report.method == "trivial"

    @pytest.mark.parametrize("rhs", [[1e200, 1e200], [1.0, np.nan]])  # norm inf, NaN
    def test_non_finite_rhs_norm_raises_naming_the_rhs(self, rhs):
        m = from_dense([[3.0, -1.0], [-1.0, 3.0]])
        exact = SparseMatrix(m.offsets, m.data, dct_solve([[2.0, 4.0]]))
        for mat in (m, exact):  # before the Krylov and the exact path alike
            with pytest.raises(SolverError, match="right-hand side norm (inf|nan) is not finite"):
                LinearSolver().solve(mat, np.array(rhs))

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(3)
        dense = random_dominant_m_matrix(rng, 30)
        m = from_dense(dense)
        b = rng.random(30)
        solver = LinearSolver()
        x1, _ = solver.solve(m, b)
        x2, _ = solver.solve(m, b)
        x3, _ = LinearSolver().solve(m, b)
        assert np.array_equal(x1, x2)
        assert np.array_equal(x1, x3)

    def test_fuzz_dominant_systems_always_succeed(self):
        rng = np.random.default_rng(17)
        solver = LinearSolver()
        for trial in range(1000):
            n = int(rng.integers(2, 24))
            dense = random_dominant_m_matrix(rng, n, slack_scale=rng.random() * 10 + 0.01)
            b = rng.standard_normal(n)
            x, report = solver.solve(from_dense(dense), b)
            assert report.residual <= 1e-12, f"trial {trial}"

    def test_m_matrix_nonnegative_rhs_gives_nonnegative_solution(self):
        # operational form of "the inverse of an M-matrix is positive"
        rng = np.random.default_rng(23)
        solver = LinearSolver()
        for _ in range(300):
            n = int(rng.integers(2, 30))
            dense = random_dominant_m_matrix(rng, n)
            b = rng.random(n)
            x, _ = solver.solve(from_dense(dense), b)
            assert x.min() >= -1e-12 * np.abs(x).max()

    def test_singular_matrix_raises(self):
        m = from_dense([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SolverError):
            LinearSolver().solve(m, np.array([1.0, 2.0]))

    def test_rhs_shape_mismatch(self):
        with pytest.raises(ValueError):
            LinearSolver().solve(identity(3), np.ones(2))

    def test_krylov_path_matches_dense_oracle(self):
        rng = np.random.default_rng(29)
        dense = random_dominant_m_matrix(rng, 40, density=0.1)
        b = rng.random(40)
        x, _ = LinearSolver().solve(from_dense(dense), b)
        assert np.max(np.abs(x - dense_gauss_solve(dense, b))) <= 1e-9

    def test_krylov_breakdown_falls_back_to_lu(self, splu_calls):
        # a structural breakdown: D = I, v = A b = [-1, 1], so
        # (r~, v) = b . v = -1 + 1 is exactly 0 in any summation order
        dense = [[1.0, -2.0], [0.0, 1.0]]
        m = from_dense(dense)
        b = np.ones(2)
        x, report = LinearSolver().solve(m, b)
        assert report.method == "direct-lu(fallback)"
        assert len(splu_calls) == 1
        assert np.max(np.abs(x - dense_gauss_solve(np.array(dense), b))) <= 1e-12
        np.testing.assert_array_equal(x, [3.0, 1.0])

    def test_zero_diagonal_is_solved_by_one_lu(self, splu_calls):
        # Jacobi needs the diagonal: the permutation [[0, 2], [3, 0]] goes to LU
        dense = np.array([[0.0, 2.0], [3.0, 0.0]])
        x, report = LinearSolver().solve(from_dense(dense), np.array([4.0, 9.0]))
        assert report.method == "direct-lu(fallback)"
        assert report.iterations == 0
        assert len(splu_calls) == 1
        np.testing.assert_allclose(x, [3.0, 2.0], rtol=1e-15)

    def test_fallback_lu_is_made_per_solve_and_not_kept(self, splu_calls):
        dense = [[1.0, -2.0], [0.0, 1.0]]
        m = from_dense(dense)
        solver = LinearSolver()
        b = np.ones(2)  # Jacobi-BiCGSTAB breaks down on it, as above
        solves = [solver.solve(m, b) for _ in range(2)]
        assert [report.method for _, report in solves] == ["direct-lu(fallback)"] * 2
        assert np.array_equal(solves[0][0], solves[1][0])
        assert len(splu_calls) == 2
        assert m._exact is None

    def test_unfactorized_matrix_goes_krylov_first(self, splu_calls):
        # row slack far below half the diagonal: Krylov still goes first
        rng = np.random.default_rng(37)
        dense = random_dominant_m_matrix(rng, 20, slack_scale=0.01)
        b = rng.random(20)
        x, report = LinearSolver().solve(from_dense(dense), b)
        assert report.method == "jacobi-bicgstab"
        assert splu_calls == []
        assert np.max(np.abs(x - dense_gauss_solve(dense, b))) <= 1e-9

    def test_dct_solve_rejects_nonpositive_grid(self):
        m = from_dense([[3.0, -1.0], [-1.0, 3.0]])
        with pytest.raises(SolverError):
            dct_solve([[2.0, np.nan]])
        m = SparseMatrix(m.offsets, m.data, dct_solve([[2.0, 4.0]]))  # T_2 + 2I: eigenvalues 2, 4
        x, report = LinearSolver().solve(m, np.array([1.0, 2.0]))
        assert report.method == "direct-dct"
        np.testing.assert_allclose(x, [5.0 / 8.0, 7.0 / 8.0], rtol=1e-15)

    @pytest.mark.parametrize("n,slack_scale", [(20, 1.0), (40, 0.01), (200, 1.0)])
    def test_krylov_path_matches_scipy_bicgstab(self, n, slack_scale):
        rng = np.random.default_rng(41 + n)
        dense = random_dominant_m_matrix(rng, n, density=0.1, slack_scale=slack_scale)
        m = from_dense(dense)
        b = rng.random(n)
        solver = LinearSolver()
        x, report = solver.solve(m, b)
        want, iterations, info = scipy_jacobi_bicgstab(m.dia, b, solver.tol)
        assert info == 0
        assert report.method == "jacobi-bicgstab"
        assert report.iterations == iterations
        assert report.residual <= solver.tol
        assert np.linalg.norm(dense @ (x - want)) <= 2 * solver.tol * np.linalg.norm(b)


class TestKernelParity:
    """The hot path calls scipy's and numpy's compiled kernels directly: each
    call gives its public wrapper's result bit for bit, so a numpy or scipy
    release that changes one of these private entry points fails here."""

    SHAPES = [(48, 48), (35, 350), (150, 150), (1, 40), (40, 1), (1, 1)]

    @staticmethod
    def operands(nx, ny, monkeypatch):
        """The chem operator B of an nx-by-ny mesh with the eigenvalue grid
        it keeps, a nonsymmetric operator on B's layout, and a float, a
        strided and an integer vector of B's size."""
        kept = []
        solve = scheme.dct_solve

        def keeping(eigenvalues):
            kept.append(eigenvalues)
            return solve(eigenvalues)

        monkeypatch.setattr(scheme, "dct_solve", keeping)
        b_mat = scheme.chem_operator(Mesh((0.0, 2.0), (-1.0, 3.0), nx, ny), 0.5, 0.1)
        rng = np.random.default_rng(nx * 1000 + ny)
        factors = rng.uniform(0.5, 1.5, b_mat.data.shape)
        a_mat = SparseMatrix(b_mat.offsets, b_mat.data * factors)
        n = b_mat.n
        strided = rng.standard_normal(2 * n)[::2]
        xs = (rng.standard_normal(n), strided, rng.integers(-9, 9, n))
        return b_mat, kept[0], a_mat, xs

    @pytest.mark.parametrize("nx,ny", SHAPES)
    def test_spmv_and_scaled_product_match_dia_matrix(self, nx, ny, monkeypatch):
        b_mat, _, a_mat, xs = self.operands(nx, ny, monkeypatch)
        scaled = a_mat.data * (1 / a_mat.diagonal())
        want_scaled = sp.dia_matrix((scaled, a_mat.offsets), shape=(a_mat.n, a_mat.n))
        out = np.full(a_mat.n, np.nan)  # the product zeroes what it is given
        for x in xs:
            for m in (b_mat, a_mat):
                assert np.array_equal(spmv(m, x), m.dia @ x)
            got = _dia_product(a_mat.offsets, scaled, np.asarray(x, dtype=float), out)
            assert np.array_equal(got, want_scaled @ x)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("nx,ny", SHAPES)
    def test_dct_solve_matches_dctn_idctn(self, nx, ny, workers, monkeypatch):
        b_mat, eigenvalues, _, xs = self.operands(nx, ny, monkeypatch)
        with scipy.fft.set_workers(workers):
            for x in xs:
                got, report = LinearSolver().solve(b_mat, x)
                grid = np.asarray(x, dtype=float).reshape(ny, nx)
                coeffs = scipy.fft.dctn(grid, norm="ortho")
                want = scipy.fft.idctn(coeffs / eigenvalues, norm="ortho").ravel()
                assert report.method == "direct-dct"
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("nx,ny", SHAPES)
    def test_fixed_dot_matches_einsum(self, nx, ny, monkeypatch):
        *_, xs = self.operands(nx, ny, monkeypatch)
        for a in xs:
            for b in xs:
                assert fixed_dot(a, b).hex() == float(np.einsum("i,i->", a, b)).hex()
