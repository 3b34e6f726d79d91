import math

import numpy as np
import pytest

from chemofv import (
    LinearSolver,
    SolverError,
    SparseMatrix,
    check_m_matrix_pattern,
    spmv,
)
from chemofv.linalg import fixed_dot, keep_dct_solve
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

    def test_data_shape_must_match_offsets(self):
        for data in ([1.0, 2.0], np.ones((2, 2)), np.ones((1, 2, 2))):
            with pytest.raises(ValueError, match=r"need \(1, n\)"):
                SparseMatrix([0], data)

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

    def test_read_only_owned_data_is_taken_over(self):
        offsets, data = np.array([-1, 0, 1]), np.ones((3, 3))
        data[0, 2] = data[2, 0] = 0.0
        data.setflags(write=False)
        assert SparseMatrix(offsets, data).data is data
        # a read-only view does not own its memory, so it is copied
        view = data[:, :]
        assert SparseMatrix(offsets, view).data is not view

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


class TestWithData:
    """The operator made on a validated one's layout, as each step's cell
    operator is."""

    @staticmethod
    def template():
        return from_dense([[3.0, -1.0, 0.0], [-2.0, 4.0, -1.0], [0.0, -1.0, 2.0]])

    @staticmethod
    def frozen(data):
        data = np.array(data, dtype=float)
        data.setflags(write=False)
        return data

    def test_shares_the_layout_and_takes_the_data_over(self):
        t = self.template()
        keep_dct_solve(t, np.ones((1, 3)))
        data = self.frozen(2.0 * t.data)
        m = t.with_data(data)
        assert m.offsets is t.offsets and m.dia.offsets is t.dia.offsets
        assert m.data is data and m.dia.data is data
        assert m.n == 3 and m._exact is None  # the template's exact solve stays its own
        np.testing.assert_array_equal(m.to_dense(), 2.0 * t.to_dense())
        x = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(spmv(m, x), SparseMatrix(t.offsets, data).dia @ x)
        np.testing.assert_array_equal(t.to_dense()[0], [3.0, -1.0, 0.0])  # template unchanged

    @pytest.mark.parametrize("shape", [(3, 4), (2, 3), (3,), (1, 3, 3)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=r"data has shape .*, need \(3, 3\)"):
            self.template().with_data(self.frozen(np.zeros(shape)))

    def test_data_it_cannot_take_over_rejected(self):
        t = self.template()
        writable = t.data.copy()
        view = self.frozen(t.data)[:, :]
        narrow = t.data.astype(np.float32)
        narrow.setflags(write=False)
        for data in (writable, view, narrow, t.data.tolist()):
            with pytest.raises(ValueError, match="read-only float64 array"):
                t.with_data(data)

    @pytest.mark.parametrize("offset,column", [(1, 0), (-1, 2)])
    def test_entry_outside_matrix_rejected(self, offset, column):
        t = self.template()
        data = t.data.copy()
        data[list(t.offsets).index(offset), column] = -1.0
        with pytest.raises(ValueError, match=f"outside the matrix on diagonal {offset}"):
            t.with_data(self.frozen(data))


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
        report = check_m_matrix_pattern(identity(3))
        assert report.diag_positive
        assert report.offdiag_nonpositive
        np.testing.assert_array_equal(report.row_slack, np.ones(3))
        np.testing.assert_array_equal(report.col_slack, np.ones(3))
        assert np.all(report.row_slack > 0) and np.all(report.col_slack > 0)

    def test_sign_pattern_violations_detected(self):
        report = check_m_matrix_pattern(
            from_dense([[1.0, 0.5], [-0.2, 1.0]])
        )
        assert not report.offdiag_nonpositive
        report = check_m_matrix_pattern(
            from_dense([[-1.0, 0.0], [0.0, 1.0]])
        )
        assert not report.diag_positive

    def test_slacks_match_abs_sum_formula(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            dense = random_dominant_m_matrix(rng, n, slack_scale=rng.random() * 10 + 0.01)
            report = check_m_matrix_pattern(from_dense(dense))
            assert report.diag_positive and report.offdiag_nonpositive
            tol = 1e-14 * np.abs(np.diag(dense)).max()
            for got, want in zip((report.row_slack, report.col_slack), abs_sum_slacks(dense)):
                assert np.max(np.abs(got - want)) <= tol

    def test_slack_values(self):
        m = from_dense([[3.0, -1.0], [-2.0, 4.0]])
        report = check_m_matrix_pattern(m)
        np.testing.assert_allclose(report.row_slack, [2.0, 2.0])
        np.testing.assert_allclose(report.col_slack, [1.0, 3.0])

    def test_only_the_asked_slack_is_filled(self):
        m = from_dense([[3.0, -1.0], [-2.0, 4.0]])
        rows = check_m_matrix_pattern(m, "rows")
        cols = check_m_matrix_pattern(m, "cols")
        assert rows.col_slack is None and cols.row_slack is None
        np.testing.assert_array_equal(rows.row_slack, [2.0, 2.0])
        np.testing.assert_array_equal(cols.col_slack, [1.0, 3.0])
        assert rows.diag_positive and cols.offdiag_nonpositive
        with pytest.raises(ValueError, match="slack must be"):
            check_m_matrix_pattern(m, "row")


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
            keep_dct_solve(m, [[2.0, np.nan]])
        keep_dct_solve(m, [[2.0, 4.0]])  # T_2 + 2I: eigenvalues 2 and 4
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
