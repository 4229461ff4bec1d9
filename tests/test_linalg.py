import numpy as np
import pytest
from numpy.testing import assert_allclose

from lanswitch.linalg import (
    DimensionError,
    NonFiniteError,
    SparseMatrix,
    as_vector,
    dot,
    matvec,
    matvec_t,
    norm2,
)
from lanswitch.problems import BaheuxSpec, gen_baheux


def random_csr(rng, n, density=0.3):
    dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    return SparseMatrix.from_dense(dense), dense


class TestVector:
    def test_freezes_and_copies(self):
        src = [1.0, 2.0]
        v = as_vector(src)
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0] = 5.0

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            as_vector([])

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteError):
            as_vector([1.0, np.nan])
        with pytest.raises(NonFiniteError):
            as_vector([np.inf, 0.0])

    def test_rejects_2d(self):
        with pytest.raises(DimensionError):
            as_vector([[1.0, 2.0]])


class TestDot:
    @pytest.mark.parametrize("u, v, expected", [
        ([1, 0], [0, 1], 0.0),
        ([2, 3], [2, 3], 13.0),
        ([1, 1, 1], [1, 2, 3], 6.0),
    ])
    def test_examples(self, u, v, expected):
        assert dot(as_vector(u), as_vector(v)) == expected

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            dot(as_vector([1.0]), as_vector([1.0, 2.0]))

    def test_symmetry_bitwise(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 200))
            u = rng.standard_normal(n)
            v = rng.standard_normal(n)
            assert dot(u, v) == dot(v, u)

    def test_overflow_surfaces(self):
        big = np.full(4, 1e200)
        with pytest.raises(NonFiniteError):
            dot(big, big)

    @pytest.mark.filterwarnings("error")
    def test_overflow_warning_left_to_the_caller(self):
        # Called directly, a kernel lets numpy's overflow warning through;
        # under the callers' errstate only NonFiniteError remains.
        big = np.full(4, 1e200)
        for kernel in (dot, lambda u, v: norm2(u)):
            with pytest.raises(RuntimeWarning):
                kernel(big, big)
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(NonFiniteError):
                    kernel(big, big)


class TestNorm2:
    @pytest.mark.parametrize("v, expected", [
        ([0, 0, 0], 0.0),
        ([3, 4], 5.0),
        ([1, 1, 1, 1], 2.0),
    ])
    def test_examples(self, v, expected):
        assert norm2(as_vector(v)) == expected


class TestSparseMatrix:
    def test_identity_matvec(self):
        I = SparseMatrix.identity(3)
        assert_allclose(matvec(I, as_vector([1, 2, 3])), [1, 2, 3])

    def test_diagonal_scaling(self):
        D = SparseMatrix.from_dense(np.diag([2.0, 3.0]))
        assert_allclose(matvec(D, as_vector([2, 3])), [4, 9])

    def test_baheux_row_sums(self):
        # Independent oracle: row sums straight from the five-point stencil.
        n, delta = 20, 0.0
        inst = gen_baheux(BaheuxSpec(n=n, delta=delta))
        got = matvec(inst.A, as_vector(np.ones(n)))
        expected = np.empty(n)
        for i in range(n):
            blk, t = divmod(i, 10)
            total = 4.0
            if t > 0:
                total += -1.0 - delta
            if t < 9:
                total += -1.0 + delta
            if blk > 0:
                total += -1.0
            if blk < n // 10 - 1:
                total += -1.0
            expected[i] = total
        assert_allclose(got, expected, rtol=0, atol=0)

    def test_matvec_dimension_error(self):
        I = SparseMatrix.identity(3)
        with pytest.raises(DimensionError):
            matvec(I, as_vector([1.0, 2.0]))

    def test_matvec_t_identity(self):
        I = SparseMatrix.identity(3)
        assert_allclose(matvec_t(I, as_vector([1, 2, 3])), [1, 2, 3])

    def test_matvec_t_shift_matrix(self):
        M = SparseMatrix.from_dense(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert_allclose(matvec_t(M, as_vector([1, 0])), [0, 1])

    def test_symmetric_baheux_transpose_equals_forward(self):
        inst = gen_baheux(BaheuxSpec(n=20, delta=0.0))
        rng = np.random.default_rng(3)
        for _ in range(5):
            v = rng.standard_normal(20)
            assert_allclose(matvec_t(inst.A, v), matvec(inst.A, v),
                            rtol=0, atol=1e-14)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 40))
            M, _ = random_csr(rng, n)
            u = rng.standard_normal(n)
            v = rng.standard_normal(n)
            lhs = dot(matvec(M, u), v)
            rhs = dot(u, matvec_t(M, v))
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))

    def test_matches_dense_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            M, dense = random_csr(rng, 50, density=0.4)
            v = rng.standard_normal(50)
            ref = dense @ v
            # 1e-13 relative against the product's scale (single entries may
            # cancel to roundoff).
            assert_allclose(matvec(M, v), ref, rtol=1e-13,
                            atol=1e-13 * np.abs(ref).max())

    def test_invalid_indptr(self):
        with pytest.raises(ValueError):
            SparseMatrix(2, 2, [0, 2, 1], [0, 1], [1.0, 1.0])

    def test_column_index_out_of_range(self):
        with pytest.raises(ValueError):
            SparseMatrix(2, 2, [0, 1, 2], [0, 5], [1.0, 1.0])

    def test_non_finite_values_rejected(self):
        with pytest.raises(NonFiniteError):
            SparseMatrix(1, 1, [0, 1], [0], [np.inf])

    def test_require_square(self):
        M = SparseMatrix.from_coo(2, 3, [0], [1], [5.0])
        with pytest.raises(DimensionError):
            M.require_square()

    def test_duplicate_coordinates_summed(self):
        M = SparseMatrix.from_coo(2, 2, [0, 0], [0, 0], [1.5, 2.5])
        assert_allclose(M.to_dense(), [[4.0, 0.0], [0.0, 0.0]])

    def test_norm_inf(self):
        M = SparseMatrix.from_dense(np.array([[1.0, -2.0], [3.0, 0.0]]))
        assert M.norm_inf() == 3.0

    def test_matvec_overflow_surfaces(self):
        M = SparseMatrix.from_dense(np.full((2, 2), 1e308))
        with pytest.raises(NonFiniteError):
            matvec(M, as_vector([1e100, 1e100]))

    def test_empty_row_handled(self):
        M = SparseMatrix(2, 2, [0, 0, 1], [1], [7.0])
        assert_allclose(matvec(M, as_vector([1.0, 2.0])), [0.0, 14.0])
