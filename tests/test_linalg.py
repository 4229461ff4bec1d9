import numpy as np
import pytest
from numpy.testing import assert_allclose

from lanswitch import linalg
from lanswitch.linalg import (
    DimensionError,
    NonFiniteError,
    SparseMatrix,
    as_vector,
    dot,
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
        assert_allclose(I.matvec(as_vector([1, 2, 3])), [1, 2, 3])

    def test_diagonal_scaling(self):
        D = SparseMatrix.from_dense(np.diag([2.0, 3.0]))
        assert_allclose(D.matvec(as_vector([2, 3])), [4, 9])

    def test_baheux_row_sums(self):
        # Independent oracle: row sums straight from the five-point stencil.
        n, delta = 20, 0.0
        inst = gen_baheux(BaheuxSpec(n=n, delta=delta))
        got = inst.A.matvec(as_vector(np.ones(n)))
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
            I.matvec(as_vector([1.0, 2.0]))

    def test_matvec_t_identity(self):
        I = SparseMatrix.identity(3)
        assert_allclose(I.matvec_t(as_vector([1, 2, 3])), [1, 2, 3])

    def test_matvec_t_shift_matrix(self):
        M = SparseMatrix.from_dense(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert_allclose(M.matvec_t(as_vector([1, 0])), [0, 1])

    def test_symmetric_baheux_transpose_equals_forward(self):
        inst = gen_baheux(BaheuxSpec(n=20, delta=0.0))
        rng = np.random.default_rng(3)
        for _ in range(5):
            v = rng.standard_normal(20)
            assert_allclose(inst.A.matvec_t(v), inst.A.matvec(v),
                            rtol=0, atol=1e-14)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 40))
            M, _ = random_csr(rng, n)
            u = rng.standard_normal(n)
            v = rng.standard_normal(n)
            lhs = dot(M.matvec(u), v)
            rhs = dot(u, M.matvec_t(v))
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))

    def test_matches_dense_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            M, dense = random_csr(rng, 50, density=0.4)
            v = rng.standard_normal(50)
            ref = dense @ v
            # 1e-13 relative against the product's scale (single entries may
            # cancel to roundoff).
            assert_allclose(M.matvec(v), ref, rtol=1e-13,
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
            M.matvec(as_vector([1e100, 1e100]))

    def test_empty_row_handled(self):
        M = SparseMatrix(2, 2, [0, 0, 1], [1], [7.0])
        assert_allclose(M.matvec(as_vector([1.0, 2.0])), [0.0, 14.0])


def _bincount_matvec(A, v):
    # The CSR reference product, in plain numpy: row sums in stored order.
    rows = np.repeat(np.arange(A.nrows), np.diff(A.indptr))
    return np.bincount(rows, weights=A.data * v[A.indices], minlength=A.nrows)


def _bincount_matvec_t(A, v):
    rows = np.repeat(np.arange(A.nrows), np.diff(A.indptr))
    return np.bincount(A.indices, weights=A.data * v[rows], minlength=A.ncols)


def _banded(monkeypatch, build):
    # Build with bands from n = 300 on, so the DIA kernels are checked at
    # sizes below the library's DIA_MIN_N too.
    monkeypatch.setattr(linalg, "DIA_MIN_N", min(300, linalg.DIA_MIN_N))
    return build()


def _signed_zero_vectors(n):
    rng = np.random.default_rng(n)
    v = rng.standard_normal(n)
    v[rng.random(n) < 0.3] = 0.0
    v[rng.random(n) < 0.3] = -0.0
    yield v
    yield np.full(n, -0.0)
    yield np.zeros(n)
    # Cancellation to exact zero in some rows.
    yield np.where(rng.random(n) < 0.5, -0.0, 1e-300)


class TestDiagonalStorage:
    @pytest.mark.parametrize("n", [300, 1000, 2000])
    @pytest.mark.parametrize("delta", [0.0, 0.2, 5.0, 8.0])
    def test_dia_products_bitwise_equal_bincount(self, monkeypatch, n, delta):
        A = _banded(monkeypatch, lambda: gen_baheux(BaheuxSpec(n=n, delta=delta)).A)
        assert A._bands is not None
        assert [band[1].start - band[0].start for band in A._bands] == [-10, -1, 0, 1, 10]
        for v in _signed_zero_vectors(n):
            for got, ref in ((A.matvec(v), _bincount_matvec(A, v)),
                             (A.matvec_t(v), _bincount_matvec_t(A, v))):
                # Bytes compare every bit, sign bits of zeros included.
                assert got.tobytes() == ref.tobytes()
                assert np.array_equal(np.signbit(got), np.signbit(ref))

    def test_explicit_signed_zeros_stored(self, monkeypatch):
        # Stored -0.0 values (from_coo would turn them into +0.0) on the
        # diagonal and superdiagonal, next to padded +0.0 band entries.
        n = 400
        indptr = np.concatenate([[0], np.cumsum([2] * (n - 1) + [1])])
        indices = np.concatenate([np.repeat(np.arange(n - 1), 2) + np.tile([0, 1], n - 1), [n - 1]])
        data = np.where(np.arange(2 * n - 1) % 3, -0.0, 2.5)
        A = _banded(monkeypatch, lambda: SparseMatrix(n, n, indptr, indices, data))
        assert A._bands is not None
        assert np.signbit(A.data).any()
        for v in _signed_zero_vectors(n):
            assert A.matvec(v).tobytes() == _bincount_matvec(A, v).tobytes()
            assert A.matvec_t(v).tobytes() == _bincount_matvec_t(A, v).tobytes()

    def test_baheux_at_dia_min_n_is_banded(self):
        n = -(-linalg.DIA_MIN_N // 10) * 10
        assert gen_baheux(BaheuxSpec(n=n)).A._bands is not None

    def test_non_square_stays_on_bincount(self):
        n = linalg.DIA_MIN_N
        i = np.arange(n)
        M = SparseMatrix.from_coo(n, n + 1, i, i + 1, np.ones(n))
        assert M._bands is None
        v = np.arange(n + 1, dtype=float)
        assert M.matvec(v).tobytes() == _bincount_matvec(M, v).tobytes()

    def test_too_many_offsets_stay_on_bincount(self):
        def upper_bands(count):
            n = linalg.DIA_MIN_N
            rows = np.concatenate([np.arange(n - o) for o in range(count)])
            return SparseMatrix.from_coo(n, n, rows, rows + np.repeat(
                np.arange(count), [n - o for o in range(count)]), np.ones(rows.size))

        assert upper_bands(linalg.DIA_MAX_OFFSETS)._bands is not None
        M = upper_bands(linalg.DIA_MAX_OFFSETS + 1)
        assert M._bands is None
        v = np.linspace(-1.0, 1.0, M.nrows)
        assert M.matvec(v).tobytes() == _bincount_matvec(M, v).tobytes()

    def test_below_crossover_stays_on_bincount(self):
        n = (linalg.DIA_MIN_N - 1) // 10 * 10
        assert gen_baheux(BaheuxSpec(n=n)).A._bands is None

    def test_unsorted_row_stays_on_bincount(self, monkeypatch):
        # Columns out of order in a row: bincount adds them in stored order,
        # which no band order reproduces.
        n = 300
        indptr = np.arange(0, 2 * n + 1, 2)
        indices = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)[:, ::-1].ravel()
        M = _banded(monkeypatch, lambda: SparseMatrix(n, n, indptr, indices, np.ones(2 * n)))
        assert M._bands is None

    def test_dia_arrays_read_only(self, monkeypatch):
        A = _banded(monkeypatch, lambda: gen_baheux(BaheuxSpec(n=300, delta=5.0)).A)
        for _, _, band in A._bands:
            assert not band.flags.writeable
            with pytest.raises(ValueError):
                band[0] = 1.0
        assert A._rows_of_nnz is None
        assert_allclose(A.to_dense().sum(axis=1), A.matvec(np.ones(300)), rtol=0, atol=0)
        assert not A._rows_of_nnz.flags.writeable

    def test_cached_zero_vector_read_only(self):
        v = np.ones(37)
        assert linalg.all_finite(v)
        zeros = linalg._ZEROS[37]
        assert not zeros.flags.writeable
        with pytest.raises(ValueError):
            zeros[0] = 1.0

    def test_nonfinite_operand_may_raise_on_bands_only(self, monkeypatch):
        # Row and column j store nothing, so bincount never multiplies v[j];
        # the bands hold a padded 0 there, and 0 * inf is nan. Inside the
        # library every operand is finite-checked first.
        n, j = 300, 5
        base = gen_baheux(BaheuxSpec(n=n, delta=0.2)).A
        rows = np.repeat(np.arange(n), np.diff(base.indptr))
        keep = (rows != j) & (base.indices != j)
        A = _banded(monkeypatch, lambda: SparseMatrix.from_coo(
            n, n, rows[keep], base.indices[keep], base.data[keep]))
        assert A._bands is not None
        v = np.ones(n)
        v[j] = np.inf
        with np.errstate(invalid="ignore"):
            assert np.isfinite(_bincount_matvec(A, v)).all()
            assert np.isfinite(_bincount_matvec_t(A, v)).all()
            for product in (A.matvec, A.matvec_t):
                with pytest.raises(NonFiniteError):
                    product(v)

    @pytest.mark.filterwarnings("error")
    def test_invalid_value_warning_left_to_the_caller(self, monkeypatch):
        A = _banded(monkeypatch, lambda: gen_baheux(BaheuxSpec(n=300)).A)
        v = np.ones(300)
        v[7] = np.inf
        with pytest.raises(RuntimeWarning, match="invalid value"):
            A.matvec(v)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError):
                A.matvec(v)


class TestAllFinite:
    @pytest.mark.parametrize("n", range(1, 34))
    def test_one_bad_entry_anywhere(self, n):
        rng = np.random.default_rng(n)
        v = rng.standard_normal(n)
        assert linalg.all_finite(v) and np.isfinite(v).all()
        for bad in (np.inf, -np.inf, np.nan):
            for i in range(n):
                w = v.copy()
                w[i] = bad
                with np.errstate(invalid="ignore"):
                    assert not linalg.all_finite(w)
                assert not np.isfinite(w).all()

    @pytest.mark.parametrize("n", [1, 2, 7, 16, 33, 1000])
    def test_huge_finite_entries(self, n):
        rng = np.random.default_rng(n)
        v = np.where(rng.random(n) < 0.5, -1.0, 1.0) * np.finfo(float).max
        v[::3] = 1e308
        assert linalg.all_finite(v)
        assert linalg.all_finite(np.full(n, -np.finfo(float).max))
