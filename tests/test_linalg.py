import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from lanswitch import linalg
from lanswitch.harness import PAPER_DELTAS, PAPER_DIMS
from lanswitch.linalg import (
    DimensionError,
    NonFiniteError,
    SparseMatrix,
    dot,
    norm2,
)
from lanswitch.problems import BaheuxSpec, gen_baheux
from oracles import as_vector, from_dense, identity, norm_inf, to_dense


def random_csr(rng, n, density=0.3):
    dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    return from_dense(dense), dense


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


def _only_overflow_or_invalid(caught):
    # numpy's overflow warning, and possibly the finite check's invalid value.
    messages = [str(w.message) for w in caught]
    assert any("overflow" in m for m in messages)
    assert all("overflow" in m or "invalid value" in m for m in messages)


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
        # Outside np.errstate numpy's overflow warning reaches the caller
        # too (see the linalg module docstring).
        big = np.full(4, 1e200)
        with pytest.warns(RuntimeWarning) as caught:
            with pytest.raises(NonFiniteError):
                dot(big, big)
        _only_overflow_or_invalid(caught)

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
        I = identity(3)
        assert_allclose(I.matvec(as_vector([1, 2, 3])), [1, 2, 3])

    def test_repr_names_order_and_stored_entries(self):
        A = SparseMatrix(3, [0, 1, 1, 3], [2, 0, 2], [1.0, 2.0, 3.0])
        assert repr(A) == "SparseMatrix(3x3, nnz=3)"

    def test_diagonal_scaling(self):
        D = from_dense(np.diag([2.0, 3.0]))
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
        I = identity(3)
        for product in (I.matvec, I.matvec_t):
            with pytest.raises(DimensionError):
                product(as_vector([1.0, 2.0]))

    def test_matvec_t_identity(self):
        I = identity(3)
        assert_allclose(I.matvec_t(as_vector([1, 2, 3])), [1, 2, 3])

    def test_matvec_t_shift_matrix(self):
        M = from_dense(np.array([[0.0, 1.0], [0.0, 0.0]]))
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
            SparseMatrix(2, [0, 2, 1], [0, 1], [1.0, 1.0])

    def test_column_index_out_of_range(self):
        with pytest.raises(ValueError):
            SparseMatrix(2, [0, 1, 2], [0, 5], [1.0, 1.0])

    @pytest.mark.parametrize("n, indptr, indices, data, message", [
        (3, [0, 2, 1, 2], [0, 1], [1.0, 1.0], "indptr must be monotone non-decreasing"),
        (3, [0, 1, 2, 2], [0, -1], [1.0, 1.0], "column index out of range"),
        (3, [0, 1, 2, 2], [3, 0], [1.0, 1.0], "column index out of range"),
        (3, [0, 1, 2, 2], [2, -2**63], [1.0, 1.0], "column index out of range"),
        (0, [0], [], [], "matrix order must be positive"),
        (3, [0, 1, 2], [0, 1], [1.0, 1.0], "indptr must have length n \\+ 1"),
        (3, [0, 1, 2, 3], [0, 1, 2], [1.0, 1.0], "indices and data must have equal length"),
    ], ids=["decreasing-indptr", "negative-column", "column-past-end", "most-negative-column",
            "order-zero", "short-indptr", "data-shorter-than-indices"])
    def test_malformed_csr_rejected(self, n, indptr, indices, data, message):
        with pytest.raises(linalg.LinalgError, match=f"^{message}$"):
            SparseMatrix(n, indptr, indices, data)

    def test_non_finite_values_rejected(self):
        with pytest.raises(NonFiniteError):
            SparseMatrix(1, [0, 1], [0], [np.inf])

    def test_from_coo_column_index_out_of_range(self):
        with pytest.raises(linalg.LinalgError, match="^column index out of range$"):
            SparseMatrix.from_coo(2, [0], [2], [1.0])

    @pytest.mark.parametrize("rows, cols, vals, message", [
        ([0, 1], [0], [1.0, 1.0], "coordinate arrays must have equal length"),
        ([0], [0], [1.0, 2.0], "coordinate arrays must have equal length"),
        ([2], [0], [1.0], "row index out of range"),
        ([-1], [0], [1.0], "row index out of range"),
    ], ids=["short-cols", "long-vals", "row-past-end", "negative-row"])
    def test_malformed_coo_rejected(self, rows, cols, vals, message):
        with pytest.raises(linalg.LinalgError, match=f"^{message}$"):
            SparseMatrix.from_coo(2, rows, cols, vals)

    def test_from_dense_rejects_non_square(self):
        with pytest.raises(DimensionError):
            from_dense(np.ones((2, 3)))

    def test_duplicate_coordinates_summed(self):
        M = SparseMatrix.from_coo(2, [0, 0], [0, 0], [1.5, 2.5])
        assert_allclose(to_dense(M), [[4.0, 0.0], [0.0, 0.0]])

    def test_norm_inf(self):
        M = from_dense(np.array([[1.0, -2.0], [3.0, 0.0]]))
        assert norm_inf(M) == 3.0

    def test_matvec_overflow_surfaces(self):
        M = from_dense(np.full((2, 2), 1e308))
        assert _path(M) == "pair"
        with pytest.warns(RuntimeWarning) as caught:
            with pytest.raises(NonFiniteError):
                M.matvec(as_vector([1e100, 1e100]))
        _only_overflow_or_invalid(caught)

    def test_empty_row_handled(self):
        M = SparseMatrix(2, [0, 0, 1], [1], [7.0])
        assert_allclose(M.matvec(as_vector([1.0, 2.0])), [0.0, 14.0])

    @pytest.mark.parametrize("n", [3, linalg.DIA_MIN_N])
    def test_no_entries_products_are_float64_zeros(self, n):
        # np.bincount of no terms returns int64 zeros whatever its weights,
        # whose bytes equal float64 zeros; only the dtype tells them apart.
        M = SparseMatrix(n, [0] * (n + 1), [], [])
        ones = np.ones(n)
        for out in (M.matvec(ones), M.matvec_t(ones), *M.products(ones, ones)):
            assert out.dtype == np.float64
            assert out.tobytes() == np.zeros(n).tobytes()


def _bincount_matvec(A, v):
    # The CSR reference product, in plain numpy: row sums in stored order.
    rows = np.repeat(np.arange(A.nrows), np.diff(A.indptr))
    return np.bincount(rows, weights=A.data * v[A.indices], minlength=A.nrows)


def _bincount_matvec_t(A, v):
    rows = np.repeat(np.arange(A.nrows), np.diff(A.indptr))
    return np.bincount(A.indices, weights=A.data * v[rows], minlength=A.nrows)


def _path(A):
    # Which storage computes the products: "pair" (one bincount over the pair
    # index for products, a bincount per lone product), "bands" or "bincount".
    if A._pair is not None:
        assert A._bands is None
        return "pair"
    return "bincount" if A._bands is None else "bands"


def _expected_path(A, offsets):
    # The storage rule, from the matrix's order and stored offsets.
    if A.nrows < linalg.DIA_MIN_N and A.nnz:
        return "pair"
    return "bands" if len(offsets) <= linalg.DIA_MAX_OFFSETS else "bincount"


def _banded(monkeypatch, build):
    # Build with bands from n = 300 on, so the DIA kernels are checked at
    # sizes below the library's DIA_MIN_N too.
    monkeypatch.setattr(linalg, "DIA_MIN_N", min(300, linalg.DIA_MIN_N))
    return build()


def _csr(n, row_cols, seed=0):
    # Square CSR matrix storing row i's columns row_cols[i] in the given
    # order, with random values, some of them -0.0; and the same matrix dense.
    rng = np.random.default_rng(seed)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(cols) for cols in row_cols], out=indptr[1:])
    indices = np.array([c for cols in row_cols for c in cols], dtype=np.int64)
    data = rng.standard_normal(indices.size)
    data[rng.random(indices.size) < 0.2] = -0.0
    dense = np.zeros((n, n))
    dense[np.repeat(np.arange(n), np.diff(indptr)), indices] = data
    return SparseMatrix(n, indptr, indices, data), dense


def _band_rows(n, offsets, empty_rows=()):
    return [[] if i in empty_rows else [i + o for o in sorted(offsets) if 0 <= i + o < n]
            for i in range(n)]


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


def _band_table(dense, offsets):
    # The padded band table the module docstring describes, built from the
    # dense matrix and its stored offsets: per offset o of A or A.T, A's
    # diagonal o from row max(0, -o), then after a gap of twice the largest
    # offset A.T's diagonal o.
    n = dense.shape[0]
    union = sorted(set(offsets) | {-o for o in offsets})
    gap = max(union, default=0)
    table = np.zeros((len(union), 2 * n + 2 * gap))
    for k, o in enumerate(union):
        i0 = max(0, -o)
        for half, M in ((0, dense), (n + 2 * gap, dense.T)):
            diagonal = np.diagonal(M, o)
            table[k, half + i0:half + i0 + diagonal.size] = diagonal
    return table


class TestDiagonalStorage:
    @pytest.mark.parametrize("n", [300, 1000, 2000])
    @pytest.mark.parametrize("delta", PAPER_DELTAS)
    def test_dia_products_bitwise_equal_bincount(self, monkeypatch, n, delta):
        A = _banded(monkeypatch, lambda: gen_baheux(BaheuxSpec(n=n, delta=delta)).A)
        assert A._bands is not None
        assert [start - A._bands.gap for _, start in A._bands.own] == [-10, -1, 0, 1, 10]
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
        A = _banded(monkeypatch, lambda: SparseMatrix(n, indptr, indices, data))
        assert A._bands is not None
        assert np.signbit(A.data).any()
        for v in _signed_zero_vectors(n):
            assert A.matvec(v).tobytes() == _bincount_matvec(A, v).tobytes()
            assert A.matvec_t(v).tobytes() == _bincount_matvec_t(A, v).tobytes()

    def test_baheux_at_dia_min_n_is_banded(self):
        n = -(-linalg.DIA_MIN_N // 10) * 10
        assert gen_baheux(BaheuxSpec(n=n)).A._bands is not None

    def test_too_many_offsets_stay_on_bincount(self):
        def upper_bands(count):
            n = linalg.DIA_MIN_N
            rows = np.concatenate([np.arange(n - o) for o in range(count)])
            return SparseMatrix.from_coo(n, rows, rows + np.repeat(
                np.arange(count), [n - o for o in range(count)]), np.ones(rows.size))

        assert _path(upper_bands(linalg.DIA_MAX_OFFSETS)) == "bands"
        M = upper_bands(linalg.DIA_MAX_OFFSETS + 1)
        assert _path(M) == "bincount"
        v = np.linspace(-1.0, 1.0, M.nrows)
        assert M.matvec(v).tobytes() == _bincount_matvec(M, v).tobytes()

    def test_below_crossover_stays_on_bincount(self):
        # Below DIA_MIN_N a square matrix keeps the pair index: products is one
        # bincount over it, and each lone product a bincount over the entries.
        n = (linalg.DIA_MIN_N - 1) // 10 * 10
        A = gen_baheux(BaheuxSpec(n=n)).A
        assert _path(A) == "pair"
        assert A._rows_of_nnz.base is A._pair.out.base
        v = _operand("mixed", n, 1)
        assert A.matvec(v).tobytes() == _bincount_matvec(A, v).tobytes()
        assert A.matvec_t(v).tobytes() == _bincount_matvec_t(A, v).tobytes()

    def test_paper_grid_banded_from_dia_min_n(self):
        # The library's own threshold, no monkeypatch: every paper-grid n from
        # DIA_MIN_N on runs on bands, and that is n = 400 to 1000, so raising
        # the threshold past the measured crossover fails here.
        banded = [n for n in PAPER_DIMS if gen_baheux(BaheuxSpec(n=n)).A._bands is not None]
        assert banded == [n for n in PAPER_DIMS if n >= linalg.DIA_MIN_N]
        assert banded == [400, 600, 800, 1000]

    def test_unsorted_row_stays_on_bincount(self, monkeypatch):
        # Columns out of order in a row: bincount adds them in stored order,
        # which no band order reproduces.
        n = 300
        indptr = np.arange(0, 2 * n + 1, 2)
        indices = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)[:, ::-1].ravel()
        M = _banded(monkeypatch, lambda: SparseMatrix(n, indptr, indices, np.ones(2 * n)))
        assert _path(M) == "bincount"

    def test_dia_arrays_read_only(self, monkeypatch):
        A = _banded(monkeypatch, lambda: gen_baheux(BaheuxSpec(n=300, delta=5.0)).A)
        bands = A._bands
        for arr in (bands.pad, bands.pair[0][0].base) + tuple(
                band for band, _ in bands.own + bands.transposed + bands.pair):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
        assert_allclose(to_dense(A).sum(axis=1), A.matvec(np.ones(300)), rtol=0, atol=0)

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
            n, rows[keep], base.indices[keep], base.data[keep]))
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


class TestBandDetection:
    N = linalg.DIA_MIN_N

    @pytest.mark.parametrize("offsets, empty_rows", [
        ((-1, 0, 1), (0,)),
        ((-1, 0, 1), (N // 2,)),
        ((-1, 0, 1), (N - 1,)),
        ((-10, -1, 0, 1, 10), (0, 1, N // 2, N - 2, N - 1)),
        ((), ()),
        ((-(N - 1), 0, N - 1), ()),
        ((-(N - 1), N - 1), (0,)),
        (tuple(np.linspace(-(N - 1), N - 1, linalg.DIA_MAX_OFFSETS).astype(int)), ()),
    ], ids=["empty-first-row", "empty-middle-row", "empty-last-row", "empty-rows-baheux",
            "nnz-0", "corners", "corners-only", "dia-max-offsets"])
    def test_bands_match_references(self, offsets, empty_rows):
        n = self.N
        A, dense = _csr(n, _band_rows(n, offsets, empty_rows))
        assert A._bands is not None
        present = sorted(set((A.indices - np.repeat(np.arange(n), np.diff(A.indptr))).tolist()))
        bands = A._bands
        union = sorted(set(present) | {-o for o in present})
        for terms in (bands.own, bands.transposed, bands.pair):
            assert [start - bands.gap for _, start in terms] == union
        # The table, whose rows are the pair terms' bands, holds the matrix's
        # diagonals and the transpose's, padded with +0.0 where no entry is
        # stored, and every band is a view of it; bytes compare sign bits too.
        assert to_dense(A).tobytes() == dense.tobytes()
        table = _band_table(dense, present)
        rows = [band for band, _ in bands.pair]
        assert b"".join(row.tobytes() for row in rows) == table.tobytes()
        halves = (slice(0, n), slice(n + 2 * bands.gap, None), slice(None))
        for terms, half in zip((bands.own, bands.transposed, bands.pair), halves):
            for band, start in terms:
                assert band.base is rows[0].base
                assert band.tobytes() == table[union.index(start - bands.gap), half].tobytes()
        for v in _signed_zero_vectors(n):
            assert A.matvec(v).tobytes() == _bincount_matvec(A, v).tobytes()
            assert A.matvec_t(v).tobytes() == _bincount_matvec_t(A, v).tobytes()

    @pytest.mark.parametrize("row, cols, empty_rows", [
        (0, [1, 0], ()),
        (N // 2, [N // 2 + 1, N // 2], ()),
        (N - 1, [N - 1, N - 2], ()),
        (N // 2, [N // 2, N // 2], ()),
        (2, [3, 2], (0, 1)),
        (N - 3, [N - 2, N - 3], (N - 2, N - 1)),
    ], ids=["first", "middle", "last", "repeated-column", "after-empty-rows",
            "before-empty-rows"])
    def test_one_unordered_row_stays_on_bincount(self, row, cols, empty_rows):
        # Every other row is tridiagonal and sorted; one row's columns do not
        # strictly increase, so its bincount sum runs in no band order.
        n = self.N
        row_cols = _band_rows(n, (-1, 0, 1), empty_rows)
        row_cols[row] = cols
        A, _ = _csr(n, row_cols)
        assert _path(A) == "bincount"
        for v in _signed_zero_vectors(n):
            assert A.matvec(v).tobytes() == _bincount_matvec(A, v).tobytes()

    def test_banded_overflow_surfaces(self):
        n = self.N
        T, _ = _csr(n, _band_rows(n, (-1, 0, 1)))
        A = SparseMatrix(n, T.indptr, T.indices, np.full(T.nnz, 1e308))
        assert A._bands is not None
        for product in (A.matvec, A.matvec_t):
            with pytest.warns(RuntimeWarning) as caught:
                with pytest.raises(NonFiniteError):
                    product(np.full(n, 1e100))
            _only_overflow_or_invalid(caught)


def _operand(kind, n, seed):
    # A vector of one of the kinds _signed_zero_vectors yields.
    rng = np.random.default_rng(seed)
    if kind == "mixed":
        v = rng.standard_normal(n)
        v[rng.random(n) < 0.3] = 0.0
        v[rng.random(n) < 0.3] = -0.0
        return v
    if kind == "cancelling":
        return np.where(rng.random(n) < 0.5, -0.0, 1e-300)
    return np.full(n, {"zeros": 0.0, "negative-zeros": -0.0}[kind])


OPERAND_KINDS = ("mixed", "zeros", "negative-zeros", "cancelling")


def _assert_pair_equals_products(A, v, w):
    Av, ATw = A.products(v, w)
    # Bytes compare every bit, sign bits of zeros included: each half equals
    # its lone product and the plain-numpy bincount reference.
    assert Av.tobytes() == A.matvec(v).tobytes() == _bincount_matvec(A, v).tobytes()
    assert ATw.tobytes() == A.matvec_t(w).tobytes() == _bincount_matvec_t(A, w).tobytes()


class TestProducts:
    N = linalg.DIA_MIN_N

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_halves_equal_matvec_and_matvec_t(self, data):
        n = data.draw(st.sampled_from([1, 2, 7, 40, self.N - 1, self.N, self.N + 37]), "n")
        offsets = data.draw(st.sets(st.integers(-(n - 1), n - 1),
                                    max_size=linalg.DIA_MAX_OFFSETS + 1), "offsets")
        full_row = data.draw(st.none() | st.integers(0, n - 1), "full row")
        full_col = data.draw(st.none() | st.integers(0, n - 1), "full column")
        empty = data.draw(st.sets(st.integers(0, n - 1), max_size=3), "empty rows")
        empty_cols = data.draw(st.sets(st.integers(0, n - 1), max_size=3), "empty columns")
        seed = data.draw(st.integers(0, 2**32 - 1), "seed")
        # Bands, then a row and a column that store every entry, then rows and
        # columns that store none.
        row_cols = _band_rows(n, offsets)
        if full_row is not None:
            row_cols[full_row] = list(range(n))
        if full_col is not None:
            row_cols = [sorted({*cols, full_col}) for cols in row_cols]
        row_cols = [[] if i in empty else [c for c in cols if c not in empty_cols]
                    for i, cols in enumerate(row_cols)]
        A, _ = _csr(n, row_cols, seed)
        stored = set((A.indices - np.repeat(np.arange(n), np.diff(A.indptr))).tolist())
        assert _path(A) == _expected_path(A, stored)
        v = _operand(data.draw(st.sampled_from(OPERAND_KINDS), "v"), n, seed + 1)
        w = _operand(data.draw(st.sampled_from(OPERAND_KINDS), "w"), n, seed + 2)
        _assert_pair_equals_products(A, v, w)

    @pytest.mark.parametrize("n", [N - 1, N])
    @pytest.mark.parametrize("offsets", [(0, 1, 3), (-7, 2), (1,), (), (-10, -1, 0, 1, 10),
                                         (-3, -2, -1, 0, 1, 2)],
                             ids=["upper", "skew", "shift", "no-bands", "baheux-like",
                                  "too-many-offsets"])
    def test_each_path(self, n, offsets):
        # Offsets that are not symmetric give A and A.T different bands; with
        # no stored entry both halves are float64 +0.0. Below DIA_MIN_N the
        # matrix runs on the pair index, unless it stores nothing; from
        # DIA_MIN_N on, on bands, unless it has too many offsets.
        A, _ = _csr(n, _band_rows(n, offsets), seed=n)
        assert _path(A) == _expected_path(A, offsets)
        for kind_v in OPERAND_KINDS:
            for kind_w in OPERAND_KINDS:
                _assert_pair_equals_products(A, _operand(kind_v, n, 1), _operand(kind_w, n, 2))
        if not offsets:
            Av, ATw = A.products(np.ones(n), np.ones(n))
            assert Av.tobytes() == ATw.tobytes() == np.zeros(n).tobytes()
            assert Av.dtype == ATw.dtype == np.float64

    @pytest.mark.parametrize("n", [60, N])
    def test_paper_family(self, n):
        A = gen_baheux(BaheuxSpec(n=n, delta=5.0)).A
        assert _path(A) == ("pair" if n < self.N else "bands")
        _assert_pair_equals_products(A, _operand("mixed", n, 3), _operand("mixed", n, 4))

    @pytest.mark.parametrize("n", [60, N])
    def test_halves_do_not_read_the_other_operand(self, monkeypatch, n):
        # A non-finite entry in one operand fails only the half that reads
        # it; with the finite check switched off, the other half is as it is.
        A = gen_baheux(BaheuxSpec(n=n, delta=0.2)).A
        v, w = _operand("mixed", n, 5), _operand("mixed", n, 6)
        bad = np.ones(n)
        bad[n // 2] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(NonFiniteError, match="non-finite result in matvec_t$"):
                A.products(v, bad)
            with pytest.raises(NonFiniteError, match="non-finite result in matvec$"):
                A.products(bad, w)
            monkeypatch.setattr(linalg, "check_finite", lambda out, context: out)
            assert A.products(v, bad)[0].tobytes() == A.matvec(v).tobytes()
            assert A.products(bad, w)[1].tobytes() == A.matvec_t(w).tobytes()
            assert not np.isfinite(A.products(v, bad)[1]).all()

    def test_checks_like_the_lone_products(self):
        # products raises exactly when matvec(v) or matvec_t(w) would, with
        # the first failing one's label: A v is checked before A.T w.
        M = from_dense(np.full((2, 2), 1e308))
        small, big = np.full(2, 1e-10), np.full(2, 1e100)
        with np.errstate(over="ignore", invalid="ignore"):
            for v, w, failing in ((small, small, None), (big, small, "matvec"),
                                  (small, big, "matvec_t"), (big, big, "matvec")):
                if failing is None:
                    Av, ATw = M.products(v, w)
                    assert Av.tobytes() == M.matvec(v).tobytes()
                    assert ATw.tobytes() == M.matvec_t(w).tobytes()
                    continue
                with pytest.raises(NonFiniteError) as err:
                    M.products(v, w)
                assert str(err.value) == f"non-finite result in {failing}"

    @pytest.mark.parametrize("n", [60, N])
    def test_names_the_half_that_overflowed(self, n):
        # On both storage paths: 4 * 1e308 overflows in A v or in A.T w,
        # whichever half reads the huge entry.
        A = gen_baheux(BaheuxSpec(n=n, delta=0.2)).A
        assert _path(A) == ("pair" if n < self.N else "bands")
        finite = _operand("mixed", n, 7)
        huge = np.ones(n)
        huge[n // 3] = 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            for v, w, half in ((huge, finite, "matvec"), (finite, huge, "matvec_t")):
                with pytest.raises(NonFiniteError) as err:
                    A.products(v, w)
                assert str(err.value) == f"non-finite result in {half}"

    def test_length_mismatch_raises(self):
        A = identity(3)
        for v, w in ((np.ones(2), np.ones(3)), (np.ones(3), np.ones(4))):
            with pytest.raises(DimensionError):
                A.products(v, w)


class TestPairIndex:
    N = linalg.DIA_MIN_N

    def test_layout(self):
        # Term t adds weights[t] * [v w][gather[t]] to [A v, A.T w][out[t]]:
        # A's entries in CSR order, then the same entries for A.T.
        n = 40
        A, _ = _csr(n, _band_rows(n, (-3, 0, 1, 7), empty_rows=(0, 5)), seed=4)
        assert _path(A) == "pair"
        rows = np.repeat(np.arange(n), np.diff(A.indptr))
        out, gather, weights = A._pair
        assert out.tobytes() == np.concatenate((rows, A.indices + n)).tobytes()
        assert gather.tobytes() == np.concatenate((A.indices, rows + n)).tobytes()
        assert weights.tobytes() == np.concatenate((A.data, A.data)).tobytes()
        assert A._rows_of_nnz.tobytes() == rows.tobytes()

    def test_pair_index_read_only(self):
        A = gen_baheux(BaheuxSpec(n=60, delta=5.0)).A
        for arr in A._pair + (A._rows_of_nnz,):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1

    @pytest.mark.parametrize("operand", ["v", "w"])
    def test_nonfinite_operand_entry_no_term_reads(self, operand):
        # Row and column j store nothing. The pair index has no padding, so
        # no term reads entry j of v or w: the products stay finite and equal
        # the bincount reference, unlike on bands (see TestDiagonalStorage).
        n, j = 60, 5
        base = gen_baheux(BaheuxSpec(n=n, delta=0.2)).A
        rows = np.repeat(np.arange(n), np.diff(base.indptr))
        keep = (rows != j) & (base.indices != j)
        A = SparseMatrix.from_coo(n, rows[keep], base.indices[keep], base.data[keep])
        assert _path(A) == "pair"
        v, w = _operand("mixed", n, 8), _operand("mixed", n, 9)
        (v if operand == "v" else w)[j] = np.inf
        Av, ATw = A.products(v, w)
        assert Av.tobytes() == _bincount_matvec(A, v).tobytes() == A.matvec(v).tobytes()
        assert ATw.tobytes() == _bincount_matvec_t(A, w).tobytes() == A.matvec_t(w).tobytes()
        assert np.isfinite(Av).all() and np.isfinite(ATw).all()

    @pytest.mark.parametrize("n, offsets, checks", [
        (60, (-10, -1, 0, 1, 10), 1),
        (N, (-10, -1, 0, 1, 10), 1),
        (N, (-3, -2, -1, 0, 1, 2), 2),
    ], ids=["pair", "bands", "bincount"])
    def test_one_finite_check_per_pair(self, monkeypatch, n, offsets, checks):
        # The pair index and the bands check the whole pair output once; two
        # separate bincounts check each half.
        A, _ = _csr(n, _band_rows(n, offsets), seed=n)
        calls = []
        check = linalg.all_finite
        monkeypatch.setattr(linalg, "all_finite", lambda a: calls.append(a.shape) or check(a))
        _assert_pair_equals_products(A, _operand("mixed", n, 1), _operand("mixed", n, 2))
        calls.clear()
        A.products(_operand("mixed", n, 1), _operand("mixed", n, 2))
        assert len(calls) == checks

    def test_nonfinite_gap_entry_raises_nothing(self, monkeypatch):
        # A stores only its corner A[n-1, 0]; the band table's gap then meets
        # the middle of v, which neither half reads. The pair check fails, the
        # halves pass, and products returns them as matvec and matvec_t would.
        n = self.N
        A = SparseMatrix(n, np.r_[np.zeros(n, dtype=np.int64), 1], [0], [2.5])
        assert _path(A) == "bands"
        v, w = np.ones(n), _operand("mixed", n, 3)
        v[n // 2] = np.inf
        verdicts = []
        check = linalg.all_finite
        monkeypatch.setattr(linalg, "all_finite", lambda a: verdicts.append(check(a)) or
                            verdicts[-1])
        with np.errstate(invalid="ignore"):
            Av, ATw = A.products(v, w)
            assert verdicts == [False, True, True]
            assert Av.tobytes() == A.matvec(v).tobytes()
            assert ATw.tobytes() == A.matvec_t(w).tobytes()
        assert np.isfinite(Av).all() and np.isfinite(ATw).all()


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
