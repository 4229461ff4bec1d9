import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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
        assert M._bands is None
        with pytest.warns(RuntimeWarning) as caught:
            with pytest.raises(NonFiniteError):
                M.matvec(as_vector([1e100, 1e100]))
        _only_overflow_or_invalid(caught)

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


PAPER_DIMS = (20, 40, 60, 80, 100, 200, 400, 600, 800, 1000)


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
    return SparseMatrix(n, n, indptr, indices, data), dense


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
    @pytest.mark.parametrize("delta", [0.0, 0.2, 5.0, 8.0])
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
        M = _banded(monkeypatch, lambda: SparseMatrix(n, n, indptr, indices, np.ones(2 * n)))
        assert M._bands is None

    def test_dia_arrays_read_only(self, monkeypatch):
        A = _banded(monkeypatch, lambda: gen_baheux(BaheuxSpec(n=300, delta=5.0)).A)
        bands = A._bands
        for arr in (bands.table, bands.pad) + tuple(
                band for band, _ in bands.own + bands.transposed + bands.pair):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
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
        # The table holds the matrix's diagonals and the transpose's, padded
        # with +0.0 where no entry is stored, and every band is a view of it;
        # bytes compare sign bits too.
        assert A.to_dense().tobytes() == dense.tobytes()
        table = _band_table(dense, present)
        assert table.tobytes() == bands.table.tobytes()
        halves = (slice(0, n), slice(n + 2 * bands.gap, None), slice(None))
        for terms, half in zip((bands.own, bands.transposed, bands.pair), halves):
            for band, start in terms:
                assert band.base is bands.table
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
        assert A._bands is None
        for v in _signed_zero_vectors(n):
            assert A.matvec(v).tobytes() == _bincount_matvec(A, v).tobytes()

    def test_banded_overflow_surfaces(self):
        n = self.N
        T, _ = _csr(n, _band_rows(n, (-1, 0, 1)))
        A = SparseMatrix(n, n, T.indptr, T.indices, np.full(T.nnz, 1e308))
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
    # Bytes compare every bit, sign bits of zeros included.
    assert Av.tobytes() == A.matvec(v).tobytes()
    assert ATw.tobytes() == A.matvec_t(w).tobytes()


class TestProducts:
    N = linalg.DIA_MIN_N

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_halves_equal_matvec_and_matvec_t(self, data):
        n = data.draw(st.sampled_from([1, 2, 7, 40, self.N - 1, self.N, self.N + 37]), "n")
        offsets = data.draw(st.sets(st.integers(-(n - 1), n - 1),
                                    max_size=linalg.DIA_MAX_OFFSETS + 1), "offsets")
        empty = data.draw(st.sets(st.integers(0, n - 1), max_size=3), "empty rows")
        seed = data.draw(st.integers(0, 2**32 - 1), "seed")
        A, _ = _csr(n, _band_rows(n, offsets, empty), seed)
        stored = set((A.indices - np.repeat(np.arange(n), np.diff(A.indptr))).tolist())
        assert (A._bands is not None) == (n >= self.N and len(stored) <= linalg.DIA_MAX_OFFSETS)
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
        # no stored entry both halves are +0.0. From DIA_MIN_N on the matrix
        # runs on bands, unless it has too many offsets.
        A, _ = _csr(n, _band_rows(n, offsets), seed=n)
        banded = n >= self.N and len(offsets) <= linalg.DIA_MAX_OFFSETS
        assert (A._bands is not None) == banded
        for kind_v in OPERAND_KINDS:
            for kind_w in OPERAND_KINDS:
                _assert_pair_equals_products(A, _operand(kind_v, n, 1), _operand(kind_w, n, 2))
        if not offsets:
            Av, ATw = A.products(np.ones(n), np.ones(n))
            assert Av.tobytes() == ATw.tobytes() == np.zeros(n).tobytes()

    @pytest.mark.parametrize("n", [60, N])
    def test_paper_family(self, n):
        A = gen_baheux(BaheuxSpec(n=n, delta=5.0)).A
        assert (A._bands is not None) == (n >= self.N)
        _assert_pair_equals_products(A, _operand("mixed", n, 3), _operand("mixed", n, 4))

    @pytest.mark.parametrize("n", [60, N])
    def test_halves_do_not_read_the_other_operand(self, n):
        # A non-finite entry in one operand leaves the other half as it is.
        A = gen_baheux(BaheuxSpec(n=n, delta=0.2)).A
        v, w = _operand("mixed", n, 5), _operand("mixed", n, 6)
        bad = np.ones(n)
        bad[n // 2] = np.inf
        with np.errstate(invalid="ignore"):
            assert A.products(v, bad)[0].tobytes() == A.matvec(v).tobytes()
            assert A.products(bad, w)[1].tobytes() == A.matvec_t(w).tobytes()
            assert not np.isfinite(A.products(v, bad)[1]).all()

    def test_no_check_of_its_own(self):
        # An overflowing half comes back as it is, for the caller to check.
        M = SparseMatrix.from_dense(np.full((2, 2), 1e308))
        with np.errstate(over="ignore"):
            Av, ATw = M.products(np.full(2, 1e100), np.full(2, 1e-10))
        assert np.isinf(Av).all() and np.isfinite(ATw).all()
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError,
                                                        match="non-finite result in matvec"):
            linalg.check_finite(Av, "matvec")
        assert linalg.check_finite(ATw, "matvec_t") is ATw

    def test_non_square_raises(self):
        i = np.arange(4)
        M = SparseMatrix.from_coo(4, 5, i, i + 1, np.ones(4))
        with pytest.raises(DimensionError):
            M.products(np.ones(5), np.ones(4))
        with pytest.raises(DimensionError):
            M.products(np.ones(4), np.ones(4))

    def test_length_mismatch_raises(self):
        A = SparseMatrix.identity(3)
        for v, w in ((np.ones(2), np.ones(3)), (np.ones(3), np.ones(4))):
            with pytest.raises(DimensionError):
                A.products(v, w)


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
