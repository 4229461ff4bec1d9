import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from numpy.testing import assert_allclose

from lanswitch.harness import PAPER_DELTAS
from lanswitch.linalg import DimensionError, SparseMatrix, norm2
from lanswitch.problems import (
    BaheuxSpec,
    MatrixMarketError,
    ProblemInstance,
    gen_baheux,
    read_matrix_market,
    write_matrix_market,
)
from oracles import (SingularMatrixError, as_vector, direct_solve_oracle, from_dense,
                     identity, to_dense)


def write_lower_triangle(path, A):
    """Write the lower triangle of ``A`` as a symmetric MatrixMarket file."""
    rows = np.repeat(np.arange(A.nrows), np.diff(A.indptr))
    keep = rows >= A.indices
    entries = [f"{i + 1} {j + 1} {float(v)!r}\n"
               for i, j, v in zip(rows[keep], A.indices[keep], A.data[keep])]
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                    f"{A.nrows} {A.nrows} {len(entries)}\n" + "".join(entries))


# Finite values in +-1e300, with both zeros, subnormals and the extremes
# drawn often. Up to 40 of them cannot overflow a sum, so every drawn matrix
# is one from_coo accepts and its right-hand side A 1 is finite.
_VALUES = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300]))


@st.composite
def coo_matrices(draw):
    n = draw(st.integers(1, 12))
    index = st.integers(0, n - 1)
    triplets = draw(st.lists(st.tuples(index, index, _VALUES), max_size=40))
    rows, cols, vals = zip(*triplets) if triplets else ((), (), ())
    return SparseMatrix.from_coo(n, rows, cols, vals)


class TestBaheuxGenerator:
    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            BaheuxSpec(n=15)
        with pytest.raises(ValueError):
            BaheuxSpec(n=0)

    def test_rejects_non_integer_dimension(self):
        # BaheuxSpec(n=20.0) used to pass, and gen_baheux then raised
        # TypeError. A numpy integer is an integer.
        for n in (20.0, np.float64(20.0), "20"):
            with pytest.raises(ValueError, match="n must be an integer"):
                BaheuxSpec(n=n)
        assert gen_baheux(BaheuxSpec(n=np.int64(20))).A.nrows == 20

    def test_symmetric_corner_entries(self):
        A = to_dense(gen_baheux(BaheuxSpec(n=20, delta=0.0)).A)
        assert A[0, 0] == 4.0
        assert A[0, 1] == -1.0
        assert A[1, 0] == -1.0
        assert A[0, 10] == -1.0
        assert A[0, 2] == 0.0

    def test_skewed_entries(self):
        A = to_dense(gen_baheux(BaheuxSpec(n=20, delta=0.2)).A)
        assert A[0, 1] == pytest.approx(-0.8)
        assert A[1, 0] == pytest.approx(-1.2)

    @pytest.mark.parametrize("n", [10, 20, 200, 1000])
    @pytest.mark.parametrize("delta", [*PAPER_DELTAS, 1.0])
    def test_matches_block_definition(self, n, delta):
        # The documented definition: 10x10 blocks with 4 on their diagonal,
        # -1+delta above it and -1-delta below it, coupled by -I blocks.
        nb = n // 10
        T = 4.0 * np.eye(10) + (-1.0 + delta) * np.eye(10, k=1) + (-1.0 - delta) * np.eye(10, k=-1)
        coupling = np.eye(nb, k=1) + np.eye(nb, k=-1)
        expected = np.kron(np.eye(nb), T) - np.kron(coupling, np.eye(10))
        A = gen_baheux(BaheuxSpec(n=n, delta=delta)).A
        assert np.array_equal(to_dense(A), expected)
        # Exactly the stencil's entries are stored, in column order per row
        # (for delta = 1 the zero superdiagonal is stored explicitly).
        pattern = (np.kron(np.eye(nb), np.eye(10) + np.eye(10, k=1) + np.eye(10, k=-1))
                   + np.kron(coupling, np.eye(10))) != 0
        rows = np.repeat(np.arange(n), np.diff(A.indptr))
        assert A.nnz == pattern.sum()
        assert pattern[rows, A.indices].all()
        assert np.all((np.diff(A.indices) > 0) | (np.diff(rows) != 0))

    def test_rhs_is_row_sums(self):
        inst = gen_baheux(BaheuxSpec(n=20, delta=0.0))
        assert inst.b[0] == 2.0  # corner row: 4 - 1 - 1
        assert_allclose(inst.b, to_dense(inst.A).sum(axis=1))

    @pytest.mark.parametrize("n", [10, 200, 290, 300, 1000, 2000])
    @pytest.mark.parametrize("delta", [*PAPER_DELTAS, 1.0, -1.0, 1e-300, -0.0])
    def test_rhs_is_the_product_bitwise(self, n, delta):
        # b is summed directly from the stored values, and matches A times
        # ones bit for bit on the bincount path and on bands.
        inst = gen_baheux(BaheuxSpec(n=n, delta=delta))
        assert inst.b.tobytes() == inst.A.matvec(np.ones(n)).tobytes()
        assert not inst.b.flags.writeable

    def test_solution_is_ones(self):
        inst = gen_baheux(BaheuxSpec(n=40, delta=5.0))
        assert norm2(inst.b - inst.A.matvec(np.ones(40))) <= 1e-10 * norm2(inst.b)

    @pytest.mark.parametrize("n", [10, 30, 100])
    @pytest.mark.parametrize("delta", PAPER_DELTAS)
    def test_nonzero_count(self, n, delta):
        A = gen_baheux(BaheuxSpec(n=n, delta=delta)).A
        expected = n + 2 * (n - n // 10) + 2 * (n - 10)
        assert A.nnz == expected

    def test_symmetry_at_delta_zero(self):
        inst = gen_baheux(BaheuxSpec(n=30, delta=0.0))
        rng = np.random.default_rng(2)
        for _ in range(5):
            v = rng.standard_normal(30)
            assert_allclose(inst.A.matvec_t(v), inst.A.matvec(v), atol=1e-14)


class TestProblemInstance:
    def test_rejects_a_right_hand_side_of_the_wrong_length(self):
        with pytest.raises(DimensionError, match="^right-hand side length must match"):
            ProblemInstance(A=identity(3), b=np.ones(2))


class TestMatrixMarket:
    def test_identity_roundtrip(self, tmp_path):
        path = tmp_path / "eye.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment line\n"
            "3 3 3\n"
            "1 1 1.0\n2 2 1.0\n3 3 1.0\n")
        inst = read_matrix_market(str(path))
        assert_allclose(to_dense(inst.A), np.eye(3))
        assert_allclose(inst.b, np.ones(3))
        assert_allclose(inst.A.matvec(np.ones(3)), inst.b)

    def test_symmetric_lower_triangle_matches_generator(self, tmp_path):
        inst = gen_baheux(BaheuxSpec(n=20, delta=0.0))
        path = tmp_path / "baheux.mtx"
        write_lower_triangle(path, inst.A)
        back = read_matrix_market(str(path))
        assert_allclose(to_dense(back.A), to_dense(inst.A), rtol=0, atol=0)

    def test_symmetric_entry_above_the_diagonal_rejected(self, tmp_path):
        # Read and mirrored, the two entries would give [[4, 2], [2, 0]].
        path = tmp_path / "upper.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                        "2 2 3\n1 1 4.0\n2 1 1.0\n1 2 1.0\n")
        message = "symmetric file, entry above the diagonal: '1 2 1.0'"
        with pytest.raises(MatrixMarketError, match=f"^{re.escape(message)}$"):
            read_matrix_market(str(path))

    @settings(max_examples=200, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(A=coo_matrices())
    def test_general_roundtrip_entrywise(self, tmp_path, A):
        # Every stored entry comes back with the same bits, signed zeros and
        # subnormals included: the writer prints repr, which round-trips.
        path = tmp_path / "m.mtx"
        write_matrix_market(str(path), A)
        back = read_matrix_market(str(path)).A
        assert back.indptr.tobytes() == A.indptr.tobytes()
        assert back.indices.tobytes() == A.indices.tobytes()
        assert back.data.tobytes() == A.data.tobytes()

    def test_non_square_rejected(self, tmp_path):
        path = tmp_path / "rect.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1.0\n")
        with pytest.raises(MatrixMarketError):
            read_matrix_market(str(path))

    @pytest.mark.parametrize("body, message", [
        ("2 2 1\n1.5 1 1.0\n", "bad entry line: '1.5 1 1.0'"),
        ("2 2 x\n1 1 1.0\n", "bad size line: '2 2 x'"),
        ("2 2 1\n1 1 1.0.0\n", "bad entry line: '1 1 1.0.0'"),
    ], ids=["non-integer-index", "non-numeric-count", "non-float-value"])
    def test_unparsable_field_names_its_line(self, tmp_path, body, message):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n" + body)
        with pytest.raises(MatrixMarketError, match=f"^{re.escape(message)}$"):
            read_matrix_market(str(path))

    @pytest.mark.parametrize("text, message", [
        ("%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n3.0\n4.0\n",
         "only coordinate format supported, got 'array'"),
        ("%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1.0\n",
         "only general/symmetric supported, got 'hermitian'"),
        ("%%MatrixMarket matrix coordinate real general\n% no size line\n\n",
         "missing size line"),
    ], ids=["array-format", "hermitian", "no-size-line"])
    def test_unsupported_file_rejected(self, tmp_path, text, message):
        path = tmp_path / "bad.mtx"
        path.write_text(text)
        with pytest.raises(MatrixMarketError, match=f"^{re.escape(message)}$"):
            read_matrix_market(str(path))

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%NotMatrixMarket nope\n1 1 1\n1 1 1.0\n")
        with pytest.raises(MatrixMarketError):
            read_matrix_market(str(path))

    def test_unsupported_field(self, tmp_path):
        path = tmp_path / "cplx.mtx"
        path.write_text("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0 0.0\n")
        with pytest.raises(MatrixMarketError):
            read_matrix_market(str(path))

    def test_index_out_of_bounds(self, tmp_path):
        path = tmp_path / "oob.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n")
        with pytest.raises(MatrixMarketError):
            read_matrix_market(str(path))

    def test_truncated_entries(self, tmp_path):
        path = tmp_path / "short.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n")
        with pytest.raises(MatrixMarketError):
            read_matrix_market(str(path))

    def test_extra_entries(self, tmp_path):
        # Reading only the declared entry would give diag(2, 0).
        path = tmp_path / "long.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 1\n1 1 2.0\n2 2 3.0\n")
        with pytest.raises(MatrixMarketError, match="more than the declared 1 entries"):
            read_matrix_market(str(path))

    def test_trailing_comments_and_blank_lines_are_not_entries(self, tmp_path):
        path = tmp_path / "tail.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 2\n1 1 2.0\n2 2 3.0\n% end\n\n")
        assert to_dense(read_matrix_market(str(path)).A).tolist() == [[2.0, 0.0], [0.0, 3.0]]

    def test_no_entries_gives_float64_rhs(self, tmp_path):
        path = tmp_path / "zero.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n3 3 0\n")
        inst = read_matrix_market(str(path))
        assert inst.A.nnz == 0
        assert inst.b.dtype == np.float64
        assert inst.b.tobytes() == np.zeros(3).tobytes()

    def test_negative_entry_count(self, tmp_path):
        # Reading no entries would give the zero matrix.
        path = tmp_path / "neg.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 -1\n")
        with pytest.raises(MatrixMarketError, match="negative entry count"):
            read_matrix_market(str(path))


class TestDirectSolveOracle:
    def test_diagonal(self):
        A = from_dense(np.diag([2.0, 3.0]))
        assert_allclose(direct_solve_oracle(A, as_vector([2, 3])), [1, 1])

    def test_recovers_ones(self):
        inst = gen_baheux(BaheuxSpec(n=40, delta=5.0))
        x = direct_solve_oracle(inst.A, inst.b)
        assert np.max(np.abs(x - 1.0)) <= 1e-8

    def test_singular_rejected(self):
        A = SparseMatrix(2, [0, 0, 0], [], [])
        with pytest.raises(SingularMatrixError):
            direct_solve_oracle(A, as_vector([1.0, 1.0]))

    def test_needs_pivoting(self):
        # Zero leading pivot: fails without row exchanges.
        A = from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert_allclose(direct_solve_oracle(A, as_vector([3.0, 5.0])), [5.0, 3.0])

    def test_size_limit(self):
        A = identity(2001)
        with pytest.raises(DimensionError):
            direct_solve_oracle(A, as_vector(np.ones(2001)))

    @pytest.mark.parametrize("n", [20, 100, 200, 400])
    @pytest.mark.parametrize("delta", PAPER_DELTAS)
    def test_residual_bound_on_baheux(self, n, delta):
        inst = gen_baheux(BaheuxSpec(n=n, delta=delta))
        x = direct_solve_oracle(inst.A, inst.b)
        assert norm2(inst.b - inst.A.matvec(x)) <= 1e-9 * norm2(inst.b)
