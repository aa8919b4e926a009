"""Unit and property tests for bit-packed GF(2) matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf2 import BitMatrix, pack_rows, unpack_rows
from repro.gf2.kernels import transpose_words


def random_matrix(rng, m, n, density=0.5):
    return (rng.random((m, n)) < density).astype(np.uint8)


@st.composite
def dense_matrices(draw, max_rows=12, max_cols=90):
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    bits = draw(
        st.lists(
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    return np.array(bits, dtype=np.uint8)


class TestPacking:
    def test_roundtrip_small(self):
        dense = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
        packed = pack_rows(dense)
        assert np.array_equal(unpack_rows(packed, 3), dense)

    def test_roundtrip_word_boundary(self):
        rng = np.random.default_rng(0)
        for n in (63, 64, 65, 127, 128, 129):
            dense = random_matrix(rng, 5, n)
            assert np.array_equal(unpack_rows(pack_rows(dense), n), dense)

    @given(dense_matrices())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, dense):
        assert np.array_equal(unpack_rows(pack_rows(dense), dense.shape[1]), dense)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            pack_rows(np.zeros(5, dtype=np.uint8))


class TestTransposeWords:
    def test_matches_dense_transpose(self):
        rng = np.random.default_rng(1)
        for m, n in [(1, 1), (3, 5), (63, 64), (64, 63), (65, 129), (200, 70)]:
            dense = random_matrix(rng, m, n)
            got = transpose_words(pack_rows(dense), n)
            want = pack_rows(np.ascontiguousarray(dense.T))
            assert got.shape == want.shape
            assert np.array_equal(got, want), (m, n)

    def test_involution(self):
        rng = np.random.default_rng(2)
        dense = random_matrix(rng, 100, 333)
        packed = pack_rows(dense)
        assert np.array_equal(
            transpose_words(transpose_words(packed, 333), 100), packed
        )

    def test_empty_rows(self):
        out = transpose_words(np.zeros((0, 2), dtype=np.uint64), 90)
        assert out.shape == (90, 1)
        assert not out.any()

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            transpose_words(np.zeros(4, dtype=np.uint64), 4)

    @given(dense_matrices())
    @settings(max_examples=40, deadline=None)
    def test_transpose_property(self, dense):
        n = dense.shape[1]
        got = transpose_words(pack_rows(dense), n)
        assert np.array_equal(got, pack_rows(np.ascontiguousarray(dense.T)))


class TestAccessors:
    def test_get_set(self):
        bm = BitMatrix.zeros(3, 70)
        bm.set(1, 65, 1)
        assert bm.get(1, 65) == 1
        assert bm.get(1, 64) == 0
        bm.set(1, 65, 0)
        assert bm.get(1, 65) == 0

    def test_identity(self):
        eye = BitMatrix.identity(5)
        assert np.array_equal(eye.to_dense(), np.eye(5, dtype=np.uint8))

    def test_row_weights(self):
        dense = np.array([[1, 1, 0], [0, 0, 0], [1, 1, 1]], dtype=np.uint8)
        bm = BitMatrix.from_dense(dense)
        assert list(bm.row_weights()) == [2, 0, 3]
        assert bm.row_weight(2) == 3

    def test_shape_and_repr(self):
        bm = BitMatrix.zeros(2, 3)
        assert bm.shape == (2, 3)
        assert "BitMatrix" in repr(bm)

    def test_equality(self):
        a = BitMatrix.identity(4)
        b = BitMatrix.identity(4)
        assert a == b
        b.set(0, 1, 1)
        assert a != b


class TestElimination:
    def test_rank_identity(self):
        assert BitMatrix.identity(8).rank() == 8

    def test_rank_dependent_rows(self):
        dense = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8)
        # Third row is the XOR of the first two.
        assert BitMatrix.from_dense(dense).rank() == 2

    def test_rank_matches_numpy_mod2(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            dense = random_matrix(rng, 8, 8)
            got = BitMatrix.from_dense(dense).rank()
            # Reference: brute-force span size is 2**rank.
            span = {tuple(np.zeros(8, dtype=np.uint8))}
            for row in dense:
                span |= {tuple((np.array(v, dtype=np.uint8) ^ row)) for v in span}
            assert 2**got == len(span)

    def test_row_reduce_gives_rref(self):
        dense = np.array(
            [[1, 1, 0, 1], [1, 0, 1, 0], [0, 1, 1, 1]], dtype=np.uint8
        )
        bm = BitMatrix.from_dense(dense)
        pivots = bm.row_reduce()
        out = bm.to_dense()
        for r, col in enumerate(pivots):
            column = out[:, col]
            assert column[r] == 1 and column.sum() == 1

    @given(dense_matrices())
    @settings(max_examples=40, deadline=None)
    def test_nullspace_property(self, dense):
        ns = BitMatrix.from_dense(dense).nullspace().to_dense()
        if ns.size:
            prod = dense.astype(int) @ ns.T.astype(int) % 2
            assert not prod.any()
        # rank-nullity
        assert BitMatrix.from_dense(dense).rank() + ns.shape[0] == dense.shape[1]

    def test_nullspace_vectors_independent(self):
        rng = np.random.default_rng(3)
        dense = random_matrix(rng, 6, 12)
        ns = BitMatrix.from_dense(dense).nullspace()
        assert ns.rank() == ns.nrows


class TestSolveAndRowspace:
    def test_solve_consistent(self):
        rng = np.random.default_rng(11)
        a = random_matrix(rng, 7, 10)
        x_true = random_matrix(rng, 1, 10)[0]
        b = a.astype(int) @ x_true % 2
        x = BitMatrix.from_dense(a).solve(b)
        assert x is not None
        assert np.array_equal(a.astype(int) @ x % 2, b)

    def test_solve_inconsistent(self):
        a = np.array([[1, 0], [1, 0]], dtype=np.uint8)
        b = np.array([0, 1], dtype=np.uint8)
        assert BitMatrix.from_dense(a).solve(b) is None

    def test_solve_rejects_bad_rhs(self):
        with pytest.raises(ValueError):
            BitMatrix.identity(3).solve(np.zeros(2, dtype=np.uint8))

    def test_rowspace_membership(self):
        a = BitMatrix.from_dense(
            np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)
        )
        inside = BitMatrix.from_dense(np.array([[1, 0, 1]], dtype=np.uint8))
        outside = BitMatrix.from_dense(np.array([[1, 0, 0]], dtype=np.uint8))
        assert a.contains_in_rowspace(inside)
        assert not a.contains_in_rowspace(outside)

    def test_matvec(self):
        rng = np.random.default_rng(5)
        a = random_matrix(rng, 6, 70)
        x = random_matrix(rng, 1, 70)[0]
        got = BitMatrix.from_dense(a).matvec(x)
        assert np.array_equal(got, a.astype(int) @ x % 2)

    def test_stack_mismatched_columns(self):
        with pytest.raises(ValueError):
            BitMatrix.zeros(1, 3).stack(BitMatrix.zeros(1, 4))
