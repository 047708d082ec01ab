"""Unit tests for the GraphBLAS operation set (apply/select/ewise/matmul/
reduce/extract/assign/transpose/kronecker) against dense oracles."""

import numpy as np
import pytest

from repro.graphblas import (
    BOOL,
    FP64,
    IDENTITY,
    INT64,
    LOR,
    LT,
    MIN,
    MIN_MONOID,
    MIN_PLUS,
    PLUS,
    PLUS_MONOID,
    PLUS_TIMES,
    Matrix,
    REPLACE,
    TIMES,
    Vector,
    apply,
    assign_scalar_matrix,
    assign_scalar_vector,
    assign_vector,
    ewise_add,
    ewise_mult,
    ewise_union,
    extract_submatrix,
    extract_subvector,
    kronecker,
    mxm,
    mxv,
    reduce_matrix_to_scalar,
    reduce_matrix_to_vector,
    reduce_vector_to_scalar,
    select,
    transpose,
    vxm,
)
from repro.graphblas.descriptor import REPLACE_STRUCTURE, TRANSPOSE1
from repro.graphblas.indexunaryop import TRIL, VALUEGT
from repro.graphblas.info import DimensionMismatch
from repro.graphblas.unaryop import threshold_gt


@pytest.fixture
def v3():
    return Vector.from_coo([0, 2], [1.0, 3.0], 3)


@pytest.fixture
def w3():
    return Vector.from_coo([1, 2], [10.0, 20.0], 3)


class TestApply:
    def test_pattern_preserved(self, v3):
        out = Vector.new(FP64, 3)
        apply(out, threshold_gt(2.0), v3)
        assert out.indices.tolist() == [0, 2]
        assert out.values.tolist() == [0.0, 1.0]

    def test_matrix_apply(self):
        a = Matrix.from_coo([0, 1], [1, 0], [1.0, 5.0], 2, 2)
        out = Matrix.new(BOOL, 2, 2)
        apply(out, threshold_gt(2.0), a)
        assert out.to_dense().tolist() == [[False, False], [True, False]]

    def test_apply_with_accum(self, v3):
        out = Vector.from_coo([0], [100.0], 3)
        apply(out, IDENTITY, v3, accum=PLUS)
        assert out.to_dict() == {0: 101.0, 2: 3.0}

    def test_shape_mismatch_raises(self, v3):
        with pytest.raises(DimensionMismatch):
            apply(Vector.new(FP64, 4), IDENTITY, v3)


class TestSelect:
    def test_value_filter(self, v3):
        out = Vector.new(FP64, 3)
        select(out, VALUEGT, v3, 2.0)
        assert out.to_dict() == {2: 3.0}

    def test_structural_tril(self):
        a = Matrix.from_dense(np.arange(1.0, 10.0).reshape(3, 3))
        out = Matrix.new(FP64, 3, 3)
        select(out, TRIL, a, 0)
        assert np.array_equal(out.to_dense(), np.tril(np.arange(1.0, 10.0).reshape(3, 3)))


class TestEWise:
    def test_add_union_semantics(self, v3, w3):
        out = Vector.new(FP64, 3)
        ewise_add(out, PLUS, v3, w3)
        assert out.to_dict() == {0: 1.0, 1: 10.0, 2: 23.0}

    def test_add_pass_through_lone_operands(self, v3, w3):
        """The §V.B pitfall: lone operands pass through un-operated."""
        out = Vector.new(BOOL, 3)
        ewise_add(out, LT, v3, w3)
        # index 0 only in v3 → value 1.0 → True; 1 only in w3 → 10.0 → True;
        # 2 in both → 3.0 < 20.0 → True
        assert out.to_dict() == {0: True, 1: True, 2: True}

    def test_add_lt_with_mask_workaround(self, v3, w3):
        """Masking with the first operand excludes lone-second entries."""
        out = Vector.new(BOOL, 3)
        ewise_add(out, LT, v3, w3, mask=v3, desc=REPLACE)
        assert sorted(out.to_dict()) == [0, 2]

    def test_union_fills_the_missing_operand(self, v3, w3):
        """eWiseUnion applies *op* over the whole union: a lone v3 entry
        meets beta, a lone w3 entry meets alpha."""
        out = Vector.new(FP64, 3)
        ewise_union(out, PLUS, v3, 100.0, w3, 1000.0)
        assert out.to_dict() == {0: 1001.0, 1: 110.0, 2: 23.0}

    def test_union_lt_keeps_a_stored_zero(self):
        """The re-entry test: a 0.0 only tReq holds compares true against
        an unstored t read as ∞; a value mask would have dropped it."""
        t_req = Vector.from_coo([0, 1, 2], [0.0, 5.0, 2.0], 4)
        t = Vector.from_coo([1, 2, 3], [4.0, 3.0, 1.0], 4)
        out = Vector.new(BOOL, 4)
        ewise_union(out, LT, t_req, np.inf, t, np.inf, mask=t_req, desc=REPLACE_STRUCTURE)
        assert out.to_dict() == {0: True, 1: False, 2: True}

    def test_mult_intersection_semantics(self, v3, w3):
        out = Vector.new(FP64, 3)
        ewise_mult(out, TIMES, v3, w3)
        assert out.to_dict() == {2: 60.0}

    def test_matrix_ewise(self):
        a = Matrix.from_coo([0, 1], [0, 1], [1.0, 2.0], 2, 2)
        b = Matrix.from_coo([0, 1], [0, 0], [5.0, 7.0], 2, 2)
        out = Matrix.new(FP64, 2, 2)
        ewise_add(out, PLUS, a, b)
        assert out.to_dense().tolist() == [[6.0, 0.0], [7.0, 2.0]]
        out2 = Matrix.new(FP64, 2, 2)
        ewise_mult(out2, PLUS, a, b)
        assert out2.to_dense().tolist() == [[6.0, 0.0], [0.0, 0.0]]
        out3 = Matrix.new(FP64, 2, 2)
        ewise_union(out3, PLUS, a, 10.0, b, 100.0)
        assert out3.to_dense().tolist() == [[6.0, 0.0], [17.0, 102.0]]

    def test_monoid_accepted_as_op(self, v3, w3):
        out = Vector.new(FP64, 3)
        ewise_add(out, MIN_MONOID, v3, w3)
        assert out.to_dict() == {0: 1.0, 1: 10.0, 2: 3.0}

    def test_operand_shape_mismatch(self, v3):
        with pytest.raises(DimensionMismatch):
            ewise_add(Vector.new(FP64, 3), PLUS, v3, Vector.new(FP64, 4))


class TestVxmMxv:
    def test_vxm_min_plus_oracle(self, rng):
        n = 30
        dense_a = np.where(rng.random((n, n)) < 0.2, rng.random((n, n)) + 0.1, np.inf)
        np.fill_diagonal(dense_a, np.inf)
        a = Matrix.from_dense(np.where(np.isinf(dense_a), 0, dense_a), missing=0.0)
        vals = rng.random(n)
        mask = rng.random(n) < 0.3
        v = Vector.from_coo(np.nonzero(mask)[0], vals[mask], n)
        out = Vector.new(FP64, n)
        vxm(out, MIN_PLUS, v, a)
        dense_v = np.where(mask, vals, np.inf)
        expected = np.min(dense_v[:, None] + dense_a, axis=0)
        got = out.to_dense(fill=np.inf)
        assert np.allclose(got, expected)

    def test_vxm_plus_times_oracle(self, rng):
        n = 20
        dense_a = np.where(rng.random((n, n)) < 0.3, rng.random((n, n)), 0.0)
        a = Matrix.from_dense(dense_a, missing=0.0)
        dense_v = np.where(rng.random(n) < 0.5, rng.random(n), 0.0)
        v = Vector.from_dense(dense_v, missing=0.0)
        out = Vector.new(FP64, n)
        vxm(out, PLUS_TIMES, v, a)
        assert np.allclose(out.to_dense(), dense_v @ dense_a)

    def test_mxv_equals_vxm_on_transpose(self, rng):
        n = 25
        dense_a = np.where(rng.random((n, n)) < 0.25, rng.random((n, n)), 0.0)
        a = Matrix.from_dense(dense_a, missing=0.0)
        v = Vector.from_dense(np.where(rng.random(n) < 0.4, rng.random(n), 0.0), missing=0.0)
        out1 = Vector.new(FP64, n)
        mxv(out1, PLUS_TIMES, a, v)
        out2 = Vector.new(FP64, n)
        vxm(out2, PLUS_TIMES, v, a.transpose())
        assert out1.isclose(out2)

    def test_vxm_transpose1_descriptor(self, rng):
        n = 15
        dense_a = np.where(rng.random((n, n)) < 0.3, rng.random((n, n)), 0.0)
        a = Matrix.from_dense(dense_a, missing=0.0)
        v = Vector.from_dense(np.ones(n))
        out1 = Vector.new(FP64, n)
        vxm(out1, PLUS_TIMES, v, a, desc=TRANSPOSE1)
        out2 = Vector.new(FP64, n)
        vxm(out2, PLUS_TIMES, v, a.transpose())
        assert out1.isclose(out2)

    def test_empty_frontier_gives_empty(self):
        a = Matrix.from_coo([0], [1], [1.0], 2, 2)
        out = Vector.new(FP64, 2)
        vxm(out, MIN_PLUS, Vector.new(FP64, 2), a)
        assert out.nvals == 0

    def test_dimension_checks(self):
        a = Matrix.new(FP64, 2, 3)
        with pytest.raises(DimensionMismatch):
            vxm(Vector.new(FP64, 3), MIN_PLUS, Vector.new(FP64, 3), a)
        with pytest.raises(DimensionMismatch):
            mxv(Vector.new(FP64, 2), MIN_PLUS, a, Vector.new(FP64, 2))


class TestMxm:
    def test_plus_times_oracle(self, rng):
        a_d = np.where(rng.random((6, 8)) < 0.4, rng.random((6, 8)), 0.0)
        b_d = np.where(rng.random((8, 5)) < 0.4, rng.random((8, 5)), 0.0)
        a = Matrix.from_dense(a_d, missing=0.0)
        b = Matrix.from_dense(b_d, missing=0.0)
        out = Matrix.new(FP64, 6, 5)
        mxm(out, PLUS_TIMES, a, b)
        assert np.allclose(out.to_dense(), a_d @ b_d)

    def test_masked_mxm_structural(self, rng):
        n = 10
        a_d = (rng.random((n, n)) < 0.4).astype(np.float64)
        a = Matrix.from_dense(a_d, missing=0.0)
        out = Matrix.new(FP64, n, n)
        from repro.graphblas.descriptor import STRUCTURE

        mxm(out, PLUS_TIMES, a, a, mask=a, desc=STRUCTURE)
        full = a_d @ a_d
        expected = np.where(a_d > 0, full, 0.0)
        assert np.allclose(out.to_dense(), expected)

    def test_inner_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mxm(Matrix.new(FP64, 2, 2), PLUS_TIMES, Matrix.new(FP64, 2, 3), Matrix.new(FP64, 2, 2))

    def test_masked_mxm_complement(self, rng):
        """Complemented mask: kept entries are exactly the product's
        pattern *outside* the mask (exercises the kernel's early filter)."""
        n = 10
        a_d = (rng.random((n, n)) < 0.4).astype(np.float64)
        a = Matrix.from_dense(a_d, missing=0.0)
        out = Matrix.new(FP64, n, n)
        from repro.graphblas.descriptor import Descriptor

        desc = Descriptor(mask_complement=True, mask_structure=True)
        mxm(out, PLUS_TIMES, a, a, mask=a, desc=desc)
        full = a_d @ a_d
        expected = np.where(a_d > 0, 0.0, full)
        assert np.allclose(out.to_dense(), expected)

    def test_min_plus_batch_frontier(self):
        """The batch-SSSP wave: a K×n frontier matrix against the
        adjacency under (min, +) relaxes K searches in one mxm."""
        # path 0 -> 1 -> 2 with weights 2, 3
        A = Matrix.from_coo([0, 1], [1, 2], [2.0, 3.0], 3, 3)
        F = Matrix.from_coo([0, 1], [0, 1], [0.0, 0.0], 2, 3)  # sources 0 and 1
        out = Matrix.new(FP64, 2, 3)
        mxm(out, MIN_PLUS, F, A)
        assert out.to_coo()[2].tolist() == [2.0, 3.0]
        assert out.get(0, 1) == 2.0  # from source 0
        assert out.get(1, 2) == 3.0  # from source 1


class TestReduce:
    def test_vector_to_scalar(self, v3):
        assert reduce_vector_to_scalar(PLUS_MONOID, v3) == 4.0
        assert reduce_vector_to_scalar(MIN_MONOID, v3) == 1.0

    def test_empty_vector_identity(self):
        assert reduce_vector_to_scalar(PLUS_MONOID, Vector.new(FP64, 3)) == 0.0

    def test_matrix_to_scalar(self):
        a = Matrix.from_coo([0, 1], [0, 1], [2.0, 3.0], 2, 2)
        assert reduce_matrix_to_scalar(PLUS_MONOID, a) == 5.0

    def test_matrix_to_vector_rows(self):
        a = Matrix.from_coo([0, 0, 1], [0, 1, 0], [1.0, 2.0, 5.0], 2, 2)
        out = reduce_matrix_to_vector(None, PLUS_MONOID, a)
        assert out.to_dict() == {0: 3.0, 1: 5.0}

    def test_matrix_to_vector_columns_via_transpose(self):
        from repro.graphblas.descriptor import TRANSPOSE0

        a = Matrix.from_coo([0, 0, 1], [0, 1, 0], [1.0, 2.0, 5.0], 2, 2)
        out = Vector.new(FP64, 2)
        reduce_matrix_to_vector(out, PLUS_MONOID, a, desc=TRANSPOSE0)
        assert out.to_dict() == {0: 6.0, 1: 2.0}


class TestExtractAssign:
    def test_extract_subvector(self, v3):
        out = extract_subvector(None, v3, [2, 0, 1])
        assert out.to_dict() == {0: 3.0, 1: 1.0}

    def test_extract_subvector_slice(self, v3):
        out = extract_subvector(None, v3, slice(0, 2))
        assert out.to_dict() == {0: 1.0}

    def test_extract_submatrix(self):
        a = Matrix.from_dense(np.arange(1.0, 13.0).reshape(3, 4))
        out = extract_submatrix(None, a, [2, 0], [1, 3])
        assert out.to_dense().tolist() == [[10.0, 12.0], [2.0, 4.0]]

    def test_assign_scalar_all(self):
        w = Vector.new(FP64, 3)
        assign_scalar_vector(w, 7.0)
        assert w.to_dense().tolist() == [7.0, 7.0, 7.0]

    def test_assign_scalar_masked(self):
        w = Vector.new(FP64, 3)
        m = Vector.from_coo([1], [True], 3, dtype=BOOL)
        assign_scalar_vector(w, 7.0, mask=m)
        assert w.to_dict() == {1: 7.0}

    def test_assign_vector_mapped(self):
        w = Vector.new(FP64, 5)
        u = Vector.from_coo([0, 1], [10.0, 20.0], 2)
        assign_vector(w, u, [3, 1])
        assert w.to_dict() == {1: 20.0, 3: 10.0}

    def test_assign_scalar_matrix_cross_product(self):
        c = Matrix.new(FP64, 3, 4)
        assign_scalar_matrix(c, 5.0, rows=[0, 2], cols=[1, 3])
        assert c.to_dense().tolist() == [
            [0.0, 5.0, 0.0, 5.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 5.0, 0.0, 5.0],
        ]

    def test_assign_scalar_matrix_preserves_outside_region(self):
        """GrB_assign semantics: entries outside rows x cols survive."""
        c = Matrix.new(FP64, 2, 3)
        assign_scalar_matrix(c, 1.0, rows=[0], cols=[0])
        assign_scalar_matrix(c, 2.0, rows=[1], cols=[2])
        assert c.nvals == 2
        assert c.get(0, 0) == 1.0 and c.get(1, 2) == 2.0

    def test_assign_scalar_matrix_accum(self):
        c = Matrix.from_coo([0], [0], [10.0], 2, 2)
        assign_scalar_matrix(c, 1.0, rows=[0], cols=[0, 1], accum=PLUS)
        assert c.nvals == 2
        assert c.get(0, 0) == 11.0 and c.get(0, 1) == 1.0

    def test_assign_scalar_matrix_all(self):
        c = Matrix.new(FP64, 2, 2)
        assign_scalar_matrix(c, 3.0)
        assert np.allclose(c.to_dense(), 3.0)


class TestTransposeKronecker:
    def test_transpose_operation(self):
        a = Matrix.from_coo([0], [1], [5.0], 2, 3)
        out = Matrix.new(FP64, 3, 2)
        transpose(out, a)
        assert out.extract_element(1, 0) == 5.0

    def test_kronecker_oracle(self, rng):
        a_d = np.where(rng.random((2, 3)) < 0.6, rng.random((2, 3)), 0.0)
        b_d = np.where(rng.random((3, 2)) < 0.6, rng.random((3, 2)), 0.0)
        a = Matrix.from_dense(a_d, missing=0.0)
        b = Matrix.from_dense(b_d, missing=0.0)
        out = kronecker(None, TIMES, a, b)
        assert np.allclose(out.to_dense(), np.kron(a_d, b_d))
