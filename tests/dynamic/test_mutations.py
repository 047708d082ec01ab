"""apply_edge_updates: CSR consistency, epoch semantics, batch validation."""

import numpy as np
import pytest

from repro.dynamic import apply_edge_updates
from repro.graphs import generators as gen
from repro.graphs.graph import Graph


def _directed_graph():
    # 0 -> 1 -> 2 -> 3 with a 0 -> 2 chord
    return Graph.from_edges([0, 1, 2, 0], [1, 2, 3, 2], [1.0, 2.0, 1.5, 5.0], n=4)


class TestCSRConsistency:
    def test_insert_keeps_rows_sorted_and_deduped(self):
        g = _directed_graph()
        apply_edge_updates(g, inserts=[(0, 3, 4.0), (2, 0, 1.0)])
        assert g.has_canonical_rows()
        assert g.num_edges == 6
        assert g.edge_weight(0, 3) == 4.0
        assert g.edge_weight(2, 0) == 1.0

    def test_delete_removes_exactly_the_edge(self):
        g = _directed_graph()
        apply_edge_updates(g, deletes=[(0, 2)])
        assert g.edge_weight(0, 2) is None
        assert g.edge_weight(0, 1) == 1.0
        assert g.num_edges == 3
        assert g.has_canonical_rows()

    def test_reweight_in_place_fast_path(self):
        g = _directed_graph()
        indices_before = g.indices
        indptr_before = g.indptr
        apply_edge_updates(g, reweights=[(1, 2, 9.0)])
        # pure reweights must not rebuild the sparsity structure
        assert g.indices is indices_before
        assert g.indptr is indptr_before
        assert g.edge_weight(1, 2) == 9.0

    def test_round_trip_insert_then_delete(self):
        g = _directed_graph()
        ref = g.copy()
        apply_edge_updates(g, inserts=[(3, 0, 2.0)])
        apply_edge_updates(g, deletes=[(3, 0)])
        assert np.array_equal(g.indptr, ref.indptr)
        assert np.array_equal(g.indices, ref.indices)
        assert np.array_equal(g.weights, ref.weights)

    def test_undirected_updates_apply_both_orientations(self):
        g = gen.grid_2d(3, 3)  # undirected
        apply_edge_updates(g, reweights=[(0, 1, 0.5)])
        assert g.edge_weight(0, 1) == 0.5
        assert g.edge_weight(1, 0) == 0.5
        apply_edge_updates(g, deletes=[(0, 1)])
        assert g.edge_weight(0, 1) is None
        assert g.edge_weight(1, 0) is None


class TestEpoch:
    def test_epoch_increases_monotonically(self):
        g = _directed_graph()
        assert g.epoch == 0
        apply_edge_updates(g, reweights=[(0, 1, 2.0)])
        assert g.epoch == 1
        apply_edge_updates(g, inserts=[(3, 0, 1.0)])
        assert g.epoch == 2
        apply_edge_updates(g, deletes=[(3, 0)])
        assert g.epoch == 3

    def test_copy_preserves_epoch(self):
        g = _directed_graph()
        apply_edge_updates(g, reweights=[(0, 1, 2.0)])
        assert g.copy().epoch == g.epoch


class TestAppliedRecord:
    def test_classification(self):
        g = _directed_graph()
        applied = apply_edge_updates(
            g,
            inserts=[(3, 0, 1.0)],
            deletes=[(0, 2)],
            reweights=[(0, 1, 5.0), (1, 2, 0.5)],
        )
        assert len(applied.inserted[0]) == 1
        assert len(applied.deleted[0]) == 1
        assert applied.deleted[2][0] == 5.0  # records the old weight
        assert len(applied.increased[0]) == 1 and applied.increased[3][0] == 5.0
        assert len(applied.decreased[0]) == 1 and applied.decreased[3][0] == 0.5
        assert not applied.decrease_only
        assert applied.num_updates == 4

    def test_no_change_reweight_dropped_from_record(self):
        g = _directed_graph()
        applied = apply_edge_updates(g, reweights=[(0, 1, 1.0)])  # same weight
        assert applied.num_updates == 0
        assert applied.decrease_only
        assert g.epoch == 1  # the batch still counts as a mutation

    def test_decrease_only_detection(self):
        g = _directed_graph()
        applied = apply_edge_updates(
            g, inserts=[(3, 0, 1.0)], reweights=[(0, 2, 0.5)]
        )
        assert applied.decrease_only


class TestValidation:
    def test_strict_insert_existing_edge(self):
        g = _directed_graph()
        with pytest.raises(ValueError, match="existing edge"):
            apply_edge_updates(g, inserts=[(0, 1, 2.0)])

    def test_strict_delete_missing_edge(self):
        g = _directed_graph()
        with pytest.raises(ValueError, match="missing edge"):
            apply_edge_updates(g, deletes=[(3, 0)])

    def test_strict_reweight_missing_edge(self):
        g = _directed_graph()
        with pytest.raises(ValueError, match="missing edge"):
            apply_edge_updates(g, reweights=[(3, 0, 1.0)])

    def test_non_strict_coerces(self):
        g = _directed_graph()
        applied = apply_edge_updates(
            g,
            inserts=[(0, 1, 0.25)],   # exists: min-combines (a decrease)
            deletes=[(3, 0)],          # missing: skipped
            strict=False,
        )
        assert g.edge_weight(0, 1) == 0.25
        assert len(applied.decreased[0]) == 1
        assert len(applied.deleted[0]) == 0

    def test_cross_category_conflict_always_rejected(self):
        g = _directed_graph()
        with pytest.raises(ValueError, match="deleted and reweighted"):
            apply_edge_updates(
                g, deletes=[(0, 1)], reweights=[(0, 1, 2.0)], strict=False
            )

    def test_out_of_range_endpoint(self):
        g = _directed_graph()
        with pytest.raises(ValueError, match="out of range"):
            apply_edge_updates(g, inserts=[(0, 99, 1.0)])

    def test_self_loop_rejected(self):
        g = _directed_graph()
        with pytest.raises(ValueError, match="self-loop"):
            apply_edge_updates(g, inserts=[(1, 1, 1.0)])

    def test_negative_weight_rejected(self):
        g = _directed_graph()
        with pytest.raises(ValueError, match="negative"):
            apply_edge_updates(g, reweights=[(0, 1, -1.0)])

    def test_duplicate_edge_in_batch(self):
        g = _directed_graph()
        with pytest.raises(ValueError, match="duplicate"):
            apply_edge_updates(g, reweights=[(0, 1, 2.0), (0, 1, 3.0)])

    def test_insert_into_empty_graph(self):
        """Regression: the edge lookup crashed on zero-edge graphs instead
        of letting a graph be built up incrementally from empty."""
        g = Graph.empty(4)
        applied = apply_edge_updates(g, inserts=[(0, 1, 1.0), (1, 2, 2.0)])
        assert g.num_edges == 2
        assert g.edge_weight(1, 2) == 2.0
        assert len(applied.inserted[0]) == 2
        assert g.epoch == 1

    def test_delete_on_empty_graph_strict_raises(self):
        g = Graph.empty(4)
        with pytest.raises(ValueError, match="missing edge"):
            apply_edge_updates(g, deletes=[(0, 1)])
        assert apply_edge_updates(g, deletes=[(0, 1)], strict=False).num_updates == 0


class TestCanonicalization:
    def test_from_matrix_canonicalizes_rows(self):
        from repro.graphblas.matrix import Matrix

        # adopt a matrix whose row 0 carries unsorted targets [1, 0]
        A = Matrix.from_csr(
            np.array([0, 2, 2]), np.array([1, 0]), np.array([3.0, 1.0]), ncols=2
        )
        g = Graph.from_matrix(A)
        assert g.has_canonical_rows()
        assert g.edge_weight(0, 0) == 1.0
        assert g.edge_weight(0, 1) == 3.0

    def test_canonicalize_min_combines_duplicates(self):
        g = Graph(
            indptr=np.array([0, 3, 3]),
            indices=np.array([1, 1, 0]),
            weights=np.array([5.0, 2.0, 1.0]),
        )
        g.canonicalize_rows()
        assert g.has_canonical_rows()
        assert g.num_edges == 2
        assert g.edge_weight(0, 1) == 2.0
        assert g.epoch == 1  # the arrays changed, so their version did

    def test_canonicalize_noop_on_canonical(self):
        g = _directed_graph()
        indices = g.indices
        epoch = g.epoch
        g.canonicalize_rows()
        assert g.indices is indices  # untouched
        assert g.epoch == epoch
