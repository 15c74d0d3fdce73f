import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from crossfuse.data import DataError, InteractionDataset
from crossfuse.graph import (build_similarity_graph, check_csr, interaction_matrix,
                             isolated_nodes, load_graph, normalize_bipartite,
                             propagate, save_graph)

binary_matrices = arrays(np.float64, st.tuples(st.integers(2, 8), st.integers(2, 8)),
                         elements=st.sampled_from([0.0, 1.0]))


class TestSimilarityGraph:
    def test_hand_computed_cosine(self):
        R = sp.csr_matrix(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]))
        sim = build_similarity_graph(R, "rows", epsilon=0.0)
        assert sim[0, 1] == pytest.approx(0.5)  # dot 1 over sqrt(2) * sqrt(2)
        assert sim[0, 0] == 1.0
        assert sim[1, 1] == 1.0

    def test_threshold_removes_entry(self):
        R = sp.csr_matrix(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]))
        sim = build_similarity_graph(R, "rows", epsilon=0.6)
        assert sim[0, 1] == 0.0
        assert sim[0, 0] == 1.0

    def test_disjoint_supports_absent(self):
        R = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        sim = build_similarity_graph(R, "rows", epsilon=0.0)
        assert sim.nnz == 2  # the two self-loops only

    def test_zero_interaction_node_keeps_self_loop(self):
        R = sp.csr_matrix(np.array([[1.0, 1.0], [0.0, 0.0]]))
        sim = build_similarity_graph(R, "rows", epsilon=0.1)
        assert sim[1, 1] == 1.0
        assert sim[1, 0] == 0.0
        assert np.array_equal(isolated_nodes(R, "rows"), [1])

    def test_column_axis_builds_item_graph(self):
        R = sp.csr_matrix(np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]]))
        sim = build_similarity_graph(R, "columns", epsilon=0.0)
        assert sim.shape == (3, 3)
        assert sim[1, 2] == 0.0  # items 1 and 2 share no user
        assert sim[0, 1] == pytest.approx(1.0 / np.sqrt(2))

    def test_printed_variant_divides_by_squared_norms(self):
        R = sp.csr_matrix(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]))
        sim = build_similarity_graph(R, "rows", epsilon=0.0, variant="printed")
        assert sim[0, 1] == pytest.approx(1.0 / 4.0)  # dot 1 over 2 * 2
        assert sim[0, 0] == 1.0  # diagonal pinned to 1 in both variants

    def test_similarity_on_ratings_is_binarized(self):
        Rb = sp.csr_matrix(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]))
        Rr = sp.csr_matrix(np.array([[5.0, 3.0, 0.0], [0.0, 1.0, 2.0]]))
        a = build_similarity_graph(Rb, "rows", epsilon=0.0)
        b = build_similarity_graph(Rr, "rows", epsilon=0.0)
        assert np.allclose(a.toarray(), b.toarray())

    def test_max_neighbors_cap(self):
        rng = np.random.default_rng(0)
        R = sp.csr_matrix((rng.random((12, 20)) < 0.4).astype(float))
        sim = build_similarity_graph(R, "rows", epsilon=0.05, max_neighbors=2)
        dense = sim.toarray()
        off_degrees = (dense > 0).sum(axis=1) - 1
        assert np.all(off_degrees <= 2)
        assert np.array_equal(dense, dense.T)

    @settings(max_examples=40, deadline=None)
    @given(binary_matrices, st.floats(0.05, 0.95))
    def test_symmetry_range_and_contract(self, dense, epsilon):
        sim = build_similarity_graph(sp.csr_matrix(dense), "rows", epsilon=epsilon)
        arr = sim.toarray()
        assert np.array_equal(arr, arr.T)
        assert np.all(np.diag(arr) == 1.0)
        off = arr[~np.eye(arr.shape[0], dtype=bool)]
        stored = off[off != 0]
        assert np.all(stored >= epsilon)
        assert np.all(stored <= 1.0)
        check_csr(sim)

    @settings(max_examples=25, deadline=None)
    @given(binary_matrices)
    def test_raising_epsilon_monotonically_sparsifies(self, dense):
        R = sp.csr_matrix(dense)
        counts = [build_similarity_graph(R, "rows", epsilon=e).nnz
                  for e in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestNormalizeBipartite:
    def test_single_edge_weight_one(self):
        ds = InteractionDataset(n=1, m=1, users=np.array([0]), items=np.array([0]),
                                ratings=np.ones(1), split=np.zeros(1, dtype=np.int8))
        adj = normalize_bipartite(ds)
        assert adj.shape == (2, 2)
        assert adj[0, 1] == 1.0
        assert adj[1, 0] == 1.0

    def test_degree_four_user_unit_items(self):
        users = np.zeros(4, dtype=int)
        items = np.arange(4)
        ds = InteractionDataset(n=1, m=4, users=users, items=items,
                                ratings=np.ones(4), split=np.zeros(4, dtype=np.int8))
        adj = normalize_bipartite(ds)
        for i in range(4):
            assert adj[0, 1 + i] == pytest.approx(0.5)

    def test_isolated_item_has_empty_row(self, tiny_dataset):
        users = np.array([0, 1])
        items = np.array([0, 0])
        ds = InteractionDataset(n=2, m=2, users=users, items=items,
                                ratings=np.ones(2), split=np.zeros(2, dtype=np.int8))
        adj = normalize_bipartite(ds)
        assert adj[3].nnz == 0
        assert np.all(np.isfinite(adj.data))

    def test_weight_identity(self, tiny_dataset):
        adj = normalize_bipartite(tiny_dataset)
        coo = adj.tocoo()
        n = tiny_dataset.n
        for r, c, w in zip(coo.row, coo.col, coo.data):
            if r < n:
                du = tiny_dataset.user_degree(r)
                di = tiny_dataset.item_degree(c - n)
                assert w * w * du * di == pytest.approx(1.0, abs=1e-12)

    def test_no_self_loops_and_symmetric(self, tiny_dataset):
        adj = normalize_bipartite(tiny_dataset)
        assert adj.diagonal().sum() == 0
        assert (adj != adj.T).nnz == 0


class TestPropagate:
    def test_zero_features(self, tiny_dataset):
        adj = normalize_bipartite(tiny_dataset)
        out = propagate(adj, np.zeros((adj.shape[0], 3)))
        assert np.all(out == 0)

    def test_single_edge_one_hot(self):
        adj = sp.csr_matrix(np.array([[0.0, 0.7], [0.7, 0.0]]))
        X = np.array([[1.0, 0.0], [0.0, 0.0]])
        out = propagate(adj, X)
        assert out[1, 0] == pytest.approx(0.7)
        assert out[0, 0] == 0.0

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        dense = (rng.random((9, 9)) < 0.3) * rng.random((9, 9))
        X = rng.normal(size=(9, 4))
        out = propagate(sp.csr_matrix(dense), X)
        assert np.max(np.abs(out - dense @ X)) <= 1e-12

    def test_dimension_mismatch(self):
        adj = sp.csr_matrix(np.eye(3))
        with pytest.raises(ValueError):
            propagate(adj, np.zeros((4, 2)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        adj = sp.csr_matrix((rng.random((7, 7)) < 0.4) * rng.normal(size=(7, 7)))
        X = rng.normal(size=(7, 3))
        Y = rng.normal(size=(7, 3))
        a, b = rng.normal(size=2)
        lhs = propagate(adj, a * X + b * Y)
        rhs = a * propagate(adj, X) + b * propagate(adj, Y)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestPersistence:
    def test_roundtrip(self, tmp_path, tiny_dataset):
        adj = normalize_bipartite(tiny_dataset)
        path = tmp_path / "adj.graph"
        save_graph(path, adj)
        back = load_graph(path)
        assert back.shape == adj.shape
        assert np.array_equal(back.indptr, adj.indptr)
        assert np.array_equal(back.indices, adj.indices)
        assert np.array_equal(back.data, adj.data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.graph"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(DataError, match="not a graph file"):
            load_graph(path)

    def test_interaction_matrix_binarize(self, tiny_dataset):
        R = interaction_matrix(tiny_dataset, binarize=True)
        assert set(R.data.tolist()) == {1.0}
        assert R.shape == (6, 8)
        check_csr(R)


class TestCheckCsr:
    @staticmethod
    def raw_csr(indptr, indices, shape=(4, 5)):
        # built from raw arrays so scipy neither sorts nor merges the indices
        return sp.csr_matrix((np.ones(len(indices)), np.array(indices), np.array(indptr)),
                             shape=shape)

    def test_accepts_sorted_rows_across_row_boundaries(self):
        # row 0 ends at column 4 and row 2 starts at column 0; row 1 is empty
        check_csr(self.raw_csr([0, 2, 2, 4, 5], [1, 4, 0, 3, 2]))
        check_csr(sp.csr_matrix((3, 3)))

    def test_unsorted_indices_name_the_first_bad_row(self):
        mat = self.raw_csr([0, 1, 1, 3, 5], [2, 4, 1, 3, 0])
        with pytest.raises(ValueError, match="row 2 has unsorted"):
            check_csr(mat)

    def test_duplicate_indices_rejected(self):
        mat = self.raw_csr([0, 1, 3, 3, 3], [0, 2, 2])
        with pytest.raises(ValueError, match="row 1 has unsorted or duplicate"):
            check_csr(mat)
