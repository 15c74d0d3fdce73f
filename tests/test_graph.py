import struct
import tracemalloc
import zlib
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import old_graph_bytes
from crossfuse import graph, store
from crossfuse.data import TRAIN, DataError, InteractionDataset
from crossfuse.graph import _csr_matmat as graph_csr_matmat
from crossfuse.graph import (build_similarity_graph, check_csr, check_graph, interaction_matrix,
                             isolated_nodes, load_graph, normalize_bipartite, save_graph)

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

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.float64])
    def test_repeats_count_once_in_any_dtype(self, dtype):
        # user 0 stores item 0 three times and item 1 once; user 1 item 0
        R = sp.csr_matrix((np.ones(5, dtype), np.array([0, 0, 1, 0, 0]), np.array([0, 4, 5])),
                          shape=(2, 2))
        sim = build_similarity_graph(R, "rows", epsilon=0.0)
        assert sim[0, 1] == 1.0 / np.sqrt(2.0)  # co-count 1 over sqrt(2 * 1)

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


def whole_matrix_graph(R, axis="rows", epsilon=0.3, variant="cosine"):
    """The similarity build over the whole product: D @ (B @ B.T) @ D, its
    strict upper triangle, the threshold, mirroring and the diagonal."""
    B = R.tocsr() if axis == "rows" else R.T.tocsr()
    B = B.astype(bool).astype(np.float64)
    size = B.shape[0]
    deg = np.asarray(B.sum(axis=1)).ravel()
    norms = np.sqrt(deg)
    power = 1.0 if variant == "cosine" else 2.0
    inv = np.zeros(size)
    active = deg > 0
    inv[active] = 1.0 / norms[active] ** power
    D = sp.diags(inv)
    S = (D @ (B @ B.T) @ D).tocsr()
    upper = sp.triu(S, k=1).tocoo()
    keep = upper.data >= epsilon
    r, c, v = upper.row[keep], upper.col[keep], np.minimum(upper.data[keep], 1.0)
    rows = np.concatenate([r, c, np.arange(size)])
    cols = np.concatenate([c, r, np.arange(size)])
    vals = np.concatenate([v, v, np.ones(size)])
    out = sp.coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()
    out.sort_indices()
    return out


def assert_same_csr(a, b):
    assert a.shape == b.shape
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def block_rows(rows: int | None, size: int) -> int:
    """A byte budget that makes the build's row blocks ``rows`` long (the
    whole matrix for None)."""
    return 12 * size * (size if rows is None else rows)


class TestBlockedSimilarityBuild:
    """The row-block build equals the whole-matrix formula, bit for bit."""

    @staticmethod
    def interactions() -> sp.csr_matrix:
        # 11 users x 10 items: blocks of 3 leave a ragged last block on both
        # axes; user 4 and item 7 have no interaction
        rng = np.random.default_rng(3)
        dense = (rng.random((11, 10)) < 0.45).astype(np.float64)
        dense[4, :] = 0.0
        dense[:, 7] = 0.0
        dense[0, :3] = dense[1, :3] = 1.0  # a similarity of exactly 1
        return sp.csr_matrix(dense)

    @staticmethod
    def counts() -> sp.csc_matrix:
        # the same pattern with repeat interactions (values 1-3), column major:
        # the build binarizes whatever layout and counts it is given
        R = TestBlockedSimilarityBuild.interactions()
        R.data = np.random.default_rng(4).integers(1, 4, size=R.nnz).astype(np.float64)
        return R.tocsc()

    @pytest.mark.parametrize("rows", [1, 3, None], ids=["1-row", "3-rows", "whole"])
    @pytest.mark.parametrize("given", ["binary", "counts"])
    @pytest.mark.parametrize("epsilon", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("variant", ["cosine", "printed"])
    @pytest.mark.parametrize("axis", ["rows", "columns"])
    def test_equals_whole_matrix_formula(self, axis, variant, epsilon, given, rows):
        R = self.interactions() if given == "binary" else self.counts()
        size = R.shape[0] if axis == "rows" else R.shape[1]
        with mock.patch.object(graph, "_BLOCK_BYTES", block_rows(rows, size)):
            got = build_similarity_graph(R, axis, epsilon, variant)
        assert_same_csr(got, whole_matrix_graph(R, axis, epsilon, variant))

    @pytest.mark.parametrize("given", ["binary", "counts"])
    @pytest.mark.parametrize("epsilon", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("variant", ["cosine", "printed"])
    @pytest.mark.parametrize("axis", ["rows", "columns"])
    def test_one_block_equals_whole_matrix_formula(self, axis, variant, epsilon, given):
        # the least-blocks rule lifted: one block computes both triangles
        R = self.interactions() if given == "binary" else self.counts()
        size = R.shape[0] if axis == "rows" else R.shape[1]
        with mock.patch.object(graph, "_BLOCK_BYTES", block_rows(None, size)), \
                mock.patch.object(graph, "_MIN_BLOCKS", 1):
            got = build_similarity_graph(R, axis, epsilon, variant)
        assert_same_csr(got, whole_matrix_graph(R, axis, epsilon, variant))

    def test_budget_below_one_row_still_takes_one_row(self):
        R = self.interactions()
        with mock.patch.object(graph, "_BLOCK_BYTES", 0):
            got = build_similarity_graph(R, "rows", 0.0)
        assert_same_csr(got, whole_matrix_graph(R, "rows", 0.0))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(binary_matrices, st.sampled_from(["rows", "columns"]),
           st.sampled_from([0.0, 0.2, 0.5, 1.0]), st.sampled_from(["cosine", "printed"]),
           st.sampled_from([1, 2, 3, None]))
    def test_property_equals_whole_matrix_formula(self, dense, axis, epsilon, variant, rows):
        R = sp.csr_matrix(dense)
        size = R.shape[0] if axis == "rows" else R.shape[1]
        with mock.patch.object(graph, "_BLOCK_BYTES", block_rows(rows, size)):
            got = build_similarity_graph(R, axis, epsilon, variant)
        assert_same_csr(got, whole_matrix_graph(R, axis, epsilon, variant))

    @pytest.mark.parametrize("rows", [1, 3, None, 50],
                             ids=["1-row", "3-rows", "whole", "beyond-size"])
    @pytest.mark.parametrize("axis", ["rows", "columns"])
    def test_all_pairs_sharing_an_item_fill_the_block_buffer(self, axis, rows):
        # every pair of nodes shares an item, so the first block's co-counts
        # are dense: exactly the buffer the budget sizes
        R = sp.csr_matrix(np.ones((11, 10)))
        size = R.shape[0] if axis == "rows" else R.shape[1]
        filled = []

        def product(n_row, n_col, *arrays):
            graph_csr_matmat(n_row, n_col, *arrays)
            indptr, indices = arrays[6], arrays[7]
            filled.append((int(indptr[n_row]), len(indices)))

        with mock.patch.object(graph, "_BLOCK_BYTES", block_rows(rows, size)), \
                mock.patch.object(graph, "_csr_matmat", product):
            got = build_similarity_graph(R, axis, 0.3)
        assert_same_csr(got, whole_matrix_graph(R, axis, 0.3))
        # the first block is as long as the budget allows, but no longer than
        # an even split of the nodes into graph._MIN_BLOCKS blocks
        width = min(rows or size, size, -(-size // graph._MIN_BLOCKS))
        bound = width * (size - 1)
        assert filled[0] == (bound, bound)
        assert all(nnz <= cap for nnz, cap in filled)

    def test_runs_no_symbolic_pass(self):
        # scipy's sparse product sizes its output with this pass first
        R = self.interactions()
        with mock.patch("scipy.sparse._compressed.csr_matmat_maxnnz",
                        side_effect=AssertionError("symbolic pass")):
            got = build_similarity_graph(R, "rows", 0.3)
            with pytest.raises(AssertionError, match="symbolic pass"):
                whole_matrix_graph(R, "rows", 0.3)
        assert_same_csr(got, whole_matrix_graph(R, "rows", 0.3))

    def test_traced_peak_is_a_fraction_of_the_whole_product(self):
        # dense co-counts: about 80% of user pairs share an item
        rng = np.random.default_rng(0)
        R = sp.csr_matrix((rng.random((2000, 600)) < 0.05).astype(np.float64))

        def traced_peak(build):
            tracemalloc.start()
            try:
                out = build(R, "rows", 0.3)
                return out, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        got, blocked = traced_peak(build_similarity_graph)
        want, whole = traced_peak(whole_matrix_graph)
        assert_same_csr(got, want)
        assert blocked < whole / 3


class TestPrefilter:
    """Only co-counts c >= epsilon / top**2 * (1 - 1e-9) are scaled, top the
    largest inverse norm; that floor drops nothing the threshold keeps."""

    @staticmethod
    def boundary(repeats: bool = False) -> sp.csr_matrix:
        # 3 users of 4 items each, so top is 1/2 (cosine) or 1/4 (printed)
        # and the floor is 2: users 0 and 1 share 2 items, a similarity of
        # exactly 1/2 (cosine) or 1/8 (printed); user 2 shares 1 item with
        # each of them
        rows = [[0, 1, 2, 3], [0, 1, 4, 5], [3, 5, 6, 7]]
        if not repeats:
            return sp.csr_matrix((np.ones(12), np.concatenate(rows), [0, 4, 8, 12]),
                                 shape=(3, 8))
        # user 0 stores item 0 twice (values 1 and -1, which sum to 0), user
        # 2 stores an explicit zero at item 0 and one at item 4, twice
        rows = [[0, 0, 1, 2, 3], [0, 1, 4, 5], [0, 3, 4, 4, 5, 6, 7]]
        values = [1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
                  0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0]
        return sp.csr_matrix((values, np.concatenate(rows), [0, 5, 9, 16]), shape=(3, 8))

    @pytest.mark.parametrize("repeats", [False, True], ids=["plain", "repeats-and-zeros"])
    @pytest.mark.parametrize("variant, epsilon", [("cosine", 0.5), ("printed", 0.125)])
    @pytest.mark.parametrize("axis", ["rows", "columns"])
    def test_pair_at_epsilon_kept_one_below_dropped(self, axis, variant, epsilon, repeats):
        R = self.boundary(repeats)
        R = R if axis == "rows" else R.T.tocsc()
        got = build_similarity_graph(R, axis, epsilon, variant)
        assert_same_csr(got, whole_matrix_graph(R, axis, epsilon, variant))
        assert_same_csr(got, build_similarity_graph(self.boundary(), "rows", epsilon, variant))
        assert got[0, 1] == got[1, 0] == epsilon
        assert got.nnz == 3 + 2  # the diagonal and the one pair at epsilon

    @pytest.mark.parametrize("repeats", [False, True], ids=["plain", "repeats-and-zeros"])
    @pytest.mark.parametrize("variant", ["cosine", "printed"])
    def test_epsilon_zero_keeps_every_co_occurring_pair(self, variant, repeats):
        got = build_similarity_graph(self.boundary(repeats), "rows", 0.0, variant)
        assert_same_csr(got, whole_matrix_graph(self.boundary(repeats), "rows", 0.0, variant))
        assert got.nnz == 9

    def test_co_counts_below_the_floor_are_not_scaled(self):
        # above a floor of 1, each block finds the rows of the co-counts it
        # scales with one right-sided search: at epsilon 0.5 the floor is 2
        # and only the pair (0, 1) gets there
        searched = []
        search = np.searchsorted

        def spy(a, v, side="left"):
            if side == "right":
                searched.append(len(v))
            return search(a, v, side=side)

        with mock.patch.object(graph.np, "searchsorted", spy):
            build_similarity_graph(self.boundary(), "rows", 0.5)
        assert sum(searched) == 1


def coo_interaction_matrix(ds: InteractionDataset, binarize: bool = False) -> sp.csr_matrix:
    """``interaction_matrix`` as a COO assembly of the train triplets: the
    reference the CSR-read build must equal bit for bit."""
    idx = ds.split_indices(TRAIN)
    vals = np.ones(len(idx)) if binarize else ds.ratings[idx]
    out = sp.coo_matrix((vals, (ds.users[idx], ds.items[idx])), shape=(ds.n, ds.m)).tocsr()
    out.sum_duplicates()
    out.sort_indices()
    return out


def coo_normalize_bipartite(ds: InteractionDataset) -> sp.csr_matrix:
    """``normalize_bipartite`` as a COO assembly of both edge directions, the
    reference the CSR-read build must equal bit for bit."""
    tr = ds.split_indices(TRAIN)
    u, i = ds.users[tr], ds.items[tr]
    du, di = np.bincount(u, minlength=ds.n), np.bincount(i, minlength=ds.m)
    w = 1.0 / np.sqrt(du[u].astype(np.float64) * di[i].astype(np.float64))
    size = ds.n + ds.m
    out = sp.coo_matrix((np.concatenate([w, w]), (np.concatenate([u, ds.n + i]),
                                                  np.concatenate([ds.n + i, u]))),
                        shape=(size, size)).tocsr()
    out.sort_indices()
    return out


def random_split_dataset(seed: int) -> InteractionDataset:
    """Up to 14 x 14 interactions in random order, random ratings and split
    tags: some users and items have no train interaction, some none at all."""
    rng = np.random.default_rng(seed)
    n, m = (int(k) for k in rng.integers(1, 15, size=2))
    pairs = rng.permutation(n * m)[:int(rng.integers(1, n * m + 1))]
    users, items = np.divmod(pairs, m)
    tags = rng.choice(3, size=len(pairs), p=[0.6, 0.2, 0.2]).astype(np.int8)
    ratings = rng.integers(1, 6, size=len(pairs)).astype(np.float64)
    return InteractionDataset(n, m, users, items, ratings, tags)


class TestTrainCsrBuilders:
    """``interaction_matrix`` and ``normalize_bipartite`` read the cached
    train CSR and equal the COO assembly bit for bit, dtypes included."""

    @pytest.mark.parametrize("seed", range(40))
    def test_equal_the_coo_assembly(self, seed):
        ds = random_split_dataset(seed)
        assert_same_csr(normalize_bipartite(ds), coo_normalize_bipartite(ds))
        for binarize in (False, True):
            assert_same_csr(interaction_matrix(ds, binarize=binarize),
                            coo_interaction_matrix(ds, binarize))

    def test_isolated_users_and_items_are_covered(self):
        # the random datasets above reach the cases the builders special-case
        datasets = [random_split_dataset(seed) for seed in range(40)]
        train = [np.diff(interaction_matrix(ds).indptr) for ds in datasets]
        assert any(np.any(d == 0) for d in train)
        assert any(np.any(np.bincount(interaction_matrix(ds).indices, minlength=ds.m) == 0)
                   for ds in datasets)
        assert any(interaction_matrix(ds).nnz == 0 for ds in datasets)

    def test_no_train_interaction(self):
        ds = InteractionDataset(2, 3, np.array([0, 1]), np.array([2, 0]), np.ones(2),
                                np.array([1, 2], dtype=np.int8))
        assert_same_csr(normalize_bipartite(ds), coo_normalize_bipartite(ds))
        assert_same_csr(interaction_matrix(ds), coo_interaction_matrix(ds))


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
        du = {u: int(np.sum(tiny_dataset.users == u)) for u in range(n)}
        di = {i: int(np.sum(tiny_dataset.items == i)) for i in range(tiny_dataset.m)}
        for r, c, w in zip(coo.row, coo.col, coo.data):
            if r < n:
                assert w * w * du[r] * di[c - n] == pytest.approx(1.0, abs=1e-12)

    def test_no_self_loops_and_symmetric(self, tiny_dataset):
        adj = normalize_bipartite(tiny_dataset)
        assert adj.diagonal().sum() == 0
        assert check_graph(adj, adj.shape[0]) is adj  # sorted rows: not copied


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

    @staticmethod
    def write_raw(path, indptr, indices, values, shape, meta=None):
        """A graph file with a valid checksum around arbitrary CSR arrays."""
        store.save(path, store.ArrayFile(
            {"kind": "graph", "shape": list(shape)} if meta is None else meta,
            {"indptr": np.asarray(indptr, np.int64), "indices": np.asarray(indices, np.int64),
             "data": np.asarray(values, np.float64)}))

    def test_file_ends_in_a_crc32_of_the_rest(self, tmp_path, tiny_dataset):
        path = tmp_path / "adj.graph"
        save_graph(path, normalize_bipartite(tiny_dataset))
        raw = path.read_bytes()
        assert struct.unpack("<I", raw[-4:])[0] == zlib.crc32(raw[:-4])
        assert struct.unpack_from("<I", raw, 4)[0] == 2

    def test_every_flipped_bit_is_data_error(self, tmp_path, tiny_dataset):
        path = tmp_path / "adj.graph"
        save_graph(path, normalize_bipartite(tiny_dataset))
        good = path.read_bytes()
        for offset in range(len(good)):
            raw = bytearray(good)
            raw[offset] ^= 1 << (offset % 8)
            path.write_bytes(bytes(raw))
            with pytest.raises(DataError):
                load_graph(path)

    def test_old_format_asks_for_prepare(self, tmp_path):
        path = tmp_path / "old.graph"
        path.write_bytes(old_graph_bytes([0, 1, 1], [1], [1.0], (2, 2)))
        with pytest.raises(DataError, match="not a graph file; re-run `crossfuse prepare`"):
            load_graph(path)

    def test_layout(self, tmp_path):
        """The meta names the kind and shape; offsets and indices are int64
        whatever scipy stores them as."""
        mat = sp.csr_matrix(np.array([[0.0, 2.0, 0.0], [1.0, 0.0, 3.0]]))
        assert mat.indptr.dtype == np.int32
        path = tmp_path / "g.graph"
        save_graph(path, mat)
        doc = store.load(path, "graph")
        assert doc.meta == {"kind": "graph", "shape": [2, 3]}
        assert doc.arrays["indptr"].tolist() == [0, 1, 3]
        assert doc.arrays["indices"].tolist() == [1, 0, 2]
        assert doc.arrays["data"].tolist() == [2.0, 1.0, 3.0]
        assert [doc.arrays[k].dtype for k in ("indptr", "indices", "data")] == [
            np.int64, np.int64, np.float64]

    @pytest.mark.parametrize("meta", [
        {"kind": "stage2", "shape": [2, 3]},
        {"shape": [2, 3]},
        {"kind": "graph"},
        {"kind": "graph", "shape": [2]},
        {"kind": "graph", "shape": [2, -3]},
        {"kind": "graph", "shape": [2.0, 3]},
        {"kind": "graph", "shape": "2x3"},
    ], ids=["other-kind", "no-kind", "no-shape", "short-shape", "negative", "float",
            "string"])
    def test_meta_without_a_graph_shape_is_not_a_graph(self, tmp_path, meta):
        path = tmp_path / "bad.graph"
        self.write_raw(path, [0, 1, 2], [0, 1], [1.0, 1.0], (2, 3), meta=meta)
        with pytest.raises(DataError, match="not a graph file; re-run `crossfuse prepare`"):
            load_graph(path)

    @pytest.mark.parametrize("arrays", [
        {"indptr": [0, 1, 2], "indices": [0, 1]},
        {"indptr": [0, 1, 2], "indices": [0, 1], "data": [1.0, 1.0], "extra": [0]},
    ], ids=["missing", "extra"])
    def test_other_array_names_are_not_a_graph(self, tmp_path, arrays):
        path = tmp_path / "bad.graph"
        store.save(path, store.ArrayFile({"kind": "graph", "shape": [2, 3]},
                                         {k: np.asarray(v) for k, v in arrays.items()}))
        with pytest.raises(DataError, match="not a graph file"):
            load_graph(path)

    @pytest.mark.parametrize("indptr, indices, values", [
        ([0, 1], [0], [1.0]),
        ([0, 1, 2, 2], [0, 1], [1.0, 1.0]),
        ([0, 1, 2], [0, 1], [1.0]),
        ([0, 1, 2], [[0, 1]], [[1.0, 1.0]]),
        ([0.0, 1.0, 2.0], [0, 1], [1.0, 1.0]),
        ([0, 1, 2], [0.0, 1.0], [1.0, 1.0]),
        ([0, 1, 2], [0, 1], [1, 1]),
    ], ids=["short-offsets", "long-offsets", "short-values", "two-d", "float-offsets",
            "float-indices", "int-values"])
    def test_arrays_that_do_not_fit_the_shape_are_data_error(self, tmp_path, indptr,
                                                              indices, values):
        path = tmp_path / "bad.graph"
        store.save(path, store.ArrayFile(
            {"kind": "graph", "shape": [2, 3]},
            {"indptr": np.asarray(indptr), "indices": np.asarray(indices),
             "data": np.asarray(values)}))
        with pytest.raises(DataError, match="do not fit a 2x3 matrix"):
            load_graph(path)

    @pytest.mark.parametrize("indptr, indices, values, match", [
        ([1, 1, 2], [0, 1], [1.0, 1.0], "row offsets"),
        ([0, 2, 1, 3], [0, 1, 2], [1.0, 1.0, 1.0], "row offsets"),
        ([0, 1, 1], [0, 1], [1.0, 1.0], "row offsets"),
        ([0, 1, 2], [0, 16777221], [1.0, 1.0], "column index"),
        ([0, 1, 2], [0, -1], [1.0, 1.0], "column index"),
        ([0, 2, 2], [1, 0], [1.0, 1.0], "unsorted"),
        ([0, 1, 2], [0, 1], [1.0, np.nan], "non-finite"),
        ([0, 1, 2], [0, 1], [1.0, 0.0], "explicit zeros"),
    ], ids=["first-offset", "decreasing", "last-offset", "index-high", "index-negative",
            "unsorted", "nan", "zero"])
    def test_checksummed_bad_structure_is_data_error(self, tmp_path, indptr, indices,
                                                     values, match):
        path = tmp_path / "bad.graph"
        self.write_raw(path, indptr, indices, values, (len(indptr) - 1, 3))
        with pytest.raises(DataError, match=match):
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
