import numpy as np
import pytest
import scipy.sparse as sp

from conftest import make_random_dataset
from crossfuse import auxnet, backbone, fusion, optim
from crossfuse.backbone import BackboneConfig, LightGCN, init_embeddings
from crossfuse.graph import normalize_bipartite
from crossfuse.optim import Param, scatter_rows


def indicator(index: np.ndarray, size: int) -> sp.csr_matrix:
    """(size, len(index)) 0/1 matrix whose product with a (len(index), d)
    array sums the rows sharing an index, adding them in their original order
    exactly as numpy's unbuffered ``add.at`` does; rows no index names come
    out zero.  The reference ``scatter_rows`` must match bit for bit."""
    order = np.argsort(index, kind="stable")
    indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(index, minlength=size), out=indptr[1:])
    return sp.csr_matrix((np.ones(len(index)), order, indptr), shape=(size, len(index)))


def _values(rows: int, cols: int, seed: int = 0) -> np.ndarray:
    """Random rows with a few exact -0.0 rows and -0.0 entries mixed in."""
    out = np.random.default_rng(seed).normal(size=(rows, cols))
    out[::5] = -0.0
    out[1::7, 0] = -0.0
    return out


SCATTER_CASES = {
    "repeated": (np.array([3, 1, 3, 0, 3, 1]), 5, 1),
    "repeated-wide": (np.array([3, 1, 3, 0, 3, 1]), 5, 64),
    "unnamed-rows": (np.array([7, 7, 2]), 12, 4),
    "empty": (np.array([], dtype=np.int64), 4, 3),
    "one-row": (np.array([0, 0, 0, 0]), 1, 2),
    "batch": (np.random.default_rng(1).integers(0, 200, size=1024), 200, 16),
}


class TestScatterRows:
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("case", sorted(SCATTER_CASES))
    def test_bytes_equal_indicator_product(self, case, dtype):
        index, size, cols = SCATTER_CASES[case]
        index = index.astype(dtype)
        values = _values(len(index), cols)
        want = indicator(index, size) @ values
        got = scatter_rows(index, size, values)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_negative_zero_rows_sum_to_positive_zero(self):
        got = scatter_rows(np.array([1, 1]), 3, np.full((2, 2), -0.0))
        assert not np.signbit(got).any()

    def test_rows_add_in_ascending_batch_order(self):
        # 1e16 + 1 + 1 is 1e16 in that order and 1e16 + 2 with the ones first
        values = np.array([[1e16], [1.0], [1.0]])
        assert scatter_rows(np.array([0, 0, 0]), 1, values)[0, 0] == 1e16
        assert scatter_rows(np.array([0, 0, 0]), 1, values[::-1])[0, 0] == 1e16 + 2

    @pytest.mark.parametrize("index", [[0, -1, 2], [0, 4, 1], [5]])
    def test_index_outside_rows_raises(self, index):
        with pytest.raises(ValueError):
            scatter_rows(np.array(index), 4, np.ones((len(index), 2)))

    def test_values_must_match_index(self):
        with pytest.raises(ValueError):
            scatter_rows(np.array([0, 1]), 3, np.ones((3, 2)))


STAGE2_CONFIGS = [("cross", "bpr"), ("cross", "mse"), ("none", "bpr"), ("none", "mse"),
                  ("concat", "bpr"), ("plain-sum", "bpr"), ("weighted-sum", "bpr")]


class _NoMatrices:
    """``scipy.sparse`` with its matrix and array constructors refused."""

    def __getattr__(self, name):
        if name.endswith(("_matrix", "_array")):
            raise AssertionError(f"a per-batch path built a sparse matrix ({name})")
        return getattr(sp, name)


@pytest.fixture
def no_matrix(monkeypatch):
    """Refuse sparse construction through every training module's ``sp``: a
    per-batch loss or backward pass that builds a scatter matrix again fails
    the test."""
    for module in (optim, auxnet, backbone, fusion):
        if hasattr(module, "sp"):
            monkeypatch.setattr(module, "sp", _NoMatrices())


class TestHotPathBuildsNoMatrix:
    @pytest.mark.parametrize("variant, graph_loss", STAGE2_CONFIGS)
    def test_stage2_step(self, request, variant, graph_loss):
        ds = make_random_dataset(0, n=10, m=14)
        rng = np.random.default_rng(0)
        model = LightGCN(normalize_bipartite(ds), ds.n, BackboneConfig(dim=4, num_layers=2))
        table = init_embeddings(ds.n + ds.m, 4, seed=0)
        a_u, a_v = rng.normal(size=(ds.n, 4)), rng.normal(size=(ds.m, 4))
        cfg = fusion.FusionConfig(variant=variant, lambda1=0.5, lambda2=0.5,
                                  graph_loss=graph_loss)
        w_params = ([Param(np.eye(4)) for _ in range(4)]
                    if variant == "weighted-sum" else None)
        u, i = ds.users[:6], ds.items[:6]
        third = np.ones(6) if cfg.rated else (i + 1) % ds.m
        batch = (u, i, third)
        request.getfixturevalue("no_matrix")
        loss = fusion.fused_objective_grad(model, table, a_u, a_v, batch, cfg, w_params)
        assert np.isfinite(loss) and table.grad.any()

    def test_stage1_loss_and_grad(self, request):
        rng = np.random.default_rng(0)
        nets, classes = [], []
        for rows, name in ((6, "u"), (8, "v")):
            x = rng.integers(0, 2, size=(rows, 5)).astype(float)
            sim = sp.identity(rows, format="csr")
            nets.append(auxnet.build_extractor(5, 3, [4], 1, rng, name=name))
            classes.append(auxnet.node_classes(x, sim))
        request.getfixturevalue("no_matrix")
        batch = (np.array([0, 2, 0]), np.array([1, 3, 7]), np.array([1.0, 0.0, 1.0]))
        loss = auxnet.stage1_loss_and_grad(*nets, *classes, batch)
        assert np.isfinite(loss)
