import numpy as np

from crossfuse import synthetic
from crossfuse.data import load_interactions, encode_auxiliary


def test_generation_shape_and_coverage():
    data = synthetic.generate(num_users=50, num_items=80, num_categories=4, seed=0)
    ds = data.dataset
    assert ds.n == 50
    assert ds.m == 80
    assert ds.implicit
    assert set(data.item_category.tolist()) == {0, 1, 2, 3}
    assert data.user_features.values.shape == (50, 5)  # 4 categories + blank
    assert data.item_features.values.shape == (80, 5)


def test_deterministic_per_seed():
    a = synthetic.generate(num_users=30, num_items=40, seed=7)
    b = synthetic.generate(num_users=30, num_items=40, seed=7)
    assert np.array_equal(a.dataset.users, b.dataset.users)
    assert np.array_equal(a.dataset.items, b.dataset.items)
    assert np.array_equal(a.user_features.values, b.user_features.values)


def test_interactions_concentrate_in_preferred_category():
    data = synthetic.generate(num_users=100, num_items=150, num_categories=5,
                              seed=1, affinity=0.8)
    ds = data.dataset
    matches = sum(data.item_category[i] == data.user_category[u]
                  for u, i in zip(ds.users, ds.items))
    assert matches / len(ds) > 0.5  # far above the 0.2 chance rate


def test_written_files_load_back(tmp_path):
    data = synthetic.generate(num_users=20, num_items=30, num_categories=3, seed=2)
    paths = synthetic.write_files(data, tmp_path)
    ds = load_interactions(paths["interactions"])
    assert ds.n == 20
    assert ds.m == data.dataset.m or ds.m <= 30  # only interacted items appear
    feats = encode_auxiliary(paths["user_attributes"], ds.user_ids)
    assert feats.rows == ds.n
