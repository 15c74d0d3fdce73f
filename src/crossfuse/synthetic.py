"""Category-driven synthetic data for desk-scale experiments.

A small latent-category world: each user prefers one category, each item
belongs to one, and interactions concentrate inside the preferred category.
User and item attribute tables expose (noisy) category labels, so attribute
features genuinely carry ranking signal and fusion has something to gain.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import AuxFeatureMatrix, InteractionDataset, make_fields, one_hot_matrix


@dataclass
class SyntheticData:
    dataset: InteractionDataset
    user_features: AuxFeatureMatrix
    item_features: AuxFeatureMatrix
    item_categories: dict[int, list[int]]
    num_categories: int
    user_category: np.ndarray
    item_category: np.ndarray


def generate(num_users: int = 200, num_items: int = 300, num_categories: int = 5,
             seed: int = 0, interactions_per_user: tuple[int, int] = (15, 30),
             affinity: float = 0.8, attribute_noise: float = 0.1) -> SyntheticData:
    """Build an implicit-feedback dataset whose structure follows categories.

    Each interaction picks an item from the user's preferred category with
    probability ``affinity``, otherwise uniformly.  Attribute labels equal the
    latent category except for an ``attribute_noise`` fraction of users.
    All triplets start in the train split.
    """
    rng = np.random.default_rng(seed)
    user_cat = rng.integers(0, num_categories, size=num_users)
    item_cat = np.arange(num_items) % num_categories  # every category populated
    rng.shuffle(item_cat)
    by_cat = [np.flatnonzero(item_cat == c) for c in range(num_categories)]

    users, items = [], []
    for u in range(num_users):
        want = int(rng.integers(interactions_per_user[0], interactions_per_user[1] + 1))
        chosen: set[int] = set()
        attempts = 0
        while len(chosen) < want and attempts < 50 * want:
            attempts += 1
            if rng.random() < affinity:
                i = int(rng.choice(by_cat[user_cat[u]]))
            else:
                i = int(rng.integers(0, num_items))
            chosen.add(i)
        for i in sorted(chosen):
            users.append(u)
            items.append(i)

    users = np.array(users)
    items = np.array(items)
    ds = InteractionDataset(num_users, num_items, users, items,
                            np.ones(len(users)), np.zeros(len(users), dtype=np.int8))

    user_label = user_cat.copy()
    flip = rng.random(num_users) < attribute_noise
    user_label[flip] = rng.integers(0, num_categories, size=int(flip.sum()))

    cat_names = [str(c) for c in range(num_categories)]
    user_fields = make_fields(["group"], [cat_names])
    item_fields = make_fields(["kind"], [cat_names])
    user_features = one_hot_matrix(user_label.reshape(-1, 1), user_fields)
    item_features = one_hot_matrix(item_cat.reshape(-1, 1), item_fields)

    return SyntheticData(
        dataset=ds,
        user_features=user_features,
        item_features=item_features,
        item_categories={int(i): [int(item_cat[i])] for i in range(num_items)},
        num_categories=num_categories,
        user_category=user_cat,
        item_category=item_cat,
    )


def random_dataset(rng: np.random.Generator, n: int, m: int, lo: int,
                   hi: int) -> InteractionDataset:
    """A small all-train implicit dataset with every user and item covered:
    each user in turn rates ``rng.integers(lo, hi)`` distinct uniform items,
    then each item still unrated, in item order, goes to one uniform user."""
    users, items = [], []
    for u in range(n):
        picked = rng.choice(m, size=int(rng.integers(lo, hi)), replace=False).tolist()
        users += [u] * len(picked)
        items += picked
    for i in sorted(set(range(m)) - set(items)):
        users.append(int(rng.integers(0, n)))
        items.append(i)
    return InteractionDataset(n, m, np.array(users), np.array(items), np.ones(len(users)),
                              np.zeros(len(users), dtype=np.int8))


def write_files(data: SyntheticData, out_dir: str | Path) -> dict[str, Path]:
    """Write the delimited interaction and attribute files the CLI ingests."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "interactions": out / "interactions.tsv",
        "user_attributes": out / "user_attributes.tsv",
        "item_attributes": out / "item_attributes.tsv",
    }
    ds = data.dataset
    with open(paths["interactions"], "w", encoding="utf-8") as fh:
        for u, i, r in zip(ds.users, ds.items, ds.ratings):
            fh.write(f"u{u}\ti{i}\t{r}\n")
    with open(paths["user_attributes"], "w", encoding="utf-8") as fh:
        for u in range(ds.n):
            label = int(np.argmax(data.user_features.values[u]))
            fh.write(f"u{u}\t{data.user_features.fields[0].categories[label]}\n")
    with open(paths["item_attributes"], "w", encoding="utf-8") as fh:
        for i in range(ds.m):
            fh.write(f"i{i}\t{data.item_category[i]}\n")
    return paths
