import struct
import zlib

import numpy as np
import pytest

from crossfuse.data import InteractionDataset


@pytest.fixture
def tiny_dataset() -> InteractionDataset:
    """6 users x 8 items, every user and item covered, all train."""
    users = [0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 5]
    items = [0, 1, 2, 1, 3, 2, 4, 5, 6, 0, 7, 3, 5, 7]
    return InteractionDataset(
        n=6, m=8,
        users=np.array(users), items=np.array(items),
        ratings=np.ones(len(users)),
        split=np.zeros(len(users), dtype=np.int8),
    )


def old_graph_bytes(indptr, indices, values, shape) -> bytes:
    """A graph file in the retired CFGB layout (version 2): magic, version,
    rows, cols and nnz, the little-endian offsets, indices and values, then a
    CRC32."""
    body = (b"CFGB" + struct.pack("<I", 2)
            + struct.pack("<QQQ", shape[0], shape[1], len(indices))
            + np.asarray(indptr, "<i8").tobytes() + np.asarray(indices, "<i8").tobytes()
            + np.asarray(values, "<f8").tobytes())
    return body + struct.pack("<I", zlib.crc32(body))


def make_random_dataset(seed: int, n: int = 8, m: int = 12,
                        lo: int = 2, hi: int = 5) -> InteractionDataset:
    rng = np.random.default_rng(seed)
    users, items = [], []
    seen = set()
    for u in range(n):
        for i in rng.choice(m, size=int(rng.integers(lo, hi)), replace=False):
            users.append(u)
            items.append(int(i))
            seen.add((u, int(i)))
    for i in range(m):
        if i not in set(items):
            u = int(rng.integers(0, n))
            if (u, i) not in seen:
                users.append(u)
                items.append(i)
    return InteractionDataset(n=n, m=m, users=np.array(users), items=np.array(items),
                              ratings=np.ones(len(users)),
                              split=np.zeros(len(users), dtype=np.int8))


def split_truth(ds: InteractionDataset, tag: int) -> dict[int, set[int]]:
    """Each user's items in one split as a set, keyed by user in ascending
    order: the mapping form of ``ds.split_csr(tag)`` that
    ``evaluate.ranking_metrics`` takes."""
    indptr, indices = ds.split_csr(tag)
    return {u: set(indices[indptr[u]:indptr[u + 1]].tolist())
            for u in np.flatnonzero(np.diff(indptr)).tolist()}
