"""Interaction-log and attribute-table ingestion.

Turns delimited interaction logs into a re-indexed dataset with per-user
train/validation/test splits, builds concatenated one-hot attribute matrices
(with blank tokens for missing values), and draws negative items for ranking
losses.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

log = logging.getLogger(__name__)

TRAIN, VALIDATION, TEST = 0, 1, 2


class DataError(Exception):
    """Unreadable, malformed, or internally inconsistent input data."""


@dataclass
class DataConfig:
    """Column layout of a delimited interaction log and the split ratios.

    Columns are zero-based indices; further columns are ignored.
    ``rating_column`` may be None for implicit logs (every observed pair then
    gets rating 1).  ``delimiter`` None sniffs tab vs comma from the first
    line.  A first line whose rating column is not a number is a header and is
    skipped.  An implicit log gets no header detection, since no rule tells a
    header from string ids: its header line would load as one more user and
    item, so remove it first.
    """

    user_column: int = 0
    item_column: int = 1
    rating_column: int | None = 2
    delimiter: str | None = None
    train_ratio: float = 0.72
    validation_ratio: float = 0.08
    test_ratio: float = 0.20

    @property
    def ratios(self) -> tuple[float, float, float]:
        return (self.train_ratio, self.validation_ratio, self.test_ratio)

    def validate(self) -> None:
        for key in ("user_column", "item_column", "rating_column"):
            column = getattr(self, key)
            if column is not None and column < 0:
                raise ValueError(f"{key} must be >= 0, got {column}")
        check_split_ratios(self.ratios)


class InteractionDataset:
    """Re-indexed user-item interactions with split tags and train adjacency.

    Users and items are contiguous integers; the original raw identifiers are
    kept in ``user_ids`` / ``item_ids`` so results can be reported against the
    source log.  Each split's items per user (``split_csr``) and the train
    split's per-user item sets are built on first use.
    """

    def __init__(self, n: int, m: int, users: np.ndarray, items: np.ndarray,
                 ratings: np.ndarray, split: np.ndarray,
                 user_ids: Sequence[str] | None = None,
                 item_ids: Sequence[str] | None = None):
        self.n = int(n)
        self.m = int(m)
        self.users = np.asarray(users, dtype=np.int64)
        self.items = np.asarray(items, dtype=np.int64)
        self.ratings = np.asarray(ratings, dtype=np.float64)
        self.split = np.asarray(split, dtype=np.int8)
        self.user_ids = list(user_ids) if user_ids is not None else [str(u) for u in range(self.n)]
        self.item_ids = list(item_ids) if item_ids is not None else [str(i) for i in range(self.m)]
        self._csr: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._sets: list[frozenset] | None = None
        self.validate()

    # -- basic views ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.users)

    @property
    def implicit(self) -> bool:
        """True when every stored rating equals 1 (presence-only feedback)."""
        return bool(np.all(self.ratings == 1.0))

    def split_indices(self, tag: int) -> np.ndarray:
        return np.flatnonzero(self.split == tag)

    # -- per-split adjacency -------------------------------------------

    def split_csr(self, tag: int) -> tuple[np.ndarray, np.ndarray]:
        """One split as read-only CSR: ``indices[indptr[u]:indptr[u + 1]]``
        are user u's items in that split, sorted.  Built on first use."""
        if tag not in self._csr:
            at = self.split_indices(tag)
            users = self.users[at]
            # a validated split repeats no pair, so sorting the pair keys
            # orders items within each user exactly as a (user, item) lexsort
            indices = np.sort(users * self.m + self.items[at]) % self.m
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(np.bincount(users, minlength=self.n), out=indptr[1:])
            indptr.flags.writeable = False
            indices.flags.writeable = False
            self._csr[tag] = (indptr, indices)
        return self._csr[tag]

    def train_items(self, u: int) -> np.ndarray:
        """Sorted train-split items of user u, as a read-only view."""
        indptr, indices = self.split_csr(TRAIN)
        return indices[indptr[u]:indptr[u + 1]]

    def _train_sets(self) -> list[frozenset]:
        """Each user's train items as a set, built on first use: only the
        negative sampler needs them."""
        if self._sets is None:
            indptr, indices = self.split_csr(TRAIN)
            flat, bounds = indices.tolist(), indptr.tolist()
            self._sets = [frozenset(flat[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
        return self._sets

    def train_item_set(self, u: int) -> frozenset:
        return self._train_sets()[u]

    # -- consistency ----------------------------------------------------

    def validate(self) -> None:
        t = len(self.users)
        if not (len(self.items) == len(self.ratings) == len(self.split) == t):
            raise DataError("triplet arrays have mismatched lengths")
        if t == 0:
            raise DataError("dataset has zero triplets")
        if self.users.min() < 0 or self.users.max() >= self.n:
            raise DataError("user index out of range")
        if self.items.min() < 0 or self.items.max() >= self.m:
            raise DataError("item index out of range")
        if not np.all(np.isfinite(self.ratings)):
            raise DataError("non-finite rating value")
        # plain np.unique hashes (numpy >= 2.3); a sort is much faster here
        key = np.sort((self.split.astype(np.int64) * self.n + self.users) * self.m + self.items)
        if np.any(key[1:] == key[:-1]):
            raise DataError("duplicate (user, item) pair within a split")

    def with_split(self, split: np.ndarray) -> "InteractionDataset":
        return InteractionDataset(self.n, self.m, self.users, self.items, self.ratings,
                                  split, self.user_ids, self.item_ids)


def _sniff_delimiter(line: str) -> str:
    return "\t" if "\t" in line else ","


def _is_float(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def load_interactions(path: str | Path, cfg: DataConfig | None = None) -> InteractionDataset:
    """Parse a delimited interaction log into a re-indexed dataset.

    Raw user/item identifiers are mapped to contiguous indices in first
    appearance order, duplicate rows included.  Of a repeated (user, item)
    pair only the first row is kept, with its rating; one warning gives the
    number of rows dropped.  All triplets start in the train split; use
    :func:`split_dataset` to assign validation/test tags.
    """
    cfg = cfg or DataConfig()
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read interaction file {path}: {exc}") from exc

    lines = text.splitlines()
    delim = cfg.delimiter or _sniff_delimiter(lines[0] if lines else ",")

    c_user, c_item, c_rating = cfg.user_column, cfg.item_column, cfg.rating_column
    start = 0
    if lines and c_rating is not None:
        first = lines[0].split(delim)
        start = int(len(first) > c_rating and not _is_float(first[c_rating].strip()))

    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    users, items, ratings = [], [], []
    width = max(c for c in (c_user, c_item, c_rating) if c is not None) + 1

    for lineno in range(start, len(lines)):
        line = lines[lineno].strip()
        if not line:
            continue
        parts = line.split(delim)
        if len(parts) < width:
            raise DataError(f"{path}:{lineno + 1}: expected at least {width} columns, got {len(parts)}")
        raw_u = parts[c_user].strip()
        raw_i = parts[c_item].strip()
        r = 1.0
        if c_rating is not None:
            r_text = parts[c_rating].strip()
            try:
                r = float(r_text)
            except ValueError:
                raise DataError(f"{path}:{lineno + 1}: bad rating value {r_text!r}") from None
        users.append(user_index.setdefault(raw_u, len(user_index)))
        items.append(item_index.setdefault(raw_i, len(item_index)))
        ratings.append(r)

    if not users:
        raise DataError(f"{path}: no interaction rows")
    users = np.array(users, dtype=np.int64)
    items = np.array(items, dtype=np.int64)
    ratings = np.array(ratings, dtype=np.float64)
    # a stable sort of the pair keys puts each pair's rows in file order, so
    # the first row of each run of equal keys is the pair's first row
    key = users * len(item_index) + items
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    dropped = len(key) - int(np.count_nonzero(first))
    if dropped:
        log.warning("%s: dropped %d duplicate (user, item) rows", path, dropped)
        keep = np.sort(order[first])
        users, items, ratings = users[keep], items[keep], ratings[keep]

    return InteractionDataset(
        n=len(user_index), m=len(item_index),
        users=users, items=items, ratings=ratings,
        split=np.zeros(len(users), dtype=np.int8),
        user_ids=list(user_index), item_ids=list(item_index),
    )


def write_remap_table(path: str | Path, raw_ids: Sequence[str]) -> None:
    """Persist the raw-id to internal-index mapping as tab-separated text."""
    with open(path, "w", encoding="utf-8") as fh:
        for idx, raw in enumerate(raw_ids):
            fh.write(f"{raw}\t{idx}\n")


# ---------------------------------------------------------------------------
# Attribute encoding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttributeField:
    """One categorical attribute inside a concatenated one-hot encoding.

    The field owns ``len(categories) + 1`` consecutive slots starting at
    ``offset``; the extra slot is the blank token used for missing values.
    """

    name: str
    categories: tuple[str, ...]
    offset: int

    @property
    def cardinality(self) -> int:
        return len(self.categories) + 1

    @property
    def blank_index(self) -> int:
        return self.offset + len(self.categories)


@dataclass
class AuxFeatureMatrix:
    """Binary node-by-feature matrix built from concatenated one-hot fields."""

    rows: int
    dim: int
    values: np.ndarray
    fields: list[AttributeField] = field(default_factory=list)

    def validate(self) -> None:
        if self.values.shape != (self.rows, self.dim):
            raise DataError("feature matrix shape mismatch")
        if self.dim != sum(f.cardinality for f in self.fields):
            raise DataError("feature width does not match field cardinalities")
        ones = self.values.sum(axis=1)
        if not np.all(ones == len(self.fields)):
            raise DataError("every row must have exactly one slot set per field")


def make_fields(names: Sequence[str], categories: Sequence[Sequence[str]]) -> list[AttributeField]:
    """Build field descriptors with consecutive offsets."""
    fields = []
    offset = 0
    for name, cats in zip(names, categories):
        f = AttributeField(name=name, categories=tuple(cats), offset=offset)
        fields.append(f)
        offset += f.cardinality
    return fields


def one_hot_matrix(labels: np.ndarray, fields: list[AttributeField]) -> AuxFeatureMatrix:
    """Encode per-node category slots (rows x fields of slot values, -1 = blank)."""
    labels = np.asarray(labels).astype(np.int64)
    rows = labels.shape[0]
    dim = sum(f.cardinality for f in fields)
    offsets = np.array([f.offset for f in fields], dtype=np.int64)
    blanks = np.array([f.blank_index for f in fields], dtype=np.int64)
    values = np.zeros((rows, dim))
    values[np.arange(rows)[:, None], np.where(labels < 0, blanks, offsets + labels)] = 1.0
    mat = AuxFeatureMatrix(rows=rows, dim=dim, values=values, fields=list(fields))
    mat.validate()
    return mat


def encode_auxiliary(path: str | Path, ids: Sequence[str],
                     delimiter: str | None = None) -> AuxFeatureMatrix:
    """Encode a delimited attribute table into a concatenated one-hot matrix
    with one row per entry of ``ids``, the dataset's raw node ids in index
    order.

    The first column is a raw node id from the interaction log; remaining
    columns are categorical values and an empty cell means missing.  The
    categories are inferred from the file (sorted lexicographically) and the
    fields are named ``field_1``, ``field_2``, ...  Nodes without a row get
    the blank token in every field.  An id not in ``ids``, a second row for
    one node, or a file without attribute columns is a :class:`DataError`.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read attribute file {path}: {exc}") from exc

    lines = text.splitlines()
    delim = delimiter or _sniff_delimiter(lines[0] if lines else ",")
    id_map = {raw: idx for idx, raw in enumerate(ids)}

    rows: dict[int, list[str]] = {}
    width = None
    for lineno, line in enumerate(lines):
        if not line.strip():
            continue
        parts = [p.strip() for p in line.split(delim)]
        raw = parts[0]
        if raw not in id_map:
            raise DataError(f"{path}:{lineno + 1}: node id {raw!r} not present in the dataset")
        node = id_map[raw]
        if node in rows:
            raise DataError(f"{path}:{lineno + 1}: duplicate row for node {raw!r}")
        vals = parts[1:]
        rows[node] = vals
        width = max(width or 0, len(vals))

    if width is None:
        raise DataError(f"{path}: no attribute rows")
    if width == 0:
        raise DataError(f"{path}: no attribute columns (each row holds only a node id)")

    distinct = [sorted({vals[j] for vals in rows.values() if j < len(vals) and vals[j]})
                for j in range(width)]
    fields = make_fields([f"field_{j + 1}" for j in range(width)], distinct)

    index = [{c: k for k, c in enumerate(f.categories)} for f in fields]
    labels = np.full((len(ids), width), -1, dtype=np.int64)
    for node, vals in rows.items():
        labels[node, :len(vals)] = [slots[v] if v else -1 for slots, v in zip(index, vals)]
    return one_hot_matrix(labels, fields)


# ---------------------------------------------------------------------------
# Splitting and negative sampling
# ---------------------------------------------------------------------------

def _split_counts(total: int, ratios: np.ndarray) -> np.ndarray:
    """Largest-remainder apportionment; ties resolved toward earlier splits."""
    exact = ratios * total
    base = np.floor(exact).astype(np.int64)
    short = total - base.sum()
    order = np.lexsort((np.arange(len(ratios)), -(exact - base)))
    for k in range(int(short)):
        base[order[k]] += 1
    return base


def check_split_ratios(ratios) -> np.ndarray:
    """(train, validation, test) as an array: finite, non-negative, summing to 1."""
    ratios_arr = np.asarray(ratios, dtype=np.float64)
    if ratios_arr.shape != (3,) or not np.all(np.isfinite(ratios_arr) & (ratios_arr >= 0)):
        raise ValueError("ratios must be three finite non-negative numbers")
    if abs(ratios_arr.sum() - 1.0) > 1e-9:
        raise ValueError("ratios must sum to 1")
    if ratios_arr[0] <= 0:
        raise ValueError("train ratio must be positive")
    return ratios_arr


def split_dataset(ds: InteractionDataset, ratios: tuple[float, float, float],
                  seed: int) -> InteractionDataset:
    """Assign each user's triplets to train/validation/test at the given ratios.

    Assignment is per user so every user keeps train interactions for
    embedding learning.  A user with fewer triplets than requested splits
    keeps everything in train (logged, not an error).  Deterministic for a
    fixed seed.
    """
    ratios_arr = check_split_ratios(ratios)
    rng = np.random.default_rng(seed)
    split = np.zeros(len(ds), dtype=np.int8)
    n_splits = int(np.count_nonzero(ratios_arr))
    short_users = 0

    # each user's interaction indices, ascending, as one slice of a stable sort
    order = np.argsort(ds.users, kind="stable")
    bounds = np.zeros(ds.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ds.users, minlength=ds.n), out=bounds[1:])
    bounds = bounds.tolist()

    cuts: dict[int, tuple[int, int]] = {}  # per-user count -> (train end, validation end)
    for u in range(ds.n):
        count = bounds[u + 1] - bounds[u]
        if count == 0:
            continue
        if count < n_splits:
            short_users += 1
            continue
        perm = order[bounds[u]:bounds[u + 1]][rng.permutation(count)]
        if count not in cuts:
            counts = _split_counts(count, ratios_arr)
            cuts[count] = (int(counts[0]), int(counts[0] + counts[1]))
        a, b = cuts[count]
        split[perm[a:b]] = VALIDATION
        split[perm[b:]] = TEST

    if short_users:
        log.warning("%d users had fewer triplets than splits; kept entirely in train", short_users)
    return ds.with_split(split)


def _replay(rng: np.random.Generator, state: dict, m: int, count: int) -> None:
    """Put ``rng`` where ``count`` scalar ``integers(0, m)`` calls from ``state``
    would leave it; one ``size=count`` call consumes the stream identically."""
    rng.bit_generator.state = state
    rng.integers(0, m, size=count)


def sample_negatives(ds: InteractionDataset, users: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
    """One uniform unseen train item for each listed user, in order.

    Per user: up to 64 rejection draws of ``rng.integers(0, m)``, then a
    uniform choice from the exact complement of the user's train items.  The
    draws are taken in blocks from a snapshot of ``rng`` and the stream is
    replayed to the number actually used, so the result and the final state
    of ``rng`` are exactly those of drawing row by row.  A user who has every
    item in train raises :class:`DataError`.
    """
    users = np.asarray(users, dtype=np.int64).tolist()
    m = ds.m
    item_sets = ds._train_sets()
    # Room for rejections (about 7% of draws on the desk data), so one block
    # usually covers the batch; a short block is topped up, never redrawn.
    slack = len(users) // 8 + 16
    start = rng.bit_generator.state
    block = rng.integers(0, m, size=len(users) + slack).tolist()
    used = 0
    out = []
    for k, u in enumerate(users):
        pos = item_sets[u]
        if len(pos) >= m:
            _replay(rng, start, m, used)
            raise DataError(f"user {u} has interacted with every item; "
                            f"no negative can be sampled")
        tries = 0
        while True:
            if used == len(block):
                block += rng.integers(0, m, size=len(users) - k + slack).tolist()
            i = block[used]
            used += 1
            if i not in pos:
                break
            tries += 1
            if tries == 64:
                _replay(rng, start, m, used)
                i = int(rng.choice(np.setdiff1d(np.arange(m), ds.train_items(u))))
                start = rng.bit_generator.state
                block = rng.integers(0, m, size=len(users) - k - 1 + slack).tolist()
                used = 0
                break
        out.append(i)
    _replay(rng, start, m, used)
    return np.array(out, dtype=np.int64)
