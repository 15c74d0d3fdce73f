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
SPLIT_NAMES = ("train", "validation", "test")


class DataError(Exception):
    """Unreadable, malformed, or internally inconsistent input data."""


@dataclass
class InteractionSchema:
    """Column layout of a delimited interaction log.

    Columns may be referenced by zero-based index or, when the file has a
    header row, by name.  ``rating`` may be None for implicit logs (every
    observed pair then gets rating 1).  ``delimiter`` None sniffs tab vs
    comma from the first line; ``header`` None is auto-detected from the
    rating column when possible.
    """

    user: int | str = 0
    item: int | str = 1
    rating: int | str | None = 2
    timestamp: int | str | None = None
    delimiter: str | None = None
    header: bool | None = None


class InteractionDataset:
    """Re-indexed user-item interactions with split tags and train adjacency.

    Users and items are contiguous integers; the original raw identifiers are
    kept in ``user_ids`` / ``item_ids`` so results can be reported against the
    source log.  Adjacency lists cover the train split only.
    """

    def __init__(self, n: int, m: int, users: np.ndarray, items: np.ndarray,
                 ratings: np.ndarray, split: np.ndarray,
                 timestamps: np.ndarray | None = None,
                 user_ids: Sequence[str] | None = None,
                 item_ids: Sequence[str] | None = None):
        self.n = int(n)
        self.m = int(m)
        self.users = np.asarray(users, dtype=np.int64)
        self.items = np.asarray(items, dtype=np.int64)
        self.ratings = np.asarray(ratings, dtype=np.float64)
        self.split = np.asarray(split, dtype=np.int8)
        self.timestamps = None if timestamps is None else np.asarray(timestamps, dtype=np.float64)
        self.user_ids = list(user_ids) if user_ids is not None else [str(u) for u in range(self.n)]
        self.item_ids = list(item_ids) if item_ids is not None else [str(i) for i in range(self.m)]
        self._adjacency = None
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

    def triplets(self, tag: int | None = None) -> np.ndarray:
        """(t, 3) float array of (user, item, rating), optionally one split."""
        idx = slice(None) if tag is None else self.split_indices(tag)
        return np.column_stack([self.users[idx].astype(np.float64),
                                self.items[idx].astype(np.float64),
                                self.ratings[idx]])

    # -- train adjacency -----------------------------------------------

    def _ensure_adjacency(self):
        if self._adjacency is None:
            tr = self.split_indices(TRAIN)
            user_items: list[list[int]] = [[] for _ in range(self.n)]
            item_users: list[list[int]] = [[] for _ in range(self.m)]
            for u, i in zip(self.users[tr], self.items[tr]):
                user_items[u].append(int(i))
                item_users[i].append(int(u))
            ui = [np.array(sorted(s), dtype=np.int64) for s in user_items]
            iu = [np.array(sorted(s), dtype=np.int64) for s in item_users]
            sets = [frozenset(s) for s in user_items]
            self._adjacency = (ui, iu, sets)
        return self._adjacency

    def train_items(self, u: int) -> np.ndarray:
        """Sorted train-split items of user u."""
        return self._ensure_adjacency()[0][u]

    def train_users(self, i: int) -> np.ndarray:
        """Sorted train-split users of item i."""
        return self._ensure_adjacency()[1][i]

    def train_item_set(self, u: int) -> frozenset:
        return self._ensure_adjacency()[2][u]

    def user_degree(self, u: int) -> int:
        return len(self.train_items(u))

    def item_degree(self, i: int) -> int:
        return len(self.train_users(i))

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
        key = (self.split.astype(np.int64) * self.n + self.users) * self.m + self.items
        if len(np.unique(key)) != t:
            raise DataError("duplicate (user, item) pair within a split")

    def with_split(self, split: np.ndarray) -> "InteractionDataset":
        return InteractionDataset(self.n, self.m, self.users, self.items, self.ratings,
                                  split, self.timestamps, self.user_ids, self.item_ids)


def _sniff_delimiter(line: str) -> str:
    return "\t" if "\t" in line else ","


def _is_float(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def load_interactions(path: str | Path, schema: InteractionSchema | None = None) -> InteractionDataset:
    """Parse a delimited interaction log into a re-indexed dataset.

    Raw user/item identifiers are mapped to contiguous indices in first
    appearance order.  Exact duplicate (user, item) pairs after the first are
    dropped with a warning.  All triplets start in the train split; use
    :func:`split_dataset` to assign validation/test tags.
    """
    schema = schema or InteractionSchema()
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read interaction file {path}: {exc}") from exc

    lines = text.splitlines()
    delim = schema.delimiter or _sniff_delimiter(lines[0] if lines else ",")

    named = any(isinstance(c, str) for c in (schema.user, schema.item, schema.rating, schema.timestamp)
                if c is not None)
    header = schema.header
    if header is None:
        if named:
            header = True
        elif lines and isinstance(schema.rating, int):
            first = lines[0].split(delim)
            header = len(first) > schema.rating and not _is_float(first[schema.rating].strip())
        else:
            header = False

    start = 0
    columns: dict[str, int] = {}
    if header:
        if not lines:
            raise DataError(f"{path}: empty file")
        columns = {name.strip(): j for j, name in enumerate(lines[0].split(delim))}
        start = 1

    def col(ref, what):
        if ref is None:
            return None
        if isinstance(ref, int):
            return ref
        if ref not in columns:
            raise DataError(f"{path}: no column named {ref!r} for {what}")
        return columns[ref]

    c_user = col(schema.user, "user")
    c_item = col(schema.item, "item")
    c_rating = col(schema.rating, "rating")
    c_time = col(schema.timestamp, "timestamp")

    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    users, items, ratings, times = [], [], [], []
    seen: set[tuple[int, int]] = set()
    dropped = 0

    for lineno in range(start, len(lines)):
        line = lines[lineno].strip()
        if not line:
            continue
        parts = line.split(delim)
        width = max(x for x in (c_user, c_item, c_rating, c_time) if x is not None) + 1
        if len(parts) < width:
            raise DataError(f"{path}:{lineno + 1}: expected at least {width} columns, got {len(parts)}")
        raw_u = parts[c_user].strip()
        raw_i = parts[c_item].strip()
        if c_rating is not None:
            r_text = parts[c_rating].strip()
            if not _is_float(r_text):
                raise DataError(f"{path}:{lineno + 1}: bad rating value {r_text!r}")
            r = float(r_text)
        else:
            r = 1.0
        if c_time is not None:
            t_text = parts[c_time].strip()
            if not _is_float(t_text):
                raise DataError(f"{path}:{lineno + 1}: bad timestamp value {t_text!r}")
            ts = float(t_text)
        else:
            ts = None
        u = user_index.setdefault(raw_u, len(user_index))
        i = item_index.setdefault(raw_i, len(item_index))
        if (u, i) in seen:
            dropped += 1
            continue
        seen.add((u, i))
        users.append(u)
        items.append(i)
        ratings.append(r)
        if ts is not None:
            times.append(ts)

    if not users:
        raise DataError(f"{path}: no interaction rows")
    if dropped:
        log.warning("%s: dropped %d duplicate (user, item) rows", path, dropped)

    timestamps = np.array(times) if (c_time is not None and len(times) == len(users)) else None
    return InteractionDataset(
        n=len(user_index), m=len(item_index),
        users=np.array(users), items=np.array(items), ratings=np.array(ratings),
        split=np.zeros(len(users), dtype=np.int8),
        timestamps=timestamps,
        user_ids=list(user_index), item_ids=list(item_index),
    )


def write_remap_table(path: str | Path, raw_ids: Sequence[str], delimiter: str = "\t") -> None:
    """Persist the raw-id to internal-index mapping as two-column text."""
    with open(path, "w", encoding="utf-8") as fh:
        for idx, raw in enumerate(raw_ids):
            fh.write(f"{raw}{delimiter}{idx}\n")


def read_remap_table(path: str | Path, delimiter: str = "\t") -> dict[str, int]:
    out: dict[str, int] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        raw, idx = line.split(delimiter)
        out[raw] = int(idx)
    return out


# ---------------------------------------------------------------------------
# Attribute encoding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttributeField:
    """One categorical attribute inside a concatenated one-hot encoding.

    The field owns ``len(categories) + 1`` consecutive slots starting at
    ``offset``; the extra slot is the blank token used for missing or unknown
    values.
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

    def slot(self, value: str | None) -> int:
        if value is None or value == "":
            return self.blank_index
        try:
            return self.offset + self.categories.index(value)
        except ValueError:
            return self.blank_index


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
    labels = np.atleast_2d(np.asarray(labels))
    if labels.shape[0] == 1 and len(fields) == 1:
        labels = labels.T
    rows = labels.shape[0]
    dim = sum(f.cardinality for f in fields)
    values = np.zeros((rows, dim))
    for j, f in enumerate(fields):
        for r in range(rows):
            v = labels[r, j]
            slot = f.blank_index if v < 0 else f.offset + int(v)
            values[r, slot] = 1.0
    mat = AuxFeatureMatrix(rows=rows, dim=dim, values=values, fields=list(fields))
    mat.validate()
    return mat


def encode_auxiliary(path: str | Path, node_count: int,
                     fields: list[AttributeField] | None = None,
                     id_map: dict[str, int] | None = None,
                     field_names: Sequence[str] | None = None,
                     delimiter: str | None = None,
                     header: bool = False) -> AuxFeatureMatrix:
    """Encode a delimited attribute table into a concatenated one-hot matrix.

    The first column is the node id (raw when ``id_map`` is given, otherwise
    an integer internal index); remaining columns are categorical values and
    an empty cell means missing.  When ``fields`` is None the categories are
    inferred from the file (sorted lexicographically); otherwise values absent
    from the supplied descriptors map to the blank token.  Nodes without a row
    get the blank token in every field.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read attribute file {path}: {exc}") from exc

    lines = [ln for ln in text.splitlines()]
    delim = delimiter or _sniff_delimiter(lines[0] if lines else ",")
    start = 0
    names: list[str] | None = None
    if header and lines:
        names = [c.strip() for c in lines[0].split(delim)[1:]]
        start = 1

    rows: dict[int, list[str]] = {}
    width = None
    for lineno in range(start, len(lines)):
        line = lines[lineno].rstrip("\n")
        if not line.strip():
            continue
        parts = [p.strip() for p in line.split(delim)]
        raw = parts[0]
        if id_map is not None:
            if raw not in id_map:
                raise DataError(f"{path}:{lineno + 1}: node id {raw!r} not present in the dataset")
            node = id_map[raw]
        else:
            if not raw.lstrip("-").isdigit():
                raise DataError(f"{path}:{lineno + 1}: node id {raw!r} is not an integer index")
            node = int(raw)
        if not (0 <= node < node_count):
            raise DataError(f"{path}:{lineno + 1}: node id {node} outside [0, {node_count})")
        if node in rows:
            raise DataError(f"{path}:{lineno + 1}: duplicate row for node {node}")
        vals = parts[1:]
        rows[node] = vals
        width = max(width or 0, len(vals))

    if width is None:
        raise DataError(f"{path}: no attribute rows")

    if fields is None:
        if names is None:
            names = list(field_names) if field_names else [f"field_{j + 1}" for j in range(width)]
        distinct: list[set[str]] = [set() for _ in range(width)]
        for vals in rows.values():
            for j in range(width):
                v = vals[j] if j < len(vals) else ""
                if v:
                    distinct[j].add(v)
        fields = make_fields(names, [sorted(d) for d in distinct])

    dim = sum(f.cardinality for f in fields)
    values = np.zeros((node_count, dim))
    for node in range(node_count):
        vals = rows.get(node, [])
        for j, f in enumerate(fields):
            v = vals[j] if j < len(vals) else ""
            values[node, f.slot(v)] = 1.0

    mat = AuxFeatureMatrix(rows=node_count, dim=dim, values=values, fields=list(fields))
    mat.validate()
    return mat


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
    """(train, validation, test) as an array: non-negative, summing to 1."""
    ratios_arr = np.asarray(ratios, dtype=np.float64)
    if ratios_arr.shape != (3,) or np.any(ratios_arr < 0):
        raise ValueError("ratios must be three non-negative numbers")
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

    by_user: list[list[int]] = [[] for _ in range(ds.n)]
    for idx, u in enumerate(ds.users):
        by_user[u].append(idx)

    for u in range(ds.n):
        idx = np.array(by_user[u], dtype=np.int64)
        if len(idx) == 0:
            continue
        if len(idx) < n_splits:
            short_users += 1
            continue
        perm = idx[rng.permutation(len(idx))]
        counts = _split_counts(len(idx), ratios_arr)
        a, b = counts[0], counts[0] + counts[1]
        split[perm[a:b]] = VALIDATION
        split[perm[b:]] = TEST

    if short_users:
        log.warning("%d users had fewer triplets than splits; kept entirely in train", short_users)
    return ds.with_split(split)


def split_truth(ds: InteractionDataset, tag: int) -> dict[int, set[int]]:
    """Each user's items in one split, keyed by user index; users without
    an interaction in the split are absent."""
    idx = ds.split_indices(tag)
    truth: dict[int, set[int]] = {}
    for u, i in zip(ds.users[idx].tolist(), ds.items[idx].tolist()):
        truth.setdefault(u, set()).add(i)
    return truth


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
    item_sets = ds._ensure_adjacency()[2]
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
