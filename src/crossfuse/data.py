"""Interaction-log and attribute-table ingestion.

Turns delimited interaction logs into a re-indexed dataset with per-user
train/validation/test splits, builds concatenated one-hot attribute matrices
(with blank tokens for missing values), and draws negative items for ranking
losses.
"""

from __future__ import annotations

import logging
import re
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


# ---------------------------------------------------------------------------
# Tokenizer: the text as an array of code units
# ---------------------------------------------------------------------------
# Both readers cut their text with whole-array operations instead of a loop
# over lines.  The text is one numpy array of code units: uint8 when it is
# ASCII, uint32 code points otherwise, so a position in the array is an index
# into the str, and a span decodes back to the same substring.  Lines break
# where str.splitlines() breaks them, whitespace is what str.isspace() takes,
# and a delimiter cuts where str.split() cuts.

# The code points str.isspace() takes and those str.splitlines() breaks a
# line at, as inclusive ranges; no code point above U+3000 is either.
_SPACE_RANGES = ((0x09, 0x0d), (0x1c, 0x20), (0x85, 0x85), (0xa0, 0xa0), (0x1680, 0x1680),
                 (0x2000, 0x200a), (0x2028, 0x2029), (0x202f, 0x202f), (0x205f, 0x205f),
                 (0x3000, 0x3000))
_BREAK_RANGES = ((0x0a, 0x0d), (0x1c, 0x1e), (0x85, 0x85), (0x2028, 0x2029))
_FIRST_LINE = re.compile("[^%s]*" % "".join(f"{re.escape(chr(a))}-{re.escape(chr(b))}"
                                               for a, b in _BREAK_RANGES))
_WORD = 8  # bytes of one token key
_CODECS = {1: "ascii", 4: "utf-32-le"}  # by code-unit size


def _code_units(text: str) -> np.ndarray:
    """``text`` as one code unit per character, then one key word of padding
    units: the dtype's maximum, which no character takes."""
    size = 1 if text.isascii() else 4
    dtype = np.dtype(f"<u{size}")
    raw = np.frombuffer(text.encode(_CODECS[size]), dtype=dtype)
    units = np.empty(len(raw) + _WORD // raw.itemsize, dtype=dtype)
    units[:len(raw)] = raw
    units[len(raw):] = np.iinfo(dtype).max
    return units


def _in_ranges(codes: np.ndarray, ranges) -> np.ndarray:
    """Whether each code unit lies in one of the inclusive ``ranges``.  uint8
    units are ASCII, so ranges above U+007F are skipped for them."""
    mask = np.zeros(codes.shape, dtype=bool)
    for first, last in ranges:
        if first < 0x80 or codes.itemsize > 1:
            mask |= codes - first <= last - first  # unsigned: below first wraps high
    return mask


def _scan(units: np.ndarray, n: int, delim: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the text's ``n`` units break into lines, as ``str.splitlines()``
    breaks them, and where ``delim`` matches.  The text was read with
    universal newlines, so it holds no ``\\r\\n`` pair.  Returns the start and
    end of each line and the start of every match, overlapping ones too."""
    width = len(delim)
    cut = np.flatnonzero(_in_ranges(units[:n], _BREAK_RANGES))
    lines = len(cut) + int(not len(cut) or cut[-1] + 1 < n) if n else 0
    lo = np.zeros(lines, dtype=np.int64)
    lo[1:] = cut[:lines - 1] + 1
    hi = np.full(lines, n, dtype=np.int64)
    hi[:len(cut)] = cut[:lines]
    del cut
    hit = units[:max(n - width + 1, 0)] == ord(delim[0])
    for k in range(1, width):
        hit &= units[k:k + len(hit)] == ord(delim[k])
    return lo, hi, np.flatnonzero(hit)


def _strip(units: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
    """Trim whitespace off both ends of the spans ``[lo, hi)`` in place, as
    ``str.strip()`` trims it: one round per character trimmed."""
    for edge, step, inner in ((lo, 1, 0), (hi, -1, -1)):
        at = np.flatnonzero(_in_ranges(units[edge + inner], _SPACE_RANGES) & (lo < hi))
        while len(at):
            edge[at] += step
            at = at[lo[at] < hi[at]]
            at = at[_in_ranges(units[edge[at] + inner], _SPACE_RANGES)]


def _split_rows(match: np.ndarray, width: int, lo: np.ndarray,
                hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where ``str.split`` cuts each row ``[lo, hi)`` (ascending, disjoint),
    given the start of every delimiter match.  Only a match wholly inside a
    row cuts it; matches are taken left to right, and one that overlaps a
    match taken is skipped.  Returns the match starts and, for each row, the
    index of its first match taken and the count of them."""
    if width > 1 and len(lo) and np.any(match[1:] < match[:-1] + width):
        row = np.searchsorted(lo, match, side="right") - 1
        inside = (row >= 0) & (match + width <= hi[row])
        match = match[inside]
        match = match[_taken_matches(match, width)]
    first = np.searchsorted(match, lo)
    return match, first, np.searchsorted(match, hi - width + 1) - first


def _taken_matches(pos: np.ndarray, width: int) -> np.ndarray:
    """Which of the ascending match starts ``pos`` a left-to-right split
    takes.  A match that overlaps no earlier match is taken; within a run of
    overlapping matches the split goes from each match taken to the first
    one starting at or past its end, a chain found by binary lifting in
    log2(run length) rounds."""
    size = len(pos)
    idx = np.arange(size)
    fresh = np.ones(size, dtype=bool)
    fresh[1:] = pos[1:] >= pos[:-1] + width
    at = np.maximum.accumulate(np.where(fresh, idx, 0))  # the run's first match
    run = int(np.diff(np.append(np.flatnonzero(fresh), size)).max(initial=0))
    jumps = [np.append(np.searchsorted(pos, pos + width), size)]  # past the end stays there
    while 1 << len(jumps) < run:
        jumps.append(jumps[-1][jumps[-1]])
    for jump in reversed(jumps):
        step = jump[at]
        ahead = step <= idx
        at[ahead] = step[ahead]
    return at == idx


def _cut_field(pos: np.ndarray, width: int, first: np.ndarray, count: np.ndarray,
               lo: np.ndarray, hi: np.ndarray, column: int) -> tuple[np.ndarray, np.ndarray]:
    """Start and end of field ``column`` of rows that have it: row r runs
    from ``lo[r]`` to ``hi[r]`` and its ``count[r]`` matches start at
    ``pos[first[r]:]``."""
    start = lo.copy() if column == 0 else pos[first + column - 1] + width
    end = hi.copy()
    more = np.flatnonzero(count > column)
    end[more] = pos[first[more] + column]
    return start, end


def _strings(units: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> list[str]:
    """The tokens ``units[lo:hi]`` as str, decoded in one piece."""
    length = hi - lo
    end = np.cumsum(length)
    joined = units[np.repeat(lo - end + length, length) + np.arange(end[-1] if len(end) else 0)]
    text = joined.tobytes().decode(_CODECS[units.itemsize])
    bounds = [0, *end.tolist()]
    return [text[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def _number(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct ``keys`` in the order they first appear: returns
    each key's number and the index of each number's first key."""
    order = np.argsort(keys)
    keys = keys[order]
    head = np.ones(len(keys), dtype=bool)
    head[1:] = keys[1:] != keys[:-1]
    del keys
    starts = np.flatnonzero(head)
    first = np.minimum.reduceat(order, starts) if len(order) else starts
    rank = np.empty(len(starts), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(starts))
    number = np.empty(len(order), dtype=np.int64)
    number[order] = np.repeat(rank, np.diff(np.append(starts, len(order))))
    return number, np.sort(first)


def _first_appearance(units: np.ndarray, lo: np.ndarray,
                      hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct tokens ``units[lo:hi]`` in the order they first
    appear: returns each span's number and the index of each number's first
    span.

    Each word of a token's units loads as one uint64 key, its units past the
    token's end set to the padding unit; numbering the keys of each word in
    turn, paired with the number so far, numbers the tokens."""
    per_word = _WORD // units.itemsize
    words = np.ndarray((len(units) - per_word + 1,), dtype="<u8", buffer=units,
                       strides=(units.itemsize,))
    # pads[k] sets every unit of a word from unit k on
    pads = np.array([(1 << 64) - (1 << 8 * units.itemsize * k) for k in range(per_word + 1)],
                    dtype=np.uint64)
    length = hi - lo

    def word(at: int) -> np.ndarray:
        return words[np.minimum(lo + at, len(words) - 1)] | pads[np.clip(length - at, 0, per_word)]

    number, first = _number(word(0))
    for at in range(per_word, int(length.max(initial=0)), per_word):
        key = _number(word(at))[0]
        number, first = _number(number * (int(key.max()) + 1) + key)
    return number, first


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
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read interaction file {path}: {exc}") from exc

    first_line = _FIRST_LINE.match(text).group()
    delim = cfg.delimiter or _sniff_delimiter(first_line if text else ",")

    c_user, c_item, c_rating = cfg.user_column, cfg.item_column, cfg.rating_column
    start = 0
    if text and c_rating is not None:
        head = first_line.split(delim)
        start = int(len(head) > c_rating and not _is_float(head[c_rating].strip()))
    width = max(c for c in (c_user, c_item, c_rating) if c is not None) + 1

    # the rows: the lines after the header that hold anything once stripped,
    # split stripped
    n = len(text)
    units = _code_units(text)
    del text
    lo, hi, pos = _scan(units, n, delim)
    lo, hi = lo[start:], hi[start:]
    _strip(units, lo, hi)
    filled = lo < hi
    lo, hi = lo[filled], hi[filled]
    pos, first, count = _split_rows(pos, len(delim), lo, hi)

    # the first short row ends the rows read; a bad rating before it wins
    rows = len(lo)
    short = np.flatnonzero(count < width - 1)
    end = int(short[0]) if len(short) else rows
    got = int(count[end]) + 1 if end < rows else width
    columns = {c: _cut_field(pos, len(delim), first[:end], count[:end], lo[:end], hi[:end], c)
               for c in (c_user, c_item, c_rating) if c is not None}
    # numbering the columns takes the most memory, so the row state goes first
    del lo, hi, pos, first, count
    for span in columns.values():
        _strip(units, *span)

    def line_of(row: int) -> int:
        return start + 1 + int(np.flatnonzero(filled)[row])

    ratings = np.ones(end)
    if c_rating is not None:
        r_lo, r_hi = columns[c_rating]
        number, at = _first_appearance(units, r_lo, r_hi)
        values = np.empty(len(at))
        # in order of first appearance, so the first bad token is the first bad row
        for k, (row, token) in enumerate(zip(at.tolist(), _strings(units, r_lo[at], r_hi[at]))):
            try:
                values[k] = float(token)
            except ValueError:
                raise DataError(f"{path}:{line_of(row)}: bad rating value {token!r}") from None
        ratings = values[number]
        del r_lo, r_hi, number
    if end < rows:
        raise DataError(f"{path}:{line_of(end)}: expected at least {width} columns, got {got}")
    if not end:
        raise DataError(f"{path}: no interaction rows")

    u_lo, u_hi = columns[c_user]
    users, at = _first_appearance(units, u_lo, u_hi)
    user_ids = _strings(units, u_lo[at], u_hi[at])
    i_lo, i_hi = columns[c_item]
    items, at = _first_appearance(units, i_lo, i_hi)
    item_ids = _strings(units, i_lo[at], i_hi[at])
    del units, columns, u_lo, u_hi, i_lo, i_hi

    # a sort finds whether any pair repeats; a stable sort of the pair keys
    # puts each pair's rows in file order, so the first row of each run of
    # equal keys is the pair's first row
    key = users * len(item_ids) + items
    dropped = int(np.count_nonzero(np.diff(np.sort(key)) == 0))
    if dropped:
        log.warning("%s: dropped %d duplicate (user, item) rows", path, dropped)
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.ones(len(key), dtype=bool)
        first[1:] = key[1:] != key[:-1]
        keep = np.sort(order[first])
        users, items, ratings = users[keep], items[keep], ratings[keep]

    return InteractionDataset(
        n=len(user_ids), m=len(item_ids),
        users=users, items=items, ratings=ratings,
        split=np.zeros(len(users), dtype=np.int8),
        user_ids=user_ids, item_ids=item_ids,
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
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read attribute file {path}: {exc}") from exc

    delim = delimiter or _sniff_delimiter(_FIRST_LINE.match(text).group() if text else ",")
    id_map = {raw: idx for idx, raw in enumerate(ids)}

    # the rows: the lines that hold anything but whitespace, split unstripped
    n = len(text)
    units = _code_units(text)
    del text
    lo, hi, pos = _scan(units, n, delim)
    s_lo, s_hi = lo.copy(), hi.copy()
    _strip(units, s_lo, s_hi)
    row_line = np.flatnonzero(s_lo < s_hi)
    lo, hi = lo[row_line], hi[row_line]
    # a row's count of matches is its count of attribute cells
    pos, first, count = _split_rows(pos, len(delim), lo, hi)

    def column(c: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        start, stop = _cut_field(pos, len(delim), first[rows], count[rows], lo[rows], hi[rows], c)
        _strip(units, start, stop)
        return start, stop

    id_lo, id_hi = column(0, np.arange(len(lo)))
    number, at = _first_appearance(units, id_lo, id_hi)
    raw_ids = _strings(units, id_lo[at], id_hi[at])
    node = np.array([id_map.get(raw, -1) for raw in raw_ids], dtype=np.int64)[number]
    # a row is wrong if its id is unknown or an earlier row had it
    wrong = np.flatnonzero((node < 0) | (at[number] < np.arange(len(lo))))
    if len(wrong):
        row = wrong[0]
        raw = raw_ids[number[row]]
        what = (f"node id {raw!r} not present in the dataset" if node[row] < 0
                else f"duplicate row for node {raw!r}")
        raise DataError(f"{path}:{row_line[row] + 1}: {what}")
    if not len(lo):
        raise DataError(f"{path}: no attribute rows")
    width = int(count.max())
    if width == 0:
        raise DataError(f"{path}: no attribute columns (each row holds only a node id)")

    labels = np.full((len(ids), width), -1, dtype=np.int64)
    categories = []
    for j in range(width):
        rows = np.flatnonzero(count > j)
        v_lo, v_hi = column(j + 1, rows)
        filled = np.flatnonzero(v_lo < v_hi)
        v_lo, v_hi = v_lo[filled], v_hi[filled]
        number, at = _first_appearance(units, v_lo, v_hi)
        values = _strings(units, v_lo[at], v_hi[at])
        categories.append(sorted(values))
        slot = {c: k for k, c in enumerate(categories[-1])}
        labels[node[rows[filled]], j] = np.array([slot[v] for v in values],
                                                 dtype=np.int64)[number]
    fields = make_fields([f"field_{j + 1}" for j in range(width)], categories)
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
