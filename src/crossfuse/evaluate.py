"""Top-N inference, ranking quality metrics, and the category-consistency
divergence between a user's history and their recommendations."""

from __future__ import annotations

import json
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .data import TRAIN, InteractionDataset

KL_SMOOTHING = 1e-9

# bytes of one block of scores in ``top_n`` (its ranking scratch takes as
# many again): a block holds max(1, _RANK_BYTES // (8 * items)) users
_RANK_BYTES = 2 << 20


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row index and position within the row of every entry of consecutive
    rows holding ``counts`` entries each."""
    rows = np.repeat(np.arange(len(counts)), counts)
    return rows, np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)


def _flatten(lists: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Lengths and int64 concatenation of ``lists``: arrays through one
    concatenation, anything else through one pass of ``np.fromiter``."""
    lengths = np.fromiter(map(len, lists), np.int64, count=len(lists))
    if all(isinstance(x, np.ndarray) for x in lists):
        return lengths, np.concatenate([*lists, np.empty(0, np.int64)], dtype=np.int64,
                                       casting="unsafe")
    return lengths, np.fromiter(chain.from_iterable(lists), np.int64, count=int(lengths.sum()))


@dataclass(frozen=True)
class TopN:
    """Top-n lists of many users as one matrix: row r holds user
    ``users[r]``'s list, best first, in its first ``lengths[r]`` columns and
    -1 after them."""

    users: np.ndarray
    items: np.ndarray
    lengths: np.ndarray

    def as_dict(self) -> dict[int, np.ndarray]:
        """Each user's list, keyed by user in row order, as a view of its row."""
        return {u: self.items[r, :k]
                for r, (u, k) in enumerate(zip(self.users.tolist(), self.lengths.tolist()))}


def _rank_rows(neg: np.ndarray, keep: int, scratch: np.ndarray) -> np.ndarray:
    """Columns of each row's ``keep`` smallest entries, ordered by (value,
    column), for 1 <= keep <= the row length.  ``scratch``, of ``neg``'s
    shape and dtype, is overwritten."""
    np.copyto(scratch, neg)
    scratch.partition(keep - 1, axis=1)
    nth = scratch[:, keep - 1]
    chosen = neg <= nth[:, None]
    # a row with more than ``keep`` entries at or below its keep-th value has
    # a tie there, which must go to the smaller columns: those rows are
    # ranked below from all their candidates, and hold a placeholder here
    # (the lexsort alone ranks every row correctly, at about twice the cost)
    ties = np.flatnonzero(np.count_nonzero(chosen, axis=1) != keep)
    chosen[ties] = False
    chosen[ties, :keep] = True
    flat = np.flatnonzero(chosen)
    order = np.argsort(neg.ravel()[flat].reshape(-1, keep), axis=1, kind="stable")
    out = np.take_along_axis((flat % neg.shape[1]).reshape(-1, keep), order, axis=1)
    if len(ties):
        sub = neg[ties]
        r, c = np.nonzero(sub <= nth[ties, None])
        order = np.lexsort((c, sub[r, c], r))
        first = np.searchsorted(r[order], np.arange(len(ties)))
        out[ties] = c[order][first[:, None] + np.arange(keep)]
    return out


def top_n(g_users: np.ndarray, g_items: np.ndarray, ds: InteractionDataset, n: int,
          users: np.ndarray, chunk: int | None = None) -> TopN:
    """Top-n lists of ``users`` (in that row order), excluding each user's
    train items.

    Items are ranked by descending score ``g_users[u] @ g_items[i]``, ties by
    ascending item index (the order of a stable argsort of the negated
    scores), and each list is cut at the user's pool of unseen items.  Scores
    must be finite.  They are computed negated, as products of the negated
    user rows with the item features, a block of users at a time, into one
    score buffer and ranked through one scratch buffer that every block
    reuses; a block holds ``chunk`` users, by default as many as fit
    ``_RANK_BYTES`` at 8 bytes a score."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    users = np.asarray(users, dtype=np.int64)
    indptr, indices = ds.split_csr(TRAIN)
    keep = min(n, ds.m)
    if chunk is None:
        chunk = max(1, _RANK_BYTES // (8 * ds.m))
    counts = indptr[users + 1] - indptr[users]
    items = np.empty((len(users), keep), dtype=np.int64)
    scores = np.empty((min(chunk, len(users)), ds.m), np.result_type(g_users, g_items))
    scratch = np.empty_like(scores)
    for lo in range(0, len(users), chunk):
        block = users[lo:lo + chunk]
        neg = scores[:len(block)]
        # the block's own copy of its user rows, negated in place, gives
        # the negated scores bit for bit with no pass over the score block
        rows_u = g_users[block]
        np.negative(rows_u, out=rows_u)
        np.matmul(rows_u, g_items.T, out=neg)
        rows, k = _ragged(counts[lo:lo + chunk])
        neg[rows, indices[indptr[block][rows] + k]] = np.inf
        items[lo:lo + chunk] = _rank_rows(neg, keep, scratch[:len(block)])
    lengths = np.minimum(n, ds.m - counts)
    items[np.arange(keep) >= lengths[:, None]] = -1
    return TopN(users, items, lengths)


def recommend_all(g_users: np.ndarray, g_items: np.ndarray, ds: InteractionDataset,
                  n: int, users: Sequence[int] | None = None) -> dict[int, np.ndarray]:
    """``top_n`` as a mapping from user to list, for every user by default."""
    users = np.arange(ds.n) if users is None else np.fromiter(users, np.int64)
    return top_n(g_users, g_items, ds, n, users).as_dict()


@dataclass
class RankingReport:
    """Macro-averaged ranking metrics for one evaluation pass."""

    topn: list[int]
    means: dict[str, dict[int, float]]
    users_evaluated: int
    users_skipped: int
    per_user: dict[int, dict[str, dict[int, float]]] | None = None

    def rows(self) -> list[tuple[str, int, float]]:
        out = []
        for metric in sorted(self.means):
            for n in sorted(self.means[metric]):
                out.append((metric, n, self.means[metric][n]))
        return out

    def to_json(self) -> str:
        doc = {
            "topn": self.topn,
            "users_evaluated": self.users_evaluated,
            "users_skipped": self.users_skipped,
            "metrics": {m: {str(n): v for n, v in vals.items()}
                        for m, vals in self.means.items()},
        }
        return json.dumps(doc, sort_keys=True, indent=2)


def check_topn(topn: Sequence[int]) -> None:
    if not topn or min(topn) < 1:
        raise ValueError(f"topn must list cut-offs >= 1, got {list(topn)}")


@dataclass
class EvalConfig:
    """Top-N cut-offs of the ranking metrics and the number of top categories
    the category-consistency divergence compares."""

    topn: list[int] = field(default_factory=lambda: [5, 10])
    kl_categories: int = 6

    def validate(self) -> None:
        check_topn(self.topn)
        if self.kl_categories < 1:
            raise ValueError(f"kl_categories must be >= 1, got {self.kl_categories}")


def score_top_n(top: TopN, truth: tuple[np.ndarray, np.ndarray], topn: Sequence[int],
                keep_per_user: bool = False, skipped: int = 0) -> RankingReport:
    """Per-user precision/recall/F1, truncated reciprocal rank, and normalized
    discounted cumulative gain of ``top``'s lists, macro-averaged over its
    rows.

    ``truth`` is CSR over the rows of ``top``: row r's relevant items are
    ``indices[indptr[r]:indptr[r + 1]]``, sorted, distinct and not empty.
    ``skipped`` counts users with relevant items but no list.  Means are sums
    in row order, one user after the other.
    """
    check_topn(topn)
    topn = sorted(set(int(n) for n in topn))
    width = topn[-1]
    indptr, indices = truth
    sizes = np.diff(indptr)
    count = len(top.users)

    # hit[r, k]: the k-th item recommended to row r is among its truth items.
    # The keys row * span + item of the sorted truth rows ascend, and the end
    # sentinel exceeds every wanted key, so each lookup lands on a key.
    listed = top.items[:, :width]
    span = max(int(listed.max(initial=0)), int(indices.max(initial=0))) + 1
    keys = np.append(np.repeat(np.arange(count), sizes) * span + indices, count * span)
    wanted = np.arange(count)[:, None] * span + listed
    hit = np.zeros((count, width), dtype=bool)
    hit[:, :listed.shape[1]] = ((keys[np.searchsorted(keys, wanted)] == wanted)
                                & (np.arange(listed.shape[1]) < top.lengths[:, None]))

    disc = np.array([1.0 / math.log2(k + 2) for k in range(width)])
    dcg = np.cumsum(np.where(hit, disc, 0.0), axis=1)
    ideal = np.cumsum(disc)
    hits = np.cumsum(hit, axis=1)
    first = np.where(hit.any(axis=1), np.argmax(hit, axis=1) + 1, width + 1)

    values: dict[str, dict[int, np.ndarray]] = {
        m: {} for m in ("precision", "recall", "f1", "mrr", "ndcg")}
    for n in topn:
        h = hits[:, n - 1]
        precision = h / n
        recall = h / sizes
        values["precision"][n] = precision
        values["recall"][n] = recall
        # without a hit, precision and recall are 0 and so is 0 * 0 / 1
        values["f1"][n] = 2 * precision * recall / np.where(h > 0, precision + recall, 1.0)
        values["mrr"][n] = np.where(first <= n, 1.0 / first, 0.0)
        values["ndcg"][n] = dcg[:, n - 1] / ideal[np.minimum(sizes, n) - 1]

    means = {m: {n: (float(np.cumsum(v)[-1]) / count if count else 0.0)
                 for n, v in vals.items()}
             for m, vals in values.items()}
    per_user = None
    if keep_per_user:
        as_lists = {m: {n: v.tolist() for n, v in vals.items()} for m, vals in values.items()}
        per_user = {u: {m: {n: v[r] for n, v in vals.items()} for m, vals in as_lists.items()}
                    for r, u in enumerate(top.users.tolist())}
    return RankingReport(topn=topn, means=means, users_evaluated=count,
                         users_skipped=skipped, per_user=per_user)


def ranking_metrics(recommendations: Mapping[int, np.ndarray],
                    ground_truth: Mapping[int, set],
                    topn: Sequence[int]) -> RankingReport:
    """``score_top_n`` over mappings from user to list and to relevant items,
    for the users with relevant items, in ascending user order.  A user with
    relevant items but no list is skipped and counted.  Relevant items are
    integer ids; repeats count once.  The report keeps means only."""
    check_topn(topn)
    width = max(topn)
    users = sorted(ground_truth)
    # every user's relevant items in one flat pass: sorted within each user
    # by one lexsort, then repeats dropped against their neighbours
    counts, items = _flatten([ground_truth[u] for u in users])
    rows = np.repeat(np.arange(len(users)), counts)
    order = np.lexsort((items, rows))
    rows, items = rows[order], items[order]
    fresh = np.ones(len(items), dtype=bool)
    fresh[1:] = (rows[1:] != rows[:-1]) | (items[1:] != items[:-1])
    rows, items = rows[fresh], items[fresh]
    sizes = np.bincount(rows, minlength=len(users))
    listed = np.fromiter((u in recommendations for u in users), bool, count=len(users))
    chosen = (sizes > 0) & listed
    scored = [users[r] for r in np.flatnonzero(chosen).tolist()]
    lists = [np.asarray(recommendations[u])[:width] for u in scored]

    lengths = np.array([len(x) for x in lists], dtype=np.int64)
    top = np.full((len(scored), width), -1, dtype=np.int64)
    top[_ragged(lengths)] = np.concatenate(lists + [np.empty(0, np.int64)])
    indptr = np.zeros(len(scored) + 1, dtype=np.int64)
    np.cumsum(sizes[chosen], out=indptr[1:])
    return score_top_n(TopN(np.array(scored, dtype=np.int64), top, lengths),
                       (indptr, items[chosen[rows]]), topn,
                       skipped=int(np.count_nonzero(sizes)) - len(scored))


def _category_counts(lengths: np.ndarray, items: np.ndarray, slot: np.ndarray,
                     starts: np.ndarray, label_at: np.ndarray, labels: int) -> np.ndarray:
    """Rows x labels counts of the categories of consecutive rows of
    ``lengths[r]`` listed ``items`` each, an item counted once per listing
    and per category.

    Item id k has the categories ``label_at[starts[s]:starts[s + 1]]`` with
    ``s = slot[k + 1]``; ``slot`` covers ids -1 to its length - 2, and an id
    below or past that clips onto its ends."""
    at = slot[np.clip(items, -1, len(slot) - 2) + 1]
    # one entry per (listing, category) pair
    listing, k = _ragged(starts[at + 1] - starts[at])
    rows = np.repeat(np.arange(len(lengths)), lengths)[listing]
    return np.bincount(rows * labels + label_at[starts[at[listing]] + k],
                       minlength=len(lengths) * labels).reshape(len(lengths), labels)


def category_kl(histories: Mapping[int, Sequence[int]],
                recommendations: Mapping[int, Sequence[int]],
                item_categories: Mapping[int, Sequence[int]],
                top_categories: int) -> tuple[float, np.ndarray]:
    """Mean divergence between history and recommendation category mixes,
    and the per-user terms it averages: a float64 array holding one
    divergence per scored user, in ascending user order.

    Each user's distribution is restricted to their ``top_categories`` most
    frequent history categories (ties toward the smaller label); items with
    several categories count once per category.  Recommendation mass is
    smoothed so the divergence stays defined when a category is never
    recommended.  A user whose history holds no categorized item is skipped
    and has no term.  Each user's sums run over their own categories only,
    and the mean is the sum of the terms in ascending user order, one after
    the other, over their count (0.0 with no term).  ``top_categories``
    below 1 is a ``ValueError``.

    Item ids are integers; ``item_categories`` keys them from 0 (a negative
    key is a ``ValueError``), and a listed id with no key, such as the -1
    padding of a ``TopN`` row, has no category.  The ids map to their
    categories through one dense int64 table of (largest key + 3) entries,
    8 bytes per id up to the largest key.
    """
    if top_categories < 1:
        raise ValueError(f"top_categories must be >= 1, got {top_categories}")
    users = sorted(histories)
    keys = np.fromiter(item_categories, np.int64, count=len(item_categories))
    if len(keys) and keys.min() < 0:
        raise ValueError(f"item ids must be >= 0, got key {int(keys.min())}")
    cats_of = list(item_categories.values())
    sizes = np.fromiter(map(len, cats_of), np.int64, count=len(cats_of))
    labels, label_at = np.unique(np.fromiter(chain.from_iterable(cats_of), np.int64,
                                             count=int(sizes.sum())), return_inverse=True)
    # key k at slot[k + 1]; every other entry, the two ends that ids below 0
    # and past the largest key clip onto included, holds position len(keys),
    # which has no categories
    slot = np.full(int(keys.max(initial=-1)) + 3, len(keys), dtype=np.int64)
    slot[keys + 1] = np.arange(len(keys))
    starts = np.zeros(len(keys) + 2, dtype=np.int64)
    np.cumsum(np.append(sizes, 0), out=starts[1:])
    tables = (slot, starts, label_at, len(labels))
    hist = _category_counts(*_flatten([histories[u] for u in users]), *tables)
    empty = np.empty(0, np.int64)
    recs = _category_counts(*_flatten([recommendations.get(u, empty) for u in users]), *tables)

    # each scored row's categories by descending history count, ties to the
    # smaller label
    present = np.count_nonzero(hist, axis=1)
    scored = np.flatnonzero(present)
    hist, recs = hist[scored], recs[scored]
    width = np.minimum(present[scored], top_categories)
    top = np.argsort(-hist, axis=1, kind="stable")[:, :width.max(initial=0)]
    p_all = np.take_along_axis(hist, top, axis=1).astype(np.float64)
    q_all = np.take_along_axis(recs, top, axis=1) + KL_SMOOTHING
    kl = np.zeros(len(scored))
    for j in np.unique(width).tolist():
        rows = np.flatnonzero(width == j)
        p = p_all[rows, :j]
        p = p / p.sum(axis=1, keepdims=True)
        q = q_all[rows, :j]
        q = q / q.sum(axis=1, keepdims=True)
        kl[rows] = np.sum(p * np.log(p / q), axis=1)
    if not len(scored):
        return 0.0, kl
    return float(np.cumsum(kl)[-1]) / len(scored), kl


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------

def write_report_text(report: RankingReport, path: str | Path) -> None:
    """One (metric, N, value) row per line, tab-delimited."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("metric\tn\tvalue\n")
        for metric, n, value in report.rows():
            fh.write(f"{metric}\t{n}\t{value!r}\n")


def write_report_json(report: RankingReport, path: str | Path) -> None:
    Path(path).write_text(report.to_json() + "\n", encoding="utf-8")
