"""Top-N inference, ranking quality metrics, and the category-consistency
divergence between a user's history and their recommendations."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from .data import TRAIN, InteractionDataset

KL_SMOOTHING = 1e-9


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row index and position within the row of every entry of consecutive
    rows holding ``counts`` entries each."""
    rows = np.repeat(np.arange(len(counts)), counts)
    return rows, np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)


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


def _rank_rows(neg: np.ndarray, keep: int) -> np.ndarray:
    """Columns of each row's ``keep`` smallest entries, ordered by (value,
    column), for 1 <= keep <= the row length."""
    nth = np.partition(neg, keep - 1, axis=1)[:, keep - 1]
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
          users: np.ndarray, chunk: int = 1024) -> TopN:
    """Top-n lists of ``users`` (in that row order), excluding each user's
    train items.

    Items are ranked by descending score ``g_users[u] @ g_items[i]``, ties by
    ascending item index (the order of a stable argsort of the negated
    scores), and each list is cut at the user's pool of unseen items.  Scores
    are computed ``chunk`` users at a time and must be finite."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    users = np.asarray(users, dtype=np.int64)
    indptr, indices = ds.split_csr(TRAIN)
    keep = min(n, ds.m)
    counts = indptr[users + 1] - indptr[users]
    items = np.empty((len(users), keep), dtype=np.int64)
    for lo in range(0, len(users), chunk):
        block = users[lo:lo + chunk]
        neg = g_users[block] @ g_items.T
        np.negative(neg, out=neg)
        rows, k = _ragged(counts[lo:lo + chunk])
        neg[rows, indices[indptr[block][rows] + k]] = np.inf
        items[lo:lo + chunk] = _rank_rows(neg, keep)
    lengths = np.minimum(n, ds.m - counts)
    items[np.arange(keep) >= lengths[:, None]] = -1
    return TopN(users, items, lengths)


def recommend_all(g_users: np.ndarray, g_items: np.ndarray, ds: InteractionDataset,
                  n: int, users: Sequence[int] | None = None,
                  chunk: int = 1024) -> dict[int, np.ndarray]:
    """``top_n`` as a mapping from user to list, for every user by default."""
    users = np.arange(ds.n) if users is None else np.fromiter(users, np.int64)
    return top_n(g_users, g_items, ds, n, users, chunk).as_dict()


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
                    topn: Sequence[int],
                    keep_per_user: bool = False) -> RankingReport:
    """``score_top_n`` over mappings from user to list and to relevant items,
    for the users with relevant items, in ascending user order.  A user with
    relevant items but no list is skipped and counted."""
    check_topn(topn)
    width = max(topn)
    truths = {u: sorted(set(map(int, ground_truth[u]))) for u in sorted(ground_truth)}
    truths = {u: t for u, t in truths.items() if t}
    scored = [u for u in truths if u in recommendations]
    lists = [np.asarray(recommendations[u])[:width] for u in scored]

    lengths = np.array([len(x) for x in lists], dtype=np.int64)
    items = np.full((len(scored), width), -1, dtype=np.int64)
    items[_ragged(lengths)] = np.concatenate(lists + [np.empty(0, np.int64)])
    sizes = np.array([len(truths[u]) for u in scored], dtype=np.int64)
    indptr = np.zeros(len(scored) + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    indices = np.fromiter(chain.from_iterable(truths[u] for u in scored), np.int64,
                          count=int(indptr[-1]))
    return score_top_n(TopN(np.array(scored, dtype=np.int64), items, lengths),
                       (indptr, indices), topn, keep_per_user, len(truths) - len(scored))


@dataclass
class CategoryProfile:
    """A user's history and recommendation distributions over their top
    categories."""

    user: int
    categories: list[int]
    history: np.ndarray
    recommended: np.ndarray


def _category_counts(lists: Sequence[Sequence[int]], keys: np.ndarray,
                     incidence: sp.csr_matrix) -> np.ndarray:
    """Rows x labels counts of the categories of each row's listed items, an
    item counted once per listing and per category."""
    lengths = np.array([len(x) for x in lists], dtype=np.int64)
    flat = np.fromiter(chain.from_iterable(lists), np.int64, count=int(lengths.sum()))
    # items without a category entry land on the incidence's empty last row
    at = np.where(np.isin(flat, keys), np.searchsorted(keys, flat), len(keys))
    listed = sp.csr_matrix((np.ones(len(flat)), (np.repeat(np.arange(len(lists)), lengths), at)),
                           shape=(len(lists), len(keys) + 1))
    return (listed @ incidence).toarray()


def category_kl(histories: Mapping[int, Sequence[int]],
                recommendations: Mapping[int, Sequence[int]],
                item_categories: Mapping[int, Sequence[int]],
                top_categories: int) -> tuple[float, list[CategoryProfile]]:
    """Mean divergence between history and recommendation category mixes.

    Each user's distribution is restricted to their ``top_categories`` most
    frequent history categories (ties toward the smaller label); items with
    several categories count once per category.  Recommendation mass is
    smoothed so the divergence stays defined when a category is never
    recommended.  Users with empty histories are skipped.  Each user's sums
    run over their own categories only, and the mean is a sum in ascending
    user order, one user after the other.  ``top_categories`` below 1 is a
    ``ValueError``.
    """
    if top_categories < 1:
        raise ValueError(f"top_categories must be >= 1, got {top_categories}")
    users = sorted(histories)
    keys = np.array(sorted(map(int, item_categories)), dtype=np.int64)
    cats_of = [item_categories[k] for k in keys.tolist()]
    sizes = [len(c) for c in cats_of]
    labels, label_at = np.unique(np.fromiter(chain.from_iterable(cats_of), np.int64,
                                             count=sum(sizes)), return_inverse=True)
    incidence = sp.csr_matrix((np.ones(len(label_at)),
                               (np.repeat(np.arange(len(keys)), sizes), label_at)),
                              shape=(len(keys) + 1, len(labels)))
    hist = _category_counts([histories[u] for u in users], keys, incidence)
    recs = _category_counts([recommendations.get(u, ()) for u in users], keys, incidence)

    # each row's categories by descending history count, ties to the smaller label
    present = np.count_nonzero(hist, axis=1)
    width = np.minimum(present, top_categories)
    top = np.argsort(-hist, axis=1, kind="stable")[:, :width.max(initial=0)]
    p_all = np.take_along_axis(hist, top, axis=1)
    q_all = np.take_along_axis(recs, top, axis=1) + KL_SMOOTHING
    scored = np.flatnonzero(present > 0)
    kl = np.zeros(len(users))
    for j in np.unique(width[scored]).tolist():
        rows = scored[width[scored] == j]
        p = p_all[rows, :j]
        p = p / p.sum(axis=1, keepdims=True)
        q = q_all[rows, :j]
        q = q / q.sum(axis=1, keepdims=True)
        kl[rows] = np.sum(p * np.log(p / q), axis=1)
        p_all[rows, :j] = p
        q_all[rows, :j] = q

    names = labels[top].tolist()
    profiles = [CategoryProfile(user=users[r], categories=names[r][:w],
                                history=p_all[r, :w], recommended=q_all[r, :w])
                for r, w in zip(scored.tolist(), width[scored].tolist())]
    if not profiles:
        return 0.0, []
    return float(np.cumsum(kl[scored])[-1]) / len(profiles), profiles


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
