"""Top-N inference, ranking quality metrics, and the category-consistency
divergence between a user's history and their recommendations."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .data import InteractionDataset

KL_SMOOTHING = 1e-9


def rank_topn(g_users: np.ndarray, g_items: np.ndarray, u: int, n: int,
              exclude=()) -> np.ndarray:
    """The ``n`` highest-scoring items for user ``u`` by feature dot product,
    excluded items removed, ties broken toward the lower item index.  Returns
    the whole candidate pool when it is smaller than ``n``."""
    scores = g_items @ g_users[u]
    excl = np.asarray(sorted(exclude), dtype=np.int64) if len(exclude) else None
    if excl is not None and len(excl):
        scores = scores.copy()
        scores[excl] = -np.inf
    order = np.argsort(-scores, kind="stable")
    pool = len(scores) - (len(excl) if excl is not None else 0)
    return order[:min(n, pool)]


def recommend_all(g_users: np.ndarray, g_items: np.ndarray, ds: InteractionDataset,
                  n: int, users: Sequence[int] | None = None,
                  chunk: int = 1024) -> dict[int, np.ndarray]:
    """Top-n lists for many users at once, excluding each user's train items."""
    if users is None:
        users = range(ds.n)
    users = list(users)
    out: dict[int, np.ndarray] = {}
    for lo in range(0, len(users), chunk):
        block = users[lo:lo + chunk]
        scores = g_users[block] @ g_items.T
        for row, u in enumerate(block):
            s = scores[row]
            excl = ds.train_items(u)
            s[excl] = -np.inf
            order = np.argsort(-s, kind="stable")
            pool = ds.m - len(excl)
            out[u] = order[:min(n, pool)]
    return out


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


def _user_metrics(rec: np.ndarray, truth: set, topn: Sequence[int]) -> dict[str, dict[int, float]]:
    out: dict[str, dict[int, float]] = {m: {} for m in ("precision", "recall", "f1", "mrr", "ndcg")}
    hits = np.fromiter((int(i) in truth for i in rec), dtype=bool, count=len(rec))
    for n in topn:
        top = hits[:n]
        h = int(top.sum())
        precision = h / n
        recall = h / len(truth)
        f1 = 2 * precision * recall / (precision + recall) if (precision + recall) > 0 else 0.0
        first = int(np.argmax(top)) + 1 if h > 0 else 0
        mrr = 1.0 / first if first else 0.0
        dcg = float(sum(1.0 / math.log2(k + 2) for k in range(min(n, len(rec))) if top[k]))
        ideal = float(sum(1.0 / math.log2(k + 2) for k in range(min(len(truth), n))))
        ndcg = dcg / ideal if ideal > 0 else 0.0
        out["precision"][n] = precision
        out["recall"][n] = recall
        out["f1"][n] = f1
        out["mrr"][n] = mrr
        out["ndcg"][n] = ndcg
    return out


def check_topn(topn: Sequence[int]) -> None:
    if not topn or min(topn) < 1:
        raise ValueError(f"topn must list cut-offs >= 1, got {list(topn)}")


def ranking_metrics(recommendations: Mapping[int, np.ndarray],
                    ground_truth: Mapping[int, set],
                    topn: Sequence[int],
                    keep_per_user: bool = False) -> RankingReport:
    """Per-user precision/recall/F1, truncated reciprocal rank, and normalized
    discounted cumulative gain, macro-averaged over users with test items.

    A user with test items but no recommendation list is skipped and counted.
    """
    check_topn(topn)
    topn = sorted(set(int(n) for n in topn))
    sums: dict[str, dict[int, float]] = {m: {n: 0.0 for n in topn}
                                         for m in ("precision", "recall", "f1", "mrr", "ndcg")}
    per_user: dict[int, dict] = {}
    evaluated = skipped = 0
    for u in sorted(ground_truth):
        truth = set(int(i) for i in ground_truth[u])
        if not truth:
            continue
        if u not in recommendations:
            skipped += 1
            continue
        vals = _user_metrics(np.asarray(recommendations[u]), truth, topn)
        evaluated += 1
        for m in sums:
            for n in topn:
                sums[m][n] += vals[m][n]
        if keep_per_user:
            per_user[u] = vals
    means = {m: {n: (sums[m][n] / evaluated if evaluated else 0.0) for n in topn}
             for m in sums}
    return RankingReport(topn=topn, means=means, users_evaluated=evaluated,
                         users_skipped=skipped, per_user=per_user if keep_per_user else None)


@dataclass
class CategoryProfile:
    """A user's history and recommendation distributions over their top
    categories."""

    user: int
    categories: list[int]
    history: np.ndarray
    recommended: np.ndarray


def category_kl(histories: Mapping[int, Sequence[int]],
                recommendations: Mapping[int, Sequence[int]],
                item_categories: Mapping[int, Sequence[int]],
                top_categories: int) -> tuple[float, list[CategoryProfile]]:
    """Mean divergence between history and recommendation category mixes.

    Each user's distribution is restricted to their ``top_categories`` most
    frequent history categories (ties toward the smaller label); items with
    several categories count once per category.  Recommendation mass is
    smoothed so the divergence stays defined when a category is never
    recommended.  Users with empty histories are skipped.
    """
    profiles: list[CategoryProfile] = []
    total = 0.0
    for u in sorted(histories):
        counts: dict[int, int] = {}
        for item in histories[u]:
            for c in item_categories.get(int(item), ()):
                counts[c] = counts.get(c, 0) + 1
        if not counts:
            continue
        cats = sorted(counts, key=lambda c: (-counts[c], c))[:top_categories]
        p = np.array([counts[c] for c in cats], dtype=np.float64)
        p /= p.sum()

        rec_counts = {c: 0 for c in cats}
        for item in recommendations.get(u, ()):
            for c in item_categories.get(int(item), ()):
                if c in rec_counts:
                    rec_counts[c] += 1
        q = np.array([rec_counts[c] for c in cats], dtype=np.float64)
        q = q + KL_SMOOTHING
        q /= q.sum()

        kl = float(np.sum(p * np.log(p / q)))
        total += kl
        profiles.append(CategoryProfile(user=u, categories=list(cats), history=p, recommended=q))
    if not profiles:
        return 0.0, []
    return total / len(profiles), profiles


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
