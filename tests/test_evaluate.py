import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossfuse import synthetic
from crossfuse.data import TEST, TRAIN, VALIDATION, InteractionDataset, split_dataset
from crossfuse.evaluate import (KL_SMOOTHING, CategoryProfile, TopN, category_kl,
                                ranking_metrics, recommend_all, score_top_n, top_n,
                                write_report_json, write_report_text)


def _one_user(m: int, train_items=()) -> InteractionDataset:
    """One user over ``m`` items: ``train_items`` in train, one held-out
    test row so the user exists even with nothing to exclude."""
    held_out = next(i for i in range(m) if i not in train_items)
    items = [*train_items, held_out]
    split = [TRAIN] * len(train_items) + [TEST]
    return InteractionDataset(n=1, m=m, users=np.zeros(len(items), dtype=np.int64),
                              items=np.array(items), ratings=np.ones(len(items)),
                              split=np.array(split, dtype=np.int8))


class TestRankTopN:
    """Top-N lists as ``recommend_all`` ranks them."""

    def test_tie_broken_by_ascending_index(self):
        g_users = np.array([[1.0]])
        g_items = np.array([[0.9], [0.5], [0.9]])
        out = recommend_all(g_users, g_items, _one_user(3), 2)[0]
        assert out.tolist() == [0, 2]

    def test_excluded_item_never_appears(self):
        g_users = np.array([[1.0]])
        g_items = np.array([[0.9], [0.5], [0.8]])
        out = recommend_all(g_users, g_items, _one_user(3, [0]), 3)[0]
        assert 0 not in out.tolist()
        assert out.tolist() == [2, 1]

    def test_n_larger_than_pool_returns_pool(self):
        g_users = np.array([[1.0]])
        g_items = np.array([[0.1], [0.2], [0.3]])
        out = recommend_all(g_users, g_items, _one_user(3, [1]), 10)[0]
        assert len(out) == 2

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        g_users = rng.normal(size=(1, 4))
        g_items = rng.normal(size=(20, 4))
        ds = _one_user(20, [2, 4])
        a = recommend_all(g_users, g_items, ds, 5)[0]
        b = recommend_all(g_users, g_items, ds, 5)[0]
        assert np.array_equal(a, b)


class TestRankingMetrics:
    def test_perfect_ranking(self):
        recs = {0: np.array([3, 1, 4])}
        truth = {0: {1, 3, 4, 9}}
        rep = ranking_metrics(recs, truth, [3])
        assert rep.means["ndcg"][3] == pytest.approx(1.0, abs=1e-12)
        assert rep.means["mrr"][3] == pytest.approx(1.0, abs=1e-12)
        assert rep.means["precision"][3] == pytest.approx(1.0, abs=1e-12)

    def test_first_hit_at_rank_two(self):
        rep = ranking_metrics({0: np.array([7, 3, 8])}, {0: {3}}, [3])
        assert rep.means["mrr"][3] == pytest.approx(0.5, abs=1e-12)

    def test_single_hit_rank_three_ndcg(self):
        rep = ranking_metrics({0: np.array([7, 8, 3, 9, 11])}, {0: {3}}, [5])
        assert rep.means["ndcg"][5] == pytest.approx(1.0 / math.log2(4), abs=1e-12)
        assert rep.means["ndcg"][5] == pytest.approx(0.5, abs=1e-12)

    def test_f1_zero_when_no_hits(self):
        rep = ranking_metrics({0: np.array([5, 6])}, {0: {1}}, [2])
        assert rep.means["f1"][2] == 0.0
        assert rep.means["mrr"][2] == 0.0

    def test_f1_harmonic_mean(self):
        rep = ranking_metrics({0: np.array([1, 5])}, {0: {1, 2, 3, 4}}, [2])
        p, r = 0.5, 0.25
        assert rep.means["f1"][2] == pytest.approx(2 * p * r / (p + r), abs=1e-12)

    def test_missing_user_skipped_and_counted(self):
        rep = ranking_metrics({0: np.array([1])}, {0: {1}, 5: {2}}, [1])
        assert rep.users_evaluated == 1
        assert rep.users_skipped == 1

    def test_macro_average(self):
        recs = {0: np.array([1]), 1: np.array([9])}
        truth = {0: {1}, 1: {2}}
        rep = ranking_metrics(recs, truth, [1])
        assert rep.means["precision"][1] == pytest.approx(0.5)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_rank_metrics_invariant_under_monotone_transform(self, seed):
        rng = np.random.default_rng(seed)
        g_users = rng.normal(size=(4, 3))
        g_items = rng.normal(size=(15, 3))
        truth = {u: set(rng.choice(15, size=3, replace=False).tolist()) for u in range(4)}
        # exp is strictly monotone; ranking from exp(scores) must match
        scores = g_users @ g_items.T
        base = {u: np.argsort(-scores[u], kind="stable")[:5] for u in range(4)}
        warped = {}
        for u in range(4):
            order = np.argsort(-np.exp(scores[u]), kind="stable")
            warped[u] = order[:5]
        a = ranking_metrics(base, truth, [5]).means
        b = ranking_metrics(warped, truth, [5]).means
        assert a == b

    def test_all_metric_values_in_unit_interval(self):
        rng = np.random.default_rng(7)
        recs = {u: rng.permutation(20)[:10] for u in range(6)}
        truth = {u: set(rng.choice(20, size=4, replace=False).tolist()) for u in range(6)}
        rep = ranking_metrics(recs, truth, [5, 10])
        for metric, vals in rep.means.items():
            for v in vals.values():
                assert 0.0 <= v <= 1.0


def _reference_lists(g_users, g_items, ds, n, users):
    """Per-user stable argsort of the negated scores, train items last."""
    out = {}
    for u in users:
        s = g_users[u] @ g_items.T
        excl = ds.train_items(u)
        s[excl] = -np.inf
        out[u] = np.argsort(-s, kind="stable")[:min(n, ds.m - len(excl))]
    return out


def _reference_metrics(recs, ground_truth, topn):
    """Per-user formulas, every float sum an explicit ``+=`` in order."""
    topn = sorted(set(topn))
    names = ("precision", "recall", "f1", "mrr", "ndcg")
    sums = {m: {n: 0.0 for n in topn} for m in names}
    per_user = {}
    evaluated = skipped = 0
    for u in sorted(ground_truth):
        truth = set(ground_truth[u])
        if not truth:
            continue
        if u not in recs:
            skipped += 1
            continue
        rec = [int(i) for i in recs[u]]
        vals = {m: {} for m in names}
        for n in topn:
            top = [i in truth for i in rec[:n]]
            h = top.count(True)
            precision = h / n
            recall = h / len(truth)
            f1 = 2 * precision * recall / (precision + recall) if h else 0.0
            mrr = 1.0 / (top.index(True) + 1) if h else 0.0
            dcg = ideal = 0.0
            for k, hit in enumerate(top):
                if hit:
                    dcg += 1.0 / math.log2(k + 2)
            for k in range(min(len(truth), n)):
                ideal += 1.0 / math.log2(k + 2)
            for m, v in zip(names, (precision, recall, f1, mrr, dcg / ideal)):
                vals[m][n] = v
                sums[m][n] += v
        evaluated += 1
        per_user[u] = vals
    means = {m: {n: (sums[m][n] / evaluated if evaluated else 0.0) for n in topn}
             for m in names}
    return means, per_user, evaluated, skipped


@st.composite
def ranking_cases(draw):
    """Integer-valued features (many tied scores), train sets up to every
    item, empty truth sets, and truth for users that get no list."""
    n_users, m, dim = draw(st.integers(1, 24)), draw(st.integers(1, 10)), draw(st.integers(1, 3))
    ints = st.integers(-2, 2)
    g_users = np.array(draw(st.lists(st.lists(ints, min_size=dim, max_size=dim),
                                     min_size=n_users, max_size=n_users)), dtype=np.float64)
    g_items = np.array(draw(st.lists(st.lists(ints, min_size=dim, max_size=dim),
                                     min_size=m, max_size=m)), dtype=np.float64)
    item_sets = st.sets(st.integers(0, m - 1))
    train = [sorted(draw(item_sets)) for _ in range(n_users)]
    users = [u for u in range(n_users) for _ in train[u]] + [0]
    items = [i for u in range(n_users) for i in train[u]] + [0]
    split = [TRAIN] * (len(users) - 1) + [TEST]
    ds = InteractionDataset(n=n_users, m=m, users=np.array(users), items=np.array(items),
                            ratings=np.ones(len(users)), split=np.array(split, dtype=np.int8))
    order = draw(st.permutations(range(n_users)))
    ranked = order[:draw(st.integers(0, n_users))]
    truth = {u: draw(item_sets) for u in draw(st.sets(st.integers(0, n_users - 1)))}
    n = draw(st.integers(1, m + 2))
    topn = draw(st.lists(st.integers(1, n + 2), min_size=1, max_size=3))
    return g_users, g_items, ds, n, ranked, draw(st.integers(1, 4)), truth, topn


class TestBlockRankingMatchesPerUserReference:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(ranking_cases())
    def test_lists_and_metrics_equal_reference(self, case):
        g_users, g_items, ds, n, users, chunk, truth, topn = case
        recs = recommend_all(g_users, g_items, ds, n, users, chunk=chunk)
        expect = _reference_lists(g_users, g_items, ds, n, users)
        assert list(recs) == list(expect)
        assert all(recs[u].tolist() == expect[u].tolist() for u in users)

        rep = ranking_metrics(recs, truth, topn, keep_per_user=True)
        means, per_user, evaluated, skipped = _reference_metrics(expect, truth, topn)
        assert rep.means == means
        assert rep.per_user == per_user
        assert (rep.users_evaluated, rep.users_skipped) == (evaluated, skipped)


def assert_matrix_equals_reference(top, g_users, g_items, ds, n, users):
    """``top`` holds the reference lists row by row, -1 after each."""
    expect = _reference_lists(g_users, g_items, ds, n, users)
    assert top.users.tolist() == list(users)
    assert top.items.shape == (len(users), min(n, ds.m))
    for r, u in enumerate(users):
        k = top.lengths[r]
        assert top.items[r, :k].tolist() == expect[u].tolist()
        assert (top.items[r, k:] == -1).all()


class TestMatrixCore:
    """``top_n`` and ``score_top_n``, the matrix forms the mappings adapt."""

    def test_tie_rows_from_duplicated_item_columns(self):
        data = synthetic.generate(num_users=200, num_items=300, num_categories=5, seed=0)
        ds = split_dataset(data.dataset, (0.72, 0.08, 0.2), seed=0)
        rng = np.random.default_rng(0)
        g_users = rng.normal(size=(ds.n, 8))
        g_items = rng.normal(size=(ds.m, 8))
        g_items[1::2] = g_items[::2]  # every odd item scores as its even neighbour
        users = list(range(ds.n))
        top = top_n(g_users, g_items, ds, 9, users, chunk=64)
        assert_matrix_equals_reference(top, g_users, g_items, ds, 9, users)
        # many rows do tie at their 9th unseen score, so the cut splits a pair
        ties = 0
        for u in users:
            s = g_users[u] @ g_items.T
            s = np.sort(np.delete(s, ds.train_items(u)))[::-1]
            ties += s[8] == s[9]
        assert ties > 20

    def test_pools_shorter_than_n(self):
        held = [[0, 1, 2, 3], [1, 2, 3, 4, 5], [], [0, 1, 2, 3, 4, 5]]
        users = [u for u, items in enumerate(held) for _ in items] + [2]
        items = [i for items in held for i in items] + [0]
        split = [TRAIN] * (len(users) - 1) + [TEST]
        ds = InteractionDataset(n=4, m=6, users=np.array(users), items=np.array(items),
                                ratings=np.ones(len(users)), split=np.array(split, dtype=np.int8))
        rng = np.random.default_rng(3)
        g_users, g_items = rng.normal(size=(4, 2)), rng.normal(size=(6, 2))
        top = top_n(g_users, g_items, ds, 4, [3, 0, 1, 2])
        assert top.lengths.tolist() == [0, 2, 1, 4]
        assert_matrix_equals_reference(top, g_users, g_items, ds, 4, [3, 0, 1, 2])

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(ranking_cases())
    def test_matrix_equals_reference(self, case):
        g_users, g_items, ds, n, users, chunk, _, _ = case
        top = top_n(g_users, g_items, ds, n, users, chunk=chunk)
        assert_matrix_equals_reference(top, g_users, g_items, ds, n, users)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(ranking_cases())
    def test_split_truth_rows_score_as_the_mapping(self, case):
        g_users, g_items, ds, n, _, chunk, _, topn = case
        # every user with a test item, scored against the split as CSR rows
        indptr, indices = ds.split_csr(TEST)
        users = np.flatnonzero(np.diff(indptr))
        top = top_n(g_users, g_items, ds, max(topn), users, chunk=chunk)
        rows = (np.append(indptr[users], indptr[-1]), indices)
        got = score_top_n(top, rows, topn, keep_per_user=True)
        truth = {u: set(indices[indptr[u]:indptr[u + 1]].tolist()) for u in users.tolist()}
        want = ranking_metrics(recommend_all(g_users, g_items, ds, max(topn), users.tolist()),
                               truth, topn, keep_per_user=True)
        assert (got.means, got.per_user, got.users_evaluated, got.users_skipped) == (
            want.means, want.per_user, want.users_evaluated, want.users_skipped)

    def test_padding_is_never_a_hit(self):
        # a -1 pad keys one below the row's first key, which is the previous
        # row's largest possible item: it must not count
        top = TopN(np.array([0, 1]), np.array([[4, 0], [3, -1]]), np.array([2, 1]))
        rep = score_top_n(top, (np.array([0, 1, 2]), np.array([4, 3])), [2],
                          keep_per_user=True)
        assert rep.per_user[1]["precision"][2] == 0.5
        assert rep.per_user[0]["precision"][2] == 0.5


class TestCategoryKl:
    def test_identical_distributions_zero(self):
        cats = {0: [0], 1: [1]}
        hist = {0: [0, 0, 0, 1]}
        recs = {0: [0, 0, 0, 1]}
        kl, profiles = category_kl(hist, recs, cats, top_categories=2)
        assert kl == pytest.approx(0.0, abs=1e-7)
        assert profiles[0].user == 0

    def test_hand_computed_two_category_kl(self):
        cats = {0: [0], 1: [1]}
        hist = {0: [0, 0, 0, 1]}           # p = (0.75, 0.25)
        recs = {0: [0, 0, 1, 1]}           # q = (0.5, 0.5)
        kl, _ = category_kl(hist, recs, cats, top_categories=2)
        expect = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        assert kl == pytest.approx(expect, abs=1e-12)

    def test_kl_nonnegative(self):
        rng = np.random.default_rng(0)
        cats = {i: [int(rng.integers(0, 4))] for i in range(30)}
        hist = {u: rng.choice(30, size=8).tolist() for u in range(5)}
        recs = {u: rng.choice(30, size=10).tolist() for u in range(5)}
        kl, _ = category_kl(hist, recs, cats, top_categories=3)
        assert kl >= 0.0

    def test_empty_history_skipped(self):
        cats = {0: [0]}
        kl, profiles = category_kl({0: [], 1: [0]}, {1: [0]}, cats, 2)
        assert len(profiles) == 1

    def test_multi_category_items_count_once_per_category(self):
        cats = {0: [0, 1]}
        hist = {0: [0]}
        recs = {0: [0]}
        kl, profiles = category_kl(hist, recs, cats, top_categories=2)
        assert profiles[0].history.tolist() == [0.5, 0.5]

    @pytest.mark.parametrize("top", [0, -2])
    def test_fewer_than_one_top_category_rejected(self, top):
        with pytest.raises(ValueError, match="top_categories must be >= 1"):
            category_kl({0: [0]}, {0: [0]}, {0: [0]}, top)

    def test_top_k_restriction(self):
        cats = {0: [0], 1: [1], 2: [2]}
        hist = {0: [0, 0, 0, 1, 1, 2]}
        _, profiles = category_kl(hist, {0: [0, 1]}, cats, top_categories=2)
        assert profiles[0].categories == [0, 1]


def _reference_category_kl(histories, recommendations, item_categories, top_categories):
    """The per-user, per-item category divergence loop."""
    profiles = []
    total = 0.0
    for u in sorted(histories):
        counts = {}
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


def assert_kl_equals_reference(histories, recommendations, item_categories, top):
    kl, profiles = category_kl(histories, recommendations, item_categories, top)
    want_kl, want = _reference_category_kl(histories, recommendations, item_categories, top)
    assert kl == want_kl
    assert [(x.user, x.categories) for x in profiles] == [(y.user, y.categories) for y in want]
    for x, y in zip(profiles, want):
        assert x.history.dtype == y.history.dtype and np.array_equal(x.history, y.history)
        assert np.array_equal(x.recommended, y.recommended)


@st.composite
def category_cases(draw):
    """Repeated items, items with no, one or several (even repeated)
    categories, items missing from the category map, users with no list, and
    up to 14 categories per user, so per-user sums run past 8 terms."""
    m = draw(st.integers(1, 30))
    labels = st.integers(-3, 40)
    item_categories = {i: draw(st.lists(labels, max_size=3))
                       for i in draw(st.sets(st.integers(0, m - 1)))}
    items = st.lists(st.integers(0, m - 1), max_size=40)
    users = draw(st.lists(st.integers(0, 50), max_size=12, unique=True))
    histories = {u: draw(items) for u in users}
    recommendations = {u: np.array(draw(items), dtype=np.int64)
                       for u in users if draw(st.booleans())}
    return histories, recommendations, item_categories, draw(st.integers(1, 14))


class TestCategoryKlMatchesPerUserReference:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(category_cases())
    def test_property(self, case):
        assert_kl_equals_reference(*case)

    @pytest.mark.parametrize("seed", range(5))
    def test_desk(self, seed):
        data = synthetic.generate(200, 300, 5, seed=seed)
        ds = split_dataset(data.dataset, (0.72, 0.08, 0.2), seed=seed)
        rng = np.random.default_rng(seed)
        recs = recommend_all(rng.normal(size=(ds.n, 16)), rng.normal(size=(ds.m, 16)), ds, 20)
        histories = {u: ds.train_items(u).tolist() for u in range(ds.n)}
        for top in (1, 3, 6):
            assert_kl_equals_reference(histories, recs, data.item_categories, top)

    def test_mid_shape(self):
        # 3000 users x 2000 items over 10 categories, 40-80 history and 20
        # recommended items per user
        rng = np.random.default_rng(0)
        item_categories = {i: [int(c)] for i, c in enumerate(rng.integers(0, 10, size=2000))}
        histories = {u: sorted(rng.choice(2000, size=int(rng.integers(40, 81)),
                                          replace=False).tolist())
                     for u in range(3000)}
        recs = {u: rng.choice(2000, size=20, replace=False) for u in range(3000)}
        assert_kl_equals_reference(histories, recs, item_categories, 6)


class TestReports:
    def test_recommend_all_excludes_train(self, tiny_dataset):
        rng = np.random.default_rng(0)
        g_u = rng.normal(size=(tiny_dataset.n, 3))
        g_v = rng.normal(size=(tiny_dataset.m, 3))
        recs = recommend_all(g_u, g_v, tiny_dataset, 5)
        for u, rec in recs.items():
            assert not (set(rec.tolist()) & set(tiny_dataset.train_items(u).tolist()))

    def test_report_files(self, tmp_path):
        rep = ranking_metrics({0: np.array([1])}, {0: {1}}, [1, 5])
        write_report_text(rep, tmp_path / "m.tsv")
        write_report_json(rep, tmp_path / "m.json")
        lines = (tmp_path / "m.tsv").read_text().splitlines()
        assert lines[0] == "metric\tn\tvalue"
        doc = json.loads((tmp_path / "m.json").read_text())
        assert doc["users_evaluated"] == 1
        assert "ndcg" in doc["metrics"]

    def test_report_json_deterministic(self, tmp_path):
        rep = ranking_metrics({0: np.array([1, 2])}, {0: {2}}, [2])
        write_report_json(rep, tmp_path / "a.json")
        write_report_json(rep, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
