import functools

import numpy as np

from crossfuse import gradcheck
from crossfuse.gradcheck import (central_difference, max_abs_error, max_rel_error,
                                 random_instance, run_suite)


def test_central_difference_on_quadratic():
    x = np.array([1.0, -2.0, 3.0])

    def f():
        return float(np.sum(x ** 2) + 2.0 * x[0] * x[1])

    grad = central_difference(f, x)
    expect = 2 * x + np.array([2 * x[1], 2 * x[0], 0.0])
    assert max_abs_error(grad, expect) < 1e-8
    assert np.array_equal(x, [1.0, -2.0, 3.0])  # restored after probing


def test_error_metrics():
    assert max_rel_error(np.array([1.0]), np.array([1.0])) == 0.0
    assert max_rel_error(np.array([2.0]), np.array([1.0])) == 0.5
    assert max_rel_error(np.array([1e-9]), np.array([0.0])) <= 1e-9


def test_random_instance_is_well_formed():
    inst = random_instance(3)
    assert inst.ds.n == 8
    assert inst.ds.m == 12
    assert inst.g_users.shape == (8, 4)
    # every ranked row pairs a held item with an unseen one
    for u, ip, ineg in zip(*inst.ranked):
        assert ip in set(inst.ds.train_items(int(u)).tolist())
        assert ineg not in set(inst.ds.train_items(int(u)).tolist())


def test_suite_passes_and_is_complete():
    results = run_suite(seed=123)
    names = [r.name for r in results]
    assert len(results) == 12
    assert len(set(names)) == 12
    for r in results:
        assert r.passed, f"{r.name}: {r.max_error}"


def test_suite_detects_a_broken_gradient(monkeypatch):
    # a check held to a tolerance below attainable float precision must fail
    original = gradcheck._check_concat_grad

    @functools.wraps(original)
    def impossible(inst, rng):
        result = original(inst, rng)
        return gradcheck.CheckResult(result.name, result.max_error, 1e-18)

    monkeypatch.setattr(gradcheck, "_check_concat_grad", impossible)
    results = run_suite(seed=0)
    assert any(not r.passed for r in results)


def test_repeated_rows_check_covers_merged_node_classes(monkeypatch):
    # the last two groupings of a suite run are the repeated-rows check's
    seen = []
    group = gradcheck.auxnet.node_classes

    def spy(x, sim):
        classes = group(x, sim)
        seen.append((sim.shape[0], len(classes.counts), classes.sim.nnz))
        return classes

    monkeypatch.setattr(gradcheck.auxnet, "node_classes", spy)
    for seed in range(4):
        seen.clear()
        results = run_suite(seed=seed)
        assert len(results) == 12 and all(r.passed for r in results)
        for nodes, classes, stored in seen[-2:]:
            assert classes < nodes      # some isolated nodes merged
            assert stored > classes     # and other nodes still have neighbours


def test_each_check_draws_its_own_inputs(monkeypatch):
    # a check that draws more numbers changes its own result and no other's
    base = run_suite(seed=7)
    original = gradcheck._check_bpr_embedding_grad

    @functools.wraps(original)
    def greedy(inst, rng):
        rng.normal(size=1000)
        return original(inst, rng)

    monkeypatch.setattr(gradcheck, "_check_bpr_embedding_grad", greedy)
    changed = run_suite(seed=7)
    assert changed[0].max_error != base[0].max_error
    assert [(r.name, r.max_error) for r in changed[1:]] == [
        (r.name, r.max_error) for r in base[1:]]
