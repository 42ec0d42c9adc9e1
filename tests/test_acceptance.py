"""End-to-end acceptance checks for the adaptation toolkit.

One test per criterion. Each prints a single PASS/FAIL line with the
measured quantities, so `pytest -s tests/test_acceptance.py` reads as a
checklist; the assertions carry the same pinned tolerances.
"""

import math
import time

import numpy as np
import pytest

from kerndep.adapt import AdaptConfig, LinearHead, dependence_loss_and_grad, run_episode
from kerndep.evaluation import ci95, evaluate
from kerndep.hsic import (
    hsic_unbiased,
    hsic_variance,
    select_bandwidth,
)
from kerndep.kernels import (
    GAUSSIAN,
    IMQ,
    label_kernel_matrix,
)
from kerndep.tasks import (
    EmbeddingDataset,
    SamplerConfig,
    load_embeddings,
    sample_task,
    save_embeddings,
    synth_dataset,
    synth_task,
)
from oracles import KernelSpec, exp_mean_bound_holds, hsic_unbiased_naive, kernel_matrix


def report(number, label, ok, detail):
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'} {detail}")


def rand_gram(rng, m):
    a = rng.normal(size=(m, m))
    g = (a + a.T) / 2.0
    np.fill_diagonal(g, 0.0)
    return g


def test_criterion_01_estimator_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(4, 17))
        kt = rand_gram(rng, m)
        lt = rand_gram(rng, m)
        diff = abs(hsic_unbiased(kt, lt) - hsic_unbiased_naive(kt, lt))
        worst = max(worst, diff)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    report(1, "estimator-oracle equivalence", ok,
           f"max|diff|={worst:.3e} over 1000 instances, elapsed={elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_criterion_02_closed_form_zero_cases():
    kt = np.ones((4, 4)) - np.eye(4)
    value = hsic_unbiased(kt, kt)
    variance = hsic_variance(kt, kt, value)
    raw = hsic_variance(kt, kt, value, clamp=False)
    ok = abs(value) <= 1e-12 and abs(variance) <= 1e-12 and abs(raw) <= 1e-12
    report(2, "closed-form zero cases", ok,
           f"value={value!r} variance={variance!r} raw={raw!r}")
    assert value == 0.0
    assert variance == 0.0
    assert raw == 0.0


def test_criterion_03_statistical_unbiasedness_and_variance_reading():
    t0 = time.perf_counter()

    # part one: the estimator is mean-zero under independent draws
    rng = np.random.default_rng(20240311)
    m = 20
    base_labels = np.repeat(np.arange(4), 5)
    values = np.empty(2000)
    for i in range(2000):
        z = rng.standard_normal((m, 4))
        y = rng.permutation(base_labels)
        kt = kernel_matrix(KernelSpec(GAUSSIAN, 1.0), z, zero_diag=True)
        lt = label_kernel_matrix(y, zero_diag=True)
        values[i] = hsic_unbiased(kt, lt)
    mean = values.mean()
    se = values.std(ddof=1) / math.sqrt(values.size)
    sigmas_off = abs(mean) / se

    # part two: the variance formula's normalization must be consistent
    # with the estimator's observed spread; the alternative reading of the
    # falling-factorial power is off by orders of magnitude
    rng2 = np.random.default_rng(515151)
    vals, est_sq, est_lin = [], [], []
    for _ in range(300):
        centers = rng2.normal(0.0, 3.0, (4, 5))
        y = np.repeat(np.arange(4), 10)
        z = centers[y] + rng2.normal(0.0, 1.0, (40, 5))
        kt = kernel_matrix(KernelSpec(GAUSSIAN, 2.0), z, zero_diag=True)
        lt = label_kernel_matrix(y, zero_diag=True)
        v = hsic_unbiased(kt, lt)
        vals.append(v)
        est_sq.append(hsic_variance(kt, lt, v))
        # the rejected linear reading divides the second moment by D, not D^2
        n = len(y)
        big_d = (n - 1.0) * (n - 2.0) * (n - 3.0)
        raw = hsic_variance(kt, lt, v, clamp=False)
        est_lin.append(big_d * raw + (16.0 / n) * (big_d - 1.0) * v * v)
    empirical = np.var(vals, ddof=1)
    ratio_squared = float(np.mean(est_sq)) / empirical
    ratio_linear = float(np.mean(est_lin)) / empirical

    elapsed = time.perf_counter() - t0
    ok = (
        sigmas_off <= 4.0
        and 1.0 / 3.0 <= ratio_squared <= 3.0
        and not (1.0 / 3.0 <= ratio_linear <= 3.0)
        and elapsed < 60.0
    )
    report(3, "statistical unbiasedness", ok,
           f"|mean|/se={sigmas_off:.2f}, variance ratio squared={ratio_squared:.3f} "
           f"linear={ratio_linear:.3e}, elapsed={elapsed:.1f}s")
    assert sigmas_off <= 4.0
    assert 1.0 / 3.0 <= ratio_squared <= 3.0
    assert not (1.0 / 3.0 <= ratio_linear <= 3.0)
    assert elapsed < 60.0


def test_criterion_04_gradient_check():
    t0 = time.perf_counter()
    worst = 0.0
    families = (GAUSSIAN, IMQ)
    gammas = (0.0, 1.0, 3.0)
    for trial in range(50):
        rng = np.random.default_rng(7000 + trial)
        m = int(rng.integers(6, 13))
        d = int(rng.integers(3, 7))
        u = rng.normal(size=(m, d))
        y = np.sort(rng.integers(0, 3, size=m))
        while np.unique(y).size < 2:
            y = np.sort(rng.integers(0, 3, size=m))
        y = np.unique(y, return_inverse=True)[1]
        head = LinearHead(np.eye(d) + 0.1 * rng.normal(size=(d, d)))
        family = families[trial % 2]
        gamma = gammas[trial % 3]
        normalize = bool(trial % 4 < 2)
        sigma_zy, sigma_zz = 1.2, 0.8

        _, grad = dependence_loss_and_grad(head, u, y, sigma_zy, sigma_zz, gamma,
                                           family, normalize)
        fd = np.zeros_like(grad)
        step = 1e-5
        for i in range(d):
            for j in range(d):
                plus = head.theta.copy()
                plus[i, j] += step
                minus = head.theta.copy()
                minus[i, j] -= step
                up, _ = dependence_loss_and_grad(
                    LinearHead(plus), u, y, sigma_zy, sigma_zz, gamma, family, normalize)
                down, _ = dependence_loss_and_grad(
                    LinearHead(minus), u, y, sigma_zy, sigma_zz, gamma, family, normalize)
                fd[i, j] = (up - down) / (2.0 * step)
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 60.0
    report(4, "gradient check", ok,
           f"worst rel err={worst:.3e} over 50 instances, elapsed={elapsed:.1f}s")
    assert worst <= 1e-4
    assert elapsed < 60.0


def test_criterion_05_bandwidth_argmax_property():
    rng = np.random.default_rng(303)
    for trial in range(100):
        m = int(rng.integers(8, 21))
        d = int(rng.integers(2, 6))
        z = rng.normal(size=(m, d)) + rng.normal(size=(1, d)) * 2.0
        if trial % 2 == 0:
            n_classes = int(rng.integers(2, 4))
            y = np.sort(rng.integers(0, n_classes, size=m))
            while np.unique(y).size < n_classes:
                y = np.sort(rng.integers(0, n_classes, size=m))
            sel = select_bandwidth(z, y)
        else:
            sel = select_bandwidth(z, z)
        assert len(sel.table) == 15
        best = next(r for r in sel.table if r.sigma == sel.sigma)
        assert all(best.power_ratio >= r.power_ratio for r in sel.table)
    report(5, "bandwidth argmax property", True,
           "selected ratio >= every grid row on 100 random inputs")


def similarity_gap(result):
    labels = np.repeat(np.arange(5), 10)
    sims = result.support_similarity
    same = labels[:, None] == labels[None, :]
    off_diag = ~np.eye(labels.size, dtype=bool)
    within = sims[same & off_diag].mean()
    between = sims[~same].mean()
    return within - between


def test_criterion_06_episode_convergence():
    t0 = time.perf_counter()
    accuracies = []
    gaps = []
    cfg = AdaptConfig(gamma=3.0, steps=40)
    for i in range(100):
        rng = np.random.default_rng([606060, i])
        task = synth_task(5, 10, 10, 16, 6.0, 1.0, rng, seed=606060, episode=i)
        result = run_episode(task, cfg)
        accuracies.append(result.query_accuracy)
        gaps.append(similarity_gap(result))
    mean_acc = float(np.mean(accuracies))
    mean_gap = float(np.mean(gaps))
    elapsed = time.perf_counter() - t0
    ok = mean_acc >= 0.99 and mean_gap >= 0.2 and elapsed < 180.0
    report(6, "episode convergence", ok,
           f"mean accuracy={mean_acc:.4f}, similarity gap={mean_gap:.3f}, "
           f"elapsed={elapsed:.1f}s")
    assert mean_acc >= 0.99
    assert mean_gap >= 0.2
    assert elapsed < 180.0


def test_criterion_07_gamma_ablation_direction():
    t0 = time.perf_counter()
    with_penalty = AdaptConfig(gamma=3.0, steps=480, learning_rate=2.0)
    without = AdaptConfig(gamma=0.0, steps=480, learning_rate=2.0)
    diffs = []
    for seed in range(50):
        rng = np.random.default_rng([707070, seed])
        task = synth_task(5, 10, 10, 16, 3.0, 1.5, rng, seed=707070, episode=seed)
        acc_with = run_episode(task, with_penalty).query_accuracy
        rng = np.random.default_rng([707070, seed])
        task = synth_task(5, 10, 10, 16, 3.0, 1.5, rng, seed=707070, episode=seed)
        acc_without = run_episode(task, without).query_accuracy
        diffs.append(acc_with - acc_without)
    mean_diff = float(np.mean(diffs))
    elapsed = time.perf_counter() - t0
    ok = mean_diff >= 0.0
    report(7, "gamma-ablation direction", ok,
           f"paired mean accuracy difference={mean_diff:+.4f} over 50 seeds "
           f"(positive favors the self-dependence penalty), elapsed={elapsed:.1f}s")
    assert mean_diff >= 0.0


def test_criterion_08_sampler_conformance():
    t0 = time.perf_counter()
    rng_pool = np.random.default_rng(888)
    sizes = rng_pool.integers(2, 301, size=25)
    classes = [rng_pool.normal(size=(int(s), 6)) for s in sizes]
    pool = EmbeddingDataset(classes=classes, d=6, name="conformance")
    cfg = SamplerConfig()

    log_half, log_two = math.log(0.5), math.log(2.0)
    stream = np.random.default_rng(999)
    replay = np.random.default_rng(999)
    eligible = [i for i, s in enumerate(pool.sizes) if s >= 2]
    checked = 0
    for _ in range(10_000):
        task = sample_task(pool, cfg, stream)

        # straight-line transcription of the documented draw order
        upper = min(cfg.n_max, len(eligible))
        n_way = int(replay.integers(5, upper + 1))
        chosen = replay.choice(len(eligible), size=n_way, replace=False)
        class_ids = [eligible[i] for i in chosen]
        csizes = [pool.sizes[c] for c in class_ids]
        q = min(cfg.max_query_per_class, min(s // 2 for s in csizes))
        beta = 1.0 - float(replay.random())
        s = min(
            cfg.max_support,
            sum(math.ceil(beta * min(cfg.max_shots_per_class, c - q)) for c in csizes),
        )
        alphas = replay.uniform(log_half, log_two, size=n_way)
        weights = np.exp(alphas) * np.asarray(csizes, dtype=np.float64)
        ratios = weights / weights.sum()
        shots = [
            int(min(math.floor(r * (s - n_way)) + 1, c - q))
            for r, c in zip(ratios, csizes)
        ]
        support_rows, query_rows = [], []
        for class_id, k in zip(class_ids, shots):
            mat = pool.classes[class_id]
            idx = replay.choice(mat.shape[0], size=k + q, replace=False)
            support_rows.append(mat[idx[:k]])
            query_rows.append(mat[idx[k:]])

        assert np.array_equal(task.support_x, np.concatenate(support_rows))
        assert np.array_equal(task.query_x, np.concatenate(query_rows))
        assert np.array_equal(
            task.support_y, np.repeat(np.arange(n_way, dtype=np.int64), shots)
        )

        # protocol invariants
        assert 5 <= n_way <= cfg.n_max
        assert 1 <= q <= 10
        counts = np.bincount(task.support_y, minlength=n_way)
        assert (counts >= 1).all()
        assert counts.sum() <= 500
        for c in range(n_way):
            sup = {r.tobytes() for r in task.support_x[task.support_y == c]}
            que = {r.tobytes() for r in task.query_x[task.query_y == c]}
            assert not sup & que
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 10_000
    report(8, "sampler conformance", ok,
           f"{checked} tasks matched the transcription and invariants, "
           f"elapsed={elapsed:.1f}s")
    assert checked == 10_000


def test_criterion_09_exponential_mean_bound_sweep():
    rng = np.random.default_rng(1234)
    slack = math.e + (math.e - 1.0) * math.log(math.e - 1.0)
    total = 0
    for n, count in ((3, 40_000), (16, 40_000), (64, 20_000)):
        batch = rng.random((count, n))
        lhs = np.exp(batch.mean(axis=1))
        rhs = np.exp(batch).mean(axis=1) - slack
        assert (lhs >= rhs).all()
        total += count
    # the library predicate agrees with the sweep on a sample
    sample = rng.random((200, 8))
    assert all(exp_mean_bound_holds(row) for row in sample)
    report(9, "exponential-mean bound sweep", True,
           f"bound held on {total} random vectors")
    assert total == 100_000


def test_criterion_10_determinism_and_round_trips(tmp_path):
    pool = synth_dataset(8, 30, 8, 6.0, 1.0, np.random.default_rng(10))
    cfg = AdaptConfig(steps=5)
    a = evaluate(pool, SamplerConfig(), cfg, 5, base_seed=77)
    b = evaluate(pool, SamplerConfig(), cfg, 5, base_seed=77)
    deterministic = (
        a.mean_accuracy == b.mean_accuracy
        and a.ci95 == b.ci95
        and a.per_episode == b.per_episode
    )

    rng = np.random.default_rng(40)
    ds = EmbeddingDataset(
        classes=[rng.normal(size=(int(rng.integers(1, 6)), 4)).astype(np.float32)
                 for _ in range(4)],
        d=4,
        name="roundtrip",
    )
    exact = True
    for name in ("rt.emb", "rt.csv"):
        p1 = tmp_path / name
        p2 = tmp_path / ("again_" + name)
        save_embeddings(ds, p1)
        loaded = load_embeddings(p1)
        save_embeddings(loaded, p2)
        exact &= p1.read_bytes() == p2.read_bytes()
        exact &= all(
            np.array_equal(x, y) for x, y in zip(ds.classes, loaded.classes)
        )

    ok = deterministic and exact
    report(10, "determinism and format round-trips", ok,
           f"reports identical={deterministic}, round-trips exact={exact}")
    assert deterministic
    assert exact
