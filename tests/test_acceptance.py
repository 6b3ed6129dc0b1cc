"""Acceptance gate: nine checks covering identities, oracles, orderings.

Each test prints exactly one pass/fail line (visible under pytest -s) and
asserts the same condition, so the -v listing doubles as the scoreboard.
"""

import json
import os
import time

import numpy as np

from fedfa.augment import FfaConfig, augment, ffa_transform, modulate, noise_view
from fedfa.config import DatasetConfig, ExperimentConfig
from fedfa.experiment import (build_dataset, federated_training,
                              leave_one_out, run_experiment)
from fedfa.federation import comm_cost
from fedfa.layers import (ConvNet, channel_mean_std, conv2d, default_net_spec,
                          global_avg_pool, init_params, linear, maxpool2x2,
                          softmax_cross_entropy)
from fedfa.rng import stream
from fedfa.tensor import Tensor
from gradcheck import check_grads

SEEDS = (0, 1, 2, 3, 4)


def _verdict(n, ok, detail):
    line = f"[criterion {n}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


# 1 -------------------------------------------------------------------------

def test_criterion_1_additive_noise_identity():
    rng = stream(0, "noise", 1)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        b = int(rng.integers(1, 5))
        c = int(rng.integers(1, 9))
        h = int(rng.integers(2, 7))
        w = int(rng.integers(2, 7))
        x = rng.standard_normal((b, c, h, w)) * rng.uniform(0.5, 3.0)
        fused = np.stack((rng.uniform(0, 2, c), rng.uniform(0, 2, c)))
        eps = (rng.standard_normal((b, c)), rng.standard_normal((b, c)))
        x_hat, used = augment(Tensor(x), fused, FfaConfig(), rng, eps=eps)
        e = noise_view(x, fused, used)
        worst = max(worst, float(np.abs(x_hat.data - (x + e)).max()))
    elapsed = time.perf_counter() - t0
    _verdict(1, worst < 1e-9 and elapsed < 10,
             f"perturbation == x + noise over 1000 cases: "
             f"max dev {worst:.2e}, {elapsed:.1f}s")


# 2 -------------------------------------------------------------------------

def test_criterion_2_modulation_normalization():
    rng = stream(0, "noise", 2)
    worst = 0.0
    for _ in range(1000):
        c = int(rng.integers(1, 513))
        v = rng.uniform(0, 10, c) * (rng.random(c) > 0.05)
        gamma = modulate(v)
        worst = max(worst, abs(float(gamma.sum()) - c))
    uniform_ok = all(
        np.array_equal(modulate(np.full(c, val)), np.ones(c))
        for c in (1, 3, 64) for val in (0.0, 0.5, 7.0))
    _verdict(2, worst < 1e-9 and uniform_ok,
             f"coefficients sum to C over 1000 vectors: max dev {worst:.2e}, "
             f"equal-input vectors give all-ones: {uniform_ok}")


# 3 -------------------------------------------------------------------------

def test_criterion_3_gradient_oracle():
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst = {}

    r_conv = rng.standard_normal((2, 4, 5, 5))
    worst["conv2d"] = check_grads(
        lambda x, w, b: (conv2d(x, w, b, stride=1, padding=1) * Tensor(r_conv)).sum(),
        [rng.standard_normal((2, 3, 5, 5)), rng.standard_normal((4, 3, 3, 3)),
         rng.standard_normal(4)])

    r_strided = rng.standard_normal((2, 4, 2, 2))
    worst["conv2d_strided"] = check_grads(
        lambda x, w, b: (conv2d(x, w, b, stride=2, padding=0) * Tensor(r_strided)).sum(),
        [rng.standard_normal((2, 3, 5, 5)), rng.standard_normal((4, 3, 2, 2)),
         rng.standard_normal(4)])

    r_relu = rng.standard_normal((3, 4))
    pre = rng.standard_normal((3, 4))
    pre += np.sign(pre) * 0.2  # keep the kink away from the FD probes
    worst["relu"] = check_grads(
        lambda x: (x.relu() * Tensor(r_relu)).sum(), [pre])

    # distinct values keep the argmax stable under FD probes
    pool_in = rng.permutation(2 * 2 * 4 * 4).astype(np.float64).reshape(2, 2, 4, 4)
    r_pool = rng.standard_normal((2, 2, 2, 2))
    worst["maxpool2x2"] = check_grads(
        lambda x: (maxpool2x2(x) * Tensor(r_pool)).sum(), [pool_in])

    r_gap = rng.standard_normal((2, 3))
    worst["global_avg_pool"] = check_grads(
        lambda x: (global_avg_pool(x) * Tensor(r_gap)).sum(),
        [rng.standard_normal((2, 3, 4, 4))])

    r_lin = rng.standard_normal((4, 6))
    worst["linear"] = check_grads(
        lambda x, w, b: (linear(x, w, b) * Tensor(r_lin)).sum(),
        [rng.standard_normal((4, 5)), rng.standard_normal((5, 6)),
         rng.standard_normal(6)])

    y = rng.integers(0, 5, size=6)
    worst["cross_entropy"] = check_grads(
        lambda z: softmax_cross_entropy(z, y), [rng.standard_normal((6, 5))])

    r_mu = rng.standard_normal((2, 3))
    worst["channel_stats"] = check_grads(
        lambda x: ((channel_mean_std(x)[0].reshape((2, 3)) * Tensor(r_mu)).sum()
                   + (channel_mean_std(x)[1].reshape((2, 3)) * Tensor(r_mu)).sum()),
        [rng.standard_normal((2, 3, 4, 4))])

    fused = np.stack((rng.uniform(0.1, 2, 3), rng.uniform(0.1, 2, 3)))
    eps = (rng.standard_normal((2, 3)), rng.standard_normal((2, 3)))
    r_ffa = rng.standard_normal((2, 3, 4, 4))
    worst["ffa_transform"] = check_grads(
        lambda x: (ffa_transform(x, fused, *eps) * Tensor(r_ffa)).sum(),
        [rng.standard_normal((2, 3, 4, 4))])

    spec = default_net_spec(channels=2, image_size=4, classes=3)
    params = init_params(spec, stream(0, "init"))
    xb = rng.standard_normal((2, 2, 4, 4))
    yb = rng.integers(0, 3, size=2)
    names = list(params)

    def net_loss(*arrs):
        p = {k: t for k, t in zip(names, arrs)}
        logits, _ = ConvNet(spec, p).forward(Tensor(xb))
        return softmax_cross_entropy(logits, yb)

    worst["convnet_end_to_end"] = check_grads(
        net_loss, [params[k].data.copy() for k in names])

    elapsed = time.perf_counter() - t0
    bad = {k: v for k, v in worst.items() if v >= 1e-4}
    _verdict(3, not bad and elapsed < 60,
             f"finite-difference oracle on {len(worst)} ops: worst rel err "
             f"{max(worst.values()):.1e} ({max(worst, key=worst.get)}), "
             f"{elapsed:.1f}s")


# 4 -------------------------------------------------------------------------

def test_criterion_4_second_order_residual():
    from fedfa.theory import reference_check
    t0 = time.perf_counter()
    report = reference_check(seed=0, scales=np.logspace(-1, -4, 7))
    elapsed = time.perf_counter() - t0
    ok = report.exponent is not None and 1.8 <= report.exponent <= 2.2
    _verdict(4, ok and elapsed < 30,
             f"log-log residual slope {report.exponent:.4f} in [1.8, 2.2], "
             f"{elapsed:.1f}s")


# 5 -------------------------------------------------------------------------

def test_criterion_5_communication_cost():
    a = comm_cost([64, 192, 384, 256, 256], 4)
    b = comm_cost([32, 64, 128, 256, 512], 4)
    _verdict(5, a == 18432 and b == 15872,
             f"statistic exchange bytes: {a} (want 18432), {b} (want 15872)")


# 6 -------------------------------------------------------------------------

def _trajectory(cfg):
    ds = build_dataset(cfg.dataset, cfg.clients, cfg.seed)
    _, _, records, _ = federated_training(cfg, ds, list(range(cfg.clients)))
    return [(rec["mean_train_loss"], tuple(sorted(rec["train_loss"].items())),
             tuple(sorted(rec["test_acc"].items())), rec["mean_test_acc"])
            for rec in records]


def test_criterion_6_reduction_identities():
    ds = DatasetConfig(classes=4, image_size=8, channels=3, noise=0.5,
                       train_per_client=16, test_per_client=8)
    base = dict(rounds=3, clients=3, lr=0.05, batch_size=8, seed=1, dataset=ds)

    fedavg = _trajectory(ExperimentConfig(algorithm="fedavg", **base))
    gate_off = _trajectory(ExperimentConfig(algorithm="fedfa", p=0.0, **base))
    prox_off = _trajectory(ExperimentConfig(algorithm="fedprox", prox_mu=0.0,
                                            **base))
    fedfa_c = _trajectory(ExperimentConfig(algorithm="fedfa-c", **base))
    zero_gamma = _trajectory(ExperimentConfig(algorithm="fedfa",
                                              force_zero_gamma=True, **base))
    fedfa = _trajectory(ExperimentConfig(algorithm="fedfa", **base))

    ok1 = gate_off == fedavg
    ok2 = prox_off == fedavg
    ok3 = zero_gamma == fedfa_c
    distinct = fedfa != fedfa_c  # sanity: the fused variant actually differs
    _verdict(6, ok1 and ok2 and ok3 and distinct,
             f"p=0 == plain averaging: {ok1}; zero proximal == plain: {ok2}; "
             f"zero coefficients == client-only: {ok3}; "
             f"full variant distinct: {distinct}")


# 7 -------------------------------------------------------------------------

def _final_acc(algorithm, seed, ds):
    cfg = ExperimentConfig(algorithm=algorithm, seed=seed)
    _, _, records, _ = federated_training(cfg, ds, list(range(cfg.clients)))
    return records[-1]["mean_test_acc"]


def test_criterion_7_ordering_against_baselines():
    t0 = time.perf_counter()
    acc = {a: [] for a in ("fedavg", "fedfa", "fedfa-r")}
    for seed in SEEDS:
        ds = build_dataset(ExperimentConfig(seed=seed).dataset, 4, seed)
        for a in acc:
            acc[a].append(_final_acc(a, seed, ds))
    elapsed = time.perf_counter() - t0

    means = {a: float(np.mean(v)) for a, v in acc.items()}
    beats_avg = sum(f >= a for f, a in zip(acc["fedfa"], acc["fedavg"]))
    beats_rand = sum(f >= r for f, r in zip(acc["fedfa"], acc["fedfa-r"]))
    ok = (means["fedfa"] >= means["fedavg"]
          and means["fedfa"] >= means["fedfa-r"]
          and beats_avg >= 4 and beats_rand >= 4)
    _verdict(7, ok and elapsed < 900,
             f"mean acc fedfa {means['fedfa']:.3f} vs fedavg "
             f"{means['fedavg']:.3f} vs fedfa-r {means['fedfa-r']:.3f}; "
             f"per-seed wins {beats_avg}/5 and {beats_rand}/5, {elapsed:.0f}s")


# 8 -------------------------------------------------------------------------

def test_criterion_8_held_out_client_ordering():
    t0 = time.perf_counter()
    held = 3
    wins = 0
    gaps = []
    for seed in SEEDS:
        avg = leave_one_out(ExperimentConfig(algorithm="fedavg", seed=seed), held)
        ffa = leave_one_out(ExperimentConfig(algorithm="fedfa", seed=seed), held)
        wins += ffa["held_out_acc"] >= avg["held_out_acc"]
        gaps.append((avg["held_out_acc"], ffa["held_out_acc"]))
    elapsed = time.perf_counter() - t0
    _verdict(8, wins >= 4 and elapsed < 900,
             f"held-out client accuracy fedfa >= fedavg in {wins}/5 seeds "
             f"{[(f'{a:.3f}', f'{b:.3f}') for a, b in gaps]}, {elapsed:.0f}s")


# 9 -------------------------------------------------------------------------

def test_criterion_9_byte_identical_reruns(tmp_path):
    cfg = ExperimentConfig(
        algorithm="fedfa", rounds=3, clients=2, batch_size=8, seed=0,
        dataset=DatasetConfig(classes=3, image_size=4, channels=2, noise=0.5,
                              train_per_client=8, test_per_client=4))
    d1 = run_experiment(cfg, run_root=tmp_path / "a")
    d2 = run_experiment(cfg, run_root=tmp_path / "b")
    pairs = {}
    for name in ("metrics.jsonl", "model.bin", "config.json"):
        b1 = open(os.path.join(d1, name), "rb").read()
        b2 = open(os.path.join(d2, name), "rb").read()
        pairs[name] = b1 == b2
    rec = json.loads(open(os.path.join(d1, "metrics.jsonl")).readlines()[-1])
    _verdict(9, all(pairs.values()) and rec["round"] == cfg.rounds,
             f"rerun artifacts byte-identical: {pairs}")
