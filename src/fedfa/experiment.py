"""Experiment driver: local training loops, baselines, metric emission."""

from __future__ import annotations

import json
import os
import time

import numpy as np

from . import checkpoint
from . import data as datamod
from .augment import FfaConfig, augment, variant_variances
from .config import DatasetConfig, ExperimentConfig
from .federation import (ClientState, LocalResult, RoundReport, ServerState,
                         run_round)
from .layers import (default_net_spec, init_params, net_backward,
                     net_forward, predict, softmax_cross_entropy_backward,
                     softmax_cross_entropy_forward)
# training builds no ConvNet, but perfbench's tracer self-test reaches the
# class through this module
from .layers import ConvNet  # noqa: F401
from .optim import Sgd
from .rng import stream
from .stats import MomentumStats, batch_variances, momentum_update


def resolve_run_root(run_root=None) -> str:
    return run_root or os.environ.get("FEDFA_RUN_ROOT", "runs")


def build_dataset(dcfg: DatasetConfig, m: int, seed: int) -> datamod.FederatedDataset:
    spec = datamod.TaskSpec(classes=dcfg.classes, image_size=dcfg.image_size,
                            channels=dcfg.channels, noise=dcfg.noise)
    base = datamod.make_base_sampler(spec, seed)
    if dcfg.kind == "feature_shift":
        return datamod.make_feature_shift(
            base, m, dcfg.shift_strength, seed,
            dcfg.train_per_client, dcfg.test_per_client)
    n = m * (dcfg.train_per_client + dcfg.test_per_client)
    rng = stream(seed, "data", 99)
    y = base.labels(n, rng)
    if dcfg.kind == "dirichlet":
        part = datamod.dirichlet_partition(y, m, dcfg.concentration, seed,
                                           dcfg.test_fraction, classes=dcfg.classes)
    else:
        part = datamod.size_skew(y, m, dcfg.size_ratio, seed, dcfg.test_fraction,
                                 classes=dcfg.classes)
    return datamod.partition_dataset(base, y, part, rng)


def mixup_batch(x: np.ndarray, y: np.ndarray, beta_param: float,
                rng: np.random.Generator, lam: float | None = None):
    """Convex combination of the batch with a shuffled copy of itself.

    Returns (x_mixed, y, y_partner, lam); the loss is the lam-weighted sum
    of the losses against both label vectors.
    """
    if beta_param <= 0:
        raise ValueError("beta_param must be positive")
    if x.shape[0] < 2:
        return x, y, y, 1.0
    if lam is None:
        lam = float(rng.beta(beta_param, beta_param))
    perm = rng.permutation(x.shape[0])
    x_mixed = lam * x + (1.0 - lam) * x[perm]
    return x_mixed, y, y[perm], lam


def batch_grads(net_spec, params: dict[str, np.ndarray], x: np.ndarray,
                targets, hooks=None) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and parameter gradients of one batch, graph-free.

    targets is a sequence of (labels, weight): the loss is the weighted sum
    of the cross entropies of the logits against each label vector, one
    term for a plain batch (weight 1.0) and two for a mixup batch. The
    gradients are the chain of kernel pairs over ``net_forward``'s tape,
    bit for bit those of ``ConvNet.forward`` and ``Tensor.backward`` on
    the same loss.
    """
    tape: list = []
    logits = net_forward(net_spec, params, x, hooks, tape)
    loss = g = None
    for labels, weight in targets:
        value, ctx = softmax_cross_entropy_forward(logits, labels)
        term = softmax_cross_entropy_backward(weight, ctx)
        if g is None:
            loss, g = value * weight, term
        else:
            loss = loss + value * weight
            g += term
    return float(loss), net_backward(tape, g)


def make_train_fn(cfg: ExperimentConfig, net_spec):
    """Build the per-client local training function for one experiment.

    Every batch runs through ``batch_grads``; no autodiff graph is built.
    The FedFA variants give each client fresh momentum statistics per
    round, updated whenever a gate fires and returned for upload.
    """
    method = cfg.method
    ffa_cfg = (FfaConfig(p=cfg.p, variant=method.variant,
                         random_std=cfg.random_std) if method.variant else None)
    channels = net_spec.stage_channels if ffa_cfg else ()

    def train_fn(client: ClientState, round_index: int,
                 params: dict[str, np.ndarray], coeffs) -> LocalResult:
        # params are read-only views of the broadcast model (Sgd rebinds)
        opt = Sgd(dict(params), lr=cfg.lr,
                  prox_mu=cfg.prox_mu if method.prox else 0.0,
                  anchor=params if method.prox else None)
        momentum = [MomentumStats.fresh(c, cfg.alpha) for c in channels]
        mix_rng = (stream(cfg.seed, "mixup", round_index, client.client_id)
                   if method.mixup else None)

        def make_hook(k):
            rng = stream(cfg.seed, "ffa", round_index, client.client_id, k)
            gamma = (coeffs[k] if coeffs is not None and not cfg.force_zero_gamma
                     else None)

            def budget(st):
                # called only when the gate fires, with its one set of statistics
                momentum[k] = momentum_update(momentum[k], st)
                return variant_variances(ffa_cfg, batch_variances(st), gamma)

            return lambda x: augment(x, budget, ffa_cfg, rng)

        hooks = [make_hook(k) for k in range(len(channels))] if ffa_cfg else None
        x_all, y_all = client.data.x_train, client.data.y_train
        n = x_all.shape[0]
        losses = []
        for epoch in range(cfg.local_epochs):
            order = stream(cfg.seed, "shuffle", round_index,
                           client.client_id, epoch).permutation(n)
            for start in range(0, n, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                xb, yb = x_all[idx], y_all[idx]
                targets = ((yb, 1.0),)
                if method.mixup:
                    xb, ya, yb2, lam = mixup_batch(xb, yb, cfg.mixup_beta, mix_rng)
                    targets = ((ya, lam), (yb2, 1.0 - lam))
                loss, grads = batch_grads(net_spec, opt.params, xb, targets, hooks)
                opt.step(grads)
                losses.append(loss)
        return LocalResult(
            params=opt.params,
            momentum=momentum,
            train_loss=float(np.mean(losses)) if losses else float("nan"),
            n_samples=n,
        )

    return train_fn


def evaluate(params: dict[str, np.ndarray], net_spec, x: np.ndarray,
             y: np.ndarray) -> float:
    """Accuracy on a test set, scored in ``layers.inference_blocks``."""
    if x.shape[0] == 0:
        raise ValueError("evaluate: the test set is empty")
    hits = int((predict(net_spec, params, x) == y).sum())
    return hits / x.shape[0]


def _test_acc(server, net_spec, ds, client_ids) -> dict[int, float]:
    return {i: evaluate(server.params, net_spec,
                        ds.clients[i].x_test, ds.clients[i].y_test)
            for i in client_ids}


def federated_training(cfg: ExperimentConfig, ds, client_ids):
    """Train a federation over the given client indices.

    Returns (server, net_spec, records, timings): one metrics record per
    round, round 0 being the evaluation of the freshly initialized global
    model, and per round the seconds of run_round, of its local training
    and aggregation, and of the evaluation after it.
    """
    net_spec = default_net_spec(channels=cfg.dataset.channels,
                                image_size=cfg.dataset.image_size,
                                classes=ds.classes)
    init = {k: t.data for k, t in
            init_params(net_spec, stream(cfg.seed, "init")).items()}
    server = ServerState(
        params=init,
        stat_channels=net_spec.stage_channels if cfg.method.variant else (),
    )
    clients = [ClientState(client_id=i, data=ds.clients[i]) for i in client_ids]
    train_fn = make_train_fn(cfg, net_spec)

    report = RoundReport(round_index=0, selected=[], train_loss={})
    records = [report.record(_test_acc(server, net_spec, ds, client_ids))]
    timings = []
    for r in range(1, cfg.rounds + 1):
        report = run_round(server, clients, r, cfg, train_fn)
        t0 = time.perf_counter()
        test_acc = _test_acc(server, net_spec, ds, client_ids)
        timings.append((report.wall_clock, report.train_seconds,
                        report.aggregate_seconds, time.perf_counter() - t0))
        records.append(report.record(test_acc))
    return server, net_spec, records, timings


def run_experiment(cfg: ExperimentConfig, run_root=None) -> str:
    """Run one experiment end to end; returns the run directory path."""
    cfg.validate()
    run_dir = os.path.join(resolve_run_root(run_root), cfg.name)
    os.makedirs(run_dir, exist_ok=True)
    cfg.to_json(os.path.join(run_dir, "config.json"))

    t0 = time.perf_counter()
    ds = build_dataset(cfg.dataset, cfg.clients, cfg.seed)
    server, net_spec, records, timings = federated_training(
        cfg, ds, list(range(cfg.clients)))

    with open(os.path.join(run_dir, "metrics.jsonl"), "w") as f:
        for rec in records:
            f.write(json.dumps(rec, sort_keys=True) + "\n")
    checkpoint.save(os.path.join(run_dir, "model.bin"), server.params)
    with open(os.path.join(run_dir, "timing.txt"), "w") as f:
        f.write(f"total_seconds {time.perf_counter() - t0:.3f}\n")
        for i, (w, train, agg, ev) in enumerate(timings, start=1):
            f.write(f"round{i}_seconds {w:.3f} train {train:.3f} "
                    f"aggregate {agg:.3f} eval {ev:.3f}\n")
    return run_dir


def leave_one_out(cfg: ExperimentConfig, held_out_client: int,
                  run_root=None) -> dict:
    """Train on all clients but one; report generalization to the held-out.

    The dataset is built exactly as in run_experiment, so the held-out
    client's data is what it would have contributed in federation.
    """
    cfg.validate()
    if not 0 <= held_out_client < cfg.clients:
        raise ValueError(f"held_out_client must be in [0, {cfg.clients})")
    if cfg.clients < 2:
        raise ValueError("leave-one-out needs at least 2 clients")
    ds = build_dataset(cfg.dataset, cfg.clients, cfg.seed)
    train_ids = [i for i in range(cfg.clients) if i != held_out_client]
    server, net_spec, records, _ = federated_training(cfg, ds, train_ids)

    held = ds.clients[held_out_client]
    held_acc = evaluate(server.params, net_spec, held.x_test, held.y_test)
    in_fed = records[-1]["mean_test_acc"]
    result = {
        "held_out_client": held_out_client,
        "held_out_acc": held_acc,
        "in_federation_acc": in_fed,
        "participation_gap": in_fed - held_acc,
        "rounds": cfg.rounds,
        "algorithm": cfg.algorithm,
        "seed": cfg.seed,
    }
    if run_root is not None:
        run_dir = os.path.join(resolve_run_root(run_root),
                               f"{cfg.name}_loo{held_out_client}")
        os.makedirs(run_dir, exist_ok=True)
        cfg.to_json(os.path.join(run_dir, "config.json"))
        with open(os.path.join(run_dir, "leave_one_out.json"), "w") as f:
            json.dump(result, f, indent=2, sort_keys=True)
            f.write("\n")
    return result
