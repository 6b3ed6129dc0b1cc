"""The graph-free training chain against the autodiff graph, batch by batch.

``experiment.batch_grads`` runs a batch through ``net_forward`` with a tape
and ``net_backward``, calling the kernel pairs directly. Its loss and every
parameter gradient must be those of ``ConvNet.forward`` and
``Tensor.backward`` on the same batch bit for bit, sign bits included, with
gates closed and fired, for every FedFA variant and for mixup's two-label
loss. ``reference_kernels.batch_grads`` builds that graph; with the
reference kernels installed it runs on the unfused ops.
"""

import dataclasses

import numpy as np
import pytest

from fedfa import experiment, theory
from fedfa.augment import FfaConfig, augment, variant_variances
from fedfa.data import TaskSpec, make_base_sampler
from fedfa.layers import (ConvNet, NetSpec, StageSpec, default_net_spec,
                          init_params, softmax_cross_entropy)
from fedfa.optim import Sgd
from fedfa.rng import stream
from fedfa.stats import MomentumStats, batch_variances, momentum_update
from fedfa.tensor import Tensor

import reference_kernels

BATCHES = (1, 17, 32)
SPEC = default_net_spec(classes=8)
# which sites get a hook whose gate always fires; p=0 closes every gate
GATES = {"closed": (0.0, (0, 1)), "site0": (1.0, (0,)), "site1": (1.0, (1,)),
         "both": (1.0, (0, 1))}


def net_params(seed):
    """Init params, with one dead and one constant positive channel per conv:
    relu+pool passes nothing from the first and ties every window of the
    second, so the backward takes its first-maximum fallback."""
    params = {k: t.data.copy()
              for k, t in init_params(SPEC, stream(seed, "init")).items()}
    for i in range(len(SPEC.stages)):
        w, b = params[f"conv{i}.weight"], params[f"conv{i}.bias"]
        w[:2] = 0.0
        b[0], b[1] = -1.0, 0.5
    return params


def make_hooks(variant, p, sites, seed, coeffs):
    """Hooks as make_train_fn builds them; returns them and the momentum
    statistics their budgets update."""
    cfg = FfaConfig(p=p, variant=variant)
    momentum = [MomentumStats.fresh(c) for c in SPEC.stage_channels]

    def make(k):
        rng = stream(seed, "ffa", k)

        def budget(st):
            momentum[k] = momentum_update(momentum[k], st, 0.99)
            return variant_variances(cfg, batch_variances(st), coeffs[k])

        return lambda x: augment(x, budget, cfg, rng)

    return [make(k) if k in sites else None for k in range(2)], momentum


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def both_ways(params, x, targets, hook_args):
    out = []
    for step in (experiment.batch_grads, reference_kernels.batch_grads):
        hooks, momentum = (make_hooks(*hook_args) if hook_args else (None, []))
        out.append((*step(SPEC, params, x, targets, hooks), momentum))
    return out


def assert_chain_matches_graph(params, x, targets, hook_args=None):
    (loss, grads, mom), (want_loss, want_grads, want_mom) = both_ways(
        params, x, targets, hook_args)
    assert_same_bits(loss, want_loss)
    assert set(grads) == set(want_grads) == set(params)
    for k in want_grads:
        assert_same_bits(grads[k], want_grads[k])
    for a, b in zip(mom, want_mom):
        assert_same_bits(a.pair, b.pair)
    # one fedprox step from either set of gradients
    anchor = {k: v + 0.01 for k, v in params.items()}
    stepped = []
    for g in (grads, want_grads):
        opt = Sgd(dict(params), lr=0.05, prox_mu=0.3, anchor=anchor)
        opt.step(g)
        stepped.append(opt.params)
    for k in params:
        assert_same_bits(stepped[0][k], stepped[1][k])


def batch(b, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((b, 3, 8, 8)), rng.integers(0, 8, b)


@pytest.mark.parametrize("b", BATCHES)
@pytest.mark.parametrize("gates", list(GATES))
@pytest.mark.parametrize("variant", ["full", "client", "random"])
def test_fedfa_batch_matches_graph(b, gates, variant):
    seed = 10 * b + list(GATES).index(gates)
    x, y = batch(b, seed)
    p, sites = GATES[gates]
    rng = np.random.default_rng(seed)
    coeffs = [np.stack((rng.uniform(0, 2, c), rng.uniform(0, 2, c)))
              for c in SPEC.stage_channels]
    assert_chain_matches_graph(net_params(seed), x, ((y, 1.0),),
                               (variant, p, sites, seed, coeffs))


@pytest.mark.parametrize("b", BATCHES)
def test_full_variant_without_coefficients_matches_graph(b):
    x, y = batch(b, 3)
    assert_chain_matches_graph(net_params(3), x, ((y, 1.0),),
                               ("full", 1.0, (0, 1), 3, [None, None]))


@pytest.mark.parametrize("b", BATCHES)
@pytest.mark.parametrize("lam", [0.3, 1.0, 0.0])
def test_mixup_batch_matches_graph(b, lam):
    # lam=1.0 is mixup_batch's answer to B=1: a zero-weight second term
    x, y = batch(b, 20 + b)
    y2 = np.roll(y, 1)
    assert_chain_matches_graph(net_params(4), x, ((y, lam), (y2, 1.0 - lam)))


@pytest.mark.parametrize("b", BATCHES)
def test_zero_weight_loss_leaves_no_negative_zero(b):
    # 0.0 * p is -0.0 at each label, and the chain passes the logits that
    # gradient without the graph's + 0.0; sums and matmuls start from +0.0,
    # so no parameter gradient keeps the sign, even at B=1
    x, y = batch(b, 30 + b)
    (_, grads, _), (_, want, _) = both_ways(net_params(5), x, ((y, 0.0),), None)
    assert not np.signbit(want["head.bias"]).any()
    assert_same_bits(grads["head.bias"], want["head.bias"])


# kernel and padding of a stage that keeps its input size
SAME_KERNELS = {"k3": dict(ksize=3, padding=1), "k1": dict(ksize=1, padding=0),
                "k5": dict(ksize=5, padding=2)}
# stage 0 and stage 1 kernels, each net at three image sizes
KERNEL_GRID = [(k0, k1, size) for k0 in ("k3", "k1", "k5") for k1 in ("k3", "k1")
               for size in (4, 8, 16)]


@pytest.mark.parametrize("stages,image_size", [
    *(((StageSpec(3, 4, **SAME_KERNELS[k0]), StageSpec(4, 5, **SAME_KERNELS[k1])),
       size) for k0, k1, size in KERNEL_GRID),
    *(((StageSpec(3, 4), StageSpec(4, 4, stride=2)), size) for size in (8, 16)),
    ((StageSpec(3, 4, ksize=5, stride=2, padding=0),
      StageSpec(4, 5, ksize=1, padding=0)), 19),
    ((StageSpec(3, 4), StageSpec(4, 1)), 8),
], ids=[*(f"{k0}-{k1}-{size}" for k0, k1, size in KERNEL_GRID), "strided-8",
        "strided-16", "k5stride2pad0-k1", "cout1"])
def test_other_nets_match_graph(stages, image_size):
    spec = NetSpec(stages=stages, image_size=image_size, classes=3)
    params = {k: t.data for k, t in init_params(spec, stream(7, "init")).items()}
    x = np.random.default_rng(50).standard_normal((17, 3, image_size, image_size))
    targets = ((np.arange(17) % 3, 1.0),)
    loss, grads = experiment.batch_grads(spec, params, x, targets)
    want_loss, want = reference_kernels.batch_grads(spec, params, x, targets)
    assert_same_bits(loss, want_loss)
    for k in want:
        assert_same_bits(grads[k], want[k])


@pytest.mark.parametrize("gates", ["closed", "both"])
def test_batch_matches_unfused_reference_graph(gates, monkeypatch):
    # the graph of the unfused reference ops, not of the kernel pairs
    x, y = batch(32, 40)
    params = net_params(6)
    p, sites = GATES[gates]
    hook_args = ("full", p, sites, 6, [None, None])
    hooks, _ = make_hooks(*hook_args)
    loss, grads = experiment.batch_grads(SPEC, params, x, ((y, 1.0),), hooks)
    with monkeypatch.context() as m:
        reference_kernels.install(m)
        ref_hooks, _ = make_hooks(*hook_args)
        want_loss, want = reference_kernels.batch_grads(
            SPEC, params, x, ((y, 1.0),), ref_hooks)
    assert_same_bits(loss, want_loss)
    for k in want:
        assert_same_bits(grads[k], want[k])


@pytest.mark.parametrize("net", ["reference", "2ch-4x4"])
def test_site_gradients_match_graph(net):
    # the theory check's clean loss and stage-output gradients, on the chain,
    # against ConvNet.forward and Tensor.backward: values, zero signs and
    # layout, which sets the order of the linear term's sum
    if net == "reference":  # reference_check's net and batch
        spec = default_net_spec()
        x, y = make_base_sampler(TaskSpec(), 0)(16, stream(0, "data", 1))
    else:
        spec = default_net_spec(channels=2, image_size=4, classes=3)
        rng = np.random.default_rng(8)
        x, y = rng.standard_normal((4, 2, 4, 4)), rng.integers(0, 3, 4)
    tparams = init_params(spec, stream(0, "init"))
    loss, grads = theory.site_gradients(
        spec, {k: t.data for k, t in tparams.items()}, x, y)
    logits, stage_outputs = ConvNet(spec, tparams).forward(Tensor(x))
    want = softmax_cross_entropy(logits, y)
    want.backward()
    assert_same_bits(loss, float(want.data))
    assert len(grads) == len(stage_outputs)
    for got, t in zip(grads, stage_outputs):
        assert_same_bits(got, t.grad)
        assert got.strides == t.grad.strides


def test_train_fn_builds_no_tensor(monkeypatch):
    from fedfa import tensor
    from fedfa.federation import ClientState

    def no_tensor(*args, **kwargs):
        raise AssertionError("training built a Tensor")

    cfg = dataclasses.replace(experiment.ExperimentConfig(), rounds=1,
                              local_epochs=1, p=1.0)
    ds = experiment.build_dataset(cfg.dataset, cfg.clients, cfg.seed)
    spec = default_net_spec(channels=cfg.dataset.channels,
                            image_size=cfg.dataset.image_size, classes=ds.classes)
    params = {k: t.data for k, t in init_params(spec, stream(0, "init")).items()}
    for algorithm in ("fedfa", "mixup", "fedprox"):
        train_fn = experiment.make_train_fn(
            dataclasses.replace(cfg, algorithm=algorithm), spec)
        with monkeypatch.context() as m:
            m.setattr(tensor.Tensor, "__init__", no_tensor)
            res = train_fn(ClientState(client_id=0, data=ds.clients[0]), 1,
                           params, None)
        assert np.isfinite(res.train_loss)
