import copy
import csv
import dataclasses
import glob
import json
import math
import os
import re
import sys
import tracemalloc

import numpy as np
import pytest

from fedfa import checkpoint, experiment, layers
from fedfa.cli import PAIRS, compare, main, paired_summary
from fedfa.config import ALGORITHMS, DatasetConfig, ExperimentConfig
from fedfa.experiment import (build_dataset, evaluate, leave_one_out,
                              mixup_batch, run_experiment)
from fedfa.federation import ClientState
from fedfa.layers import ConvNet, default_net_spec, init_params
from fedfa.report import collect_runs, emit_report
from fedfa.rng import stream
from fedfa.tensor import Tensor
from fedfa.theory import reference_check, theory_check

TINY_DS = dict(classes=3, image_size=4, channels=2, noise=0.5,
               train_per_client=8, test_per_client=4)


DATASET_FIELDS = {f.name for f in dataclasses.fields(DatasetConfig)}


def tiny_cfg(**kw):
    # DatasetConfig fields set the dataset (on top of TINY_DS), the rest the
    # experiment
    ds = DatasetConfig(**{**TINY_DS,
                          **{k: kw.pop(k) for k in DATASET_FIELDS & set(kw)}})
    base = dict(algorithm="fedfa", rounds=2, lr=0.05, batch_size=8,
                clients=2, seed=0, dataset=ds)
    base.update(kw)
    return ExperimentConfig(**base)


# ------------------------------------------------------------------ config

def test_config_round_trip(tmp_path):
    cfg = tiny_cfg(algorithm="fedprox", prox_mu=0.3, run_name="x")
    path = tmp_path / "c.json"
    cfg.to_json(path)
    assert ExperimentConfig.from_json(path) == cfg


def test_config_defaults():
    cfg = ExperimentConfig()
    assert cfg.p == 0.5
    assert cfg.alpha == 0.99
    assert cfg.local_epochs == 1
    assert cfg.participation == 1.0
    assert cfg.algorithm == "fedfa"


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown experiment"):
        ExperimentConfig.from_dict({"algorithm": "fedavg", "lrate": 0.1})
    with pytest.raises(ValueError, match="unknown dataset"):
        ExperimentConfig.from_dict({"dataset": {"classs": 4}})


def test_config_validation():
    with pytest.raises(ValueError, match="algorithm"):
        tiny_cfg(algorithm="fedsgd").validate()
    with pytest.raises(ValueError, match="rounds"):
        tiny_cfg(rounds=-1).validate()
    with pytest.raises(ValueError, match="p must"):
        tiny_cfg(p=1.5).validate()
    with pytest.raises(ValueError, match="aggregation"):
        tiny_cfg(aggregation="median").validate()
    with pytest.raises(ValueError, match="dataset kind"):
        ExperimentConfig(dataset=DatasetConfig(kind="iid")).validate()
    with pytest.raises(ValueError, match="divisible"):
        ExperimentConfig(dataset=DatasetConfig(image_size=6)).validate()


@pytest.mark.parametrize("field, value", [
    ("random_std", -0.1), ("prox_mu", -0.01), ("server_momentum", -0.1),
    ("server_momentum", 1.0), ("mixup_beta", 0.0), ("channels", 0),
    ("image_size", 0), ("image_size", -4), ("noise", -1.0),
    ("shift_strength", -0.5), ("concentration", 0.0), ("concentration", -1.0),
    ("size_ratio", 0.5), ("test_fraction", -0.1), ("test_fraction", 1.0),
    ("clients", 1), ("alpha", -0.1), ("alpha", 1.5), ("seed", -1),
    # a run directory is one name inside the run root
    ("run_name", ""), ("run_name", "."), ("run_name", ".."),
    ("run_name", "a/b"), ("run_name", "../up"),
    # NaN and the infinities pass a one-sided range check
    *((field, value) for field in ("lr", "random_std", "prox_mu", "mixup_beta",
                                   "noise", "shift_strength", "concentration",
                                   "size_ratio")
      for value in (math.nan, math.inf)),
    ("lr", -math.inf), ("p", math.nan), ("test_fraction", -math.inf)])
def test_config_rejects_bad_knob(tmp_path, field, value):
    # rejected whatever the algorithm, and before anything is written
    cfg = tiny_cfg(algorithm="fedavg", **{field: value})
    with pytest.raises(ValueError, match=field):
        cfg.validate()
    with pytest.raises(ValueError, match=field):
        run_experiment(cfg, run_root=tmp_path / "runs")
    assert not any(tmp_path.iterdir())


def test_shipped_and_tiny_configs_validate():
    tiny_cfg().validate()
    paths = glob.glob(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "configs", "*.json"))
    assert paths
    for path in paths:
        ExperimentConfig.from_json(path).validate()


def test_config_name():
    assert tiny_cfg(algorithm="fedavg", seed=3).name == "fedavg_seed3"
    assert tiny_cfg(run_name="ablation1").name == "ablation1"


# ------------------------------------------------------------------- mixup

def test_mixup_lam_one_identity():
    # lam is rng's first draw, then the partner permutation; the batch is
    # blended with weight lam, exactly
    x = np.random.default_rng(0).standard_normal((4, 2, 3, 3))
    y = np.arange(4)
    xm, ya, yb, lam = mixup_batch(x, y, 0.2, np.random.default_rng(1))
    replay = np.random.default_rng(1)
    assert lam == replay.beta(0.2, 0.2)
    perm = replay.permutation(4)
    assert np.array_equal(xm, lam * x + (1.0 - lam) * x[perm])
    assert np.array_equal(ya, y)
    assert np.array_equal(yb, y[perm])


def test_mixup_half_blend_consistent():
    rng = np.random.default_rng(1)
    x = np.arange(4.0).reshape(4, 1, 1, 1)
    y = np.arange(4)
    xm, ya, yb, lam = mixup_batch(x, y, 0.2, rng)
    # partner labels identify the permutation; check the blend matches it
    assert np.allclose(xm[:, 0, 0, 0], lam * y + (1.0 - lam) * yb)
    assert np.array_equal(ya, y)


def test_mixup_sum_preserved():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((6, 2, 2, 2))
    xm, _, _, lam = mixup_batch(x, np.zeros(6, dtype=int), 0.4, rng)
    assert 0.0 <= lam <= 1.0
    assert xm.sum() == pytest.approx(x.sum(), abs=1e-9)


def test_mixup_small_batch_passthrough():
    x = np.ones((1, 2, 2, 2))
    y = np.zeros(1, dtype=int)
    xm, ya, yb, lam = mixup_batch(x, y, 0.2, np.random.default_rng(0))
    assert xm is x and lam == 1.0


def test_mixup_bad_beta():
    with pytest.raises(ValueError, match="beta"):
        mixup_batch(np.ones((2, 1, 1, 1)), np.zeros(2, dtype=int), 0.0,
                    np.random.default_rng(0))


# ------------------------------------------------------------------ streams

@pytest.mark.parametrize("seed, key", [(0, 0), (7, 2**32 - 1), (7, 2**32),
                                       (2**40 + 3, 5)])
def test_stream_state_is_the_tuple_seed_sequence(seed, key):
    # one-word keys go in as a uint32 array, larger ones as the tuple
    want = np.random.default_rng(np.random.SeedSequence((seed, 2, key)))
    assert stream(seed, "data", key).bit_generator.state == want.bit_generator.state


def test_stream_rejects_negative_keys():
    with pytest.raises(ValueError):
        stream(0, "data", -1)


# -------------------------------------------------------------- experiment

def test_build_dataset_kinds():
    for kind in ("feature_shift", "dirichlet", "size_skew"):
        ds = build_dataset(DatasetConfig(kind=kind, **TINY_DS), m=3, seed=0)
        assert len(ds.clients) == 3
        assert ds.classes == 3
        for c in ds.clients:
            assert c.x_train.shape[0] >= 1


def test_run_experiment_zero_rounds(tmp_path):
    run_dir = run_experiment(tiny_cfg(rounds=0), run_root=tmp_path)
    with open(os.path.join(run_dir, "metrics.jsonl")) as f:
        records = [json.loads(l) for l in f]
    assert len(records) == 1
    assert records[0]["round"] == 0
    assert records[0]["train_loss"] == {}
    assert records[0]["mean_train_loss"] is None
    assert 0.0 <= records[0]["mean_test_acc"] <= 1.0


def test_run_experiment_artifacts(tmp_path):
    cfg = tiny_cfg()
    run_dir = run_experiment(cfg, run_root=tmp_path)
    assert os.path.basename(run_dir) == "fedfa_seed0"
    for name in ("config.json", "metrics.jsonl", "model.bin", "timing.txt"):
        assert os.path.isfile(os.path.join(run_dir, name)), name
    assert ExperimentConfig.from_json(os.path.join(run_dir, "config.json")) == cfg
    params = checkpoint.load(os.path.join(run_dir, "model.bin"))
    spec = default_net_spec(channels=2, image_size=4, classes=3)
    want = init_params(spec, stream(0, "init"))
    assert set(params) == set(want)
    with open(os.path.join(run_dir, "timing.txt")) as f:
        lines = f.read().splitlines()
    assert lines[0].startswith("total_seconds ")
    assert len(lines) == 1 + cfg.rounds


def test_run_experiment_deterministic(tmp_path):
    cfg = tiny_cfg(rounds=3)
    d1 = run_experiment(cfg, run_root=tmp_path / "a")
    d2 = run_experiment(cfg, run_root=tmp_path / "b")
    m1 = open(os.path.join(d1, "metrics.jsonl"), "rb").read()
    m2 = open(os.path.join(d2, "metrics.jsonl"), "rb").read()
    assert m1 == m2
    b1 = open(os.path.join(d1, "model.bin"), "rb").read()
    b2 = open(os.path.join(d2, "model.bin"), "rb").read()
    assert b1 == b2


def test_run_experiment_records_schema(tmp_path):
    run_dir = run_experiment(tiny_cfg(rounds=2), run_root=tmp_path)
    keys = {"round", "train_loss", "mean_train_loss", "test_acc",
            "mean_test_acc", "selected", "uplink_bytes", "downlink_bytes",
            "uplink_bytes_per_client", "downlink_bytes_per_client"}
    with open(os.path.join(run_dir, "metrics.jsonl")) as f:
        for line in f:
            rec = json.loads(line)
            assert set(rec) == keys
    assert rec["round"] == 2
    assert rec["selected"] == [0, 1]
    assert rec["uplink_bytes"] > 0


def test_training_reduces_loss(tmp_path):
    cfg = tiny_cfg(algorithm="fedavg", rounds=5,
                   dataset=DatasetConfig(**{**TINY_DS, "train_per_client": 24}))
    run_dir = run_experiment(cfg, run_root=tmp_path)
    with open(os.path.join(run_dir, "metrics.jsonl")) as f:
        records = [json.loads(l) for l in f]
    assert records[-1]["mean_train_loss"] < records[1]["mean_train_loss"]
    assert records[-1]["mean_test_acc"] > records[0]["mean_test_acc"]


def test_every_algorithm_runs(tmp_path):
    for algo in ("fedavg", "fedprox", "fedavgm", "mixup",
                 "fedfa", "fedfa-c", "fedfa-r"):
        cfg = tiny_cfg(algorithm=algo, rounds=1)
        run_dir = run_experiment(cfg, run_root=tmp_path)
        with open(os.path.join(run_dir, "metrics.jsonl")) as f:
            records = [json.loads(l) for l in f]
        assert len(records) == 2, algo
        assert records[1]["mean_train_loss"] is not None, algo


def test_stat_exchange_only_for_augmented(tmp_path):
    plain = run_experiment(tiny_cfg(algorithm="fedavg", rounds=1,
                                    run_name="pl"), run_root=tmp_path)
    aug = run_experiment(tiny_cfg(algorithm="fedfa", rounds=1,
                                  run_name="au"), run_root=tmp_path)
    rec_p = json.loads(open(os.path.join(plain, "metrics.jsonl")).readlines()[-1])
    rec_a = json.loads(open(os.path.join(aug, "metrics.jsonl")).readlines()[-1])
    spec = default_net_spec(channels=2, image_size=4, classes=3)
    extra = 2 * sum(spec.stage_channels) * 8
    assert rec_a["uplink_bytes_per_client"] - rec_p["uplink_bytes_per_client"] == extra


@pytest.mark.parametrize("algo", ["fedprox", "fedfa", "fedfa-c"])
def test_train_fn_leaves_broadcast_untouched(algo, monkeypatch):
    # every gate fires; only the full variant, which exchanges statistics,
    # tracks them
    updates = []
    real_update = experiment.momentum_update
    monkeypatch.setattr(experiment, "momentum_update",
                        lambda *a: updates.append(1) or real_update(*a))
    cfg = tiny_cfg(algorithm=algo, p=1.0)
    ds = build_dataset(cfg.dataset, cfg.clients, cfg.seed)
    spec = default_net_spec(channels=2, image_size=4, classes=3)
    params = {k: t.data for k, t in init_params(spec, stream(0, "init")).items()}
    before = {k: v.copy() for k, v in params.items()}
    train_fn = experiment.make_train_fn(cfg, spec)
    res = train_fn(ClientState(client_id=0, data=ds.clients[0]), 1, params, None)
    for k in params:
        assert np.array_equal(params[k], before[k])
        assert not np.array_equal(res.params[k], before[k])
    returned = list(res.params.values()) + [a for st in res.momentum
                                            for a in (st.mu_bar, st.sigma_bar)]
    assert len(res.momentum) == (len(spec.stages) if algo == "fedfa" else 0)
    assert bool(updates) == (algo == "fedfa")
    assert not any(np.shares_memory(a, p)
                   for a in returned for p in params.values())


def _replace_everywhere(monkeypatch, name, make):
    """Put make(original) in place of function ``name`` in every loaded
    fedfa module that holds it, wherever it is called from."""
    for modname, mod in list(sys.modules.items()):
        fn = getattr(mod, name, None) if modname.split(".")[0] == "fedfa" else None
        if callable(fn):
            monkeypatch.setattr(mod, name, make(fn))


def test_hook_computes_statistics_once_per_fired_gate(tmp_path, monkeypatch):
    # one event per statistics computation (outermost call only) and one
    # per augment call; a hook's statistics come before its augment returns
    events, depth = [], [0]

    def count(fn):
        def wrapped(*args, **kwargs):
            if not depth[0]:
                events.append("stats")
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapped

    def gate(fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            events.append("fired" if out[1] is not None else "closed")
            return out
        return wrapped

    for name in ("channel_stats", "channel_mean_std"):
        _replace_everywhere(monkeypatch, name, count)
    monkeypatch.setattr(experiment, "augment", gate(experiment.augment))
    run_experiment(tiny_cfg(rounds=3), run_root=tmp_path)

    per_call, pending = [], 0
    for e in events:
        if e == "stats":
            pending += 1
        else:
            per_call.append((e, pending))
            pending = 0
    assert pending == 0
    assert {e for e, _ in per_call} == {"fired", "closed"}
    assert all(n == (1 if e == "fired" else 0) for e, n in per_call)


def test_augment_once_per_hook_call_none_iff_gate_closed(tmp_path, monkeypatch):
    cfg = tiny_cfg(rounds=3, local_epochs=2)
    real, calls = experiment.augment, []

    def spy(x, fused, ffa_cfg, rng, *args, **kwargs):
        fires = copy.deepcopy(rng).random() < ffa_cfg.p  # the gate's draw
        out = real(x, fused, ffa_cfg, rng, *args, **kwargs)
        calls.append((fires, out[1] is not None))
        return out

    monkeypatch.setattr(experiment, "augment", spy)
    run_experiment(cfg, run_root=tmp_path)
    batches = -(-cfg.dataset.train_per_client // cfg.batch_size)
    sites = len(default_net_spec().stages)
    assert len(calls) == (cfg.rounds * cfg.clients * cfg.local_epochs
                          * batches * sites)
    assert all(fires == used for fires, used in calls)
    assert {used for _, used in calls} == {True, False}


def test_leave_one_out(tmp_path):
    cfg = tiny_cfg(clients=3, rounds=2)
    out = leave_one_out(cfg, held_out_client=1, run_root=tmp_path)
    assert out["held_out_client"] == 1
    assert 0.0 <= out["held_out_acc"] <= 1.0
    assert out["participation_gap"] == pytest.approx(
        out["in_federation_acc"] - out["held_out_acc"])
    saved = json.load(open(os.path.join(tmp_path, "fedfa_seed0_loo1",
                                        "leave_one_out.json")))
    assert saved == pytest.approx(out)


def test_leave_one_out_bad_index():
    with pytest.raises(ValueError, match="held_out_client"):
        leave_one_out(tiny_cfg(), held_out_client=7)


def test_evaluate_bounds():
    spec = default_net_spec(channels=2, image_size=4, classes=3)
    params = init_params(spec, stream(0, "init"))
    x = np.random.default_rng(0).standard_normal((10, 2, 4, 4))
    y = np.zeros(10, dtype=int)
    acc = evaluate({k: t.data for k, t in params.items()}, spec, x, y)
    assert 0.0 <= acc <= 1.0


def test_evaluate_rejects_an_empty_test_set():
    spec = default_net_spec(channels=2, image_size=4, classes=3)
    params = {k: t.data for k, t in init_params(spec, stream(0, "init")).items()}
    with pytest.raises(ValueError, match="test set is empty"):
        evaluate(params, spec, np.zeros((0, 2, 4, 4)), np.zeros(0, dtype=int))


def test_evaluate_working_set_stays_cache_sized():
    # one unblocked call on 512 samples peaks near 15 MiB, mostly its
    # 7 MiB stage-0 im2col matrix; blocks of 128, gathered one pool tap's
    # slab at a time, peak near 1.0 MiB. Odd sets run with a pad sample:
    # 59 samples in one block, and 301 in blocks of 151 and 150, which
    # peak near 1.2 MiB (3.5 MiB where an odd block's stage 1 gathered
    # its whole im2col matrix)
    spec = default_net_spec(channels=3, image_size=8, classes=6)
    params = {k: t.data for k, t in init_params(spec, stream(0, "init")).items()}
    for n in (512, 59, 301):
        x = np.random.default_rng(0).standard_normal((n, 3, 8, 8))
        y = np.zeros(n, dtype=int)
        # build the cached gather indices and slab probe verdicts
        evaluate(params, spec, x, y)
        tracemalloc.start()
        try:
            evaluate(params, spec, x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * layers.EVAL_BLOCK_BYTES, n


# ------------------------------------------------------------------ theory

def test_theory_zero_noise_exact():
    spec = default_net_spec(channels=2, image_size=4, classes=3)
    net = ConvNet(spec, init_params(spec, stream(0, "init")))
    x = np.random.default_rng(0).standard_normal((4, 2, 4, 4))
    y = np.random.default_rng(1).integers(0, 3, size=4)
    report = theory_check(net, (x, y), [None, None], [0.1, 0.01])
    assert report.linear_coefficient == 0.0
    assert report.residuals == [0.0, 0.0]
    assert report.exponent is None


def test_theory_reference_configuration():
    report = reference_check()
    assert report.passes()
    assert 1.8 <= report.exponent <= 2.2
    assert report.usable_points >= 2


def test_theory_rejects_bad_scales():
    spec = default_net_spec(channels=2, image_size=4, classes=3)
    net = ConvNet(spec, init_params(spec, stream(0, "init")))
    x = np.zeros((2, 2, 4, 4))
    y = np.zeros(2, dtype=int)
    with pytest.raises(ValueError, match="positive"):
        theory_check(net, (x, y), [None, None], [0.1, -0.1])


def test_theory_flags_nonfinite_loss():
    spec = default_net_spec(channels=2, image_size=4, classes=3)
    net = ConvNet(spec, init_params(spec, stream(0, "init")))
    x = np.random.default_rng(0).standard_normal((2, 2, 4, 4))
    y = np.zeros(2, dtype=int)
    _, stage_outputs = net.forward(Tensor(x))
    bad = np.full_like(stage_outputs[0].data, np.inf)
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError,
                                                  match="noise scale"):
        theory_check(net, (x, y), [bad, None], [0.5])


# ------------------------------------------------------------------ report

def test_report_empty_root(tmp_path):
    os.makedirs(tmp_path / "not_a_run")
    with pytest.raises(FileNotFoundError, match="no run directory"):
        emit_report(tmp_path)
    assert os.listdir(tmp_path) == ["not_a_run"]  # nothing written


@pytest.mark.parametrize("make", [False, True], ids=["missing", "empty"])
def test_cli_report_without_runs(tmp_path, capsys, make):
    root = tmp_path / "runs"
    if make:
        os.makedirs(root)
    assert main(["report", str(root)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{root}: no run directory with a metrics.jsonl\n"


def test_report_two_algorithms(tmp_path):
    for algo in ("fedavg", "fedfa"):
        run_experiment(tiny_cfg(algorithm=algo, rounds=1), run_root=tmp_path)
    csv_path, svg_path, warnings = emit_report(tmp_path)
    assert warnings == []
    rows = list(csv.reader(open(csv_path)))
    assert len(rows) == 1 + 2 * 2  # header + 2 runs x 2 records
    svg = open(svg_path).read()
    assert svg.count("<polyline") == 2
    assert ">fedavg</text>" in svg and ">fedfa</text>" in svg


def test_collect_runs_warns_on_stray_dir(tmp_path):
    os.makedirs(tmp_path / "not_a_run")
    run_experiment(tiny_cfg(rounds=0), run_root=tmp_path)
    runs, warnings = collect_runs(tmp_path)
    assert len(runs) == 1
    assert any("not_a_run" in w for w in warnings)


@pytest.mark.parametrize("name", ["config.json", "metrics.jsonl"])
def test_report_skips_a_run_that_does_not_parse(tmp_path, capsys, name):
    # a non-JSON config.json, or a metrics.jsonl cut inside its last record
    good = run_experiment(tiny_cfg(rounds=1, run_name="good"), run_root=tmp_path)
    bad = run_experiment(tiny_cfg(rounds=1, run_name="bad"), run_root=tmp_path)
    path = os.path.join(bad, name)
    text = open(path).read()
    with open(path, "w") as f:
        f.write("{not json" if name == "config.json" else text[:-20])
    runs, warnings = collect_runs(tmp_path)
    assert [r["dir"] for r in runs] == [good]
    assert len(warnings) == 1
    assert warnings[0].startswith(f"{path}: ")
    assert warnings[0].endswith(", skipped")
    assert "line 1 column" in warnings[0]  # json's own reason
    assert main(["report", str(tmp_path)]) == 0
    assert capsys.readouterr().err == f"warning: {warnings[0]}\n"


@pytest.mark.parametrize("record, reason", [
    ('{"mean_test_acc": 0.5}', "record 2: round: expected an integer, got no value"),
    ('{"round": "x", "mean_test_acc": "a"}',
     'record 2: round: expected an integer, got "x"'),
    ('{"round": 1, "mean_test_acc": 0.5, "mean_train_loss": true}',
     "record 2: mean_train_loss: expected a number or null, got true"),
], ids=["no-round", "string-values", "bool-loss"])
def test_report_skips_a_run_it_cannot_plot(tmp_path, capsys, record, reason):
    # records that parse, but lack the round or hold a string where the CSV
    # and the SVG read an integer or a number
    good = run_experiment(tiny_cfg(rounds=1, run_name="good"), run_root=tmp_path)
    bad = run_experiment(tiny_cfg(rounds=1, run_name="bad"), run_root=tmp_path)
    path = os.path.join(bad, "metrics.jsonl")
    first = open(path).readline()
    with open(path, "w") as f:
        f.write(first + record + "\n")
    runs, warnings = collect_runs(tmp_path)
    assert [r["dir"] for r in runs] == [good]
    assert warnings == [f"{path}: {reason}, skipped"]
    assert main(["report", str(tmp_path)]) == 0
    assert capsys.readouterr().err == f"warning: {warnings[0]}\n"
    # with no run left, the warning still says why
    assert main(["report", bad]) == 1
    assert capsys.readouterr().err == (f"warning: {warnings[0]}\n"
                                       f"{bad}: no run directory with a metrics.jsonl\n")


def test_report_accepts_single_run_dir(tmp_path):
    run_dir = run_experiment(tiny_cfg(rounds=1), run_root=tmp_path)
    runs, warnings = collect_runs(run_dir)
    assert len(runs) == 1 and runs[0]["algorithm"] == "fedfa"


# --------------------------------------------------------------------- cli

def test_cli_commcost(capsys):
    assert main(["commcost", "64", "192", "384", "256", "256"]) == 0
    assert capsys.readouterr().out.strip() == "18432"
    assert main(["commcost", "32", "64", "128", "256", "512",
                 "--bytes-per-value", "4"]) == 0
    assert capsys.readouterr().out.strip() == "15872"


def test_malloc_thresholds_pinned_at_the_entry_points(monkeypatch, capsys):
    import ctypes

    from fedfa import allocator, cli

    glibc = hasattr(ctypes.CDLL(None), "mallopt")
    assert allocator.pin_malloc_thresholds() is glibc
    with monkeypatch.context() as m:
        m.setattr(allocator.ctypes, "CDLL", lambda name: object())
        assert allocator.pin_malloc_thresholds() is False  # no mallopt: no-op

    calls = []
    monkeypatch.setattr(cli, "pin_malloc_thresholds", lambda: calls.append(1))
    assert main(["commcost", "8"]) == 0 and calls == [1]

    class Pool:  # runs the worker initializer, then maps in this process
        def __init__(self, workers, mp_context, initializer):
            initializer()

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
    assert cli._run_all([lambda: 1, lambda: 2], workers=2) == [1, 2]
    assert calls == [1, 1]


def test_cli_run_and_report(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    tiny_cfg(rounds=1).to_json(cfg_path)
    assert main(["run", str(cfg_path), "--run-root", str(tmp_path / "runs")]) == 0
    out = capsys.readouterr().out
    assert "mean_test_acc" in out
    assert main(["report", str(tmp_path / "runs")]) == 0
    assert os.path.isfile(tmp_path / "runs" / "summary.csv")
    assert os.path.isfile(tmp_path / "runs" / "accuracy.svg")


def test_cli_sweep(tmp_path, capsys):
    for seed in (0, 1):
        tiny_cfg(rounds=1, seed=seed).to_json(tmp_path / f"s{seed}.json")
    code = main(["sweep", str(tmp_path / "s*.json"),
                 "--run-root", str(tmp_path / "runs"), "--workers", "1"])
    assert code == 0
    assert sorted(os.listdir(tmp_path / "runs")) == ["fedfa_seed0", "fedfa_seed1"]


def test_cli_sweep_rejects_configs_sharing_a_run_dir(tmp_path, capsys):
    # same algorithm and seed, so the same run name: one would overwrite
    # the other
    for name, p in (("a", 0.5), ("b", 0.25)):
        tiny_cfg(rounds=1, p=p).to_json(tmp_path / f"{name}.json")
    code = main(["sweep", str(tmp_path / "*.json"),
                 "--run-root", str(tmp_path / "runs"), "--workers", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert str(tmp_path / "a.json") in err and str(tmp_path / "b.json") in err
    assert not os.path.exists(tmp_path / "runs")  # rejected before any run


def test_cli_sweep_no_match(tmp_path, capsys):
    assert main(["sweep", str(tmp_path / "nothing*.json")]) == 1
    assert "no configs match" in capsys.readouterr().err


def test_compare_json_identical_across_reruns_and_workers(tmp_path, capsys):
    base = tiny_cfg(clients=4, rounds=2)
    base.to_json(tmp_path / "base.json")
    blobs = set()
    for workers in (1, 2):
        # the rerun reads base from its config file, through the command line
        assert main(["compare", str(tmp_path / "base.json"), "--seeds", "2",
                     "--workers", str(workers),
                     "--run-root", str(tmp_path / f"cli{workers}")]) == 0
        blobs.add((tmp_path / f"cli{workers}" / "compare.json").read_bytes())
        root = tmp_path / f"api{workers}"
        result = compare(base, 2, workers=workers, run_root=root)
        blobs.add((root / "compare.json").read_bytes())
    assert len(blobs) == 1
    assert sorted(os.listdir(root)) == sorted(
        ["compare.json"] + [f"{a}_seed{s}" for a in ALGORITHMS for s in (0, 1)])
    assert json.loads(blobs.pop()) == result
    assert result["config"] == base.to_dict()
    assert ExperimentConfig.from_dict(result["config"]) == base
    held = leave_one_out(dataclasses.replace(base, algorithm="fedavg", seed=1), 3)
    assert result["held_out_acc"]["fedavg"][1] == held["held_out_acc"]
    with open(root / "fedfa_seed0" / "metrics.jsonl") as f:
        fedfa0 = json.loads(f.readlines()[-1])["mean_test_acc"]
    diff = result["paired"]["fedfa - fedavg"]["differences"][0]
    assert diff == fedfa0 - result["final_acc"]["fedavg"][0]
    assert set(result["paired"]) == set(PAIRS)
    acc = result["final_acc"]
    assert result["paired"]["fedfa - fedfa-c"]["differences"] == [
        a - c for a, c in zip(acc["fedfa"], acc["fedfa-c"])]


BAD_CONFIGS = {  # id: (file text, or None for no file; the reason printed)
    "string-for-int": ('{"rounds": "3"}', 'rounds: expected an integer, got "3"'),
    "array": ("[1, 2]", "expected a JSON object, got [1, 2]"),
    "unknown-key": ('{"lrate": 0.1}', "unknown experiment config keys: ['lrate']"),
    "missing-file": (None, "No such file or directory"),
    "bool-for-float": ('{"lr": true}', "lr: expected a number, got true"),
    "int-for-name": ('{"run_name": 3}', "run_name: expected a string or null, got 3"),
    "array-for-dataset": ('{"dataset": [8]}', "dataset: expected an object, got [8]"),
    "float-for-dataset-int": ('{"dataset": {"classes": 2.5}}',
                              "dataset.classes: expected an integer, got 2.5"),
    "invalid-value": ('{"rounds": -1}', "rounds must be nonnegative"),
    "negative-seed": ('{"seed": -1}', "seed must be nonnegative"),
    "escaping-run-name": ('{"run_name": "../escaped"}', "run_name must name one "
                          "directory inside the run root, got '../escaped'"),
    "not-json": ('{"rounds": }', "Expecting value: line 1 column 12 (char 11)"),
    # JSON's NaN and Infinity parse to floats that no training survives
    "nan-lr": ('{"lr": NaN}', "lr must be finite, got nan"),
    "infinite-noise": ('{"dataset": {"noise": Infinity}}',
                       "noise must be finite, got inf"),
}


# a sweep glob that matches no file is sweep's own error, tested above
@pytest.mark.parametrize("command,case", [
    (command, case) for command in ("run", "sweep", "compare")
    for case, (text, _) in BAD_CONFIGS.items()
    if text is not None or command != "sweep"])
def test_cli_names_the_config_and_its_fault(command, case, tmp_path, capsys):
    text, reason = BAD_CONFIGS[case]
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    assert main([command, str(path), "--run-root", str(tmp_path / "runs")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{path}: {reason}\n"
    # rejected before any run, and nothing written next to the run root
    assert os.listdir(tmp_path) == ([] if text is None else ["cfg.json"])


@pytest.mark.parametrize("fields, reason", [
    (dict(kind="size_skew", size_ratio=1000.0, clients=8),
     "smallest client would be empty; lower ratio or add data"),
    (dict(kind="size_skew", size_ratio=1.0, test_fraction=0.9,
          train_per_client=1, test_per_client=1),
     "client 0 would have no training data"),
    (dict(kind="dirichlet", concentration=0.001, clients=8,
          train_per_client=1, test_per_client=1),
     "could not draw a partition with all clients nonempty"),
], ids=["size-skew-empty-client", "no-training-data", "dirichlet-undrawable"])
def test_cli_run_names_an_undrawable_partition(fields, reason, tmp_path, capsys):
    # the config validates, but its labels cannot be split into clients
    path = tmp_path / "cfg.json"
    tiny_cfg(**fields).to_json(path)
    assert main(["run", str(path), "--run-root", str(tmp_path / "runs")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{path}: {reason}\n"
    assert not os.path.exists(tmp_path / "runs")


def test_cli_sweep_checks_every_partition_before_any_run(tmp_path, capsys):
    # the drawable config sorts first, so a sweep that checked each
    # partition only when its run began would leave its run directory
    tiny_cfg(run_name="good").to_json(tmp_path / "a.json")
    bad = tmp_path / "b.json"
    tiny_cfg(run_name="bad", kind="size_skew", size_ratio=1000.0,
             clients=8).to_json(bad)
    assert main(["sweep", str(tmp_path / "*.json"), "--workers", "1",
                 "--run-root", str(tmp_path / "runs")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"{bad}: smallest client would be empty; "
                            "lower ratio or add data\n")
    assert not os.path.exists(tmp_path / "runs")


def test_cli_compare_checks_every_seeds_partition_before_any_run(tmp_path,
                                                                 capsys):
    # seed 0's labels split into 4 clients, seed 1's cannot
    path = tmp_path / "cfg.json"
    tiny_cfg(kind="dirichlet", concentration=0.05, clients=4,
             train_per_client=2, test_per_client=1).to_json(path)
    assert main(["compare", str(path), "--seeds", "2", "--workers", "1",
                 "--run-root", str(tmp_path / "runs")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"{path}: could not draw a partition with all "
                            "clients nonempty\n")
    assert not os.path.exists(tmp_path / "runs")


def test_compare_needs_two_seeds(tmp_path):
    with pytest.raises(ValueError, match="at least 2 seeds, got 1"):
        compare(tiny_cfg(), 1, run_root=tmp_path)
    assert not os.listdir(tmp_path)


def test_compare_needs_the_held_out_client(tmp_path, capsys):
    # client 3 is held out, so a 3-client config fails before any run
    reason = "compare holds out client 3, so it needs at least 4 clients, got 3"
    cfg = tiny_cfg(clients=3)
    with pytest.raises(ValueError, match=reason):
        compare(cfg, 2, run_root=tmp_path / "runs")
    cfg.to_json(tmp_path / "cfg.json")
    assert main(["compare", str(tmp_path / "cfg.json"),
                 "--run-root", str(tmp_path / "runs")]) == 2
    assert capsys.readouterr().err == f"{tmp_path / 'cfg.json'}: {reason}\n"
    assert not os.path.exists(tmp_path / "runs")


@pytest.mark.parametrize("argv,error", [
    (["commcost", "0", "8"], "argument channels: must be >= 1, got 0"),
    (["commcost", "8", "x"], "argument channels: invalid int value: 'x'"),
    (["compare", "--seeds", "1"], "argument --seeds: must be >= 2, got 1"),
    (["compare", "--workers", "-2"], "argument --workers: must be >= 1, got -2"),
    (["compare", "--workers", "0"], "argument --workers: must be >= 1, got 0"),
    (["sweep", "configs/*.json", "--workers", "-1"],
     "argument --workers: must be >= 1, got -1"),
    (["sweep", "configs/*.json", "--workers", "0"],
     "argument --workers: must be >= 1, got 0"),
    (["commcost", "8", "16", "--bytes-per-value", "-4"],
     "argument --bytes-per-value: must be >= 1, got -4"),
    (["commcost", "8", "--bytes-per-value", "0"],
     "argument --bytes-per-value: must be >= 1, got 0"),
    (["check", "theory", "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
], ids=["commcost-0", "commcost-x", "compare-1-seed", "compare-workers--2",
        "compare-workers-0", "sweep-workers--1", "sweep-workers-0",
        "commcost-bytes--4", "commcost-bytes-0", "check-seed--1"])
def test_cli_rejects_bad_counts_with_a_usage_error(argv, error, capsys):
    # argparse rejects them, before anything runs
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"fedfa {argv[0]}: error: {error}"


def test_check_theory_band_is_one_constant(monkeypatch, capsys):
    # passes() and the printed band both read theory.EXPONENT_BAND
    from fedfa import theory

    report = theory.TheoryCheckReport(scales=[0.1], residuals=[1e-3],
                                      exponent=2.5, linear_coefficient=0.0,
                                      usable_points=2)
    monkeypatch.setattr(theory, "reference_check", lambda seed: report)
    assert main(["check", "theory"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "exponent 2.5000 FAIL (want 1.8..2.2)")
    monkeypatch.setattr(theory, "EXPONENT_BAND", (2.4, 2.6))
    assert report.passes()
    assert main(["check", "theory"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "exponent 2.5000 PASS (want 2.4..2.6)")


def test_check_theory_without_an_exponent_fails(monkeypatch, capsys):
    # fewer than two residuals above RESIDUAL_FLOOR leave no slope to fit
    from fedfa import theory

    report = theory.TheoryCheckReport(scales=[0.1, 0.01], residuals=[1e-3, 0.0],
                                      exponent=None, linear_coefficient=0.0,
                                      usable_points=1)
    monkeypatch.setattr(theory, "reference_check", lambda seed: report)
    assert main(["check", "theory"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "exponent n/a FAIL (want 1.8..2.2)")


def test_paired_summary_counts_and_interval():
    d = [0.1, -0.2, 0.0, 0.3, -0.1, 0.2, -0.3]
    s = paired_summary(d)
    assert s["differences"] == d
    assert s["mean"] == pytest.approx(0.0, abs=1e-15)
    assert (s["wins_seeds_0_4"], s["wins"]) == (3, 4)  # a tie counts as a win
    lo, hi = s["ci95"]
    assert lo < s["mean"] < hi and -0.3 < lo and hi < 0.3
    assert paired_summary(d) == s  # a fixed bootstrap stream
    same = paired_summary([0.125] * 6)
    assert same["ci95"] == [0.125, 0.125] and same["mean"] == 0.125
    assert (same["wins_seeds_0_4"], same["wins"]) == (5, 6)


@pytest.mark.parametrize("argv,want", [
    (["check", "invariants"],
     [r"PASS  additive-noise identity \(max dev \S+\)",
      r"PASS  modulation normalization \(max dev \S+\)",
      r"PASS  commcost \[64,192,384,256,256\] x4B == 18432",
      r"PASS  commcost \[32,64,128,256,512\] x4B == 15872",
      r"PASS  aggregation idempotence \(bitwise\)",
      r"PASS  checkpoint round trip \(bitwise\)",
      r"6/6 invariant groups passed"]),
    (["check", "theory"],
     [r"scale +\S+ +residual +\S+"] * 7
     + [r"exponent \S+ PASS \(want 1\.8\.\.2\.2\)"]),
    (["commcost", "8", "16"], [r"384"]),  # 4 vectors x 24 channels x 4 B
], ids=["check-invariants", "check-theory", "commcost-8-16"])
def test_cli_prints_every_result_line(argv, want, capsys):
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(want)
    for line, pattern in zip(lines, want):
        assert re.fullmatch(pattern, line), line
