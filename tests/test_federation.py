import dataclasses
import logging
import os
import time

import numpy as np
import pytest

from fedfa import checkpoint
from fedfa.augment import modulate
from fedfa.config import DatasetConfig, ExperimentConfig
from fedfa.experiment import run_experiment
from fedfa.federation import (ClientState, ClientTrainingError, LocalResult,
                              RoundReport, ServerState, aggregate, comm_cost,
                              recompute_coeffs, run_round, select_clients,
                              sharing_variances)
from fedfa.stats import MomentumStats


def _ms(mu, sigma):
    return MomentumStats(np.stack((np.asarray(mu, dtype=np.float64),
                                   np.asarray(sigma, dtype=np.float64))))


# --------------------------------------------------- cross-client variance

def test_sharing_variances_single_client_zero():
    vm, vs = sharing_variances([_ms([1.0, 2.0], [3.0, 4.0])])
    assert np.array_equal(vm, [0.0, 0.0])
    assert np.array_equal(vs, [0.0, 0.0])


def test_sharing_variances_identical_clients_zero():
    stats = [_ms([1.0], [2.0]) for _ in range(5)]
    vm, vs = sharing_variances(stats)
    assert np.allclose(vm, 0.0) and np.allclose(vs, 0.0)


def test_sharing_variances_hand_case():
    vm, vs = sharing_variances([_ms([0.0], [1.0]), _ms([2.0], [3.0])])
    assert vm[0] == 1.0  # biased variance of {0, 2}
    assert vs[0] == 1.0


def test_sharing_variances_matches_brute_force():
    rng = np.random.default_rng(0)
    stats = [_ms(rng.standard_normal(4), rng.standard_normal(4))
             for _ in range(7)]
    vm, vs = sharing_variances(stats)
    mus = np.array([s.mu_bar for s in stats])
    want = ((mus - mus.mean(axis=0)) ** 2).mean(axis=0)
    assert np.allclose(vm, want, atol=1e-12)


@pytest.mark.parametrize("clients", [2, 9, 17])
@pytest.mark.parametrize("c", [1, 3])
def test_sharing_variances_bit_equal_to_each_statistic_alone(clients, c):
    # statistic-major stacking keeps each statistic's client sum in the
    # order of an unstacked [K,C] array; at C=1 a client-major stack would
    # not (pairwise along memory vs row by row from 8 clients up)
    rng = np.random.default_rng(clients + c)
    stats = [_ms(rng.standard_normal(c), rng.uniform(0.5, 2, c))
             for _ in range(clients)]
    got = sharing_variances(stats)
    for i, want in enumerate((np.stack([s.mu_bar for s in stats]).var(axis=0),
                              np.stack([s.sigma_bar for s in stats]).var(axis=0))):
        assert np.array_equal(got[i], want)


def test_sharing_variances_empty():
    with pytest.raises(ValueError, match="no client"):
        sharing_variances([])


# ------------------------------------------------------------- aggregation

def test_aggregate_single_model_unchanged():
    p = {"w": np.array([1.0, 2.0]), "b": np.array([[3.0]])}
    out = aggregate([(p, 5.0)])
    for k in p:
        assert np.array_equal(out[k], p[k])


def test_aggregate_equal_weights_mean():
    a = {"w": np.array([0.0])}
    b = {"w": np.array([2.0])}
    out = aggregate([(a, 1.0), (b, 1.0)])
    assert out["w"][0] == 1.0


def test_aggregate_weighted():
    a = {"w": np.array([0.0])}
    b = {"w": np.array([4.0])}
    out = aggregate([(a, 1.0), (b, 3.0)])
    assert out["w"][0] == pytest.approx(3.0, abs=1e-15)


def test_aggregate_identical_models_bit_exact():
    rng = np.random.default_rng(2)
    p = {"w": rng.standard_normal((3, 3)) * 1e3, "b": rng.standard_normal(3)}
    copies = [({k: v.copy() for k, v in p.items()}, w)
              for w in (0.1, 7.0, 23.0)]
    out = aggregate(copies)
    for k in p:
        assert np.array_equal(out[k], p[k])


def test_aggregate_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        aggregate([({"w": np.zeros(2)}, 1.0), ({"w": np.zeros(3)}, 1.0)])


def test_aggregate_name_mismatch():
    with pytest.raises(ValueError, match="differ"):
        aggregate([({"w": np.zeros(2)}, 1.0), ({"v": np.zeros(2)}, 1.0)])


def test_aggregate_bad_weight():
    with pytest.raises(ValueError, match="positive"):
        aggregate([({"w": np.zeros(2)}, 0.0)])
    with pytest.raises(ValueError):
        aggregate([])


# ---------------------------------------------------------------- comm cost

def test_comm_cost_reference_values():
    assert comm_cost([64, 192, 384, 256, 256], 4) == 18432
    assert comm_cost([32, 64, 128, 256, 512], 4) == 15872


def test_comm_cost_no_sites():
    assert comm_cost([], 4) == 0


def test_comm_cost_single_site():
    assert comm_cost([10], 8) == 4 * 10 * 8


def test_comm_cost_rejects_bad_channels():
    with pytest.raises(ValueError, match="positive"):
        comm_cost([16, 0], 4)


@pytest.mark.parametrize("bytes_per_value", [0, -4])
def test_comm_cost_rejects_bad_bytes_per_value(bytes_per_value):
    with pytest.raises(ValueError, match="bytes_per_value must be >= 1"):
        comm_cost([8, 16], bytes_per_value)


# ---------------------------------------------------------------- selection

def test_select_full_participation():
    assert select_clients(5, 1.0, seed=0, round_index=3) == [0, 1, 2, 3, 4]


def test_select_partial_deterministic():
    a = select_clients(10, 0.3, seed=4, round_index=2)
    b = select_clients(10, 0.3, seed=4, round_index=2)
    assert a == b
    assert len(a) == 3
    assert a == sorted(set(a))


def test_select_varies_with_round():
    picks = {tuple(select_clients(10, 0.3, seed=4, round_index=r))
             for r in range(12)}
    assert len(picks) > 1


def test_select_bad_participation():
    with pytest.raises(ValueError, match="participation"):
        select_clients(5, 0.0, seed=0, round_index=0)
    with pytest.raises(ValueError, match="participation"):
        select_clients(5, 1.2, seed=0, round_index=0)


# ------------------------------------------------------------ round driver

CFG = ExperimentConfig(algorithm="fedavg")


def _uploads_of(client_id, channels=(2,)):
    """One statistic per entry of channels: mu_bar holds client_id to the
    powers 1, 2, ..., so the coefficients depend on which clients upload;
    sigma_bar is one."""
    return [_ms(float(client_id) ** np.arange(1, c + 1), np.ones(c))
            for c in channels]


def _const_train_fn(delta=0.0, loss=1.0, n=10, fail_ids=(), channels=(2,)):
    """Local step that adds delta to every parameter and uploads
    _uploads_of(client_id, channels)."""

    def fn(client, round_index, params, coeffs):
        if client.client_id in fail_ids:
            raise ClientTrainingError("boom")
        return LocalResult(params={k: v + delta for k, v in params.items()},
                           momentum=_uploads_of(client.client_id, channels),
                           train_loss=loss + client.client_id, n_samples=n)

    return fn


def _same_coeffs(coeffs, uploads):
    """coeffs equal, bit for bit, those of uploads[client][site], and are
    not uniform, so another set of clients would give others."""
    want = [modulate(sharing_variances([u[k] for u in uploads]))
            for k in range(len(uploads[0]))]
    return len(coeffs) == len(want) and all(
        np.array_equal(c, w) and not np.array_equal(w[0], np.ones_like(w[0]))
        for c, w in zip(coeffs, want))


def _server(channels=(2,)):
    return ServerState(
        params={"w": np.arange(6.0).reshape(2, 3), "b": np.zeros(2)},
        stat_channels=channels,
    )


def _clients(m=3):
    return [ClientState(client_id=i, data=None) for i in range(m)]


def test_run_round_full_participation_losses():
    server = _server()
    report = run_round(server, _clients(3), 0, CFG, _const_train_fn())
    assert report.selected == [0, 1, 2]
    assert report.train_loss == {0: 1.0, 1: 2.0, 2: 3.0}


def test_run_round_broadcasts_read_only_views():
    server = _server()
    server.coeffs = [np.ones((2, 2))]
    own = [*server.params.values(), *server.coeffs]
    written = []

    def writes_in_place(client, round_index, params, coeffs):
        for a in (*params.values(), *coeffs):
            with pytest.raises(ValueError, match="read-only"):
                a += 1.0
        written.append(client.client_id)
        return _const_train_fn()(client, round_index, params, coeffs)

    run_round(server, _clients(2), 0, CFG, writes_in_place)
    assert written == [0, 1]
    # the server's own arrays stay writeable and unchanged
    assert all(a.flags.writeable for a in own)
    assert np.array_equal(own[0], np.arange(6.0).reshape(2, 3))
    assert np.array_equal(own[2], np.ones((2, 2)))


def test_run_round_names_clients_by_id():
    server = _server(channels=(2,))
    clients = [ClientState(client_id=i, data=None) for i in (0, 2, 3)]
    report = run_round(server, clients, 1, CFG, _const_train_fn(fail_ids={2}))
    assert report.selected == [0, 2, 3]
    assert report.train_loss == {0: 1.0, 3: 4.0}
    # coefficients from the survivors 0 and 3 alone
    assert _same_coeffs(server.coeffs, [_uploads_of(0), _uploads_of(3)])
    record = report.record({0: 0.5, 2: 0.25, 3: 0.75})
    assert record["round"] == 1
    assert record["selected"] == [0, 2, 3]
    assert record["train_loss"] == {"0": 1.0, "3": 4.0}
    assert record["mean_train_loss"] == 2.5
    assert record["test_acc"] == {"0": 0.5, "2": 0.25, "3": 0.75}
    assert record["mean_test_acc"] == 0.5
    assert record["uplink_bytes"] == 2 * record["uplink_bytes_per_client"]
    assert record["downlink_bytes"] == 3 * record["downlink_bytes_per_client"]


def test_round_zero_record():
    record = RoundReport(round_index=0, selected=[], train_loss={}).record({1: 0.5})
    assert record == {"round": 0, "selected": [], "train_loss": {},
                      "mean_train_loss": None, "test_acc": {"1": 0.5},
                      "mean_test_acc": 0.5, "uplink_bytes": 0,
                      "downlink_bytes": 0, "uplink_bytes_per_client": 0,
                      "downlink_bytes_per_client": 0}


def test_run_round_times_training_and_aggregation():
    def slow(client, round_index, params, coeffs):
        time.sleep(0.01)
        return _const_train_fn()(client, round_index, params, coeffs)

    report = run_round(_server(), _clients(2), 1, CFG, slow)
    assert report.train_seconds >= 0.02
    assert report.aggregate_seconds >= 0.0
    assert report.train_seconds + report.aggregate_seconds <= report.wall_clock


def test_timing_lines_split_each_round(tmp_path):
    ds = DatasetConfig(classes=3, image_size=4, channels=2, noise=0.5,
                       train_per_client=8, test_per_client=4)
    cfg = ExperimentConfig(algorithm="fedfa", rounds=2, batch_size=8,
                           clients=2, dataset=ds)
    run_dir = run_experiment(cfg, run_root=tmp_path)
    with open(os.path.join(run_dir, "timing.txt")) as f:
        lines = f.read().splitlines()
    assert lines[0].startswith("total_seconds ")
    assert len(lines) == 1 + cfg.rounds
    for i, line in enumerate(lines[1:], start=1):
        key, wall, *phases = line.split()
        assert key == f"round{i}_seconds"
        assert phases[0::2] == ["train", "aggregate", "eval"]
        train, agg, ev = map(float, phases[1::2])
        assert min(train, agg, ev) >= 0.0
        # each figure is rounded to the millisecond
        assert train + agg <= float(wall) + 0.002


def test_run_round_zero_delta_keeps_model_bitwise():
    server = _server()
    before = {k: v.copy() for k, v in server.params.items()}
    run_round(server, _clients(3), 0, CFG, _const_train_fn(delta=0.0))
    for k in before:
        assert np.array_equal(server.params[k], before[k])


def test_run_round_aggregates_mean_shift():
    server = _server()
    run_round(server, _clients(2), 0, CFG, _const_train_fn(delta=0.5))
    assert np.allclose(server.params["b"], 0.5, atol=1e-15)


def test_run_round_byte_accounting():
    server = _server(channels=(4, 8))
    param_bytes = len(checkpoint.encode(server.params))
    stat_bytes = 2 * (4 + 8) * 8
    train_fn = _const_train_fn(channels=(4, 8))
    first = run_round(server, _clients(3), 1, CFG, train_fn)
    assert first.uplink_bytes_per_client == param_bytes + stat_bytes
    assert first.uplink_bytes == 3 * (param_bytes + stat_bytes)
    # no coefficients exist before the first upload: only the model goes down
    assert first.downlink_bytes_per_client == param_bytes
    assert first.downlink_bytes == 3 * param_bytes
    second = run_round(server, _clients(3), 2, CFG, train_fn)
    assert second.uplink_bytes_per_client == param_bytes + stat_bytes
    assert second.downlink_bytes_per_client == param_bytes + stat_bytes


def test_run_round_no_stat_exchange_cheaper():
    plain = run_round(_server(channels=()), _clients(2), 0, CFG,
                      _const_train_fn(channels=()))
    stats = run_round(_server(channels=(4, 8)), _clients(2), 0, CFG,
                      _const_train_fn(channels=(4, 8)))
    assert stats.uplink_bytes_per_client - plain.uplink_bytes_per_client == 2 * 12 * 8


def test_run_round_without_stat_channels_exchanges_nothing():
    # a train_fn that uploads statistics anyway: the server ignores them
    server = _server(channels=())
    param_bytes = len(checkpoint.encode(server.params))
    for r in (1, 2):
        report = run_round(server, _clients(2), r, CFG, _const_train_fn())
        assert server.coeffs is None
        assert report.uplink_bytes_per_client == param_bytes
        assert report.downlink_bytes_per_client == param_bytes


def test_run_round_computes_coeffs_from_uploads():
    server = _server(channels=(2,))
    run_round(server, _clients(3), 0, CFG, _const_train_fn())
    assert server.coeffs is not None and len(server.coeffs) == 1
    # mu_bar spreads across clients, unevenly across channels: weights sum to C
    gamma_mu, gamma_sigma = server.coeffs[0]
    assert gamma_mu.sum() == pytest.approx(2.0, abs=1e-12)
    # sigma_bar identical across clients: zero variance degenerates to uniform
    assert np.array_equal(gamma_sigma, np.ones(2))


def test_run_round_failure_drops_client(caplog):
    server = _server()
    with caplog.at_level(logging.WARNING, logger="fedfa"):
        report = run_round(server, _clients(3), 0, CFG,
                           _const_train_fn(delta=1.0, fail_ids={1}))
    assert report.selected == [0, 1, 2]
    assert sorted(report.train_loss) == [0, 2]
    # the dropped client's statistics reach no coefficient
    assert _same_coeffs(server.coeffs, [_uploads_of(0), _uploads_of(2)])
    assert any("dropped" in r.message for r in caplog.records)
    # survivors still aggregate
    assert np.allclose(server.params["b"], 1.0)
    # uplink counts survivors, downlink the whole broadcast
    assert report.uplink_bytes == 2 * report.uplink_bytes_per_client
    assert report.downlink_bytes == 3 * report.downlink_bytes_per_client


def test_run_round_all_fail_keeps_model():
    server = _server()
    before = {k: v.copy() for k, v in server.params.items()}
    report = run_round(server, _clients(2), 0, CFG,
                       _const_train_fn(fail_ids={0, 1}))
    assert report.train_loss == {}
    for k in before:
        assert np.array_equal(server.params[k], before[k])


def test_run_round_partial_participation_reads_this_rounds_uploads():
    # round 0 sees clients 0..3; round 1's coefficients forget the two
    # clients it did not select
    server = _server(channels=(2,))
    run_round(server, _clients(4), 0, CFG, _const_train_fn())
    half = dataclasses.replace(CFG, participation=0.5, seed=3)
    report = run_round(server, _clients(4), 1, half, _const_train_fn())
    assert len(report.selected) == 2
    assert _same_coeffs(server.coeffs, [_uploads_of(i) for i in report.selected])


def test_run_round_all_dropped_keeps_coeffs():
    server = _server(channels=(2,))
    run_round(server, _clients(3), 0, CFG, _const_train_fn())
    kept = server.coeffs
    run_round(server, _clients(3), 1, CFG, _const_train_fn(fail_ids={0, 1, 2}))
    assert server.coeffs is kept


def test_run_round_uniform_vs_sample_weights():
    def fn(client, round_index, params, coeffs):
        shift = 1.0 if client.client_id == 0 else 3.0
        n = 30 if client.client_id == 0 else 10
        return LocalResult(params={k: v + shift for k, v in params.items()},
                           momentum=[], train_loss=0.0, n_samples=n)

    s1, s2 = _server(channels=()), _server(channels=())
    run_round(s1, _clients(2), 0, dataclasses.replace(CFG, aggregation="samples"), fn)
    run_round(s2, _clients(2), 0, dataclasses.replace(CFG, aggregation="uniform"), fn)
    assert np.allclose(s1.params["b"], 1.5)   # (30*1 + 10*3)/40
    assert np.allclose(s2.params["b"], 2.0)   # (1 + 3)/2


def _push(client, round_index, params, coeffs):
    return LocalResult(params={k: v - 1.0 for k, v in params.items()},
                       momentum=[], train_loss=0.0, n_samples=1)


def test_server_momentum_accelerates():
    # two identical pushes: second update is amplified by the buffer
    server = _server(channels=())
    cfg = ExperimentConfig(algorithm="fedavgm", server_momentum=0.9)
    run_round(server, _clients(2), 0, cfg, _push)
    assert np.allclose(server.params["b"], -1.0)
    run_round(server, _clients(2), 1, cfg, _push)
    # buffer 0.9*1 + 1 = 1.9 applied on top of -1
    assert np.allclose(server.params["b"], -2.9)


def test_server_momentum_only_for_fedavgm():
    # fedavg's config carries server_momentum=0.9 too; it averages plainly
    assert CFG.server_momentum == 0.9
    server = _server(channels=())
    run_round(server, _clients(2), 0, CFG, _push)
    run_round(server, _clients(2), 1, CFG, _push)
    assert np.array_equal(server.params["b"], [-2.0, -2.0])
    assert server.momentum_buf is None


def test_recompute_coeffs_without_uploads_keeps_previous():
    server = _server(channels=(2,))
    server.coeffs = kept = [np.zeros((2, 2))]
    recompute_coeffs(server, [])
    assert server.coeffs is kept
    fresh = _server(channels=(2,))
    recompute_coeffs(fresh, [])
    assert fresh.coeffs is None


def test_recompute_coeffs_one_upload_is_uniform():
    # one client has no spread to modulate: as in a one-client federation
    server = _server(channels=(2, 3))
    recompute_coeffs(server, [[_ms([1.0, 5.0], [2.0, 0.5]),
                               _ms([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])]])
    assert [c.tolist() for c in server.coeffs] == [np.ones((2, 2)).tolist(),
                                                   np.ones((2, 3)).tolist()]
