"""Property tests of the round protocol on small federations.

Each example trains a federation of at most six clients with the library's
own ``train_fn``. A fault injector makes chosen clients raise
``ClientTrainingError`` at their last ``"shuffle"`` draw of ``rng.stream``,
after a local epoch of training, so a dropout takes the path a failing
client would. Every round is checked against the protocol: the bytes each
way, coefficients from that round's survivors alone, and a server left as
it was when every selected client drops. A rerun repeats every output.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fedfa import checkpoint, experiment
from fedfa.augment import modulate
from fedfa.config import DatasetConfig, ExperimentConfig
from fedfa.federation import ClientTrainingError, sharing_variances
from fedfa.layers import default_net_spec

ROUNDS = 3
EPOCHS = 2  # the injected fault comes after one epoch of local training
DS = DatasetConfig(classes=3, image_size=4, channels=1, noise=0.5,
                   train_per_client=6, test_per_client=2)
SPEC = default_net_spec(channels=1, image_size=4, classes=3)


@st.composite
def federations(draw):
    """(clients, participation, seed, faults): faults holds the (round,
    client_id) pairs whose training fails."""
    m = draw(st.integers(2, 6))  # a feature shift needs two clients
    pairs = [(r, c) for r in range(1, ROUNDS + 1) for c in range(m)]
    fails = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return (m, draw(st.floats(0.05, 1.0)), draw(st.integers(0, 2 ** 16)),
            frozenset(p for p, fail in zip(pairs, fails) if fail))


def _injector(stream, faults):
    """rng.stream, but the last shuffle draw of a faulty (round, client)
    raises instead."""

    def draw(seed, name, *key):
        if name == "shuffle" and key[:2] in faults and key[2] == EPOCHS - 1:
            raise ClientTrainingError(f"injected at {name}{key}")
        return stream(seed, name, *key)

    return draw


def _train(cfg, faults):
    """federated_training under the injector; returns its records, the
    final model's bytes and, per round, what the server held before and
    after it, the surviving clients' uploads and the round report."""
    ds = experiment.build_dataset(cfg.dataset, cfg.clients, cfg.seed)
    rounds = []
    run_round = experiment.run_round

    def recorded(server, clients, round_index, rcfg, train_fn):
        uploads = {}

        def train(client, *args):
            uploads[client.client_id] = res = train_fn(client, *args)
            return res

        before = ({k: v.copy() for k, v in server.params.items()},
                  None if server.coeffs is None else [c.copy() for c in server.coeffs])
        report = run_round(server, clients, round_index, rcfg, train)
        rounds.append(dict(params=before[0], coeffs=before[1], uploads=uploads,
                           report=report, stat_channels=server.stat_channels,
                           params_after=server.params, coeffs_after=server.coeffs))
        return report

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiment, "stream", _injector(experiment.stream, faults))
        mp.setattr(experiment, "run_round", recorded)
        server, _, records, _ = experiment.federated_training(
            cfg, ds, list(range(cfg.clients)))
    return records, checkpoint.encode(server.params), rounds


def _check_round(cfg, faults, r, rnd, coeffs_exist):
    """The protocol's rules for round r; coeffs_exist says whether any
    earlier round had a survivor. Returns the round's survivors."""
    report, uploads = rnd["report"], rnd["uploads"]
    survivors = [c for c in report.selected if (r, c) not in faults]
    assert sorted(report.train_loss) == survivors
    full = cfg.method.variant == "full"
    # two float64 vectors per site each way, for the full variant only
    stat_bytes = 2 * 8 * sum(SPEC.stage_channels) if full else 0
    assert rnd["stat_channels"] == (SPEC.stage_channels if full else ())

    up = len(checkpoint.encode(rnd["params"])) + stat_bytes
    assert report.uplink_bytes_per_client == up
    assert report.uplink_bytes == len(survivors) * up
    assert (rnd["coeffs"] is not None) == (full and coeffs_exist)
    down = len(checkpoint.encode(rnd["params"])) + (stat_bytes if coeffs_exist else 0)
    assert report.downlink_bytes_per_client == down
    assert report.downlink_bytes == len(report.selected) * down

    for c in survivors:
        assert len(uploads[c].momentum) == (len(SPEC.stages) if full else 0)
    if not survivors:
        for k, v in rnd["params"].items():
            assert np.array_equal(rnd["params_after"][k], v)
        _assert_same(rnd["coeffs_after"], rnd["coeffs"])
        return survivors
    if full:
        want = [modulate(sharing_variances([uploads[c].momentum[k] for c in survivors]))
                for k in range(len(SPEC.stages))]
        _assert_same(rnd["coeffs_after"], want)
        for gamma, channels in zip(rnd["coeffs_after"], SPEC.stage_channels):
            assert gamma.shape == (2, channels)
            assert np.allclose(gamma.sum(axis=1), channels, rtol=1e-12, atol=0)
            if len(survivors) == 1:  # no spread: uniform
                assert np.array_equal(gamma, np.ones((2, channels)))
    else:
        assert rnd["coeffs_after"] is None
    return survivors


def _assert_same(got, want):
    if want is None:
        assert got is None
        return
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("algorithm", ["fedfa", "fedfa-c", "fedavg"])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(federation=federations())
# one survivor in round 1, then every client drops in round 2
@example(federation=(3, 1.0, 5, frozenset({(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)})))
# every client drops in round 1, before any coefficients exist
@example(federation=(2, 1.0, 2, frozenset({(1, 0), (1, 1)})))
def test_round_protocol(algorithm, federation):
    m, participation, seed, faults = federation
    cfg = ExperimentConfig(algorithm=algorithm, rounds=ROUNDS,
                           local_epochs=EPOCHS, batch_size=4, clients=m,
                           participation=participation, seed=seed, dataset=DS)
    records, model, rounds = _train(cfg, faults)
    assert len(rounds) == ROUNDS
    coeffs_exist = False
    for r, rnd in enumerate(rounds, start=1):
        survivors = _check_round(cfg, faults, r, rnd, coeffs_exist)
        coeffs_exist = coeffs_exist or bool(survivors)
    again, model_again, _ = _train(cfg, faults)
    assert json.dumps(again) == json.dumps(records)
    assert model_again == model
