"""Self-test of the benchmark: python3 -m pytest perfbench -q

Runs a 2-round config through the same code the benchmark uses, checks
that every metric BENCHMARK.json names is printed with its unit, and that
corrupted run outputs trip the correctness checks.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

import run  # sets up the import path to src/
from checks import check_run
from fedfa import experiment, federation
from fedfa.config import ExperimentConfig
from fedfa.experiment import run_experiment
from spans import Tracer
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(algorithm: str = "fedfa") -> ExperimentConfig:
    cfg = WORKLOADS["fedfa_default"].for_seed(3, run_name="tiny")
    return dataclasses.replace(cfg, algorithm=algorithm, rounds=2)


def _bench(tmp_path, capsys, trace: bool) -> tuple[int, list[str], dict]:
    code = run.bench([tiny()], seed=3, seconds=0, trace=trace, out_dir=tmp_path)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_named_metric_is_printed_with_its_unit(tmp_path, capsys, trace, section):
    code, lines, result = _bench(tmp_path, capsys, trace)
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    named = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == named
    table = {line.split()[0]: line.split()[-1] for line in lines[:-1]
             if not line.startswith("#")}
    for name, unit in named.items():
        assert table[name] == unit
        assert math.isfinite(result["metrics"][name]["value"])
    if trace:
        assert (tmp_path / "spans-tiny.tsv").is_file()


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == run.PER_LAYER


def test_default_workload_is_the_shipped_fedfa_config():
    shipped = ExperimentConfig.from_json(run.ROOT / "configs" / "fedfa.json")
    assert WORKLOADS["fedfa_default"].for_seed(0, run_name=None) == shipped


@pytest.mark.parametrize("algorithm", ["fedfa", "fedavg"])
def test_corrupted_outputs_trip_the_check(tmp_path, algorithm):
    cfg = tiny(algorithm)
    run_dir = run_experiment(cfg, run_root=str(tmp_path))
    metrics = tmp_path / "tiny" / "metrics.jsonl"
    good = metrics.read_text()
    assert check_run(run_dir, cfg)[1] == []

    def corrupt(edit):
        records = [json.loads(line) for line in good.splitlines()]
        edit(records)
        metrics.write_text("".join(json.dumps(r) + "\n" for r in records))
        return check_run(run_dir, cfg)[1]

    assert corrupt(lambda rs: rs[-1].update(mean_test_acc=float("nan")))
    assert corrupt(lambda rs: rs[-1].update(mean_test_acc=0.0))
    assert corrupt(lambda rs: rs[1].update(mean_train_loss=float("inf")))
    assert corrupt(lambda rs: rs[2].update(
        uplink_bytes_per_client=rs[2]["uplink_bytes_per_client"] + 8))
    assert corrupt(lambda rs: rs.pop())
    metrics.write_text(good[: len(good) // 2])
    assert check_run(run_dir, cfg)[1]


def test_a_failed_check_fails_the_run_and_the_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "check_run", lambda run_dir, cfg: ([], ["corrupted"]))
    code, lines, result = _bench(tmp_path, capsys, trace=False)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"] == {}
    assert any(line.split()[:2] == ["failed_frac", "1"] for line in lines)


def test_tracer_puts_every_original_back():
    before = (experiment.run_round, federation.run_round, experiment.augment)
    forward = experiment.ConvNet.forward
    with Tracer() as tracer:
        for target in ["federation.run_round", "augment.augment",
                       "layers.ConvNet.forward"]:
            tracer.span(target)
        # replaced where defined and where imported by name
        assert experiment.run_round is federation.run_round is not before[0]
        assert experiment.augment is not before[2]
        assert experiment.ConvNet.forward is not forward
    assert (experiment.run_round, federation.run_round, experiment.augment) == before
    assert experiment.ConvNet.forward is forward
