"""The names the benchmark traces exist, and its tracer puts them back.

``perfbench/run.py`` wraps fedfa functions and methods by name
(``Bench._install``); a name it cannot find fails the benchmark. This runs
that install, from the benchmark's own unedited files, so deleting or
renaming a traced name fails this suite too.
"""

import importlib
import sys
from collections import Counter
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# installed besides run.TRACED, each with a counter of its own
COUNTED = ["experiment.make_train_fn", "experiment.evaluate",
           "federation.run_round", "augment.augment"]


def resolve(target):
    """The object 'module.function' or 'module.Class.method' names in fedfa."""
    module, _, attr = target.partition(".")
    obj = importlib.import_module(f"fedfa.{module}")
    for part in attr.split("."):
        obj = vars(obj)[part]
    return obj


def namespaces():
    """Every fedfa module's and class's namespace entries, by owner and key."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "fedfa" or name.startswith("fedfa.")):
            continue
        for key, value in vars(mod).items():
            out[name, key] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    out[name, key, attr] = member
    return out


def test_install_wraps_every_traced_name_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    spans = importlib.import_module("spans")
    targets = run.TRACED + COUNTED
    originals = {t: resolve(t) for t in targets}
    before = namespaces()
    with spans.Tracer() as tracer:
        run.Bench._install(tracer, Counter(), 1, True)
        for t in targets:
            wrapped = resolve(t)
            assert wrapped is not originals[t], t
            assert wrapped.__wrapped__ is originals[t], t
    after = namespaces()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
