import importlib
from pathlib import Path


def test_every_traced_name_resolves(monkeypatch):
    # the traced benchmark run wraps these names and fails on any that is gone
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    layers = importlib.import_module("layers")
    missing = [f"{module}.{attr}" for module, attr, _ in layers.WRAPPED
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
