"""Every call target the refutation ledger times must still exist.

``benchmarks/ledger/spans.py`` wraps functions and methods of ``src/`` by
name for its traced run. A rename or deletion there would otherwise only
show when the traced ledger runs; this test resolves each target the way
the recorder does."""

import importlib.util
import os

import pytest

_PATH = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "ledger", "spans.py"
)
_spec = importlib.util.spec_from_file_location("ledger_spans", _PATH)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)

TARGETS = [
    (layer, target) for layer, targets in spans.HOOKS.items() for target in targets
]


@pytest.mark.parametrize("layer,target", TARGETS, ids=[t for _, t in TARGETS])
def test_hook_target_resolves(layer, target):
    owner, attr = spans.resolve(target)
    assert callable(getattr(owner, attr)), (layer, target)

