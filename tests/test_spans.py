"""Every span target of the benchmark tracer still exists in the package."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _span_targets() -> list[str]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_FILE)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # defines SPANS; installs no tracer
    return [target for target, *_ in spans.SPANS]


@pytest.mark.parametrize("target", _span_targets())
def test_span_target_resolves(target):
    # the same lookup the tracer makes: a method must sit in its class's
    # own namespace, any other target must be a module attribute
    modname, _, qualname = target.partition(":")
    module = importlib.import_module(f"eulerfourier.{modname}")
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name, None)
        assert owner is not None and attr in vars(owner), f"{target} is gone"
    else:
        assert callable(getattr(module, attr, None)), f"{target} is gone"
