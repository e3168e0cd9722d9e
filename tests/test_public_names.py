"""Public names resolve: every module's `__all__`, and every module
attribute that the traced benchmark (`bench/tracing.py`) wraps."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import rcbf_shield

MODULES = ["rcbf_shield"] + [f"rcbf_shield.{info.name}"
                             for info in pkgutil.iter_modules(rcbf_shield.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_every_traced_attribute_exists():
    # a wrapped attribute that is gone fails a traced run with AttributeError
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert len(tracing.SPANS) > 0
    missing = [(module.__name__, attr) for module, attr, _ in tracing.SPANS
               if not hasattr(module, attr)]
    assert missing == []
