"""The benchmark's per-layer tracer wraps endop functions and methods by
name; every name it lists must still resolve, or a traced run would crash."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize(
    "module_name, name", [(m, n) for m, names in _targets().items() for n in names]
)
def test_traced_name_resolves(module_name, name):
    home = importlib.import_module(f"endop.{module_name}")
    if "." in name:
        # methods are wrapped in the class's own namespace, not inherited
        cls_name, method = name.split(".")
        assert callable(vars(getattr(home, cls_name))[method])
    else:
        assert callable(getattr(home, name))
