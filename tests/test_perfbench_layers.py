"""perfbench's traced entry points must name code that exists.

``perfbench/layers.py`` wraps each ``ENTRY_POINTS`` target by module
attribute.  A target that moved or was renamed is not an error there: the
wrapper is simply never installed and its layer metric reads 0.  This
check fails instead, in the fast suite.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _layers()


@pytest.mark.parametrize(
    "module_name, attr",
    sorted({(module, attr) for _name, module, attr, *_ in layers.ENTRY_POINTS}),
)
def test_entry_point_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    if "." not in attr:
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
        return
    class_name, method = attr.split(".")
    cls = getattr(module, class_name, None)
    assert isinstance(cls, type), f"{module_name}.{class_name}"
    # The patch wraps the method where the class or a subclass defines it.
    defining = [c for c in layers._subclasses(cls) if method in c.__dict__]
    assert defining, f"no class under {module_name}.{class_name} defines {method}"
