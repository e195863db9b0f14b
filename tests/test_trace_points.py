"""Every call the benchmark's tracer wraps still exists where it looks for it.

`perfbench/tracer.py` names the functions and methods it times by module
and attribute. A rename in the library would make `--trace 1` fail at
install; this catches it in the unit suite.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _trace_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACE_POINTS


TRACE_POINTS = _trace_points()


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _, _ in TRACE_POINTS],
                         ids=[f"{m}:{a}" for m, a, _, _ in TRACE_POINTS])
def test_trace_point_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    owner_name, _, name = attr.rpartition(".")
    if owner_name:
        # the tracer swaps the method in the class's own namespace
        owner = getattr(module, owner_name)
        assert callable(owner.__dict__.get(name)), f"{attr} is not defined on {owner_name}"
    else:
        assert callable(getattr(module, name, None)), f"{module_name} has no {name}"
