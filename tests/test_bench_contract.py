"""What the benchmark under perfbench/ reads from the package.

The benchmark's tracer replaces each target function by name and raises
KeyError on a missing one, and every run records `kernels.NUMBA_ENABLED`;
a rename in the package would only show as a failed benchmark run.
"""

import importlib
import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("name,module,cls,attr", tracer.TARGETS,
                         ids=[t[0] for t in tracer.TARGETS])
def test_traced_attribute_exists(name, module, cls, attr):
    owner = importlib.import_module(module)
    if cls is not None:
        owner = getattr(owner, cls)
    assert callable(owner.__dict__.get(attr)), name


def test_tracer_installs_and_restores():
    from meswarm import joint, kernels
    original = kernels.expm
    with tracer.Tracer():
        assert getattr(kernels.expm, "__perfbench_wrapper__", False)
        assert joint.expm is kernels.expm
    assert kernels.expm is original and joint.expm is original


def test_environment_flag_exists():
    from meswarm import kernels
    assert kernels.NUMBA_ENABLED is False
