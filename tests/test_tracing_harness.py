"""The traced benchmark run wraps package functions and curvature properties
by name (``perfbench/tracing.py``); a rename must fail here, not only in
``perfbench/run.py --trace 1``."""

import importlib.util
from pathlib import Path

from tensoralg import scalars
from tensoralg.curvature import MetricContext

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist_in_the_package():
    tracing = _load_tracing()
    for module, names in tracing.FUNCTIONS.items():
        for name in names:
            assert callable(getattr(module, name, None)), \
                f"{module.__name__}.{name}"
    for name in tracing.PROPERTIES:
        assert isinstance(MetricContext.__dict__.get(name), property), name
    assert isinstance(scalars._zero_cache, dict)
