"""The traced benchmark run wraps package functions and curvature properties
by name (``perfbench/tracing.py``); a rename must fail here, not only in
``perfbench/run.py --trace 1``."""

import importlib.util
import json
from pathlib import Path

import pytest

from tensoralg import cli, scalars
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


# a frame with exp, which is no field kernel: every stage on trees
TREE_FRAME = """\
[chart] coords = t, r, theta
[frame] row = exp(r), 0, 0
[frame] row = 0, 1, 0
[frame] row = 0, 0, r
[frame] frame_metric = diag(-1,1,1)
"""


@pytest.mark.parametrize("source", ["field", "trees"])
def test_compute_prints_every_value_through_render(source, tmp_path,
                                                   monkeypatch, capsys):
    # the traced run times printing as scalars.render; a CLI that wrote
    # components another way would read 0 there without failing a test
    if source == "field":
        argv = ["--catalog", "spherical", "--frame"]
    else:
        path = tmp_path / "tree.mf"
        path.write_text(TREE_FRAME)
        argv = ["--metric", str(path), "--frame"]
    rendered, render = [], scalars.render

    def counted(e, K=None):
        rendered.append(render(e, K))
        return rendered[-1]
    monkeypatch.setattr(scalars, "render", counted)
    assert cli.main(["compute", *argv, "--tensors", "all",
                     "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    printed = [document.pop("scalar")["value"]]
    for stage in document.values():
        printed += stage["components"].values()
    assert set(document) >= {"christoffel1", "riemann", "rotation_coeffs"}
    assert len(printed) > 1 and sorted(rendered) == sorted(printed)
