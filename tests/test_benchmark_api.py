"""The benchmark's use of the package: every name it reads must exist.

The benchmark scripts under ``benchmarks/`` call the package as ``mw.<name>``
and wrap the layer paths of ``tracing.LAYERS``; a name deleted from the
package would break their runs long after this suite passed.  The scripts
are read as text, never run.
"""
import ast
import re
from pathlib import Path

import pytest

import mweights

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _resolve(path):
    obj = mweights
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _mw_names():
    names = set()
    for script in ("workloads.py", "round.py"):
        text = (BENCHMARKS / script).read_text()
        names.update(re.findall(r"\bmw\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)", text))
    return sorted(names)


def _layer_paths():
    tree = ast.parse((BENCHMARKS / "tracing.py").read_text())
    (layers,) = (
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]
    )
    return sorted({path for paths in layers.values() for path in paths})


def test_the_benchmark_names_some_of_the_package():
    assert len(_mw_names()) > 10
    assert {"ap_constant", "Weight.cell_masses"} <= set(_layer_paths())


@pytest.mark.parametrize("name", _mw_names())
def test_every_mw_name_of_the_benchmark_resolves(name):
    _resolve(name)


@pytest.mark.parametrize("path", _layer_paths())
def test_every_traced_layer_path_resolves(path):
    assert callable(_resolve(path))
