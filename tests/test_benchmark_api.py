"""The benchmark's use of the package: every name it reads must exist.

The benchmark scripts under ``benchmarks/`` call the package as ``mw.<name>``
and wrap the layer paths of ``tracing.LAYERS``; a name deleted from the
package would break their runs long after this suite passed.  The scripts
are read as text, and each workload's timed call and checks also run here
in process, so an attribute they read of a returned object (a row's
``finite``, a report's ``quotients``) cannot drift either.
"""
import ast
import importlib.util
import re
import sys
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


def _workloads(monkeypatch):
    """``benchmarks/workloads.py`` as a module, without touching ``sys.path``;
    it is in ``sys.modules`` for the test only, where its dataclasses look
    up their module."""
    spec = importlib.util.spec_from_file_location("workloads", BENCHMARKS / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["sweeps", "audit-sparse"])
def test_every_benchmark_workload_runs_and_passes_its_checks(name, monkeypatch):
    workloads = _workloads(monkeypatch)
    shapes = workloads.WORKLOADS[name].shapes
    lattices = {(n, L): mweights.Lattice(mweights.default_box(n), L) for n, L in shapes}
    attempted, failed, result = workloads.run(mweights, name, 5)
    failures = []
    workloads.check(mweights, name, 5, lattices, result, failures)
    assert attempted > 0 and failed == 0
    assert failures == []
