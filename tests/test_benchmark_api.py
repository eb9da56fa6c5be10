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


def _tracing(monkeypatch):
    """``benchmarks/tracing.py`` as a module, the way :func:`_workloads`
    loads its neighbour."""
    spec = importlib.util.spec_from_file_location("tracing", BENCHMARKS / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _traced_attributes(originals):
    """Every attribute of a loaded mweights module, or of a class holding a
    traced method, that wraps one of ``originals``, as ``(owner, name)``."""
    owners = [m for name, m in sys.modules.items() if name.split(".")[0] == "mweights"]
    owners += [mweights.Weight]
    return [
        (owner, name)
        for owner in owners
        for name, value in list(vars(owner).items())
        if any(getattr(value, "__wrapped__", None) is fn for fn in originals)
    ]


def test_the_traced_audit_records_one_checked_family_per_kept_trial(monkeypatch):
    tracing = _tracing(monkeypatch)
    workloads = _workloads(monkeypatch)
    # monkeypatch records every attribute the tracer is about to replace,
    # so that undoing it puts the package back as it was
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "mweights"]
    originals = []
    for paths in tracing.LAYERS.values():
        for path in paths:
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mweights, cls_name)
                originals.append(vars(cls)[attr])
                monkeypatch.setattr(cls, attr, originals[-1])
                continue
            originals.append(getattr(mweights, path))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is originals[-1]:
                        monkeypatch.setattr(module, attr, value)
    assert _traced_attributes(originals) == []
    tracer = tracing.Tracer()
    tracer.install(mweights)
    try:
        assert len(_traced_attributes(originals)) > len(tracing.LAYERS)
        _, _, report = workloads.run(mweights, "audit-sparse", 7)
    finally:
        tracer.stop()
        monkeypatch.undo()
    assert _traced_attributes(originals) == []
    failures = []
    workloads.check_families(mweights, tracer.families, failures)
    assert failures == []
    skips = report.skipped_by_reason
    kept = report.trials - skips["input_norms"] - skips["sparseness"]
    assert len(tracer.families) == kept == 20
    cubes = sum(len(fam) for _, _, fam in tracer.families)
    assert tracer.counts["operators.sparse_cubes"] == cubes > kept
    assert report.largest_family == max(len(fam) for _, _, fam in tracer.families)
