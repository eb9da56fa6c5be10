"""Every demo script, and the README's library quick start, runs to
completion against the package in ``src``."""
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_quick_start_runs(capsys):
    # the block imports public names, so renaming or deleting one fails here
    section = (ROOT / "README.md").read_text().split("## Quick start (library)", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_every_public_name_resolves():
    # a name deleted by hand must leave its module's __all__ with it
    import mweights

    modules = [mweights] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(mweights.__path__, "mweights.")
    ]
    assert len(modules) >= 15
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"
