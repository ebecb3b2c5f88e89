"""Smoke-run every example script so none can rot silently, and check that
each ``repro`` import the examples and docs show resolves."""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
EXAMPLES = ROOT / "examples"

FAST_EXAMPLES = [
    "observation_explorer.py",
    "filestore_durability.py",
    "datacenter_recovery.py",
    "capacity_planning.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs_clean(script, tmp_path):
    args = [sys.executable, str(EXAMPLES / script)]
    if script == "filestore_durability.py":
        args.append(str(tmp_path / "store"))
    proc = subprocess.run(args, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout  # produced a report


def test_quickstart_runs_clean():
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / "quickstart.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "Figure 2 motivation" in proc.stdout
    assert "Single-disk recovery" in proc.stdout
    # the Figure-2 numbers must be in the output verbatim
    assert "7.000" in proc.stdout and "5.000" in proc.stdout


def test_spec_files_are_valid():
    from repro.experiment import expand_sweep
    import json

    for spec_path in (EXAMPLES / "specs").glob("*.json"):
        specs = expand_sweep(json.loads(spec_path.read_text()))
        assert specs, spec_path


def documented_sources():
    """``(where, source)`` of every example script and of every
    ```` ```python ```` block in README.md and docs/*.md."""
    for path in sorted(EXAMPLES.glob("*.py")):
        yield path.name, path.read_text()
    for doc in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        blocks = re.findall(r"```python\n(.*?)```", doc.read_text(), re.S)
        for i, block in enumerate(blocks):
            yield f"{doc.name} block {i}", block


def resolves(module, name=None):
    """``module`` imports and, given ``name``, has it as an attribute or a
    submodule."""
    try:
        found = importlib.import_module(module)
    except ImportError:
        return False
    return name is None or hasattr(found, name) or resolves(f"{module}.{name}")


def test_documented_imports_resolve():
    """Parsed, not run: every ``import repro...`` and ``from repro...
    import name`` the examples and docs show resolves."""
    unresolved = []
    for where, source in documented_sources():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                wanted = [(alias.name, None) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                wanted = [(node.module, alias.name) for alias in node.names]
            else:
                continue
            unresolved += [
                f"{where}: {module} {name or ''}" for module, name in wanted
                if module.split(".")[0] == "repro" and not resolves(module, name)
            ]
    assert unresolved == []
