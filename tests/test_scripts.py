"""The bundled scripts run to completion from a plain checkout."""

import ast
import importlib
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["run_cancelling_out.py", "benchmark_solver.py"])
def test_script_exits_zero(script):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr



def _resolves(module_name: str, name: str) -> bool:
    if hasattr(importlib.import_module(module_name), name):
        return True
    try:
        importlib.import_module(f"{module_name}.{name}")
    except ImportError:
        return False
    return True


def test_bench_imports_resolve():
    """Every ``from pcnflow... import name`` in bench/, function-local ones
    included, names something the package still provides."""
    found = []
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pcnflow":
                found += [(path.name, node.module, alias.name) for alias in node.names]
    assert ("traced.py", "pcnflow.cli", "MAX_UNCONFIRMED_SCHEDULE") in found
    missing = [f for f in found if not _resolves(f[1], f[2])]
    assert not missing
