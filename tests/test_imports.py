"""Every submodule imports on its own, and no import sits inside a function.

An import inside a function body usually hides an import cycle.  The
package keeps its module graph acyclic instead, so any submodule can be the
first one a fresh interpreter imports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "phi4lattice"
SUBMODULES = sorted(p.stem for p in PKG.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_imports_first(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", f"import phi4lattice.{module}"], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_imports_without_scipy():
    # scipy is a test dependency only: every submodule imports with it blocked
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            + "".join(f"import phi4lattice.{module}\n" for module in SUBMODULES))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_small_run_starts_no_thread():
    # importing the package and drawing below the noise prefetch size stays single-threaded
    code = ("import threading\n"
            "import phi4lattice\n"
            "from phi4lattice.dynamics import SimConfig, run_chain\n"
            "run_chain(SimConfig(d=1, N=3, dt=0.01, t_end=0.2))\n"
            "print(threading.active_count())\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"]


def test_no_import_inside_a_function():
    found = []
    for path in sorted(PKG.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not found, f"imports inside function bodies: {found}"
