"""Importing the symbolic layers loads neither numpy nor the numeric and
CLI modules: each name is imported from the module that defines it.  The
CLI imports the numeric layer only in the commands that evaluate."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SYMBOLIC = ("coefficients", "letters", "tensor_algebra", "identity_engine",
            "mzv_calculus", "operator_gallery")


def loaded_after(modules, watched):
    """The ``watched`` modules that importing ``modules`` loads."""
    code = (
        "import importlib, json, sys\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
        f"print(json.dumps([m for m in {watched!r} if m in sys.modules]))\n"
    )
    # a fresh interpreter, so modules the test session loaded do not count
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_symbolic_modules_load_no_numpy():
    modules = tuple("rbmzv." + name for name in SYMBOLIC)
    assert loaded_after(modules, ("numpy", "rbmzv.numeric_eval", "rbmzv.cli")) == []


def test_cli_loads_no_numpy():
    assert loaded_after(("rbmzv.cli",), ("numpy", "rbmzv.numeric_eval")) == []
