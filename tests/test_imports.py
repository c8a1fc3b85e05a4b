"""Importing the symbolic layers loads neither numpy nor the numeric and
CLI modules: each name is imported from the module that defines it."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SYMBOLIC = ("coefficients", "letters", "tensor_algebra", "identity_engine",
            "mzv_calculus", "operator_gallery")
NOT_LOADED = ("numpy", "rbmzv.numeric_eval", "rbmzv.cli")


def test_symbolic_modules_load_no_numpy():
    code = (
        "import importlib, json, sys\n"
        f"for name in {SYMBOLIC!r}:\n"
        "    importlib.import_module('rbmzv.' + name)\n"
        f"print(json.dumps([m for m in {NOT_LOADED!r} if m in sys.modules]))\n"
    )
    # a fresh interpreter, so modules the test session loaded do not count
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == []
