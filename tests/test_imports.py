"""Importing the symbolic layers loads neither numpy nor the numeric and
CLI modules: each name is imported from the module that defines it.  The
CLI and the corpus import the numeric layer only where they evaluate, so
generating the corpus's relations loads no numpy either."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SYMBOLIC = ("coefficients", "letters", "tensor_algebra", "identity_engine",
            "mzv_calculus", "operator_gallery")


def fresh(code):
    """The JSON that ``code`` prints, run in a fresh interpreter, so that
    modules the test session loaded do not count."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def loaded_after(modules, watched):
    """The ``watched`` modules that importing ``modules`` loads."""
    return fresh(
        "import importlib, json, sys\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
        f"print(json.dumps([m for m in {watched!r} if m in sys.modules]))\n"
    )


def test_symbolic_modules_load_no_numpy():
    modules = tuple("rbmzv." + name for name in SYMBOLIC)
    assert loaded_after(modules, ("numpy", "rbmzv.numeric_eval", "rbmzv.cli")) == []


def test_numeric_layer_loads_no_symbolic_module():
    # the composition rules live in a leaf module, so checking an input
    # loads no Sha algebra, coefficient tower or relation generator
    got = fresh(
        "import json, sys\n"
        "import rbmzv.numeric_eval\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('rbmzv.'))))\n"
    )
    assert got == ["rbmzv.compositions", "rbmzv.numeric_eval"]


def test_cli_loads_no_numpy():
    assert loaded_after(("rbmzv.cli", "rbmzv.corpus"),
                        ("numpy", "rbmzv.numeric_eval")) == []


def test_corpus_generate_stage_loads_no_numpy():
    got = fresh(
        "import json, sys\n"
        "from rbmzv.corpus import corpus_relations\n"
        "keys = [r[:3] for r in corpus_relations(8, 4)]\n"
        "print(json.dumps({'keys': keys, 'loaded': [m for m in\n"
        "    ('numpy', 'rbmzv.numeric_eval') if m in sys.modules]}))\n"
    )
    assert got["loaded"] == []
    keys = [tuple(k) for k in got["keys"]]
    # as many as build_corpus(8, 4) writes entries, sorted and unique
    assert len(keys) == 79
    assert keys == sorted(set(keys))
