"""Every definition in ``src/rbmzv`` has a caller outside the tests.

Two checks share one keep map, ``KEPT``.

The static check parses the library's modules and the benchmark harness
under ``perfbench/`` with ``ast``.  A definition is a top-level
function, class or constant, or a method with an ordinary (non-dunder)
name.  The code outside any definition, in the library and in the
benchmark, is live; a definition is live once live code other than its
own body refers to its name, and then its body is live too.  A live
class's dunder methods are live with it, since Python calls them
implicitly.  A definition that never becomes live is reported unless it
is in ``KEPT``.

Names are matched by spelling, not resolved: an attribute ``x.foo`` or a
global ``foo`` keeps every definition named ``foo`` alive, while a name a
function binds itself (a parameter or a local variable) refers to
nothing.  An import is not a use, so a name that another module only
imports is not kept alive by it.  The benchmark also names library
functions in strings (``spans.TARGETS``, ``getattr(mzv, family)``), so
there a string equal to a qualified name (``f`` or ``Class.method``)
refers to that definition.

Matching names cannot see a dunder nothing calls, a method shadowed by a
live one of the same name, or a method that only a live dunder calls.
The runtime check covers those: it runs every CLI example in the README
(in both output formats), the verify modes the README does not show, and
the first op of each family in the benchmark's first seed-1 cycle, under
``sys.setprofile``, and reports every ``def`` in the library (methods,
dunders and nested functions alike) that none of them enters.  A nested
function of a kept definition is kept with it.
"""

import ast
import contextlib
import io
import re
import shlex
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rbmzv"

_VALUE = "value semantics: equal values compare and hash equal; tests compare results"
_FROZEN = "immutability: an assignment raises"
_PICKLE = "pickle and copy"
_REPR = "repr, for debugging"

#: Definitions kept although no library code calls them (static check) or
#: no command or benchmark op enters them (runtime check), each with why.
KEPT = {
    "nested_sum_oracle": "the acceptance gate's exact oracle",
    "Relation.as_dict": "the acceptance gate reads a relation with it",
    "PolyQ.evaluate": "the acceptance gate evaluates q-stuffle coefficients",
    "Relation.from_json": "reads corpus files back, for the planned corpus audit",
    "__version__": "package metadata",
    "DensePoly.__bool__": "without it every XPoly would be truthy",
    "DensePoly.__eq__": _VALUE,
    "DensePoly.__hash__": _VALUE,
    "PolyQ.__eq__": _VALUE,
    "RatFuncQ.__eq__": _VALUE,
    "RatFuncQ.__hash__": _VALUE,
    "PolyQ.degree": "RatFuncQ.__hash__ and __str__ read it",
    "DensePoly.__setattr__": _FROZEN,
    "RatFuncQ.__setattr__": _FROZEN,
    "DensePoly.__reduce__": _PICKLE,
    "RatFuncQ.__reduce__": _PICKLE,
    "DensePoly.__repr__": _REPR,
    "RatFuncQ.__repr__": _REPR,
    "LetterSystem.__repr__": _REPR,
    "ShaElement.__repr__": _REPR,
    "XPoly.__str__": "renders a nonzero gallery defect in a failure message",
    "RatFuncQ.__str__": "renders an XPoly's coefficients",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _locals(fn):
    """Names a function binds itself: parameters, assignments, inner defs."""
    bound = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not fn:
            bound.add(node.name)
    for node in ast.walk(fn):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            bound.difference_update(node.names)
    return bound


def _refs(node):
    """Global names and attribute names the code under ``node`` refers to.

    A function's defaults, decorators and annotations are read where it is
    defined; its body is read with its own locals bound.
    """
    out = set()
    stack = [(node, frozenset())]
    while stack:
        cur, bound = stack.pop()
        if isinstance(cur, _FUNCTIONS):
            args = cur.args
            outer = [d for d in args.defaults + args.kw_defaults if d is not None]
            outer += getattr(cur, "decorator_list", [])
            outer += [a.annotation for a in ast.walk(args)
                      if isinstance(a, ast.arg) and a.annotation is not None]
            if getattr(cur, "returns", None) is not None:
                outer.append(cur.returns)
            stack.extend((n, bound) for n in outer)
            inner = bound | _locals(cur)
            body = cur.body if isinstance(cur.body, list) else [cur.body]
            stack.extend((n, inner) for n in body)
            continue
        if isinstance(cur, ast.Name) and cur.id not in bound:
            out.add(cur.id)
        elif isinstance(cur, ast.Attribute):
            out.add(cur.attr)
        stack.extend((c, bound) for c in ast.iter_child_nodes(cur))
    return out


def _library():
    """(definitions, root refs): each definition is (module, qualname,
    name, refs of its body); the roots are the refs of the library code
    outside any definition."""
    defs, roots = [], set()
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((module, stmt.name, stmt.name, _refs(stmt)))
            elif isinstance(stmt, ast.ClassDef):
                own = set()
                for part in stmt.bases + stmt.keywords + stmt.decorator_list:
                    own |= _refs(part)
                for item in stmt.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not _is_dunder(item.name)):
                        defs.append((module, f"{stmt.name}.{item.name}",
                                     item.name, _refs(item)))
                    else:
                        own |= _refs(item)
                defs.append((module, stmt.name, stmt.name, own))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                value = _refs(stmt.value) if stmt.value is not None else set()
                for t in targets:
                    if isinstance(t, ast.Name):
                        defs.append((module, t.id, t.id, value))
                    else:
                        roots |= _refs(t)
            else:
                roots |= _refs(stmt)
    return defs, roots


def _benchmark_refs():
    """(names the benchmark's code refers to, the strings it holds)."""
    names, strings = set(), set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names |= _refs(tree)
        strings.update(node.value for node in ast.walk(tree)
                       if isinstance(node, ast.Constant) and isinstance(node.value, str))
    return names, strings


def _unused(kept):
    """Qualified names of the definitions no live code refers to."""
    defs, roots = _library()
    names, strings = _benchmark_refs()
    names |= roots
    kept = kept | strings
    live = set()
    grew = True
    while grew:
        grew = False
        for i, (_, qual, name, refs) in enumerate(defs):
            if i not in live and (name in names or qual in kept):
                live.add(i)
                names |= refs
                grew = True
    return sorted(f"{module}.{qual}" for i, (module, qual, _, _) in enumerate(defs)
                  if i not in live)


def test_every_definition_has_a_caller():
    unused = _unused(set(KEPT))
    assert unused == [], (
        "called only from tests/ (move a test-only reference into its test "
        f"file, or delete it): {', '.join(unused)}")


# --- the runtime check ----------------------------------------------------------

#: the verify modes the README shows no example of
OTHER_VERIFY_MODES = ("expstar", "zrb", "integration")
#: caps on the benchmark ops' numeric truncations N and K and on their corpus
#: build weight: a capped op runs the same code in a fraction of the time
MAX_TRUNCATION = 200_000
MAX_CORPUS_WEIGHT = 10


def _readme_commands():
    """The argument lists of the ``rbmzv`` lines in the README's sh blocks."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.S | re.M):
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["rbmzv"]:
                commands.append(words[1:])
    return commands


def test_other_verify_modes_have_no_readme_example():
    shown = {argv[1] for argv in _readme_commands() if argv[:1] == ["verify"]}
    assert not shown & set(OTHER_VERIFY_MODES)


def _run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert (code, err.getvalue()) == (0, ""), f"rbmzv {shlex.join(argv)}"


def _run_benchmark_ops(worker):
    """Run the first op of each family in each workload's first seed-1
    cycle through the benchmark's own preparation and check."""
    workloads = worker.workloads
    for workload in workloads.WORKLOADS:
        mods = worker.import_library(workload)
        families = set()
        for op in next(workloads.cycles(workload, 1)):
            if op.family in families:
                continue
            families.add(op.family)
            args = op.args
            for key in ("N", "K"):
                if key in args:
                    args[key] = min(args[key], MAX_TRUNCATION)
            if workload == "corpus":
                args["max_weight"] = min(args["max_weight"], MAX_CORPUS_WEIGHT)
                state = {"lookups": 0, "entries": 0, "text": ""}
                call, check = worker.prepare_corpus(op, mods, state)
            elif workload == "numeric":
                call, check = worker.prepare_numeric(op, mods)
            else:
                call, check = worker.prepare_symbolic(op, mods)
            assert check(call()) is None, f"{workload} op {op.family} {args}"


@pytest.fixture(scope="module")
def entered(tmp_path_factory):
    """(file, first line) of every function the commands and ops enter."""
    tmp = tmp_path_factory.mktemp("reach")
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp)  # the README's corpus example writes into the cwd
        mp.syspath_prepend(str(ROOT / "perfbench"))
        import worker
        from rbmzv import cli

        mp.setattr(worker, "CORPUS_OUT", tmp / "corpus.jsonl")
        commands = _readme_commands() + [["verify", m] for m in OTHER_VERIFY_MODES]
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            for argv in commands:
                for fmt in ("json", "text"):
                    _run_cli(cli, ["--format", fmt, *argv])
            _run_benchmark_ops(worker)
        finally:
            sys.setprofile(previous)
    return {(Path(c.co_filename).resolve(), c.co_firstlineno) for c in codes}


def _definitions():
    """(module, qualified name, (file, first line)) of every ``def`` in the
    library.  A decorated function's code starts at its first decorator;
    keying on the line, not ``co_qualname``, runs on Python 3.10."""
    out = []

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qual = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out.append((path.stem, qual, (path.resolve(), first)))
                visit(child, path, qual + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return out


def _kept(qual):
    """Whether ``qual`` or a definition it is nested in is in KEPT."""
    parts = qual.split(".")
    return any(".".join(parts[:i]) in KEPT for i in range(1, len(parts) + 1))


def test_every_definition_runs(entered):
    missed = [f"{module}.{qual}" for module, qual, key in _definitions()
              if key not in entered and not _kept(qual)]
    assert missed == [], (
        "no command or benchmark op enters (delete it, or keep it in KEPT "
        f"with a reason): {', '.join(missed)}")


def test_kept_names_are_defined_and_still_uncalled(entered):
    # an entry whose definition is gone, or that both checks would pass
    # without, leaves the keep map
    defs = {qual: key for _, qual, key in _definitions()}
    statics = {qual for _, qual, _, _ in _library()[0]}
    assert set(KEPT) <= set(defs) | statics
    uncalled = {name.split(".", 1)[1] for name in _unused(set())}
    not_entered = {qual for qual, key in defs.items() if key not in entered}
    assert set(KEPT) <= uncalled | not_entered
    assert all(KEPT.values())
