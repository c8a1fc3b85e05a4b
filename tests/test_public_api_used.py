"""Every definition in ``src/rbmzv`` has a caller outside the tests.

The library's modules and the benchmark harness under ``perfbench/`` are
parsed with ``ast``.  A definition is a top-level
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
nothing.  An import is not a use, so re-exporting a name from
``__init__.py`` does not keep it alive.  The benchmark also names library
functions in strings (``spans.TARGETS``, ``getattr(mzv, family)``), so
there a string equal to a qualified name (``f`` or ``Class.method``)
refers to that definition.
A dead method that shares its name with a live one is not caught, nor is
a method that only a live dunder method calls.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rbmzv"

#: Definitions kept without a caller in the library: the acceptance gate
#: and ``conftest.random_sha_element`` use the first four, ROADMAP item 2's
#: corpus audit reads corpus files with ``Relation.from_json``, and
#: ``__version__`` is package metadata.
KEPT = {
    "nested_sum_oracle",
    "Relation.as_dict",
    "ShaAlgebra.element",
    "PolyQ.evaluate",
    "Relation.from_json",
    "__version__",
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
    unused = _unused(KEPT)
    assert unused == [], (
        "called only from tests/ (move a test-only reference into its test "
        f"file, or delete it): {', '.join(unused)}")


def test_kept_names_are_defined_and_still_uncalled():
    # an entry that gains a caller, or whose definition is gone, leaves
    # the allow-list
    defined = {qual for _, qual, _, _ in _library()[0]}
    assert KEPT <= defined
    uncalled = {name.split(".", 1)[1] for name in _unused(set())}
    assert KEPT <= uncalled
