"""Guards on the shape of ``src/``: what it defines, something in it uses."""

import ast
import pathlib
from collections import Counter

import sopflow

# Functions no code in ``src/`` names, each kept for a stated reason, keyed
# "<path under src/sopflow>::<qualified name>".
_UNCALLED = {
    "sandbox/telemetry.py::Telemetry.content_hash":
        "the reference render's digest: the identity tests compare the on-demand "
        "queries against it",
    "evaluation.py::load_report": "the README documents it as the way to read a report",
    "schema.py::_PlainConstructor.construct_document":
        "overrides PyYAML's constructor hook, which the loader calls",
}


def _names(node: ast.AST) -> Counter:
    """Every name ``node`` uses: variables, attributes, and identifier
    strings (``getattr(obj, "name")``)."""
    used = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            used[n.id] += 1
        elif isinstance(n, ast.Attribute):
            used[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            used[n.value] += 1
    return used


def _functions(node: ast.AST, prefix: str = ""):
    """(qualified name, def node) of every function and method under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = prefix + child.name
            if not isinstance(child, ast.ClassDef):
                yield qualname, child
            yield from _functions(child, qualname + ".")
        else:
            yield from _functions(child, prefix)


def test_every_function_in_src_is_used_in_src():
    # golden.py is the fixture module: tests and the demo call into it
    package_root = pathlib.Path(sopflow.__file__).parent
    used = Counter()
    defined = []
    for path in sorted(package_root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # an ``__all__`` entry exports a name; it does not use it
        body = [node for node in tree.body if not (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets))]
        used += _names(ast.Module(body=body, type_ignores=[]))
        if path.name != "golden.py":
            rel = path.relative_to(package_root).as_posix()
            defined += [(f"{rel}::{qualname}", node) for qualname, node in _functions(tree)
                        if not (node.name.startswith("__") and node.name.endswith("__"))]
    unused = sorted(key for key, node in defined
                    if used[node.name] - _names(node)[node.name] <= 0)
    assert unused == sorted(_UNCALLED)
