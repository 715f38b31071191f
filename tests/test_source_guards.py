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


# Dataclass fields no code in ``src/`` reads, each kept for a stated reason,
# keyed "<path under src/sopflow>::<class>.<field>".
_UNREAD_FIELDS: dict[str, str] = {}


def _reads(node: ast.AST) -> Counter:
    """Every attribute ``node`` loads (``obj.name``) and every identifier string
    (``getattr(obj, "name")``). Plain names and stores are left out: a local
    variable or an assignment of the same name is not a read of the field."""
    read = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            read[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            read[n.value] += 1
    return read


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _dataclass_fields(tree: ast.AST):
    """(class name, field name) of every field of every dataclass in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                        and "ClassVar" not in ast.unparse(stmt.annotation)):
                    yield node.name, stmt.target.id


def test_every_dataclass_field_in_src_is_read_in_src():
    # golden.py is the fixture module, exempt as in the function guard above
    package_root = pathlib.Path(sopflow.__file__).parent
    read = Counter()
    defined = []
    for path in sorted(package_root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read += _reads(tree)
        if path.name != "golden.py":
            rel = path.relative_to(package_root).as_posix()
            defined += [(f"{rel}::{cls}.{name}", name) for cls, name in _dataclass_fields(tree)]
    assert ("agents/types.py::StepRecord.result", "result") in defined  # the scan works
    unread = sorted(key for key, name in defined if not read[name])
    assert unread == sorted(_UNREAD_FIELDS)
