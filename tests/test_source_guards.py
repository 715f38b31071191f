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


def _class_name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _annotation_owner(annotation) -> str | None:
    """The class an annotation names: ``T``, ``mod.T``, ``"T"`` or ``T | None``.
    None for anything else: a container, ``Any``, no annotation."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        annotation = ast.parse(annotation.value, mode="eval").body
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        sides = [side for side in (annotation.left, annotation.right)
                 if not (isinstance(side, ast.Constant) and side.value is None)]
        return _annotation_owner(sides[0]) if len(sides) == 1 else None
    name = _class_name(annotation)
    return None if name in ("Any", "object") else name


def _scope(function, cls: str | None) -> dict[str, str | None]:
    """Name -> the class of its value, for the names ``function`` binds: an
    annotated parameter or local, or a method's first parameter, whose class
    is ``cls``. None for a name bound with no stated class."""
    args = function.args
    positional = [*args.posonlyargs, *args.args]
    scope = {arg.arg: _annotation_owner(arg.annotation)
             for arg in [*positional, *args.kwonlyargs, args.vararg, args.kwarg] if arg}
    if cls and positional:
        scope[positional[0].arg] = cls
    for node in ast.walk(function):
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            scope[node.target.id] = _annotation_owner(node.annotation)
    return scope


class _Classes:
    """Every class in the scanned sources: its bases, and the class of each
    attribute whose class the source states (an annotated class-body name, a
    property's return annotation, or ``self.name`` set in a method from an
    annotated parameter or a constructor call)."""

    def __init__(self, trees):
        nodes = [n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
        self.bases = {node.name: [_class_name(b) for b in node.bases] for node in nodes}
        stated: dict[tuple[str, str], set] = {}
        for node in nodes:
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    stated.setdefault((node.name, stmt.target.id), set()).add(
                        _annotation_owner(stmt.annotation))
                if not isinstance(stmt, ast.FunctionDef):
                    continue
                if any(_class_name(d) == "property" for d in stmt.decorator_list):
                    stated.setdefault((node.name, stmt.name), set()).add(
                        _annotation_owner(stmt.returns))
                scope = _scope(stmt, node.name)
                for sub in ast.walk(stmt):
                    targets = (sub.targets if isinstance(sub, ast.Assign)
                               else [sub.target] if isinstance(sub, ast.AnnAssign) else [])
                    for target in targets:
                        if (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
                                and scope.get(target.value.id) == node.name):
                            owner = (_annotation_owner(sub.annotation)
                                     if isinstance(sub, ast.AnnAssign) else self._made(sub.value, scope))
                            stated.setdefault((node.name, target.attr), set()).add(owner)
        # an attribute given values of two classes, or one of no stated class, has none
        self.attrs = {key: owners.pop() for key, owners in stated.items()
                      if len(owners) == 1 and None not in owners}

    def _made(self, node, scope) -> str | None:
        if isinstance(node, ast.Name):
            return scope.get(node.id)
        if isinstance(node, ast.Call) and _class_name(node.func) in self.bases:
            return _class_name(node.func)
        return None

    def lineage(self, cls: str | None) -> list[str]:
        """``cls`` and its ancestors among the scanned classes, nearest first."""
        out, todo = [], [cls]
        while todo:
            current = todo.pop(0)
            if current in self.bases and current not in out:
                out.append(current)
                todo += self.bases[current]
        return out

    def owner(self, node, scope: dict) -> str | None:
        """The class of the value ``node`` evaluates to, where the source states it."""
        if isinstance(node, ast.Attribute):
            owner = self.owner(node.value, scope)
            return next((self.attrs[(cls, node.attr)] for cls in self.lineage(owner)
                         if (cls, node.attr) in self.attrs), None)
        return self._made(node, scope)


def _reads(trees) -> tuple[set[tuple[str, str]], set[str]]:
    """Every attribute load (``obj.name``) in ``trees``: as (class, name) where
    the source states the class of ``obj``, else as a bare name. Identifier
    strings (``getattr(obj, "name")``) are bare names too. Stores are left out:
    an assignment of the same name is not a read of the field."""
    classes = _Classes(trees)
    keyed: set[tuple[str, str]] = set()
    bare: set[str] = set()

    def visit(node, scope: dict, cls: str | None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, {}, child.name)
                continue
            if isinstance(child, ast.FunctionDef):
                visit(child, {**scope, **_scope(child, cls)}, None)
                continue
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                owner = classes.owner(child.value, scope)
                if owner is None:
                    bare.add(child.attr)
                else:
                    keyed.update((ancestor, child.attr) for ancestor in classes.lineage(owner))
            elif (isinstance(child, ast.Constant) and isinstance(child.value, str)
                  and child.value.isidentifier()):
                bare.add(child.value)
            visit(child, scope, cls)

    for tree in trees:
        visit(tree, {}, None)
    return keyed, bare


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


def _unread_fields(sources: dict[str, str], exempt: tuple[str, ...] = ()) -> list[str]:
    """"<file>::<class>.<field>" of each dataclass field in ``sources`` (file
    name -> source text) outside ``exempt`` that no code in ``sources`` reads:
    a read of a name counts for a field of that name in the class the source
    states for the object read from, or in every class where it states none."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    keyed, bare = _reads(trees.values())
    return sorted(f"{name}::{cls}.{field}" for name, tree in trees.items() if name not in exempt
                  for cls, field in _dataclass_fields(tree)
                  if field not in bare and (cls, field) not in keyed)


def test_every_dataclass_field_in_src_is_read_in_src():
    # golden.py is the fixture module, exempt as in the function guard above
    package_root = pathlib.Path(sopflow.__file__).parent
    sources = {path.relative_to(package_root).as_posix(): path.read_text(encoding="utf-8")
               for path in sorted(package_root.rglob("*.py"))}
    assert "agents/types.py" in sources  # the scan works
    assert _unread_fields(sources, exempt=("golden.py",)) == sorted(_UNREAD_FIELDS)


def test_field_guard_tells_same_named_fields_apart():
    # a read through a stated class reads that class's field only
    sources = {"m.py": """
from dataclasses import dataclass

@dataclass
class Flags:
    verbose: bool

@dataclass
class Config:
    flags: Flags
    verbose: bool
    level: int

@dataclass
class Report:
    level: int

class Runner:
    def __init__(self, config: Config):
        self.config = config

    def run(self):
        return self.config.flags.verbose

def depth(report: "Report | None", unknown):
    local: Config = unknown
    return report.level, local.flags
"""}
    assert _unread_fields(sources) == ["m.py::Config.level", "m.py::Config.verbose"]
    # an object of no stated class may be of any: its reads count for every class
    sources["m.py"] += "\ndef anything(obj):\n    return obj.level, obj.verbose\n"
    assert _unread_fields(sources) == []
