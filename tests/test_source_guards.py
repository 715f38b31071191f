"""Guards on the shape of ``src/``: what it defines, something in it uses."""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import textwrap
import types
from collections import Counter
from collections.abc import Mapping, MutableMapping, MutableSequence, MutableSet

import sopflow
from sopflow import schema

# Functions no code in ``src/`` names, each kept for a stated reason, keyed
# "<path under src/sopflow>::<qualified name>".
_UNCALLED = {
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


def _scan_src() -> tuple[Counter, dict[str, ast.Module]]:
    """Every name ``src/`` uses (as ``_names`` counts them), and the tree of
    each module but golden.py, the fixture module that tests and the demo
    call into, keyed by its path under src/sopflow."""
    package_root = pathlib.Path(sopflow.__file__).parent
    used = Counter()
    trees = {}
    for path in sorted(package_root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # an ``__all__`` entry exports a name; it does not use it
        body = [node for node in tree.body if not (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets))]
        used += _names(ast.Module(body=body, type_ignores=[]))
        if path.name != "golden.py":
            trees[path.relative_to(package_root).as_posix()] = tree
    return used, trees


def test_every_function_in_src_is_used_in_src():
    used, trees = _scan_src()
    defined = [(f"{rel}::{qualname}", node) for rel, tree in trees.items()
               for qualname, node in _functions(tree)
               if not (node.name.startswith("__") and node.name.endswith("__"))]
    unused = sorted(key for key, node in defined
                    if used[node.name] - _names(node)[node.name] <= 0)
    assert unused == sorted(_UNCALLED)


def test_every_class_in_src_is_named_in_src():
    # a class named only in its own body, such as an exception no code
    # raises or catches any more, shows here
    used, trees = _scan_src()
    defined = [(f"{rel}::{node.name}", node) for rel, tree in trees.items()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    assert "errors.py::SopflowError" in dict(defined)  # the scan works
    unnamed = sorted(key for key, node in defined
                     if used[node.name] - _names(node)[node.name] <= 0)
    assert unnamed == []


# Functions named ``validate`` in ``src/``, each kept for a stated reason, keyed
# as ``_UNCALLED`` is. An object's own rules are checked when it is built
# (``schema.Bounded`` or ``__post_init__``), so no caller has to remember to.
_VALIDATE = {
    "sandbox/faults.py::FaultSpec.validate":
        "a fault's target can only be checked against its scenario's topology, "
        "which the fault does not hold; EpisodeScenario.__post_init__ calls it",
}


def test_no_class_in_src_defines_validate():
    package_root = pathlib.Path(sopflow.__file__).parent
    defined = [f"{path.relative_to(package_root).as_posix()}::{qualname}"
               for path in sorted(package_root.rglob("*.py"))
               for qualname, node in _functions(ast.parse(path.read_text(encoding="utf-8")))
               if node.name == "validate"]
    assert sorted(defined) == sorted(_VALIDATE)


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


# Fields of a class that checks itself whose built value can still change in
# place, each kept for a stated reason, keyed "<path under src/sopflow>::<class>.<field>".
_CHANGEABLE: dict[str, str] = {}


def _built():
    """An instance of each class in ``src/`` that checks itself, keyed as
    ``_CHANGEABLE`` is without the field, built the way ``src/`` builds one:
    a list or dict where a caller passes one."""
    from sopflow.agents.types import ActionCandidate, ActionSet, AgentConfig
    from sopflow.detector import DetectorConfig
    from sopflow.evaluation import EvalConfig
    from sopflow.kb import EmbeddingVector, HistoricalIncident, KbSettings, SopDoc
    from sopflow.llm import BackendConfig, ChatMessage, ScriptEntry
    from sopflow.sandbox import FaultType, ScenarioConfig, generate_scenario
    from sopflow.sandbox.scenario import scenario_from_mapping, scenario_to_mapping

    candidate = ActionCandidate("match_sop", {"query": "alert"})
    scenario = {**scenario_to_mapping(generate_scenario(1)), "aliases": {"a": "b"}}
    return {
        "agents/types.py::ActionSet": ActionSet([candidate], 1, [candidate], ["evicted 1"]),
        "agents/types.py::AgentConfig": AgentConfig(),
        "detector.py::DetectorConfig": DetectorConfig(static_thresholds={"cpu_usage": 0.8},
                                                      anomaly_keywords=["oom"]),
        "evaluation.py::EvalConfig": EvalConfig(),
        "kb.py::EmbeddingVector": EmbeddingVector.of([1.0]),
        "kb.py::HistoricalIncident": HistoricalIncident(id="inc-x", manifestation="m"),
        "kb.py::KbSettings": KbSettings(),
        "kb.py::SopDoc": SopDoc(id="sop-x", name="x", steps=["inspect"]),
        "llm.py::BackendConfig": BackendConfig(script=[ScriptEntry("*", "reply")]),
        "llm.py::ChatMessage": ChatMessage("user", "hello"),
        "sandbox/scenario.py::EpisodeScenario": scenario_from_mapping(scenario),
        "sandbox/scenario.py::ScenarioConfig": ScenarioConfig(fault_types=[FaultType.CpuStress]),
    }


def _checks_itself(cls) -> bool:
    """Whether building ``cls`` checks it: it subclasses ``schema.Bounded``,
    or it defines a ``__post_init__`` that raises."""
    if issubclass(cls, schema.Bounded):
        return cls is not schema.Bounded
    post_init = vars(cls).get("__post_init__")
    return post_init is not None and any(
        isinstance(node, ast.Raise)
        for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(post_init)))))


def _changeable(value) -> bool:
    """Whether ``value`` is a list, dict or set, or a tuple, frozenset or
    read-only mapping that holds one. Another object it holds answers for
    itself: one that checks itself is checked as its own class is."""
    if isinstance(value, (MutableSequence, MutableMapping, MutableSet)):
        return True
    if isinstance(value, (tuple, frozenset)):
        return any(map(_changeable, value))
    if isinstance(value, Mapping):
        return any(map(_changeable, value.values()))
    return False


def test_every_class_that_checks_itself_is_frozen_and_holds_nothing_changeable():
    # a value changed after the check that passed it is never checked again
    package_root = pathlib.Path(sopflow.__file__).parent
    checking = {}
    for path in sorted(package_root.rglob("*.py")):
        rel = path.relative_to(package_root)
        parts = [part for part in rel.with_suffix("").parts if part != "__init__"]
        module = importlib.import_module(".".join(("sopflow", *parts)))
        checking.update((f"{rel.as_posix()}::{cls.__name__}", cls)
                        for cls in vars(module).values()
                        if isinstance(cls, type) and cls.__module__ == module.__name__
                        and _checks_itself(cls))
    built = _built()
    assert sorted(checking) == sorted(built)  # each has an instance above
    changeable = []
    for key, cls in checking.items():
        assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen, key
        assert type(built[key]) is cls
        changeable += [f"{key}.{f.name}" for f in dataclasses.fields(cls)
                       if _changeable(getattr(built[key], f.name))]
    assert sorted(changeable) == sorted(_CHANGEABLE)


def test_changeable_tells_a_frozen_value_from_one_that_is_not():
    assert not _changeable((1, types.MappingProxyType({"a": (2,)}), frozenset({3})))
    assert _changeable(((1, [2]),))
    assert _changeable(types.MappingProxyType({"a": {"b": 1}}))
    assert _changeable(bytearray(b"x")) and _changeable({1})


def test_each_package_exports_exactly_what_it_imports():
    # a stale export (a name deleted from its module) or an import no caller
    # reaches through the package shows here
    for package in ("sopflow.agents", "sopflow.tools", "sopflow.sandbox"):
        module = importlib.import_module(package)
        assert [name for name in module.__all__ if not hasattr(module, name)] == [], package
        tree = ast.parse(inspect.getsource(module))
        imported = {alias.asname or alias.name for node in tree.body
                    if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                    for alias in node.names}
        unlisted = sorted(name for name in imported if name not in module.__all__
                          and not inspect.ismodule(getattr(module, name)))
        assert unlisted == [], package
