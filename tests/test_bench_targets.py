"""The benchmark's tracer (``bench/spans.py``) wraps program names by
attribute and lists the program's tools and agent roles. Every name it wraps
must exist and the lists must be complete, so a refactor that drops, renames
or adds one fails here instead of in ``python3 bench/run.py --trace 1``.
Likewise every ``sopflow`` name the bench scripts import or read off an
imported module must resolve, or the bench (and its live stub) fails only
when it runs."""

import ast
import importlib
import importlib.util
from pathlib import Path
from types import ModuleType

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = _load_spans()._TARGETS
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in targets if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_tool_and_role_lists_cover_the_program():
    from sopflow import prompts
    from sopflow.tools import ALL_TOOL_NAMES

    spans = _load_spans()
    assert sorted(spans.TOOLS) == sorted(ALL_TOOL_NAMES)
    markers = {value for name, value in vars(prompts).items() if name.startswith("ROLE_")}
    assert set(spans.ROLES) == markers


def _resolve(module: str, name: str):
    """``module.name`` as an attribute, else as a submodule; None if neither."""
    owner = importlib.import_module(module)
    if hasattr(owner, name):
        return getattr(owner, name)
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return None


def test_every_sopflow_name_the_bench_uses_resolves():
    missing = []
    checked = 0
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}  # local name -> imported sopflow module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and not node.level and \
                    (node.module or "").split(".")[0] == "sopflow":
                for alias in node.names:
                    value = _resolve(node.module, alias.name)
                    checked += 1
                    if value is None:
                        missing.append(f"{path.name}: {node.module}.{alias.name}")
                    elif isinstance(value, ModuleType):
                        modules[alias.asname or alias.name] = value
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and \
                    isinstance(node.value, ast.Name) and node.value.id in modules:
                checked += 1
                if not hasattr(modules[node.value.id], node.attr):
                    missing.append(f"{path.name}: {modules[node.value.id].__name__}.{node.attr}")
    assert checked
    assert missing == []
