"""The benchmark's tracer (``bench/spans.py``) wraps program names by
attribute and lists the program's tools and agent roles. Every name it wraps
must exist and the lists must be complete, so a refactor that drops, renames
or adds one fails here instead of in ``python3 bench/run.py --trace 1``."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


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
