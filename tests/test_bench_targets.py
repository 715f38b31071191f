"""The benchmark's tracer (``bench/spans.py``) wraps program names by
attribute. Every name it wraps must exist, so a refactor that drops or
renames one fails here instead of in ``python3 bench/run.py --trace 1``."""

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
