import ast
import hashlib
import json
import pathlib

import sopflow
from sopflow.golden import (
    MODES,
    build_script,
    golden_scenarios,
    script_to_mapping,
    write_corpus,
)
from sopflow.sandbox import generate_corpus


def test_write_corpus_twice_gives_identical_files(tmp_path):
    def snapshot():
        return {p.relative_to(tmp_path): p.read_bytes()
                for p in sorted(tmp_path.rglob("*")) if p.is_file()}

    write_corpus(tmp_path, "default")
    first = snapshot()
    write_corpus(tmp_path, "default")
    assert snapshot() == first


def _imported_modules(path: pathlib.Path, package_root: pathlib.Path) -> set[str]:
    """Absolute names of every module ``path`` imports, relative imports resolved."""
    package = ["sopflow", *path.parent.relative_to(package_root).parts]
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_only_the_fixture_module_imports_golden():
    # the golden corpus is a test and demo fixture; production code must not
    # depend on it
    package_root = pathlib.Path(sopflow.__file__).parent
    offenders = [
        str(path.relative_to(package_root))
        for path in sorted(package_root.rglob("*.py"))
        if path.name != "golden.py"
        and "sopflow.golden" in _imported_modules(path, package_root)
    ]
    assert offenders == []


def test_every_golden_script_is_pinned():
    # transcript digests only see the entries an episode consumes; corpus
    # files carry every entry, so pin the scripts themselves
    scenarios = golden_scenarios() + generate_corpus(1616, 18)
    payload = [[script_to_mapping(build_script(s, m)) for s in scenarios] for m in MODES]
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    assert digest == "d54425945ff367094f872265357f1d1cf0ecbdeba9f34363c3e533fe1f69e9c6"
