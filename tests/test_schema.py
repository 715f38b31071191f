import ast
import pathlib
import re

import pytest

import sopflow
from sopflow import schema
from sopflow.errors import ConfigError
from sopflow.kb import SopDoc


def test_only_the_schema_module_imports_yaml():
    # every YAML document is read and written through schema.read_yaml and
    # schema.write_yaml, so a change of parser touches one module
    package_root = pathlib.Path(sopflow.__file__).parent
    offenders = []
    for path in sorted(package_root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) and not node.level
                     else [])
            if any(name == "yaml" or name.startswith("yaml.") for name in names):
                offenders.append(str(path.relative_to(package_root)))
    assert offenders == ["schema.py"]


@pytest.mark.parametrize("damage", ["missing", "directory", "not utf-8", "bad yaml"])
def test_unreadable_file_is_config_error_naming_it(tmp_path, damage):
    path = tmp_path / "doc.yaml"
    if damage == "directory":
        path.mkdir()
    elif damage == "not utf-8":
        path.write_bytes(b"id: \xff\xfe\n")
    elif damage == "bad yaml":
        path.write_text("id: [unclosed\nname: x\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: "):
        schema.read_yaml(path)
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: "):
        schema.read_yaml(path, SopDoc)


def test_record_errors_name_the_section(tmp_path):
    path = tmp_path / "doc.yaml"
    path.write_text("id: sop-a\nname: a\nsteps: [s]\nlevle: 2\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: unknown key.*'levle'"):
        schema.read_yaml(path, SopDoc)
    with pytest.raises(ConfigError, match="^sop: unknown key"):
        schema.read_yaml(path, SopDoc, "sop")


def test_written_yaml_reads_back(tmp_path):
    path = tmp_path / "sub" / "doc.yaml"
    data = {"z": 1, "a": ["é", {"k": None}]}
    schema.write_yaml(path, data)
    assert schema.read_yaml(path) == data
    assert path.read_text(encoding="utf-8").startswith("z: 1\n")  # insertion order
    assert [p.name for p in path.parent.iterdir()] == ["doc.yaml"]  # no temp file left
