import ast
import dataclasses
import pathlib
import types
import re

import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import sopflow
from sopflow import evaluation, golden, schema
from sopflow.config import load_config
from sopflow.errors import ConfigError
from sopflow.kb import KnowledgeBase, SopDoc
from sopflow.sandbox import generate_corpus, save_scenario


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


def test_a_scalar_the_loader_rejects_is_config_error_naming_it(tmp_path):
    path = tmp_path / "doc.yaml"
    path.write_text("id: sop-x\nname: 2020-13-45\nsteps: [s]\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: month must be in 1..12"):
        schema.read_yaml(path)
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: month must be in 1..12"):
        schema.read_yaml(path, SopDoc)


def test_record_errors_name_the_section(tmp_path):
    path = tmp_path / "doc.yaml"
    path.write_text("id: sop-a\nname: a\nsteps: [s]\nlevle: 2\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: unknown key.*'levle'"):
        schema.read_yaml(path, SopDoc)


def test_written_yaml_reads_back(tmp_path):
    path = tmp_path / "sub" / "doc.yaml"
    data = {"z": 1, "a": ["é", {"k": None}]}
    schema.write_yaml(path, data)
    assert schema.read_yaml(path) == data
    assert path.read_text(encoding="utf-8").startswith("z: 1\n")  # insertion order
    assert [p.name for p in path.parent.iterdir()] == ["doc.yaml"]  # no temp file left


@pytest.mark.parametrize("failure", [None, "write", "replace"])
def test_write_atomic_leaves_the_old_file_or_the_new_and_no_temp_file(
        tmp_path, monkeypatch, failure):
    path = tmp_path / "doc.txt"
    path.write_text("old\n")

    def injected(*args, **kwargs):
        raise OSError("injected")

    if failure == "write":
        monkeypatch.setattr(pathlib.Path, "write_text", injected)
    elif failure == "replace":
        monkeypatch.setattr("os.replace", injected)
    if failure is None:
        schema.write_atomic(path, "new\n")
    else:
        with pytest.raises(OSError, match="injected"):
            schema.write_atomic(path, "new\n")
    assert path.read_bytes() == (b"new\n" if failure is None else b"old\n")
    assert [p.name for p in tmp_path.iterdir()] == ["doc.txt"]


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
def test_libyaml_classes_are_used_when_present():
    assert issubclass(schema._Loader, yaml.CSafeLoader)
    assert schema._DUMPER is yaml.CSafeDumper


@pytest.fixture(scope="module")
def written_yaml(tmp_path_factory):
    """Every YAML file the package writes: the golden corpus in each mode, and
    generated scenarios."""
    out = tmp_path_factory.mktemp("written")
    for mode in golden.MODES:
        golden.write_corpus(out / mode, mode)
    for scenario in generate_corpus(7, 18):
        save_scenario(scenario, out / "generated" / f"{scenario.id}.yaml")
    return sorted(out.rglob("*.yaml"))


def test_reads_and_writes_what_the_pure_python_classes_do(written_yaml, tmp_path):
    assert len(written_yaml) == 7 * 31 + 18  # 31 files per golden corpus
    for path in written_yaml:
        data = yaml.safe_load(path.read_text(encoding="utf-8"))
        assert schema.read_yaml(path) == data, path
        schema.write_yaml(tmp_path / "out.yaml", data)
        assert ((tmp_path / "out.yaml").read_bytes()
                == yaml.safe_dump(data, sort_keys=False, allow_unicode=True).encode("utf-8")), path


_plain = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12)


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_plain)
def test_written_data_reads_back_equal(tmp_path, data):
    path = tmp_path / "doc.yaml"
    schema.write_yaml(path, data)
    assert schema.read_yaml(path) == data


@pytest.mark.parametrize("read", [schema.read_json, schema.read_jsonl,
                                  evaluation.load_report,
                                  lambda path: KnowledgeBase(None, root=path.parent)])
def test_truncated_json_is_config_error_naming_it(tmp_path, read):
    path = tmp_path / "embedding_cache.json"
    path.write_text('{"a": [0.5, 0.25],\n')
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: "):
        read(path)


def test_jsonl_records_carry_their_line_numbers(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"kind": "a"}\n\n{"kind": "b"}\n')
    assert schema.read_jsonl(path) == [(1, {"kind": "a"}), (3, {"kind": "b"})]


@pytest.mark.parametrize("text, where", [
    ("eval: {max_steps: 7.9}\n", ".eval.max_steps: expected an integer, got 7.9"),
    ("eval: {workers: true}\n", ".eval.workers: expected a number, got True"),
    ("eval: {max_steps: .inf}\n", ".eval.max_steps: expected an integer, got inf"),
    ("detector: {k: false}\n", ".detector.k: expected a number, got False"),
    ("backend: {model: null}\n", ".backend.model: expected a string, got None"),
    ("backend: {model: [m]}\n", ".backend.model: expected a string, got ['m']"),
    ("detector: {anomaly_keywords: [error, {a: 1}]}\n",
     ".detector.anomaly_keywords: expected a string, got {'a': 1}"),
])
def test_scalars_are_coerced_strictly(tmp_path, text, where):
    path = tmp_path / "config.yaml"
    path.write_text(text)
    # the message starts with the file's path, then the field
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path) + where)}$"):
        load_config(path)


def test_integral_floats_and_numbers_still_coerce(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("eval: {max_steps: 7.0, sigma: 1}\nbackend: {model: 123}\n")
    cfg = load_config(path)
    assert cfg.eval.agent.max_steps == 7 and type(cfg.eval.agent.max_steps) is int
    assert cfg.eval.sigma == 1.0 and type(cfg.eval.sigma) is float
    assert cfg.backend.model == "123"


def test_a_read_only_mapping_field_coerces_its_values(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("detector: {static_thresholds: {cpu_usage: 1}}\n")
    thresholds = load_config(path).detector.static_thresholds
    assert type(thresholds) is types.MappingProxyType
    assert type(thresholds["cpu_usage"]) is float


def test_a_checked_object_holds_read_only_copies_of_its_lists_and_dicts():
    @dataclasses.dataclass(frozen=True)
    class Checked(schema.Bounded):
        items: list
        table: dict

    items, table = [1.0], {"a": [1.0]}
    checked = Checked(items, table)
    viewed = Checked(items, types.MappingProxyType(table))
    items.append(2.0)
    table["a"] = 2.0
    assert checked.items == (1.0,) and checked.table == {"a": [1.0]}
    assert viewed.table == {"a": [1.0]}
    with pytest.raises(TypeError):
        checked.table["a"] = 3.0
    with pytest.raises(TypeError):
        hash(checked.table)
    # asdict deep-copies a read-only view into a plain dict, as it did the dict
    assert dataclasses.asdict(checked) == {"items": (1.0,), "table": {"a": [1.0]}}
    assert type(dataclasses.asdict(checked)["table"]) is dict
    assert dataclasses.asdict(checked)["table"]["a"] is not checked.table["a"]


@pytest.mark.parametrize("edit, where", [
    (("name: a", "name: [a, {b: 1}]"), "name: expected a string, got ['a', {'b': 1}]"),
    (("steps: [s]", "steps: [1, null]"), "steps: expected a string, got None"),
    (("level: 1", "level: 1.5"), "level: expected an integer, got 1.5"),
])
def test_kb_documents_reject_loose_scalars_naming_the_path(tmp_path, edit, where):
    path = tmp_path / "doc.yaml"
    path.write_text("id: sop-a\nname: a\nlevel: 1\nsteps: [s]\n".replace(*edit))
    with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}.{where}')}$"):
        schema.read_yaml(path, SopDoc)


# -- the plain-document loader against PyYAML's own constructor ---------------

_TOKENS = (
    # ints, floats, bools and nulls in every form the resolver knows
    "0", "7", "-3", "+12", "1_000", "017", "0o17", "0x1F", "0b101", "0b_", "1:30", "09",
    "1.5", "-0.0", "1e3", "6.8523015e+5", "1_0.5", ".inf", "-.INF", ".nan", "1:30.5",
    "true", "False", "yes", "NO", "on", "off", "null", "~", "''", '""',
    # strings, plain and quoted
    "a", "b", "key", "x y", "'1'", '"a\\tb"', "'it''s'", "é", "-a", "a:b",
    # timestamps, valid and not
    "2001-12-14", "2001-12-14 21:59:43.10 -5", "2020-13-45",
    # explicit tags, some of which PyYAML's constructor rejects
    "!!str 12", "!!int 12", "!!int '0x1f'", "!!float 1", "!!bool yes", "!!null ''",
    "!!binary aGVsbG8=", "!!timestamp 2001-12-14", "!!int x", "!!bool maybe", "!!int ''",
    "!!float x", "!foo bar", "!!str [a]", "!!python/name:os.system", "=",
)
_ANCHORS = st.sampled_from(["a0", "a1", "a2"])
_KEYS = st.sampled_from(_TOKENS + ("<<", "[1, 2]", "{k: v}", "a", "a", "1"))


def _collections(children):
    seq = st.lists(children, max_size=4).map(lambda items: f"[{', '.join(items)}]")
    mapping = st.lists(st.tuples(_KEYS, children), max_size=4).map(
        lambda pairs: "{" + ", ".join(f"{k}: {v}" for k, v in pairs) + "}")
    # a mapping anchored as m0, then one with a merge key (<<)
    merged = st.tuples(mapping, st.sampled_from(["*m0", "[*m0, *m0]", "{m: 1}", "3", "*a0"]),
                       mapping).map(lambda t: f"[&m0 {t[0]}, {{<<: {t[1]}, {t[2][1:]}]")
    tagged = st.sampled_from(["!!set {a, b}", "!!set {a: 1}", "!!omap [{a: 1}, {b: 2}]",
                              "!!pairs [{a: 1}, {a: 2}]", "!!seq {a: 1}", "!!map [a]"])
    anchored = st.tuples(_ANCHORS, seq | mapping).map(lambda pair: f"&{pair[0]} {pair[1]}")
    return seq | mapping | merged | tagged | anchored


_NODES = st.recursive(
    # scalars, and a few aliases of the anchors, defined or not
    st.sampled_from(_TOKENS + ("*a0", "*a1"))
    # quoted text, without the control, format and line-separator characters
    # libyaml and the pure-Python scanner may read differently
    | st.text(st.characters(blacklist_categories=("Cc", "Cs", "Cf", "Zl", "Zp")),
              max_size=5).map(
        lambda s: "'" + s.replace("'", "''") + "'"),
    _collections, max_leaves=16)


def _nest(depth: int, shape: str) -> str:
    text = "1"
    for _ in range(depth):
        text = shape.format(text)
    return text


_DEEP = st.tuples(st.integers(1, 120), st.sampled_from(["[{}]", "{{k: {}}}"])).map(
    lambda pair: _nest(*pair))
_DOCUMENTS = (_NODES | _DEEP
              | st.lists(st.tuples(_KEYS, _NODES), min_size=1, max_size=4).map(
                  lambda pairs: "".join(f"{k}: {v}\n" for k, v in pairs)))


def _described(value, seen: dict) -> str:
    """``repr`` of ``value``, which tells 1 from True and 1.0 and reads NaN as
    equal, with each list or dict after its first appearance written as a
    reference to it, so shared and recursive data compare by their shape."""
    if isinstance(value, (list, dict)):
        if id(value) in seen:
            return f"@{seen[id(value)]}"
        seen[id(value)] = len(seen)
        if isinstance(value, list):
            return "[" + ", ".join(_described(item, seen) for item in value) + "]"
        return "{" + ", ".join(f"{key!r}: {_described(item, seen)}"
                               for key, item in value.items()) + "}"
    return repr(value)


def _outcome(load):
    """What ``load()`` gives: the value, described, or the error's type and text."""
    try:
        return "value", _described(load(), {})
    except Exception as exc:  # every error of a document is part of the outcome
        return type(exc), str(exc)


_PURE = type("PurePlainLoader", (schema._PlainConstructor, yaml.SafeLoader), {})


@settings(max_examples=1000, deadline=None)
@given(text=_DOCUMENTS)
@example(text="")
@example(text="a: 1\n---\nb: 2\n")
@example(text="&r [1, *r]")
@example(text="&r {k: *r}")
@example(text="[&a0 [1], *a0, {k: *a0}]")
@example(text="{!!null [a]: 1}")
@example(text="{!!str [b]: 2}")
def test_read_yaml_matches_pyyaml_errors_included(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "doc.yaml"
    path.write_text(text, encoding="utf-8")
    read = _outcome(lambda: schema.read_yaml(path))
    # the class the loader subclasses gives the same value or error
    stock = _outcome(lambda: yaml.load(text, Loader=getattr(yaml, "CSafeLoader",
                                                              yaml.SafeLoader)))
    if stock[0] != "value" and issubclass(stock[0], (yaml.YAMLError, ValueError)):
        assert read == (ConfigError, f"{path}: {stock[1]}"), text
    else:
        assert read == stock, text
    # so does yaml.SafeLoader, and over it the constructor matches error texts too
    pure = _outcome(lambda: yaml.load(text, Loader=yaml.SafeLoader))
    assert (stock[0] == "value") == (pure[0] == "value"), text
    if stock[0] == "value":
        assert stock == pure, text
    assert _outcome(lambda: yaml.load(text, Loader=_PURE)) == pure, text
