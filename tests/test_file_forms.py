"""The two forms of the YAML files sopflow reads: YAML's JSON form, which it
writes for scenarios, scripts and corpus manifests, and block YAML, which it
writes for knowledge-base documents and people write by hand.

- Every file the JSON-form writer makes reads as the same data through
  ``read_yaml``'s JSON path, libyaml and the pure-Python YAML loader, and
  loads back to what was saved.
- A JSON text YAML 1.1 reads otherwise goes to the YAML loader.
- Episodes cannot tell which form a corpus was written in.
- Mutated files of either form (scenarios, scripts, manifests, and a
  knowledge base's documents and embedding cache) and mutated benchmark
  reports (written as JSON) fail only with ``ConfigError`` or
  ``ValidationError``, naming the file.
"""

import dataclasses
import math
import re

import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sopflow import golden, schema
from sopflow.errors import ConfigError, ValidationError
from sopflow.evaluation import EvalConfig, load_corpus, load_report, run_benchmark, save_report
from sopflow.kb import KnowledgeBase
from sopflow.llm import (
    BackendConfig,
    ScriptEntry,
    make_backend,
    script_from_mapping,
    script_to_mapping,
    scripted_config,
)
from sopflow.sandbox import (
    FaultType,
    ScenarioConfig,
    generate_corpus,
    generate_scenario,
    load_scenario,
    save_scenario,
)
from sopflow.sandbox.faults import MAGNITUDE_RANGES
from sopflow.sandbox.scenario import scenario_to_mapping

_FIXTURE = [HealthCheck.function_scoped_fixture]


def _exact(value):
    """``value`` with every scalar tagged by its type and ``repr``, so 1, 1.0
    and True differ, and so do 0.0 and -0.0; mapping order counts."""
    if isinstance(value, dict):
        return [(key, _exact(item)) for key, item in value.items()]
    if isinstance(value, list):
        return [_exact(item) for item in value]
    return type(value).__name__, repr(value)


def _reads_as(path, data):
    """The file at ``path`` is in the JSON form and reads as ``data`` through
    ``read_yaml``'s JSON path, libyaml, the pure-Python loader and
    ``read_yaml`` itself (which may still leave a text with a backslash
    before ``ud`` to the YAML loader)."""
    text = path.read_text(encoding="utf-8")
    assert text.startswith(("{", "[")), text
    reads = [schema._JSON_FORM.decode(text), yaml.load(text, Loader=schema._Loader),
             yaml.safe_load(text), schema.read_yaml(path)]
    for read in reads:
        assert _exact(read) == _exact(data), text


# floats and strings JSON and YAML 1.1 could read differently
_ODD_FLOATS = [1e-05, 1e16, -0.0, 5e-324, 1e300, 2.5e-308, 0.1 + 0.2, 123456789012345678.0]
_ODD_TEXT = ["\x85", "a\x85b", "\u2028", "a \u2029 b", "\U0001F600", "\x7f", "\ufeff",
             "\ufffe", "\t", "é", "1e-05", "null", "true", "- a", "a: b", "#", "\\ud83d",
             "C:\\udp", "'", '"']
_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_ODD_FLOATS)
_TEXT = st.text() | st.sampled_from(_ODD_TEXT)
_PLAIN = st.recursive(
    st.none() | st.booleans() | st.integers() | _TEXT | _FLOATS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=20)


@settings(max_examples=400, suppress_health_check=_FIXTURE)
@given(data=st.lists(_PLAIN, max_size=4) | st.dictionaries(_TEXT, _PLAIN, max_size=4))
@example(data=[float(x) for x in _ODD_FLOATS])
@example(data={text: text for text in _ODD_TEXT})
def test_plain_data_reads_the_same_every_way(tmp_path, data):
    path = tmp_path / "doc.yaml"
    schema.write_json_form(path, data)
    _reads_as(path, data)


@pytest.mark.parametrize("data", [
    [math.inf, -math.inf],       # no JSON number
    {1: "a", "b": 2},            # a key that is not a string
    {"k" * 1023: 1},             # a key too long for YAML to read inside a flow mapping
])
def test_data_without_a_json_form_is_written_as_block_yaml(tmp_path, data):
    path = tmp_path / "doc.yaml"
    schema.write_json_form(path, data)
    assert path.read_text(encoding="utf-8") == yaml.safe_dump(
        data, sort_keys=False, allow_unicode=True)
    assert schema.read_yaml(path) == data


def test_the_longest_key_yaml_reads_keeps_the_json_form(tmp_path):
    path = tmp_path / "doc.yaml"
    data = {"k" * 1022: 1}  # 1024 characters with its quotes
    schema.write_json_form(path, data)
    _reads_as(path, data)


@pytest.mark.parametrize("text", [
    "[1e-05]", "[1E+5]", "[1.5e3]", "{\"a\": NaN}", "[Infinity, -Infinity]",
    "[\"a\x85b\"]", "[\"a \u2028 b\"]", "{\"k\": \"\\ud83d\\ude00\"}", "[\"\\udc00\"]",
    "[1.0e-05, 1.5E+3, -0.0]", "[1] # a comment", "{a: 1}", "[1,\n 2]\n",
])
def test_a_json_like_text_reads_as_yaml_reads_it(tmp_path, text):
    path = tmp_path / "doc.yaml"
    path.write_text(text, encoding="utf-8")
    try:
        expected = yaml.load(text, Loader=schema._Loader)
    except yaml.YAMLError as exc:
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: {exc}')}$"):
            schema.read_yaml(path)
    else:
        assert _exact(schema.read_yaml(path)) == _exact(expected)


# -- scenarios, scripts and manifests ------------------------------------------

_UNIT_TYPES = [t for t in FaultType if MAGNITUDE_RANGES[t] == (0.0, 1.0)]


@st.composite
def _scenarios(draw):
    fault_type = draw(st.sampled_from(_UNIT_TYPES))
    config = ScenarioConfig(fault_types=(fault_type,),
                            faults_per_scenario=draw(st.integers(1, 2)))
    scenario = generate_scenario(draw(st.integers(0, 10**6)), config)
    magnitude = draw(st.floats(1e-300, 1.0) | st.sampled_from([1e-05, 1e-300, 2.5e-308]))
    return dataclasses.replace(
        scenario,
        id=draw(_TEXT),
        faults=[dataclasses.replace(f, magnitude=magnitude) for f in scenario.faults],
        aliases=draw(st.dictionaries(_TEXT, _TEXT, max_size=3)))


@settings(max_examples=150, deadline=None, suppress_health_check=_FIXTURE)
@given(scenario=_scenarios())
def test_scenario_files_read_the_same_every_way_and_load_back(tmp_path, scenario):
    path = tmp_path / "scn.yaml"
    save_scenario(scenario, path)
    _reads_as(path, scenario_to_mapping(scenario))
    assert load_scenario(path) == scenario


_ENTRIES = st.lists(st.builds(ScriptEntry, _TEXT, _TEXT, st.booleans()), max_size=4)


@settings(max_examples=60, deadline=None, suppress_health_check=_FIXTURE)
@given(seed=st.integers(0, 10**6), index=st.integers(0, 8), odd=_ENTRIES)
def test_script_files_read_the_same_every_way_and_load_back(tmp_path, seed, index, odd):
    scenario = generate_scenario(seed, index=index)
    path = tmp_path / "script.yaml"
    for script in [golden.build_script(scenario, mode) for mode in golden.MODES] + [odd]:
        schema.write_json_form(path, script_to_mapping(script))
        _reads_as(path, script_to_mapping(script))
        assert script_from_mapping(schema.read_yaml(path)) == script


@settings(max_examples=100, suppress_health_check=_FIXTURE)
@given(kb=_TEXT, episodes=st.lists(st.tuples(_TEXT.filter(bool), st.none() | _TEXT.filter(bool)),
                                   max_size=4))
def test_manifest_files_read_the_same_every_way_and_load_back(tmp_path, kb, episodes):
    data = {"kb": kb, "episodes": [{"scenario": scenario} if script is None
                                   else {"scenario": scenario, "script": script}
                                   for scenario, script in episodes]}
    path = tmp_path / "manifest.yaml"
    schema.write_json_form(path, data)
    _reads_as(path, data)
    corpus = load_corpus(path)
    assert corpus.kb == (str(tmp_path / kb) if kb else None)
    assert [(e.scenario, e.script) for e in corpus.episodes] == [
        (str(tmp_path / scenario), None if script is None else str(tmp_path / script))
        for scenario, script in episodes]


def test_every_scenario_script_and_manifest_written_takes_the_json_path(tmp_path):
    written = []
    for mode in golden.MODES:
        golden.write_corpus(tmp_path / mode, mode)
        written += [tmp_path / mode / "manifest.yaml",
                    *sorted((tmp_path / mode / "scenarios").iterdir()),
                    *sorted((tmp_path / mode / "scripts").iterdir())]
    for scenario in generate_corpus(1616, 18):
        save_scenario(scenario, tmp_path / "generated" / f"{scenario.id}.yaml")
    written += sorted((tmp_path / "generated").iterdir())
    assert len(written) == 7 * 19 + 18
    for path in written:
        _reads_as(path, schema.read_yaml(path))
        text = path.read_text(encoding="utf-8")
        assert not any(mark in text for mark in schema._NOT_JSON_FORM), path
    # knowledge-base documents stay block YAML, for people to edit
    kb_files = sorted((tmp_path / "default" / "kb").rglob("*.yaml"))
    assert kb_files and not any(p.read_text(encoding="utf-8").startswith(("{", "["))
                                for p in kb_files)


def test_the_form_a_corpus_is_written_in_is_invisible_to_episodes(tmp_path):
    manifests = {form: golden.write_corpus(tmp_path / form) for form in ("json", "block")}
    block = tmp_path / "block"
    rewritten = [block / "manifest.yaml", *(block / "scenarios").iterdir(),
                 *(block / "scripts").iterdir()]
    for path in rewritten:
        schema.write_yaml(path, schema.read_yaml(path))
        assert not path.read_text(encoding="utf-8").startswith(("{", "["))
    reports, transcripts = {}, {}
    for form, manifest in manifests.items():
        out = tmp_path / f"{form}-transcripts"
        reports[form] = run_benchmark(load_corpus(manifest), EvalConfig(), BackendConfig(),
                                      transcript_dir=out)
        transcripts[form] = {p.name: p.read_bytes() for p in sorted(out.glob("*.jsonl"))}
    assert len(transcripts["json"]) == 9
    assert transcripts["json"] == transcripts["block"]
    assert reports["json"] == reports["block"]
    assert reports["json"].la == reports["json"].ta == 1.0


# -- the readers against mutated files of either form --------------------------

@pytest.fixture(scope="module")
def golden_files(tmp_path_factory):
    """The data of one golden scenario, its script, the corpus manifest, one
    SOP and one incident of its knowledge base, the embedding cache a run of
    the corpus leaves there, and the run's report."""
    manifest = golden.write_corpus(tmp_path_factory.mktemp("golden"))
    root = manifest.parent
    save_report(run_benchmark(load_corpus(manifest), EvalConfig(), BackendConfig()),
                root / "report.json")
    name = "scn-01000-cpustress.yaml"
    return {"scenario": schema.read_yaml(root / "scenarios" / name),
            "script": schema.read_yaml(root / "scripts" / name),
            "manifest": schema.read_yaml(manifest),
            "sop": schema.read_yaml(sorted((root / "kb" / "sops").iterdir())[0]),
            "incident": schema.read_yaml(sorted((root / "kb" / "incidents").iterdir())[0]),
            "cache": schema.read_json(root / "kb" / "embedding_cache.json"),
            "report": schema.read_json(root / "report.json")}


def _knowledge_base(path):
    """The knowledge base whose directory holds ``path``."""
    return KnowledgeBase(make_backend(BackendConfig()),
                         root=path.parent if path.suffix == ".json" else path.parent.parent)


_READERS = {
    "scenario": load_scenario,
    "script": lambda path: scripted_config(path, BackendConfig()),
    "manifest": load_corpus,
    "sop": _knowledge_base,
    "incident": _knowledge_base,
    "cache": _knowledge_base,
    "report": load_report,
}
# where each kind is written, under a directory of its own; a knowledge base
# reads its files at these places
_FILES = {"sop": "sops/sop.yaml", "incident": "incidents/incident.yaml",
          "cache": "embedding_cache.json", "report": "report.json"}


def _places(data, at=()):
    """(path, value) of every value in ``data``, the whole document included."""
    yield at, data
    items = (data.items() if isinstance(data, dict)
             else enumerate(data) if isinstance(data, list) else ())
    for key, value in items:
        yield from _places(value, at + (key,))


def _replaced(data, at, change):
    """A copy of ``data`` with the value at ``at`` passed through ``change``,
    which returns the new value or, for the enclosing mapping, a new one."""
    if not at:
        return change(data)
    copy = dict(data) if isinstance(data, dict) else list(data)
    copy[at[0]] = _replaced(copy[at[0]], at[1:], change)
    return copy


def _without(mapping: dict, key, renamed=None) -> dict:
    """``mapping`` with ``key`` dropped, or renamed in place."""
    return {(renamed if k == key else k): v for k, v in mapping.items()
            if k != key or renamed is not None}


_RETYPED = [[[]], {}, None, True, 1.5, -7, "x", "", [1, "a"], {"k": "v"}]


@st.composite
def _mutations(draw, golden_files):
    kind = draw(st.sampled_from(sorted(golden_files)))
    data = golden_files[kind]
    how = draw(st.sampled_from(["truncate", "retype", "drop", "misspell"]))
    form = "json" if kind == "report" else draw(st.sampled_from(["json", "block"]))
    if how == "retype":
        at = draw(st.sampled_from([at for at, _ in _places(data)]))
        value = draw(st.sampled_from(_RETYPED))
        return kind, form, how, (at, value), _replaced(data, at, lambda _: value)
    if how in ("drop", "misspell"):
        keyed = [(at, key) for at, value in _places(data) if isinstance(value, dict)
                 for key in value]
        at, key = draw(st.sampled_from(keyed))
        renamed = None if how == "drop" else draw(st.sampled_from(
            [key + "s", key[:-1], key.upper(), key[1:] + key[0], ""]))
        return kind, form, how, (at, key, renamed), _replaced(
            data, at, lambda mapping: _without(mapping, key, renamed))
    return kind, form, how, draw(st.floats(0, 1)), data


@settings(max_examples=1200, deadline=None, suppress_health_check=_FIXTURE)
@given(data=st.data())
def test_a_mutated_file_fails_only_with_an_error_naming_it(tmp_path, golden_files, data):
    kind, form, how, detail, mutated = data.draw(_mutations(golden_files))
    path = tmp_path / kind / _FILES.get(kind, f"{kind}.yaml")
    (schema.write_json_form if form == "json" else schema.write_yaml)(path, mutated)
    if how == "truncate":
        raw = path.read_bytes()
        path.write_bytes(raw[:int(len(raw) * detail)])
    try:
        _READERS[kind](path)
    except (ConfigError, ValidationError) as exc:
        # the path, then ": " or, for a field of a record, ".<field>: "
        assert re.match(f"{re.escape(str(path))}[:.]", str(exc)), (how, detail, str(exc))
        malformed = f"{path}: malformed scenario file: "
        if kind == "scenario" and how == "retype" and detail[1] == [[]]:
            assert type(exc) is ValidationError and str(exc).startswith(malformed), str(exc)
        if kind == "scenario" and how == "drop" and detail[:2] != ((), "aliases"):
            assert type(exc) is ValidationError and str(exc).startswith(malformed), str(exc)
    else:
        # only a change the reader may accept: truncation, retyping a scalar
        # that coerces, or dropping an optional key
        assert how in ("truncate", "retype", "drop"), (how, detail)
