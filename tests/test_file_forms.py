"""The two forms of the YAML files sopflow reads: YAML's JSON form, which it
writes for scenarios, scripts and corpus manifests, and block YAML, which it
writes for knowledge-base documents and people write by hand.

- Every file the JSON-form writer makes reads as the same data through
  ``read_yaml``'s JSON path, libyaml and the pure-Python YAML loader, and
  loads back to what was saved.
- A JSON text YAML 1.1 reads otherwise goes to the YAML loader.
- Episodes cannot tell which form a corpus was written in.
- Mutated files of either form (scenarios, scripts, manifests, a knowledge
  base's documents and embedding cache, and config files) and mutated
  benchmark reports (written as JSON) fail only with ``ConfigError`` or
  ``ValidationError``, naming the file.
- ``sopflow transcript`` on a mutated golden transcript exits 0, or exits 1
  with an error that names the file.
"""

import contextlib
import dataclasses
import io
import json
import math
import re

import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sopflow import golden, schema
from sopflow.cli import main
from sopflow.config import load_config
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

# every section and key the config.py docstring lists
_CONFIG = """\
backend:
  backend_kind: scripted
  endpoint: https://api.example.com/v1
  model: some-model
  temperature: 0.0
  max_tokens: 1024
  credential_env: SOPFLOW_API_KEY
  embed_dim: 64
  embed_seed: 0
detector:
  k: 3.0
  min_sigma_frac: 0.1
  min_baseline_samples: 4
  baseline_lookback_samples: 20
  static_thresholds: {cpu_usage: 0.8, memory_usage: 0.85, error_rate: 0.05}
  anomaly_keywords: [error, timeout, refused, oom, throttling]
eval:
  sigma: 0.1
  workers: 1
  max_steps: 20
  action_set_size: 5
  judge_after_run_sop: false
  ablations: {sop_knowledge: on, sop_flow: on, action_set: on, action_agent: on,
              ob_agent: on, judge_agent: on}
kb:
  k: 3
  threshold: 0.3
"""


@pytest.fixture(scope="module")
def golden_files(tmp_path_factory):
    """The data of one golden scenario, its script, the corpus manifest, one
    SOP and one incident of its knowledge base, the embedding cache a run of
    the corpus leaves there, the run's report, and a config file that sets
    every key."""
    manifest = golden.write_corpus(tmp_path_factory.mktemp("golden"))
    root = manifest.parent
    (root / "config.yaml").write_text(_CONFIG)
    save_report(run_benchmark(load_corpus(manifest), EvalConfig(), BackendConfig()),
                root / "report.json")
    name = "scn-01000-cpustress.yaml"
    return {"scenario": schema.read_yaml(root / "scenarios" / name),
            "script": schema.read_yaml(root / "scripts" / name),
            "manifest": schema.read_yaml(manifest),
            "sop": schema.read_yaml(sorted((root / "kb" / "sops").iterdir())[0]),
            "incident": schema.read_yaml(sorted((root / "kb" / "incidents").iterdir())[0]),
            "cache": schema.read_json(root / "kb" / "embedding_cache.json"),
            "report": schema.read_json(root / "report.json"),
            "config": schema.read_yaml(root / "config.yaml")}


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
    "config": load_config,
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


_OUT_OF_RANGE = [0, -1, math.nan, math.inf]
# the config values a "bound" mutation may leave in range, by key: the kb
# threshold and a static threshold are any finite number, and embed_seed has
# no bound
_IN_RANGE = {"embed_seed": (0, -1), "threshold": (0, -1), "static_thresholds": (0, -1),
             "temperature": (0,), "min_sigma_frac": (0,), "sigma": (0,)}


@st.composite
def _mutation(draw, data):
    """(how, detail, mutated data): ``data`` with one value retyped, one
    number set out of range, or one key dropped or misspelt (a static
    threshold's metric among them), or unchanged, with the fraction of its
    bytes to keep for a truncation."""
    numbers = [at for at, value in _places(data) if type(value) in (int, float)]
    how = draw(st.sampled_from(["truncate", "retype", "drop", "misspell"]
                               + (["bound"] if numbers else [])))
    if how == "bound":
        at = draw(st.sampled_from(numbers))
        value = draw(st.sampled_from(_OUT_OF_RANGE))
        return how, (at, value), _replaced(data, at, lambda _: value)
    if how == "retype":
        at = draw(st.sampled_from([at for at, _ in _places(data)]))
        value = draw(st.sampled_from(_RETYPED))
        return how, (at, value), _replaced(data, at, lambda _: value)
    if how in ("drop", "misspell"):
        keyed = [(at, key) for at, value in _places(data) if isinstance(value, dict)
                 for key in value]
        at, key = draw(st.sampled_from(keyed))
        # a one-letter key (the config's k) is its own rotation
        renamed = None if how == "drop" else draw(st.sampled_from(
            [name for name in (key + "s", key[:-1], key.upper(), key[1:] + key[0], "")
             if name != key]))
        return how, (at, key, renamed), _replaced(
            data, at, lambda mapping: _without(mapping, key, renamed))
    return how, draw(st.floats(0, 1)), data


def _truncate(path, fraction: float) -> None:
    raw = path.read_bytes()
    path.write_bytes(raw[:int(len(raw) * fraction)])


@st.composite
def _mutations(draw, golden_files):
    kind = draw(st.sampled_from(sorted(golden_files)))
    how, detail, mutated = draw(_mutation(golden_files[kind]))
    form = "json" if kind == "report" else draw(st.sampled_from(["json", "block"]))
    return kind, form, how, detail, mutated


@settings(max_examples=1200, deadline=None, suppress_health_check=_FIXTURE)
@given(data=st.data())
def test_a_mutated_file_fails_only_with_an_error_naming_it(tmp_path, golden_files, data):
    kind, form, how, detail, mutated = data.draw(_mutations(golden_files))
    path = tmp_path / kind / _FILES.get(kind, f"{kind}.yaml")
    (schema.write_json_form if form == "json" else schema.write_yaml)(path, mutated)
    if how == "truncate":
        _truncate(path, detail)
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
        # that coerces, dropping an optional key, or a number still in range
        assert how in ("truncate", "retype", "drop", "bound"), (how, detail)
        if kind == "config" and how == "bound":
            at, value = detail
            key = "static_thresholds" if at[-2] == "static_thresholds" else at[-1]
            assert value in _IN_RANGE.get(key, ()), detail


@pytest.fixture(scope="module")
def golden_transcripts(tmp_path_factory):
    """The records of the nine golden default-mode transcripts."""
    root = tmp_path_factory.mktemp("transcripts")
    run_benchmark(load_corpus(golden.write_corpus(root / "corpus")), EvalConfig(),
                  BackendConfig(), transcript_dir=root / "out")
    return [[record for _, record in schema.read_jsonl(path)]
            for path in sorted((root / "out").glob("*.jsonl"))]


@settings(max_examples=400, deadline=None, suppress_health_check=_FIXTURE)
@given(data=st.data())
def test_a_mutated_transcript_reads_or_fails_with_an_error_naming_it(
        tmp_path, golden_transcripts, data):
    records = data.draw(st.sampled_from(golden_transcripts))
    how, detail, mutated = data.draw(_mutation(records))
    path = tmp_path / "transcript.jsonl"
    # a transcript retyped whole is written as the one record it now is
    lines = mutated if isinstance(mutated, list) else [mutated]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    if how == "truncate":
        _truncate(path, detail)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["transcript", str(path)])
    # a misspelt key may be one the reader does not read: unknown keys are
    # accepted until the record format is stated
    assert code == 0 or (code == 1 and err.getvalue().startswith(f"error: {path}: ")), (
        how, detail, err.getvalue())
