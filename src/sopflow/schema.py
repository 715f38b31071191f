"""The file layer: YAML and JSON documents, atomic writes, and dataclasses
read from and written to plain mappings.

Every YAML file the package reads or writes goes through ``read_yaml`` and
one of two writers. ``write_yaml`` writes block YAML: knowledge-base
documents, which people edit by hand. ``write_json_form`` writes the files
the package makes for itself (scenarios, scripts and corpus manifests) in
YAML's JSON form: one line of JSON that any YAML 1.1 reader reads as the
same data as ``json`` does. Its floats always carry a dot and a signed
exponent (``1.0e-05``; ``json`` writes ``1e-05``, which YAML 1.1 reads as a
string), and the characters YAML reads otherwise (the line breaks U+0085,
U+2028 and U+2029, and the characters it refuses as not printable) are
escaped. Data JSON cannot hold (a NaN or infinity, a key that is not a
string or that YAML cannot read as one) is written as block YAML instead.

``read_yaml`` parses a text with ``json`` first when it starts with ``{`` or
``[`` and holds no raw line break of those three and no ``\\u`` escape of a
surrogate. A float without a dot or a signed exponent, ``NaN`` and
``Infinity`` fail that parse, so every text YAML 1.1 reads otherwise goes
to the YAML loader, as does every text that is not JSON: a hand-written file
reads, or fails with the same error, as it always did. Only a JSON text YAML
itself refuses (a key over 1024 characters or split from its colon by a line
break, a raw control character) now reads, as JSON.

The YAML loader is libyaml's ``yaml.CSafeLoader``, with ``yaml.CSafeDumper``
for writing, when PyYAML was built with it, and the pure-Python
``SafeLoader`` and ``SafeDumper`` when not. The loader is a subclass of that
class that builds a plain document (str, int, float, bool and null scalars
in sequences and mappings) straight from the parser's node tree, skipping
PyYAML's generic, generator-based constructor. Any other document goes to
PyYAML's own constructor, whole: one with an alias of a sequence or mapping,
a ``<<`` merge key, a node of any other tag (a timestamp, ``!!binary``,
``!!set``, a custom tag), a sequence or mapping as a key, or a scalar that
constructor rejects. So the result, or the error, is always what
``yaml.load`` gives with the base class. JSON files are read through
``read_json`` and JSON Lines files through ``read_jsonl``. Each reader turns
an unreadable or unparsable file into a ``ConfigError`` that names the path.

A dataclass's own fields are its schema: ``from_mapping`` coerces each value
by the field's declared type, recurses into nested dataclasses, and rejects
keys that are not fields; ``to_mapping`` is ``dataclasses.asdict``. A value
whose type is exactly the field's passes as it is. Other scalars coerce
strictly: an ``int`` field takes no bool and no float with a fraction, a
``float`` field no bool, a ``str`` field no null, list or mapping, and an
``Enum`` field only one of its values. Two field markers
(``field(metadata=...)``) adjust that:

* ``INTERNAL``: set by code only; a mapping may not name it.
* ``INLINE``: a nested dataclass whose keys sit beside the parent's keys
  instead of under the field's own name.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import os
import re
import threading
import types
import typing
from pathlib import Path

import yaml

from .errors import ConfigError

_STR, _INT, _FLOAT, _BOOL, _NULL, _SEQ, _MAP = (
    f"tag:yaml.org,2002:{name}" for name in ("str", "int", "float", "bool", "null", "seq", "map"))


class _NotPlain(Exception):
    """The document holds a node ``_PlainConstructor`` leaves to PyYAML."""


class _PlainConstructor:
    """Builds a plain document straight from the node tree; any other
    document goes to the next class's ``construct_document`` (PyYAML's)."""

    def construct_document(self, node):
        try:
            return self._plain(node, set())
        except Exception:  # not plain, or a scalar PyYAML rejects: its error is the one
            return super().construct_document(node)

    def _plain(self, node, seen: set[int]):
        kind = type(node)
        if kind is yaml.ScalarNode:
            return self._scalar(node)
        # a sequence or mapping seen twice is an alias: PyYAML shares (or
        # recurses into) one object; a repeated scalar builds an equal value
        if id(node) in seen:
            raise _NotPlain
        seen.add(id(node))
        if kind is yaml.SequenceNode and node.tag == _SEQ:
            return [self._plain(item, seen) for item in node.value]
        if kind is yaml.MappingNode and node.tag == _MAP:
            out = {}
            for key_node, value_node in node.value:
                if type(key_node) is not yaml.ScalarNode:
                    raise _NotPlain  # unhashable, or built through an alias
                # a merge key (<<) has its own tag, so it is not plain
                out[self._scalar(key_node)] = self._plain(value_node, seen)
            return out
        raise _NotPlain

    def _scalar(self, node):
        tag = node.tag
        if tag == _STR:
            return node.value
        if tag == _NULL:
            return None
        if tag == _BOOL:
            return self.bool_values[node.value.lower()]
        if tag == _INT:
            value = node.value
            # a plain decimal; PyYAML's constructor reads signs, 0b, 0x, octal,
            # underscores and base 60
            if value.isascii() and value.isdigit() and (value[0] != "0" or value == "0"):
                return int(value)
        elif tag != _FLOAT:
            raise _NotPlain
        return self.yaml_constructors[tag](self, node)


# The C classes parse several times faster and write the same bytes for
# the documents the package writes.
class _Loader(_PlainConstructor, getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    pass


_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

INTERNAL = {"schema": "internal"}
INLINE = {"schema": "inline"}


def _marker(f: dataclasses.Field) -> str | None:
    return f.metadata.get("schema")


@functools.cache
def _fields(cls) -> tuple[tuple[str, object, frozenset[str] | None, bool], ...]:
    """What ``from_mapping`` reads for each field of ``cls`` but an internal
    one: its name, its resolved type (resolving string annotations is slow),
    the keys of its dataclass when it is inline (else None), and whether its
    key is required."""
    hints = typing.get_type_hints(cls)
    out = []
    for f in dataclasses.fields(cls):
        if _marker(f) == "internal":
            continue
        tp = hints[f.name]
        inline = (frozenset(g.name for g in dataclasses.fields(tp))
                  if _marker(f) == "inline" else None)
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        out.append((f.name, tp, inline, required))
    return tuple(out)


def from_mapping(cls, mapping, section: str):
    """Build ``cls`` from ``mapping``; ``section`` names the mapping in errors."""
    if mapping is None:
        mapping = {}
    if not isinstance(mapping, dict):
        raise ConfigError(f"{section}: expected a mapping, got {mapping!r}")
    values = {}
    used = 0  # keys of ``mapping`` read; each names one field (``_fields``)
    for name, tp, inline, required in _fields(cls):
        if inline is not None:
            own = {k: v for k, v in mapping.items() if k in inline}
            used += len(own)
            values[name] = from_mapping(tp, own, section)
        elif name in mapping:
            used += 1
            value = mapping[name]
            values[name] = value if type(value) is tp else _coerce(value, tp, f"{section}.{name}")
        elif required:
            raise ConfigError(f"{section}: missing key {name!r}")
    if used != len(mapping):
        known = {key for name, _, inline, _ in _fields(cls) for key in (inline or (name,))}
        rest = [key for key in mapping if key not in known]
        raise ConfigError(f"{section}: unknown key(s) {', '.join(map(repr, rest))}")
    return cls(**values)


def to_mapping(obj) -> dict:
    """``dataclasses.asdict``, with the keys of ``obj``'s ``INLINE`` fields lifted
    beside its own."""
    out = dataclasses.asdict(obj)
    for f in dataclasses.fields(obj):
        if _marker(f) == "inline":
            out.update(out.pop(f.name))
    return out


def _coerce(value, tp, where: str):
    if type(value) is tp:
        return value
    if dataclasses.is_dataclass(tp):
        return from_mapping(tp, value, where)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return _coerce(value, tp, where)
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        try:
            return tp(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: {exc}") from None
    if tp is bool:
        if value not in (True, False):
            raise ConfigError(f"{where}: expected true or false, got {value!r}")
        return bool(value)
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        return origin(_coerce(item, args[0], where) for item in value)
    if origin is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{where}: expected a mapping, got {value!r}")
        return {_coerce(k, args[0], where): _coerce(v, args[1], where)
                for k, v in value.items()}
    if tp in (int, float, str):
        if isinstance(value, bool) and tp is not str:
            raise ConfigError(f"{where}: expected a number, got {value!r}")
        if tp is int and isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"{where}: expected an integer, got {value!r}")
        if tp is str and (value is None or isinstance(value, (list, dict))):
            raise ConfigError(f"{where}: expected a string, got {value!r}")
        try:
            return tp(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: {exc}") from None
    return value


def write_atomic(path: Path | str, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file beside it and ``os.replace``,
    so the file is always either its old or its new content."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_text(path: Path | str, parse, errors: tuple[type[Exception], ...]):
    """``parse`` of the UTF-8 text at ``path``; a read error or one of
    ``errors`` becomes a ``ConfigError`` that names the path."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    except (UnicodeDecodeError, *errors) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# a float as YAML 1.1 reads one in a JSON text: a dot, and a sign on any exponent
_YAML_FLOAT = re.compile(r"-?[0-9]+\.[0-9]+(?:[eE][-+][0-9]+)?")
# characters YAML reads otherwise than JSON does: line breaks (U+0085, U+2028,
# U+2029), which fold with the spaces around them and end a key's line, and
# characters YAML refuses as not printable; written escaped, so both read the
# same string
_YAML_SPECIAL = re.compile("[\x7f-\x9f\u2028\u2029\ud800-\udfff\ufffe\uffff]")
# a text holding any of these goes to the YAML loader: a raw line break, or an
# escaped surrogate (libyaml refuses one; ``json`` reads a lone one as it is)
_NOT_JSON_FORM = ("\x85", "\u2028", "\u2029", "\\ud", "\\uD")
# YAML reads a simple key (any key of a JSON mapping) only up to 1024 characters long
_MAX_KEY = 1024


def _yaml_float(text: str) -> float:
    if _YAML_FLOAT.fullmatch(text) is None:
        raise ValueError(f"YAML 1.1 reads {text} as a string")
    return float(text)


def _no_constant(name: str):
    raise ValueError(f"{name} is not JSON")


_JSON_FORM = json.JSONDecoder(parse_float=_yaml_float, parse_constant=_no_constant)


def _load_yaml(text: str):
    if text.startswith(("{", "[")) and not any(mark in text for mark in _NOT_JSON_FORM):
        try:
            return _JSON_FORM.decode(text)
        except (ValueError, RecursionError):  # not the JSON form: YAML decides
            pass
    return yaml.load(text, Loader=_Loader)


def read_yaml(path: Path | str, cls=None, section: str | None = None):
    """The YAML document at ``path``, or, given ``cls``, ``from_mapping(cls, ...)``
    of it with ``section`` (default: the path) naming it in errors."""
    # the loader's constructors raise ValueError on a malformed scalar, such
    # as the timestamp 2020-13-45
    data = _read_text(path, _load_yaml, (yaml.YAMLError, ValueError))
    if cls is None:
        return data
    return from_mapping(cls, data, str(path) if section is None else section)


def write_yaml(path: Path | str, data) -> None:
    """Dump plain ``data`` to ``path`` atomically, keys in insertion order."""
    write_atomic(path, yaml.dump(data, Dumper=_DUMPER, sort_keys=False, allow_unicode=True))


def _json_form(data) -> str:
    """``data`` as JSON that YAML 1.1 reads as the same data; a ``ValueError``
    when it has no such form."""
    kind = type(data)
    if kind is dict:
        items = []
        for key, value in data.items():
            if type(key) is not str or len(text := _json_form(key)) > _MAX_KEY:
                raise ValueError(f"key {key!r} has no JSON form YAML reads")
            items.append(f"{text}: {_json_form(value)}")
        return "{" + ", ".join(items) + "}"
    if kind is list:
        return "[" + ", ".join(map(_json_form, data)) + "]"
    if kind is str:
        text = json.dumps(data, ensure_ascii=False)
        # nearly every string has nothing to escape, and ``sub`` with a
        # function builds a new string even then
        if _YAML_SPECIAL.search(text):
            text = _YAML_SPECIAL.sub(lambda m: f"\\u{ord(m.group()):04x}", text)
        return text
    if kind is float:
        text = json.dumps(data, allow_nan=False)
        return text if "." in text else text.replace("e", ".0e")
    if data is None or kind in (bool, int):
        return json.dumps(data)
    raise ValueError(f"{kind.__name__} has no JSON form")


def write_json_form(path: Path | str, data) -> None:
    """Dump plain ``data`` to ``path`` atomically in YAML's JSON form (see the
    module docstring), or as block YAML when it has none."""
    try:
        text = _json_form(data)
    except ValueError:
        return write_yaml(path, data)
    write_atomic(path, text + "\n")


def read_json(path: Path | str):
    """The JSON document at ``path``."""
    return _read_text(path, json.loads, (json.JSONDecodeError,))


def read_jsonl(path: Path | str) -> list[tuple[int, dict]]:
    """The records of the JSON Lines file at ``path``, one JSON object per
    line, as (line number, record) pairs; blank lines are skipped. A line that
    is not a JSON object is a ``ConfigError`` naming the path and line."""
    records = []
    for number, line in enumerate(_read_text(path, str.splitlines, ()), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: line {number}: {exc}") from exc
        if not isinstance(record, dict):
            raise ConfigError(f"{path}: line {number}: expected a JSON object, "
                              f"got {type(record).__name__}")
        records.append((number, record))
    return records
