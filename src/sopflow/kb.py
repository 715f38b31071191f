"""Knowledge base of diagnostic procedures (SOPs) and historical incidents.

Documents live as one YAML file each under ``<root>/sops`` and
``<root>/incidents`` so engineers can edit them by hand; embeddings are
computed lazily through the configured backend and cached keyed by
(backend id, text hash), on disk under ``<root>``. A match hands the texts
it misses (the query and the store's uncached texts, each once, in order) to
the backend's ``embed_many`` in one call, which an episode on a remote
backend sends two at a time (the second of each pair sent ahead, and a text
already sent ahead answered from that request). A knowledge base has one
embedding cache, shared by all its views (``using``, ``clone_in_memory``,
``without_sops``). A match only fills that cache in memory; ``save_cache``
is the one writer of the cache file, and ``sopflow kb match``,
``sopflow diagnose`` and a benchmark run each call it once, when they are
done, so a rerun over the same knowledge base and backend embeds no text an
earlier run embedded. Every file is written atomically (a temp file beside
it, then ``os.replace``). A vector is checked once, when its
``EmbeddingVector`` is built, and a cached one must have the dimension its
backend id ends with. Retrieval is an exact linear scan over cosine
similarities, which is plenty at the store sizes this system targets.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import re
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

from . import schema
from .errors import (
    ConfigError,
    DimensionError,
    NotFoundError,
    ValidationError,
)

_SOP_DIR = "sops"
_INCIDENT_DIR = "incidents"
_CACHE_FILE = "embedding_cache.json"

_ID_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")
# ``_text_key``'s form, capturing the dimension the backend id ends with; a
# remote id written before it named one (``remote:<model>``) is read by no backend
_CACHE_KEY_RE = re.compile(r"(?:.+:([0-9]+)|.+):[0-9a-f]{64}", re.DOTALL)
_NUMBER = frozenset((int, float))
_MAX = sys.float_info.max


# a document's id is its file name
_ID = schema.bound("letters, digits, '.', '_' and '-', starting with a letter or digit",
                   lambda v: isinstance(v, str) and _ID_RE.fullmatch(v) is not None)
_STEPS = schema.bound("a non-empty list of non-blank strings",
                      lambda v: len(v) > 0 and all(isinstance(s, str) and s.strip() for s in v))


@dataclass(frozen=True)
class KbSettings(schema.Bounded):
    """Retrieval defaults (the ``kb:`` config section), and every match's bounds."""

    k: int = field(default=3, metadata=schema.POSITIVE_INT)
    # a NaN would match nothing
    threshold: float = field(default=0.3, metadata=schema.FINITE)


@dataclass(frozen=True)
class EmbeddingVector:
    """Real vector produced by an embedding backend. One that exists can be
    compared: it is built from a non-empty list of finite ints and floats
    (not bools), each kept as a float, whose sum of squares is above 0. Its
    ``norm2`` is that sum, added in order."""

    values: tuple[float, ...]
    norm2: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.values, (list, tuple)):
            raise ValidationError(f"expected a list of numbers, got {type(self.values).__name__}")
        values, norm2 = [], 0.0
        for v in self.values:
            # a bool's type is neither; NaN, infinities and huge ints fail the range test
            if type(v) not in _NUMBER or not -_MAX <= v <= _MAX:
                raise ValidationError(f"{v!r} is not a finite number")
            v = float(v)
            values.append(v)
            norm2 += v * v
        if not values:
            raise ValidationError("an empty vector: dim must be > 0")
        if norm2 == 0.0:  # no angle can be taken against it
            raise ValidationError("a zero vector")
        object.__setattr__(self, "values", tuple(values))
        object.__setattr__(self, "norm2", norm2)

    @property
    def dim(self) -> int:
        return len(self.values)

    @classmethod
    def of(cls, values) -> "EmbeddingVector":
        return cls(tuple(values))


def _read_cache(path: Path) -> dict[str, EmbeddingVector]:
    """The embedding cache at ``path``: a JSON object mapping the key of each
    embedded text (``<backend id>:<sha256 of the text>``, the backend id
    ending in its dimension) to its vector of that many values. Any other
    shape is a ``ConfigError`` that names the path."""
    stored = schema.read_json(path)
    if not isinstance(stored, dict):
        raise ConfigError(f"{path}: expected an object mapping text to a list of "
                          f"numbers, got {type(stored).__name__}")
    cache = {}
    for key, values in stored.items():
        form = _CACHE_KEY_RE.fullmatch(key)
        if form is None:
            raise ConfigError(f"{path}: the key {key!r} is not <backend id>:<sha256 of "
                              f"the text>")
        try:
            vector = EmbeddingVector(values)
        except ValidationError as exc:
            raise ConfigError(f"{path}: the entry for {key!r}: {exc}") from exc
        if form[1] is not None and vector.dim != int(form[1]):  # it would fail every match
            raise ConfigError(f"{path}: the entry for {key!r} has {vector.dim} values, "
                              f"not the {form[1]} its backend id ends with")
        cache[key] = vector
    return cache


def cosine_similarity(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """Cosine of the angle between two vectors of one dimension, clamped to
    [-1, 1]; each has a norm above 0, since it exists."""
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")
    dot = 0.0
    for x, y in zip(a.values, b.values):
        dot += x * y
    score = dot / math.sqrt(a.norm2 * b.norm2)
    return max(-1.0, min(1.0, score))


@dataclass(frozen=True)
class SopDoc(schema.Bounded):
    """A named, ordered diagnostic procedure.

    ``level`` encodes hierarchy depth: 0 is a macro procedure, larger values
    are progressively more specific refinements. Fields are declared in the
    order a file lists them, so ``level`` (keyword-only) precedes ``steps``.
    """

    id: str = field(metadata=_ID)
    name: str = field(metadata=schema.NON_BLANK)
    level: int = field(default=0, kw_only=True, metadata=schema.NON_NEGATIVE)
    steps: tuple[str, ...] = field(metadata=_STEPS)


@dataclass(frozen=True)
class HistoricalIncident(schema.Bounded):
    """A past incident described by what was observed and what caused it."""

    id: str = field(metadata=_ID)
    manifestation: str = field(metadata=schema.NON_BLANK)
    fault_type: str = ""


@dataclass(frozen=True)
class RetrievalHit:
    """One retrieval result: which item matched and how strongly."""

    item_id: str
    score: float  # cosine similarity, in [-1, 1]


def _text_key(backend_id: str, text: str) -> str:
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return f"{backend_id}:{digest}"


class KnowledgeBase:
    """SOP and incident store with embedding-based top-k retrieval.

    Safe for many concurrent readers once loaded; mutations take an internal
    lock. When ``root`` is given, documents and the embedding cache persist
    under it; otherwise the store is memory-only. Documents are never mutated,
    and a document that exists is valid (its class checks it when it is
    built). ``settings`` holds the ``k`` and ``threshold`` a match uses when
    it is given none; a match given its own checks them against the same bounds.
    """

    def __init__(self, backend, root: Path | str | None = None,
                 settings: KbSettings = KbSettings()):
        self._backend = backend
        self._root = Path(root) if root is not None else None
        self.settings = settings
        self._sops: dict[str, SopDoc] = {}
        self._incidents: dict[str, HistoricalIncident] = {}
        self._cache: dict[str, EmbeddingVector] = {}
        self._lock = threading.Lock()
        if self._root is not None:
            self._load()
        self._saved = len(self._cache)  # the vectors the cache file holds

    # -- persistence -------------------------------------------------------

    def _load(self) -> None:
        root = self._root
        assert root is not None
        cache_path = root / _CACHE_FILE
        if cache_path.exists():
            self._cache = _read_cache(cache_path)
        for subdir, cls, store in ((_SOP_DIR, SopDoc, self._sops),
                                   (_INCIDENT_DIR, HistoricalIncident, self._incidents)):
            for path in sorted((root / subdir).glob("*.yaml")):
                doc = schema.read_yaml(path, cls)
                store[doc.id] = doc

    def _write_doc(self, subdir: str, doc) -> None:
        if self._root is None:
            return
        schema.write_yaml(self._root / subdir / f"{doc.id}.yaml", schema.to_mapping(doc))

    def save_cache(self) -> None:
        """Write the cache file (its only writer) if the cache holds a vector
        the file lacks, such as one a view embedded; the cache only grows, so
        its size tells. A memory-only store writes nothing. A failed write
        leaves the file as it was and raises nothing: the cache is an
        optimization, and a later run embeds those texts again."""
        with self._lock:
            if self._root is None or len(self._cache) <= self._saved:
                return
            stored = {key: list(vec.values) for key, vec in self._cache.items()}
            try:
                schema.write_atomic(self._root / _CACHE_FILE,
                                    json.dumps(stored, sort_keys=True))
            except OSError:
                return
            self._saved = len(stored)

    # -- mutation ----------------------------------------------------------

    def add_sop(self, doc: SopDoc) -> str:
        with self._lock:
            if doc.id in self._sops:
                raise ValidationError(f"SOP id already exists: {doc.id}")
            self._write_doc(_SOP_DIR, doc)
            self._sops[doc.id] = doc
        return doc.id

    def add_incident(self, inc: HistoricalIncident) -> str:
        with self._lock:
            if inc.id in self._incidents:
                raise ValidationError(f"incident id already exists: {inc.id}")
            self._write_doc(_INCIDENT_DIR, inc)
            self._incidents[inc.id] = inc
        return inc.id

    # -- access ------------------------------------------------------------

    def get_sop(self, sop_id: str) -> SopDoc:
        try:
            return self._sops[sop_id]
        except KeyError:
            raise NotFoundError(f"no SOP with id {sop_id!r}") from None

    def get_incident(self, incident_id: str) -> HistoricalIncident:
        try:
            return self._incidents[incident_id]
        except KeyError:
            raise NotFoundError(f"no incident with id {incident_id!r}") from None

    def list_sops(self) -> list[SopDoc]:
        return list(self._sops.values())

    def list_incidents(self) -> list[HistoricalIncident]:
        return list(self._incidents.values())

    # -- retrieval ---------------------------------------------------------

    def _vectors(self, texts: list[str]) -> dict[str, EmbeddingVector]:
        """The vector of each text. The texts missing from the cache are
        embedded in one call, in order and each once (``embed_many`` when the
        backend has it), then cached in memory; ``save_cache`` writes them."""
        backend_id = self._backend.backend_id
        keys = {text: _text_key(backend_id, text) for text in texts}
        missing = [text for text, key in keys.items() if key not in self._cache]
        if missing:
            embed_many = getattr(self._backend, "embed_many", None)
            vectors = (embed_many(missing) if embed_many is not None
                       else [self._backend.embed(text) for text in missing])
            with self._lock:
                for text, vector in zip(missing, vectors):
                    self._cache[keys[text]] = vector
        return {text: self._cache[key] for text, key in keys.items()}

    def cached(self, text: str) -> bool:
        """Whether ``text``'s vector is in the cache."""
        return _text_key(self._backend.backend_id, text) in self._cache

    def match_sop(self, query: str, k: int | None = None,
                  threshold: float | None = None) -> list[tuple[SopDoc, float]]:
        """Top-k SOPs whose name embedding is at least ``threshold`` similar to the query."""
        return self._match(query, self._sops, "name", k, threshold)

    def match_observation(self, observation: str, k: int | None = None,
                          threshold: float | None = None) -> list[tuple[HistoricalIncident, float]]:
        """Top-k historical incidents by manifestation similarity to the observation."""
        return self._match(observation, self._incidents, "manifestation", k, threshold)

    def _match(self, query: str, store: dict, text_attr: str,
               k: int | None, threshold: float | None) -> list:
        if not query.strip():
            raise ValidationError("query must be non-empty")
        settings = KbSettings(self.settings.k if k is None else int(k),
                              self.settings.threshold if threshold is None else float(threshold))
        if not store:
            return []
        vectors = self._vectors([query, *(getattr(item, text_attr) for item in store.values())])
        query_vec = vectors[query]
        scored = [(item, cosine_similarity(query_vec, vectors[getattr(item, text_attr)]))
                  for item in store.values()]
        # ties break on lexicographic id so golden tests stay stable
        scored.sort(key=lambda pair: (-pair[1], pair[0].id))
        return [(item, score) for item, score in scored
                if score >= settings.threshold][:settings.k]

    def hits(self, matches: list) -> list[RetrievalHit]:
        return [RetrievalHit(item_id=item.id, score=score) for item, score in matches]

    # -- lifecycle helpers ---------------------------------------------------

    def using(self, backend) -> "KnowledgeBase":
        """A view that embeds through ``backend`` and shares this store's
        documents, embedding cache and directory."""
        view = copy.copy(self)
        view._backend = backend
        return view

    def _view(self, sops: dict[str, SopDoc]) -> "KnowledgeBase":
        view = copy.copy(self)
        view._root = None
        view._sops = sops
        view._incidents = dict(self._incidents)
        return view

    def clone_in_memory(self) -> "KnowledgeBase":
        """A memory-only view for one benchmark episode: documents added to it
        reach neither this store nor any other view, while embeddings go to the
        shared cache, so a run embeds each distinct text once. The view writes
        no file; this store's ``save_cache`` writes the vectors it added."""
        return self._view(dict(self._sops))

    def without_sops(self) -> "KnowledgeBase":
        """A memory-only view like ``clone_in_memory`` with an empty SOP store;
        incidents are kept."""
        return self._view({})

