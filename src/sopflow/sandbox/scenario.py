"""Incident scenarios: a topology, injected faults, and ground truth."""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields
from pathlib import Path

from .. import schema
from ..errors import ConfigError, ValidationError
from . import noise
from .faults import DEFAULT_MAGNITUDES, FaultSpec, FaultType
from .topology import FIXTURES, Topology, load_fixture

DEFAULT_WINDOW = (0, 600)


@dataclass(frozen=True)
class GroundTruth:
    locations: tuple[str, ...]
    types: tuple[str, ...]


@dataclass(frozen=True)
class ScenarioConfig(schema.Bounded):
    topology: str = field(default="online-boutique", metadata=schema.one_of(*FIXTURES))
    fault_types: tuple[FaultType, ...] = field(default=tuple(FaultType),
                                               metadata=schema.NON_EMPTY)
    faults_per_scenario: int = field(default=1, metadata=schema.POSITIVE_INT)


@dataclass(frozen=True)
class EpisodeScenario(schema.Bounded):
    """A scenario that exists is valid: building one checks its window, each
    fault against the topology, and that the ground truth is the faults'. It
    is frozen, ``faults`` a tuple and ``aliases`` read-only, so it stays as
    checked; it is not hashable, since ``aliases`` is not."""

    id: str
    topology_name: str
    seed: int
    window: tuple[int, int]
    faults: tuple[FaultSpec, ...]
    ground_truth: GroundTruth
    aliases: Mapping[str, str] = field(default_factory=dict)

    def topology(self) -> Topology:
        return load_fixture(self.topology_name)

    @property
    def incident_time_s(self) -> int:
        """The frozen "now" of the episode: midway through the first fault.

        Resource-state queries default to this instant so an investigation
        sees the incident while it is happening, like a postmortem snapshot.
        """
        first = min(self.faults, key=lambda f: f.start_s)
        return first.start_s + first.duration_s // 2

    def __post_init__(self):
        super().__post_init__()
        topo = self.topology()
        if self.window[1] <= self.window[0]:
            raise ValidationError("scenario window must be non-empty")
        for fault in self.faults:
            fault.validate(topo)
            if not (self.window[0] <= fault.start_s and fault.end_s <= self.window[1]):
                raise ValidationError(
                    f"fault window [{fault.start_s}, {fault.end_s}) outside scenario window"
                )
        if self.ground_truth != _derive_ground_truth(self.faults):
            raise ValidationError("ground truth is not derivable from the fault list")


def _derive_ground_truth(faults: Sequence[FaultSpec]) -> GroundTruth:
    return GroundTruth(
        locations=tuple(sorted({f.location_id for f in faults})),
        types=tuple(sorted({f.fault_type.value for f in faults})),
    )


def _pick_target(topo: Topology, fault_type: FaultType, seed: int, salt: str) -> str:
    if fault_type == FaultType.NetworkBandwidth:
        # prefer node pairs that at least one call edge actually crosses
        pairs = sorted({tuple(sorted(topo.node_pair_of_edge(e)))
                        for e in topo.call_edges
                        if len(topo.node_pair_of_edge(e)) == 2})
        a, b = noise.pick(pairs, seed, "target", salt)
        return f"nodes:{a}<->{b}"
    pod = noise.pick(sorted(p.id for p in topo.pods), seed, "target", salt)
    return f"pod:{pod}"


def generate_scenario(seed: int, config: ScenarioConfig = ScenarioConfig(),
                      index: int = 0) -> EpisodeScenario:
    """Build one scenario, fully determined by (seed, config, index)."""
    topo = load_fixture(config.topology)

    faults = []
    for n in range(config.faults_per_scenario):
        # round-robin over the allowed types so corpora cover the taxonomy evenly
        fault_type = config.fault_types[(index + n) % len(config.fault_types)]
        # ends by 540 s, inside DEFAULT_WINDOW
        start = 120 + 15 * int(noise.unit(seed, "start", n) * 9)      # 120..240
        duration = (180, 240, 300)[int(noise.unit(seed, "duration", n) * 3)]
        fault = FaultSpec(
            fault_type=fault_type,
            target=_pick_target(topo, fault_type, seed, f"f{n}"),
            start_s=start,
            duration_s=duration,
            magnitude=DEFAULT_MAGNITUDES[fault_type],
        )
        faults.append(fault)

    return EpisodeScenario(
        id=f"scn-{seed:05d}-{faults[0].fault_type.value.lower()}",
        topology_name=config.topology,
        seed=seed,
        window=DEFAULT_WINDOW,
        faults=faults,
        ground_truth=_derive_ground_truth(faults),
    )


def generate_corpus(seed: int, count: int,
                    config: ScenarioConfig = ScenarioConfig()) -> list[EpisodeScenario]:
    """``count`` scenarios with fault types assigned round-robin."""
    return [generate_scenario(seed * 1000 + i, config, index=i) for i in range(count)]


# -- scenario files ------------------------------------------------------------

def scenario_to_mapping(scenario: EpisodeScenario) -> dict:
    return {
        "id": scenario.id,
        "topology": scenario.topology_name,
        "seed": scenario.seed,
        "window": {"start_s": scenario.window[0], "end_s": scenario.window[1]},
        "faults": [
            {
                "fault_type": f.fault_type.value,
                "target": f.target,
                "start_s": f.start_s,
                "duration_s": f.duration_s,
                "magnitude": f.magnitude,
            }
            for f in scenario.faults
        ],
        "ground_truth": {
            "locations": list(scenario.ground_truth.locations),
            "types": list(scenario.ground_truth.types),
        },
        "aliases": dict(scenario.aliases),
    }


@dataclass
class _Window:
    start_s: int
    end_s: int


@dataclass
class _ScenarioFile:
    """A scenario file's top level; ``scenario_to_mapping`` writes every key.
    ``_section`` reads the nested sections, so errors name them as the file
    does (``window``, ``faults[0]``, ``ground_truth``)."""

    id: str
    topology: str
    seed: int
    window: dict
    faults: list[dict]
    ground_truth: dict
    aliases: dict[str, str] = field(default_factory=dict)


def _section(cls, mapping, section: str):
    """``schema.from_mapping`` of one section of a scenario file, as a
    ``ValidationError``: a key the section does not have is named as such,
    and any other error makes the file malformed."""
    if isinstance(mapping, dict):
        names = {f.name for f in fields(cls)}
        unknown = [key for key in mapping if key not in names]
        if unknown:
            raise ValidationError(f"{section}: unknown key(s) {', '.join(map(repr, unknown))}")
    try:
        return schema.from_mapping(cls, mapping, section)
    except ConfigError as exc:
        raise ValidationError(f"malformed scenario file: {exc}") from None


def scenario_from_mapping(mapping: dict) -> EpisodeScenario:
    file = _section(_ScenarioFile, mapping, "scenario")
    window = _section(_Window, file.window, "window")
    return EpisodeScenario(
        id=file.id,
        topology_name=file.topology,
        seed=file.seed,
        window=(window.start_s, window.end_s),
        faults=[_section(FaultSpec, f, f"faults[{i}]") for i, f in enumerate(file.faults)],
        ground_truth=_section(GroundTruth, file.ground_truth, "ground_truth"),
        aliases=file.aliases,
    )


def save_scenario(scenario: EpisodeScenario, path: Path | str) -> None:
    schema.write_json_form(path, scenario_to_mapping(scenario))


def load_scenario(path: Path | str) -> EpisodeScenario:
    mapping = schema.read_yaml(path)
    try:
        return scenario_from_mapping(mapping)
    except (ConfigError, ValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
