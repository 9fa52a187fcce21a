"""Seeded inputs for the serving benchmark.

Every input is a pure function of ``(workload, seed, operation index)``: the
same seed gives the same byte-for-byte request bodies however long a run
lasts, and the program under test only ever sees the generated requests.

A workload is a sequence of *rounds*; every round holds the same operation
kinds in the same order (only their inputs differ), so a run that stops at
a round boundary attempts the same mix whatever its length.

Request costs are kept continuous on purpose.  Model size, the share of
never-seen attribute text, what-if edits and simulation durations are drawn
from ranges, so no reported percentile lands in a gap between two clusters
of request cost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.casestudies import build_centrifuge_model, build_uav_model
from repro.corpus.synthesis import (
    EXTENSION_SERIAL_BASE,
    TABLE1_PROFILES,
    build_extension_corpus,
)
from repro.graph.attributes import Attribute, AttributeKind, Fidelity
from repro.graph.model import Component, Connection, SystemGraph

WORKLOADS = ("fresh-platforms", "known-platforms", "feed-and-jobs")
ROUND_LENGTHS = {"fresh-platforms": 4, "known-platforms": 5, "feed-and-jobs": 15}

#: The components new models are composed from: both case studies.
TEMPLATES: tuple[Component, ...] = (
    build_centrifuge_model().components + build_uav_model().components
)

#: Warm-up models.  Associating them scores every template attribute, so the
#: known-attribute pool is a search-cache hit for the rest of the run.
WARM_MODELS = ("centrifuge", "uav")

#: Attribute kind per Table 1 profile, so a fresh attribute describes its
#: platform the way a modeller would.
_PROFILE_KINDS = {
    "cisco asa": AttributeKind.HARDWARE,
    "ni linux real-time": AttributeKind.OPERATING_SYSTEM,
    "microsoft windows 7": AttributeKind.OPERATING_SYSTEM,
    "ni labview": AttributeKind.SOFTWARE,
    "ni crio-9063": AttributeKind.HARDWARE,
    "ni crio-9064": AttributeKind.HARDWARE,
}

#: Identifier serials reserved per feed batch; batches never exceed this, so
#: batch ``k`` starting at ``EXTENSION_SERIAL_BASE + k * BATCH_SERIAL_STRIDE``
#: is disjoint from every other batch.
BATCH_SERIAL_STRIDE = 1000
BATCH_SIZE_RANGE = (60, 140)

#: Component-count range of the analysts' reads in feed-and-jobs (smaller
#: than known-platforms' models, so a run holds enough operations).
FEED_READ_SIZE = (2, 6)

#: The feed-and-jobs round whose closing health probe is a ``compact``
#: instead: one compaction per run, after a few delta frames have piled up.
COMPACT_ROUND = 3

#: Simulation horizon range (seconds of plant time) for simulate jobs and
#: consequence assessments.
DURATION_RANGE = (240.0, 420.0)

#: Scenarios that cause their library's ``expected_hazards`` anywhere in
#: the duration range.  ``controller-blinding-mitm`` is left out: it never
#: shows the ``product_viscous`` hazard its library entry promises.
SIMULATE_SCENARIOS = (
    "nominal",
    "triton-like-sis-bypass",
    "bpcs-command-injection",
    "unauthenticated-setpoint-write",
    "sis-replay-blinding",
    "measurement-dos",
    "network-flood",
    "physical-sensor-tamper",
)
#: (record, component) pairs for consequence assessments; each maps to one
#: or more library scenarios.
CONSEQUENCE_RECORDS = (
    ("CWE-78", "BPCS Platform"),
    ("CWE-306", "BPCS Platform"),
    ("CWE-693", "SIS Platform"),
    ("CWE-294", "SIS Platform"),
    ("CWE-400", "BPCS Platform"),
)


@dataclass
class Op:
    """One benchmark operation: what to send and what to remember about it."""

    index: int
    kind: str  # an operation name, or job:<op>, extend, compact, metrics, healthz
    body: dict | None = None
    #: Index of the earlier op this one repeats exactly (response-cache hit).
    repeat_of: int | None = None
    #: Generator-side facts the checks need (e.g. which attribute a what-if
    #: variant dropped, a batch's record count).
    meta: dict = field(default_factory=dict)
    #: The request body as sent, encoded once (see ``bench.request_bytes``).
    encoded: bytes | None = field(default=None, repr=False)


def seeded_rng(seed: int, *parts) -> random.Random:
    """A generator determined by the seed and a path naming its use."""
    return random.Random("/".join(str(part) for part in (seed, *parts)))


#: Table 1 profile behind each implementation attribute of the templates.
_ATTRIBUTE_PROFILES = {
    "Cisco ASA": "cisco asa",
    "NI RT Linux OS": "ni linux real-time",
    "Windows 7": "microsoft windows 7",
    "Labview": "ni labview",
    "NI cRIO 9063": "ni crio-9063",
    "NI cRIO 9064": "ni crio-9064",
}
_PROFILES = {profile.key: profile for profile in TABLE1_PROFILES}


def _fresh_attribute(rng: random.Random, serial: int, replaces: Attribute | None = None) -> Attribute:
    """Implementation attribute text the corpus index has never scored.

    Built from the Table 1 profile vocabulary (product mentions and
    subsystem nouns) of the platform it replaces, with a version string
    unique to this input, so the attribute, text and vulnerability caches
    all miss.
    """
    key = _ATTRIBUTE_PROFILES.get(replaces.name) if replaces is not None else None
    profile = _PROFILES[key] if key else rng.choice(TABLE1_PROFILES)
    return Attribute(
        name=rng.choice(profile.mentions),
        kind=_PROFILE_KINDS[profile.key],
        fidelity=Fidelity.IMPLEMENTATION,
        description=f"{rng.choice(profile.subcomponents)} of {rng.choice(profile.mentions)}",
        version=f"{rng.randint(1, 12)}.{rng.randint(0, 40)}.{serial}",
    )


#: Templates carrying one of the three large platforms of Table 1; a
#: component built from one associates thousands of records, so the share
#: of them in a model drives the cost of its analysis.
_HEAVY_PLATFORMS = ("NI RT Linux OS", "Windows 7", "Cisco ASA")
HEAVY = tuple(t for t in TEMPLATES if any(a.name in _HEAVY_PLATFORMS for a in t.attributes))
LIGHT = tuple(t for t in TEMPLATES if t not in HEAVY)
HEAVY_SHARE = (0.0, 0.7)

#: Additive-recurrence steps of the R3 low-discrepancy sequence.
_R3 = (0.8191725133961645, 0.6710436067037893, 0.5497004779019703)


def design_point(phases: tuple[float, float, float], serial: int) -> tuple[float, float, float]:
    """Point ``serial`` of a seed-rotated low-discrepancy sequence in [0, 1)^3.

    Model size, heavy-component share and fresh-attribute share come from
    these coordinates instead of independent draws: every run then covers
    the cost range evenly whatever its seed, which keeps medians and tail
    percentiles from drifting between seeds, while the seed still changes
    every model.
    """
    return tuple((phase + serial * step) % 1.0 for phase, step in zip(phases, _R3))


def compose_model(
    rng: random.Random,
    name: str,
    size: tuple[int, int],
    point: tuple[float, float, float],
    serial: int,
    fresh: tuple[float, float] | None = None,
) -> SystemGraph:
    """A new model: template components, a random spanning tree plus extras.

    ``point`` fixes the component count within ``size`` and the share of
    heavy components.  With ``fresh``, a share in that range of the
    implementation-fidelity attributes is replaced by fresh text for the
    same platform (at least one per model).
    """
    count = size[0] + int(point[0] * (size[1] - size[0] + 1))
    heavy = round((HEAVY_SHARE[0] + point[1] * (HEAVY_SHARE[1] - HEAVY_SHARE[0])) * count)
    picks = [rng.choice(HEAVY) for _ in range(heavy)] + [rng.choice(LIGHT) for _ in range(count - heavy)]
    rng.shuffle(picks)
    # Exactly round(share * count) implementation attributes are replaced
    # (a random subset), not a binomial draw per attribute.
    specific = [(p, a) for p, t in enumerate(picks) for a, attribute in enumerate(t.attributes) if attribute.is_specific()]
    share = fresh[0] + point[2] * (fresh[1] - fresh[0]) if fresh else 0.0
    replaced = set(rng.sample(specific, round(share * len(specific)))) if fresh else set()
    graph = SystemGraph(name)
    fresh_made = 0
    for position, template in enumerate(picks):
        attributes = []
        for slot, attribute in enumerate(template.attributes):
            if (position, slot) in replaced:
                attributes.append(_fresh_attribute(rng, serial * 100 + fresh_made, attribute))
                fresh_made += 1
            else:
                attributes.append(attribute)
        graph.add_component(
            Component(
                f"{template.name} {position}",
                kind=template.kind,
                attributes=tuple(attributes),
                description=template.description,
                entry_point=position == 0 or (template.entry_point and rng.random() < 0.5),
                subsystem=template.subsystem,
                criticality=template.criticality,
            )
        )
    if fresh and fresh_made == 0:
        first = graph.components[0]
        graph.replace_component(
            first.add_attributes(_fresh_attribute(rng, serial * 100 + fresh_made))
        )
    names = graph.component_names()
    edges = set()
    for position in range(1, count):
        edges.add((names[rng.randrange(position)], names[position]))
    for _ in range(rng.randint(0, count // 3)):
        source, target = rng.sample(names, 2)
        if (source, target) not in edges and (target, source) not in edges:
            edges.add((source, target))
    for source, target in sorted(edges):
        graph.connect(Connection(source, target, protocol=rng.choice(("Ethernet/IP", "MODBUS", "MAVLink"))))
    return graph


def drop_attribute_variant(rng: random.Random, baseline: SystemGraph) -> tuple[SystemGraph, str, str]:
    """The baseline with one attribute removed from one component."""
    candidates = [c for c in baseline.components if len(c.attributes) >= 2]
    component = rng.choice(candidates or list(baseline.components))
    dropped = rng.choice(component.attributes)
    variant = baseline.copy(name=f"{baseline.name}-without-{dropped.name}")
    variant.replace_component(
        component.with_attributes(a for a in component.attributes if a is not dropped)
    )
    return variant, component.name, dropped.name


def chains_body(rng: random.Random, model: SystemGraph) -> dict:
    entries = {c.name for c in model.entry_points()}
    targets = [name for name in model.component_names() if name not in entries]
    target = rng.choice(targets or list(model.component_names()))
    return {
        "model": model.to_dict(),
        "target": target,
        "max_length": rng.randint(2, 6),
        "limit": rng.randint(5, 20),
        "scale": 1.0,
    }


def extension_batch(seed: int, number: int) -> dict:
    """Feed batch ``number`` as a ``CorpusStore.to_dict`` payload."""
    rng = seeded_rng(seed, "batch", number)
    low, high = BATCH_SIZE_RANGE
    spread = (seeded_rng(seed, "batch-design").random() + number * _R3[0]) % 1.0
    store = build_extension_corpus(
        count=low + int(spread * (high - low + 1)),
        seed=rng.randrange(1 << 30),
        start_serial=EXTENSION_SERIAL_BASE + number * BATCH_SERIAL_STRIDE,
    )
    return store.to_dict()


class Workload:
    """The deterministic op sequence of one workload for one seed."""

    def __init__(self, name: str, seed: int) -> None:
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
        self.name = name
        self.seed = seed
        self._rounds: list[list[Op]] = []
        phase = seeded_rng(seed, name, "design")
        self.phases = (phase.random(), phase.random(), phase.random())

    @property
    def round_length(self) -> int:
        return ROUND_LENGTHS[self.name]

    def round(self, number: int) -> list[Op]:
        while len(self._rounds) <= number:
            self._rounds.append(self._make_round(len(self._rounds)))
        return self._rounds[number]

    def op(self, index: int) -> Op:
        return self.round(index // self.round_length)[index % self.round_length]

    def _make_round(self, number: int) -> list[Op]:
        rng = seeded_rng(self.seed, self.name, "round", number)
        make = {
            "fresh-platforms": self._fresh_round,
            "known-platforms": self._known_round,
            "feed-and-jobs": self._feed_round,
        }[self.name]
        ops = make(rng, number)
        start = number * ROUND_LENGTHS[self.name]
        for offset, op in enumerate(ops):
            op.index = start + offset
        return ops

    # -- fresh-platforms ------------------------------------------------------

    def _fresh_model(self, rng: random.Random, serial: int) -> SystemGraph:
        return compose_model(
            rng, f"fresh-{self.seed}-{serial}", (2, 7), design_point(self.phases, serial), serial, fresh=(0.3, 1.0)
        )

    def _fresh_round(self, rng: random.Random, number: int) -> list[Op]:
        # Two associates per round: the uncached headline gets half the
        # samples, which keeps its median steady from run to run.
        base = number * 4
        return [
            Op(0, "associate", {"model": self._fresh_model(rng, base).to_dict(), "scale": 1.0}),
            Op(0, "table1", {"model": self._fresh_model(rng, base + 1).to_dict(), "scale": 1.0}),
            Op(0, "associate", {"model": self._fresh_model(rng, base + 2).to_dict(), "scale": 1.0}),
            Op(0, "chains", chains_body(rng, self._fresh_model(rng, base + 3))),
        ]

    # -- known-platforms ------------------------------------------------------

    def _known_model(self, rng: random.Random, serial: int, size: tuple[int, int] = (3, 9)) -> SystemGraph:
        return compose_model(rng, f"known-{self.seed}-{serial}", size, design_point(self.phases, serial), serial)

    def _known_round(self, rng: random.Random, number: int) -> list[Op]:
        base = number * 4
        ops = [
            Op(0, "associate", {"model": self._known_model(rng, base).to_dict(), "scale": 1.0}),
            Op(
                0,
                "recommend",
                {
                    "model": self._known_model(rng, base + 1).to_dict(),
                    "per_component": rng.randint(1, 5),
                    "scale": 1.0,
                },
            ),
        ]
        baseline = self._known_model(rng, base + 2)
        variant, component, dropped = drop_attribute_variant(rng, baseline)
        ops.append(
            Op(
                0,
                "whatif",
                {"model": baseline.to_dict(), "variant": variant.to_dict(), "scale": 1.0},
                meta={"component": component, "dropped": dropped},
            )
        )
        ops.append(
            Op(0, "associate", {"model": self._known_model(rng, base + 3).to_dict(), "scale": 1.0})
        )
        # One op in five repeats an earlier request exactly, so the response
        # cache serves it; the earlier op may be in this round or any before.
        earlier = rng.randrange(number * 5 + 4)
        source_round, position = divmod(earlier, 5)
        source = ops[position] if source_round == number else self._rounds[source_round][position]
        if source.repeat_of is not None:
            earlier = source.repeat_of
        ops.append(Op(0, source.kind, source.body, repeat_of=earlier, meta=source.meta))
        return ops

    # -- feed-and-jobs --------------------------------------------------------

    def _feed_round(self, rng: random.Random, number: int) -> list[Op]:
        base = number * 10
        batch = extension_batch(self.seed, number)
        added = sum(len(records) for records in batch.values() if isinstance(records, list))
        baseline = self._known_model(rng, base)
        variant, component, dropped = drop_attribute_variant(rng, baseline)
        # Jobs cycle through the scenario and record pools, and their plant
        # durations follow the design sequence, so every run holds the same
        # spread of job costs whatever its seed.
        offsets = seeded_rng(self.seed, "feed-offsets")
        scenario = SIMULATE_SCENARIOS[(number + offsets.randrange(len(SIMULATE_SCENARIOS))) % len(SIMULATE_SCENARIOS)]
        record, target = CONSEQUENCE_RECORDS[(number + offsets.randrange(len(CONSEQUENCE_RECORDS))) % len(CONSEQUENCE_RECORDS)]
        low, high = DURATION_RANGE
        simulate_s, consequences_s, _ = (round(low + u * (high - low), 3) for u in design_point(self.phases, number))

        def associate(serial: int) -> Op:
            model = self._known_model(rng, serial, size=FEED_READ_SIZE)
            return Op(0, "associate", {"model": model.to_dict(), "scale": 1.0})

        return [
            Op(0, "extend", {"records": batch}, meta={"batch": number, "added": added}),
            associate(base + 1),
            associate(base + 2),
            Op(
                0,
                "job:whatif",
                {"model": baseline.to_dict(), "variant": variant.to_dict(), "scale": 1.0},
                meta={"component": component, "dropped": dropped},
            ),
            associate(base + 3),
            associate(base + 4),
            Op(
                0,
                "job:simulate",
                {"scenario": scenario, "duration_s": simulate_s},
            ),
            associate(base + 5),
            Op(0, "metrics"),
            associate(base + 6),
            Op(
                0,
                "job:consequences",
                {"record": record, "component": target, "duration_s": consequences_s},
            ),
            associate(base + 7),
            associate(base + 8),
            Op(0, "compact" if number == COMPACT_ROUND else "healthz"),
            associate(base + 9),
        ]
