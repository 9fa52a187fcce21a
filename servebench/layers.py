"""The traced run: per-layer metrics, timed from outside the program.

The traced run drives the same seeded inputs over HTTP as an untraced run
(for the metrics only the live server has: response-cache outcomes, job
timestamps, journal growth, scrape latency), then replays those inputs
in-process: first through the service alone, then through the public calls
below it.  Every timing wraps one call into a module's public API (the table
in README.md names each call); nothing inside the program is instrumented.
End-to-end metrics are never taken from a traced run.

A traced run's result carries every per-layer metric, whatever the
workload.  A layer that a workload's own inputs never reach is therefore
measured by a short seeded probe; ``details["probed"]`` lists those
metrics, and a probed value describes the layer, not the workload.
"""

from __future__ import annotations

import gc
import json
import re
import shutil
import statistics
import time
from collections import defaultdict

import checks
from bench import SCALE, Record, request_bytes
from inputs import (
    CONSEQUENCE_RECORDS,
    DURATION_RANGE,
    SIMULATE_SCENARIOS,
    WARM_MODELS,
    Op,
    seeded_rng,
    chains_body,
    compose_model,
    drop_attribute_variant,
    extension_batch,
)

from repro.analysis.metrics import compute_posture, severity_histogram
from repro.analysis.recommendations import recommend
from repro.analysis.whatif import WhatIfStudy
from repro.attacks.consequence import ConsequenceMapper
from repro.attacks.scenarios import SCENARIO_LIBRARY
from repro.corpus.store import CorpusStore
from repro.cps.scada import ScadaSimulation
from repro.graph.model import SystemGraph
from repro.jobs import JobManager
from repro.search.chains import find_exploit_chains
from repro.service import AnalysisService
from repro.service.protocol import canonical_json, parse_request
from repro.service.service import MODEL_REGISTRY
from repro.workspace import Workspace

#: (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("corpus.build_s", "s"),
    ("workspace.build_s", "s"),
    ("workspace.save_s", "s"),
    ("workspace.load_ms", "ms"),
    ("workspace.extend_ms", "ms"),
    ("workspace.delta_bytes", "bytes"),
    ("workspace.compact_ms", "ms"),
    ("graph.from_dict_ms", "ms"),
    ("search.associate_ms", "ms"),
    ("search.attribute_cache_misses_per_op", "count"),
    ("search.attribute_cache_hit_ratio", "ratio"),
    ("search.text_cache_misses_per_op", "count"),
    ("search.candidates_pruned_per_op", "count"),
    ("search.shards_skipped_per_op", "count"),
    ("search.matches_per_op", "count"),
    ("search.chains_ms", "ms"),
    ("analysis.posture_ms", "ms"),
    ("analysis.severity_ms", "ms"),
    ("analysis.attribute_table_ms", "ms"),
    ("analysis.whatif_ms", "ms"),
    ("analysis.recommend_ms", "ms"),
    ("cps.simulate_ms", "ms"),
    ("cps.steps_per_s", "1/s"),
    ("attacks.consequences_ms", "ms"),
    ("service.request_decode_ms", "ms"),
    ("service.op_ms", "ms"),
    ("service.serialize_ms", "ms"),
    ("service.response_bytes", "bytes"),
    ("service.http_overhead_ms", "ms"),
    ("service.response_cache_hit_ratio", "ratio"),
    ("jobs.queue_wait_ms", "ms"),
    ("jobs.run_ms", "ms"),
    ("jobs.journal_bytes_per_job", "bytes"),
    ("obs.scrape_ms", "ms"),
)

#: Engine counters summed per associate call.
_COUNTERS = {
    "search.attribute_cache_misses_per_op": "attribute_cache_misses",
    "search.text_cache_misses_per_op": "text_cache_misses",
    "search.candidates_pruned_per_op": "candidates_pruned",
    "search.shards_skipped_per_op": "shards_skipped",
}

WORKSPACE_LOADS = 20
PROBE_CALLS = 3
_CACHE_METRIC = re.compile(r'^cpsec_response_cache_total\{([^}]*)\} (\S+)$', re.M)


class Samples:
    """Per-call samples and summed counters, keyed by metric name."""

    def __init__(self) -> None:
        self.values: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)

    def time(self, name: str, call, *args, **kwargs):
        started = time.perf_counter()
        result = call(*args, **kwargs)
        self.values[name].append((time.perf_counter() - started) * 1000.0)
        return result

    def add(self, name: str, value: float) -> None:
        self.values[name].append(value)


def traced_run(bench) -> tuple[dict, dict]:
    samples = Samples()
    report = checks.Report()
    server = bench.set_up(timed_layers=True)
    base_copy = bench.run_dir / "replay-service.cpsecws"
    layer_copy = bench.run_dir / "replay-layers.cpsecws"
    shutil.copyfile(bench.artifact, base_copy)
    shutil.copyfile(bench.artifact, layer_copy)
    for _ in range(WORKSPACE_LOADS):
        samples.time("workspace.load_ms", Workspace.load, bench.artifact, mmap=True)
    probed: list[str] = []
    try:
        bench.check_table1(server, report)
        records, _ = bench.measure(server)
        http_ms = {r.op.index: r.ms for r in records if r.ok}
        conn = server.connect()
        try:
            jobs = [r.json() for r in records if r.ok and r.op.kind.startswith("job:")]
            if jobs:
                add_job_samples(samples, jobs, bench.journal)
            scrapes = [r.ms for r in records if r.ok and r.op.kind == "metrics"]
            if not scrapes:
                probed.append("obs.scrape_ms")
                for number in range(5 * PROBE_CALLS):
                    scrapes.append(bench.execute(conn, Op(-10 - number, "metrics")).ms)
            samples.values["obs.scrape_ms"] = scrapes
            status, data = conn.get("/metrics")
            hits = total = 0.0
            for labels, value in _CACHE_METRIC.findall(data.decode()):
                total += float(value)
                if 'result="hit"' in labels:
                    hits += float(value)
            samples.add("service.response_cache_hit_ratio", hits / total if total else 0.0)
        finally:
            conn.close()
        final = bench.final_state_probe(server)
    finally:
        drained = server.stop()
    bench.check(records, report, final)

    replayed = replay(bench, records, http_ms, samples, base_copy, layer_copy)
    probed += probe_missing(bench, samples, layer_copy)
    if not jobs:
        probed += ["jobs.queue_wait_ms", "jobs.run_ms", "jobs.journal_bytes_per_job"]
        probe_jobs(bench, samples)

    metrics = {}
    for name, unit in LAYER_METRICS:
        if name in bench.layer_times:
            value = bench.layer_times[name]
        elif name in _COUNTERS or name == "search.matches_per_op":
            calls = samples.counts["associate_calls"]
            value = samples.counts[name] / calls if calls else 0.0
        elif name == "search.attribute_cache_hit_ratio":
            hits, misses = samples.counts["attribute_cache_hits"], samples.counts["attribute_cache_misses"]
            value = hits / (hits + misses) if hits + misses else 0.0
        else:
            value = statistics.median(samples.values[name])
        metrics[name] = {"value": value, "unit": unit}
    completed = [r for r in records if r.ok]
    result = {
        "correct": report.ok,
        "attempted": len(records),
        "failed": len(records) - len(completed),
        "metrics": metrics,
    }
    details = {
        "workload": bench.name,
        "seed": bench.seed,
        "trace": True,
        "replayed_ops": replayed,
        "http_ops": len(records),
        "probed": probed,
        # A median below zero would show replay noise, not the HTTP tier.
        "http_overhead_resolved": metrics["service.http_overhead_ms"]["value"] >= 0,
        "drained_in_time": [drained],
        "samples": {name: len(values) for name, values in sorted(samples.values.items())},
        "checks": report.summary(),
    }
    return result, details


def add_job_samples(samples: Samples, jobs: list[dict], journal) -> None:
    """Queue wait and run time from job records; journal bytes per job."""
    for job in jobs:
        samples.add("jobs.queue_wait_ms", (job["started_at"] - job["created_at"]) * 1000.0)
        samples.add("jobs.run_ms", (job["finished_at"] - job["started_at"]) * 1000.0)
    samples.add("jobs.journal_bytes_per_job", journal.stat().st_size / len(jobs))


def probe_jobs(bench, samples: Samples) -> None:
    """Seeded ``simulate`` jobs through an in-process, journalled JobManager.

    A pre-forked server keeps each job in the worker that accepted its
    submission, so a client that connects per request cannot follow it
    there; the probe therefore runs the jobs layer in-process.
    """
    journal = bench.run_dir / "probe-jobs.jsonl"
    manager = JobManager(AnalysisService(save_artifacts=False), journal_path=journal)
    rng = seeded_rng(bench.seed, "probe", "jobs")
    try:
        submitted = [
            manager.submit("simulate", {"scenario": "nominal", "duration_s": round(rng.uniform(*DURATION_RANGE), 3)})
            for _ in range(PROBE_CALLS)
        ]
        jobs = [manager.wait(job.job_id, timeout=120).to_dict() for job in submitted]
    finally:
        manager.close()
    add_job_samples(samples, jobs, journal)


def decode(op: Op, kind: str):
    """What the server does with a request body: JSON, then the typed request."""
    payload = json.loads(request_bytes(op)) if op.body is not None else {}
    if op.kind.startswith("job:"):
        payload = payload["request"]
    return parse_request(kind, payload)


def replay(bench, records: list[Record], http_ms: dict, samples: Samples, base_copy, layer_copy) -> int:
    """Replay the HTTP phase's inputs in-process, in the same order.

    Two passes over two copies of the artifact, one after the other, keep
    the replays apart: the service pass (``service.*``) runs the service's
    own operations over one copy with no other work in the process, so its
    times compare with the HTTP phase's; the layer pass then runs the public
    calls below the service over the other copy.
    """
    mmap = bench.workers > 1
    # The benchmark's own objects (the set-up workspace, the records) are
    # moved out of the collector's reach, so that the service pass's
    # collections scan about what a server process's would.
    gc.collect()
    gc.freeze()
    service = AnalysisService(
        workspaces={"default": base_copy}, default_workspace="default", save_artifacts=False, workspace_mmap=mmap
    )
    for name in WARM_MODELS:
        service.associate(parse_request("associate", {"model": name, "scale": SCALE}))
    # Half the measured phase's length bounds the service pass, and the
    # layer pass replays what it replayed; that keeps a traced run inside
    # the time an untraced one takes.
    deadline = time.perf_counter() + bench.seconds / 2
    replayed: list[tuple[Op, str]] = []
    for record in records:
        if time.perf_counter() >= deadline:
            break
        op = record.op
        kind = op.kind[4:] if op.kind.startswith("job:") else op.kind
        if not record.ok or kind in ("metrics", "healthz"):
            continue
        replayed.append((op, kind))
        request = samples.time("service.request_decode_ms", decode, op, kind)
        response = samples.time("service.op_ms", getattr(service, kind), request)
        encoded = samples.time("service.serialize_ms", lambda: canonical_json(response.to_dict()).encode("utf-8"))
        samples.add("service.response_bytes", len(encoded))
        if not op.kind.startswith("job:") and kind not in ("extend", "compact"):
            in_process = sum(samples.values[name][-1] for name in ("service.request_decode_ms", "service.op_ms", "service.serialize_ms"))
            samples.add("service.http_overhead_ms", http_ms[op.index] - in_process)
    del service
    gc.unfreeze()
    gc.collect()

    layer_ws = Workspace.load(layer_copy, mmap=mmap)
    engine = layer_ws.shared_engine()
    for name in WARM_MODELS:
        engine.associate(MODEL_REGISTRY[name]())
    for op, kind in replayed:
        if op.repeat_of is None:  # the server answers repeats from its response cache
            engine = replay_layers(samples, layer_ws, engine, layer_copy, kind, op.body)
    return len(replayed)


def _associate(samples: Samples, engine, model: SystemGraph):
    before = engine.stats.snapshot()
    association = samples.time("search.associate_ms", engine.associate, model)
    after = engine.stats.snapshot()
    samples.counts["associate_calls"] += 1
    samples.counts["search.matches_per_op"] += association.total
    for metric, counter in _COUNTERS.items():
        samples.counts[metric] += after[counter] - before[counter]
    for counter in ("attribute_cache_hits", "attribute_cache_misses"):
        samples.counts[counter] += after[counter] - before[counter]
    return association


def replay_layers(samples: Samples, layer_ws: Workspace, engine, layer_copy, kind: str, body: dict):
    """Time the public calls one operation makes below the service.

    Returns the engine to use next (an ``extend`` invalidates the old one).
    """
    if kind == "extend":
        records = list(CorpusStore.from_dict(body["records"]).all_records())
        summary = samples.time("workspace.extend_ms", layer_ws.extend, records, path=layer_copy)
        samples.add("workspace.delta_bytes", summary["appended_bytes"])
        return layer_ws.shared_engine()
    if kind == "compact":
        samples.time("workspace.compact_ms", layer_ws.compact, layer_copy)
        return engine
    if kind == "simulate":
        scenario = body["scenario"]
        interventions = [] if scenario == "nominal" else SCENARIO_LIBRARY[scenario].interventions()
        simulation = ScadaSimulation(interventions=interventions)
        trace = samples.time("cps.simulate_ms", simulation.run, duration_s=body["duration_s"], dt=0.5)
        samples.add("cps.steps_per_s", len(trace) / (samples.values["cps.simulate_ms"][-1] / 1000.0))
        return engine
    if kind == "consequences":
        mapper = ConsequenceMapper(duration_s=body["duration_s"])
        samples.time("attacks.consequences_ms", mapper.assess, body["record"], body["component"])
        return engine
    model = samples.time("graph.from_dict_ms", SystemGraph.from_dict, body["model"])
    if kind == "whatif":
        variant = samples.time("graph.from_dict_ms", SystemGraph.from_dict, body["variant"])
        samples.time("analysis.whatif_ms", WhatIfStudy(engine).compare, model, variant)
        return engine
    association = _associate(samples, engine, model)
    if kind == "associate":
        samples.time("analysis.posture_ms", compute_posture, association)
        samples.time("analysis.severity_ms", severity_histogram, association)
    elif kind == "table1":
        samples.time("analysis.attribute_table_ms", association.attribute_table)
    elif kind == "chains":
        samples.time("search.chains_ms", find_exploit_chains, association, body["target"], max_length=body["max_length"])
    elif kind == "recommend":
        samples.time("analysis.recommend_ms", recommend, association, engine.corpus, per_component=body["per_component"])
    return engine


def probe_missing(bench, samples: Samples, layer_copy) -> list[str]:
    """Seeded probe calls for the layers this workload's inputs never reach."""
    probed = []
    rng = seeded_rng(bench.seed, "probe", "layers")
    layer_ws = Workspace.load(layer_copy)
    engine = layer_ws.shared_engine()

    def model(serial: int) -> SystemGraph:
        return compose_model(rng, f"probe-{serial}", (3, 9), (rng.random(), rng.random(), 0.0), serial)

    wanted = {
        "search.chains_ms": lambda n: replay_layers(samples, layer_ws, engine, layer_copy, "chains", chains_body(rng, model(n))),
        "analysis.attribute_table_ms": lambda n: replay_layers(samples, layer_ws, engine, layer_copy, "table1", {"model": model(n).to_dict()}),
        "analysis.posture_ms": lambda n: replay_layers(samples, layer_ws, engine, layer_copy, "associate", {"model": model(n).to_dict()}),
        "analysis.whatif_ms": lambda n: _probe_whatif(samples, layer_ws, engine, layer_copy, rng, model(n)),
        "analysis.recommend_ms": lambda n: replay_layers(
            samples, layer_ws, engine, layer_copy, "recommend", {"model": model(n).to_dict(), "per_component": rng.randint(1, 5)}
        ),
        "cps.simulate_ms": lambda n: replay_layers(
            samples, layer_ws, engine, layer_copy, "simulate",
            {"scenario": rng.choice(SIMULATE_SCENARIOS), "duration_s": rng.uniform(*DURATION_RANGE)},
        ),
        "attacks.consequences_ms": lambda n: replay_layers(
            samples, layer_ws, engine, layer_copy, "consequences",
            dict(zip(("record", "component"), rng.choice(CONSEQUENCE_RECORDS)), duration_s=rng.uniform(*DURATION_RANGE)),
        ),
    }
    for name, probe in wanted.items():
        if not samples.values.get(name):
            probed.append(name)
            for number in range(PROBE_CALLS):
                probe(number)
    # Last: extending invalidates the probe engine.
    if not samples.values.get("workspace.extend_ms"):
        probed += ["workspace.extend_ms", "workspace.delta_bytes"]
        for number in range(PROBE_CALLS):
            replay_layers(samples, layer_ws, engine, layer_copy, "extend", {"records": extension_batch(bench.seed, number)})
    if not samples.values.get("workspace.compact_ms"):
        probed.append("workspace.compact_ms")
        replay_layers(samples, layer_ws, engine, layer_copy, "compact", {})
    if "cps.simulate_ms" in probed:
        probed.append("cps.steps_per_s")
    return probed


def _probe_whatif(samples, layer_ws, engine, layer_copy, rng, baseline: SystemGraph):
    variant, _, _ = drop_attribute_variant(rng, baseline)
    return replay_layers(
        samples, layer_ws, engine, layer_copy, "whatif", {"model": baseline.to_dict(), "variant": variant.to_dict()}
    )
