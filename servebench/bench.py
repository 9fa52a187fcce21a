"""One benchmark run: set up, drive a closed loop over HTTP, check, report.

The client is one process.  Each connection is a thread that sends its next
request only after the previous answer has arrived (a closed loop); the
workload table in README.md gives the connection count per workload.
"""

from __future__ import annotations

import gc
import http.client
import json
import re
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
from inputs import WARM_MODELS, Op, Workload, extension_batch
from server import Connection, Server, cpu_seconds, pss_mb

from repro.corpus.store import CorpusStore
from repro.search import SearchEngine
from repro.service import AnalysisService
from repro.service.protocol import canonical_json, parse_request
from repro.workspace import Workspace

SCALE = 1.0

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: Server workers, client connections, and whether jobs are journalled.
CONFIG = {
    "fresh-platforms": (2, 2, False),
    "known-platforms": (1, 1, False),
    "feed-and-jobs": (1, 1, True),
}

#: Operations a run leaves beyond its reported tail percentile: the
#: measured phase lasts until ``seconds`` have passed *and* at least
#: ``MIN_OPS`` operations have been sent, so p95 always has ten beyond it.
TAIL_OPS = 10
MIN_OPS = 20 * TAIL_OPS

#: Seconds between PSS samples of the server during the measured phase.
PSS_INTERVAL_S = 1.0

#: Answers per run compared byte for byte against an in-process engine with
#: its caches off (the reference costs a full uncached association each).
EXACT_SAMPLES = 8
RENAME_SAMPLES = 3
#: ``associate`` answers per checked corpus state in ``feed-and-jobs``.
FEED_EXACT_READS = 4

_REQUESTS_METRIC = re.compile(r'^cpsec_requests_total\{([^}]*)\} (\S+)$', re.M)
_LABEL = re.compile(r'(\w+)="([^"]*)"')

SYNC_OPS = ("associate", "table1", "chains", "whatif", "recommend")


@dataclass
class Record:
    """One attempted operation as the client saw it."""

    op: Op
    start: float
    end: float
    status: int
    body: bytes
    ok: bool = True
    extra: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0

    def json(self) -> dict:
        return json.loads(self.body)


def percentile(values: list[float], fraction: float) -> float:
    """Inclusive linear-interpolation percentile of ``values``."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def request_bytes(op: Op) -> bytes:
    """The body a request carries (encoded once per op)."""
    if op.encoded is None:
        payload = {"operation": op.kind[4:], "request": op.body} if op.kind.startswith("job:") else op.body
        op.encoded = json.dumps(payload).encode("utf-8")
    return op.encoded


def reference_service(engine: SearchEngine) -> AnalysisService:
    """The service's own operation logic over ``engine``, response cache off."""
    return AnalysisService(
        workspaces={"default": Workspace.from_engine(engine)},
        default_workspace="default",
        save_artifacts=False,
        max_response_cache_entries=0,
        enable_metrics=False,
    )


class Bench:
    """One run of one workload with one seed."""

    def __init__(self, workload: str, seed: int, seconds: float, root: Path, run_dir: Path) -> None:
        self.name = workload
        self.seed = seed
        self.seconds = seconds
        self.root = root
        self.run_dir = run_dir
        self.workers, self.connections, journal = CONFIG[workload]
        self.artifact = run_dir / "served.cpsecws"
        self.journal = run_dir / "jobs.jsonl" if journal else None
        self.workload = Workload(workload, seed)
        self.setups = SETUPS
        self.min_ops = MIN_OPS
        self.workspace: Workspace | None = None
        self.layer_times: dict[str, float] = {}
        #: Server PSS once a second during the measured phase.
        self.pss_samples: list[float] = []

    # -- set-up ---------------------------------------------------------------

    def set_up(self, *, timed_layers: bool = False) -> Server:
        """Synthesize, build and save the artifact; start and warm a server."""
        if timed_layers:
            from repro.corpus.synthesis import build_corpus

            started = time.perf_counter()
            build_corpus(scale=SCALE)
            self.layer_times["corpus.build_s"] = time.perf_counter() - started
        started = time.perf_counter()
        self.workspace = Workspace.build(scale=SCALE)
        built = time.perf_counter()
        self.workspace.save(self.artifact)
        saved = time.perf_counter()
        self.layer_times["workspace.build_s"] = built - started
        self.layer_times["workspace.save_s"] = saved - built
        server = Server(self.root, self.run_dir, self.artifact, workers=self.workers, journal=self.journal)
        server.start()
        try:
            self._warm(server)
        except BaseException:
            server.stop()
            raise
        return server

    def _warm(self, server: Server) -> None:
        """Score the known-attribute pool on every worker.

        A new connection is accepted by whichever worker wins the accept, so
        connections are opened until a ``/metrics`` scrape shows that every
        worker has answered the warm-up requests.
        """
        bodies = [json.dumps({"model": model, "scale": SCALE}).encode() for model in WARM_MODELS]
        for _ in range(64):
            conn = server.connect()
            try:
                for body in bodies:
                    status, data = conn.request("POST", "/v1/associate", body)
                    if status != 200:
                        raise RuntimeError(f"warm-up associate: HTTP {status}: {data[:200]!r}")
                if self.workers == 1:
                    return
                status, data = conn.get("/metrics")
            finally:
                conn.close()
            served: dict[str, float] = {}
            for labels, value in _REQUESTS_METRIC.findall(data.decode()):
                parsed = dict(_LABEL.findall(labels))
                if parsed.get("operation") == "associate" and "worker" in parsed:
                    served[parsed["worker"]] = float(value)
            if len(served) == self.workers and all(v >= len(bodies) for v in served.values()):
                return
        raise RuntimeError("not every worker answered the warm-up")

    # -- the measured phase -----------------------------------------------------

    def measure(self, server: Server) -> tuple[list[Record], float]:
        """Closed loop until ``seconds`` and ``MIN_OPS`` have passed and a
        round has ended."""
        round_length = self.workload.round_length
        lock = threading.Lock()
        state = {"next": 0, "stop": None, "boundary": 0}
        records: list[Record] = []
        started = time.perf_counter()
        deadline = started + self.seconds

        def take() -> Op | None:
            with lock:
                index = state["next"]
                if index % round_length == 0 and index != state["boundary"]:
                    state["boundary"] = index
                    if state["stop"] is None and index >= self.min_ops and time.perf_counter() >= deadline:
                        state["stop"] = index
                if state["stop"] is not None and index >= state["stop"]:
                    return None
                state["next"] = index + 1
                op = self.workload.op(index)
                request_bytes(op)
                return op

        def loop() -> None:
            conn = server.connect()
            try:
                while (op := take()) is not None:
                    records.append(self.execute(conn, op))
            finally:
                conn.close()

        done = threading.Event()

        def sample_pss() -> None:
            pids = server.pids()
            # A phase shorter than the interval still gets one sample.
            while not done.wait(PSS_INTERVAL_S) or not self.pss_samples:
                value, read = pss_mb(pids)
                if read < len(pids):  # a worker was replaced
                    pids = server.pids()
                    value, read = pss_mb(pids)
                self.pss_samples.append(value)

        sampler = threading.Thread(target=sample_pss)
        sampler.start()
        threads = [threading.Thread(target=loop) for _ in range(self.connections)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        done.set()
        sampler.join()
        records.sort(key=lambda record: record.op.index)
        ended = max((record.end for record in records), default=started)
        return records, ended - started

    def execute(self, conn: Connection, op: Op) -> Record:
        """Send one operation and wait for its answer (a job: its result)."""
        body = request_bytes(op) if op.body is not None else None
        extra: dict = {}
        if op.kind in ("extend", "compact"):
            extra["size_before"] = self.artifact.stat().st_size
        started = time.perf_counter()
        try:
            if op.kind in ("metrics", "healthz"):
                status, data = conn.get("/" + op.kind)
            elif op.kind.startswith("job:"):
                status, data = conn.request("POST", "/v1/jobs", body)
                if status == 202:
                    job_id = json.loads(data)["job_id"]
                    conn.await_job(job_id)
                    status, data = conn.get(f"/v1/jobs/{job_id}")
            else:
                status, data = conn.request("POST", f"/v1/{op.kind}", body if body is not None else b"{}")
        except (OSError, http.client.HTTPException, RuntimeError, ValueError, KeyError) as error:
            return Record(op, started, time.perf_counter(), 0, repr(error).encode(), ok=False)
        ended = time.perf_counter()
        if op.kind in ("extend", "compact"):
            extra["size_after"] = self.artifact.stat().st_size
        ok = status == 200
        if ok and op.kind.startswith("job:"):
            ok = json.loads(data).get("state") == "succeeded"
        return Record(op, started, ended, status, data, ok=ok, extra=extra)

    # -- the run ------------------------------------------------------------

    def run(self, *, trace: bool) -> tuple[dict, dict]:
        if trace:
            import layers

            return layers.traced_run(self)
        begun = time.perf_counter()
        setup_samples: list[float] = []
        drains: list[bool] = []
        server = None
        for attempt in range(self.setups):
            # Freeing the previous set-up's workspace is not set-up work.
            self.workspace = None
            gc.collect()
            started = time.perf_counter()
            server = self.set_up()
            setup_samples.append(time.perf_counter() - started)
            if attempt < self.setups - 1:
                drains.append(server.stop())
        report = checks.Report()
        timings = {"setups_s": time.perf_counter() - begun}
        try:
            self.check_table1(server, report)
            pids = server.pids()
            cpu_before = cpu_seconds(pids)
            records, phase_s = self.measure(server)
            cpu_used = cpu_seconds(server.pids()) - cpu_before
            artifact_mb = self.artifact.stat().st_size / 2**20
            final = self.final_state_probe(server)
        finally:
            drains.append(server.stop())
        checking = time.perf_counter()
        self.check(records, report, final)
        timings["checks_s"] = time.perf_counter() - checking
        completed = [record for record in records if record.ok]
        latencies = [record.ms for record in completed]
        associate = [r.ms for r in completed if r.op.kind == "associate" and r.op.repeat_of is None]
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "latency_p50_ms": (statistics.median(latencies), "ms"),
            "latency_p95_ms": (percentile(latencies, 0.95), "ms"),
            "associate_p50_ms": (statistics.median(associate), "ms"),
            "throughput_rps": (len(completed) / phase_s, "1/s"),
            "server_cpu_ms_per_op": (cpu_used * 1000.0 / len(completed), "ms"),
            "server_pss_mb": (statistics.median(self.pss_samples), "MB"),
            "artifact_mb": (artifact_mb, "MB"),
        }
        result = {
            "correct": report.ok,
            "attempted": len(records),
            "failed": len(records) - len(completed),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        details = {
            "workload": self.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "phase_s": phase_s,
            "rounds": len(records) // self.workload.round_length,
            "setup_samples_s": setup_samples,
            "drained_in_time": drains,
            "timings": timings,
            "pss_samples_mb": [round(value, 1) for value in self.pss_samples],
            "tail_supported": len(completed) * 0.05 >= TAIL_OPS,
            "latency_deciles_ms": statistics.quantiles(latencies, n=10) if len(latencies) > 1 else latencies,
            "ops": self.op_summary(records),
            "checks": report.summary(),
            "failures": [
                {"index": r.op.index, "kind": r.op.kind, "status": r.status, "body": r.body[:300].decode("utf-8", "replace")}
                for r in records if not r.ok
            ][:5],
        }
        return result, details

    @staticmethod
    def op_summary(records: list[Record]) -> dict:
        kinds: dict[str, list[float]] = {}
        for record in records:
            label = record.op.kind + (" (repeat)" if record.op.repeat_of is not None else "")
            kinds.setdefault(label, []).append(record.ms)
        return {
            kind: {"count": len(values), "p50_ms": statistics.median(values)}
            for kind, values in sorted(kinds.items())
        }

    # -- checks -------------------------------------------------------------

    def check_table1(self, server: Server, report: checks.Report) -> None:
        conn = server.connect()
        try:
            status, data = conn.post("/v1/table1", {"model": "centrifuge", "scale": SCALE})
        finally:
            conn.close()
        if report.check("table1_shape", status == 200, f"HTTP {status}"):
            checks.table1_shape(report, json.loads(data)["attribute_table"])

    def final_state_probe(self, server: Server) -> bytes | None:
        """After a feed run: the served association of the base centrifuge."""
        if self.name != "feed-and-jobs":
            return None
        conn = server.connect()
        try:
            status, data = conn.post("/v1/associate", {"model": "centrifuge", "scale": SCALE})
        finally:
            conn.close()
        return data if status == 200 else None

    def check(self, records: list[Record], report: checks.Report, final: bytes | None = None) -> None:
        """Every answer against the method's properties; samples exactly."""
        by_index = {record.op.index: record for record in records}
        for record in records:
            if record.ok:
                self.check_properties(record, report, by_index)
        completed = [r for r in records if r.ok]
        if self.name == "feed-and-jobs":
            self.check_feed(completed, report, final)
            return
        reference = reference_service(self.workspace.engine(enable_cache=False))
        sampled = [r for r in completed if r.op.kind in SYNC_OPS and r.op.repeat_of is None]
        stride = max(1, len(sampled) // EXACT_SAMPLES)
        for record in sampled[::stride][:EXACT_SAMPLES]:
            self.compare(reference, record.op.kind, record.op.body, record.body, report, f"op {record.op.index}")
        renamable = [r for r in sampled if r.op.kind in ("associate", "table1")]
        for record in renamable[:: max(1, len(renamable) // RENAME_SAMPLES)][:RENAME_SAMPLES]:
            self.check_renaming(reference, record, report)

    @staticmethod
    def compare(service: AnalysisService, kind: str, body: dict, served: bytes, report: checks.Report, where: str) -> None:
        expected = canonical_json(getattr(service, kind)(parse_request(kind, body)).to_dict()).encode("utf-8")
        report.check("transport_and_cache_equivalence", expected == served, f"{where}: {kind} answer differs")

    @staticmethod
    def check_renaming(service: AnalysisService, record: Record, report: checks.Report) -> None:
        kind = record.op.kind
        renamed = {**record.op.body, "model": checks.renamed_model(record.op.body["model"])}
        answer = getattr(service, kind)(parse_request(kind, renamed)).to_dict()
        served = record.json()
        if kind == "table1":
            same = answer["attribute_table"] == served["attribute_table"]
        else:
            same = checks.component_counts(answer["posture"]) == checks.component_counts(served["posture"])
        report.check("renaming_invariance", same, f"op {record.op.index}: renamed {kind} counts differ")

    def check_properties(self, record: Record, report: checks.Report, by_index: dict) -> None:
        op = record.op
        where = f"op {op.index} ({op.kind})"
        if op.kind == "metrics":
            report.check("well_formed", b"cpsec_requests_total" in record.body, f"{where}: scrape lacks counters")
            return
        try:
            answer = record.json()
        except ValueError:
            report.check("well_formed", False, f"{where}: answer is not JSON")
            return
        if op.repeat_of is not None and op.repeat_of in by_index and by_index[op.repeat_of].ok:
            report.check(
                "response_cache_equivalence",
                record.body == by_index[op.repeat_of].body,
                f"{where}: repeat of op {op.repeat_of} answered differently",
            )
        kind = op.kind[4:] if op.kind.startswith("job:") else op.kind
        if op.kind.startswith("job:"):
            answer = answer.get("result") or {}
        try:
            if kind == "associate":
                checks.posture_totals(report, answer["posture"], answer["severity_histogram"], where)
            elif kind == "whatif":
                checks.whatif_monotone(report, answer["comparison"], op.meta["component"], where)
            elif kind == "chains":
                checks.chains_valid(report, op.body, answer, where)
            elif kind == "simulate":
                checks.simulation_outcome(report, op.body, answer, where)
            elif kind == "consequences":
                checks.consequences_outcome(report, op.body, answer, where)
            elif kind == "table1":
                report.check("well_formed", bool(answer["attribute_table"]), f"{where}: empty table")
            elif kind == "recommend":
                report.check(
                    "well_formed",
                    isinstance(answer["recommendations"], list),
                    f"{where}: no recommendations list",
                )
            elif kind == "healthz":
                report.check("well_formed", answer.get("status") == "ok", f"{where}: status {answer.get('status')}")
        except (KeyError, TypeError) as error:
            report.check("well_formed", False, f"{where}: missing field {error}")

    def check_feed(self, completed: list[Record], report: checks.Report, final: bytes | None) -> None:
        """Extend bookkeeping, exact answers at the first and final corpus
        states, and the final served state against a from-scratch rebuild."""
        base = self.workspace.corpus
        documents = sum(base.counts().values())
        extends = 0
        for record in completed:
            if record.op.kind == "extend":
                answer = record.json()
                extends += 1
                total = sum(answer["total_documents"].values())
                report.check(
                    "extend_bookkeeping",
                    total == documents + record.op.meta["added"],
                    f"op {record.op.index}: {documents} + {record.op.meta['added']} documents became {total}",
                )
                report.check(
                    "extend_bookkeeping",
                    answer["appended_bytes"] == record.extra["size_after"] - record.extra["size_before"] > 0,
                    f"op {record.op.index}: appended {answer['appended_bytes']} bytes, "
                    f"file grew {record.extra['size_after'] - record.extra['size_before']}",
                )
                documents = total
            elif record.op.kind == "compact":
                answer = record.json()
                report.check(
                    "extend_bookkeeping",
                    answer["frames_folded"] == extends
                    and answer["bytes_after"] == record.extra["size_after"]
                    and sum(answer["total_documents"].values()) == documents,
                    f"op {record.op.index}: compact {answer} after {extends} extends",
                )
        batches = [record for record in completed if record.op.kind == "extend"]
        if not report.check("extend_bookkeeping", bool(batches), "no feed batch was ingested"):
            return
        rounds = self.workload.round_length
        last_round = completed[-1].op.index // rounds
        for applied, round_number in ((1, 0), (len(batches), last_round)):
            corpus = CorpusStore()
            corpus.add_all(base.all_records())
            for number in range(applied):
                corpus.add_all(CorpusStore.from_dict(extension_batch(self.seed, number)).all_records())
            reference = reference_service(SearchEngine(corpus, enable_cache=False))
            reads = 0
            for record in completed:
                if record.op.index // rounds != round_number:
                    continue
                kind = record.op.kind[4:] if record.op.kind.startswith("job:") else record.op.kind
                if kind == "associate":
                    reads += 1
                    if reads > FEED_EXACT_READS:
                        continue
                if kind in SYNC_OPS:
                    served = record.body
                    if record.op.kind.startswith("job:"):
                        served = canonical_json(record.json()["result"]).encode("utf-8")
                    self.compare(reference, kind, record.op.body, served, report, f"op {record.op.index}")
            if round_number == last_round:
                report.check("final_state_rebuild", final is not None, "no final associate answer")
                if final is not None:
                    self.compare(reference, "associate", {"model": "centrifuge", "scale": SCALE}, final, report, "final state")
            del reference, corpus
        plain = AnalysisService(save_artifacts=False, max_response_cache_entries=0, enable_metrics=False)
        for kind in ("simulate", "consequences"):
            jobs = [record for record in completed if record.op.kind == f"job:{kind}"]
            for record in jobs[:: max(1, len(jobs) // 2)][:2]:
                served = canonical_json(record.json()["result"]).encode("utf-8")
                self.compare(plain, kind, record.op.body, served, report, f"job op {record.op.index}")
