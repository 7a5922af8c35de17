"""The benchmark's two workloads: their specs, one timed round each, and
the checks on their outputs.

Every workload is a fixed list of :class:`RunSpec` derived from a seed
slot, so its results hash to one digest per slot (recorded in
``digests/<workload>.json``).  A run repeats the workload in rounds, each
from a cold state: a fresh runner and empty store for the grid, a fresh
server, store and worker pool for the service.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import random
import time
from typing import Dict, List, Optional, Sequence

from repro.analysis.experiments import benchmarks_for
from repro.api.runner import SerialRunner
from repro.api.spec import ExperimentSettings, RunSpec
from repro.api.store import ResultStore
from repro.checkpoint.runtime import (
    install_checkpoint_runtime,
    uninstall_checkpoint_runtime,
)
from repro.monitors import MONITOR_NAMES
from repro.service.client import ServiceClient
from repro.service.server import CampaignServer
from repro.system.config import SystemConfig
from repro.system.results import RunResult
from repro.verify.oracle import result_digest

from tracing import CELL_SPAN, Tracer, load_worker_dumps

#: ``--seed n`` selects input slot ``n % SEED_SLOTS``; every slot has a
#: recorded digest, so every seed is checked against a known answer.
SEED_SLOTS = 32
TRACE_SEED_BASE = 1000

DIGEST_DIR = pathlib.Path(__file__).resolve().parent / "digests"

FIG9_INSTRUCTIONS = 12_000
SERVICE_INSTRUCTIONS = 6_000
SERVICE_NEW_PER_REQUEST = 3
SERVICE_WORKERS = 2
SERVICE_CHECKPOINT_EVERY = 1500
SERVICE_SAMPLE_CHECKS = 3

FIG9_CONFIGS = (
    SystemConfig(fade_enabled=False),
    SystemConfig(fade_enabled=True, non_blocking=True),
)


def digest_of(results: Sequence[RunResult]) -> str:
    """One hash over the results' ``result_digest``s, in spec order."""
    joined = "\n".join(result_digest(result) for result in results)
    return hashlib.sha256(joined.encode()).hexdigest()


def recorded_digest(workload: str, slot: int) -> Optional[str]:
    path = DIGEST_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(str(slot))


def _settings(instructions: int, slot: int, offset: int = 0) -> ExperimentSettings:
    return ExperimentSettings(
        num_instructions=instructions, seed=TRACE_SEED_BASE + 2 * slot + offset
    )


def fig9_specs(slot: int) -> List[RunSpec]:
    """Figure 9's grid: every monitor x its benchmarks x {unaccelerated,
    non-blocking FADE}, monitor-major like ``fig9_results``."""
    settings = _settings(FIG9_INSTRUCTIONS, slot)
    return [
        RunSpec(benchmark, monitor, config, settings)
        for monitor in MONITOR_NAMES
        for benchmark in benchmarks_for(monitor)
        for config in FIG9_CONFIGS
    ]


def service_plan(slot: int):
    """(fixtures, requests).  The new specs are Figure 9's 66 cells at
    n=6k, three per request in grid order, so every slot does the same
    mix of work in the same groups; each request starts with one of five
    pre-filled fixtures (one per monitor, on another trace seed) that the
    store serves warm.  The slot picks the trace seeds and the order of
    the requests."""
    fixtures = [
        RunSpec(benchmarks_for(monitor)[0], monitor, FIG9_CONFIGS[1],
                _settings(SERVICE_INSTRUCTIONS, slot, 1))
        for monitor in MONITOR_NAMES
    ]
    fresh = [
        spec.replace(settings=_settings(SERVICE_INSTRUCTIONS, slot))
        for spec in fig9_specs(slot)
    ]
    requests = []
    for index in range(len(fresh) // SERVICE_NEW_PER_REQUEST):
        start = index * SERVICE_NEW_PER_REQUEST
        batch = [fixtures[index % len(fixtures)]]
        batch += fresh[start:start + SERVICE_NEW_PER_REQUEST]
        requests.append(batch)
    random.Random(f"service-mixed/{slot}").shuffle(requests)
    return fixtures, requests


class Round:
    """What one timed round measured and produced."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.wall_s = 0.0
        self.traced = False
        self.computed: List[RunResult] = []  # Timed, simulated results.
        self.computed_latency: List[float] = []
        self.warm_latency: List[float] = []
        self.accept_latency: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.spans: List[dict] = []
        self.cache_stats: Dict[str, int] = {}
        self.store_stats: Dict[str, object] = {}
        self.server_stats: Dict[str, object] = {}
        self.checkpoint_bytes = 0

    @property
    def instructions(self) -> int:
        return sum(result.instructions for result in self.computed)


class GridWorkload:
    """Figure 9's grid run through a fresh ``SerialRunner`` and empty
    ``ResultStore``."""

    name = "fig9-cold"

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.specs = fig9_specs(slot)
        self.expected = recorded_digest(self.name, slot)

    def setup_round(self, workdir: pathlib.Path):
        store = ResultStore(workdir / "store")
        return SerialRunner(store=store)

    def run_round(self, runner: SerialRunner, tracer: Tracer, out: Round) -> None:
        root = tracer.open("round")
        start = time.perf_counter()
        results = runner.run(self.specs).results
        out.wall_s = time.perf_counter() - start
        tracer.close(root)
        # A grid is one request: each cell's latency runs from submitting
        # the grid to that cell's result, as for a service spec.
        out.computed_latency = [
            span.end - start for span in tracer.spans if span.name == CELL_SPAN
        ]
        out.computed = list(results)
        out.cache_stats = runner.cache.stats()
        out.store_stats = runner.store.stats()
        out.attempted = len(self.specs)
        digest = digest_of(results)
        if self.expected is None:
            out.errors.append(f"no recorded digest for {self.name} slot {self.slot}")
            out.failed += len(self.specs)
        elif digest != self.expected:
            out.errors.append(
                f"digest {digest[:16]} != recorded {self.expected[:16]}"
            )
            out.failed += len(self.specs)

    def teardown_round(self, runner: SerialRunner, out: Round) -> None:
        runner.store.close()

    def all_specs(self) -> List[RunSpec]:
        return list(self.specs)

    def final_checks(self, rounds: List[Round]) -> List[str]:
        return []


class ServiceWorkload:
    """A closed loop (one client, no think time) against an in-process
    ``CampaignServer`` on a Unix socket with a SQLite store, two fork
    workers and mid-run checkpoints."""

    name = "service-mixed"

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.fixtures, self.requests = service_plan(slot)
        self.fixture_keys = set(self.fixtures)
        self.expected = recorded_digest(self.name, slot)
        self._last_results: Dict[RunSpec, RunResult] = {}

    def setup_round(self, workdir: pathlib.Path):
        store = ResultStore(workdir / "results.db")
        SerialRunner(store=store).run(self.fixtures)
        checkpoints = install_checkpoint_runtime(
            workdir / "checkpoints.db", SERVICE_CHECKPOINT_EVERY
        )
        # A relative socket path keeps clear of the 108-byte sun_path limit
        # however deep the checkout sits.
        socket_path = os.path.relpath(workdir / "serve.sock")
        server = CampaignServer(
            store=store, workers=SERVICE_WORKERS, socket_path=socket_path
        )
        address = server.start_background()
        return {
            "server": server,
            "client": ServiceClient(address, timeout=120.0),
            "checkpoints": checkpoints,
            "workdir": workdir,
        }

    def run_round(self, state, tracer: Tracer, out: Round) -> None:
        client: ServiceClient = state["client"]
        ordered: List[Optional[RunResult]] = []
        root = tracer.open("round")
        start = time.perf_counter()
        for batch in self.requests:
            results: List[Optional[RunResult]] = [None] * len(batch)
            request = tracer.open("service.request")
            sent = time.perf_counter()
            accept = tracer.open("service.accept")
            for event in client.submit(batch):
                now = time.perf_counter()
                kind = event.get("event")
                if kind == "accepted":
                    tracer.close(accept)
                    out.accept_latency.append(now - sent)
                elif kind == "spec":
                    self._on_spec(event, batch, results, now - sent, out)
            tracer.close(request)
            ordered.extend(results)
        out.wall_s = time.perf_counter() - start
        tracer.close(root)
        out.server_stats = client.stats()
        out.store_stats = out.server_stats.get("store") or {}
        out.attempted = len(ordered)
        missing = sum(1 for result in ordered if result is None)
        if missing:
            out.errors.append(f"{missing} spec(s) got no result")
            out.failed += missing
            return
        digest = digest_of(ordered)
        if self.expected is None:
            out.errors.append(f"no recorded digest for {self.name} slot {self.slot}")
            out.failed += len(ordered)
        elif digest != self.expected:
            out.errors.append(
                f"digest {digest[:16]} != recorded {self.expected[:16]}"
            )
            out.failed += len(ordered)
        self._last_results = dict(zip(self.all_specs(), ordered))

    def _on_spec(self, event, batch, results, latency, out: Round) -> None:
        index = int(event["index"])
        spec = batch[index]
        status = event.get("status")
        expected = "warm" if spec in self.fixture_keys else "computed"
        if status != expected:
            out.errors.append(
                f"{spec.describe()}: status {status!r}, expected {expected!r}"
                + (f" ({event.get('error')})" if status == "error" else "")
            )
            out.failed += 1
            return
        result = RunResult.from_dict(event["result"])
        results[index] = result
        if status == "warm":
            out.warm_latency.append(latency)
        else:
            out.computed_latency.append(latency)
            out.computed.append(result)

    def teardown_round(self, state, out: Round) -> None:
        server: CampaignServer = state["server"]
        server.stop_background()
        uninstall_checkpoint_runtime()
        dumps = load_worker_dumps(str(state["workdir"]))
        for dump in dumps:
            out.spans.extend(dump["spans"])
            for key, value in dump["cache_stats"].items():
                out.cache_stats[key] = out.cache_stats.get(key, 0) + value
            out.checkpoint_bytes = max(out.checkpoint_bytes, dump["ckpt_peak_bytes"])
        state["checkpoints"].close()

    def all_specs(self) -> List[RunSpec]:
        return [spec for batch in self.requests for spec in batch]

    def final_checks(self, rounds: List[Round]) -> List[str]:
        """Recompute a sample of served specs in-process with
        ``execute_spec`` and compare digests with what the server sent."""
        from repro.api.runner import execute_spec

        if not self._last_results:
            return ["no complete round to sample"]
        computed = [s for s in self.all_specs() if s not in self.fixture_keys]
        rng = random.Random(f"service-sample/{self.slot}")
        sample = rng.sample(computed, SERVICE_SAMPLE_CHECKS - 1)
        sample.append(rng.choice(self.fixtures))
        errors = []
        for spec in sample:
            local = execute_spec(spec)
            if result_digest(local) != result_digest(self._last_results[spec]):
                errors.append(f"served result differs from execute_spec: {spec.describe()}")
        return errors


def make_workload(name: str, slot: int):
    if name == "service-mixed":
        return ServiceWorkload(slot)
    return GridWorkload(slot)
