"""Bit-identity of the event engine against the naive stepper.

The event engine (``SystemConfig.engine="event"``, the default) must
reproduce the reference one-cycle-per-iteration stepper *exactly* — the
whole serialized :class:`RunResult`, including queue occupancy histograms,
rejection counts, the cycle breakdown, FADE wait/drain counters and bug
reports — because it only jumps across provably quiet intervals and runs
every active cycle through the shared reference stepper.
"""

import functools

import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.cores import CoreType
from repro.isa.events import MonitoredEvent
from repro.isa.instruction import Instruction
from repro.monitors import MONITOR_NAMES, create_monitor
from repro.system import SystemConfig, Topology, simulate
from repro.system.simulator import simulate_warmed
from repro.workload import generate_trace, get_profile


@functools.lru_cache(maxsize=None)
def cached_trace(benchmark, n=1500, seed=11):
    return generate_trace(get_profile(benchmark), n, seed=seed)


def bench_for(monitor_name):
    return "water" if monitor_name == "atomcheck" else "astar"


ENGINES = ("naive", "event")


def run_engines(
    monitor_name, benchmark, n=1500, seed=11, warmup=0.0,
    engines=ENGINES, **config_kwargs
):
    profile = get_profile(benchmark)
    trace = cached_trace(benchmark, n, seed)
    results = {}
    for engine in engines:
        config = SystemConfig(engine=engine, **config_kwargs)
        monitor = create_monitor(monitor_name)
        if warmup:
            result = simulate_warmed(
                trace, monitor, config, profile, warmup_fraction=warmup
            )
        else:
            result = simulate(trace, monitor, config, profile)
        results[engine] = result
    return results


def assert_engines_identical(results):
    reference = results["naive"].to_dict()
    for engine, result in results.items():
        assert result.to_dict() == reference, f"engine {engine!r} diverges"


def run_both(monitor_name, benchmark, **kwargs):
    results = run_engines(monitor_name, benchmark, **kwargs)
    return results["naive"], results["event"]


MODES = [
    pytest.param({"fade_enabled": False}, id="unaccelerated"),
    pytest.param({"fade_enabled": True, "non_blocking": False}, id="blocking-fade"),
    pytest.param({"fade_enabled": True, "non_blocking": True}, id="non-blocking-fade"),
]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "topology", [Topology.SINGLE_CORE_SMT, Topology.TWO_CORE],
    ids=["smt", "two-core"],
)
@pytest.mark.parametrize("monitor_name", MONITOR_NAMES)
def test_engines_bit_identical(monitor_name, topology, mode):
    """Monitors x topologies x blocking modes: full RunResult equality.

    The event engine runs with burst draining and the two-level filter
    memo enabled, the naive reference with both disabled, so this matrix
    proves the fused-memoized paths bit-identical to truly inline walks.
    """
    naive, event = run_both(
        monitor_name, bench_for(monitor_name), topology=topology, **mode
    )
    assert naive.to_dict() == event.to_dict()


# ---------------------------------------------------- burst-drain x memo


@pytest.mark.parametrize(
    "config_kwargs",
    [
        pytest.param(
            {"fade_enabled": True, "event_queue_capacity": 2},
            id="saturated-event-queue",
        ),
        pytest.param(
            {
                "fade_enabled": True,
                "topology": Topology.TWO_CORE,
                "event_queue_capacity": 4,
                "unfiltered_queue_capacity": 2,
            },
            id="two-core-tight-queues",
        ),
        pytest.param(
            {
                "fade_enabled": True,
                "non_blocking": False,
                "event_queue_capacity": 4,
            },
            id="blocking-backpressure",
        ),
        pytest.param(
            {"fade_enabled": True, "burst_gap_threshold": 1},
            id="tiny-burst-gap",
        ),
    ],
)
@pytest.mark.parametrize("monitor_name", ["memcheck", "atomcheck", "memleak"])
def test_burst_drain_memo_corners(monitor_name, config_kwargs):
    """Backpressure, blocking and burst-tracking corners of the fused
    windows: blocked-application marching, freeze/retry cycles, in-window
    unfiltered continuation, run-length gap accounting."""
    naive, event = run_both(
        monitor_name, bench_for(monitor_name), **config_kwargs
    )
    assert naive.to_dict() == event.to_dict()


def test_force_inline_event_engine_matches(monkeypatch):
    """REPRO_FORCE_INLINE_FADE=1 disables the memo and burst draining; the
    event engine must still match both the naive reference and its own
    fused-memoized results (the CI fallback-rot check)."""
    import repro.system.simulator as simulator_module

    fused_naive, fused_event = run_both("memcheck", "astar", fade_enabled=True)
    monkeypatch.setenv("REPRO_FORCE_INLINE_FADE", "1")
    simulator_module.fusion_stats.reset()
    inline_naive, inline_event = run_both(
        "memcheck", "astar", fade_enabled=True
    )
    assert simulator_module.fusion_stats.runs == 0  # Fusion really off.
    assert inline_event.to_dict() == inline_naive.to_dict()
    assert inline_event.to_dict() == fused_event.to_dict()
    assert fused_naive.to_dict() == fused_event.to_dict()


def test_memo_unsafe_monitor_falls_back_to_inline(monkeypatch):
    """A monitor that declares ``filter_memo_safe = False`` runs the inline
    per-event path (no fused windows), and stays bit-identical."""
    import repro.system.simulator as simulator_module
    from repro.monitors import create_monitor
    from repro.workload import generate_trace, get_profile

    profile = get_profile("astar")
    trace = cached_trace("astar")
    results = {}
    for engine in ENGINES:
        monitor = create_monitor("memcheck")
        monkeypatch.setattr(type(monitor), "filter_memo_safe", False)
        simulator_module.fusion_stats.reset()
        result = simulate(
            trace, monitor, SystemConfig(fade_enabled=True, engine=engine),
            profile,
        )
        assert simulator_module.fusion_stats.runs == 0
        results[engine] = result.to_dict()
    assert results["naive"] == results["event"]


@pytest.mark.parametrize(
    "config_kwargs",
    [
        pytest.param(
            {"core_type": CoreType.INORDER, "fade_enabled": False},
            id="inorder-unaccelerated",
        ),
        pytest.param(
            {"core_type": CoreType.OOO2, "fade_enabled": True}, id="ooo2-fade"
        ),
        pytest.param(
            {
                "fade_enabled": True,
                "event_queue_capacity": 4,
                "unfiltered_queue_capacity": 2,
            },
            id="tight-queues",
        ),
        pytest.param(
            {"fade_enabled": True, "event_queue_capacity": None},
            id="infinite-queue",
        ),
        pytest.param(
            {"fade_enabled": True, "stack_update_drain": False}, id="no-drain"
        ),
        pytest.param(
            {"fade_enabled": True, "sample_queue_occupancy": False},
            id="no-sampling",
        ),
        pytest.param(
            {"fade_enabled": True, "non_blocking": False, "fsq_capacity": 4},
            id="blocking-small-fsq",
        ),
    ],
)
def test_engines_bit_identical_config_corners(config_kwargs):
    """Backpressure-heavy and ablation configurations (gcc is call-heavy,
    exercising the SUU drain and blocked-application paths)."""
    naive, event = run_both("memleak", "gcc", **config_kwargs)
    assert naive.to_dict() == event.to_dict()


def test_engines_agree_on_cycle_limit():
    """Every engine raises the cycle-limit error for the same configuration."""
    for engine in ENGINES:
        config = SystemConfig(fade_enabled=False, max_cycles=50, engine=engine)
        with pytest.raises(SimulationError):
            simulate(
                cached_trace("astar"),
                create_monitor("memcheck"),
                config,
                get_profile("astar"),
            )


# ------------------------------------------------- unaccelerated window


@pytest.mark.parametrize("warmup", [0.0, 0.5], ids=["cold", "warmed"])
@pytest.mark.parametrize(
    "capacity", [1, 32, None], ids=["eq1", "eq32", "eq-infinite"]
)
@pytest.mark.parametrize(
    "topology", [Topology.SINGLE_CORE_SMT, Topology.TWO_CORE],
    ids=["smt", "two-core"],
)
@pytest.mark.parametrize("monitor_name", MONITOR_NAMES)
def test_unaccelerated_window_bit_identical(
    monitor_name, topology, capacity, warmup
):
    """The inline unaccelerated window against the naive stepper: every
    monitor, both topologies, a one-entry queue (blocked on almost every
    delivery), the default queue and an infinite one (never blocked)."""
    naive, event = run_both(
        monitor_name,
        bench_for(monitor_name),
        warmup=warmup,
        fade_enabled=False,
        topology=topology,
        event_queue_capacity=capacity,
    )
    assert naive.to_dict() == event.to_dict()


@pytest.mark.parametrize("capacity", [32, None], ids=["eq32", "eq-infinite"])
def test_unaccelerated_zero_cost_handler_chains(capacity):
    """AtomCheck on mcf queues zero-cost handlers, so one cycle completes
    and dispatches several handlers with the budget carried over."""
    naive, event = run_both(
        "atomcheck", "mcf", n=900, seed=21, warmup=0.5,
        fade_enabled=False, event_queue_capacity=capacity,
    )
    assert naive.to_dict() == event.to_dict()


@pytest.mark.parametrize(
    "topology", [Topology.SINGLE_CORE_SMT, Topology.TWO_CORE],
    ids=["smt", "two-core"],
)
def test_unaccelerated_cycle_limit_parity(topology):
    """A limit one cycle short of the run trips on both engines with the
    same error; a limit equal to the run's length trips on neither; a
    limit inside a quiet span trips on both."""
    trace = cached_trace("astar")
    profile = get_profile("astar")

    def outcome(engine, max_cycles):
        config = SystemConfig(
            fade_enabled=False, topology=topology, engine=engine,
            max_cycles=max_cycles,
        )
        try:
            result = simulate(trace, create_monitor("memcheck"), config, profile)
        except SimulationError as error:
            return str(error)
        return result.to_dict()

    cycles = int(outcome("naive", 10**9)["cycles"])
    for max_cycles in (1, 7, cycles // 2, cycles - 1, cycles):
        assert outcome("event", max_cycles) == outcome("naive", max_cycles)
    assert isinstance(outcome("event", cycles - 1), str)
    assert isinstance(outcome("event", cycles), dict)


@pytest.mark.parametrize(
    "capacity", [1, 32], ids=["eq1", "eq32"]
)
@pytest.mark.parametrize("monitor_name", ["memcheck", "memleak"])
def test_unaccelerated_checkpoints_match_naive_and_resume(
    monitor_name, capacity
):
    """Checkpoints of an unaccelerated event run fire at the naive
    stepper's positions with its exact state (the window returns at each
    threshold), and a fresh simulation restored from any of them finishes
    with the monolithic result."""
    import pickle

    from repro.system.simulator import MonitoringSimulation

    benchmark = bench_for(monitor_name)
    trace = cached_trace(benchmark)
    profile = get_profile(benchmark)
    warmup_items = len(trace.items) // 4

    def build(engine):
        config = SystemConfig(
            fade_enabled=False, engine=engine, event_queue_capacity=capacity
        )
        return MonitoringSimulation(
            trace, create_monitor(monitor_name), config, profile, warmup_items
        )

    snapshots = {}
    finals = {}
    for engine in ENGINES:
        sim = build(engine)
        taken = snapshots[engine] = []
        sim.configure_checkpoints(
            150, lambda s: taken.append(pickle.dumps(s.snapshot()))
        )
        finals[engine] = sim.run().to_dict()
    assert finals["event"] == finals["naive"]
    assert len(snapshots["event"]) >= 3
    for event_blob, naive_blob in zip(snapshots["event"], snapshots["naive"]):
        event_state = pickle.loads(event_blob)
        naive_state = pickle.loads(naive_blob)
        assert event_state.pop("engine") == "event"
        assert naive_state.pop("engine") == "naive"
        assert event_state == naive_state
    assert len(snapshots["event"]) == len(snapshots["naive"])
    for blob in snapshots["event"]:
        resumed = build("event")
        resumed.restore(pickle.loads(blob), owned=True)
        assert resumed.run().to_dict() == finals["event"]


def test_unknown_engine_rejected():
    with pytest.raises(ConfigurationError):
        SystemConfig(engine="warp-drive")


def test_removed_vector_engine_rejected(capsys):
    """The removed NumPy tier is refused on every path that names an engine:
    the config itself, the campaign-YAML field parser, and the CLI."""
    from repro.api.spec import config_from_fields
    from repro.cli import build_parser

    with pytest.raises(ConfigurationError, match="'naive' or 'event'"):
        SystemConfig(engine="vector")
    assert config_from_fields({"engine": "event"}).engine == "event"
    for name in ("vector", "vec", "vectorized"):
        with pytest.raises(ConfigurationError, match="'naive' or 'event'"):
            config_from_fields({"engine": name})
    with pytest.raises(SystemExit) as refused:
        build_parser().parse_args(["run", "--engine", "vector"])
    assert refused.value.code == 2
    assert "invalid choice: 'vector'" in capsys.readouterr().err


def test_store_keys_separate_engines():
    """The engine is part of a spec's content key, so a result cached
    under one engine never answers a lookup for another."""
    from repro.api import RunSpec
    from repro.api.store import content_key

    event_spec = RunSpec("astar", "memcheck", SystemConfig(engine="event"))
    naive_spec = event_spec.replace(config=SystemConfig(engine="naive"))
    assert content_key(event_spec) != content_key(naive_spec)


# ------------------------------------------------------- simulate_warmed


@pytest.mark.parametrize("monitor_name", MONITOR_NAMES)
def test_simulate_warmed_engines_bit_identical(monitor_name):
    """The timed region after functional warmup matches bit-for-bit on
    every registered monitor."""
    naive, event = run_both(
        monitor_name, bench_for(monitor_name), warmup=0.5, fade_enabled=True
    )
    assert naive.to_dict() == event.to_dict()


@pytest.mark.parametrize("fade_enabled", [False, True])
def test_simulate_warmed_excludes_warmup_region_counts(fade_enabled):
    """Reported event/instruction counts cover only the timed region."""
    benchmark = "astar"
    profile = get_profile(benchmark)
    trace = cached_trace(benchmark)
    warmup_items = int(len(trace.items) * 0.5)
    monitor = create_monitor("memleak")
    result = simulate_warmed(
        trace,
        monitor,
        SystemConfig(fade_enabled=fade_enabled),
        profile,
        warmup_fraction=0.5,
    )

    # Recompute the timed region's composition directly from the trace.
    classifier = create_monitor("memleak")
    instructions = monitored = stack = high = 0
    for index in range(warmup_items, len(trace.items)):
        item = trace.items[index]
        if isinstance(item, Instruction):
            instructions += 1
            if classifier.wants(item):
                event = MonitoredEvent.from_instruction(item, sequence=index)
                if event.is_stack_update:
                    stack += 1
                else:
                    monitored += 1
        else:
            high += 1

    assert result.instructions == instructions
    assert result.monitored_events == monitored
    assert result.stack_update_events == stack
    assert result.high_level_events == high
    assert result.baseline_cycles > 0
    assert result.baseline_cycles < trace.num_instructions * 10


class TestSegmentedStitching:
    """Segmented execution (repro.api.segments) must stitch to results
    bit-identical to the monolithic run, per engine, across the edge
    geometries: warmed runs, single-instruction segments, K far beyond the
    trace length, and a cycle limit that trips mid-segment."""

    def _spec(
        self, engine, n=1500, warmup=0.5, max_cycles=None,
        monitor_name="addrcheck", **config_kwargs
    ):
        from repro.api import ExperimentSettings, RunSpec

        config_kwargs["engine"] = engine
        if max_cycles is not None:
            config_kwargs["max_cycles"] = max_cycles
        return RunSpec(
            "astar",
            monitor_name,
            SystemConfig(**config_kwargs),
            ExperimentSettings(
                num_instructions=n, seed=11, warmup_fraction=warmup
            ),
        )

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("segments", (2, 3, 7))
    def test_segmented_matches_monolithic(self, engine, segments):
        from repro.api.cache import RunnerCache
        from repro.api.runner import execute_spec
        from repro.api.segments import run_segmented

        cache = RunnerCache()
        spec = self._spec(engine)
        mono = execute_spec(spec, cache).to_dict()
        seg = run_segmented(spec, cache, segments=segments)
        assert seg.to_dict() == mono

    @pytest.mark.parametrize("segments", (2, 4))
    @pytest.mark.parametrize("monitor_name", ["addrcheck", "taintcheck"])
    def test_unaccelerated_segmented_matches_monolithic(
        self, monitor_name, segments
    ):
        from repro.api.cache import RunnerCache
        from repro.api.runner import execute_spec
        from repro.api.segments import run_segmented

        cache = RunnerCache()
        spec = self._spec(
            "event", monitor_name=monitor_name, fade_enabled=False
        )
        mono = execute_spec(spec, cache).to_dict()
        assert run_segmented(spec, cache, segments=segments).to_dict() == mono

    @pytest.mark.parametrize("engine", ENGINES)
    def test_more_segments_than_instructions(self, engine):
        # K far beyond the timed instruction count degenerates to
        # single-instruction segments (one seam per plan boundary), and
        # must still stitch exactly.
        from repro.api.cache import RunnerCache
        from repro.api.runner import execute_spec
        from repro.api.segments import run_segmented

        cache = RunnerCache()
        spec = self._spec(engine, n=120, warmup=0.0)
        mono = execute_spec(spec, cache).to_dict()
        seg = run_segmented(spec, cache, segments=10_000)
        assert seg.to_dict() == mono

    def test_unwarmed_run_segments(self):
        from repro.api.cache import RunnerCache
        from repro.api.runner import execute_spec
        from repro.api.segments import run_segmented

        cache = RunnerCache()
        spec = self._spec("event", warmup=0.0)
        mono = execute_spec(spec, cache).to_dict()
        assert run_segmented(spec, cache, segments=4).to_dict() == mono

    def test_heavily_warmed_run_segments(self):
        from repro.api.cache import RunnerCache
        from repro.api.runner import execute_spec
        from repro.api.segments import run_segmented

        cache = RunnerCache()
        spec = self._spec("event", warmup=0.9)
        mono = execute_spec(spec, cache).to_dict()
        assert run_segmented(spec, cache, segments=3).to_dict() == mono

    @pytest.mark.parametrize("engine", ENGINES)
    def test_cycle_limit_trips_identically(self, engine):
        # A cycle limit that the monolithic run trips must trip in the
        # segmented run too — at the same cycle, regardless of which
        # segment is executing when the budget runs out.
        from repro.api.cache import RunnerCache
        from repro.api.runner import execute_spec
        from repro.api.segments import run_segmented

        cache = RunnerCache()
        spec = self._spec(engine, max_cycles=50)
        with pytest.raises(SimulationError) as mono_error:
            execute_spec(spec, cache)
        with pytest.raises(SimulationError) as seg_error:
            run_segmented(spec, cache, segments=3)
        assert str(seg_error.value) == str(mono_error.value)
