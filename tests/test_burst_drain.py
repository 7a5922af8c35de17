"""Unit tests for the burst-drain support machinery: bulk filtered-run
tracking, the per-word/per-owner FSQ, the value-keyed filter memo, and the
fusion telemetry."""

import random

import pytest

from repro.common.units import WORD_SIZE
from repro.fade.accelerator import Fade, FadeConfig
from repro.fade.fsq import FilterStoreQueue
from repro.isa.events import MonitoredEvent
from repro.isa.opcodes import OpClass, event_id_for
from repro.metadata.shadow import EXTENT_MIN_WORDS
from repro.monitors import MONITOR_NAMES, create_monitor
from repro.monitors.memcheck import INIT, UNINIT
from repro.system import SystemConfig
from repro.system.simulator import MonitoringSimulation, fusion_stats
from repro.workload import generate_trace, get_profile


# ------------------------------------------------- bulk _track_filtering


class _TrackerHarness:
    """A MonitoringSimulation shell exposing only the filtering tracker."""

    def __init__(self):
        sim = object.__new__(MonitoringSimulation)
        sim.config = SystemConfig()
        sim.result = type("R", (), {})()
        from collections import Counter

        sim.result.unfiltered_distances = Counter()
        sim.result.unfiltered_burst_sizes = []
        sim._filterable_gap = 0
        sim._current_burst = 0
        sim._saw_unfiltered = False
        self.sim = sim

    def finish(self):
        self.sim._finish_burst()
        return (
            dict(self.sim.result.unfiltered_distances),
            list(self.sim.result.unfiltered_burst_sizes),
        )


@pytest.mark.parametrize("seed", [3, 17, 99])
def test_bulk_track_filtering_matches_per_event(seed):
    """A fused run of K filtered events accrued in one call produces the
    exact histograms of K single-event calls, on randomized sequences."""
    rng = random.Random(seed)
    sequence = [rng.random() < 0.8 for _ in range(4000)]  # True = filtered.

    per_event = _TrackerHarness()
    for filtered in sequence:
        per_event.sim._track_filtering(filtered)

    bulk = _TrackerHarness()
    run = 0
    for filtered in sequence:
        if filtered:
            run += 1
            continue
        if run:
            bulk.sim._track_filtering(True, run)
            run = 0
        bulk.sim._track_filtering(False)
    if run:
        bulk.sim._track_filtering(True, run)

    assert per_event.finish() == bulk.finish()


# ------------------------------------------------------------------- FSQ


class _ReferenceFsq:
    """The original list-scan FSQ semantics, as an oracle."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = []
        self.inserts = 0
        self.hits = 0
        self.max_occupancy = 0

    def insert(self, word, value, owner):
        assert len(self.entries) < self.capacity
        self.entries.append((word, value, owner))
        self.inserts += 1
        self.max_occupancy = max(self.max_occupancy, len(self.entries))

    def lookup(self, word):
        for entry_word, value, _ in reversed(self.entries):
            if entry_word == word:
                self.hits += 1
                return value
        return None

    def release(self, owner):
        kept = [e for e in self.entries if e[2] != owner]
        released = len(self.entries) - len(kept)
        self.entries = kept
        return released


@pytest.mark.parametrize("seed", [1, 5, 23])
def test_fsq_randomized_against_reference(seed):
    """Interleaved insert/lookup/release streams match the reference
    linear-scan implementation, statistics included."""
    rng = random.Random(seed)
    fsq = FilterStoreQueue(capacity=8)
    ref = _ReferenceFsq(capacity=8)
    words = [0x100, 0x104, 0x108, 0x10C]
    owners = list(range(6))
    for _ in range(3000):
        op = rng.random()
        if op < 0.4 and len(fsq) < 8:
            word = rng.choice(words)
            value = rng.randrange(256)
            owner = rng.choice(owners)
            fsq.insert(word, value, owner)
            ref.insert(word, value, owner)
        elif op < 0.8:
            word = rng.choice(words)
            assert fsq.lookup(word) == ref.lookup(word)
        else:
            owner = rng.choice(owners)
            assert fsq.release(owner) == ref.release(owner)
        assert len(fsq) == len(ref.entries)
        assert fsq.is_full == (len(ref.entries) >= 8)
    assert fsq.inserts == ref.inserts
    assert fsq.hits == ref.hits
    assert fsq.max_occupancy == ref.max_occupancy


# --------------------------------------------------------------- MD cache


@pytest.mark.parametrize("seed", [7, 42])
def test_access_cycles_mirrors_access(seed):
    """``MetadataCache.access_cycles`` inlines the TLB and cache bodies for
    the memo replay path; this oracle pins the duplication — any future
    edit to ``Tlb.access``/``Cache.access`` that is not mirrored there
    fails here, before it can skew replayed timing."""
    from repro.fade.md_cache import MetadataCache

    rng = random.Random(seed)
    inlined = MetadataCache()
    reference = MetadataCache()
    addresses = [rng.randrange(0, 1 << 20) for _ in range(200)]
    for _ in range(5000):
        address = rng.choice(addresses)
        cycles, tlb_miss = inlined.access_cycles(address)
        result = reference.access(address)
        assert (cycles, tlb_miss) == (result.cycles, result.tlb_miss)
    for stats in ("cache_stats", "tlb_stats"):
        assert vars(getattr(inlined, stats)) == vars(getattr(reference, stats))


# ------------------------------------------------------------ filter memo


def _mirrored_fades(monitor_name="memcheck", non_blocking=True):
    """Two identically-programmed FADE instances, one memoized, one inline."""
    fades = []
    for memo in (True, False):
        monitor = create_monitor(monitor_name)
        fades.append(
            Fade(
                program=monitor.fade_program(),
                md_registers=monitor.critical_regs,
                md_memory=monitor.critical_mem,
                config=FadeConfig(non_blocking=non_blocking, filter_memo=memo),
            )
        )
    return fades


def _random_event(rng, sequence):
    kind = rng.random()
    if kind < 0.4:  # Load.
        return MonitoredEvent(
            event_id=event_id_for(OpClass.LOAD, 1),
            app_pc=rng.randrange(1 << 20),
            app_addr=rng.choice([0x1000, 0x1004, 0x2000, 0x2040]),
            dest_reg=rng.randrange(8),
            sequence=sequence,
        )
    if kind < 0.7:  # Store.
        return MonitoredEvent(
            event_id=event_id_for(OpClass.STORE, 1),
            app_pc=rng.randrange(1 << 20),
            app_addr=rng.choice([0x1000, 0x1004, 0x2000, 0x2040]),
            src1_reg=rng.randrange(8),
            sequence=sequence,
        )
    return MonitoredEvent(  # Two-source ALU.
        event_id=event_id_for(OpClass.ALU, 2),
        app_pc=rng.randrange(1 << 20),
        src1_reg=rng.randrange(8),
        src2_reg=rng.randrange(8),
        dest_reg=rng.randrange(8),
        sequence=sequence,
    )


@pytest.mark.parametrize("non_blocking", [True, False])
@pytest.mark.parametrize("seed", [2, 13])
def test_memoized_pipeline_matches_inline(seed, non_blocking, monkeypatch):
    """Randomized events interleaved with metadata writes, SUU-style range
    fills, INV reprogramming and handler completions: the memoized pipeline
    produces bit-identical outcomes and MD-cache/TLB statistics."""
    monkeypatch.delenv("REPRO_FORCE_INLINE_FADE", raising=False)
    rng = random.Random(seed)
    memoized, inline = _mirrored_fades(non_blocking=non_blocking)
    outstanding = []
    for sequence in range(2500):
        roll = rng.random()
        if roll < 0.08:
            # Critical-metadata churn through the tracked channels.
            address = rng.choice([0x1000, 0x1004, 0x2000, 0x2040])
            value = rng.choice([0x00, 0x01, 0x03])
            for fade in (memoized, inline):
                fade.pipeline.md_memory.write(address, value)
        elif roll < 0.14:
            register = rng.randrange(8)
            value = rng.choice([0x01, 0x03])
            for fade in (memoized, inline):
                fade.pipeline.md_registers.write(register, value)
        elif roll < 0.18:
            start = rng.choice([0x1000, 0x2000])
            for fade in (memoized, inline):
                fade.pipeline.md_memory.bulk_set(start, 64, 0x01)
        elif roll < 0.20:
            value = rng.choice([0x01, 0x03])
            for fade in (memoized, inline):
                fade.write_invariant(0, value)
        elif roll < 0.25 and outstanding:
            done = outstanding.pop(rng.randrange(len(outstanding)))
            for fade in (memoized, inline):
                fade.handler_completed(done)
        else:
            event = _random_event(rng, sequence)
            a = memoized.process_event(event)
            b = inline.process_event(event)
            assert a == b, f"divergence at #{sequence}: {a} vs {b}"
            if not a.filtered:
                outstanding.append(sequence)
                if len(outstanding) > 8:
                    done = outstanding.pop(0)
                    for fade in (memoized, inline):
                        fade.handler_completed(done)
    assert memoized.pipeline.md_cache.cache_stats.hits == (
        inline.pipeline.md_cache.cache_stats.hits
    )
    assert memoized.pipeline.md_cache.cache_stats.misses == (
        inline.pipeline.md_cache.cache_stats.misses
    )
    assert memoized.pipeline.md_cache.tlb_stats.hits == (
        inline.pipeline.md_cache.tlb_stats.hits
    )
    assert memoized.pipeline.filter_logic.comparisons == (
        inline.pipeline.filter_logic.comparisons
    )
    if non_blocking:
        assert memoized.fsq.hits == inline.fsq.hits
        assert memoized.fsq.inserts == inline.fsq.inserts
    # The memo actually engaged (otherwise this test proves nothing).
    assert memoized.pipeline.memo_value_hits > 0
    assert inline.pipeline.memo_value_hits == 0


def test_value_memo_rekeys_on_register_write(monkeypatch):
    """A write to the exact register a cached decision read flips the
    outcome; writes elsewhere leave the cached decision valid."""
    monkeypatch.delenv("REPRO_FORCE_INLINE_FADE", raising=False)
    memoized, inline = _mirrored_fades()
    event = MonitoredEvent(
        event_id=event_id_for(OpClass.ALU, 2),
        app_pc=0, src1_reg=1, src2_reg=2, dest_reg=3, sequence=0,
    )
    first = memoized.process_event(event)
    assert first == inline.process_event(event)
    assert first.filtered  # All registers default to DEFINED.
    again = memoized.process_event(event)
    assert again == inline.process_event(event)
    # Invalidate: make src2 undefined; the clean check must now fail.
    for fade in (memoized, inline):
        fade.pipeline.md_registers.write(2, 0x01)
    third = memoized.process_event(event)
    assert third == inline.process_event(event)
    assert not third.filtered


def _init_inv_write(fade, inv_id):
    fade.write_invariant(inv_id, UNINIT)


def _uninit_bulk_fill(fade, inv_id):
    # Long enough to be stored as one extent: the word's explicit entry
    # goes, and the memo must read the new value through the extent.
    fade.pipeline.md_memory.bulk_set(0x1000, EXTENT_MIN_WORDS * WORD_SIZE, UNINIT)


@pytest.mark.parametrize(
    "mutate", [_init_inv_write, _uninit_bulk_fill], ids=["inv-write", "bulk-set"]
)
def test_value_memo_rekeys_on_inv_and_bulk_writes(mutate, monkeypatch):
    """A cached filtered load turns unfiltered after a write to the INV
    register its clean check reads, or a ``bulk_set`` over its word: the
    value key changes (a memo miss, not a stale hit) and the decision
    matches the inline walk."""
    monkeypatch.delenv("REPRO_FORCE_INLINE_FADE", raising=False)
    memoized, inline = _mirrored_fades()
    event = MonitoredEvent(
        event_id=event_id_for(OpClass.LOAD, 1),
        app_pc=0, app_addr=0x1010, dest_reg=3, sequence=0,
    )
    # The load's first check compares the word against the INIT register.
    chain = memoized.pipeline.event_table.chain(event.event_id)
    inv_id = chain[0][1].s1.inv_id
    for fade in (memoized, inline):
        fade.pipeline.md_memory.write(0x1010, INIT)
    first = memoized.process_event(event)
    assert first == inline.process_event(event)
    assert first.filtered
    again = memoized.process_event(event)
    assert again == inline.process_event(event)
    pipeline = memoized.pipeline
    assert pipeline.memo_value_hits == 1
    misses = pipeline.memo_misses
    for fade in (memoized, inline):
        mutate(fade, inv_id)
    third = memoized.process_event(event)
    assert third == inline.process_event(event)
    assert not third.filtered
    assert pipeline.memo_value_hits == 1
    assert pipeline.memo_misses == misses + 1


def test_monitor_footprint_declarations():
    """Every registered monitor declares memo safety (the simulator's
    fallback gate relies on the default)."""
    for name in MONITOR_NAMES:
        monitor = create_monitor(name)
        assert monitor.filter_memo_safe is True


# -------------------------------------------------------------- telemetry


def test_fusion_telemetry_counts_fused_runs(monkeypatch):
    monkeypatch.delenv("REPRO_FORCE_INLINE_FADE", raising=False)
    profile = get_profile("astar")
    trace = generate_trace(profile, 1200, seed=5)
    monitor = create_monitor("memcheck")
    fusion_stats.reset()
    MonitoringSimulation(
        trace, monitor, SystemConfig(fade_enabled=True, engine="event"),
        profile,
    ).run()
    assert fusion_stats.runs > 0
    assert fusion_stats.fused_events > 0
    assert fusion_stats.fused_cycles >= fusion_stats.runs
    assert sum(fusion_stats.run_lengths.values()) == fusion_stats.runs
    assert (
        sum(k * v for k, v in fusion_stats.run_lengths.items())
        == fusion_stats.fused_events
    )
