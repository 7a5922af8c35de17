"""Synthetic trace generation.

The generator maintains a lightweight ground-truth machine state (which
registers and words currently hold pointers or taint, which words are
initialised, the live heap and stack) and uses it to *bias* operand choices so
that the emitted stream exhibits the target statistics: mostly clean accesses
(filterable), pointer/taint densities that set the monitors' unfiltered rates,
and allocation-initialisation bursts that produce the clustered unfiltered
events of Figure 4(b, c).

The generated traces are clean by construction — no use-after-free, no reads
of uninitialised data, no tainted jump targets — so any report a monitor
raises on a generated trace is a false positive (tested).  Buggy traces come
from :mod:`repro.workload.bugs`.

Traces are emitted directly as :class:`~repro.workload.packed.PackedTrace`
columns — the hot emit path appends machine integers, never constructs
per-item ``Instruction``/``HighLevelEvent`` objects.  The packed trace's lazy
item view materialises identical objects on demand, so every consumer sees
the same trace an object emitter would have produced.

Emission is one straight-line loop (:meth:`TraceGenerator.generate`) whose
inlined draws consume the RNG stream exactly as the ``DeterministicRng``
wrappers would, so traces are byte-stable across rewrites of the loop
(pinned by ``tests/test_trace_pin.py``; see DESIGN.md §6).
"""

from __future__ import annotations

from bisect import bisect
from collections import deque
from itertools import accumulate
from typing import Callable, Deque, Dict, List, Set

from repro.common.rng import DeterministicRng
from repro.common.units import WORD_SIZE
from repro.isa.opcodes import OpClass
from repro.workload.heap import HeapModel
from repro.workload.packed import (
    DEPENDS_BIT,
    DEST_SHIFT,
    HL_INDEX,
    KIND_INSTRUCTION,
    OP_INDEX,
    OPERAND_MEMORY,
    OPERAND_REGISTER,
    SRC2_SHIFT,
    PackedTrace,
    PackedTraceBuilder,
)
from repro.workload.profile import BenchmarkProfile
from repro.workload.stack import CallStackModel, Frame
from repro.workload.trace import HighLevelKind

#: Base of the statically allocated (global/data) segment.
GLOBAL_BASE = 0x0040_0000
#: Base of the shared-data segment used by parallel profiles.
SHARED_BASE = 0x3000_0000
#: Base of the lazily shadowed segment (fresh-region touches).
FRESH_BASE = 0x2000_0000
#: Base of the code segment (PC values).
CODE_BASE = 0x0001_0000

#: Number of general-purpose registers; register 0 is the hardwired zero.
NUM_REGISTERS = 32

#: Registers 1..POINTER_REG_MAX hold addresses (the compiler's pointer
#: working set); higher registers hold data.  Segregating destinations keeps
#: register pointer density under the profile's control — without it, random
#: destination picks constantly clobber pointer registers and every such
#: event needs MemLeak reference-count work, saturating the unfiltered rate.
POINTER_REG_MAX = 8

#: Pointer stores are this much more likely inside an allocation-init burst,
#: modelling linked-structure construction (nodes are linked as they are
#: initialised) — the dominant source of MemLeak's unfiltered bursts.
_BURST_POINTER_BOOST = 3.0

#: Size of the streaming sub-segment of the global data segment.
STREAM_REGION_BYTES = 256 * 1024

# Hoisted column codes for the packed emit path.
_OP_LOAD = OP_INDEX[OpClass.LOAD]
_OP_STORE = OP_INDEX[OpClass.STORE]
_OP_ALU = OP_INDEX[OpClass.ALU]
_OP_MOVE = OP_INDEX[OpClass.MOVE]
_OP_FP = OP_INDEX[OpClass.FP]
_OP_BRANCH = OP_INDEX[OpClass.BRANCH]
_OP_CALL = OP_INDEX[OpClass.CALL]
_OP_RETURN = OP_INDEX[OpClass.RETURN]
_OP_NOP = OP_INDEX[OpClass.NOP]

_HL_MALLOC = HL_INDEX[HighLevelKind.MALLOC]
_HL_FREE = HL_INDEX[HighLevelKind.FREE]
_HL_TAINT_SOURCE = HL_INDEX[HighLevelKind.TAINT_SOURCE]
_HL_THREAD_SWITCH = HL_INDEX[HighLevelKind.THREAD_SWITCH]
_HL_PROGRAM_EXIT = HL_INDEX[HighLevelKind.PROGRAM_EXIT]

# ``flags`` column values (operand kinds) of each emitted instruction shape.
_REG = OPERAND_REGISTER
_MEM = OPERAND_MEMORY
_FLAGS_LOAD = _MEM | (_REG << DEST_SHIFT)
_FLAGS_STORE = _REG | (_MEM << DEST_SHIFT)
_FLAGS_ALU1 = _REG | (_REG << DEST_SHIFT)
_FLAGS_ALU2 = _FLAGS_ALU1 | (_REG << SRC2_SHIFT)
_FLAGS_MOVE = _FLAGS_ALU1
_FLAGS_FP1 = _REG
_FLAGS_FP2 = _REG | (_REG << SRC2_SHIFT)
_FLAGS_BRANCH = _REG

# Op pick codes: the index ``bisect`` returns into the cumulative op-mix
# weights (so their order fixes the stream mapping), then the stack ops.
(
    _PICK_LOAD,
    _PICK_STORE,
    _PICK_ALU1,
    _PICK_ALU2,
    _PICK_MOVE,
    _PICK_FP,
    _PICK_BRANCH,
    _PICK_NOP,
    _PICK_CALL,
    _PICK_RETURN,
) = range(10)

# Fixed-width integer draws, inlined with precomputed bit lengths:
# any register randint(1, 31), pointer destination randint(1, 8), data
# destination randint(9, 31), PC jump randint(0, 1 << 16), and the hot-set
# cursor step randint(-24, 24).
_ANY_REG_N = NUM_REGISTERS - 1
_ANY_REG_BITS = _ANY_REG_N.bit_length()
_POINTER_REG_BITS = POINTER_REG_MAX.bit_length()
_DATA_REG_N = NUM_REGISTERS - 1 - POINTER_REG_MAX
_DATA_REG_BITS = _DATA_REG_N.bit_length()
_PC_JUMP_N = (1 << 16) + 1
_PC_JUMP_BITS = _PC_JUMP_N.bit_length()
_HOT_STEP = 24
_HOT_STEP_N = 2 * _HOT_STEP + 1
_HOT_STEP_BITS = _HOT_STEP_N.bit_length()

#: Attempts at a clean register / a live biased word before falling back.
_CLEAN_TRIES = range(8)
_LIVE_TRIES = range(6)


def _randbelow(getrandbits: Callable[[int], int], n: int) -> int:
    """A uniform integer in ``[0, n)``, drawn exactly as
    ``random.Random._randbelow`` draws it: ``k = n.bit_length()`` bits,
    redrawn while the value is ``>= n``.

    ``randint(a, b)`` is ``a + _randbelow(getrandbits, b - a + 1)`` and
    ``choice(seq)`` is ``seq[_randbelow(getrandbits, len(seq))]``, draw for
    draw; the emit loop inlines the same rule for its fixed widths.
    """
    if n <= 0:
        raise IndexError("cannot draw from an empty range")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


class TraceGenerator:
    """Generates one synthetic trace for a benchmark profile."""

    def __init__(self, profile: BenchmarkProfile, seed: int = 0) -> None:
        self.profile = profile
        self.seed = seed
        self._rng = DeterministicRng(seed, profile.name, "trace")
        self._heap = HeapModel(self._rng.child("heap"))
        self._rng.child("stack")  # Unused, but child() advances our stream.
        self._stack = CallStackModel(profile.max_call_depth)

        # Ground-truth metadata used only to bias operand selection.  The
        # emit loop binds these containers to locals, so every update
        # (including lazy-deletion compaction) happens in place.
        self._pointer_regs: Set[int] = set()
        self._tainted_regs: Set[int] = set()
        self._pointer_words: List[int] = []  # list for O(1) random choice
        self._pointer_word_set: Set[int] = set()
        self._tainted_words: List[int] = []
        self._tainted_word_set: Set[int] = set()
        self._initialized_words: Set[int] = set()
        self._frame_written: Dict[int, List[int]] = {}

        # Hot working set of initialised global words, plus a streaming
        # region, both inside the statically allocated global segment.
        self._hot_words: List[int] = [
            GLOBAL_BASE + index * WORD_SIZE for index in range(profile.hot_set_words)
        ]
        stream_start = GLOBAL_BASE + profile.hot_set_words * WORD_SIZE
        # One stream cursor per thread, each walking its own slice, so
        # streaming never generates cross-thread accesses.
        threads = max(1, profile.num_threads)
        slice_bytes = (STREAM_REGION_BYTES // threads) & ~(WORD_SIZE - 1)
        self._stream_slices = [
            (
                stream_start + thread * slice_bytes,
                stream_start + (thread + 1) * slice_bytes,
            )
            for thread in range(threads)
        ]
        self._stream_cursors = [start for start, _ in self._stream_slices]
        self._shared_word_list: List[int] = [
            SHARED_BASE + index * WORD_SIZE for index in range(profile.shared_words)
        ]

        self._pending_init: Deque[int] = deque()
        self._thread = 0
        self._builder = PackedTraceBuilder()

    # ------------------------------------------------------------------ API

    def generate(self, num_instructions: int) -> PackedTrace:
        """Produce a trace with exactly ``num_instructions`` instructions.

        One straight-line loop over locals: the top-level rate draws, the
        op pick, every regular-instruction emitter with its operand and
        address picks, the PC and depends draws and the column appends all
        run inline.  Only the rare structural events — malloc/free,
        call/return frames, buffer taint sources — are methods.

        The inlined draws consume the stream exactly as the
        :class:`~repro.common.rng.DeterministicRng` wrappers they stand for:
        ``chance(p)`` is ``random() < p`` and draws nothing when ``p <= 0``
        or ``p >= 1``; ``randint``/``choice`` follow :func:`_randbelow`
        (fixed widths inline with precomputed bit lengths); the op pick is
        ``random.choices``'s one ``random()`` draw and bisection.
        """
        profile = self.profile
        rng = self._rng
        random = rng.random
        getrandbits = rng.getrandbits
        builder = self._builder
        add_hl = builder.add_high_level
        (
            append_f0,
            append_f1,
            append_f2,
            append_f3,
            append_f4,
            append_f5,
            append_kind,
            append_op,
            append_flags,
            append_thread,
        ) = builder.column_appends()
        heap = self._heap
        frames = self._stack.frames
        max_depth = self._stack.max_depth
        pointer_regs = self._pointer_regs
        tainted_regs = self._tainted_regs
        pointer_words = self._pointer_words
        pointer_word_set = self._pointer_word_set
        tainted_words = self._tainted_words
        tainted_word_set = self._tainted_word_set
        initialized = self._initialized_words
        frame_written = self._frame_written
        pending = self._pending_init
        hot_words = self._hot_words
        hot_count = len(hot_words)
        hot_bits = hot_count.bit_length()
        stream_slices = self._stream_slices
        stream_cursors = self._stream_cursors
        shared_words = self._shared_word_list

        parallel = profile.parallel
        num_threads = profile.num_threads
        switch_period = profile.thread_switch_period
        # Non-shared data is thread-private: each thread owns a partition of
        # the hot set, so private re-references stay same-thread (what
        # AtomCheck's common case relies on).
        partitions = (
            [hot_words[thread::num_threads] for thread in range(num_threads)]
            if parallel
            else []
        )

        burst_p = profile.init_burst_intensity
        taint_source_p = profile.taint_source_rate
        malloc_p = profile.malloc_rate
        free_p = profile.malloc_rate * profile.free_fraction
        call_p = profile.call_rate
        dep_p = profile.dep_prob
        pointer_load_p = profile.pointer_load_bias
        taint_load_p = profile.taint_load_bias
        pointer_store_p = profile.pointer_store_fraction
        burst_pointer_store_p = min(1.0, pointer_store_p * _BURST_POINTER_BOOST)
        pointer_alu_p = profile.pointer_alu_fraction
        taint_alu_p = profile.taint_alu_fraction
        shared_fraction = profile.shared_fraction
        fresh_p = profile.fresh_region_rate
        stack_p = profile.stack_access_fraction
        locality_p = profile.locality
        stream_p = profile.stream_fraction
        page_p = profile.page_locality
        # Op-mix cumulative weights, in _PICK_* order.
        cum_weights = list(
            accumulate(
                (
                    profile.load_weight,
                    profile.store_weight,
                    profile.alu1_weight,
                    profile.alu2_weight,
                    profile.move_weight,
                    profile.fp_weight,
                    profile.branch_weight,
                    profile.nop_weight,
                )
            )
        )
        total_weight = cum_weights[-1] + 0.0

        # Startup: the globals MALLOC tells monitors the static data segment
        # is allocated and initialised at program start; the main frame's
        # CALL is the first instruction.
        thread = 0
        add_hl(
            _HL_MALLOC,
            GLOBAL_BASE,
            profile.hot_set_words * WORD_SIZE + STREAM_REGION_BYTES,
            0,
            thread,
            True,
        )
        if parallel:
            add_hl(
                _HL_MALLOC,
                SHARED_BASE,
                profile.shared_words * WORD_SIZE,
                0,
                thread,
                True,
            )
        initialized.update(hot_words)
        initialized.update(shared_words)

        pc = CODE_BASE
        count = 0
        until_switch = switch_period
        hot_cursor = 0
        fresh_cursor = FRESH_BASE
        frame_base = frame_size = 0
        startup = True
        while startup or count < num_instructions:
            # --- pick the next item ---------------------------------------
            if startup:
                startup = False
                frame = self._push_frame()
                op = _PICK_CALL
            elif pending and burst_p > 0.0 and (burst_p >= 1.0 or random() < burst_p):
                # A pending allocation-init burst takes priority: it models
                # the store burst that immediately follows a malloc.
                address = pending.popleft()
                burst = True
                op = _PICK_STORE
            else:
                burst = False
                if taint_source_p > 0.0 and (
                    taint_source_p >= 1.0 or random() < taint_source_p
                ):
                    self._do_buffer_taint_source()
                    continue
                if malloc_p > 0.0 and (malloc_p >= 1.0 or random() < malloc_p):
                    self._do_malloc()
                    continue
                if free_p > 0.0 and (free_p >= 1.0 or random() < free_p):
                    self._do_free()
                    continue
                if call_p > 0.0 and (call_p >= 1.0 or random() < call_p):
                    # Keep depth roughly balanced around a slowly wandering
                    # level.
                    depth = len(frames)
                    if depth and (depth >= max_depth or random() < 0.5):
                        frame = self._pop_frame()
                        op = _PICK_RETURN
                    else:
                        frame = self._push_frame()
                        op = _PICK_CALL
                else:
                    op = bisect(cum_weights, random() * total_weight, 0, 7)

            # --- operands (every draw before the PC draw) -------------------
            if op <= _PICK_STORE:
                if op == _PICK_STORE:
                    p = burst_pointer_store_p if burst else pointer_store_p
                    src = 0
                    if p > 0.0 and (p >= 1.0 or random() < p) and pointer_regs:
                        regs = sorted(pointer_regs)
                        src = regs[_randbelow(getrandbits, len(regs))]
                    if (
                        not src
                        and taint_alu_p > 0.0
                        and (taint_alu_p >= 1.0 or random() < taint_alu_p)
                        and tainted_regs
                    ):
                        regs = sorted(tainted_regs)
                        src = regs[_randbelow(getrandbits, len(regs))]
                    if not src:
                        # Undirected picks draw clean registers so pointer and
                        # taint densities stay under the profile's control.
                        for _ in _CLEAN_TRIES:
                            r = getrandbits(_ANY_REG_BITS)
                            while r >= _ANY_REG_N:
                                r = getrandbits(_ANY_REG_BITS)
                            src = r + 1
                            if src not in pointer_regs and src not in tainted_regs:
                                break
                        else:
                            r = getrandbits(_ANY_REG_BITS)
                            while r >= _ANY_REG_N:
                                r = getrandbits(_ANY_REG_BITS)
                            src = r + 1
                    if not burst:
                        address = 0
                    for_write = True
                else:
                    # Loads read an initialised, allocated word; the biased
                    # picks verify against the live sets because the word
                    # lists use lazy deletion.
                    address = 0
                    if (
                        pointer_load_p > 0.0
                        and pointer_words
                        and (pointer_load_p >= 1.0 or random() < pointer_load_p)
                    ):
                        size = len(pointer_words)
                        for _ in _LIVE_TRIES:
                            word = pointer_words[_randbelow(getrandbits, size)]
                            if word in pointer_word_set:
                                address = word
                                break
                    if (
                        not address
                        and taint_load_p > 0.0
                        and tainted_words
                        and (taint_load_p >= 1.0 or random() < taint_load_p)
                    ):
                        size = len(tainted_words)
                        for _ in _LIVE_TRIES:
                            word = tainted_words[_randbelow(getrandbits, size)]
                            if word in tainted_word_set:
                                address = word
                                break
                    for_write = False
                if not address:
                    # Data address: shared segment, fresh region, stack
                    # frame, hot set, stream, heap — in that order.
                    sticky = None
                    roll = random()
                    if parallel and roll < shared_fraction:
                        sticky = shared_words
                    elif fresh_p > 0.0 and (fresh_p >= 1.0 or random() < fresh_p):
                        fresh_cursor += WORD_SIZE
                        initialized.add(fresh_cursor)
                        address = fresh_cursor
                    else:
                        if (
                            stack_p > 0.0
                            and (stack_p >= 1.0 or random() < stack_p)
                            and frames
                        ):
                            top = frames[-1]
                            written = frame_written.setdefault(top.base, [])
                            if for_write:
                                word = top.base + WORD_SIZE * _randbelow(
                                    getrandbits, top.size // WORD_SIZE
                                )
                                if word not in written:
                                    written.append(word)
                                address = word
                            elif written:
                                # Reading an unwritten frame would be an
                                # uninitialised read: only written words.
                                address = written[
                                    _randbelow(getrandbits, len(written))
                                ]
                        if not address:
                            if locality_p > 0.0 and (
                                locality_p >= 1.0 or random() < locality_p
                            ):
                                if parallel:
                                    sticky = partitions[thread]
                            elif stream_p > 0.0 and (
                                stream_p >= 1.0 or random() < stream_p
                            ):
                                start, end = stream_slices[thread]
                                address = stream_cursors[thread] + WORD_SIZE
                                if address >= end:
                                    address = start
                                stream_cursors[thread] = address
                                initialized.add(address)
                            elif parallel:
                                # Heap allocations are not partitioned by
                                # owner, so random heap picks would look like
                                # cross-thread sharing; parallel profiles
                                # keep their sharing in the shared segment.
                                sticky = partitions[thread]
                            else:
                                allocation = heap.random_live()
                                if allocation is not None:
                                    word = allocation.base + WORD_SIZE * _randbelow(
                                        getrandbits, allocation.size // WORD_SIZE
                                    )
                                    # An uninitialised heap word is only
                                    # written; a read falls back to the hot set.
                                    if for_write or word in initialized:
                                        address = word
                    if sticky is not None:
                        # Type-sticky pick: words at indices 3 (mod 4) are
                        # write-mostly, the rest read-mostly, and 98% of
                        # accesses respect the word's role — AtomCheck's
                        # same-thread-same-type common case.
                        size = len(sticky)
                        if size < 4:
                            address = sticky[_randbelow(getrandbits, size)]
                        else:
                            wants_write_word = for_write == (random() < 0.98)
                            bits = size.bit_length()
                            for _ in _LIVE_TRIES:
                                r = getrandbits(bits)
                                while r >= size:
                                    r = getrandbits(bits)
                                if (r % 4 == 3) == wants_write_word:
                                    address = sticky[r]
                                    break
                            else:
                                address = sticky[_randbelow(getrandbits, size)]
                    elif not address:
                        # Hot-set pick with page-level clustering: mostly
                        # near the previous access, occasionally a jump.
                        if page_p > 0.0 and (page_p >= 1.0 or random() < page_p):
                            r = getrandbits(_HOT_STEP_BITS)
                            while r >= _HOT_STEP_N:
                                r = getrandbits(_HOT_STEP_BITS)
                            hot_cursor = (hot_cursor + r - _HOT_STEP) % hot_count
                        else:
                            r = getrandbits(hot_bits)
                            while r >= hot_count:
                                r = getrandbits(hot_bits)
                            hot_cursor = r
                        address = hot_words[hot_cursor]
                if op == _PICK_STORE:
                    initialized.add(address)
                    if src in pointer_regs:
                        if address not in pointer_word_set:
                            pointer_word_set.add(address)
                            pointer_words.append(address)
                    elif address in pointer_word_set:
                        pointer_word_set.discard(address)
                        # Lazy deletion keeps this O(1); stale entries are
                        # re-checked on pick.
                        if len(pointer_words) > 4 * len(pointer_word_set) + 64:
                            pointer_words[:] = sorted(pointer_word_set)
                    if src in tainted_regs:
                        if address not in tainted_word_set:
                            tainted_word_set.add(address)
                            tainted_words.append(address)
                    elif address in tainted_word_set:
                        tainted_word_set.discard(address)
                        if len(tainted_words) > 4 * len(tainted_word_set) + 64:
                            tainted_words[:] = sorted(tainted_word_set)
                    op_index = _OP_STORE
                    value1 = src
                    value3 = address
                    flags = _FLAGS_STORE
                else:
                    if address in pointer_word_set:
                        r = getrandbits(_POINTER_REG_BITS)
                        while r >= POINTER_REG_MAX:
                            r = getrandbits(_POINTER_REG_BITS)
                        dest = r + 1
                    else:
                        r = getrandbits(_DATA_REG_BITS)
                        while r >= _DATA_REG_N:
                            r = getrandbits(_DATA_REG_BITS)
                        dest = r + POINTER_REG_MAX + 1
                    pointer_regs.discard(dest)
                    tainted_regs.discard(dest)
                    if address in pointer_word_set:
                        pointer_regs.add(dest)
                    if address in tainted_word_set:
                        tainted_regs.add(dest)
                    op_index = _OP_LOAD
                    value1 = address
                    value3 = dest
                    flags = _FLAGS_LOAD
                value2 = 0
                depends = True
            elif op <= _PICK_ALU2:
                two = op == _PICK_ALU2
                src = src2 = 0
                if (
                    pointer_alu_p > 0.0
                    and (pointer_alu_p >= 1.0 or random() < pointer_alu_p)
                    and pointer_regs
                ):
                    regs = sorted(pointer_regs)
                    src = regs[_randbelow(getrandbits, len(regs))]
                if (
                    taint_alu_p > 0.0
                    and (taint_alu_p >= 1.0 or random() < taint_alu_p)
                    and tainted_regs
                ):
                    regs = sorted(tainted_regs)
                    reg = regs[_randbelow(getrandbits, len(regs))]
                    if not src:
                        src = reg
                    elif two:
                        src2 = reg
                while not src or (two and not src2):
                    for _ in _CLEAN_TRIES:
                        r = getrandbits(_ANY_REG_BITS)
                        while r >= _ANY_REG_N:
                            r = getrandbits(_ANY_REG_BITS)
                        reg = r + 1
                        if reg not in pointer_regs and reg not in tainted_regs:
                            break
                    else:
                        r = getrandbits(_ANY_REG_BITS)
                        while r >= _ANY_REG_N:
                            r = getrandbits(_ANY_REG_BITS)
                        reg = r + 1
                    if not src:
                        src = reg
                    else:
                        src2 = reg
                # Register 0 is never tracked, so an absent src2 reads clean.
                is_pointer = src in pointer_regs or src2 in pointer_regs
                is_tainted = src in tainted_regs or src2 in tainted_regs
                if is_pointer:
                    r = getrandbits(_POINTER_REG_BITS)
                    while r >= POINTER_REG_MAX:
                        r = getrandbits(_POINTER_REG_BITS)
                    dest = r + 1
                else:
                    r = getrandbits(_DATA_REG_BITS)
                    while r >= _DATA_REG_N:
                        r = getrandbits(_DATA_REG_BITS)
                    dest = r + POINTER_REG_MAX + 1
                pointer_regs.discard(dest)
                tainted_regs.discard(dest)
                if is_pointer:
                    pointer_regs.add(dest)
                if is_tainted:
                    tainted_regs.add(dest)
                op_index = _OP_ALU
                value1 = src
                value2 = src2
                value3 = dest
                flags = _FLAGS_ALU2 if two else _FLAGS_ALU1
                depends = True
            elif op == _PICK_BRANCH:
                # Clean programs never branch through tainted or undefined
                # data; buggy traces (workload.bugs) construct those flows.
                for _ in _CLEAN_TRIES:
                    r = getrandbits(_ANY_REG_BITS)
                    while r >= _ANY_REG_N:
                        r = getrandbits(_ANY_REG_BITS)
                    src = r + 1
                    if src not in pointer_regs and src not in tainted_regs:
                        break
                else:
                    r = getrandbits(_ANY_REG_BITS)
                    while r >= _ANY_REG_N:
                        r = getrandbits(_ANY_REG_BITS)
                    src = r + 1
                op_index = _OP_BRANCH
                value1 = src
                value2 = value3 = 0
                flags = _FLAGS_BRANCH
                depends = True
            elif op == _PICK_MOVE:
                src = 0
                if (
                    pointer_alu_p > 0.0
                    and (pointer_alu_p >= 1.0 or random() < pointer_alu_p)
                    and pointer_regs
                ):
                    regs = sorted(pointer_regs)
                    src = regs[_randbelow(getrandbits, len(regs))]
                if not src:
                    for _ in _CLEAN_TRIES:
                        r = getrandbits(_ANY_REG_BITS)
                        while r >= _ANY_REG_N:
                            r = getrandbits(_ANY_REG_BITS)
                        src = r + 1
                        if src not in pointer_regs and src not in tainted_regs:
                            break
                    else:
                        r = getrandbits(_ANY_REG_BITS)
                        while r >= _ANY_REG_N:
                            r = getrandbits(_ANY_REG_BITS)
                        src = r + 1
                if src in pointer_regs:
                    r = getrandbits(_POINTER_REG_BITS)
                    while r >= POINTER_REG_MAX:
                        r = getrandbits(_POINTER_REG_BITS)
                    dest = r + 1
                else:
                    r = getrandbits(_DATA_REG_BITS)
                    while r >= _DATA_REG_N:
                        r = getrandbits(_DATA_REG_BITS)
                    dest = r + POINTER_REG_MAX + 1
                # Propagation reads the sets after the destination is
                # cleared, so a move onto itself clears the register.
                pointer_regs.discard(dest)
                tainted_regs.discard(dest)
                if src in pointer_regs:
                    pointer_regs.add(dest)
                if src in tainted_regs:
                    tainted_regs.add(dest)
                op_index = _OP_MOVE
                value1 = src
                value2 = 0
                value3 = dest
                flags = _FLAGS_MOVE
                depends = True
            elif op == _PICK_FP:
                # FP operands live in the (untracked) FP register file; FP
                # results never carry pointers or taint, so no destination.
                two = random() < 0.5
                r = getrandbits(_ANY_REG_BITS)
                while r >= _ANY_REG_N:
                    r = getrandbits(_ANY_REG_BITS)
                value1 = r + 1
                if two:
                    r = getrandbits(_ANY_REG_BITS)
                    while r >= _ANY_REG_N:
                        r = getrandbits(_ANY_REG_BITS)
                    value2 = r + 1
                    flags = _FLAGS_FP2
                else:
                    value2 = 0
                    flags = _FLAGS_FP1
                op_index = _OP_FP
                value3 = 0
                depends = True
            else:
                if op == _PICK_NOP:
                    op_index = _OP_NOP
                else:
                    op_index = _OP_CALL if op == _PICK_CALL else _OP_RETURN
                    frame_base = frame.base
                    frame_size = frame.size
                value1 = value2 = value3 = flags = 0
                depends = False

            # --- PC, depends, columns ---------------------------------------
            pc += 4
            if random() < 0.05:  # Taken branches/jumps scatter PCs.
                r = getrandbits(_PC_JUMP_BITS)
                while r >= _PC_JUMP_N:
                    r = getrandbits(_PC_JUMP_BITS)
                pc = CODE_BASE + r * 4
            if depends and dep_p > 0.0 and (dep_p >= 1.0 or random() < dep_p):
                flags |= DEPENDS_BIT
            append_f0(pc)
            append_f1(value1)
            append_f2(value2)
            append_f3(value3)
            append_f4(frame_base)
            append_f5(frame_size)
            append_kind(KIND_INSTRUCTION)
            append_op(op_index)
            append_flags(flags)
            append_thread(thread)
            if frame_base:
                frame_base = frame_size = 0
            count += 1
            if parallel:
                until_switch -= 1
                if until_switch <= 0:
                    thread = (thread + 1) % num_threads
                    until_switch = switch_period
                    self._thread = thread
                    add_hl(_HL_THREAD_SWITCH, 0, 0, 0, thread, False)
        add_hl(_HL_PROGRAM_EXIT, 0, 0, 0, thread, False)
        return builder.build(name=profile.name, seed=self.seed)

    # --- structural events (rare, so kept as methods) ----------------------

    def _push_frame(self) -> Frame:
        """Open a CALL's frame (the emit loop emits the instruction)."""
        profile = self.profile
        size = min(
            profile.frame_size_max,
            self._rng.pareto_int(profile.frame_size_mean // 2, shape=2.0),
        )
        return self._stack.call(size)

    def _pop_frame(self) -> Frame:
        """Close the innermost frame for a RETURN.  The frame is dead: its
        words leave the ground-truth sets so no biased operand pick
        resurrects a dangling stack address."""
        frame = self._stack.ret()
        self._frame_written.pop(frame.base, None)
        self._scrub_words(frame.base, frame.num_words)
        return frame

    def _scrub_words(self, base: int, num_words: int) -> None:
        """Words become untracked: no pointer, no taint, uninitialised."""
        pointer_words = self._pointer_words
        pointer_word_set = self._pointer_word_set
        tainted_words = self._tainted_words
        tainted_word_set = self._tainted_word_set
        initialized = self._initialized_words
        for word in range(base, base + num_words * WORD_SIZE, WORD_SIZE):
            if word in pointer_word_set:
                pointer_word_set.discard(word)
                if len(pointer_words) > 4 * len(pointer_word_set) + 64:
                    pointer_words[:] = sorted(pointer_word_set)
            if word in tainted_word_set:
                tainted_word_set.discard(word)
                if len(tainted_words) > 4 * len(tainted_word_set) + 64:
                    tainted_words[:] = sorted(tainted_word_set)
            initialized.discard(word)

    def _mark_tainted(self, base: int, num_words: int) -> None:
        """A taint source writes ``num_words`` words from ``base``."""
        tainted_words = self._tainted_words
        tainted_word_set = self._tainted_word_set
        initialized = self._initialized_words
        for word in range(base, base + num_words * WORD_SIZE, WORD_SIZE):
            if word not in tainted_word_set:
                tainted_word_set.add(word)
                tainted_words.append(word)
            initialized.add(word)

    def _do_malloc(self) -> None:
        profile = self.profile
        rng = self._rng
        size = min(
            profile.alloc_size_max,
            rng.pareto_int(profile.alloc_size_mean // 2, shape=1.6),
        )
        allocation = self._heap.malloc(size)
        dest = rng.randint(1, POINTER_REG_MAX)
        add_hl = self._builder.add_high_level
        add_hl(_HL_MALLOC, allocation.base, allocation.size, dest, self._thread, False)
        self._pointer_regs.add(dest)
        self._tainted_regs.discard(dest)
        init_words = int(allocation.num_words * profile.init_burst_fraction)
        self._pending_init.extend(
            range(
                allocation.base,
                allocation.base + init_words * WORD_SIZE,
                WORD_SIZE,
            )
        )
        if rng.chance(profile.taint_source_fraction):
            add_hl(
                _HL_TAINT_SOURCE,
                allocation.base,
                allocation.size,
                0,
                self._thread,
                False,
            )
            self._mark_tainted(allocation.base, allocation.num_words)

    def _do_buffer_taint_source(self) -> None:
        """External input (read/recv) lands in a span of the global segment."""
        rng = self._rng
        span_words = rng.randint(16, 64)
        start_index = rng.randint(0, max(0, len(self._hot_words) - span_words - 1))
        base = self._hot_words[start_index]
        self._builder.add_high_level(
            _HL_TAINT_SOURCE, base, span_words * WORD_SIZE, 0, self._thread, False
        )
        self._mark_tainted(base, span_words)

    def _do_free(self) -> None:
        allocation = self._heap.free_random()
        if allocation is None:
            return
        pending = self._pending_init
        if pending:
            # Drop queued initialisation stores aimed at the freed region —
            # letting them run would synthesise use-after-free stores.
            start = allocation.base
            end = start + allocation.size
            kept = [address for address in pending if not start <= address < end]
            pending.clear()
            pending.extend(kept)
        self._scrub_words(allocation.base, allocation.num_words)
        self._builder.add_high_level(
            _HL_FREE, allocation.base, allocation.size, 0, self._thread, False
        )


def generate_trace(
    profile: BenchmarkProfile, num_instructions: int, seed: int = 0
) -> PackedTrace:
    """Convenience wrapper: build a generator and produce one trace."""
    return TraceGenerator(profile, seed=seed).generate(num_instructions)
