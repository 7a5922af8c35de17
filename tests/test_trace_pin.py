"""Byte-level pins of generated traces and of the generator's draw rules.

The trace generator inlines its random draws for speed, so it must consume
the RNG stream exactly as :class:`random.Random`'s ``randint``/``choice``
would.  The SHA-256 pins below were recorded from the generator before its
emit loop was inlined; any change to a single drawn value, or to the order
of draws, changes a digest.  The edge profiles put rates exactly at 0.0
and 1.0, where ``chance`` must draw nothing.
"""

import dataclasses
import hashlib
import random
import sys

import pytest

from repro.analysis.experiments import benchmarks_for
from repro.common.rng import DeterministicRng, derive_seed
from repro.monitors import MONITOR_NAMES
from repro.workload import (
    PARALLEL_BENCHMARKS,
    SPEC_BENCHMARKS,
    TraceGenerator,
    get_profile,
)
from repro.workload.generator import _randbelow

#: (profile, num_instructions, seed) -> SHA-256 of the packed column bytes.
TRACE_PINS = {
    ("astar", 3000, 7): (
        "7e0c9a28a3016e110d342fe9b58bb15b6894c3f680eafe2e99e5af7bd312a329"
    ),
    ("astar", 12000, 1006): (
        "57888c7efb6e9185e5a70a4cf89f558ffbff01c105d0e3186fd805defd5800bd"
    ),
    ("bzip", 3000, 7): (
        "1c3b8f96e22036ed8eda8a370c7c58c8dc26beebb68c5708807768518afaa3d3"
    ),
    ("bzip", 12000, 1006): (
        "cfcf2e89f90aec501389a2cd6997045463898bbcf03754ccfa66c18d1e3b7836"
    ),
    ("gcc", 3000, 7): (
        "6241596103e1ecdc70e59984077d4b387dbbeacc33290f10d3e9c43d1c508a56"
    ),
    ("gcc", 12000, 1006): (
        "ab14fb745fa779ffca9695238c92119b099d9350478ad72f24cd0e47dd8182a2"
    ),
    ("gobmk", 3000, 7): (
        "197db57fd34a3aaab5d25b431a47b15d0d402f804a36e9021426e0c4ed60f04f"
    ),
    ("gobmk", 12000, 1006): (
        "38c1e1b0045522eeb954bb88f54797ac2bf5c7af4a64c585dc777bf1c1764077"
    ),
    ("hmmer", 3000, 7): (
        "4663e0bc758190fa8e9fdcc6661b0cbf8bb575d716d65128c4e5c4c1715e34d4"
    ),
    ("hmmer", 12000, 1006): (
        "b3ada7df37fc9d51871f1d6d31ddebbfff6f2ad95676926a2498000285191b33"
    ),
    ("libquantum", 3000, 7): (
        "0393fc65e94f50197f9db06becc1b23a22d2848aa886cb006029f983759e0cd6"
    ),
    ("libquantum", 12000, 1006): (
        "2a4ff655ef5e74defd53fcec2bfd8348ce443a05ccc9f48daf2f77e6c73a57fc"
    ),
    ("mcf", 3000, 7): (
        "5f4e43f881f60f9afe7feab2a1720e67791459b7dfbacba1ab769890ac8703e5"
    ),
    ("mcf", 12000, 1006): (
        "b63c59a3cf1bf2d5c9fa6c00ca2fdfd7267acbe679c0e5811bed6b1fe6a8bd34"
    ),
    ("omnetpp", 3000, 7): (
        "561aad4c920589f2084909c0cc3a0bee23262f18c046ac448bc8986547c08823"
    ),
    ("omnetpp", 12000, 1006): (
        "a67d1effacad2159db0dfa3dd32644beb32db028f09b12da549a009418f8f5de"
    ),
    ("water", 3000, 7): (
        "bb3ca47758239683519d9e0a5f3d959e4672acc2ba807d8c61e1c569f1c50fff"
    ),
    ("water", 12000, 1006): (
        "92876fd0cfdeebf8c55f06290317ec98018e5eb82a5c28c87ef9495aa04b8530"
    ),
    ("ocean", 3000, 7): (
        "f54f46d466886fd18b18409b25853f45a399646bea15ec95d8359e0c3bbc40fc"
    ),
    ("ocean", 12000, 1006): (
        "b4a9bf5e2e3aff387743809f15cd01f02fca7164a9790760b66138f44aac9656"
    ),
    ("blackscholes", 3000, 7): (
        "b85ff6cdc4a3b2e79ab5d0a5c5003e19cb523625c07d36f20f1c1b3eaa263a16"
    ),
    ("blackscholes", 12000, 1006): (
        "16923cde9a0593f30201052c6430d39570251dcddeed1f6988145a697c095720"
    ),
    ("streamcluster", 3000, 7): (
        "7210a08b36148feb9cb3a59d4151dcec22faf167234d28a58d8021f1c3a13b2d"
    ),
    ("streamcluster", 12000, 1006): (
        "3f61a704e89c63155957576cfd491a5f2ad153c949f28392dfb047375366eab7"
    ),
    ("fluidanimate", 3000, 7): (
        "0551035b4bb72afb2cad8f17d69c0ef3ccbec6fb6122378f019d669eee4b7288"
    ),
    ("fluidanimate", 12000, 1006): (
        "2d30a1c413b343116a556232b05aeaad8a27898b5ac6f86759f6a3e0d164efbd"
    ),
    ("gcc-rates-zero", 3000, 7): (
        "a8359ec4a7452f40016528426d4b461cf7c2c80d41e03bca756b7e4ebdc2ca18"
    ),
    ("gcc-rates-zero", 12000, 1006): (
        "540e0a6ecc6e02acd75970fdb8c39c575897c402ff17fa6158217d3e3c97b538"
    ),
    ("gcc-rates-one", 3000, 7): (
        "34809ca8cf2cd9c81bb6a12b54556ff414a37edf11474e4949130a786d6f6c36"
    ),
    ("gcc-rates-one", 12000, 1006): (
        "79d2bbdc4a8a5f4f0a270b3f1785cf14e0a9aa507bc77ebcc88b199cb599be27"
    ),
    ("ocean-rates-edge", 3000, 7): (
        "b434b7f59ad6e0925f808d4864832ad1069b85c05e59b256eb7a279ff0ed6f4c"
    ),
    ("ocean-rates-edge", 12000, 1006): (
        "34ef51ecd2888786fb66ce6d12a3fb4b811b251cf05eb3d85188cd42f7e5a3aa"
    ),
}

#: Edge profiles: (base profile, field overrides).  Every rate sits at 0.0 or
#: 1.0 except where a 1.0 would never emit an instruction (taint sources,
#: malloc) or where the edge is reached indirectly (a 0.5 pointer-store
#: fraction is boosted to exactly 1.0 inside allocation-init bursts).  The
#: parallel profile sends writes to the stack and reads to the stream.
EDGE_PROFILES = {
    "gcc-rates-zero": (
        "gcc",
        dict(
            dep_prob=0.0,
            pointer_load_bias=0.0,
            taint_load_bias=0.0,
            fresh_region_rate=0.0,
            stack_access_fraction=0.0,
            locality=0.0,
            page_locality=0.0,
            stream_fraction=0.0,
            pointer_store_fraction=0.0,
            pointer_alu_fraction=0.0,
            taint_alu_fraction=0.0,
            taint_source_fraction=0.0,
            taint_source_rate=0.0,
            init_burst_intensity=0.0,
            free_fraction=0.0,
        ),
    ),
    "gcc-rates-one": (
        "gcc",
        dict(
            dep_prob=1.0,
            pointer_load_bias=1.0,
            taint_load_bias=1.0,
            locality=1.0,
            page_locality=1.0,
            pointer_store_fraction=1.0,
            pointer_alu_fraction=1.0,
            taint_alu_fraction=1.0,
            taint_source_fraction=1.0,
            init_burst_intensity=1.0,
            free_fraction=1.0,
            taint_source_rate=0.002,
        ),
    ),
    "ocean-rates-edge": (
        "ocean",
        dict(
            fresh_region_rate=0.0,
            stack_access_fraction=1.0,
            stream_fraction=1.0,
            locality=0.0,
            dep_prob=0.0,
            pointer_store_fraction=0.5,
            init_burst_intensity=1.0,
            shared_fraction=0.0,
            page_locality=1.0,
        ),
    ),
}


def _profile(name):
    if name in EDGE_PROFILES:
        base, overrides = EDGE_PROFILES[name]
        return dataclasses.replace(get_profile(base), **overrides)
    return get_profile(name)


def trace_digest(trace):
    """SHA-256 over the concatenated packed column bytes."""
    _, payload = trace.to_payload()
    return hashlib.sha256(payload).hexdigest()


def test_every_builtin_profile_is_pinned():
    pinned = {name for name, _, _ in TRACE_PINS}
    assert pinned == set(SPEC_BENCHMARKS + PARALLEL_BENCHMARKS) | set(EDGE_PROFILES)
    for name in pinned:
        assert {(n, seed) for other, n, seed in TRACE_PINS if other == name} == {
            (3000, 7),
            (12000, 1006),
        }


@pytest.mark.parametrize(
    "name,num_instructions,seed",
    sorted(TRACE_PINS),
    ids=lambda value: str(value),
)
def test_generated_trace_matches_pin(name, num_instructions, seed):
    trace = TraceGenerator(_profile(name), seed).generate(num_instructions)
    assert trace.num_instructions == num_instructions
    assert trace_digest(trace) == TRACE_PINS[(name, num_instructions, seed)]


#: Every width up to 70000, so every power of two (where a different
#: bit-width rule would diverge first) and its neighbours are covered.
WIDTHS = range(1, 70001)


def test_randbelow_consumes_the_stream_like_randint():
    ours = DeterministicRng(2014, "pin")
    reference = random.Random(derive_seed(2014, "pin"))
    getrandbits = ours.getrandbits
    for width in WIDTHS:
        low = width - 35000
        assert low + _randbelow(getrandbits, width) == reference.randint(
            low, low + width - 1
        ), f"width {width}"
    assert ours.getrandbits.__self__.getstate() == reference.getstate()


def test_randbelow_consumes_the_stream_like_choice():
    ours = DeterministicRng(2014, "choice")
    reference = random.Random(derive_seed(2014, "choice"))
    getrandbits = ours.getrandbits
    for width in WIDTHS:
        sequence = range(width)
        assert sequence[_randbelow(getrandbits, width)] == reference.choice(
            sequence
        ), f"width {width}"
    assert ours.getrandbits.__self__.getstate() == reference.getstate()


def test_exposed_random_shares_the_stream():
    ours = DeterministicRng(7, "shared")
    reference = random.Random(derive_seed(7, "shared"))
    for _ in range(100):
        assert ours.random() == reference.random()
        assert ours.getrandbits(13) == reference.getrandbits(13)
        assert ours.chance(0.3) == (reference.random() < 0.3)
    assert ours.getrandbits.__self__.getstate() == reference.getstate()


def test_chance_at_the_edges_draws_nothing():
    ours = DeterministicRng(7, "edges")
    reference = random.Random(derive_seed(7, "edges"))
    assert ours.chance(0.0) is False
    assert ours.chance(-1.0) is False
    assert ours.chance(1.0) is True
    assert ours.chance(2.0) is True
    assert ours.getrandbits.__self__.getstate() == reference.getstate()


def _generator_calls(names, num_instructions, seed):
    """Python-level function calls made while generating ``names``."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    generators = [TraceGenerator(get_profile(name), seed) for name in names]
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        for generator in generators:
            generator.generate(num_instructions)
    finally:
        sys.setprofile(previous)
    return calls


def test_generation_makes_few_python_calls_per_instruction():
    """Deterministic work gate: the emit loop is straight-line code, so
    generation stays well under six Python-level calls per instruction
    (the per-helper emitter it replaced made ~30)."""
    names = sorted({b for m in MONITOR_NAMES for b in benchmarks_for(m)})
    assert len(names) == 13
    calls = _generator_calls(names, 3000, 1006)
    assert calls / (3000 * len(names)) <= 6.0
