"""Tests for repro.metadata.shadow: shadow memory and registers."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.units import WORD_SIZE, words_in_range
from repro.metadata import ShadowMemory, ShadowRegisters
from repro.metadata.shadow import EXTENT_MIN_WORDS, WordMap


class TestShadowMemory:
    def test_default_for_unshadowed(self):
        shadow = ShadowMemory(default=7)
        assert shadow.read(0x1234) == 7

    def test_word_granularity(self):
        shadow = ShadowMemory()
        shadow.write(0x1000, 5)
        for offset in range(WORD_SIZE):
            assert shadow.read(0x1000 + offset) == 5
        assert shadow.read(0x1004) == 0

    def test_write_reports_change(self):
        shadow = ShadowMemory()
        assert shadow.write(0x10, 1)
        assert not shadow.write(0x10, 1)
        assert shadow.write(0x10, 2)

    def test_writing_default_reclaims_storage(self):
        shadow = ShadowMemory(default=0)
        shadow.write(0x10, 3)
        assert len(shadow) == 1
        shadow.write(0x10, 0)
        assert len(shadow) == 0
        assert shadow.read(0x10) == 0
        # A long fill is one extent; clearing a range that cuts it keeps
        # only the two surviving pieces, with no per-word entries.
        words = EXTENT_MIN_WORDS * 2
        shadow.bulk_set(0x1000, words * WORD_SIZE, 3)
        assert len(shadow) == words
        shadow.write(0x1000 + 8 * WORD_SIZE, 0)
        assert len(shadow) == words - 1
        assert shadow.read(0x1000 + 8 * WORD_SIZE) == 0
        cut = 0x1000 + 4 * WORD_SIZE
        shadow.bulk_set(cut, 16 * WORD_SIZE, 0)
        assert not shadow.words.explicit
        assert [extent[2] for extent in shadow.words.extents] == [3, 3]
        assert len(shadow) == words - 16
        assert shadow.read(cut) == 0 and shadow.read(cut - WORD_SIZE) == 3
        assert shadow.read(cut + 16 * WORD_SIZE) == 3
        shadow.bulk_set(0x1000, words * WORD_SIZE, 0)
        assert len(shadow) == 0
        assert not shadow.words.explicit and not shadow.words.extents

    def test_rejects_out_of_range_values(self):
        shadow = ShadowMemory()
        with pytest.raises(ValueError):
            shadow.write(0, 256)
        with pytest.raises(ValueError):
            ShadowMemory(default=300)

    def test_bulk_set_equals_word_loop(self):
        bulk = ShadowMemory()
        loop = ShadowMemory()
        long = EXTENT_MIN_WORDS * WORD_SIZE * 3
        # A short range, a long one (stored as an extent), then ranges that
        # cut that extent: inside it, across its end, and back to default.
        for start, length, value in (
            (0x103, 37, 9),
            (0x4000, long, 5),
            (0x4000 + 0x203, 0x41, 7),
            (0x4000 + long - 0x80, long, 6),
            (0x4000 + 0x100, long // 2, 0),
        ):
            words = bulk.bulk_set(start, length, value)
            count = 0
            for word in words_in_range(start, length):
                loop.write(word, value)
                count += 1
            assert words == count
            assert bulk.snapshot() == loop.snapshot()
            assert len(bulk) == len(loop)
            assert sorted(bulk.items()) == sorted(loop.items())
        assert bulk.words.extents
        for word in range(0x4000 - 8, 0x4000 + 2 * long, 0x40):
            assert bulk.read(word) == loop.read(word)

    def test_snapshot_is_a_copy(self):
        shadow = ShadowMemory()
        shadow.write(0x10, 3)
        snapshot = shadow.snapshot()
        shadow.write(0x20, 4)
        assert 0x20 - (0x20 % WORD_SIZE) not in snapshot

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=256),
                st.integers(min_value=0, max_value=255),
            ),
            max_size=200,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_last_write_wins(self, writes):
        """Property: a read returns the last write to the containing word."""
        shadow = ShadowMemory(default=0)
        model = {}
        for address, value in writes:
            shadow.write(address, value)
            model[ShadowMemory.word_address(address)] = value
        for word, value in model.items():
            assert shadow.read(word) == value


class _ShadowModel:
    """Per-word reference for :class:`ShadowMemory`: a plain dict, with
    every range operation done word by word."""

    def __init__(self, default):
        self.default = default
        self.bytes = {}

    def read(self, address):
        return self.bytes.get(ShadowMemory.word_address(address), self.default)

    def write(self, address, value):
        word = ShadowMemory.word_address(address)
        if self.bytes.get(word, self.default) == value:
            return False
        self._put(word, value)
        return True

    def bulk_set(self, start, length, value):
        words = words_in_range(start, length)
        for word in words:
            self._put(word, value)
        return len(words)

    def clear(self, start, length):
        words = words_in_range(start, length)
        for word in words:
            self.write(word, self.default)
        return len(words)

    def _put(self, word, value):
        if value == self.default:
            self.bytes.pop(word, None)
        else:
            self.bytes[word] = value

    def state(self):
        return dict(self.bytes)

    def load(self, state):
        self.bytes = dict(state)


_EXTENT_BYTES = EXTENT_MIN_WORDS * WORD_SIZE
_SPAN = 4 * _EXTENT_BYTES
# Sampled anchors make overlapping, abutting, nested and extent-splitting
# ranges common; the integer ranges add unaligned odd cases.
_ADDRESSES = st.one_of(
    st.sampled_from([0, 3, _EXTENT_BYTES // 2, _EXTENT_BYTES, 2 * _EXTENT_BYTES]),
    st.integers(min_value=0, max_value=_SPAN),
)
_LENGTHS = st.one_of(
    st.sampled_from(
        [0, 1, WORD_SIZE, _EXTENT_BYTES - WORD_SIZE, _EXTENT_BYTES,
         _EXTENT_BYTES // 2, 2 * _EXTENT_BYTES]
    ),
    st.integers(min_value=0, max_value=_SPAN),
)
_VALUES = st.sampled_from([0, 1, 2, 0x80])
_SHADOW_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("fill"), _ADDRESSES, _LENGTHS, _VALUES),
        st.tuples(st.just("clear"), _ADDRESSES, _LENGTHS, st.just(0)),
        st.tuples(st.just("write"), _ADDRESSES, st.just(0), _VALUES),
        st.tuples(st.just("read"), _ADDRESSES, st.just(0), st.just(0)),
        st.tuples(st.just("capture"), st.just(0), st.just(0), st.just(0)),
        st.tuples(st.just("restore"), st.just(0), st.just(0), st.just(0)),
    ),
    max_size=40,
)


def _assert_matches(shadow, model):
    assert shadow.snapshot() == model.bytes
    assert sorted(shadow.items()) == sorted(model.bytes.items())
    assert len(shadow) == len(model.bytes)


class TestExtents:
    """The extent-backed map against a plain per-word dict model."""

    def test_first_touch_materialises_without_bumping(self):
        shadow = ShadowMemory()
        shadow.bulk_set(0x1000, _EXTENT_BYTES, 5)
        assert not shadow.words.explicit and len(shadow.words.extents) == 1
        assert shadow.read(0x1010) == 5
        assert shadow.words.explicit == {0x1010: 5}
        assert not shadow.write(0x1014, 5)
        assert len(shadow) == EXTENT_MIN_WORDS

    @given(st.sampled_from([0, 1]), _SHADOW_OPS)
    @settings(max_examples=60, deadline=None)
    def test_shadow_memory_matches_word_model(self, default, ops):
        shadow = ShadowMemory(default=default)
        model = _ShadowModel(default)
        identities = (
            shadow.words.explicit, shadow.words.extents, shadow.words.starts,
        )
        saved = None
        for op, address, length, value in ops:
            if op == "fill":
                assert shadow.bulk_set(address, length, value) == model.bulk_set(
                    address, length, value
                )
            elif op == "clear":
                assert shadow.clear(address, length) == model.clear(
                    address, length
                )
            elif op == "write":
                assert shadow.write(address, value) == model.write(address, value)
            elif op == "read":
                assert shadow.read(address) == model.read(address)
            elif op == "capture":
                saved = (pickle.dumps(shadow.capture_state()), model.state())
            elif saved is not None:
                shadow.restore_state(pickle.loads(saved[0]))
                model.load(saved[1])
                _assert_matches(shadow, model)
        _assert_matches(shadow, model)
        for address in range(0, _SPAN + 2 * _EXTENT_BYTES, 3 * WORD_SIZE):
            assert shadow.read(address) == model.read(address)
        # Restores mutate in place: the hoisted containers survive.
        current = (
            shadow.words.explicit, shadow.words.extents, shadow.words.starts,
        )
        assert all(a is b for a, b in zip(identities, current))

    @given(_SHADOW_OPS)
    @settings(max_examples=40, deadline=None)
    def test_word_map_set_and_fill_match_dict(self, ops):
        words = WordMap(default=0)
        model = {}
        saved = None
        for op, address, length, value in ops:
            word = ShadowMemory.word_address(address)
            if op == "fill":
                span = words_in_range(address, length)
                words.fill(span, value)
                model.update(dict.fromkeys(span, value))
            elif op in ("write", "clear"):
                assert words.set(word, value) == model.get(word, 0)
                model[word] = value
            elif op == "read":
                assert words.get(word) == model.get(word, 0)
            elif op == "capture":
                saved = (words.capture_state(), dict(model))
            elif saved is not None:
                words.restore_state(saved[0])
                model = dict(saved[1])
        expected = {word: value for word, value in model.items() if value}
        assert dict(words.items()) == expected
        assert len(words) == len(expected)


class TestShadowRegisters:
    def test_defaults(self):
        registers = ShadowRegisters(num_registers=8, default=3)
        assert all(registers.read(index) == 3 for index in range(8))

    def test_write_and_change_detection(self):
        registers = ShadowRegisters()
        assert registers.write(4, 9)
        assert not registers.write(4, 9)
        assert registers.read(4) == 9

    def test_reset(self):
        registers = ShadowRegisters(default=1)
        registers.write(2, 200)
        registers.reset()
        assert registers.read(2) == 1

    def test_rejects_bad_value(self):
        with pytest.raises(ValueError):
            ShadowRegisters().write(0, 999)

    def test_out_of_range_index_raises(self):
        with pytest.raises(IndexError):
            ShadowRegisters(num_registers=4).read(99)

    def test_snapshot(self):
        registers = ShadowRegisters(num_registers=3)
        registers.write(1, 5)
        assert registers.snapshot() == (0, 5, 0)
