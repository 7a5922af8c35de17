"""Byte-granular shadow (metadata) memory and shadow registers.

The modelled metadata layout is the paper's common case: **one metadata byte
per application word** (e.g. AtomCheck "maintains one byte of critical
metadata per application word", Section 6; MemCheck/AddrCheck state fits in
two bits).  The metadata address of application word ``a`` is ``a >> 2``,
which is what the MD cache is indexed with.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.units import WORD_SIZE, words_in_range

#: Range fills at least this many words long are stored as one extent;
#: shorter ones are written word by word, which is cheaper than an extent
#: whose every first touch must then be materialised.
EXTENT_MIN_WORDS = 256


def words_present(container, words: range) -> List[int]:
    """The words of ``words`` that are keys (or members) of ``container``,
    ascending, found by iterating whichever of the two is smaller."""
    if len(words) <= len(container):
        return [word for word in words if word in container]
    return sorted(word for word in container if word in words)


class WordMap:
    """Map from word address to a small value, storing uniform ranges once.

    After Nethercote & Seward's shadow-memory layout (VEE 2007): a range
    fill of :data:`EXTENT_MIN_WORDS` or more words becomes one
    ``(start, stop, value)`` extent instead of one entry per word, so a
    static segment costs O(1) to fill and to checkpoint.  Invariants:

    * an explicit per-word entry wins over any extent;
    * a read that misses :attr:`explicit` but falls inside an extent
      materialises that word as an explicit entry (:meth:`lookup`), so the
      next read is one dict lookup — hot readers call
      ``explicit.get(word)`` and fall back to :meth:`lookup` on ``None``;
    * clearing a range drops explicit words by iterating whichever is
      smaller, the range or the map (:func:`words_present`);
    * extents are disjoint, sorted and never hold the default value; an
      explicit default entry exists only to shadow an extent word.

    :attr:`explicit`, :attr:`starts` and :attr:`extents` keep their
    identities for the object's lifetime (restores mutate them in place).
    """

    def __init__(self, default: int = 0) -> None:
        self.default = default
        self.explicit: Dict[int, int] = {}
        #: Sorted, disjoint ``(start, stop, value)`` ranges; ``stop`` is
        #: exclusive.  ``starts`` mirrors their starts for bisection.
        self.extents: List[Tuple[int, int, int]] = []
        self.starts: List[int] = []

    def lookup(self, word: int) -> int:
        """Value of a word that has no explicit entry, materialising it
        when an extent covers it."""
        starts = self.starts
        if starts:
            index = bisect_right(starts, word) - 1
            if index >= 0:
                _, stop, value = self.extents[index]
                if word < stop:
                    self.explicit[word] = value
                    return value
        return self.default

    def get(self, word: int) -> int:
        value = self.explicit.get(word)
        return self.lookup(word) if value is None else value

    def covered(self, word: int) -> bool:
        """True if an extent spans ``word`` (explicit entries aside)."""
        index = bisect_right(self.starts, word) - 1
        return index >= 0 and word < self.extents[index][1]

    def set(self, word: int, value: int) -> int:
        """Set one word; returns its previous value."""
        explicit = self.explicit
        old = explicit.get(word)
        if old is None:
            old = self.lookup(word)
        if value == self.default and not (self.starts and self.covered(word)):
            explicit.pop(word, None)
        else:
            explicit[word] = value
        return old

    def fill(self, words: range, value: int) -> None:
        """Set every word of ``words`` (as from ``words_in_range``).

        A long range costs O(log extents) plus a pass over the smaller of
        the range and the explicit map; a short non-default one is written
        word by word."""
        if not words:
            return
        explicit = self.explicit
        if value != self.default and len(words) < EXTENT_MIN_WORDS:
            # Explicit entries win, so an extent underneath may stay.
            explicit.update(dict.fromkeys(words, value))
            return
        for word in words_present(explicit, words):
            del explicit[word]
        low, high = words[0], words[-1] + WORD_SIZE
        self._splice(
            low, high, None if value == self.default else (low, high, value)
        )

    def _splice(
        self, low: int, high: int, new: Optional[Tuple[int, int, int]]
    ) -> None:
        """Cut ``[low, high)`` out of every extent, then insert ``new``."""
        starts, extents = self.starts, self.extents
        first = bisect_right(starts, low) - 1
        if first < 0 or extents[first][1] <= low:
            first += 1
        last = bisect_left(starts, high)  # extents[first:last] overlap.
        if first == last and new is None:
            return
        pieces = []
        if first < last and extents[first][0] < low:
            start, _, value = extents[first]
            pieces.append((start, low, value))
        if new is not None:
            pieces.append(new)
        if first < last and extents[last - 1][1] > high:
            _, stop, value = extents[last - 1]
            pieces.append((high, stop, value))
        extents[first:last] = pieces
        starts[first:last] = [piece[0] for piece in pieces]

    def non_default(self, words: range) -> List[int]:
        """Ascending words of ``words`` whose value is not the default."""
        default, explicit = self.default, self.explicit
        found = [
            word
            for word in words_present(explicit, words)
            if explicit[word] != default
        ]
        if self.starts and words:
            low, high = words[0], words[-1] + WORD_SIZE
            for start, stop, _ in self.extents:
                found.extend(
                    word
                    for word in range(max(start, low), min(stop, high), WORD_SIZE)
                    if word not in explicit
                )
            found.sort()
        return found

    # ------------------------------------------------------- canonical views

    def items(self) -> Iterator[Tuple[int, int]]:
        """Every non-default (word, value) pair, extents expanded."""
        default, explicit = self.default, self.explicit
        for word, value in explicit.items():
            if value != default:
                yield word, value
        for start, stop, value in self.extents:
            for word in range(start, stop, WORD_SIZE):
                if word not in explicit:
                    yield word, value

    def __len__(self) -> int:
        """Number of non-default words."""
        default, explicit = self.default, self.explicit
        count = sum(1 for value in explicit.values() if value != default)
        if self.extents:
            count += sum(
                (stop - start) // WORD_SIZE for start, stop, _ in self.extents
            )
            count -= sum(1 for word in explicit if self.covered(word))
        return count

    # --------------------------------------------------- checkpoint protocol

    def capture_state(self) -> dict:
        return {"explicit": dict(self.explicit), "extents": list(self.extents)}

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`capture_state`, mutating in place."""
        self.explicit.clear()
        self.explicit.update(state["explicit"])
        self.extents[:] = state["extents"]
        self.starts[:] = [extent[0] for extent in self.extents]


class ShadowMemory:
    """Sparse map from application word address to one metadata byte.

    Reads of never-written words return ``default`` — the monitor's encoding
    of "unshadowed" state (usually *unallocated*).  Contents live in a
    :class:`WordMap`: :meth:`bulk_set` stores a long range as one extent,
    an explicit per-word entry wins over an extent, a read that misses the
    explicit entries but falls inside an extent materialises the word, and
    a clear iterates whichever is smaller, the range or the map.  None of
    this is visible through :meth:`read`, :meth:`items`, :meth:`snapshot`
    or ``len()``, which keep their per-word meaning.
    """

    def __init__(self, default: int = 0) -> None:
        if not 0 <= default <= 0xFF:
            raise ValueError("metadata bytes must fit in 8 bits")
        self.default = default
        self.words = WordMap(default)
        #: ``words.explicit``, hoisted for the two hottest methods.
        self._bytes = self.words.explicit

    @staticmethod
    def word_address(address: int) -> int:
        """Word-align an application byte address."""
        return address - (address % WORD_SIZE)

    def read(self, address: int) -> int:
        """Metadata byte of the word containing ``address``."""
        # Word alignment is inlined here and in write(): these two methods
        # are the hottest calls in a simulation (millions per run).
        word = address - (address % WORD_SIZE)
        value = self._bytes.get(word)
        return self.words.lookup(word) if value is None else value

    def write(self, address: int, value: int) -> bool:
        """Set the metadata byte; returns True if the value changed."""
        if not 0 <= value <= 0xFF:
            raise ValueError("metadata bytes must fit in 8 bits")
        word = address - (address % WORD_SIZE)
        explicit = self._bytes
        words = self.words
        old = explicit.get(word)
        if old is None:
            old = words.lookup(word)
        if old == value:
            return False
        if value == self.default and not (words.starts and words.covered(word)):
            explicit.pop(word, None)
        else:
            explicit[word] = value
        return True

    def bulk_set(self, start: int, length: int, value: int) -> int:
        """Set every word in ``[start, start+length)``; returns words touched.

        This is the operation the Stack-Update Unit performs in hardware and
        malloc/free handlers perform in software, so it costs one extent
        (or one dict update for short ranges) rather than one :meth:`write`
        per word.  The final contents are exactly those of per-word writes.
        """
        if not 0 <= value <= 0xFF:
            raise ValueError("metadata bytes must fit in 8 bits")
        words = words_in_range(start, length)
        self.words.fill(words, value)
        return len(words)

    def clear(self, start: int, length: int) -> int:
        """Exactly per-word ``write(word, default)`` over a range, at the
        cost of the smaller of the range and the map; returns the number of
        words in the range."""
        words = words_in_range(start, length)
        if self.words.non_default(words):
            self.words.fill(words, self.default)
        return len(words)

    def items(self) -> Iterator[Tuple[int, int]]:
        """Non-default (word address, byte) pairs, unordered."""
        return self.words.items()

    def snapshot(self) -> Dict[int, int]:
        """Copy of the non-default contents (for equivalence tests)."""
        return dict(self.words.items())

    # --------------------------------------------------- checkpoint protocol

    def capture_state(self) -> dict:
        """Serializable mid-run state (distinct from :meth:`snapshot`, the
        older contents-only view used by equivalence tests)."""
        return {"words": self.words.capture_state()}

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`capture_state`, mutating *in place*: the word
        map's containers keep their identities (the filter pipeline holds
        direct references)."""
        self.words.restore_state(state["words"])

    def __len__(self) -> int:
        return len(self.words)


class ShadowRegisters:
    """One metadata byte per architectural register (the MD RF's contents).

    The byte list's identity is stable; the filter pipeline reads it
    directly.
    """

    def __init__(self, num_registers: int = 32, default: int = 0) -> None:
        self.num_registers = num_registers
        self.default = default
        self._bytes = [default] * num_registers

    def read(self, index: int) -> int:
        return self._bytes[index]

    def write(self, index: int, value: int) -> bool:
        """Set a register's metadata byte; returns True if it changed."""
        if not 0 <= value <= 0xFF:
            raise ValueError("metadata bytes must fit in 8 bits")
        if self._bytes[index] == value:
            return False
        self._bytes[index] = value
        return True

    def reset(self) -> None:
        self._bytes[:] = [self.default] * self.num_registers

    def snapshot(self) -> Tuple[int, ...]:
        return tuple(self._bytes)

    # --------------------------------------------------- checkpoint protocol

    def capture_state(self) -> dict:
        """Serializable mid-run state (see :class:`ShadowMemory`)."""
        return {"bytes": list(self._bytes)}

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`capture_state`; slice-assigns so the hoisted
        list identity survives."""
        self._bytes[:] = state["bytes"]
