"""Call-stack model for the trace generator.

Tracks frame geometry so that call/return instructions carry the frame base
and size the Stack-Update Unit needs (Section 4.2), and so stack accesses go
to live frames (which the SUU has marked allocated — the filterable case).
"""

from __future__ import annotations

import dataclasses
from typing import List

from repro.common.units import WORD_SIZE, align_up

#: The stack grows down from this virtual address.
STACK_TOP = 0x7FFF_0000


@dataclasses.dataclass(frozen=True)
class Frame:
    """One live stack frame (base is the numerically lowest address)."""

    base: int
    size: int

    @property
    def num_words(self) -> int:
        return self.size // WORD_SIZE


class CallStackModel:
    """Grow-down stack of frames with bounded depth."""

    def __init__(self, max_depth: int = 64) -> None:
        self.max_depth = max_depth
        self.frames: List[Frame] = []
        self._stack_pointer = STACK_TOP

    @property
    def depth(self) -> int:
        return len(self.frames)

    def call(self, frame_size: int) -> Frame:
        """Push a frame of ``frame_size`` bytes and return it."""
        size = max(WORD_SIZE, align_up(frame_size, WORD_SIZE))
        self._stack_pointer -= size
        frame = Frame(base=self._stack_pointer, size=size)
        self.frames.append(frame)
        return frame

    def ret(self) -> Frame:
        """Pop the innermost frame and return it (raises IndexError if empty)."""
        frame = self.frames.pop()
        self._stack_pointer += frame.size
        return frame
