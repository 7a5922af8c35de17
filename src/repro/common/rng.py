"""Deterministic random-number streams.

Every stochastic component of the simulation (workload synthesis, bug
injection) draws from a :class:`DeterministicRng` derived from a single root
seed plus a label, so that a given (seed, benchmark, monitor) triple always
produces bit-identical traces.  This is what makes the blocking-versus-non-
blocking equivalence tests meaningful: both runs see the same event stream.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")


def derive_seed(root_seed: int, *labels: object) -> int:
    """Derive a child seed from a root seed and a sequence of labels.

    The derivation hashes the labels so that streams for different purposes
    (for example ``("astar", "addresses")`` versus ``("astar", "opcodes")``)
    are statistically independent even when the root seed is small.
    """
    digest = hashlib.sha256()
    digest.update(str(root_seed).encode())
    for label in labels:
        digest.update(b"\x00")
        digest.update(str(label).encode())
    return int.from_bytes(digest.digest()[:8], "little")


class DeterministicRng:
    """A labelled, reproducible random stream.

    Thin wrapper over :class:`random.Random` that adds a few distributions
    the workload generator needs and records the derivation labels for
    debugging.
    """

    def __init__(self, root_seed: int, *labels: object) -> None:
        self.labels = tuple(labels)
        self._random = random.Random(derive_seed(root_seed, *labels))
        #: The stream's bound draw primitives, exposed for hot loops that
        #: inline the distributions below (the trace generator): ``random()``
        #: in ``[0, 1)`` and ``getrandbits(k)``, the source of every integer
        #: draw (see :func:`repro.workload.generator._randbelow`).
        self.random: Callable[[], float] = self._random.random
        self.getrandbits: Callable[[int], int] = self._random.getrandbits

    def child(self, *labels: object) -> "DeterministicRng":
        """Return an independent stream derived from this one."""
        return DeterministicRng(self._random.randrange(2**63), *labels)

    def uniform(self, low: float, high: float) -> float:
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Return an integer in ``[low, high]`` inclusive."""
        return self._random.randint(low, high)

    def chance(self, probability: float) -> bool:
        """Return ``True`` with the given probability."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._random.random() < probability

    def choice(self, items: Sequence[T]) -> T:
        return self._random.choice(items)

    def geometric(self, mean: float) -> int:
        """Sample a geometric-like positive integer with the given mean.

        Used for burst lengths and inter-arrival gaps; the heavy tail matches
        the bursty event production the paper observes in Section 3.2.
        """
        if mean <= 1.0:
            return 1
        probability = 1.0 / mean
        count = 1
        while not self._random.random() < probability:
            count += 1
            if count >= mean * 64:  # Safety bound; tail beyond this is noise.
                break
        return count

    def pareto_int(self, minimum: int, shape: float = 1.5) -> int:
        """Sample a heavy-tailed integer >= minimum (allocation sizes)."""
        return max(minimum, int(minimum * self._random.paretovariate(shape)))

    def shuffle(self, items: list) -> None:
        self._random.shuffle(items)
