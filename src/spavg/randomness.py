"""Reproducible random streams keyed by (master_seed, stream_id).

A stream is a value, not a stateful generator: constructing a generator from
the same stream always replays the same sequence, which is what makes noise
replay and cross-process reproducibility possible. Distinct stream ids (one
per Monte Carlo replica) give statistically independent sequences via
SeedSequence spawn keys feeding a counter-based Philox generator. The lane
argument separates the independent Wiener processes that live inside a single
replica (slow noise on lane 0, fast noise on lane 1).
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

__all__ = ["RngStream", "stream_batch"]


@dataclasses.dataclass(frozen=True)
class RngStream:
    master_seed: int
    stream_id: int

    def __post_init__(self) -> None:
        if self.master_seed < 0 or self.stream_id < 0:
            raise ValueError("seeds and stream ids must be non-negative")

    def generator(self, lane: int = 0) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_id, lane))
        return np.random.Generator(np.random.Philox(seq))


def stream_batch(streams: Sequence[RngStream], member: str = "replica") -> list[RngStream]:
    """The streams of a batch as a list; a lone RngStream raises TypeError, none ValueError.

    Entry points that take one stream per batch member call this, so that
    the lone form is refused naming the batch form: one `member` is [stream].
    """
    if isinstance(streams, RngStream):
        raise TypeError(f"streams must be a sequence of RngStream; one {member} is [stream]")
    if not (streams := list(streams)):
        raise ValueError(f"streams must hold at least one RngStream, one per {member}")
    return streams
