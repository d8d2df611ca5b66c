"""Run-length notation for periodic imprint patterns.

A pattern string like ``0(32)1(64)0(64)`` is a sequence of runs
``<bit>(<length>)``.  An odd number of runs (three or more) means the first
run is a phase offset and the remaining runs form the repeating block; an
even number of runs is a pure block with no offset.  A single run denotes a
constant sequence.  The block must alternate bit values so that the run
decomposition of the emitted sequence is unambiguous.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

_RUN = re.compile(r"([01])\((\d+)\)")
_FULL = re.compile(r"(?:[01]\(\d+\))+$")


class ParseError(ValueError):
    """Malformed run-length pattern string."""


class NonAlternatingBlock(ParseError):
    pass


@dataclass(frozen=True)
class RunLengthPattern:
    """A parsed pattern: optional offset run followed by one repeating block."""

    offset_run: tuple[int, int] | None  # (bit, length) prefix, or None
    block: tuple[tuple[int, int], ...]  # alternating (bit, length) runs

    @property
    def period(self) -> int:
        return sum(length for _, length in self.block)

    @property
    def offset_length(self) -> int:
        return self.offset_run[1] if self.offset_run else 0

    def bits(self, n: int) -> np.ndarray:
        """First ``n`` bits of the emitted sequence as a uint8 array."""
        if n < 0:
            raise ValueError(f"negative length {n}")
        runs = ([self.offset_run] if self.offset_run else []) + list(self.block)
        head = np.concatenate(
            [np.full(length, bit, dtype=np.uint8) for bit, length in runs]
        )
        if n <= head.size:
            return head[:n].copy()
        cycle = head[self.offset_length:]
        reps = -(-(n - head.size) // cycle.size)
        return np.concatenate([head, np.tile(cycle, reps)])[:n]

    def signs(self, n: int) -> np.ndarray:
        """First ``n`` pattern values as floats: '1' phase -> +1, '0' -> -1."""
        return 2.0 * self.bits(n) - 1.0


def parse_run_length(text: str) -> RunLengthPattern:
    if not _FULL.match(text):
        raise ParseError(f"malformed pattern {text!r}")
    runs = [(int(b), int(n)) for b, n in _RUN.findall(text)]
    if any(n == 0 for _, n in runs):
        raise ParseError(f"zero-length run in {text!r}")
    if len(runs) == 1:
        offset, block = None, runs  # constant sequence
    elif len(runs) % 2:
        offset, block = runs[0], runs[1:]
    else:
        offset, block = None, runs
    for (a, _), (b, _) in zip(block, block[1:]):
        if a == b:
            raise NonAlternatingBlock(f"adjacent equal runs in block of {text!r}")
    pattern = RunLengthPattern(offset_run=offset, block=tuple(block))
    if pattern.period < 2:
        raise ParseError(f"pattern {text!r} has period {pattern.period} < 2")
    return pattern


def bit_runs(bits: np.ndarray) -> list[tuple[int, int]]:
    """Run-length decomposition of a bit array as (bit, length) pairs."""
    arr = np.asarray(bits).astype(np.uint8).ravel()
    if arr.size == 0:
        return []
    edges = np.flatnonzero(np.diff(arr)) + 1
    starts = np.concatenate([[0], edges])
    ends = np.concatenate([edges, [arr.size]])
    return [(int(arr[s]), int(e - s)) for s, e in zip(starts, ends)]


def cyclic_notation(cycle) -> str:
    """Run-length notation of a repeating cycle observed from position zero.

    When the cycle's first and last runs carry the same bit they are one
    run split by the observation window; the first part becomes the offset
    and the two lengths merge into the block's wrap-around run.
    """
    runs = bit_runs(np.asarray(cycle))
    if not runs:
        raise ParseError("empty cycle")
    if len(runs) >= 3 and runs[0][0] == runs[-1][0]:
        merged = (runs[0][0], runs[0][1] + runs[-1][1])
        runs = [runs[0]] + runs[1:-1] + [merged]
    return "".join(f"{bit}({length})" for bit, length in runs)


def canonical_cycle(cycle) -> tuple[np.ndarray, bool]:
    """Normalize a cycle so it leads with a zero bit.

    A cycle and its complement describe the same periodic structure pushed
    in opposite directions; returns (canonical bits, True if complemented).
    """
    arr = np.asarray(cycle).astype(np.uint8).ravel()
    if arr.size == 0:
        raise ParseError("empty cycle")
    if arr[0]:
        return (1 - arr), True
    return arr.copy(), False
