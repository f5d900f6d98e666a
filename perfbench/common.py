"""Pieces every workload shares: operation lanes and failure accounting.

A lane is a closed loop with one client: the next operation starts only
after the previous one has returned. A workload's lanes run interleaved in
one process. A lane runs a fixed number of operations, scaled from
--seconds, so that every run and every commit measures the same work: the
dcd stream slows down once the query cache freezes, and a lane that stopped
on a clock would mix the two phases by machine speed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from maskdiff import MaskDiffError


@dataclass
class Outcome:
    """Operations attempted and failed. A correctness gate is one operation;
    a gate that does not hold is a failed one."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


@dataclass
class OpRecord:
    seconds: float
    result: Any  # None when the operation raised MaskDiffError
    error: str | None = None


@dataclass
class Lane:
    """count calls of op. With prepare, op(prepare(k)) is called instead of
    op(k); with keep, the k-th record holds keep(k, result) instead of the
    result. Both run outside the timed call."""

    op: Callable[[Any], Any]
    count: int
    prepare: Callable[[int], Any] | None = None
    keep: Callable[[int, Any], Any] | None = None


def run_lanes(lanes: dict[str, Lane], outcome: Outcome) -> dict[str, list[OpRecord]]:
    """Run every lane's operations back to back, timing each call.

    The lanes are interleaved so that each one's operations spread evenly
    over the run: the machine's speed drifts over minutes, and every lane
    then sees the same mix of it. Lanes share no state, so the order does
    not change any result. A MaskDiffError is a failed operation.
    """
    # Operations due at the same point run in lane order for even k and in
    # reverse for odd k, so that no lane always runs right after another.
    order = sorted(
        ((k + 0.5) / lane.count, i if k % 2 == 0 else -i, name, k)
        for i, (name, lane) in enumerate(lanes.items())
        for k in range(lane.count)
    )
    records: dict[str, list[OpRecord]] = {name: [] for name in lanes}
    for _, _, name, k in order:
        lane = lanes[name]
        arg = k if lane.prepare is None else lane.prepare(k)
        t0 = time.perf_counter()
        try:
            result = lane.op(arg)
            rec = OpRecord(time.perf_counter() - t0, result)
        except MaskDiffError as exc:
            rec = OpRecord(time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}")
        if lane.keep is not None and rec.result is not None:
            rec.result = lane.keep(k, rec.result)
        records[name].append(rec)
        outcome.record(rec.error is None, f"{name} op {k}: {rec.error}")
    return records


def scaled(per_second: float, seconds: float) -> int:
    """Operations a lane runs for a --seconds budget: at least one."""
    return max(1, round(per_second * seconds))


def lane_seconds(records: list[OpRecord]) -> float:
    return sum(r.seconds for r in records)


def ms(values: list[float]) -> list[float]:
    return [v * 1000.0 for v in values]
