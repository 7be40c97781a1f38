"""Closed-form schedule cost estimation (no simulation).

A fast analytic approximation of a schedule's execution time, used to
rank candidate schedules cheaply (e.g. inside a runtime system choosing
a scheduler per pattern, the setting of the paper's Section 4) and as a
sanity cross-check on the simulator.

Model: steps execute in sequence; a step costs the *maximum over
processors* of the sequential message work that processor performs in
it — for an exchange, two message times back to back (the Figure 2/3
orderings are sequential per pair); for the linear family, the
receiver's serialized drain of all its senders.  A message costs
overheads plus packetized wire time at its route's level bandwidth,
degraded by the same capped contention factor the fluid model applies
when the step loads an upper link beyond its capacity profile.

It deliberately ignores cross-step pipelining (a fast pair starting its
next step early) and routing jitter, so it is an *approximation*, not a
bound; the tests check it tracks the simulator within a modest factor
across the paper's workloads, and that it ranks LEX/PEX correctly.

Evaluation is table-driven because the ``local`` search prices tens of
thousands of candidate steps per build.  Every rate in a step depends
only on small integers — a route's level, and how many distinct
endpoints share an upper link — so the per-(level, load) link caps are
tabulated once per (machine, parameters) pair in one bounded cache, and
link loads are integer counts.  The result is bit-identical to pricing
each link from scratch: every float comes from the same expression with
the same operand order, and per-rank sums accumulate in transfer order.
``tests/schedules/test_estimate.py`` keeps the from-scratch loop as its
oracle and asserts exact equality.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..machine.params import (
    CM5Params,
    FAT_TREE_ARITY,
    MachineConfig,
    wire_bytes,
)
from .schedule import Schedule, Step

__all__ = ["estimate_schedule_time", "estimate_step_time"]


class _Tables(NamedTuple):
    """Every per-step constant of one (machine, parameters) pair."""

    #: ``limit[level][load]``: the rate cap a link at ``level`` shared by
    #: ``load`` concurrent endpoints imposes on each of them.
    limit: Tuple[Tuple[float, ...], ...]
    #: ``bandwidth[level]``: per-node bandwidth of a route topping out there.
    bandwidth: Tuple[float, ...]
    zero_byte_latency: float
    recv_overhead: float
    memcpy_bandwidth: float


def _route_level(src: int, dst: int) -> int:
    """:meth:`MachineConfig.route_level` for in-range ranks, in O(1).

    Each fat-tree level consumes two bits of the rank (arity 4), so the
    lowest common switch sits one level above the highest base-4 digit,
    past the leaf cluster's, in which the ranks differ.
    """
    return 1 + (((src ^ dst) >> 2).bit_length() + 1) // 2


@lru_cache(maxsize=32)
def _tables(config: MachineConfig, params: CM5Params) -> _Tables:
    """Tabulate the link-rate caps for every (level, load) a step can hit.

    A link at ``level`` sits above ``ARITY**(level-1)`` leaves, so no
    step loads it beyond that many endpoints (nor beyond the partition).
    The cap is the link's capacity profile degraded by the capped
    contention penalty, shared evenly among its ``load`` endpoints.
    """
    top = _route_level(0, config.nprocs - 1)
    limit: List[Tuple[float, ...]] = [(), ()]
    for level in range(2, top + 1):
        leaves = FAT_TREE_ARITY ** (level - 1)
        row = []
        for load in range(min(leaves, config.nprocs) + 1):
            penalty = min(
                1.0 + params.switch_contention * max(load - 1, 0),
                params.contention_cap,
            )
            capacity = leaves * params.level_bandwidth(level) / penalty
            row.append(capacity / max(load, 1))
        limit.append(tuple(row))
    return _Tables(
        limit=tuple(limit),
        bandwidth=(0.0,)
        + tuple(params.level_bandwidth(level) for level in range(1, top + 1)),
        zero_byte_latency=params.zero_byte_latency,
        recv_overhead=params.recv_overhead,
        memcpy_bandwidth=params.memcpy_bandwidth,
    )


def _link_loads(
    highest: Dict[int, int], nprocs: int, nlevels: int
) -> List[Optional[List[int]]]:
    """Distinct endpoints below each link: ``loads[level][subtree]``.

    ``highest`` maps an endpoint to its highest route level in the step;
    it is counted on its subtree's link at every level from 2 up to it.
    """
    loads: List[Optional[List[int]]] = [None, None]
    for level in range(2, nlevels):
        loads.append([0] * (nprocs >> 2 * (level - 1)))
    for node, top in highest.items():
        for level in range(2, top + 1):
            loads[level][node >> 2 * (level - 1)] += 1
    return loads


def estimate_step_time(
    step: Step, config: MachineConfig, params: Optional[CM5Params] = None
) -> float:
    """Analytic cost of one step: max over processors of sequential work.

    A transfer's wire rate is its route level's bandwidth, capped by
    every upper link it crosses.  Concurrency on a link is bounded by
    endpoints, not message counts: a sender injects one message at a
    time and a receiver drains one at a time (the synchronous
    rendezvous), so a link's load is the number of *distinct* senders
    below it (up direction) or distinct receivers below it (down
    direction).  This is what keeps the estimator honest on the linear
    family, whose N-1 messages per step share a single serialized
    receiver.
    """
    params = params or config.params
    limit, bandwidth, zbl, recv_overhead, memcpy_bw = _tables(config, params)
    nprocs = config.nprocs

    # Each endpoint's highest route level: it occupies the links of
    # every level from 2 up to that one.
    up_top: Dict[int, int] = {}
    down_top: Dict[int, int] = {}
    for t in step:
        src, dst = t.src, t.dst
        if not (0 <= src < nprocs and 0 <= dst < nprocs):
            config.route_level(src, dst)  # raises the partition's error
        top = _route_level(src, dst)
        if top > 1:
            if up_top.get(src, 1) < top:
                up_top[src] = top
            if down_top.get(dst, 1) < top:
                down_top[dst] = top

    up_load = _link_loads(up_top, nprocs, len(limit))
    down_load = _link_loads(down_top, nprocs, len(limit))

    # Per-rank sequential work, accumulated in transfer order.
    per_proc: Dict[int, float] = {}
    received = set()
    for t in step:
        src, dst = t.src, t.dst
        top = _route_level(src, dst)
        rate = bandwidth[top]
        for level in range(2, top + 1):
            shift = 2 * (level - 1)
            row = limit[level]
            cap = row[up_load[level][src >> shift]]
            if cap < rate:
                rate = cap
            cap = row[down_load[level][dst >> shift]]
            if cap < rate:
                rate = cap
        wire = wire_bytes(t.nbytes) / rate
        # The pack memcpy happens on the sender, the unpack on the
        # receiver; charging the sum to both ends double-counts the
        # store-and-forward reshuffle (REX pays it twice over).
        pack = t.pack_bytes / memcpy_bw
        unpack = t.unpack_bytes / memcpy_bw
        per_proc[src] = per_proc.get(src, 0.0) + (zbl + wire + pack)
        # A serialized receiver overlaps later senders' setup with its
        # own drain: messages after the first cost service + wire only.
        if dst in received:
            cost = recv_overhead + wire + unpack
        else:
            received.add(dst)
            cost = zbl + wire + unpack
        per_proc[dst] = per_proc.get(dst, 0.0) + cost
    return max(per_proc.values(), default=0.0)


def estimate_schedule_time(
    schedule: Schedule,
    config: MachineConfig,
    params: Optional[CM5Params] = None,
) -> float:
    """Sum of analytic step costs — a simulation-free time estimate."""
    if schedule.nprocs != config.nprocs:
        raise ValueError(
            f"schedule is for {schedule.nprocs} procs, machine has "
            f"{config.nprocs}"
        )
    params = params or config.params
    return sum(estimate_step_time(step, config, params) for step in schedule.steps)
