"""Outside-in layer tracing for the benchmark's traced run.

Nothing under ``src/`` knows about this module.  :func:`installed` swaps
the public functions of each layer for timing wrappers *where they are
looked up* and puts the original objects back on exit:

* class attributes (``FluidNetwork.earliest_completion``,
  ``Engine.run``, ``EventQueue.push`` ...) are patched on the class, so
  every instance created while the wrappers are installed sees them.
  ``Engine`` binds ``net.pop_completed_keys`` when it is constructed,
  which is why the wrappers go in before any traced engine exists;
* module-level names are patched in the module that *calls* them:
  ``localsearch`` imported ``estimate_step_time`` and ``lint_schedule``
  by name, the scheduler imported ``derive_key``, ``adapt_schedule`` and
  ``lint_schedule`` by name, and the irregular builders are reached
  through the ``IRREGULAR_ALGORITHMS`` registry dict.

Each wrapper records one span (name, start, end, parent span, operation
id) in memory and adds its duration to the per-name inclusive and self
totals; self time is the span's duration minus the time its child spans
cover.  Work counts are taken by the same wrappers, at the same
boundaries.  Untraced runs never install the wrappers, so they run
exactly the code users run.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

__all__ = [
    "OP_SPAN",
    "PER_LAYER",
    "SETUP_SPAN",
    "SpanLog",
    "installed",
    "layer_metrics",
    "wrap_targets",
]

#: The per-layer metrics a traced run reports, with their units, in
#: report order.  BENCHMARK.json lists the same names.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("machine.contention.arm_calls", "count"),
    ("machine.contention.arm_s", "s"),
    ("machine.contention.arms_per_msg", "ratio"),
    ("machine.contention.flows_per_arm", "flows"),
    ("machine.contention.add_flow_s", "s"),
    ("machine.contention.advance_s", "s"),
    ("machine.contention.retire_s", "s"),
    ("machine.contention.flows_retired", "count"),
    ("sim.engine.run_s", "s"),
    ("sim.engine.self_s", "s"),
    ("sim.engine.runs", "count"),
    ("sim.engine.messages", "count"),
    ("sim.events.push_calls", "count"),
    ("sim.events.push_s", "s"),
    ("sim.events.pop_batch_calls", "count"),
    ("sim.events.pop_batch_s", "s"),
    ("sim.events.events_per_batch", "ratio"),
    ("sim.channels.post_calls", "count"),
    ("sim.channels.post_s", "s"),
    ("sim.trace.records", "count"),
    ("sim.trace.record_s", "s"),
    ("faults.calls", "count"),
    ("faults.s", "s"),
    ("faults.retries", "count"),
    ("schedules.builds", "count"),
    ("schedules.build_s", "s"),
    ("schedules.estimate_calls", "count"),
    ("schedules.estimate_s", "s"),
    ("schedules.lint_calls", "count"),
    ("schedules.lint_s", "s"),
    ("schedules.repair_s", "s"),
    ("apps.workload_s", "s"),
    ("service.hits", "count"),
    ("service.warm_hits", "count"),
    ("service.cold_builds", "count"),
    ("service.hit_p50_us", "us"),
    ("service.warm_p50_us", "us"),
    ("service.cold_p50_us", "us"),
    ("service.derive_key_s", "s"),
    ("service.store_get_s", "s"),
    ("service.store_put_s", "s"),
    ("service.adapt_s", "s"),
    ("service.request_self_s", "s"),
    ("obs.observe_calls", "count"),
    ("obs.observe_s", "s"),
    ("bench.trace_overhead", "ratio"),
    ("bench.layer_coverage", "ratio"),
    ("bench.unattributed_s", "s"),
)

#: Root spans the traced run puts around input generation and around
#: each operation.  Their self time is time no layer wrapper covers.
SETUP_SPAN = "bench.setup"
OP_SPAN = "bench.op"

#: Hook run after a wrapped call returns: ``(counts, args, result)``.
After = Callable[[Counter, tuple, object], None]


class SpanLog:
    """Spans and work counts of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.total: List[float] = []
        self.self_s: List[float] = []
        self.calls: List[int] = []
        self.counts: Counter = Counter()
        #: Operation the spans recorded next belong to (-1: none).
        self.op_id = -1
        self._stack: List[int] = []
        self._covered: List[float] = []

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.total.append(0.0)
            self.self_s.append(0.0)
            self.calls.append(0)
        return nid

    def wrap(self, name: str, fn: Callable, after: Optional[After] = None):
        """``fn`` with every call recorded as one span named ``name``."""
        nid = self.intern(name)
        start, end, name_id, parent, op = (
            self.start, self.end, self.name_id, self.parent, self.op,
        )
        stack, covered = self._stack, self._covered
        total, self_s, calls, counts = self.total, self.self_s, self.calls, self.counts
        clock = time.perf_counter
        log = self

        def wrapper(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name_id.append(nid)
            op.append(log.op_id)
            end.append(0.0)
            stack.append(idx)
            covered.append(0.0)
            t0 = clock()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                end[idx] = t1
                dur = t1 - t0
                stack.pop()
                inner = covered.pop()
                if covered:
                    covered[-1] += dur
                total[nid] += dur
                self_s[nid] += dur - inner
                calls[nid] += 1
            if after is not None:
                after(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def seconds(self, name: str) -> float:
        nid = self._ids.get(name)
        return self.total[nid] if nid is not None else 0.0

    def self_seconds(self, name: str) -> float:
        nid = self._ids.get(name)
        return self.self_s[nid] if nid is not None else 0.0

    def ncalls(self, name: str) -> int:
        nid = self._ids.get(name)
        return self.calls[nid] if nid is not None else 0

    def write(self, path: Path, origin: float) -> None:
        """Write every span once, as a compressed ``.npz``.

        ``name_id`` indexes ``names``; start times are nanoseconds after
        ``origin``, delta-encoded; ``parent`` indexes the span arrays
        (-1 = root).
        """
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        start_ns = np.round((start - origin) * 1e9).astype(np.int64)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start_ns_delta=np.diff(start_ns, prepend=0),
            dur_ns=np.round((end - start) * 1e9).astype(np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )


# ----------------------------------------------------------------------
# Work counts taken at the wrapped boundaries
# ----------------------------------------------------------------------
def _count_arm(counts: Counter, args: tuple, result: object) -> None:
    counts["arm_flows"] += args[0].active_count


def _count_retired(counts: Counter, args: tuple, result: object) -> None:
    counts["flows_retired"] += len(result)


def _count_run(counts: Counter, args: tuple, result: object) -> None:
    counts["messages"] += result.message_count


def _count_batch(counts: Counter, args: tuple, result: object) -> None:
    counts["batched_events"] += len(result[1])


def _count_drop(counts: Counter, args: tuple, result: object) -> None:
    if result is not None:
        counts["retries"] += 1


def wrap_targets() -> List[Tuple[object, str, str, Optional[After]]]:
    """``(owner, attribute, span name, count hook)`` for every wrapper.

    ``owner`` is a class, a module or the irregular-builder registry
    dict; each entry names the place the layer's callers look the
    function up.
    """
    import repro.apps.workloads as app_workloads
    import repro.schedules as schedules
    import repro.schedules.localsearch as localsearch
    import repro.schedules.validate as validate
    import repro.service.scheduler as scheduler
    from repro.faults.model import FaultModel
    from repro.machine.contention import FluidNetwork
    from repro.obs.metrics import Histogram
    from repro.schedules.irregular import IRREGULAR_ALGORITHMS
    from repro.service.store import ScheduleStore
    from repro.sim.channels import RendezvousTable
    from repro.sim.engine import Engine
    from repro.sim.events import EventQueue
    from repro.sim.trace import Trace

    targets: List[Tuple[object, str, str, Optional[After]]] = [
        (FluidNetwork, "earliest_completion", "machine.contention.arm", _count_arm),
        (FluidNetwork, "add_flow", "machine.contention.add_flow", None),
        (FluidNetwork, "advance_to", "machine.contention.advance", None),
        (FluidNetwork, "pop_completed_keys", "machine.contention.retire", _count_retired),
        (Engine, "run", "sim.engine.run", _count_run),
        (EventQueue, "push", "sim.events.push", None),
        (EventQueue, "pop_batch", "sim.events.pop_batch", _count_batch),
        (RendezvousTable, "post_send", "sim.channels.post", None),
        (RendezvousTable, "post_recv", "sim.channels.post", None),
        (Trace, "add_message", "sim.trace.record", None),
        (Trace, "add_phase", "sim.trace.record", None),
        (Trace, "add_retry", "sim.trace.record", None),
        (FaultModel, "message_delay", "faults.call", None),
        (FaultModel, "message_drop", "faults.call", _count_drop),
        (schedules, "pairwise_exchange", "schedules.build", None),
        (schedules, "balanced_exchange", "schedules.build", None),
        (schedules, "recursive_exchange", "schedules.build", None),
        (schedules, "repair_schedule", "schedules.repair", None),
        (localsearch, "estimate_step_time", "schedules.estimate", None),
        (localsearch, "lint_schedule", "schedules.lint", None),
        (validate, "lint_schedule", "schedules.lint", None),
        (scheduler, "lint_schedule", "schedules.lint", None),
        (app_workloads, "paper_workload", "apps.workload", None),
        (scheduler, "derive_key", "service.derive_key", None),
        (scheduler, "adapt_schedule", "service.adapt", None),
        (ScheduleStore, "get", "service.store_get", None),
        (ScheduleStore, "put", "service.store_put", None),
        (scheduler.Scheduler, "request", "service.request", None),
        (Histogram, "observe", "obs.observe", None),
    ]
    for algorithm in IRREGULAR_ALGORITHMS:
        targets.append((IRREGULAR_ALGORITHMS, algorithm, "schedules.build", None))
    return targets


def _get(owner: object, attr: str) -> object:
    # vars() returns the object stored on the owner itself (the plain
    # function for a method), which is what must be put back.
    return owner[attr] if isinstance(owner, dict) else vars(owner)[attr]


def _set(owner: object, attr: str, value: object) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


@contextmanager
def installed(log: SpanLog) -> Iterator[None]:
    """Install every wrapper for the duration of the block."""
    saved: List[Tuple[object, str, object]] = []
    try:
        for owner, attr, name, after in wrap_targets():
            original = _get(owner, attr)
            saved.append((owner, attr, original))
            _set(owner, attr, log.wrap(name, original, after))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            _set(owner, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(log: SpanLog) -> Dict[str, float]:
    """Per-layer metrics of one traced section, by :data:`PER_LAYER` name.

    The ``service.*`` tier metrics and the ``bench.*`` ratios are filled
    in by the caller, which owns the scheduler and the wall clocks.
    """
    c = log.counts
    arms = log.ncalls("machine.contention.arm")
    messages = c["messages"]
    batches = log.ncalls("sim.events.pop_batch")
    return {
        "machine.contention.arm_calls": arms,
        "machine.contention.arm_s": log.seconds("machine.contention.arm"),
        "machine.contention.arms_per_msg": _ratio(arms, messages),
        "machine.contention.flows_per_arm": _ratio(c["arm_flows"], arms),
        "machine.contention.add_flow_s": log.seconds("machine.contention.add_flow"),
        "machine.contention.advance_s": log.seconds("machine.contention.advance"),
        "machine.contention.retire_s": log.seconds("machine.contention.retire"),
        "machine.contention.flows_retired": c["flows_retired"],
        "sim.engine.run_s": log.seconds("sim.engine.run"),
        "sim.engine.self_s": log.self_seconds("sim.engine.run"),
        "sim.engine.runs": log.ncalls("sim.engine.run"),
        "sim.engine.messages": messages,
        "sim.events.push_calls": log.ncalls("sim.events.push"),
        "sim.events.push_s": log.seconds("sim.events.push"),
        "sim.events.pop_batch_calls": batches,
        "sim.events.pop_batch_s": log.seconds("sim.events.pop_batch"),
        "sim.events.events_per_batch": _ratio(c["batched_events"], batches),
        "sim.channels.post_calls": log.ncalls("sim.channels.post"),
        "sim.channels.post_s": log.seconds("sim.channels.post"),
        "sim.trace.records": log.ncalls("sim.trace.record"),
        "sim.trace.record_s": log.seconds("sim.trace.record"),
        "faults.calls": log.ncalls("faults.call"),
        "faults.s": log.seconds("faults.call"),
        "faults.retries": c["retries"],
        "schedules.builds": log.ncalls("schedules.build"),
        "schedules.build_s": log.seconds("schedules.build"),
        "schedules.estimate_calls": log.ncalls("schedules.estimate"),
        "schedules.estimate_s": log.seconds("schedules.estimate"),
        "schedules.lint_calls": log.ncalls("schedules.lint"),
        "schedules.lint_s": log.seconds("schedules.lint"),
        "schedules.repair_s": log.seconds("schedules.repair"),
        "apps.workload_s": log.seconds("apps.workload"),
        "service.derive_key_s": log.seconds("service.derive_key"),
        "service.store_get_s": log.seconds("service.store_get"),
        "service.store_put_s": log.seconds("service.store_put"),
        "service.adapt_s": log.seconds("service.adapt"),
        "service.request_self_s": log.self_seconds("service.request"),
        "obs.observe_calls": log.ncalls("obs.observe"),
        "obs.observe_s": log.seconds("obs.observe"),
    }
