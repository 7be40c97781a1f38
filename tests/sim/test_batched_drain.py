"""Byte-identity regression tests for the batched event-core drain.

The engine's hot loop drains every event of an instant in one batch
(``EventQueue.pop_batch``) instead of popping one callback at a time.
The single-pop reference drain is the same loop with ``pop_batch``
monkeypatched to pop exactly one event per call (:func:`_single_pop`).
These tests pin the contract: the two drains — and the C
kernel vs the NumPy fallback — produce byte-identical traces, including
the nasty corner where two events are separated by exactly
``_TIME_ATOL`` (the batching threshold is inclusive, so both land in
one instant and must retire at the *first* event's timestamp).
"""

import os
import subprocess
import sys

import pytest

from repro.analysis.replicate import digest_result, replicate, run_digest
from repro.cmmd import run_spmd
from repro.machine import CM5Params, MachineConfig
from repro.schedules import execute_schedule, pairwise_exchange
from repro.sim.engine import _TIME_ATOL
from repro.sim.events import EventQueue


def _single_pop(monkeypatch):
    """Turn the engine's batched drain into the one-pop-per-event oracle.

    Each ``pop_batch`` call pops only the earliest event, so the drain
    loop peeks and pops once per event — the pre-batching engine.
    """

    def pop_one(self, atol=0.0):
        t, cb = self.pop()
        return t, [cb]

    monkeypatch.setattr(EventQueue, "pop_batch", pop_one)


def _pex32_digest():
    res = execute_schedule(
        pairwise_exchange(32, 512), MachineConfig(32), trace=True
    )
    return digest_result(res)


def test_batched_vs_single_pop_pex32(monkeypatch):
    """The reference single-pop drain yields byte-identical traces."""
    batched = _pex32_digest()
    _single_pop(monkeypatch)
    single_pop = _pex32_digest()
    assert batched == single_pop


def test_atol_separated_events_drain_identically(monkeypatch):
    """Events exactly ``_TIME_ATOL`` apart batch into one instant.

    Rank ``r`` wakes at ``r * _TIME_ATOL``: consecutive wake-ups sit
    exactly on the inclusive batching threshold, the regime where an
    off-by-one-ulp drain boundary would reorder or re-timestamp events.
    Both drains must agree bit-for-bit (``repr``-level timestamps).
    """

    def prog(comm):
        from repro.sim.process import Delay

        yield Delay(comm.rank * _TIME_ATOL)
        yield Delay(_TIME_ATOL)

    cfg = MachineConfig(4, CM5Params(routing_jitter=0.0))
    a = run_spmd(cfg, prog, trace=True)
    _single_pop(monkeypatch)
    b = run_spmd(cfg, prog, trace=True)
    assert a.trace.event_stream() == b.trace.event_stream()
    assert repr(a.makespan) == repr(b.makespan)
    assert [repr(t) for t in a.finish_times] == [repr(t) for t in b.finish_times]


@pytest.mark.parametrize("n", [512, 1024])
def test_large_n_determinism(n):
    """Two replicas at N=512/1024 produce the identical trace digest.

    Runs the replicas through :func:`repro.analysis.replicate.replicate`
    with two worker processes, covering the process-parallel replication
    path at the same time: parallel and inline execution must agree.
    """
    out = replicate(run_digest, [("rex", n, 64)] * 2, jobs=2)
    assert out[0]["digest"] == out[1]["digest"]
    inline = run_digest(("rex", n, 64))
    assert inline["digest"] == out[0]["digest"]
    # log2(n) store-and-forward steps, one message per rank per step
    assert inline["messages"] == n * (n.bit_length() - 1)


_SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src")
)


def _subprocess_digest(n, extra_env):
    env = {k: v for k, v in os.environ.items() if k != "REPRO_NO_FASTFILL"}
    env.update(extra_env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"), str(_SRC)) if p
    )
    script = (
        "from repro.analysis.replicate import run_digest; "
        f"print(run_digest(('rex', {n}, 64))['digest'])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout.strip()


@pytest.mark.parametrize("n", [512, 1024])
def test_kernel_vs_numpy_fallback_large_n(n):
    """C kernel and NumPy fallback traces agree at N=512/1024.

    ``REPRO_NO_FASTFILL`` is read once at kernel load, so the fallback
    run needs a fresh interpreter.
    """
    with_kernel = _subprocess_digest(n, {})
    fallback = _subprocess_digest(n, {"REPRO_NO_FASTFILL": "1"})
    assert with_kernel == fallback
