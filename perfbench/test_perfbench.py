"""Tests of the benchmark itself, at the "tiny" scale.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers  # noqa: E402
from perfbench.run import END_TO_END, Bench, tail  # noqa: E402
from perfbench.speed import MIN_SAMPLES, REFERENCE_S, Speed  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    DEFAULT_SEED,
    WORKLOADS,
    Checker,
    load_expected,
)

_OPEN = []


def _bench(*args, **kwargs) -> Bench:
    """A Bench whose speed sampler the autouse fixture stops."""
    bench = Bench(*args, **kwargs)
    _OPEN.append(bench)
    return bench


@pytest.fixture(autouse=True)
def _close_benches():
    yield
    while _OPEN:
        _OPEN.pop().close()


DETERMINISTIC = (
    "machine.contention.arm_calls",
    "machine.contention.flows_per_arm",
    "schedules.estimate_calls",
    "service.hits",
    "service.warm_hits",
    "service.cold_builds",
)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_pass_passes_every_check(workload):
    bench = _bench(workload, DEFAULT_SEED, scale="tiny")
    assert bench.checker.expected is not None
    bench.setup()
    tally = bench.passes(budget=0.0)
    assert bench.attempted == tally.operations > 0
    assert bench.failures == []


def test_other_seed_runs_seed_independent_checks_only():
    bench = _bench("faults_traced", DEFAULT_SEED + 1, scale="tiny")
    assert bench.checker.expected is None
    bench.setup()
    bench.passes(budget=0.0)
    assert bench.failures == []


def test_perturbed_expected_makespan_is_a_failed_operation():
    expected = load_expected()["tiny"]["exchange_n256"]
    label = "bex"
    bad = {k: dict(v) for k, v in expected.items()}
    bad[label]["makespan"] = math.nextafter(bad[label]["makespan"], 1.0)
    bench = _bench("exchange_n256", DEFAULT_SEED, scale="tiny")
    bench.checker = Checker(bad)
    bench.setup()
    bench.passes(budget=0.0)
    assert bench.attempted == len(expected)
    assert len(bench.failures) == 1
    assert bench.failures[0].startswith(f"{label}: makespan")


def _current_targets():
    return [
        (owner, attr, layers._get(owner, attr))
        for owner, attr, _, _ in layers.wrap_targets()
    ]


def test_traced_run_restores_every_wrapped_attribute():
    before = _current_targets()
    bench = _bench("serve_zipf", DEFAULT_SEED, scale="tiny")
    bench.setup()
    bench.traced(budget=0.0)
    for owner, attr, original in before:
        assert layers._get(owner, attr) is original, attr


def test_untraced_pass_after_a_traced_one_records_nothing():
    bench = _bench("faults_traced", DEFAULT_SEED, scale="tiny")
    bench.setup()
    log = layers.SpanLog()
    with layers.installed(log):
        bench.passes(budget=0.0)
    recorded = len(log.start)
    assert recorded > 0
    bench.passes(budget=0.0)
    assert len(log.start) == recorded


def test_restored_after_a_raising_block():
    before = _current_targets()
    with pytest.raises(RuntimeError):
        with layers.installed(layers.SpanLog()):
            raise RuntimeError("boom")
    for owner, attr, original in before:
        assert layers._get(owner, attr) is original, attr


@pytest.mark.parametrize("workload", ["irregular_paper", "serve_zipf", "exchange_n256"])
def test_traced_counts_repeat_exactly(workload):
    runs = []
    for _ in range(2):
        bench = _bench(workload, DEFAULT_SEED, scale="tiny")
        bench.setup()
        metrics, _ = bench.traced(budget=0.0)
        assert bench.failures == []
        runs.append(metrics)
    for name in DETERMINISTIC:
        assert runs[0][name] == runs[1][name], name
    for name, _ in layers.PER_LAYER:
        assert name in runs[0]


def test_every_pass_derives_its_keys_afresh(monkeypatch):
    import repro.service.keys as keys

    calls = []
    original = keys.canonical_order
    monkeypatch.setattr(
        keys, "canonical_order", lambda m: calls.append(1) or original(m)
    )
    bench = _bench("serve_zipf", DEFAULT_SEED, scale="tiny")
    bench.setup()
    per_pass = []
    for _ in range(2):
        before = len(calls)
        bench.passes(budget=0.0)
        per_pass.append(len(calls) - before)
    assert per_pass[0] > 0
    assert per_pass[0] == per_pass[1]


def test_unwrapped_work_is_not_coverage(monkeypatch):
    bench = _bench("exchange_n256", DEFAULT_SEED, scale="tiny")
    bench.setup()
    metrics, _ = bench.traced(budget=0.0)
    assert 0.9 < metrics["bench.layer_coverage"] <= 1.0
    monkeypatch.setattr(layers, "wrap_targets", lambda: [])
    metrics, _ = bench.traced(budget=0.0)
    assert metrics["bench.layer_coverage"] < 0.05
    assert metrics["bench.unattributed_s"] > 0.0


def test_self_times_sum_to_the_root_spans():
    log = layers.SpanLog()
    inner = log.wrap("inner", lambda: sum(range(1000)))
    outer = log.wrap("outer", lambda: [inner() for _ in range(3)])
    log.wrap("root", lambda: outer())()
    roots = sum(e - s for s, e, p in zip(log.start, log.end, log.parent) if p == -1)
    assert sum(log.self_s) == pytest.approx(roots, rel=1e-9)
    assert log.ncalls("inner") == 3
    assert list(log.parent) == [-1, 0, 1, 1, 1]


def test_tail_is_the_eleventh_largest_sample():
    samples = [float(i) for i in range(100)]
    value, note = tail(samples)
    assert value == 89.0 and note == "p90 of 100"
    assert tail([3.0, 1.0])[0] == 3.0


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_scale_cancels_a_uniform_slowdown():
    n = 2 * MIN_SAMPLES
    speed = Speed()
    speed.at = [float(t) for t in range(n)]
    speed.cost = [REFERENCE_S] * (n // 2) + [2 * REFERENCE_S] * (n // 2)
    assert speed.scale(1.0, 2.0) == pytest.approx(1.0)
    assert speed.scale(n - 3.0, n - 2.0) == pytest.approx(0.5)
    # A short interval still averages the MIN_SAMPLES nearest samples,
    # half of them from each side here.
    mid = n / 2 - 0.5
    assert speed.scale(mid, mid) == pytest.approx(2 / 3)


def test_sampler_stops():
    with Speed(period=0.01) as speed:
        while len(speed.at) < 3:
            pass
    assert not speed._thread.is_alive()
    assert len(speed.at) == len(speed.cost) >= 3
