"""Run one workload of the repository benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload exchange_n256 --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped; every
time is host seconds scaled to a reference host speed by a sampler
thread (see ``speed.py``).
``--trace 1`` runs the untraced passes that fit half of ``--seconds``, then one
pass with every layer wrapped (see ``layers.py``) and reports the
per-layer metrics.  Either way the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines above it print every metric by name and unit, the
checks that applied and the run's stamps (fastfill kernel state, git
revision, Python version, nproc).  A JSON record of the run, and in a
traced run its spans, are written under ``.bench_build/perfbench/``.

The benchmark is hermetic: ``REPRO_CACHE_DIR`` points at a temporary
directory under ``.bench_build/`` that is removed on exit, simulations
call ``execute_schedule`` directly (never the memoized ``experiments``
helpers), and every pass of ``serve_zipf`` starts a fresh ``Scheduler``
with an empty store and ``workers=0``.

Exit codes: 0 after a run (even one whose checks failed — ``correct``
says so); 2 on an unknown workload or when the program under ``src/``
cannot be imported; 3 when the compiled fastfill kernel is not loaded:
timings on the NumPy fallback are not comparable with kernel timings,
so none are reported.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.speed import Speed  # noqa: E402  (standard library only)

#: End-to-end metrics and their units, in report order.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("wall_s", "s"),
    ("host_us_per_msg", "us"),
    ("req_per_s", "1/s"),
    ("req_p50_us", "us"),
    ("req_p99_us", "us"),
    ("req_tail_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Input generation is repeated this many times; setup_s takes the median.
SETUP_REPS = 3
#: A tail percentile needs this many samples beyond it.
TAIL_SAMPLES = 10


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_revision(root: Path) -> str:
    """HEAD's commit, read from ``.git`` without running git (which
    would search directories above the checkout); "none" outside a
    repository."""
    head_file = root / ".git" / "HEAD"
    try:
        head = head_file.read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = root / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def stamps(kernel: str) -> Dict[str, object]:
    return {
        "kernel": kernel,
        "git_revision": git_revision(ROOT),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def tail(samples: List[float]) -> Tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.

    That is the eleventh-largest sample.  With ten samples or fewer no
    percentile qualifies and the maximum is reported instead.  Returns
    the value and a note naming the percentile and the sample count.
    """
    n = len(samples)
    ordered = sorted(samples)
    if n <= TAIL_SAMPLES:
        return ordered[-1], f"max of {n}"
    q = 100.0 * (1.0 - TAIL_SAMPLES / n)
    return ordered[n - TAIL_SAMPLES - 1], f"p{q:.6g} of {n}"


def percentile(samples: List[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(samples), q)) if samples else 0.0


@dataclass
class Tally:
    """Samples of one run, in reference seconds (see ``speed.py``).

    Every pass replays the same operations from the same state, so each
    operation (by its label) is timed once per pass.
    """

    #: Scaled seconds of each pass, and its raw host seconds.
    walls: List[float] = field(default_factory=list)
    raw_walls: List[float] = field(default_factory=list)
    #: label -> scaled seconds of that operation, one per pass.
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: label -> messages the operation simulated or served.
    messages: Dict[str, int] = field(default_factory=dict)
    operations: int = 0
    #: Service latencies by response source, over every pass.
    by_tier: Dict[str, List[float]] = field(default_factory=dict)
    #: This pass's (label, host seconds, start, tier or None).
    pending: List[tuple] = field(default_factory=list)

    def add(self, label: str, seconds: float, start: float, messages: int, tier):
        self.operations += 1
        self.pending.append((label, seconds, start, tier))
        self.messages[label] = messages

    def close_pass(self, speed: Speed, raw_wall: float) -> None:
        """Scale the pass's timings to the reference speed."""
        wall = 0.0
        for label, seconds, start, tier in self.pending:
            scaled = seconds * speed.scale(start, start + seconds)
            wall += scaled
            self.samples.setdefault(label, []).append(scaled)
            if tier is not None:
                self.by_tier.setdefault(tier, []).append(scaled)
        self.pending.clear()
        self.walls.append(wall)
        self.raw_walls.append(raw_wall)

    def typical(self) -> Dict[str, float]:
        """Each operation's median over the passes."""
        return {label: statistics.median(v) for label, v in self.samples.items()}


class Bench:
    """One run of one workload: setup, passes, checks, metrics."""

    def __init__(
        self,
        workload: str,
        seed: int,
        scale: str = "full",
        speed: Optional[Speed] = None,
    ):
        """``speed``: a running sampler to scale timings by; by default
        the bench starts its own, and :meth:`close` stops it."""
        from perfbench import workloads

        self.workloads = workloads
        self.workload = workloads.WORKLOADS[workload]
        self.seed = seed
        self.scale = scale
        expected = None
        if seed == workloads.DEFAULT_SEED:
            expected = workloads.load_expected()[scale][workload]
        self.checker = workloads.Checker(expected)
        self.attempted = 0
        self.failures: List[str] = []
        self.inputs = None
        self._own_speed = speed is None
        self.speed = speed if speed is not None else Speed().start()

    def close(self) -> None:
        if self._own_speed:
            self.speed.stop()

    def __enter__(self) -> "Bench":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- setup ----------------------------------------------------------
    def setup(self) -> float:
        """Generate the inputs SETUP_REPS times; median reference
        seconds."""
        spans = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            self.inputs = self.workload.setup(self.seed, self.scale)
            spans.append((t0, time.perf_counter()))
        return statistics.median(
            (t1 - t0) * self.speed.scale(t0, t1) for t0, t1 in spans
        )

    # -- passes ---------------------------------------------------------
    def one_pass(self, sink, inputs=None, call=None):
        """Run one pass; returns (host seconds, service stats).

        The program's memo caches are emptied first, so no pass reuses
        what an earlier one computed."""
        self.workloads.clear_memos()
        gc.collect()
        with self.workload.ops(inputs or self.inputs) as p:
            wall = self.workloads.run_ops(p.ops, sink, call)
            stats = p.stats()
        return wall, stats

    def sink(self, tally: Optional[Tally] = None):
        """Check each outcome and keep only what the metrics need."""

        def take(out) -> None:
            self.attempted += 1
            why = self.checker.failure(out)
            if why is not None:
                self.failures.append(why)
            if tally is None:
                return
            tier = out.response.source if out.response is not None else None
            tally.add(out.label, out.seconds, out.start, out.messages, tier)

        return take

    def passes(self, budget: float) -> Tally:
        """As many whole passes as fit ``budget`` seconds at the
        workload's nominal pass time (at least one).  The count depends
        on the budget alone, not on how fast the host happens to be, so
        every run of a workload takes the same number of samples."""
        tally = Tally()
        sink = self.sink(tally)
        for _ in range(max(1, int(budget // self.workload.nominal_pass_s))):
            wall, _ = self.one_pass(sink)
            tally.close_pass(self.speed, wall)
        return tally

    # -- metrics --------------------------------------------------------
    def end_to_end(
        self, tally: Tally, setup_s: float
    ) -> Tuple[Dict[str, float], List[str]]:
        """Median-of-passes timings in reference seconds: the median
        pass, and each operation's median over the passes.  The latency
        percentiles are therefore percentiles of per-operation medians
        (see README.md)."""
        typical = list(tally.typical().values())
        wall = statistics.median(tally.walls)
        tail_s, tail_note = tail(typical)
        metrics = {
            "wall_s": wall,
            "host_us_per_msg": 1e6
            * math.fsum(typical)
            / sum(tally.messages.values()),
            "req_per_s": len(typical) / wall,
            "req_p50_us": 1e6 * percentile(typical, 50),
            "req_p99_us": 1e6 * percentile(typical, 99),
            "req_tail_us": 1e6 * tail_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        raw = statistics.median(tally.raw_walls)
        notes = [
            f"{len(tally.walls)} pass(es) of {len(typical)} operations; times "
            "are host seconds scaled to the reference host speed (speed.py); "
            "the latency percentiles are over each operation's median of the "
            f"passes; req_tail_us is the {tail_note} per-operation medians",
            f"median pass: {raw:.6g} s on this host, {wall:.6g} s scaled "
            f"(host at {wall / raw:.3g}x the reference speed)",
        ]
        return metrics, notes

    def traced(self, budget: float) -> Tuple[Dict[str, float], List[str]]:
        from perfbench import layers

        untraced = self.passes(budget / 2)
        gc.collect()
        log = layers.SpanLog()
        with layers.installed(log):
            t0 = time.perf_counter()
            inputs = log.wrap(layers.SETUP_SPAN, self.workload.setup)(
                self.seed, self.scale
            )
            setup_wall = time.perf_counter() - t0
            root = log.wrap(layers.OP_SPAN, lambda fn: fn())
            op_ids = itertools.count()

            def as_root(fn):
                log.op_id = next(op_ids)
                return root(fn)

            outcomes: list = []
            wall, stats = self.one_pass(outcomes.append, inputs, as_root)
        # Checked only now: the checks' own lint and builds must not
        # count as traced work.
        take = self.sink()
        for out in outcomes:
            take(out)
        metrics = layers.layer_metrics(log)
        for tier in ("hit", "warm", "cold"):
            samples = untraced.by_tier.get(tier, [])
            metrics[f"service.{tier}_p50_us"] = 1e6 * percentile(samples, 50)
        metrics["service.hits"] = stats.get("service.hits", 0)
        metrics["service.warm_hits"] = stats.get("service.warm_hits", 0)
        metrics["service.cold_builds"] = stats.get("service.cold_builds", 0)
        scale = self.speed.scale
        traced_scaled = math.fsum(
            o.seconds * scale(o.start, o.start + o.seconds) for o in outcomes
        )
        metrics["bench.trace_overhead"] = traced_scaled / statistics.median(
            untraced.walls
        )
        # The root spans' self time is what no layer wrapper covers.
        unattributed = log.self_seconds(layers.SETUP_SPAN) + log.self_seconds(
            layers.OP_SPAN
        )
        traced_wall = setup_wall + wall
        metrics["bench.unattributed_s"] = unattributed
        metrics["bench.layer_coverage"] = (
            sum(log.self_s) - unattributed
        ) / traced_wall
        span_file = OUT_DIR / f"spans-{self.workload.name}-seed{self.seed}.npz"
        log.write(span_file, t0)
        notes = [
            f"{len(untraced.walls)} untraced pass(es) then 1 traced pass of "
            f"{len(outcomes)} operations and {len(log.start)} spans "
            f"({span_file.relative_to(ROOT)}); service tier p50s come from "
            "the untraced passes"
        ]
        return metrics, notes


def emit(args, bench: Bench, metrics, units, notes, stamp) -> None:
    failed = len(bench.failures)
    attempted = bench.attempted
    if bench.checker.expected is None:
        checks = (
            f"seed {args.seed} is not the recorded seed: seed-independent "
            "checks only (raise, lint, message counts, served bytes)"
        )
    elif bench.checker.expected:
        checks = f"recorded expected values for seed {args.seed} applied"
    else:
        checks = "every check of this workload is seed-independent"
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("stamps " + json.dumps(stamp, sort_keys=True))
    print(f"checks: {checks}")
    for note in notes:
        print(f"note: {note}")
    for name, unit in units:
        print(f"  {name:<36} {metrics[name]:>16.6g} {unit}")
    print(f"  {'error_rate':<36} {failed / attempted:>16.6g} failed/attempted")
    for why in bench.failures[:10]:
        print(f"FAILED {why}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "stamps": stamp,
        "checks": checks,
        "notes": notes,
        "error_rate": failed / attempted,
        "failures": bench.failures,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units},
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    t_start = time.perf_counter()
    with Speed() as speed:
        return run(args, speed, t_start)


def run(args: argparse.Namespace, speed: Speed, t_start: float) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"error: no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
            file=sys.stderr,
        )
        return 2
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=OUT_DIR)
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        try:
            from repro.machine._fastfill import kernel_description
            from perfbench import workloads  # imports repro
        except ImportError as exc:
            print(f"error: cannot import the program: {exc}", file=sys.stderr)
            return 2
        if args.workload not in workloads.WORKLOADS:
            print(
                f"error: unknown workload {args.workload!r}; choose from "
                f"{sorted(workloads.WORKLOADS)}",
                file=sys.stderr,
            )
            return 2
        kernel = kernel_description()
        if not kernel.startswith("loaded"):
            print(
                f"error: fastfill kernel {kernel}: NumPy-fallback timings "
                "are not comparable, no result reported",
                file=sys.stderr,
            )
            return 3
        bench = Bench(args.workload, args.seed, speed=speed)
        workloads.warm_up()
        t_up = time.perf_counter()
        setup_s = (t_up - t_start) * speed.scale(t_start, t_up) + bench.setup()
        # The client's inputs would live in the client's process: keep
        # them out of the cyclic collector's scans of the program's heap.
        gc.collect()
        gc.freeze()
        if args.trace:
            metrics, notes = bench.traced(args.seconds)
            from perfbench.layers import PER_LAYER as units
        else:
            metrics, notes = bench.end_to_end(bench.passes(args.seconds), setup_s)
            units = END_TO_END
        emit(args, bench, metrics, units, notes, stamps(kernel))
        return 0
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
