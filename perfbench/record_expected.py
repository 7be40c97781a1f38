"""Record the expected outputs the benchmark checks on its default seed.

Run from the repository root after a change that is *meant* to move
simulated results (a model change), never to make a failing check pass::

    python3 perfbench/record_expected.py

For every simulation operation of every workload, at the "full" and
"tiny" scales, it writes the makespan (bit-exact), the delivered
message count and, where the run records a trace, the SHA-256 over its
message and retry records to ``perfbench/expected.json``.  It refuses
to record an operation that fails the seed-independent checks.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import (  # noqa: E402
    DEFAULT_SEED,
    SCALES,
    WORKLOADS,
    Checker,
    records_digest,
    run_ops,
)


def record(scale: str) -> dict:
    checker = Checker(None)
    table: dict = {}
    for name, workload in WORKLOADS.items():
        values: dict = {}

        def keep(out) -> None:
            why = checker.failure(out)
            if why is not None:
                raise SystemExit(f"error: {name}/{out.label}: {why}")
            if out.sim is None:
                return
            v = {"makespan": out.sim.makespan, "messages": out.sim.message_count}
            if out.sim.trace.messages or out.sim.trace.retries:
                v["records_sha256"] = records_digest(out.sim)
            values[out.label] = v

        with workload.ops(workload.setup(DEFAULT_SEED, scale)) as p:
            run_ops(p.ops, keep)
        table[name] = values
    return table


def main() -> None:
    expected = {scale: record(scale) for scale in SCALES}
    path = Path(__file__).with_name("expected.json")
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
