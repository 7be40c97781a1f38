"""Shared campaign runner: report, render, write, progress order."""

import json
from dataclasses import dataclass
from typing import Tuple

from repro.campaign import Campaign


@dataclass(frozen=True)
class _Run:
    seed: int
    value: int
    violations: Tuple[str, ...] = ()


def _check(seed: int) -> _Run:
    """Module-level (picklable) run function: seed 3 violates."""
    return _Run(seed, seed * seed, ("odd square",) if seed == 3 else ())


_DEMO = Campaign(
    name="demo_campaign",
    schema="repro-demo/1",
    title="Demo campaign",
    header=f"{'seed':>5} {'value':>6}",
    invariants="squares stay even",
    row=lambda r: f"{r.seed:>5} {r.value:>6}",
    tag=lambda r: f"v={r.value:<3d}",
)


def test_small_campaign_report():
    report = _DEMO.run(_check, range(5))
    assert [r.seed for r in report.runs] == [0, 1, 2, 3, 4]
    assert report.total == 5
    assert [r.seed for r in report.violations] == [3]
    assert not report.ok
    doc = report.to_dict()
    assert doc["schema"] == "repro-demo/1"
    assert doc["total"] == 5
    assert doc["violations"] == 1
    assert doc["runs"][3] == {
        "seed": 3, "value": 9, "violations": ("odd square",)
    }
    assert _DEMO.run(_check, [0, 2]).ok


def test_render_mentions_every_run():
    report = _DEMO.run(_check, range(5))
    lines = report.render().splitlines()
    assert lines[:4] == [
        "Demo campaign", "runs: 5   violations: 1", "", _DEMO.header
    ]
    for r in report.runs:
        assert _DEMO.row(r) in lines
    assert lines[lines.index(_DEMO.row(_check(3))) + 1] == "      !! odd square"
    assert lines[-2:] == ["", "1 run(s) violated invariants"]
    held = _DEMO.run(_check, [0, 2]).render()
    assert held.endswith("\n\nall invariants held: squares stay even")


def test_report_schema_and_files(tmp_path):
    report = _DEMO.run(_check, range(4))
    report.artifacts["demo_extra.json"] = {"b": [1, 2], "a": None}
    txt, js, extra = report.write(str(tmp_path / "out"))
    assert txt.endswith("demo_campaign.txt") and js.endswith(
        "demo_campaign.json"
    )
    assert open(txt).read() == report.render() + "\n"
    doc = json.loads(open(js).read())
    assert doc == json.loads(json.dumps(report.to_dict()))
    # Every JSON document is written the same way: indented, key-sorted,
    # newline-terminated.
    assert open(extra).read() == '{\n  "a": null,\n  "b": [\n    1,\n    2\n  ]\n}\n'


def test_campaign_progress_order_stable_across_jobs():
    def collect(jobs):
        seen = []
        report = _DEMO.run(_check, range(6), jobs=jobs, progress=seen.append)
        return seen, report.to_dict()

    serial, parallel = collect(0), collect(2)
    assert serial == parallel
    assert serial[0][0] == "seed    0 v=0   ok"
    assert serial[0][3] == "seed    3 v=9   VIOLATION"
    assert len(serial[0]) == 6

