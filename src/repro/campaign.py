"""Seeded invariant campaigns: run cases, report verdicts, exit.

``repro chaos`` (:mod:`repro.resilience.chaos`) and ``repro
serve-chaos`` (:mod:`repro.service.chaos`) share this pipeline.  Each
domain supplies how a spec becomes a checked run and how a run reads as
one text row, as a :class:`Campaign`; a run is a dataclass with a
``seed`` and a ``violations`` tuple, and its JSON record is its fields.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, List, NoReturn, Optional, Sequence, Tuple
)

__all__ = ["Campaign", "CampaignReport", "conclude", "fail"]


@dataclass(frozen=True)
class Campaign:
    """The report layout one campaign domain supplies."""

    #: Artifact stem; read with spaces for underscores, it also names
    #: the campaign in messages.
    name: str
    schema: str
    title: str
    header: str
    #: Footer clause naming the invariants, printed when all held.
    invariants: str
    row: Callable[[Any], str]
    #: What identifies a run in its progress line, after the seed.
    tag: Callable[[Any], str]

    def run(
        self,
        fn: Callable[[Any], Any],
        specs: Sequence[Any],
        jobs: int = 0,
        progress: Optional[Callable[[str], None]] = None,
    ) -> "CampaignReport":
        """Apply ``fn`` to every spec, inline or on ``jobs`` processes.

        Runs and progress lines come in spec order at any ``jobs``.
        """
        # Imported here so importing a domain does not import the
        # service package.
        from .service.pool import WorkerPool

        def note(r: Any) -> None:
            if progress is not None:
                mark = "VIOLATION" if r.violations else "ok"
                progress(f"seed {r.seed:4d} {self.tag(r)} {mark}")

        with WorkerPool(jobs) as pool:
            return CampaignReport(self, pool.map_ordered(fn, specs, note))


@dataclass
class CampaignReport:
    """A campaign's runs, in spec order."""

    campaign: Campaign
    runs: List[Any]
    #: Further JSON documents written next to the report, file name ->
    #: document.
    artifacts: Dict[str, object] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return len(self.runs)

    @property
    def violations(self) -> List[Any]:
        return [r for r in self.runs if r.violations]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": self.campaign.schema,
            "total": self.total,
            "violations": len(self.violations),
            "runs": [dataclasses.asdict(r) for r in self.runs],
        }

    def render(self) -> str:
        """One row per run, an ``!!`` line per violated invariant."""
        c = self.campaign
        n_bad = len(self.violations)
        lines = [c.title, f"runs: {self.total}   violations: {n_bad}"]
        lines += ["", c.header]
        for r in self.runs:
            lines.append(c.row(r))
            lines.extend(f"      !! {v}" for v in r.violations)
        lines.append("")
        if n_bad:
            lines.append(f"{n_bad} run(s) violated invariants")
        else:
            lines.append(f"all invariants held: {c.invariants}")
        return "\n".join(lines)

    def write(self, outdir: str) -> Tuple[str, ...]:
        """Write ``<name>.txt``, ``<name>.json`` and the artifacts."""
        os.makedirs(outdir, exist_ok=True)
        name = self.campaign.name
        paths = [os.path.join(outdir, f"{name}.txt")]
        with open(paths[0], "w") as f:
            f.write(self.render() + "\n")
        docs = {f"{name}.json": self.to_dict(), **self.artifacts}
        for fname, doc in docs.items():
            paths.append(os.path.join(outdir, fname))
            with open(paths[-1], "w") as f:
                json.dump(doc, f, indent=2, sort_keys=True)
                f.write("\n")
        return tuple(paths)


def fail(summary: str) -> NoReturn:
    """Exit 1 — a failed check, not a usage error — with one stderr line."""
    print(f"error: {summary}", file=sys.stderr)
    raise SystemExit(1)


def conclude(report: CampaignReport, outdir: str) -> None:
    """Write and print ``report``; exit 1 if any run violated an invariant."""
    paths = report.write(outdir)
    label = report.campaign.name.replace("_", " ")
    print()
    print(report.render())
    print(
        f"[{label} report written to {', '.join(paths[:-1])} and {paths[-1]}]"
    )
    if not report.ok:
        fail(
            f"{len(report.violations)} of {report.total} {label} runs "
            "violated invariants"
        )
