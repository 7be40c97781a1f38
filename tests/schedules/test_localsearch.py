"""Tests for the local-search refinement scheduler ("local")."""

import hashlib

import numpy as np
import pytest

from repro.apps.workloads import paper_workload
from repro.machine import CM5Params, MachineConfig
from repro.schedules import (
    CommPattern,
    check_covers_pattern,
    estimate_schedule_time,
    local_schedule,
    schedule_irregular,
    validate_structure,
)
from repro.schedules.coloring import coloring_schedule
from repro.schedules.greedy import greedy_schedule
from repro.schedules.irregular import IRREGULAR_ALGORITHMS
from repro.schedules.validate import lint_schedule


@pytest.fixture(scope="module")
def cfg16():
    return MachineConfig(16, CM5Params(routing_jitter=0.0))


@pytest.fixture(scope="module")
def pat16():
    return CommPattern.synthetic(16, 0.4, 256, seed=11)


class TestCorrectness:
    def test_covers_and_validates(self, pat16):
        s = local_schedule(pat16)
        check_covers_pattern(s, pat16)
        validate_structure(s)

    def test_lints_clean(self, pat16):
        report = lint_schedule(local_schedule(pat16), pat16)
        assert report.ok, report

    def test_empty_pattern(self):
        pat = CommPattern(np.zeros((4, 4), dtype=np.int64))
        assert local_schedule(pat).nsteps == 0

    def test_single_message(self):
        m = np.zeros((4, 4), dtype=np.int64)
        m[2, 0] = 96
        s = local_schedule(CommPattern(m))
        assert s.nsteps == 1
        assert s.n_messages == 1


class TestSearchBehavior:
    def test_deterministic_in_seed(self, pat16):
        a = local_schedule(pat16, seed=3)
        b = local_schedule(pat16, seed=3)
        assert a.steps == b.steps

    def test_never_worse_than_seeds(self, pat16, cfg16):
        """Strict-improvement acceptance means the refined schedule's
        estimate never exceeds the better seed's."""
        refined = local_schedule(pat16, config=cfg16)
        seed_cost = min(
            estimate_schedule_time(greedy_schedule(pat16), cfg16),
            estimate_schedule_time(coloring_schedule(pat16), cfg16),
        )
        assert estimate_schedule_time(refined, cfg16) <= seed_cost + 1e-12

    def test_improves_a_sparse_pattern(self, cfg16):
        """At low density the refinement finds real savings over GS."""
        pat = CommPattern.synthetic(16, 0.15, 256, seed=5)
        refined = local_schedule(pat, config=cfg16)
        gs_cost = estimate_schedule_time(greedy_schedule(pat), cfg16)
        assert estimate_schedule_time(refined, cfg16) < gs_cost

    def test_zero_eval_budget_returns_a_valid_schedule(self, pat16):
        s = local_schedule(pat16, max_evals=0)
        assert lint_schedule(s, pat16).ok

    def test_custom_name(self, pat16):
        assert local_schedule(pat16, name="LS+").name == "LS+"

    def test_pricing_machine_too_small_is_rejected_up_front(self):
        pat = CommPattern.synthetic(32, 0.25, 256, seed=42)
        with pytest.raises(ValueError) as err:
            local_schedule(pat, config=MachineConfig(16))
        msg = str(err.value)
        assert "16 nodes" in msg and "32-rank pattern" in msg
        assert "\n" not in msg

    def test_larger_pricing_machine_is_accepted(self, pat16):
        s = local_schedule(pat16, config=MachineConfig(32))
        check_covers_pattern(s, pat16)


def _steps_digest(schedule) -> str:
    """sha256 over each step's (src, dst, nbytes) triples, in order."""
    h = hashlib.sha256()
    for step in schedule.steps:
        h.update(repr(tuple((t.src, t.dst, t.nbytes) for t in step)).encode())
        h.update(b"|")
    return h.hexdigest()


#: label -> (pattern, sha256 of ``local``'s steps at N=32).
_PINNED = {
    "t11_d25_b256": (
        lambda: CommPattern.synthetic(32, 0.25, 256, seed=42),
        "cacf733c6f76cf149c3325b8c057f5642d2d61639cd8ed19c77240f61921c269",
    ),
    "t11_d75_b512": (
        lambda: CommPattern.synthetic(32, 0.75, 512, seed=42),
        "203c16bf4a6e9357e9e396f4cb04753f081741e91cd077c069c159d2be2e6c3d",
    ),
    "euler545": (
        lambda: paper_workload("euler545", 32).pattern,
        "17e9885310d5fca54aae442d188fde64146223d8f94eac8e5274a90987a7f7ab",
    ),
}


class TestPinnedOutput:
    """``local`` at N=32 on Table 11 / Table 12 patterns, pinned step by
    step: any change to the estimator's floats or the search's order of
    visits moves these digests."""

    @pytest.mark.parametrize("label", list(_PINNED))
    def test_local_schedule_digest(self, label):
        make, digest = _PINNED[label]
        assert _steps_digest(local_schedule(make())) == digest


class TestRegistry:
    def test_registered_as_local(self, pat16):
        assert IRREGULAR_ALGORITHMS["local"] is local_schedule
        s = schedule_irregular(pat16, "local")
        check_covers_pattern(s, pat16)

    def test_registry_dispatch_matches_direct_call(self, pat16):
        assert schedule_irregular(pat16, "local").steps == \
            local_schedule(pat16).steps
