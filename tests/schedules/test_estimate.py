"""Tests for the simulation-free schedule cost estimator."""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import CM5Params, MachineConfig
from repro.machine.params import FAT_TREE_ARITY, wire_bytes
from repro.schedules import (
    Step,
    Transfer,
    balanced_exchange,
    estimate_schedule_time,
    estimate_step_time,
    execute_schedule,
    greedy_schedule,
    linear_exchange,
    linear_schedule,
    paper_pattern_P,
    pairwise_exchange,
    recursive_exchange,
)
from repro.schedules.estimate import _route_level


def _reference_link_loads(step, config):
    """Oracle: distinct senders / receivers below each upper link, by
    walking every route up from the leaves into a dict of sets."""
    endpoints = defaultdict(set)
    for t in step:
        top = config.route_level(t.src, t.dst)
        s, d = t.src, t.dst
        for level in range(2, top + 1):
            s //= FAT_TREE_ARITY
            d //= FAT_TREE_ARITY
            endpoints[(level, s, "up")].add(t.src)
            endpoints[(level, d, "down")].add(t.dst)
    return {k: len(v) for k, v in endpoints.items()}


def _reference_step_time(step, config, params=None):
    """Oracle: the estimator priced link by link from scratch."""
    params = params or config.params
    loads = _reference_link_loads(step, config)

    def subtree(node, level):
        return node // (FAT_TREE_ARITY ** (level - 1))

    per_proc = defaultdict(float)
    recv_count = defaultdict(int)
    for t in step:
        top = config.route_level(t.src, t.dst)
        rate = params.level_bandwidth(top)
        for level in range(2, top + 1):
            for node, dirn in ((t.src, "up"), (t.dst, "down")):
                load = loads.get((level, subtree(node, level), dirn), 1)
                penalty = min(
                    1.0 + params.switch_contention * max(load - 1, 0),
                    params.contention_cap,
                )
                capacity = (
                    FAT_TREE_ARITY ** (level - 1)
                    * params.level_bandwidth(level)
                    / penalty
                )
                rate = min(rate, capacity / max(load, 1))
        wire = wire_bytes(t.nbytes) / rate
        pack = params.memcpy_time(t.pack_bytes)
        unpack = params.memcpy_time(t.unpack_bytes)
        per_proc[t.src] += params.zero_byte_latency + wire + pack
        recv_count[t.dst] += 1
        if recv_count[t.dst] == 1:
            per_proc[t.dst] += params.zero_byte_latency + wire + unpack
        else:
            per_proc[t.dst] += params.recv_overhead + wire + unpack
    return max(per_proc.values(), default=0.0)


_SIZES = [2**k for k in range(1, 9)]  # N = 2 ... 256


@st.composite
def _steps(draw):
    """A random step on a random partition, in one of three shapes:
    one send and one receive per rank, many senders into few receivers,
    or arbitrary pairs."""
    n = draw(st.sampled_from(_SIZES))
    shape = draw(st.sampled_from(["one-to-one", "many-to-one", "mixed"]))
    ranks = st.integers(0, n - 1)
    if shape == "one-to-one":
        perm = draw(st.permutations(range(n)))
        count = draw(st.integers(0, n))
        pairs = [(s, perm[s]) for s in range(count) if perm[s] != s]
    elif shape == "many-to-one":
        sinks = draw(st.lists(ranks, min_size=1, max_size=3, unique=True))
        srcs = draw(st.lists(ranks, max_size=n, unique=True))
        pairs = [(s, sinks[i % len(sinks)]) for i, s in enumerate(srcs)]
    else:
        pairs = draw(st.lists(st.tuples(ranks, ranks), max_size=2 * n))
    sizes = st.integers(0, 1 << 16)
    staged = st.one_of(st.just(0), st.integers(0, 1 << 14))
    transfers, seen = [], set()
    for s, d in pairs:
        if s == d or (s, d) in seen:
            continue
        seen.add((s, d))
        transfers.append(
            Transfer(s, d, draw(sizes), pack_bytes=draw(staged),
                     unpack_bytes=draw(staged))
        )
    return n, Step(tuple(transfers))


_CONTENTION = st.builds(
    lambda c, cap: CM5Params(switch_contention=c, contention_cap=cap),
    st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
    st.sampled_from([4.0, 1.5]),
)


@pytest.fixture(scope="module")
def params():
    return CM5Params(routing_jitter=0.0)


@pytest.fixture(scope="module")
def cfg32(params):
    return MachineConfig(32, params)


class TestAgainstSimulator:
    @pytest.mark.parametrize(
        "build,nbytes",
        [
            (pairwise_exchange, 256),
            (pairwise_exchange, 1920),
            (balanced_exchange, 512),
            (recursive_exchange, 512),
            (linear_exchange, 256),
        ],
    )
    def test_within_factor_three(self, cfg32, build, nbytes):
        sched = build(32, nbytes)
        est = estimate_schedule_time(sched, cfg32)
        sim = execute_schedule(sched, cfg32).time
        assert sim / 3 <= est <= sim * 3

    def test_ranks_lex_far_worse(self, cfg32):
        lex = estimate_schedule_time(linear_exchange(32, 256), cfg32)
        pex = estimate_schedule_time(pairwise_exchange(32, 256), cfg32)
        assert lex > 3 * pex

    def test_ranks_irregular_algorithms_like_the_simulator(self, params):
        cfg = MachineConfig(8, params)
        P = paper_pattern_P().scaled(256)
        est_ls = estimate_schedule_time(linear_schedule(P), cfg)
        est_gs = estimate_schedule_time(greedy_schedule(P), cfg)
        assert est_gs < est_ls


class TestProperties:
    def test_monotone_in_message_size(self, cfg32):
        small = estimate_schedule_time(pairwise_exchange(32, 64), cfg32)
        large = estimate_schedule_time(pairwise_exchange(32, 4096), cfg32)
        assert large > small

    def test_empty_schedule_is_free(self, cfg32):
        from repro.schedules import shift_schedule

        assert estimate_schedule_time(shift_schedule(32, 0, 64), cfg32) == 0.0

    def test_additive_over_steps(self, cfg32):
        sched = pairwise_exchange(32, 256)
        total = estimate_schedule_time(sched, cfg32)
        parts = sum(estimate_step_time(s, cfg32) for s in sched.steps)
        # Both sides add the same step costs in the same order.
        assert total == parts

    def test_rex_charges_reshuffle(self, params):
        cheap = MachineConfig(32, params.scaled(memcpy_bandwidth=1e9))
        dear = MachineConfig(32, params.scaled(memcpy_bandwidth=2e6))
        sched = recursive_exchange(32, 1024)
        assert estimate_schedule_time(sched, dear) > estimate_schedule_time(
            sched, cheap
        )

    def test_size_mismatch_rejected(self, cfg32):
        with pytest.raises(ValueError):
            estimate_schedule_time(pairwise_exchange(8, 64), cfg32)

    def test_memcpy_charged_once_per_endpoint(self, params):
        """Regression: the pack memcpy belongs to the sender and the
        unpack to the receiver; the old code added pack+unpack to *both*
        endpoints, double-charging every store-and-forward step."""
        from repro.schedules import Step, Transfer
        from repro.machine.params import wire_bytes

        cfg = MachineConfig(8, params)
        step = Step(
            (Transfer(src=0, dst=1, nbytes=64, pack_bytes=4096, unpack_bytes=1024),)
        )
        wire = wire_bytes(64) / params.level_bandwidth(1)
        sender = params.zero_byte_latency + wire + params.memcpy_time(4096)
        receiver = params.zero_byte_latency + wire + params.memcpy_time(1024)
        assert estimate_step_time(step, cfg) == pytest.approx(
            max(sender, receiver)
        )

    def test_serialized_receiver_cheaper_than_naive_sum(self, params):
        """The refinement: a drained receiver overlaps sender setup, so
        the LEX estimate must be below N-1 full message latencies per
        step."""
        cfg = MachineConfig(8, params)
        sched = linear_exchange(8, 0)
        est = estimate_schedule_time(sched, cfg)
        naive = 8 * 7 * params.zero_byte_latency
        assert est < naive


class TestExactness:
    """The table-driven estimator returns the oracle's floats bit for bit."""

    @given(case=_steps(), params=_CONTENTION, explicit=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_exactly(self, case, params, explicit):
        n, step = case
        if explicit:
            cfg, passed = MachineConfig(n), params
        else:
            cfg, passed = MachineConfig(n, params), None
        assert estimate_step_time(step, cfg, passed) == _reference_step_time(
            step, cfg, passed
        )

    def test_schedules_match_reference_exactly(self, cfg32):
        for sched in (
            linear_exchange(32, 256),
            pairwise_exchange(32, 512),
            recursive_exchange(32, 512),
        ):
            for step in sched.steps:
                assert estimate_step_time(step, cfg32) == _reference_step_time(
                    step, cfg32
                )

    @pytest.mark.parametrize("n", _SIZES)
    def test_route_level_bit_trick_exhaustive(self, n):
        cfg = MachineConfig(n)
        for src in range(n):
            for dst in range(n):
                assert _route_level(src, dst) == cfg.route_level(src, dst)

    @pytest.mark.parametrize("src,dst", [(0, 8), (8, 0), (-1, 3), (3, -2)])
    def test_out_of_range_rank_raises_the_partition_error(self, src, dst):
        cfg = MachineConfig(8)
        step = Step((Transfer(src, dst, 64),))
        with pytest.raises(ValueError) as ref:
            _reference_step_time(step, cfg)
        with pytest.raises(ValueError) as got:
            estimate_step_time(step, cfg)
        assert str(got.value) == str(ref.value)
        assert "out of range for 8-node partition" in str(got.value)
