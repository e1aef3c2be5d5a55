"""Micro-benchmarks of the hot paths (true pytest-benchmark timing).

These complement the table/figure reproductions: they measure raw
throughput of the greedy hitting-set solver, the two engines and the
multicast forwarding so performance regressions are visible.

``BENCH_MICRO_TUPLES`` scales the engine/replay trace lengths (default
1000) so CI smoke jobs can run tiny sizes just to catch perf-path
import or interface errors.
"""

import os
import random
import time

from repro.core.candidates import CandidateSet
from repro.core.engine import GroupAwareEngine, SelfInterestedEngine
from repro.core.hitting_set import greedy_hitting_set
from repro.core.tuples import StreamTuple
from repro.filters.delta import DeltaCompressionFilter
from repro.filters.spec import parse_group
from repro.net.multicast import ScribeMulticast
from repro.net.overlay import OverlayNetwork
from repro.sources import namos_trace

SPECS = [
    "DC1(tmpr4, 0.0620, 0.0310)",
    "DC1(tmpr4, 0.0480, 0.0240)",
    "DC1(tmpr4, 0.0310, 0.0155)",
]

N_TUPLES = int(os.environ.get("BENCH_MICRO_TUPLES", "1000"))


def _hitting_instance(n_sets=40, set_size=6, universe=120, seed=3):
    rng = random.Random(seed)
    tuples = [
        StreamTuple(seq=i, timestamp=float(i * 10), values={"v": float(i)})
        for i in range(universe)
    ]
    sets = []
    for index in range(n_sets):
        cs = CandidateSet(f"f{index}")
        start = rng.randrange(universe - set_size)
        for item in tuples[start : start + set_size]:
            cs.add(item)
        cs.close()
        sets.append(cs)
    return sets


def test_greedy_hitting_set_throughput(benchmark):
    sets = _hitting_instance()
    selection = benchmark(greedy_hitting_set, sets)
    assert selection.output_size <= len(sets)


def test_group_aware_engine_throughput(benchmark):
    trace = namos_trace(n=N_TUPLES, seed=7)

    def run():
        return GroupAwareEngine(parse_group(SPECS), algorithm="region").run(trace)

    result = benchmark(run)
    assert result.output_count > 0


class _UnsharedDelta(DeltaCompressionFilter):
    """Opted out of the shared first stage: the per-subscriber cost."""

    def sharing_key(self):
        return None


def _group_of_32(distinct: int, step: float, cls=DeltaCompressionFilter):
    """32 DC1 subscribers cycling over ``distinct`` deltas."""
    deltas = [0.031 * (1.0 + step * (i % distinct)) for i in range(32)]
    return [
        cls(f"app{i}", "tmpr4", delta, delta / 2) for i, delta in enumerate(deltas)
    ]


def _best_of(run, rounds=5):
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def test_engine_shared_specs_throughput(benchmark):
    """32 filters over 4 distinct specs (decide-heavy's shape) run 4
    first stages, not 32.

    The gate is relative and in-process: the same group made unshareable
    is timed beside it, so the ratio holds on any runner.  Measured
    0.21-0.24 at CI's 200 tuples and 0.18 at 2 000 (0.31 / 0.24 before
    decisions carried their owners)."""
    trace = namos_trace(n=N_TUPLES, seed=7)

    def run(cls=DeltaCompressionFilter):
        group = _group_of_32(4, 0.5, cls)
        return GroupAwareEngine(group, algorithm="region").run(trace)

    result = benchmark(run)
    assert [e.item.seq for e in result.emissions] == [
        e.item.seq for e in run(_UnsharedDelta).emissions
    ]
    shared, unshared = _best_of(run), _best_of(lambda: run(_UnsharedDelta))
    print(f"\nshared {shared * 1e3:.1f} ms, unshared {unshared * 1e3:.1f} ms")
    assert shared <= 0.4 * unshared


def test_engine_distinct_specs_throughput(benchmark):
    """The control: 32 distinct specs share nothing and must not slow."""
    trace = namos_trace(n=N_TUPLES, seed=7)

    def run():
        group = _group_of_32(32, 0.05)
        return GroupAwareEngine(group, algorithm="region").run(trace)

    result = benchmark(run)
    assert result.output_count > 0


def test_per_candidate_set_engine_throughput(benchmark):
    trace = namos_trace(n=N_TUPLES, seed=7)

    def run():
        return GroupAwareEngine(
            parse_group(SPECS), algorithm="per_candidate_set"
        ).run(trace)

    result = benchmark(run)
    assert result.output_count > 0


def test_self_interested_engine_throughput(benchmark):
    trace = namos_trace(n=N_TUPLES, seed=7)

    def run():
        return SelfInterestedEngine(parse_group(SPECS)).run(trace)

    result = benchmark(run)
    assert result.output_count > 0


def test_multicast_publish_throughput(benchmark):
    overlay = OverlayNetwork([f"n{i}" for i in range(16)])
    multicast = ScribeMulticast(overlay)
    multicast.create_group("g")
    for index in range(16):
        multicast.join("g", f"app{index}", f"n{index}")
    recipients = frozenset(f"app{i}" for i in range(0, 16, 2))

    def publish():
        return multicast.publish("g", "n0", recipients, 64, 0.0)

    receipt = benchmark(publish)
    assert len(receipt.delivery_ms) == 8


def test_trace_generation_throughput(benchmark):
    trace = benchmark(namos_trace, 2 * N_TUPLES, 7)
    assert len(trace) == 2 * N_TUPLES


def test_trace_replay_throughput(benchmark):
    trace = namos_trace(n=2 * N_TUPLES, seed=7)

    def scan():
        total = 0.0
        for item in trace:
            total += item.value("tmpr4")
        return total

    assert benchmark(scan) != 0
