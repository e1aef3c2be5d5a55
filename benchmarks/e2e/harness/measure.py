"""One measured pass of one workload, and the metrics read off it."""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from harness import stats
from harness.generator import WINDOW_S, Session, SpanRecorder, drive
from harness.sut import CpuPlan, ServerTree, TreeUsage, spin_ms
from harness.workloads import (
    Inputs,
    load_golden,
    reference_digests,
    stream_digest,
)

__all__ = [
    "END_TO_END",
    "Pass",
    "measured_pass",
    "setup_only",
    "verify",
    "validity_flags",
    "end_to_end_metrics",
    "run_level_metrics",
]

#: name -> (unit, better, bound).  The bound is the relative worsening
#: of a median that counts as a regression; BENCHMARK.json carries the
#: same values.  The time-based bounds are as wide as the contract
#: allows because the A/A spread of the reference host demands it (see
#: README, "A/A"); memory repeats to a fraction of a percent.  The p90
#: of delivery latency is reported per layer, ungated: its A/A spread
#: here reaches 30-40 %, beyond any bound the contract permits.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "delivered_tps": ("1/s", "higher", 0.25),
    "delivery_ms_p50": ("ms", "lower", 0.25),
    "server_cpu_us_per_tuple": ("us", "lower", 0.25),
    "server_peak_rss_mb": ("MB", "lower", 0.05),
}

#: Validity thresholds (see README, "Validity guards").
GEN_CPU_UTIL_MAX = 0.85
SERVER_CPU_UTIL_MIN = 0.95
LATE_P99_MS_MAX = 5.0
SPIN_DRIFT_MAX = 0.05
#: Open loop: frames still unacknowledged when the last one is sent, as
#: seconds of schedule.
BACKLOG_S_MAX = 0.1


@dataclass
class Pass:
    """Raw observations of one set-up + measured phase + drain."""

    inputs: Inputs
    plan: CpuPlan
    session: Session
    setup_s: float
    usage_ready: TreeUsage
    usage_end: TreeUsage
    gen_cpu_s: float
    spin_before_ms: float
    spin_after_ms: float
    stopped: dict
    #: The process the harness exec'd (the router when there are workers).
    router_pid: int

    @property
    def wall_s(self) -> float:
        return self.session.phase.ended - self.session.phase.started

    @property
    def delivered_in_phase(self) -> int:
        return sum(len(sink.latencies) for sink in self.session.sinks.values())

    @cached_property
    def latency(self) -> dict:
        """Summary of every delivery latency sampled in the phase (seconds)."""
        merged: list = []
        for sink in self.session.sinks.values():
            merged.extend(sink.latencies)
        return stats.summarize(merged)

    @cached_property
    def cpu_s(self) -> dict[int, float]:
        """CPU seconds each server process burned during the measured phase."""
        samples = self.session.phase.samples
        begin, end = samples[0].server_cpu_s, samples[-1].server_cpu_s
        return {pid: end[pid] - begin.get(pid, 0.0) for pid in end}

    @property
    def server_cpu_us_per_tuple(self) -> float:
        return sum(self.cpu_s.values()) / self.inputs.measured_tuples * 1e6

    @cached_property
    def windows(self) -> list[dict]:
        """The measured phase, window by window (a diagnostic: it shows
        bursts of host noise and how cost drifts as state accumulates).

        The tail after the last full window is left out when it is
        shorter than half a window; a phase too short to hold one window
        (scaled-down test runs) is taken whole.
        """
        samples = self.session.phase.samples
        windows = [
            self._window(before, after)
            for before, after in zip(samples, samples[1:])
            if after.at - before.at >= WINDOW_S / 2
        ]
        windows = [w for w in windows if w is not None]
        if not windows:
            whole = self._window(samples[0], samples[-1])
            if whole is None:
                raise RuntimeError("measured phase delivered too little to report on")
            windows = [whole]
        return windows

    def _window(self, before, after) -> Optional[dict]:
        """Rates and latency percentiles between two samples of the phase."""
        sinks = self.session.sinks
        latencies: list = []
        for app, upto in after.delivered.items():
            latencies.extend(
                sinks[app].latencies[before.delivered.get(app, 0) : upto]
            )
        acked = after.acked_tuples - before.acked_tuples
        if not acked or len(latencies) < 2 * stats.MIN_SAMPLES_BEYOND:
            return None
        latencies.sort()
        cpu = sum(after.server_cpu_s.values()) - sum(before.server_cpu_s.values())
        return {
            "delivered_tps": len(latencies) / (after.at - before.at),
            "cpu_us_per_tuple": cpu / acked * 1e6,
            "p50_ms": stats.percentile(latencies, 50.0) * 1e3,
            "p90_ms": stats.percentile(latencies, 90.0) * 1e3,
        }


def _serve(inputs: Inputs, plan: CpuPlan, *, measure: bool, recorder=None):
    """Start a server, drive it, stop it.  Returns the raw pieces."""
    server = ServerTree(
        inputs.workload, [src.name for src in inputs.sources], plan
    )
    marks: dict = {}
    exec_at = time.perf_counter()

    def probe(event: str):
        if event == "sample":
            return server.cpu_s()
        if event == "ready":
            marks["setup_s"] = time.perf_counter() - exec_at
            marks["usage_ready"] = server.usage()
            if measure:
                marks["spin_before"] = spin_ms(plan)
        elif event == "begin":
            marks["gen_cpu"] = time.process_time()
        else:
            marks["gen_cpu"] = time.process_time() - marks["gen_cpu"]
            marks["usage_end"] = server.usage()
        return None

    try:
        server.start()
        marks["router_pid"] = server.pgid
        session = asyncio.run(
            drive(
                inputs, server.port, probe=probe, recorder=recorder, measure=measure
            )
        )
    finally:
        stopped = server.stop()
    return session, marks, stopped


def setup_only(inputs: Inputs, plan: CpuPlan) -> float:
    """One more sample of ``setup_s``: set up, warm up, tear down."""
    _, marks, _ = _serve(inputs, plan, measure=False)
    return marks["setup_s"]


def measured_pass(inputs: Inputs, plan: CpuPlan, *, traced: bool = False) -> Pass:
    recorder = SpanRecorder() if traced else None
    session, marks, stopped = _serve(inputs, plan, measure=True, recorder=recorder)
    return Pass(
        inputs=inputs,
        plan=plan,
        session=session,
        setup_s=marks["setup_s"],
        usage_ready=marks["usage_ready"],
        usage_end=marks["usage_end"],
        gen_cpu_s=marks["gen_cpu"],
        spin_before_ms=marks["spin_before"],
        # The server is gone by now, so its CPUs are idle again.
        spin_after_ms=spin_ms(plan),
        stopped=stopped,
        router_pid=marks["router_pid"],
    )


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------
def verify(run: Pass, golden_dir) -> dict:
    """Compare every app's delivered stream with the golden or, for a
    seed without one, with the reference computed now.

    A failed operation counts against ``ops_attempted``; so does every
    delivered tuple missing or extra, and every tuple the server's
    terminal snapshot says it dropped.
    """
    inputs = run.inputs
    expected = load_golden(inputs, golden_dir)
    source = "golden"
    if expected is None:
        expected = reference_digests(inputs)
        source = "computed"
    sinks = run.session.sinks
    mismatched = []
    tuple_errors = 0
    expected_tuples = 0
    for app in sorted(set(expected) | set(sinks)):
        want = expected.get(app, {"count": 0, "blake2b": None})
        sink = sinks.get(app)
        got_count = len(sink.seqs) if sink is not None else 0
        expected_tuples += want["count"]
        if got_count != want["count"]:
            tuple_errors += abs(got_count - want["count"])
            mismatched.append(app)
        elif got_count and stream_digest(sink.seqs, sink.values) != want["blake2b"]:
            tuple_errors += 1
            mismatched.append(app)
    phase = run.session.phase
    snapshot = run.stopped["snapshot"] or {}
    dropped = int(snapshot.get("dropped_tuples", 0))
    attempted = phase.frames_attempted + phase.ops_attempted + expected_tuples
    failed = phase.frames_failed + phase.ops_failed + tuple_errors + dropped
    clean = bool(run.stopped["clean"])
    return {
        "reference": source,
        "apps": len(expected),
        "expected_tuples": expected_tuples,
        "delivered_tuples": sum(len(s.seqs) for s in sinks.values()),
        "mismatched_apps": mismatched[:8],
        "dropped_tuples": dropped,
        "clean_shutdown": clean,
        "stranded_pids": run.stopped["stranded"],
        "ops_attempted": attempted,
        "ops_failed": failed,
        "errors": phase.errors,
        "correct": not mismatched and dropped == 0 and clean and failed == 0,
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
def _ms(summary: dict, key: str) -> Optional[float]:
    value = summary[key]
    return None if value is None else value * 1e3


def _median(values: list) -> float:
    return stats.percentile(sorted(values), 50.0)


def end_to_end_metrics(run: Pass, setup_samples: list[float]) -> dict:
    """The end-to-end metrics, each over the whole measured phase."""
    return {
        "setup_s": _median(setup_samples),
        "delivered_tps": run.delivered_in_phase / run.wall_s,
        "delivery_ms_p50": _ms(run.latency, "p50"),
        "server_cpu_us_per_tuple": run.server_cpu_us_per_tuple,
        "server_peak_rss_mb": run.usage_end.hwm_kb / 1024.0,
    }


def _cpu_growth(run: Pass) -> Optional[float]:
    """CPU per tuple in the last quarter of the phase's windows over that
    in the first quarter: how much dearer a tuple gets as state piles up."""
    costs = [w["cpu_us_per_tuple"] for w in run.windows]
    quarter = len(costs) // 4
    if quarter < 1:
        return None
    first, last = costs[:quarter], costs[-quarter:]
    return (sum(last) / quarter) / (sum(first) / quarter)


def run_level_metrics(run: Pass) -> dict:
    """Per-layer numbers every pass yields at no extra cost.

    Values are ``(number | None, unit)``; ``None`` means the metric does
    not apply to this workload.
    """
    phase = run.session.phase
    workload = run.inputs.workload
    tuples = run.inputs.measured_tuples
    wall = run.wall_s
    latency = run.latency
    ack = stats.summarize(phase.ack_s)
    cpu = dict(run.cpu_s)
    metrics = {
        "gen.cpu_util": (run.gen_cpu_s / wall, "ratio"),
        "gen.cpu_us_per_tuple": (run.gen_cpu_s / tuples * 1e6, "us"),
        "host.spin_ms_before": (run.spin_before_ms, "ms"),
        "host.spin_ms_after": (run.spin_after_ms, "ms"),
        "server.cpu_util": (sum(cpu.values()) / wall, "ratio"),
        "server.cpu_growth_ratio": (_cpu_growth(run), "ratio"),
        "server.rss_growth_kb_per_ktuple": (
            (run.usage_end.rss_kb - run.usage_ready.rss_kb) / tuples * 1e3,
            "kB/ktuple",
        ),
        "client.ack_ms_p50": (_ms(ack, "p50"), "ms"),
        "client.ack_ms_p90": (_ms(ack, "p90"), "ms"),
        "e2e.delivery_ms_p90": (_ms(latency, "p90"), "ms"),
        "e2e.delivery_ms_p99": (_ms(latency, "p99"), "ms"),
        "e2e.delivery_samples": (latency["count"], "count"),
        "e2e.phase_wall_s": (wall, "s"),
    }
    if workload.loop == "open":
        late = stats.summarize(phase.late_s)
        ops = stats.summarize(phase.op_s)
        scheduled_s = run.inputs.sources[0].measured / workload.tuples_per_second
        metrics.update(
            {
                "gen.late_ms_p50": (_ms(late, "p50"), "ms"),
                "gen.late_ms_p99": (_ms(late, "p99"), "ms"),
                "gen.schedule_ratio": (scheduled_s / wall, "ratio"),
                "gen.backlog_frames_max": (phase.backlog_max, "count"),
                "gen.backlog_frames_at_end": (phase.backlog_at_end, "count"),
                "client.churn_op_ms_p50": (_ms(ops, "p50"), "ms"),
                "client.churn_op_ms_p90": (_ms(ops, "p90"), "ms"),
            }
        )
    if workload.workers > 1:
        # The router is the process the harness exec'd; the rest are
        # its workers.
        router = cpu.pop(run.router_pid, 0.0)
        workers = sorted(cpu.values(), reverse=True)[: workload.workers]
        mean = sum(workers) / len(workers) if workers else 0.0
        metrics.update(
            {
                "cluster.router_cpu_us_per_tuple": (router / tuples * 1e6, "us"),
                "cluster.worker_cpu_us_per_tuple": (
                    sum(workers) / tuples * 1e6,
                    "us",
                ),
                "cluster.worker_cpu_skew": (
                    max(workers) / mean if mean else None,
                    "ratio",
                ),
            }
        )
    return metrics


def validity_flags(run: Pass, metrics: dict) -> tuple[list[str], list[str]]:
    """``(invalid, warnings)``: reasons this pass's numbers should not be
    trusted, and conditions worth knowing when comparing it with others.

    An ``invalid`` reason means the harness, not the server, shaped the
    numbers; the pass is retried once.  ``unstable`` (host speed moved
    under the phase) is a warning only: a retry on the same host is as
    likely to be flagged again, and comparisons are interleaved so that
    drift hits both sides alike.
    """
    workload = run.inputs.workload
    invalid, warnings = [], []
    before, after = run.spin_before_ms, run.spin_after_ms
    if abs(after - before) / min(before, after) > SPIN_DRIFT_MAX:
        warnings.append(
            f"unstable: host spin {before:.1f} ms before, {after:.1f} ms after"
        )
    if workload.loop == "closed":
        gen_util = metrics["gen.cpu_util"][0]
        if gen_util > GEN_CPU_UTIL_MAX:
            invalid.append(f"generator-bound: gen.cpu_util {gen_util:.2f}")
        server_util = metrics["server.cpu_util"][0]
        # Unpinned, generator and server share CPUs and the server
        # cannot be shown to be the bottleneck.
        if run.plan.pinned and server_util < SERVER_CPU_UTIL_MIN:
            invalid.append(f"not-saturated: server.cpu_util {server_util:.2f}")
    else:
        late = metrics["gen.late_ms_p99"][0]
        if late is not None and late > LATE_P99_MS_MAX:
            invalid.append(f"late-generator: gen.late_ms_p99 {late:.2f} ms")
        limit = BACKLOG_S_MAX * workload.tuples_per_second
        backlog = run.session.phase.backlog_at_end
        if backlog > limit:
            invalid.append(
                f"backlog-growing: {backlog} frames unacknowledged at the "
                f"end of the schedule (limit {limit:.0f})"
            )
    return invalid, warnings
