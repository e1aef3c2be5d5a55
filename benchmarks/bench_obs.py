"""Telemetry overhead gate: observability must stay nearly free.

Runs the closed-loop TCP load generator twice over the same offered
trace — telemetry disabled (``trace_sample=0``) vs the default ~1/256
stage sampling — and compares delivered tuples/sec.  The instrumented
pipeline runs every hot-path hook (counter bumps, deterministic sample
checks, the occasional trace stamp), so the delta is the real cost of
shipping ``/metrics``, ``/events`` and stage traces always-on.

Usable two ways:

* ``python -m pytest benchmarks/bench_obs.py`` — smoke assertions: both
  cells finish cleanly and the instrumented run actually produced a
  ``stage_latency`` block;
* ``python benchmarks/bench_obs.py`` — prints the comparison, writes a
  ``BENCH_obs.json`` artifact, and fails (exit 1) when the overhead
  exceeds the gate.

Each cell is run ``BENCH_OBS_REPEATS`` times and the *best* throughput
per cell is compared — best-of-N is the standard defense against a
noisy shared runner penalizing whichever cell a scheduling hiccup hit.

Environment knobs:
``BENCH_OBS_RATE`` (offered tuples/sec, default ``50000``),
``BENCH_OBS_DURATION`` (seconds per cell, default ``1.5``),
``BENCH_OBS_SIZE`` (subscriber preset, default ``tiny``),
``BENCH_OBS_REPEATS`` (runs per cell, default ``3``),
``BENCH_OBS_SAMPLE`` (instrumented sampling period, default ``256``),
``BENCH_OBS_MAX_OVERHEAD_PCT`` (gate, default ``3``; ``0`` reports
without failing),
``BENCH_OBS_MAX_WATCH_OVERHEAD_PCT`` (Watchtower gate vs the sampled
cell, default ``2``; ``0`` reports without failing),
``BENCH_OBS_JSON`` (artifact path, default ``BENCH_obs.json``; set
empty to skip writing).

A third cell runs the sampled pipeline with the in-run Watchtower
polling at 1 Hz — the analysis layer must cost <2% delivered
throughput on top of plain telemetry.
"""

from __future__ import annotations

import json
import os
import sys

try:
    import repro  # noqa: F401  (already importable when installed)
except ImportError:  # pragma: no cover - script mode from a source checkout
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.obs.sysinfo import platform_info
from repro.service.loadgen import LoadGenConfig, run_loadgen

RATE = float(os.environ.get("BENCH_OBS_RATE", "50000"))
DURATION_S = float(os.environ.get("BENCH_OBS_DURATION", "1.5"))
SIZE = os.environ.get("BENCH_OBS_SIZE", "tiny")
REPEATS = int(os.environ.get("BENCH_OBS_REPEATS", "3"))
SAMPLE = int(os.environ.get("BENCH_OBS_SAMPLE", "256"))
MAX_OVERHEAD_PCT = float(os.environ.get("BENCH_OBS_MAX_OVERHEAD_PCT", "3"))
MAX_WATCH_OVERHEAD_PCT = float(
    os.environ.get("BENCH_OBS_MAX_WATCH_OVERHEAD_PCT", "2")
)


def _cell_config(trace_sample: int, watch: bool = False) -> LoadGenConfig:
    return LoadGenConfig(
        rate=RATE,
        duration_s=DURATION_S,
        size=SIZE,
        mode="closed",
        transport="tcp",
        ingest_batch=16,
        adaptive_batch=False,
        trace_sample=trace_sample,
        watch=watch,
        watch_interval_s=1.0,
    )


def _delivered_tps(summary: dict) -> float:
    wall = summary["wall_s"]
    return summary["delivered_tuples"] / wall if wall > 0 else 0.0


def _run_cell(
    trace_sample: int, repeats: int = REPEATS, watch: bool = False
) -> dict:
    """Best-of-N throughput for one sampling period."""
    best: dict | None = None
    for _ in range(max(1, repeats)):
        summary = run_loadgen(_cell_config(trace_sample, watch=watch))
        if not summary["clean_shutdown"]:
            raise RuntimeError(
                f"unclean loadgen shutdown: {summary['errors']}"
            )
        if best is None or _delivered_tps(summary) > _delivered_tps(best):
            best = summary
    return best


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------
def test_telemetry_off_and_on_both_clean():
    off = run_loadgen(_cell_config(0))
    on = run_loadgen(_cell_config(SAMPLE))
    assert off["clean_shutdown"] and on["clean_shutdown"]
    assert off["stage_latency"] is None
    assert on["stage_latency"] is not None
    assert off["delivered_tuples"] > 0 and on["delivered_tuples"] > 0


def test_watchtower_cell_clean_and_reports_health():
    watched = run_loadgen(_cell_config(SAMPLE, watch=True))
    assert watched["clean_shutdown"], watched["errors"]
    assert watched["delivered_tuples"] > 0
    health = watched["health"]
    assert health is not None and health["schema"] == "repro-health/v1"
    assert health["verdicts"], health


# ---------------------------------------------------------------------------
# script mode
# ---------------------------------------------------------------------------
def main() -> int:
    print(
        f"telemetry overhead: {REPEATS}x best-of per cell, "
        f"{DURATION_S}s closed-loop tcp @ {RATE:.0f} tps offered "
        f"(size={SIZE}, sample=1/{SAMPLE})"
    )
    baseline = _run_cell(0)
    sampled = _run_cell(SAMPLE)
    watched = _run_cell(SAMPLE, watch=True)
    base_tps = _delivered_tps(baseline)
    obs_tps = _delivered_tps(sampled)
    watch_tps = _delivered_tps(watched)
    overhead_pct = (
        (base_tps - obs_tps) / base_tps * 100.0 if base_tps > 0 else 0.0
    )
    watch_overhead_pct = (
        (obs_tps - watch_tps) / obs_tps * 100.0 if obs_tps > 0 else 0.0
    )
    print(
        f"disabled: {base_tps:>9.0f} delivered tps "
        f"({baseline['delivered_tuples']} in {baseline['wall_s']}s)"
    )
    print(
        f"sampled:  {obs_tps:>9.0f} delivered tps "
        f"({sampled['delivered_tuples']} in {sampled['wall_s']}s)"
    )
    print(
        f"watched:  {watch_tps:>9.0f} delivered tps "
        f"({watched['delivered_tuples']} in {watched['wall_s']}s, "
        f"health={watched['health']['status'] if watched['health'] else '-'})"
    )
    print(f"overhead: {overhead_pct:+.2f}% (gate: <{MAX_OVERHEAD_PCT}%)")
    print(
        f"watchtower overhead: {watch_overhead_pct:+.2f}% "
        f"(gate: <{MAX_WATCH_OVERHEAD_PCT}%)"
    )
    traced = sum(
        stage.get("count", 0)
        for stage in (sampled["stage_latency"] or {}).values()
    )
    print(f"stage samples collected under sampling: {traced}")
    artifact = os.environ.get("BENCH_OBS_JSON", "BENCH_obs.json")
    if artifact:
        row = {
            "rate_tps": RATE,
            "duration_s": DURATION_S,
            "size": SIZE,
            "repeats": REPEATS,
            "trace_sample": SAMPLE,
            "baseline_delivered_tps": round(base_tps, 1),
            "sampled_delivered_tps": round(obs_tps, 1),
            "watched_delivered_tps": round(watch_tps, 1),
            "overhead_pct": round(overhead_pct, 3),
            "watch_overhead_pct": round(watch_overhead_pct, 3),
            "max_overhead_pct": MAX_OVERHEAD_PCT,
            "max_watch_overhead_pct": MAX_WATCH_OVERHEAD_PCT,
            "stage_latency": sampled["stage_latency"],
            "health": watched["health"],
            "platform": platform_info(),
        }
        with open(artifact, "w", encoding="utf-8") as stream:
            json.dump([row], stream, indent=2)
            stream.write("\n")
        print(f"trajectory written to {artifact}")
    if MAX_OVERHEAD_PCT > 0 and overhead_pct > MAX_OVERHEAD_PCT:
        print(
            f"FAIL: telemetry overhead {overhead_pct:.2f}% exceeds "
            f"{MAX_OVERHEAD_PCT}%"
        )
        return 1
    if (
        MAX_WATCH_OVERHEAD_PCT > 0
        and watch_overhead_pct > MAX_WATCH_OVERHEAD_PCT
    ):
        print(
            f"FAIL: watchtower overhead {watch_overhead_pct:.2f}% exceeds "
            f"{MAX_WATCH_OVERHEAD_PCT}%"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
