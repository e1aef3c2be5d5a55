"""Adaptive-QoS benchmark: degradation on vs off under a flash crowd.

Replays one declarative scenario (default
``examples/scenarios/flash-crowd.toml``) twice — once with the
degradation ladder armed, once with it stripped — and compares what the
identical overload did to the subscriber population.  The paper's
graceful-degradation claim is exactly this A/B: with server-driven
fallback levels every subscriber rides out the burst at coarser
granularity and recovers; without them the overflow policy sheds
subscribers (or drowns them in drops).

Usable two ways:

* ``python -m pytest benchmarks/bench_qos.py`` — smoke assertions: the
  armed run keeps every subscriber connected, degrades within its
  declared bound and fully recovers; the disarmed replay of the same
  trace sheds at least one subscriber.
* ``python benchmarks/bench_qos.py`` — prints the comparison table,
  writes the ``BENCH_qos.json`` artifact, and (when
  ``BENCH_QOS_REQUIRE_PASS=1``) exits non-zero unless *both* graded
  verdict manifests pass.

Environment knobs (also used by the CI scenario-smoke job):
``BENCH_QOS_SCENARIO`` (scenario file, default the shipped flash-crowd
example), ``BENCH_QOS_OUT`` (artifact directory for the two runs'
manifests/metrics/events, default none), ``BENCH_QOS_REQUIRE_PASS``
(default ``0`` = report only) and ``BENCH_QOS_JSON`` (summary artifact
path, default ``BENCH_qos.json``; set empty to skip writing).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

try:
    import repro  # noqa: F401  (already importable when installed)
except ImportError:  # pragma: no cover - script mode from a source checkout
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.obs.sysinfo import platform_info
from repro.service.scenario import load_scenario_file, run_scenario

_HERE = os.path.dirname(__file__)
SCENARIO = os.environ.get(
    "BENCH_QOS_SCENARIO",
    os.path.join(_HERE, "..", "examples", "scenarios", "flash-crowd.toml"),
)
OUT_DIR = os.environ.get("BENCH_QOS_OUT", "")
REQUIRE_PASS = os.environ.get("BENCH_QOS_REQUIRE_PASS", "0") == "1"


def _run(degradation: bool) -> dict:
    scenario = load_scenario_file(SCENARIO)
    # The events_observed check grades the run's events.jsonl, so every
    # run gets an artifact directory — a throwaway one unless the caller
    # wants the manifests kept.
    base = OUT_DIR or tempfile.mkdtemp(prefix="bench_qos_")
    out = os.path.join(base, scenario.name + ("" if degradation else "-off"))
    return run_scenario(scenario, degradation=degradation, out_dir=out)


def _row(manifest: dict) -> dict:
    summary = manifest["summary"]
    qos = manifest.get("qos") or {}
    expected = len(manifest["expected_subscribers"])
    retained = len(summary.get("final_subscriptions", []))
    wall = summary.get("wall_s") or 0.0
    delivered = summary.get("delivered_tuples", 0)
    return {
        "degradation": manifest["degradation"],
        "passed": manifest["passed"],
        "subscribers": f"{retained}/{expected}",
        "retained": retained,
        "expected": expected,
        "delivered_tuples": delivered,
        "delivered_tps": round(delivered / wall, 1) if wall > 0 else 0.0,
        "dropped_tuples": summary.get("dropped_tuples", 0),
        "max_level": qos.get("max_level", 0),
        "degrades": qos.get("degraded_events", 0),
        "recoveries": qos.get("recovered_events", 0),
        "recovery_time_s": qos.get("recovery_time_s"),
        "wall_s": wall,
        "failed_checks": [
            c["name"] for c in manifest["checks"] if not c["ok"]
        ],
    }


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------
def test_degradation_keeps_every_subscriber():
    manifest = _run(degradation=True)
    assert manifest["passed"], [c for c in manifest["checks"] if not c["ok"]]
    row = _row(manifest)
    assert row["retained"] == row["expected"], row
    assert row["recovery_time_s"] is not None, row


def test_same_burst_sheds_without_degradation():
    manifest = _run(degradation=False)
    assert manifest["passed"], [c for c in manifest["checks"] if not c["ok"]]
    row = _row(manifest)
    assert row["retained"] < row["expected"], row


# ---------------------------------------------------------------------------
# script mode
# ---------------------------------------------------------------------------
def main() -> int:
    scenario = load_scenario_file(SCENARIO)
    print(
        f"qos A/B: scenario {scenario.name!r} "
        f"({scenario.config.duration_s}s x2, "
        f"ladder of {len(scenario.config.degradation_levels)} fallback "
        f"levels vs none)"
    )
    rows = []
    for armed in (True, False):
        manifest = _run(degradation=armed)
        row = _row(manifest)
        rows.append(row)
        recovery = (
            f"{row['recovery_time_s']:.2f}s"
            if row["recovery_time_s"] is not None
            else "-"
        )
        print(
            f"  degradation={'on ' if armed else 'off'}: "
            f"verdict={'PASS' if row['passed'] else 'FAIL'} "
            f"subscribers={row['subscribers']} "
            f"delivered={row['delivered_tuples']} "
            f"({row['delivered_tps']:.0f} tps) "
            f"dropped={row['dropped_tuples']} "
            f"max_level={row['max_level']} recovery={recovery}"
        )
        if row["failed_checks"]:
            print(f"    failed checks: {', '.join(row['failed_checks'])}")
    on, off = rows
    survived = on["retained"] == on["expected"]
    shed = off["expected"] - off["retained"]
    print(
        f"  verdict: armed run "
        f"{'retained all' if survived else 'LOST'} subscribers at "
        f"max level {on['max_level']}; disarmed replay shed {shed}"
    )
    artifact = os.environ.get("BENCH_QOS_JSON", "BENCH_qos.json")
    if artifact:
        with open(artifact, "w", encoding="utf-8") as stream:
            json.dump(
                {
                    "scenario": scenario.name,
                    "file": os.path.relpath(SCENARIO),
                    "rows": rows,
                    "platform": platform_info(),
                },
                stream,
                indent=2,
            )
            stream.write("\n")
        print(f"artifact written to {artifact}")
    if REQUIRE_PASS and not all(row["passed"] for row in rows):
        print("FAIL: a graded verdict manifest did not pass")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
