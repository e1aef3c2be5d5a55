"""A/A self-check: two interleaved sets of runs of this same checkout.

Mirrors what the driver does before it accepts the benchmark: runs with
different seeds, each in a fresh process; per metric the inter-quartile
range as a share of the median, and the second set's median against the
first's, both held against the metric's bound.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

from repro.obs.sysinfo import platform_info

from harness import stats, sut
from harness.measure import END_TO_END
from harness.workloads import WORKLOADS

__all__ = ["run"]


def _one_run(args, script: Path, out_dir: Path, name: str, seed: int):
    """One fresh-process run; returns (end-to-end metrics, manifest)."""
    command = [
        sys.executable, str(script),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", "0",
        "--scale", str(args.scale), "--setups", str(args.setups),
        "--golden-dir", args.golden_dir,
    ]
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        return None
    result = json.loads(done.stdout.strip().splitlines()[-1])
    manifest = json.loads(
        (out_dir / f"{name}.seed-{seed}.manifest.json").read_text()
    )
    return result["metrics"], manifest


def run(args, script: Path, out_dir: Path) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    seeds = [args.seed + i for i in range(args.runs)]
    sets = {
        name: {label: {key: [] for key in END_TO_END} for label in "AB"}
        for name in names
    }
    spins: list[float] = []
    invalid = 0
    for seed in seeds:
        for label in "AB":
            for name in names:
                started = time.perf_counter()
                outcome = _one_run(args, script, out_dir, name, seed)
                if outcome is None:
                    print(f"selfcheck: {name} seed {seed} failed")
                    return 1
                metrics, manifest = outcome
                invalid += not manifest["valid"]
                for key in ("host.spin_ms_before", "host.spin_ms_after"):
                    spins.append(manifest["per_layer"][key]["value"])
                for key, metric in metrics.items():
                    sets[name][label][key].append(metric["value"])
                note = "" if manifest["valid"] else "  INVALID " + "; ".join(
                    manifest["validity_flags"]
                )
                print(
                    f"  {label} {name:<14} seed {seed:<5} "
                    f"{time.perf_counter() - started:5.1f} s{note}",
                    flush=True,
                )
    plan = sut.cpu_plan()
    print()
    print(f"platform: {json.dumps(platform_info())}")
    print(f"pinned: {plan.pinned}  generator cpus {list(plan.generator)}  "
          f"server cpus {list(plan.server)}")
    print(f"host.spin_ms range: {min(spins):.1f} .. {max(spins):.1f}")
    print(f"runs per set: {args.runs}  seeds {seeds[0]}..{seeds[-1]}  "
          f"invalid runs: {invalid}")
    print()
    header = (
        f"| {'workload':<14} | {'metric':<28} | {'A q1':>8} | {'A med':>8} | "
        f"{'A q3':>8} | {'B q1':>8} | {'B med':>8} | {'B q3':>8} | "
        f"{'B worse':>7} | {'IQR/med':>7} | {'bound':>5} | ok |"
    )
    print(header)
    print("|" + "|".join("-" * len(c) for c in header.split("|")[1:-1]) + "|")
    failed = False
    for name in names:
        for key, (unit, better, bound) in END_TO_END.items():
            a, b = sets[name]["A"][key], sets[name]["B"][key]
            a1, am, a3 = stats.quartiles(a)
            b1, bm, b3 = stats.quartiles(b)
            worse = (bm - am) / am if better == "lower" else (am - bm) / am
            iqr = max(stats.spread(a), stats.spread(b))
            # The driver exempts setup_s from the spread check only.
            ok = worse <= bound and (key == "setup_s" or iqr <= bound)
            failed |= not ok
            print(
                f"| {name:<14} | {key + ' (' + unit + ')':<28} | {a1:>8.5g} | "
                f"{am:>8.5g} | {a3:>8.5g} | {b1:>8.5g} | {bm:>8.5g} | "
                f"{b3:>8.5g} | {worse:>+7.1%} | {iqr:>7.1%} | {bound:>5.0%} | "
                f"{'ok' if ok else 'NO'} |"
            )
    return 1 if failed else 0
