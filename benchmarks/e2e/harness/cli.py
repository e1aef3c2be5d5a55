"""Commands behind ``benchmarks/e2e/run.py``: run, selfcheck, regen-golden."""

from __future__ import annotations

import argparse
import atexit
import json
import signal
import subprocess
import sys
from pathlib import Path

from repro.obs.sysinfo import platform_info

from harness import measure, sut
from harness.workloads import (
    GOLDEN_DIR,
    GOLDEN_SEEDS,
    WORKLOADS,
    build_inputs,
    write_golden,
)

HERE = Path(__file__).resolve().parents[1]
REPO_ROOT = sut.REPO_ROOT
OUT_DIR = HERE / "out"

#: ``run_seconds`` of BENCHMARK.json: the default of ``--seconds``, and
#: the sizing the committed goldens were generated for.
RUN_SECONDS = 12

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def _print_metrics(title: str, metrics: dict) -> None:
    print(f"  {title}")
    for name, (value, unit) in metrics.items():
        print(f"    {name:<40} {_fmt(value):>14} {unit}")


def run_workload(args, name: str) -> dict:
    """Run one workload once; returns its manifest (also written out)."""
    workload = WORKLOADS[name]
    plan = sut.cpu_plan()
    sut.pin_generator(plan)
    inputs = build_inputs(workload, args.seed, args.seconds, args.scale)
    golden_dir = Path(args.golden_dir)
    traced = bool(args.trace)

    # Set-up alone, repeated: one set-up is too short to repeat well.
    setup_samples = [
        measure.setup_only(inputs, plan) for _ in range(args.setups - 1)
    ]

    attempts = []
    for _ in range(2):
        run = measure.measured_pass(inputs, plan)
        verdict = measure.verify(run, golden_dir)
        layer = measure.run_level_metrics(run)
        flags, warnings = measure.validity_flags(run, layer)
        attempts.append(
            {"invalid": flags, "warnings": warnings, "correct": verdict["correct"]}
        )
        setup_samples.append(run.setup_s)
        # A wrong answer is never retried away; an invalid pass is, once.
        # Scaled-down runs exist to test the harness, not to be valid.
        if not flags or not verdict["correct"] or args.scale != 1.0:
            break
    end_to_end = measure.end_to_end_metrics(run, setup_samples)

    trace_report = None
    if traced and verdict["correct"]:
        from harness import layers

        trace_report = layers.traced_report(inputs, plan, run, golden_dir, OUT_DIR)
        layer.update(trace_report["metrics"])
        for key, (unit, _) in layers.PER_LAYER.items():
            # A skipped layer still has a row: no value, and the reason
            # in the trace summary.
            layer.setdefault(key, (None, unit))
        if not trace_report["summary"]["traced_pass"]["correct"]:
            verdict["correct"] = False
            verdict["errors"].append("the traced pass delivered a wrong stream")

    manifest = {
        "schema": "repro-e2e-bench/v1",
        "workload": name,
        "why": workload.why,
        "config": {
            "seed": args.seed,
            "seconds": args.seconds,
            "scale": args.scale,
            "setups": args.setups,
            "traced": traced,
            "workload": vars(workload),
            "server_command": sut.server_command(
                workload, [s.name for s in inputs.sources]
            )[1:],
        },
        "git_sha": _git_sha(),
        "platform": platform_info(),
        "pinned": plan.pinned,
        "generator_cpus": list(plan.generator),
        "server_cpus": list(plan.server),
        "tuples": {
            "warmup": inputs.warmup_tuples,
            "measured": inputs.measured_tuples,
            "control_ops": len(inputs.ops),
            "schedule_digest": inputs.schedule_digest,
        },
        "setup_samples_s": setup_samples,
        "windows": run.windows,
        "attempts": attempts,
        "valid": not flags,
        "validity_flags": flags,
        "warnings": warnings,
        "verdict": verdict,
        "end_to_end": {
            key: {"value": value, "unit": measure.END_TO_END[key][0]}
            for key, value in end_to_end.items()
        },
        "per_layer": {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in layer.items()
        },
    }
    if trace_report is not None:
        manifest["trace"] = trace_report["summary"]

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}.seed-{args.seed}.manifest.json"
    path.write_text(json.dumps(manifest, indent=1) + "\n")

    print(f"== {name}  seed {args.seed}  {inputs.measured_tuples} tuples"
          f"  pinned={plan.pinned} ==")
    if not verdict["correct"]:
        print(f"  INCORRECT: {json.dumps(verdict)}")
        return manifest
    _print_metrics(
        "end to end",
        {k: (v, measure.END_TO_END[k][0]) for k, v in end_to_end.items()},
    )
    _print_metrics("per layer", layer)
    if trace_report is not None:
        print(trace_report["text"])
    print(
        f"  ops_attempted {verdict['ops_attempted']}  ops_failed "
        f"{verdict['ops_failed']}  reference {verdict['reference']}  "
        f"delivered {verdict['delivered_tuples']} tuples to {verdict['apps']} apps"
    )
    for flag in flags:
        print(f"  INVALID RUN (after one retry): {flag}")
    for warning in warnings:
        print(f"  warning: {warning}")
    print(f"  manifest: {path.relative_to(REPO_ROOT)}")
    return manifest


def _result_line(manifest: dict, traced: bool) -> str:
    """The driver's contract: one JSON object, last line of stdout."""
    verdict = manifest["verdict"]
    if traced:
        from harness import layers

        block = {
            name: manifest["per_layer"][name] for name in layers.PER_LAYER
        }
        # A layer that was skipped, or a percentile the sample does not
        # support, has no number; the contract wants one for every name.
        metrics = {
            name: {"value": 0.0 if m["value"] is None else m["value"],
                   "unit": m["unit"]}
            for name, m in block.items()
        }
    else:
        metrics = manifest["end_to_end"]
    return json.dumps(
        {
            "correct": verdict["correct"],
            "attempted": verdict["ops_attempted"],
            "failed": verdict["ops_failed"],
            "metrics": metrics,
        }
    )


def cmd_run(args) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    status = 0
    for name in names:
        manifest = run_workload(args, name)
        if not manifest["verdict"]["correct"]:
            # No metrics for a workload whose output is wrong.
            status = 1
            continue
        print(_result_line(manifest, bool(args.trace)), flush=True)
    return status


def cmd_regen_golden(args) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        for seed in GOLDEN_SEEDS:
            inputs = build_inputs(WORKLOADS[name], seed, args.seconds, args.scale)
            path = write_golden(inputs, Path(args.golden_dir))
            print(f"wrote {path}")
    return 0


def _on_sigterm(*_) -> None:
    """Unwind like Ctrl-C, so finally-blocks reap the server tree; a
    second SIGTERM must not cut that clean-up short."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    sys.exit(143)


def main(argv, usage: str = "") -> int:
    parser = argparse.ArgumentParser(
        description=usage, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("mode", nargs="?", choices=("run", "selfcheck"), default="run")
    parser.add_argument("--workload", choices=list(WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=float, default=RUN_SECONDS,
        help="sizes the measured phase: tuples = nominal rate x seconds "
        "(fixed work, so outputs repeat exactly)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--traced", dest="trace", action="store_const", const=1,
        help="same as --trace 1: add the traced pass and the layer budget",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink warm-up and measured tuple counts (tests only)",
    )
    parser.add_argument("--setups", type=int, default=SETUPS)
    parser.add_argument("--golden-dir", default=str(GOLDEN_DIR))
    parser.add_argument("--regen-golden", action="store_true")
    parser.add_argument("--runs", type=int, default=5, help="selfcheck: runs per set")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0 or args.setups < 1 or args.runs < 2:
        parser.error("--seconds/--scale must be positive, --setups >= 1, --runs >= 2")

    atexit.register(sut.kill_all_servers)
    signal.signal(signal.SIGTERM, _on_sigterm)

    if args.regen_golden:
        return cmd_regen_golden(args)
    if args.mode == "selfcheck":
        from harness import selfcheck

        return selfcheck.run(args, HERE / "run.py", OUT_DIR)
    return cmd_run(args)


