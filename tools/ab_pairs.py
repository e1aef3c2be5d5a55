#!/usr/bin/env python3
"""Interleaved parent/change pairs of the repository benchmark.

    python tools/ab_pairs.py --base <sha> [--head <ref>] [--workload W]
        [--seed S] [--pairs N] [--seconds 12] [--trace 0|1] [--out DIR]

Extracts ``--base`` and ``--head`` (default ``HEAD``) with ``git archive``
into two temporary directories (under ``$TMPDIR``) and runs each
extraction's *own* ``benchmarks/e2e/run.py`` alternately: odd pairs run
the base first, even pairs the change first.  Both extractions are
byte-compiled up front, or neither is when ``PYTHONDONTWRITEBYTECODE`` is
set, so no side pays a compile the other does not.  Nothing else should
run meanwhile: the benchmark pins both CPUs of the reference container.

A run whose result line is not ``correct`` with ``failed == 0`` stops
the comparison (exit 1).  Every run goes to
``<out>/<workload>.seed-<s>.jsonl`` as it finishes; the per-metric
median, quartiles, delta and wins/pairs go to the ``.md`` beside it, and
``<out>/README.md`` is rebuilt from every ``.jsonl`` in ``<out>``: the
gated metrics of each comparison and a row for every run behind them.
Uncommitted work is compared with ``--head $(git stash create)``.

This file reads ``BENCHMARK.json`` for the workload names, the metrics'
directions and their bounds, and imports nothing from ``benchmarks/``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "head")
#: ``    name   value unit`` as run.py prints every metric.
_METRIC_LINE = re.compile(r"^\s+([a-z0-9_.]+)\s+(-?[0-9.]+(?:e[-+]?[0-9]+)?) \S+$")


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=REPO_ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _extract(sha: str, into: Path) -> None:
    into.mkdir(parents=True)
    archive = subprocess.Popen(
        ["git", "archive", sha], cwd=REPO_ROOT, stdout=subprocess.PIPE
    )
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        raise SystemExit(f"git archive {sha} failed")
    if not os.environ.get("PYTHONDONTWRITEBYTECODE"):
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", "src", "benchmarks/e2e"],
            cwd=into,
            check=True,
        )


def _run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; the five gated metrics plus every printed one."""
    proc = subprocess.run(
        [
            sys.executable, "benchmarks/e2e/run.py",
            "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace),
        ],  # fmt: skip
        cwd=checkout,
        capture_output=True,
        text=True,
        timeout=1800,
    )
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(
            f"{checkout.name}: no result line (exit {proc.returncode})\n"
            + proc.stdout[-2000:]
            + proc.stderr[-2000:]
        )
    metrics = {m.group(1): float(m.group(2)) for m in map(_METRIC_LINE.match, lines) if m}
    metrics.update({name: m["value"] for name, m in result["metrics"].items()})
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "exit": proc.returncode,
        "notes": [
            ln.strip() for ln in lines if ln.lstrip().startswith(("warning:", "INVALID RUN"))
        ],
        "metrics": metrics,
    }


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _verdict(wins: int, losses: int, pairs: int, delta: float, iqr: float,
             median: float, bound: float | None) -> str:  # fmt: skip
    """Section 8 of the choosing-metrics guide, per metric."""
    if pairs < 4:
        return "too few pairs"
    if abs(delta) > iqr and max(wins, losses) >= 0.9 * pairs:
        return "better" if wins > losses else "worse"
    if bound is not None and median and iqr / abs(median) > bound:
        return "unresolved"
    return "—"


def _title(rows: list[dict]) -> str:
    first = rows[0]
    sha = {row["side"]: row["sha"][:12] for row in rows}
    return (
        f"`{first['workload']}` seed {first['seed']}: `{sha.get('base')}` (base) against "
        f"`{sha.get('head')}` (head), `--seconds {first['seconds']:g} --trace {first['trace']}`"
    )


def _summary(rows: list[dict], spec: dict, title: str, *, gated_only: bool = False) -> str:
    """Markdown table over the finished pairs of one workload."""
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    gated = [m["name"] for m in spec["end_to_end"]]
    by_pair: dict[int, dict[str, dict]] = {}
    for row in rows:
        by_pair.setdefault(row["pair"], {})[row["side"]] = row["metrics"]
    pairs = [p for p in by_pair.values() if len(p) == 2]
    common = set.intersection(*(set(m) for p in pairs for m in p.values())) if pairs else set()
    names = [name for name in gated if name in common]
    if not gated_only:
        names += sorted(common - set(gated))
    out = [
        title,
        "",
        f"{len(pairs)} interleaved pairs; median [q1, q3]; Δ is head against base; "
        "a win is a pair the head's run reads better in.  Verdict: better/worse = "
        "≥ 9/10 of the pairs and |Δ median| above the base's own q3 − q1; "
        "unresolved = the base's q3 − q1 exceeds the metric's bound.",
        "",
        "| metric | base | head | Δ % | wins/pairs | verdict |",
        "|---|---|---|---|---|---|",
    ]
    for name in names:
        sides = {s: [p[s][name] for p in pairs] for s in SIDES}
        (b1, b2, b3), (h1, h2, h3) = (_quartiles(sides[s]) for s in SIDES)
        lower = declared.get(name, {}).get("better") != "higher"
        wins = sum((h < b) if lower else (h > b) for b, h in zip(*sides.values()))
        losses = sum((h > b) if lower else (h < b) for b, h in zip(*sides.values()))
        delta = f"{100 * (h2 - b2) / b2:+.1f}" if b2 else "n/a"
        verdict = _verdict(
            wins, losses, len(pairs), h2 - b2, b3 - b1, b2, declared.get(name, {}).get("bound")
        )
        mark = "**" if name in gated else ""
        out.append(
            f"| {mark}`{name}`{mark} | {b2:.6g} [{b1:.6g}, {b3:.6g}] "
            f"| {h2:.6g} [{h1:.6g}, {h3:.6g}] | {delta} | {wins}/{len(pairs)} | {verdict} |"
        )
    noted = [f"pair {r['pair']} {r['side']}: {note}" for r in rows for note in r["notes"]]
    if noted:
        out += ["", "Runs that carried a warning or an INVALID flag:", ""]
        out += [f"- {line}" for line in noted]
    return "\n".join(out) + "\n"


def _index(out_dir: Path, spec: dict) -> None:
    """``README.md``: each comparison in ``out_dir`` by its gated metrics,
    then every run it made, refused ones included."""
    gated = [m["name"] for m in spec["end_to_end"]]
    out = [
        f"# {out_dir.name}: every run",
        "",
        "Written by `tools/ab_pairs.py` from the `.jsonl` files beside it; nothing "
        "here is typed.  A heading links the table of every metric, per-layer ones "
        "included.",
        "",
    ]
    for log in sorted(out_dir.glob("*.jsonl")):
        rows = [json.loads(line) for line in log.read_text().splitlines()]
        if not rows:
            continue
        heading = f"## [{_title(rows)}]({log.stem}.md)"
        out.append(_summary(rows, spec, heading, gated_only=True))
        out.append("| pair | side | " + " | ".join(f"`{n}`" for n in gated) + " | correct | failed |")
        out.append("|---" * (len(gated) + 4) + "|")
        for row in rows:
            values = " | ".join(f"{row['metrics'][n]:.6g}" for n in gated)
            out.append(
                f"| {row['pair']} | {row['side']} | {values} | {row['correct']} | {row['failed']} |"
            )
        out.append("")
    (out_dir / "README.md").write_text("\n".join(out))


def _compare(work: Path, shas: dict, workload: str, args, spec: dict, out_dir: Path) -> bool:
    """All pairs of one workload; False as soon as a run is refused."""
    stem = f"{workload}.seed-{args.seed}" + (".traced" if args.trace else "")
    rows: list[dict] = []
    with open(out_dir / f"{stem}.jsonl", "w") as log:
        for pair in range(1, args.pairs + 1):
            for side in SIDES if pair % 2 else SIDES[::-1]:
                run = _run(work / side, workload, args.seed, args.seconds, args.trace)
                row = {
                    "workload": workload, "seed": args.seed, "pair": pair,
                    "side": side, "sha": shas[side], "seconds": args.seconds,
                    "trace": args.trace,
                    "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
                    **run,
                }  # fmt: skip
                log.write(json.dumps(row) + "\n")
                log.flush()
                gated = " ".join(
                    f"{m['name']}={run['metrics'][m['name']]:.6g}" for m in spec["end_to_end"]
                )
                print(f"{stem} pair {pair}/{args.pairs} {side}: {gated}", flush=True)
                if not (run["correct"] and run["failed"] == 0 and run["exit"] == 0):
                    print(f"refused: {side} run of pair {pair} is not correct", file=sys.stderr)
                    return False
                rows.append(row)
    (out_dir / f"{stem}.md").write_text(_summary(rows, spec, f"# {_title(rows)}"))
    print(f"wrote {out_dir / stem}.md", flush=True)
    return True


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="parent commit")
    parser.add_argument("--head", default="HEAD", help="the change (default HEAD)")
    parser.add_argument("--workload", choices=workloads, help="default: all of them")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="default: results/ab-<base>-<head>")
    args = parser.parse_args(argv)

    shas = {side: _git("rev-parse", getattr(args, side)) for side in SIDES}
    out_dir = args.out or REPO_ROOT / "results" / "ab-{base:.7}-{head:.7}".format(**shas)
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        for side in SIDES:
            _extract(shas[side], Path(tmp) / side)
        try:
            for workload in [args.workload] if args.workload else workloads:
                if not _compare(Path(tmp), shas, workload, args, spec, out_dir):
                    return 1
        finally:
            _index(out_dir, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
