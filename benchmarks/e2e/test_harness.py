"""Tests of the benchmark harness itself.

Not collected by tier-1 (``testpaths = tests``); run by path:

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_harness.py
"""

from __future__ import annotations

import ast
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

from harness import procfs, stats, sut  # noqa: E402
from harness.workloads import WORKLOADS, build_inputs  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]
#: 1/20 of the real tuple counts.
SMOKE = ["--scale", "0.05", "--setups", "1"]


# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (1000, 99.0), (10000, 99.9)],
)
def test_top_percentile_needs_ten_samples_beyond_it(count, expected):
    assert stats.top_percentile(count) == expected


def test_summarize_reports_count_and_withholds_unsupported_percentiles():
    summary = stats.summarize([float(i) for i in range(100)])
    assert summary["count"] == 100
    assert summary["top"] == 90.0
    assert summary["p50"] == pytest.approx(49.5)
    assert summary["p90"] == pytest.approx(89.1)
    assert summary["p99"] is None and summary["p99.9"] is None


def test_spread_is_interquartile_range_over_median():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, median, q3 = stats.quartiles(values)
    assert stats.spread(values) == pytest.approx((q3 - q1) / median)


# ---------------------------------------------------------------------------
# /proc parsing
# ---------------------------------------------------------------------------
_STAT = (
    "4242 (python3 (serve) x) S 4000 4100 4100 0 -1 4194304 9000 0 0 0 "
    "1234 66 0 0 20 0 3 0 5555 123456789 2500 18446744073709551615 "
    "1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n"
)
_STATUS = "Name:\tpython3\nVmPeak:\t  900000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t  198000 kB\n"


def _fake_proc(root: Path, pid: int, stat: str, status: str = _STATUS) -> None:
    directory = root / str(pid)
    directory.mkdir()
    (directory / "stat").write_text(stat)
    (directory / "status").write_text(status)


def test_parse_stat_survives_parentheses_in_comm():
    fields = procfs.parse_stat(_STAT)
    assert fields["pid"] == 4242
    assert fields["comm"] == "python3 (serve) x"
    assert (fields["ppid"], fields["pgrp"], fields["state"]) == (4000, 4100, "S")
    assert (fields["utime_ticks"], fields["stime_ticks"]) == (1234, 66)


def test_parse_stat_rejects_garbage():
    with pytest.raises(ValueError):
        procfs.parse_stat("not a stat line")


def test_parse_status_reads_rss_and_peak_and_tolerates_their_absence():
    assert procfs.parse_status(_STATUS) == {"rss_kb": 198000, "hwm_kb": 204800}
    assert procfs.parse_status("Name:\tkthreadd\n") == {"rss_kb": 0, "hwm_kb": 0}


def test_read_process_on_fixture_and_vanished_pid(tmp_path):
    _fake_proc(tmp_path, 4242, _STAT)
    sample = procfs.read_process(4242, root=str(tmp_path))
    ticks = os.sysconf("SC_CLK_TCK")
    assert sample.cpu_s == pytest.approx(1300 / ticks)
    assert (sample.rss_kb, sample.hwm_kb, sample.pgrp) == (198000, 204800, 4100)
    assert procfs.read_process(999, root=str(tmp_path)) is None


def test_sample_group_keeps_the_group_and_drops_zombies(tmp_path):
    _fake_proc(tmp_path, 4242, _STAT)
    _fake_proc(tmp_path, 4243, _STAT.replace("4242 (", "4243 (").replace(") S ", ") Z "))
    _fake_proc(tmp_path, 4300, _STAT.replace("4242 (", "4300 (").replace(" 4100 4100 ", " 7 7 "))
    (tmp_path / "self").mkdir()
    assert sorted(procfs.sample_group(4100, root=str(tmp_path))) == [4242]


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_schedule_other_seed_other_schedule(name):
    workload = WORKLOADS[name]
    first = build_inputs(workload, 7, 12, scale=0.05)
    again = build_inputs(workload, 7, 12, scale=0.05)
    other = build_inputs(workload, 8, 12, scale=0.05)
    assert first.schedule_digest == again.schedule_digest
    assert first.schedule_digest != other.schedule_digest
    assert first.measured_tuples == other.measured_tuples


def test_churn_ops_sit_at_fixed_tuple_indices():
    inputs = build_inputs(WORKLOADS["paced-churn"], 7, 12, scale=0.05)
    assert [op.at for op in inputs.ops] == list(range(100, inputs.measured_tuples, 100))
    assert [op.kind for op in inputs.ops[:3]] == ["re_filter", "subscribe", "unsubscribe"]
    # Whatever is still subscribed at the end is unsubscribed by the drain.
    assert set(inputs.final_apps()) >= {f"app{i}" for i in range(8)}


# ---------------------------------------------------------------------------
# The command, end to end
# ---------------------------------------------------------------------------
def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*RUN, *args], capture_output=True, text=True, timeout=120
    )


@pytest.fixture(scope="module")
def smoke_goldens(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("golden")
    done = _run("--regen-golden", "--golden-dir", str(directory), *SMOKE)
    assert done.returncode == 0, done.stderr
    return directory


def test_smoke_pass_of_all_four_workloads(smoke_goldens):
    started = time.monotonic()
    for name in WORKLOADS:
        done = _run("--workload", name, "--golden-dir", str(smoke_goldens), *SMOKE)
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {
            "setup_s",
            "delivered_tps",
            "delivery_ms_p50",
            "server_cpu_us_per_tuple",
            "server_peak_rss_mb",
        }
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert "reference golden" in done.stdout
    assert time.monotonic() - started < 15.0


def test_traced_run_reports_every_per_layer_metric_and_writes_spans(smoke_goldens):
    from harness.layers import PER_LAYER

    done = _run(
        "--workload", "paced-churn", "--trace", "1",
        "--golden-dir", str(smoke_goldens), *SMOKE,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == set(PER_LAYER)
    assert "top three by self time" in done.stdout
    assert "budget.residual_share" in done.stdout
    trace = json.loads((HERE / "out" / "paced-churn.trace.json").read_text())
    names = {span["name"] for span in trace["spans"]}
    assert {"client.ingest", "client.deliver", "client.re_filter"} <= names
    deliveries = [s for s in trace["spans"] if s["name"] == "client.deliver"]
    assert all(s["parent"] == s["trace_id"] for s in deliveries)
    assert {"core", "filters", "broker"} <= {s["name"] for s in trace["layer_spans"]}


def test_a_layer_whose_function_is_gone_is_skipped_with_a_reason():
    from harness.layers import LayerReplay

    inputs = build_inputs(WORKLOADS["wire-heavy"], 7, 12, scale=0.01)
    replay = LayerReplay(inputs.sources[0], inputs)

    def gone(_replay) -> None:
        from repro.transport.codec import no_such_encoder  # noqa: F401

    replay.probe("codec.ingest", gone)
    assert "ImportError" in replay.skipped["codec.ingest"]
    assert replay.us("codec.encode_ingest") is None


def test_corrupted_golden_fails_the_command(smoke_goldens, tmp_path):
    name = "wire-heavy"
    golden = json.loads((smoke_goldens / f"{name}.seed-7.json").read_text())
    app = sorted(golden["apps"])[0]
    golden["apps"][app]["blake2b"] = "0" * 32
    (tmp_path / f"{name}.seed-7.json").write_text(json.dumps(golden))
    done = _run("--workload", name, "--golden-dir", str(tmp_path), *SMOKE)
    assert done.returncode != 0
    assert "INCORRECT" in done.stdout
    # No result line, no metrics, for a workload whose output is wrong.
    assert not done.stdout.strip().splitlines()[-1].startswith("{")


def test_exits_nonzero_without_a_checkout(tmp_path):
    """Only BENCHMARK.json and the benchmark's own directory: nothing to
    measure, so no result is printed."""
    copy = tmp_path / "benchmarks" / "e2e"
    copy.parent.mkdir()
    subprocess.run(["cp", "-r", str(HERE), str(copy)], check=True)
    done = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "wire-heavy"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_benchmark_json_says_what_the_harness_does():
    from harness.cli import RUN_SECONDS
    from harness.layers import PER_LAYER
    from harness.measure import END_TO_END

    declared = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert declared["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert declared["paths"] == ["benchmarks/e2e"]
    assert declared["run_seconds"] == RUN_SECONDS
    assert declared["workloads"] == [
        {"name": w.name, "why": w.why} for w in WORKLOADS.values()
    ]
    assert declared["end_to_end"] == [
        {"name": name, "unit": unit, "better": better, "bound": bound}
        for name, (unit, better, bound) in END_TO_END.items()
    ]
    assert declared["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, (unit, better) in PER_LAYER.items()
    ]


# ---------------------------------------------------------------------------
# No stranded processes
# ---------------------------------------------------------------------------
def test_a_crashed_router_leaves_no_worker_behind():
    workload = WORKLOADS["cluster-relay"]
    plan = sut.cpu_plan()
    server = sut.ServerTree(workload, ["random_walk-0", "random_walk-1"], plan)
    server.start()
    try:
        tree = procfs.sample_group(server.pgid)
        assert len(tree) == 1 + workload.workers
        # The router dies without a chance to stop its workers.
        os.kill(server.pgid, signal.SIGKILL)
    finally:
        stopped = server.stop()
    assert not stopped["clean"]
    assert sorted(stopped["stranded"]) == sorted(set(tree) - {server.pgid})
    assert procfs.sample_group(server.pgid) == {}


# ---------------------------------------------------------------------------
# Import hygiene
# ---------------------------------------------------------------------------
def _harness_sources() -> list[Path]:
    return [HERE / "run.py", *sorted((HERE / "harness").glob("*.py"))]


def test_harness_stays_off_private_and_loadgen_surfaces():
    """ROADMAP item 3 splits loadgen/scenario and renames privates; the
    benchmark must not notice."""
    banned_modules = ("repro.service.loadgen", "repro.service.scenario")
    problems = []
    for path in _harness_sources():
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
                names: list[str] = []
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                private = node.attr.startswith("_") and not node.attr.startswith("__")
                own = isinstance(node.value, ast.Name) and node.value.id == "self"
                if private and not own:
                    problems.append(f"{path.name}:{node.lineno} .{node.attr}")
                continue
            else:
                continue
            for module in modules:
                if module.startswith(banned_modules):
                    problems.append(f"{path.name}:{node.lineno} imports {module}")
                if module.startswith("repro") and any(
                    part.startswith("_") for part in module.split(".")
                ):
                    problems.append(f"{path.name}:{node.lineno} imports {module}")
                if module.startswith("repro"):
                    problems += [
                        f"{path.name}:{node.lineno} imports {module}.{name}"
                        for name in names
                        if name.startswith("_")
                    ]
    assert problems == []
