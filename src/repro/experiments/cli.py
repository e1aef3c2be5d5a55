"""Command-line interface for the experiment harness and live service.

Examples::

    python -m repro.experiments list
    python -m repro.experiments run fig_4_2
    python -m repro.experiments run fig_4_17 --tuples 1500 --repeats 3
    python -m repro.experiments all --tuples 2000
    python -m repro.experiments serve --port 7787 --http-port 7788
    python -m repro.experiments loadgen --rate 500 --duration 2 --size tiny
    python -m repro.experiments loadgen --transport tcp --verify
    python -m repro.experiments loadgen --transport tcp --connect 127.0.0.1:7787
    python -m repro.experiments watch --connect 127.0.0.1:7788
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import time

from repro.runtime.tasks import EXECUTORS

__all__ = ["main"]


def _build_parser(command: str | None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiment ids")

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment_id")
    _add_knobs(run)

    everything = sub.add_parser("all", help="run every experiment")
    _add_knobs(everything)

    serve = sub.add_parser(
        "serve",
        help="run the networked dissemination gateway (TCP + HTTP snapshot)",
    )
    _add_serve_knobs(serve)

    loadgen = sub.add_parser(
        "loadgen",
        help="load-generate against the broker, writing a run manifest",
    )
    if command == "loadgen":
        # These options take their choices from the load generator's own
        # module; `serve`, which every cluster worker runs, must not load
        # it to describe options it will never parse.
        _add_service_knobs(loadgen)
        loadgen.add_argument(
            "--out",
            default="runs/loadgen",
            help="artifact directory for metrics.jsonl + summary.json",
        )
        loadgen.add_argument(
            "--verify",
            action="store_true",
            help="replay the offered trace through the batch engine and "
            "record whether decided outputs match",
        )
        loadgen.add_argument(
            "--progress",
            action="store_true",
            help="print each periodic metrics record as it is captured",
        )

    watch = sub.add_parser(
        "watch",
        help="stream health verdicts from a live gateway's /metrics + /events",
    )
    watch.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="HTTP (snapshot) address of a running `repro serve`",
    )
    watch.add_argument(
        "--interval", type=float, default=1.0, help="poll period in seconds"
    )
    watch.add_argument(
        "--rules",
        default=None,
        metavar="FILE",
        help="declarative rules file (TOML on 3.11+, JSON anywhere) "
        "replacing/extending the stock rules and SLO windows",
    )
    watch.add_argument(
        "--polls",
        type=_positive_int,
        default=None,
        metavar="N",
        help="stop after N polls (default: run until interrupted)",
    )
    watch.add_argument(
        "--json",
        action="store_true",
        help="print each report as one JSON line instead of the text view",
    )
    watch.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the final HealthReport JSON to this file",
    )
    watch.add_argument(
        "--expect",
        choices=("ok", "warn", "critical"),
        default=None,
        help="exit nonzero unless the final report's status matches",
    )

    scenario = sub.add_parser(
        "scenario",
        help="run a declarative robustness scenario and grade its verdict",
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)
    scenario_run = scenario_sub.add_parser(
        "run",
        help="run one scenario file (TOML/JSON) to a verdict manifest",
    )
    scenario_run.add_argument("file", help="scenario file path")
    scenario_run.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="artifact directory (summary, metrics, events, verdict.json); "
        "default runs/scenario/<name>[-off]",
    )
    scenario_run.add_argument(
        "--degradation",
        choices=("on", "off"),
        default="on",
        help="'off' strips the ladder and grades the [verdict.disabled] "
        "criteria instead (the control run)",
    )
    scenario_run.add_argument(
        "--json",
        action="store_true",
        help="print the verdict manifest as JSON instead of the text view",
    )
    return parser


def _add_serve_knobs(parser: argparse.ArgumentParser) -> None:
    from repro.service.session import OVERFLOW_POLICIES
    from repro.transport.protocol import MAX_FRAME_BYTES

    # Selects nothing: benchmarks/e2e/harness/sut.py:123 still passes it.
    parser.add_argument(
        "--fanout",
        choices=("shared",),
        default="shared",
        help="accepted for older launch scripts; decided batches are "
        "always fanned out from segments encoded once",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=7787,
        help="gateway TCP port (0 picks an ephemeral port)",
    )
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        metavar="N",
        help="shard sources across N broker worker processes behind "
        "this gateway (default 1: single in-process broker)",
    )
    parser.add_argument(
        "--self-heal",
        action="store_true",
        help="run the remediation loop: Watchtower verdict edges drive "
        "worker respawns (each splices its sources from the router's "
        "checkpoint + tail), live migration and (policy-gated) "
        "scaling; requires --workers > 1, --http-port and telemetry",
    )
    parser.add_argument(
        "--watch-rules",
        default=None,
        metavar="FILE",
        help="declarative rules file (TOML on 3.11+, JSON anywhere) "
        "for the built-in Watchtower's rules/SLOs and the "
        "remediation policy",
    )
    parser.add_argument(
        "--http-port",
        type=int,
        default=None,
        help="also serve GET /snapshot and /healthz on this port",
    )
    parser.add_argument(
        "--sources",
        default="random_walk",
        help="comma-separated source names to advertise at startup "
        "(clients can add more with ensure_source)",
    )
    parser.add_argument(
        "--algorithm", choices=("region", "per_candidate_set"), default="region"
    )
    parser.add_argument("--constraint-ms", type=float, default=None)
    parser.add_argument("--queue-capacity", type=int, default=16)
    parser.add_argument("--overflow", choices=OVERFLOW_POLICIES, default="block")
    parser.add_argument("--batch-items", type=int, default=8)
    parser.add_argument("--batch-delay-ms", type=float, default=50.0)
    parser.add_argument(
        "--no-tick-cuts",
        action="store_true",
        help="restrict timely cuts to arrivals (needed when a remote "
        "loadgen verifies a constrained run against the batch engine)",
    )
    parser.add_argument("--auth-token", default=None)
    parser.add_argument("--max-frame-bytes", type=int, default=MAX_FRAME_BYTES)
    parser.add_argument(
        "--watch-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="poll period of the built-in Watchtower serving "
        "/health/report (0 disables; needs --http-port and telemetry)",
    )
    _add_telemetry_knobs(parser)


def _add_telemetry_knobs(parser: argparse.ArgumentParser) -> None:
    from repro.obs.telemetry import DEFAULT_SAMPLE_PERIOD

    parser.add_argument(
        "--trace-sample",
        type=_positive_int,
        default=DEFAULT_SAMPLE_PERIOD,
        metavar="N",
        help="stage-trace roughly one in N tuples (deterministic on the "
        f"tuple key, default {DEFAULT_SAMPLE_PERIOD})",
    )
    parser.add_argument(
        "--no-telemetry",
        action="store_true",
        help="disable metrics, tracing and the event log entirely "
        "(/metrics and /events answer 404)",
    )


async def _serve_async(args: argparse.Namespace) -> int:
    from repro.runtime.tasks import EngineConfig
    from repro.service.broker import DisseminationService, ServiceConfig
    from repro.transport.http import SnapshotHTTP
    from repro.transport.server import GatewayServer

    source_names: list[str] = []
    for name in (part.strip() for part in args.sources.split(",")):
        if name and name not in source_names:
            source_names.append(name)
    telemetry = None
    if not args.no_telemetry:
        from repro.obs.telemetry import Telemetry

        telemetry = Telemetry(sample_period=args.trace_sample)
    rules_config = None
    if args.watch_rules is not None:
        from repro.obs.rulesfile import RulesFileError, load_rules_file

        try:
            rules_config = load_rules_file(args.watch_rules)
        except RulesFileError as exc:
            print(f"serve: {exc}", file=sys.stderr)
            return 2
    if args.self_heal and args.workers <= 1:
        print(
            "serve: --self-heal needs a worker fleet (--workers > 1)",
            file=sys.stderr,
        )
        return 2
    if args.self_heal and (
        args.http_port is None or telemetry is None or args.watch_interval <= 0
    ):
        print(
            "serve: --self-heal needs the built-in Watchtower "
            "(--http-port, telemetry and --watch-interval > 0)",
            file=sys.stderr,
        )
        return 2
    if args.workers > 1:
        from repro.service.cluster import ClusterConfig, ClusterService

        service = ClusterService(
            ClusterConfig(
                workers=args.workers,
                sources=tuple(source_names),
                algorithm=args.algorithm,
                constraint_ms=args.constraint_ms,
                queue_capacity=args.queue_capacity,
                overflow=args.overflow,
                batch_max_items=args.batch_items,
                batch_max_delay_ms=args.batch_delay_ms,
                tick_cuts=not args.no_tick_cuts,
                max_frame_bytes=args.max_frame_bytes,
            ),
            telemetry=telemetry,
        )
        await service.start()
    else:
        service = DisseminationService(
            ServiceConfig(
                engine=EngineConfig(
                    algorithm=args.algorithm, constraint_ms=args.constraint_ms
                ),
                queue_capacity=args.queue_capacity,
                overflow=args.overflow,
                batch_max_items=args.batch_items,
                batch_max_delay_ms=args.batch_delay_ms,
                tick_cuts=not args.no_tick_cuts,
            ),
            telemetry=telemetry,
        )
        for name in source_names:
            if not service.has_source(name):
                service.add_source(name)
    gateway = GatewayServer(
        service,
        host=args.host,
        port=args.port,
        auth_token=args.auth_token,
        max_frame_bytes=args.max_frame_bytes,
        telemetry=telemetry,
    )
    http = None
    watchtower = None
    watch_task = None
    remediation = None
    try:
        await gateway.start()
        if args.http_port is not None:
            if telemetry is not None and args.watch_interval > 0:
                from repro.obs.watch import LocalProbe, Watchtower

                watch_kwargs: dict = {"interval_s": args.watch_interval}
                if rules_config is not None:
                    # File settings win over the CLI defaults.
                    watch_kwargs.update(
                        rules=rules_config.rules, slos=rules_config.slos,
                        **rules_config.watch,
                    )
                watchtower = Watchtower(
                    LocalProbe(telemetry, service=service),
                    events=telemetry.events,
                    **watch_kwargs,
                )
            http = SnapshotHTTP(
                service, host=args.host, port=args.http_port,
                telemetry=telemetry, watchtower=watchtower,
            )
            await http.start()
            if args.self_heal and watchtower is not None:
                from repro.service.remediate import (
                    RemediationLoop,
                    RemediationPolicy,
                )

                policy = RemediationPolicy(
                    **(
                        rules_config.remediation
                        if rules_config is not None
                        and rules_config.remediation is not None
                        else {}
                    )
                )
                remediation = RemediationLoop(
                    service,
                    watchtower,
                    policy=policy,
                    events=telemetry.events,
                )
                remediation.attach()
            if watchtower is not None:
                watch_task = asyncio.create_task(watchtower.run())
    except BaseException:
        # A bind failure after the cluster came up must not strand the
        # worker subprocesses (children outlive a crashed parent).
        await service.close()
        raise
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    signals = (signal.SIGINT, signal.SIGTERM)
    try:
        for signum in signals:
            loop.add_signal_handler(signum, stop.set)

        def unhook() -> None:
            for signum in signals:
                loop.remove_signal_handler(signum)

    except NotImplementedError:
        # Windows event loops have no add_signal_handler; fall back to
        # the plain signal module (the handler only sets an Event).
        previous = {
            signum: signal.signal(
                signum, lambda *_: loop.call_soon_threadsafe(stop.set)
            )
            for signum in signals
        }

        def unhook() -> None:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
    ready = f"gateway listening on {args.host}:{gateway.port}"
    if http is not None:
        ready += f", http on {args.host}:{http.port}"
    print(ready, flush=True)
    await stop.wait()
    unhook()
    if remediation is not None:
        await remediation.close()
    if watch_task is not None:
        watch_task.cancel()
        try:
            await watch_task
        except asyncio.CancelledError:
            pass
    # Graceful shutdown: final-flush every session batcher (gateway
    # shutdown closes the service, which cuts engines over and flushes),
    # then emit the terminal snapshot for whoever is scraping stdout.
    snapshot = await gateway.shutdown()
    if http is not None:
        await http.close()
    print(json.dumps(snapshot), flush=True)
    return 0


async def _watch_async(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs.watch import HttpProbe, Watchtower, format_report

    host, _, port_text = args.connect.rpartition(":")
    if not port_text.isdigit():
        print(f"--connect must be HOST:PORT, got {args.connect!r}")
        return 2
    tower_kwargs: dict = {"interval_s": args.interval}
    if args.rules is not None:
        from repro.obs.rulesfile import RulesFileError, load_rules_file

        try:
            config = load_rules_file(args.rules)
        except RulesFileError as exc:
            print(f"watch: {exc}", file=sys.stderr)
            return 2
        # File settings win over the CLI defaults.
        tower_kwargs.update(
            rules=config.rules, slos=config.slos, **config.watch
        )
    tower = Watchtower(
        HttpProbe(host or "127.0.0.1", int(port_text)), **tower_kwargs
    )
    report = None
    polls = 0
    while args.polls is None or polls < args.polls:
        report = await tower.poll()
        polls += 1
        if args.json:
            print(json.dumps(report.to_dict()), flush=True)
        else:
            print(format_report(report), flush=True)
        if args.polls is not None and polls >= args.polls:
            break
        await asyncio.sleep(tower.interval_s)
    if args.out is not None and report is not None:
        Path(args.out).write_text(
            json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
    if args.expect is not None and (
        report is None or report.status != args.expect
    ):
        got = report.status if report is not None else "none"
        print(f"watch: expected final status {args.expect!r}, got {got!r}")
        # Name the rules that produced the mismatched status — "it went
        # critical" without which rule and at what value is undebuggable
        # from CI logs.
        if report is not None:
            for verdict in report.firing:
                bound = (
                    f"{verdict.threshold:g}"
                    if verdict.threshold is not None
                    else "n/a"
                )
                print(
                    f"watch:   {verdict.status:<8} {verdict.name} "
                    f"({verdict.signal} = {verdict.value:g}, "
                    f"threshold {bound})"
                    + (f" - {verdict.detail}" if verdict.detail else "")
                )
        return 1
    return 0


def _add_service_knobs(parser: argparse.ArgumentParser) -> None:
    from repro.service.loadgen import LOADGEN_SOURCES, SIZES, TRANSPORTS
    from repro.service.session import OVERFLOW_POLICIES

    parser.add_argument("--source", choices=LOADGEN_SOURCES, default="random_walk")
    parser.add_argument(
        "--transport",
        choices=TRANSPORTS,
        default="inproc",
        help="drive the broker in-process or across a real TCP socket",
    )
    parser.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="target an already-running gateway (requires --transport tcp); "
        "default self-hosts one on an ephemeral localhost port",
    )
    parser.add_argument(
        "--tuple-bytes",
        type=int,
        default=64,
        help="simulated payload bytes per tuple (TCP ingest-frame "
        "padding and the QoS controller's egress estimate)",
    )
    parser.add_argument(
        "--ingest-batch",
        type=int,
        default=1,
        metavar="N",
        help="max tuples per ingest frame / broker offer; with N > 1 an "
        "AIMD controller sizes each flush from observed ack latency "
        "(see --fixed-batch)",
    )
    parser.add_argument(
        "--fixed-batch",
        action="store_true",
        help="disable adaptive ingest batching and always send "
        "--ingest-batch tuples per flush",
    )
    parser.add_argument(
        "--sources",
        type=_positive_int,
        default=1,
        metavar="N",
        help="independent source streams (each with its own subscriber "
        "set, feeder task and TCP connection)",
    )
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        metavar="N",
        help="self-host a cluster of N broker worker processes behind "
        "the gateway (requires --transport tcp, no --connect)",
    )
    parser.add_argument("--size", choices=sorted(SIZES), default="tiny")
    parser.add_argument("--rate", type=float, default=500.0, help="tuples/sec")
    parser.add_argument("--duration", type=float, default=2.0, help="seconds")
    parser.add_argument("--mode", choices=("open", "closed"), default="open")
    parser.add_argument(
        "--algorithm", choices=("region", "per_candidate_set"), default="region"
    )
    parser.add_argument("--constraint-ms", type=float, default=None)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--queue-capacity", type=int, default=16)
    parser.add_argument("--overflow", choices=OVERFLOW_POLICIES, default="block")
    parser.add_argument("--batch-items", type=int, default=8)
    parser.add_argument("--batch-delay-ms", type=float, default=50.0)
    parser.add_argument(
        "--consumer-delay-ms",
        type=float,
        default=0.0,
        help="simulated per-batch consumer service time",
    )
    parser.add_argument(
        "--churn",
        action="store_true",
        help="apply the default subscriber churn schedule",
    )
    parser.add_argument(
        "--no-watch",
        action="store_true",
        help="skip the in-run Watchtower (no health block / health.json)",
    )
    _add_telemetry_knobs(parser)


def _service_config(args: argparse.Namespace, out_dir: str | None, verify: bool):
    from repro.service.loadgen import LoadGenConfig, default_churn

    config = LoadGenConfig(
        source=args.source,
        size=args.size,
        rate=args.rate,
        duration_s=args.duration,
        mode=args.mode,
        algorithm=args.algorithm,
        constraint_ms=args.constraint_ms,
        seed=args.seed,
        queue_capacity=args.queue_capacity,
        overflow=args.overflow,
        batch_max_items=args.batch_items,
        batch_max_delay_ms=args.batch_delay_ms,
        consumer_delay_ms=args.consumer_delay_ms,
        out_dir=out_dir,
        verify=verify,
        transport=args.transport,
        connect=args.connect,
        tuple_size_bytes=args.tuple_bytes,
        ingest_batch=args.ingest_batch,
        adaptive_batch=not args.fixed_batch,
        sources=args.sources,
        workers=args.workers,
        trace_sample=0 if args.no_telemetry else args.trace_sample,
        watch=not args.no_watch,
    )
    if args.churn:
        from dataclasses import replace

        config = replace(config, churn=default_churn(config))
    return config


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_knobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tuples", type=int, default=3000, help="trace length")
    parser.add_argument("--repeats", type=int, default=None, help="repetitions")
    parser.add_argument("--seed", type=int, default=7, help="base random seed")
    parser.add_argument(
        "--shards",
        type=_positive_int,
        default=1,
        help="run variant engines on N parallel shards (default: 1, sequential)",
    )
    parser.add_argument(
        "--executor",
        choices=EXECUTORS,
        default="process",
        help="shard executor when --shards > 1 (default: process)",
    )


def _kwargs(args: argparse.Namespace) -> dict:
    kwargs = {"n_tuples": args.tuples, "seed": args.seed}
    if args.repeats is not None:
        kwargs["repeats"] = args.repeats
    return kwargs


def _scenario_run(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.service.scenario import (
        ScenarioError,
        load_scenario_file,
        run_scenario,
    )

    try:
        scenario = load_scenario_file(args.file)
    except ScenarioError as exc:
        print(f"scenario: {exc}", file=sys.stderr)
        return 2
    degradation = args.degradation != "off"
    out_dir = args.out
    if out_dir is None:
        out_dir = str(
            Path("runs")
            / "scenario"
            / (scenario.name + ("" if degradation else "-off"))
        )
    manifest = run_scenario(
        scenario, degradation=degradation, out_dir=out_dir
    )
    if args.json:
        print(json.dumps(manifest, indent=2))
    else:
        mode = "degradation on" if degradation else "degradation off"
        print(f"scenario {scenario.name!r} ({mode}):")
        for check in manifest["checks"]:
            flag = "PASS" if check["ok"] else "FAIL"
            bound = f" (value {check['value']!r}, bound {check['bound']!r})"
            print(f"  {flag}  {check['name']}{bound}  {check['detail']}")
        qos = manifest.get("qos")
        if qos:
            print(
                f"  qos: max level {qos.get('max_level')}, "
                f"{qos.get('degraded_events')} degrades / "
                f"{qos.get('recovered_events')} recoveries, "
                f"recovery {qos.get('recovery_time_s')}s"
            )
        print(f"  artifacts in {out_dir}/")
    if not manifest["passed"]:
        print("scenario: verdict FAILED", file=sys.stderr)
        return 1
    return 0


def _experiments(args: argparse.Namespace) -> int:
    """``list`` / ``run`` / ``all``: the only commands that load the
    experiment modules (both chapters, every source, the sharded runtime)."""
    from repro.experiments.harness import set_parallelism
    from repro.experiments.registry import EXPERIMENTS

    if args.command == "list":
        for experiment_id in EXPERIMENTS.ids():
            print(experiment_id)
        return 0
    set_parallelism(args.shards, args.executor)
    if args.command == "run":
        report = EXPERIMENTS.run(args.experiment_id, **_kwargs(args))
        print(report)
        return 0
    for experiment_id in EXPERIMENTS.ids():
        started = time.perf_counter()
        report = EXPERIMENTS.run(experiment_id, **_kwargs(args))
        elapsed = time.perf_counter() - started
        print(report)
        print(f"[{experiment_id} regenerated in {elapsed:.1f}s]")
        print()
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    if args.command == "serve":
        return asyncio.run(_serve_async(args))
    if args.command == "watch":
        try:
            return asyncio.run(_watch_async(args))
        except KeyboardInterrupt:
            return 130
    if args.command == "scenario":
        return _scenario_run(args)
    if args.command == "loadgen":
        from repro.service.loadgen import run_loadgen

        def show(record: dict) -> None:
            print(
                f"[{record['t_s']:7.2f}s] offered={record['offered']} "
                f"decided={record['decided_emissions']} "
                f"delivered={record['delivered_tuples']} "
                f"dropped={record['dropped_tuples']} "
                f"sessions={record['session_count']} "
                f"p99={record['decide_p99_ms']:.1f}ms"
            )

        summary = run_loadgen(
            _service_config(args, args.out, args.verify),
            on_record=show if args.progress else None,
        )
        print(
            f"loadgen: {summary['offered']} offered, "
            f"{summary['delivered_tuples']} delivered, "
            f"{summary['dropped_tuples']} dropped, "
            f"p99 decide {summary['decide_latency_ms']['p99']:.1f} ms; "
            f"artifacts in {args.out}/"
        )
        if summary["equivalent_to_batch"] is False:
            print("ERROR: live decided outputs diverged from the batch engine")
            return 1
        return 0
    return _experiments(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
