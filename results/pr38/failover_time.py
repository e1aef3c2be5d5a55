"""Kill -> healed time of one cluster worker slot, in real processes.

Starts a one-worker cluster (``health_interval_s=0.25``) with one source
and two subscribers, offers 256 tuples, SIGKILLs the worker and times
until the slot runs a different, ready process; repeats ``--runs``
times, each on a fresh cluster, and prints one JSON line per run.
``--standby 1`` passes ``standby=1`` to ``ClusterConfig`` (a tree that
still has the spare tier).  Which tree is measured is ``PYTHONPATH``'s:

    PYTHONPATH=<tree>/src python results/pr38/failover_time.py --runs 3
"""

import argparse
import asyncio
import json
import time

from repro.core.tuples import StreamTuple
from repro.service.cluster import ClusterConfig, ClusterService

APPS = (("solo.wide", "DC1(value, 6.0, 3.0)"), ("solo.narrow", "DC1(value, 3.0, 1.5)"))


async def _drain(session) -> None:
    async for _batch in session.batches():
        pass


async def one_run(standby: int) -> dict:
    extra = {"standby": standby} if standby else {}
    cluster = ClusterService(
        ClusterConfig(
            workers=1,
            sources=("solo",),
            batch_max_items=1,
            health_interval_s=0.25,
            **extra,
        )
    )
    await cluster.start()
    try:
        consumers = [
            asyncio.create_task(_drain(await cluster.subscribe(app, "solo", spec)))
            for app, spec in APPS
        ]
        items = [
            StreamTuple(seq=s, timestamp=s * 10.0, values={"value": float(s % 24)})
            for s in range(256)
        ]
        for start in range(0, len(items), 64):
            await cluster.offer_many("solo", items[start : start + 64])
        await asyncio.sleep(1.0)  # a spare, if any, is up by now
        worker = cluster._primary(0)
        old_pid = worker.process.pid
        killed = time.perf_counter()
        worker.process.kill()
        while True:
            process = worker.process
            if process is not None and process.pid != old_pid and worker.ready.is_set():
                break
            await asyncio.sleep(0.001)
        healed_s = time.perf_counter() - killed
        await cluster.close()
        await asyncio.gather(*consumers)
        return {"standby": standby, "kill_to_healed_s": round(healed_s, 4)}
    except BaseException:
        await cluster.close()
        raise


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--standby", type=int, default=0)
    args = parser.parse_args()
    for _ in range(args.runs):
        print(json.dumps(asyncio.run(one_run(args.standby))), flush=True)


if __name__ == "__main__":
    main()
