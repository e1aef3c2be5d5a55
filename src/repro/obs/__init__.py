"""Low-overhead observability for the live dissemination pipeline.

Three surfaces, one bundle:

* :mod:`repro.obs.metrics` — a dependency-free counter/gauge/histogram
  registry rendered in Prometheus text format on ``/metrics``, with
  text-level relabel/merge helpers so the cluster router can re-export
  worker scrapes under ``worker="N"`` labels.
* :mod:`repro.obs.trace` — deterministic ~1/256 per-tuple sampling and
  stage-tagged latency accumulation that decomposes the end-to-end
  ``decide_p50_ms`` into ingest/decide/batch/queue/write stages.
* :mod:`repro.obs.events` — a bounded structured event log (worker
  lifecycle, drains, overflow disconnects, subscription churn) with
  ``since=`` cursor semantics for ``/events``.

:class:`~repro.obs.telemetry.Telemetry` ties them together; passing
``telemetry=None`` to any instrumented layer disables the whole thing.

The analysis side lives in :mod:`repro.obs.watch`: a
:class:`~repro.obs.watch.Watchtower` that parses the exposition back
(:mod:`repro.obs.parse`), reduces it with streaming detectors
(:mod:`repro.obs.detect`) and grades the signals with declarative rules
and SLO burn windows (:mod:`repro.obs.slo`) into health verdicts.
"""
