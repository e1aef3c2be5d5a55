"""Live dissemination service: asyncio broker over the batch engine.

The batch layers run one-shot experiments over pre-materialized traces;
this package turns the same engine into a long-running *service* the way
the paper's Solar prototype worked (section 4.1): dynamic subscriptions,
incremental decides on arrival and on timer ticks, per-session
micro-batched delivery with bounded queues and backpressure, and an
open/closed-loop load generator that emits replayable run manifests.
"""
