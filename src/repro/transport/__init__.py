"""Networked dissemination gateway: the live broker behind real sockets.

:mod:`repro.service` made the batch engine a long-running broker; this
package makes the broker a *server*.  A length-prefixed wire protocol
(:mod:`~repro.transport.protocol`: JSON control frames, binary tuple
frames) carries ingest, dynamic subscriptions and decided-batch delivery
over TCP
(:mod:`~repro.transport.server` / :mod:`~repro.transport.client`), with
the broker's bounded-queue backpressure policies propagating to the
sockets, and a minimal HTTP endpoint (:mod:`~repro.transport.http`)
serves live snapshots for scraping.  Everything is stdlib asyncio — no
new dependencies.
"""
