"""The opcode gates: what the offer path and the gateway execute per tuple.

``tools/work_counters.py`` replays a fixed seeded prefix and counts
bytecode (region algorithm, 3 000 tuples): the broker's offer path in
process, ``broker_offer`` with two subscribers on two distinct DC specs
(two delivery groups of one), ``broker_offer_shared`` with four, two on
each spec (two delivery groups of two); and ``gateway_fanout``, the
whole server thread of a loopback gateway whose one client connection
holds eight subscribers, four on each spec, and sends 16-tuple frames
one at a time.  The offer counts repeat exactly on one interpreter
version, whatever the hash seed, so they are gated at their exact
value: a change that adds work to the offer path moves them, and must
move these numbers with it, on purpose.  ``gateway_fanout`` counts the
event loop's Python as well; it read the same in six runs under three
hash seeds, but the parent's three readings spread by 194 opcodes
(0.002 %), so it is gated as a ceiling 0.1 % above its reading.

Read on CPython 3.11.7 (x86-64 Linux), opcodes over the 3 000 tuples:

==============================  =========  =================  ===============  ============  ==========  ============  ===============
layer                           before     engine checkpoint  delivery groups  batch traces  link queue  scrape-time  region decided
==============================  =========  =================  ===============  ============  ==========  ============  ===============
batch engine, ``record=True``   5 305 651  5 273 145          5 273 145        5 273 145     5 273 145   5 273 145     5 142 532
batch engine, ``record=False``  5 100 977  5 068 471          5 068 471        5 068 471     5 068 471   5 068 471     4 937 858
``offer``, 2 specs x 1          6 730 120  6 493 614          6 385 347        6 382 283     6 226 808   6 224 166     6 093 553
``offer``, 2 specs x 2          --         7 126 111          6 587 975        6 583 379     6 382 020   6 379 378     6 248 765
gateway, 2 specs x 4            --         --                 --               10 353 010    8 162 078   8 159 436     8 026 046
==============================  =========  =================  ===============  ============  ==========  ============  ===============

Engine checkpoints: the offer path lost the epoch journal's append (a
``marshal.dumps`` and a buffer append per offer); both engines lost a
dictionary of decided tuples that nothing read.  Delivery groups: a
tuple is staged once per sharing class rather than once per session,
and the session queue parks waiters on futures rather than crossing an
``asyncio.Condition`` on every put.  Batch traces: an untraced flush no
longer checks each member for trace notes (traces ride on the batch).
Link queue: a group's batch is put once per delivery link with the
members' accounting inline (no per-member ``deliver`` / ``put`` /
metric-label calls), a dispatch scans for disconnected sessions only
after a put disconnected one, and one with no emissions skips routing;
behind the gateway, one ``decided`` frame per batch per connection,
one pump per connection draining the socket once per wake-up, and
ingest tuple records decoded off local variables (the ``gateway``
reading before this column is the parent's, with this tool).
Scrape-time: the broker's offered, decided and tick counters are read
from its own counts when the registry renders, so a decide with
emissions and a tick no longer test for telemetry.
Region decided: a closing region's decisions are no longer recorded as
decided outputs only to be forgotten a few lines later, and its tuple
seqs are collected once; behind the gateway, tuple records are built
from an undecoded view of the frame and ingest is acked in binary.
Opcodes do not count time inside C calls.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "work_counters.py"

#: Readings before delivery groups (per-session batchers, Condition
#: queue); the gateway's before a connection's apps shared one queue.
BEFORE = {
    "broker_offer": 6_493_614,
    "broker_offer_shared": 7_126_111,
    "gateway_fanout": 10_353_010,
}


def _tool():
    spec = importlib.util.spec_from_file_location("work_counters", _TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="opcode counts are per interpreter version; read on CPython 3.11",
)
def test_offer_path_opcodes_are_gated_exactly():
    opcodes = _tool().count_opcodes("broker_offer", tuples=3000, seed=7)
    assert opcodes == 6_093_553 <= BEFORE["broker_offer"], opcodes


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="opcode counts are per interpreter version; read on CPython 3.11",
)
def test_shared_offer_path_opcodes_are_gated_exactly():
    opcodes = _tool().count_opcodes("broker_offer_shared", tuples=3000, seed=7)
    assert opcodes == 6_248_765 < BEFORE["broker_offer_shared"], opcodes


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="opcode counts are per interpreter version; read on CPython 3.11",
)
def test_gateway_fanout_opcodes_stay_under_their_ceiling():
    opcodes = _tool().count_opcodes("gateway_fanout", tuples=3000, seed=7)
    assert opcodes <= 8_034_100 < BEFORE["gateway_fanout"], opcodes
