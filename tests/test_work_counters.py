"""The opcode gate: what ``DisseminationService.offer`` executes per tuple.

``tools/work_counters.py`` replays a fixed seeded prefix in process and
counts the bytecode the broker's offer path runs (region algorithm,
3 000 tuples): ``broker_offer`` with two subscribers on two distinct DC
specs (two delivery groups of one), ``broker_offer_shared`` with four,
two on each spec (two delivery groups of two).  The count repeats
exactly on one interpreter version, whatever the hash seed, so it is
gated at its exact value: a change that adds work to the offer path
moves it, and must move this number with it, on purpose.

Read on CPython 3.11.7 (x86-64 Linux), opcodes over the 3 000 tuples:

==============================  =========  =================  ===============  ============
layer                           before     engine checkpoint  delivery groups  batch traces
==============================  =========  =================  ===============  ============
batch engine, ``record=True``   5 305 651  5 273 145          5 273 145        5 273 145
batch engine, ``record=False``  5 100 977  5 068 471          5 068 471        5 068 471
``offer``, 2 specs x 1          6 730 120  6 493 614          6 385 347        6 382 283
``offer``, 2 specs x 2          --         7 126 111          6 587 975        6 583 379
==============================  =========  =================  ===============  ============

Engine checkpoints: the offer path lost the epoch journal's append (a
``marshal.dumps`` and a buffer append per offer); both engines lost a
dictionary of decided tuples that nothing read.  Delivery groups: a
tuple is staged once per sharing class rather than once per session,
and the session queue parks waiters on futures rather than crossing an
``asyncio.Condition`` on every put.  Batch traces: an untraced flush no
longer checks each member for trace notes (traces ride on the batch).
Opcodes do not count time inside C calls.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "work_counters.py"

#: Readings before delivery groups (per-session batchers, Condition queue).
BEFORE = {"broker_offer": 6_493_614, "broker_offer_shared": 7_126_111}


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
    assert opcodes == 6_382_283 <= BEFORE["broker_offer"], opcodes


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="opcode counts are per interpreter version; read on CPython 3.11",
)
def test_shared_offer_path_opcodes_are_gated_exactly():
    opcodes = _tool().count_opcodes("broker_offer_shared", tuples=3000, seed=7)
    assert opcodes == 6_583_379 < BEFORE["broker_offer_shared"], opcodes
