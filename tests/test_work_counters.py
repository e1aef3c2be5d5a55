"""The opcode gate: what ``DisseminationService.offer`` executes per tuple.

``tools/work_counters.py`` replays a fixed seeded prefix in process and
counts the bytecode the broker's offer path runs (two subscribers on
two distinct DC specs, region algorithm, 3 000 tuples).  The count
repeats exactly on one interpreter version, whatever the hash seed, so
it is gated at its exact value: a change that adds work to the offer
path moves it, and must move this number with it, on purpose.

Read on CPython 3.11.7 (x86-64 Linux), opcodes over the 3 000 tuples:

=======================================  ==========  ================
layer                                    before      engine checkpoint
=======================================  ==========  ================
batch engine, ``record=True``            5 305 651   5 273 145
batch engine, ``record=False``           5 100 977   5 068 471
``DisseminationService.offer``           6 730 120   6 493 614
=======================================  ==========  ================

The offer path lost the epoch journal's append (a ``marshal.dumps`` and
a buffer append per offer); both engines lost a dictionary of decided
tuples that nothing read.  Opcodes do not count time inside C calls.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "work_counters.py"

#: The reading before engine checkpoints replaced the epoch journal.
BEFORE = 6_730_120


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
    assert opcodes == 6_493_614 < BEFORE, opcodes
