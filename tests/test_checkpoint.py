"""Engine checkpoints: an image of the open state, not of the history.

The oracle is an uninterrupted twin: a seeded prefix runs, the engine is
checkpointed at an arbitrary index, the image travels as JSON (as it does
between workers), a fresh engine restores it and takes the suffix — every
step must return exactly what the twin's returns, with equal counters.
There is no runtime switch back to any other way of moving an engine, so
the twin is the only reference.
"""

from __future__ import annotations

import json
import marshal
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.cuts import RuntimePredictor, TimeConstraint
from repro.core.engine import GroupAwareEngine
from repro.core.output import BatchedOutput, PerCandidateSetOutput, RegionOutput
from repro.core.tuples import StreamTuple
from repro.filters.spec import parse_filter

#: One spec of each of the eight kinds the spec language parses.
KINDS = {
    "DC1": "DC1(a, 2.0, 1.0)",
    "SDC": "SDC(a, 3.0, 1.5)",
    "DC2": "DC2(a, 60.0, 30.0)",
    "DC3": "DC3(a, b, c, 1.5, 0.75)",
    "SS": "SS(a, 100, 2.0, 50, 20)",
    "RS": "RS(3, 12)",
    "LOC": "LOC(a, b, 2.5, 1.2)",
    "BAND": "BAND(a, 3, lo:-100:-1, mid:-0.999:0.999, hi:1:100)",
}

OUTPUTS = {
    "region": RegionOutput,
    "pcs": PerCandidateSetOutput,
    "batched": lambda: BatchedOutput(5),
}


class FixedPredictor(RuntimePredictor):
    """Records a fixed solve time, so cut decisions do not depend on
    how long this machine took to solve a region."""

    def observe(self, region_size: int, runtime_ms: float) -> None:
        super().observe(region_size, 3.0)


def _trace(n: int, seed: int) -> list[StreamTuple]:
    """Mean-reverting walks in three attributes: every kind above keeps
    opening and closing sets, and BAND keeps changing band."""
    rng = random.Random(seed)
    a = b = c = 0.0
    items = []
    for seq in range(n):
        a = 0.9 * a + rng.gauss(0.0, 1.0)
        b = 0.9 * b + rng.gauss(0.0, 1.0)
        c = 0.9 * c + rng.gauss(0.0, 1.0)
        items.append(StreamTuple(seq, seq * 10.0, {"a": a, "b": b, "c": c}))
    return items


def _engine(kinds, shared, algorithm, output, constrained) -> GroupAwareEngine:
    specs = [KINDS[kind] for kind in kinds]
    if shared:
        specs = specs + specs  # equal specs share a first stage where they may
    filters = [parse_filter(spec, name=f"f{i}") for i, spec in enumerate(specs)]
    return GroupAwareEngine(
        filters,
        algorithm=algorithm,
        output_strategy=OUTPUTS[output](),
        time_constraint=TimeConstraint(40.0) if constrained else None,
        predictor=FixedPredictor(),
        record=False,
    )


def _feed(engine, items) -> list:
    """Every step's return: one per arrival, one per tick after every
    seventh arrival."""
    steps = []
    for item in items:
        steps.append(engine.process(item))
        if item.seq % 7 == 3:
            steps.append(engine.tick(item.timestamp + 4.0))
    return steps


def _counters(engine) -> tuple:
    result = engine._result
    return (
        result.input_count,
        result.cuts_triggered,
        result.regions_emitted,
        result.regions_cut,
    )


def _moved(engine, build) -> GroupAwareEngine:
    """``engine``'s checkpoint, through JSON, restored into a fresh one."""
    image = engine.checkpoint()
    marshal.dumps(image)  # plain data only
    image = json.loads(json.dumps(image))
    fresh = build()
    fresh.restore(image)
    assert fresh.checkpoint() == image  # a fixed point
    return fresh


@settings(max_examples=60, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=8, unique=True),
    shared=st.booleans(),
    algorithm=st.sampled_from(["region", "per_candidate_set"]),
    output=st.sampled_from(sorted(OUTPUTS)),
    constrained=st.booleans(),
    cuts=st.lists(st.integers(min_value=0, max_value=240), min_size=1, max_size=2),
    seed=st.integers(min_value=0, max_value=2**16),
)
@example(
    kinds=sorted(KINDS),
    shared=True,
    algorithm="region",
    output="region",
    constrained=True,
    cuts=[77, 160],
    seed=5,
)
def test_restored_engine_steps_like_its_uninterrupted_twin(
    kinds, shared, algorithm, output, constrained, cuts, seed
):
    def build():
        return _engine(kinds, shared, algorithm, output, constrained)

    items = _trace(240, seed)
    twin = build()
    expected = _feed(twin, items) + [twin.drain()]

    engine = build()
    got: list = []
    done = 0
    for cut in sorted(cuts):  # two cuts: a checkpoint of a restored engine
        got += _feed(engine, items[done:cut])
        engine = _moved(engine, build)
        done = cut
    got += _feed(engine, items[done:]) + [engine.drain()]

    assert got == expected
    assert _counters(engine) == _counters(twin)


def test_a_checkpoint_does_not_disturb_the_engine_it_is_taken_from():
    items = _trace(200, 11)

    def build():
        return _engine(sorted(KINDS), True, "region", "batched", True)

    twin, engine = build(), build()
    expected = _feed(twin, items)
    got = []
    for item in items:
        got += _feed(engine, [item])
        engine.checkpoint()
    assert got == expected


def test_a_finished_engine_has_no_checkpoint():
    engine = _engine(["DC1"], False, "region", "region", False)
    engine.run(_trace(20, 1))
    with pytest.raises(RuntimeError):
        engine.checkpoint()


@pytest.mark.parametrize(
    "change",
    [
        {"algorithm": "per_candidate_set"},
        {"output": "pcs"},
        {"constrained": True},
        {"kinds": ["DC1", "SDC"]},
        {"shared": False},
    ],
    ids=["algorithm", "output", "constraint", "filters", "sharing"],
)
def test_an_image_restores_only_into_the_engine_it_describes(change):
    shape = dict(
        kinds=["DC1"], shared=True, algorithm="region", output="region", constrained=False
    )
    engine = _engine(**shape)
    _feed(engine, _trace(50, 2))
    image = engine.checkpoint()
    with pytest.raises(ValueError, match="another engine"):
        _engine(**{**shape, **change}).restore(image)


@pytest.mark.parametrize(
    "damage",
    [
        lambda image: image[:-1],  # a field short
        lambda image: [*image[:6], -1, *image[7:]],  # negative set count
        lambda image: [*image[:7], [[0, 0]], *image[8:]],  # a set without its state
        lambda image: [*image[:-1], []],  # tuple table lost
    ],
    ids=["short", "set_count", "set", "tuple_table"],
)
def test_a_malformed_image_is_a_value_error(damage):
    engine = _engine(["DC1", "SS"], False, "region", "region", False)
    _feed(engine, _trace(60, 4))
    image = damage(engine.checkpoint())
    with pytest.raises(ValueError):
        _engine(["DC1", "SS"], False, "region", "region", False).restore(image)


def test_image_size_follows_the_open_state_not_the_stream():
    """A periodic input puts the engine in the same state every period:
    after 1 000 and after 100 000 offers the packed images are the same
    size to within 5 % (a journal of the epoch would be 100 times
    longer).  Seqs and timestamps grow, but marshal packs an int below
    2**31 and every float in a fixed width."""
    engine = GroupAwareEngine(
        [
            parse_filter("DC1(v, 2.0, 1.0)", name="app0"),
            parse_filter("DC1(v, 3.0, 1.5)", name="app1"),
        ],
        record=False,
    )
    sizes = {}
    for seq in range(100_000):
        engine.process(StreamTuple.trusted(seq, seq * 10.0, {"v": (seq % 50) * 0.3}))
        if seq + 1 in (1_000, 100_000):
            sizes[seq + 1] = len(marshal.dumps(engine.checkpoint()))
    small, large = sizes[1_000], sizes[100_000]
    assert small > 0 and abs(large - small) / small < 0.05, sizes
