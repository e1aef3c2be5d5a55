"""The shared first stage: identical specs are evaluated once per group.

There is no switch that turns sharing off, so the reference is built by
construction: the same group with every filter re-classed to a test-only
subclass whose ``sharing_key()`` is ``None``.  Everything an engine run
reports must be equal between the two.
"""

import asyncio

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.cuts import RuntimePredictor, TimeConstraint
from repro.core.engine import GroupAwareEngine
from repro.core.output import BatchedOutput, PerCandidateSetOutput, RegionOutput
from repro.core.tuples import StreamTuple
from repro.filters import parse_filter, replay_candidate_sets
from repro.filters.sampling import StratifiedSamplingFilter
from repro.obs.telemetry import Telemetry
from repro.runtime.tasks import EngineConfig
from repro.service.broker import DisseminationService, ServiceConfig
from repro.sources import random_walk_trace

# Spec templates over attributes ``v``/``w``; ``{d}`` is a drawn scale.
_SHAREABLE = (
    "DC1(v, {d:.3f}, {h:.3f})",
    "DC2(v, {t:.1f}, {th:.1f})",
    "DC3(v, w, {d:.3f}, {h:.3f})",
    "LOC(v, w, {d:.3f}, {h:.3f})",
    "BAND(v, 3, low:-1000:0, high:0:1000)",
    "SS(v, 40, {d:.3f}, 60, 20)",
    "SS(v, 40, {d:.3f}, 60, 20, top)",
)
_UNSHAREABLE = ("SDC(v, {d:.3f}, {h:.3f})", "RS(2, 5)")

_STRATEGIES = {
    "region": RegionOutput,
    "pcs": PerCandidateSetOutput,
    "batched": lambda: BatchedOutput(3),
}


class _FrozenPredictor(RuntimePredictor):
    """Predicts 0 ms whatever it observes, so a region cut depends on
    the stream alone and not on how long this machine took to solve."""

    def observe(self, region_size: int, runtime_ms: float) -> None:
        pass


def _unshared(flt):
    """The same filter, opted out of sharing (the reference)."""
    flt.__class__ = type(
        f"Unshared{type(flt).__name__}",
        (type(flt),),
        {"sharing_key": lambda self: None},
    )
    return flt


def _trace(steps):
    v = w = 0.0
    items = []
    for seq, (dv, dw) in enumerate(steps):
        v += dv
        w += dw
        items.append(StreamTuple(seq=seq, timestamp=seq * 10.0, values={"v": v, "w": w}))
    return items


def _run(filters, trace, algorithm, output, constraint_ms):
    engine = GroupAwareEngine(
        filters,
        algorithm=algorithm,
        output_strategy=_STRATEGIES[output](),
        time_constraint=TimeConstraint(constraint_ms) if constraint_ms else None,
        predictor=_FrozenPredictor(),
    )
    return engine, engine.run(trace)


def _observed(result):
    return {
        "inputs": result.input_count,
        "decisions": {
            name: [(tuple(t.seq for t in d.tuples), d.decide_ts) for d in decided]
            for name, decided in result.decisions.items()
        },
        "emissions": [
            (e.item.seq, e.recipients, e.emit_ts, e.decide_ts)
            for e in result.emissions
        ],
        "regions_emitted": result.regions_emitted,
        "regions_cut": result.regions_cut,
        "cuts_triggered": result.cuts_triggered,
    }


@st.composite
def _groups(draw):
    """Specs in subscriber order: duplicated and distinct, unequal
    multiplicities, shareable ones interleaved with SDC/RS."""
    scale = st.floats(min_value=0.5, max_value=6.0)
    distinct = []
    # DC1 beside SDC is where evaluation order shows (see the pinned
    # example below), so those two are drawn more often than the rest.
    pool = _SHAREABLE + _UNSHAREABLE + (_SHAREABLE[0], _UNSHAREABLE[0]) * 3
    for template in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4)):
        d = draw(scale)
        distinct.append(
            template.format(d=d, h=d * draw(st.sampled_from((0.0, 0.25, 0.45))),
                            t=d * 60, th=d * 20)
        )
    picks = draw(
        st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=9)
    )
    return [distinct[i] for i in picks]


_steps = st.lists(
    st.tuples(
        st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=-3.0, max_value=3.0)
    ),
    min_size=10,
    max_size=100,
)


_A = "DC1(v, 1.3, 0.59)"
_ACROSS_SDC = (
    -2.2, -2.2, -1.4, 0.3, -0.7, 1.9, 1.5, -1.3, 1.3, 0.6, 0.5,
    1.4, -1.1, -0.6, 1.3, 1.2, 0.8, 2.8, 1.3, 0.2, 0.8,
)  # fmt: skip


class TestEquivalentToUnshared:
    @settings(max_examples=150, deadline=None)
    @given(
        specs=_groups(),
        steps=_steps,
        algorithm=st.sampled_from(("region", "per_candidate_set")),
        output=st.sampled_from(sorted(_STRATEGIES)),
        constraint_ms=st.sampled_from((None, 30.0, 80.0)),
    )
    @example(
        # Sharing f0 with f3 *across* the SDC filter would apply f3's
        # dismissal before f1 reads the utility and flip f1's pick.
        specs=[_A, "SDC(v, 2.0, 0.9)", "DC1(v, 2.6, 0.65)", _A],
        steps=[(dv, 0.0) for dv in _ACROSS_SDC],
        algorithm="region",
        output="region",
        constraint_ms=None,
    )
    def test_everything_a_run_reports(
        self, specs, steps, algorithm, output, constraint_ms
    ):
        trace = _trace(steps)
        group = [parse_filter(spec, name=f"f{i}") for i, spec in enumerate(specs)]
        reference = [_unshared(parse_filter(s, name=f"f{i}")) for i, s in enumerate(specs)]
        engine, shared = _run(group, trace, algorithm, output, constraint_ms)
        ref_engine, unshared = _run(reference, trace, algorithm, output, constraint_ms)
        assert ref_engine.context_count == len(specs)
        assert engine.filters == group
        assert _observed(shared) == _observed(unshared)
        _assert_decided_once_per_class(engine, shared)


def _assert_decided_once_per_class(engine, result):
    """The second stage's sharing: co-owners' rows hold the *same*
    decision object, labelled with its candidate set's owners, and
    equal recipient sets are one ``frozenset``."""
    for ctx in engine._contexts:
        first, *others = ctx.owners
        for decision in result.decisions[first]:
            assert decision.owners == ctx.owners
            assert decision.filter_name == first
        for other in others:
            assert len(result.decisions[other]) == len(result.decisions[first])
            for mine, theirs in zip(result.decisions[first], result.decisions[other]):
                assert mine is theirs
    interned = {}
    for emission in result.emissions:
        assert interned.setdefault(emission.recipients, emission.recipients) is (
            emission.recipients
        )


def _context_count(specs, algorithm="region"):
    group = [parse_filter(spec, name=f"f{i}") for i, spec in enumerate(specs)]
    return GroupAwareEngine(group, algorithm=algorithm).context_count


class TestWhichFiltersShare:
    A, B = "DC1(v, 2, 1)", "DC1(v, 3, 1)"

    def test_one_context_per_distinct_spec(self):
        assert _context_count([self.A, self.B, self.A, self.A, self.B]) == 2

    def test_parameters_and_kind_both_distinguish(self):
        assert _context_count(["DC1(v, 2, 1)", "DC2(v, 2, 1)", "DC1(v, 2, 0.5)"]) == 3

    def test_stateful_and_reservoir_filters_never_share(self):
        assert _context_count(["SDC(v, 2, 1)"] * 2 + ["RS(2, 5)"] * 2) == 4

    def test_no_class_spans_an_early_decider(self):
        """An SDC filter reads the utility mid-arrival: the copies of A
        before it and after it must stay on their own sides."""
        assert _context_count([self.A, self.A, "SDC(v, 2, 1)", self.A, self.A]) == 3

    def test_per_candidate_set_algorithm_shares_nothing(self):
        assert _context_count([self.A] * 3, algorithm="per_candidate_set") == 3

    def test_owners_follow_the_callers_order(self):
        group = [parse_filter(s, name=n) for n, s in (("x", self.A), ("y", self.B), ("z", self.A))]
        engine = GroupAwareEngine(group)
        assert [ctx.owners for ctx in engine._contexts] == [("x", "z"), ("y",)]
        result = engine.run(_trace([(1.5, 0.0)] * 12))
        assert result.decisions["x"] and result.decisions["y"]
        assert [d.tuples for d in result.decisions["z"]] == [
            d.tuples for d in result.decisions["x"]
        ]


class TestStratifiedSamplingIsShareable:
    @pytest.mark.parametrize("prescription", ["random", "top", "bottom"])
    def test_group_aware_path_ignores_the_seed(self, prescription):
        """``seed`` feeds the self-interested sampler only, so it is
        rightly absent from the sharing key."""
        trace = _trace([(1.0, 0.0), (-2.5, 0.0), (0.5, 0.0), (3.0, 0.0)] * 8)

        def make(seed):
            return StratifiedSamplingFilter(
                "s", "v", 40, 2.0, 60, 20, prescription=prescription, seed=seed
            )

        def sets(seed):
            return [
                (cs.seqs, cs.degree, [t.seq for t in cs.eligible_tuples])
                for cs in replay_candidate_sets(lambda: make(seed), trace)
            ]

        assert sets(1) == sets(2)
        assert make(1).sharing_key() == make(2).sharing_key()


# ---------------------------------------------------------------------------
# Live broker: a duplicate spec through churn, migration and /metrics
# ---------------------------------------------------------------------------
_SPEC_A, _SPEC_B = "DC1(temp, 1.5, 0.75)", "DC1(temp, 2.5, 1.25)"

#: (offer index, operation, app, spec): app ``c`` duplicates ``a``'s
#: spec, is re-filtered away from it and back, then leaves.
_SCRIPT = (
    (0, "subscribe", "a", _SPEC_A),
    (0, "subscribe", "b", _SPEC_B),
    (0, "subscribe", "c", _SPEC_A),
    (30, "re_filter", "c", _SPEC_B),
    (60, "re_filter", "c", _SPEC_A),
    (90, "unsubscribe", "c", None),
)


def _unshared_reference(trace) -> dict[str, list[int]]:
    """Per-app streams from one unshared batch engine per epoch (a churn
    operation cuts the live engine over, i.e. finishes it)."""
    live: dict[str, str] = {}
    streams: dict[str, list[int]] = {}
    bounds = sorted({at for at, *_ in _SCRIPT} | {len(trace)})
    for start, end in zip(bounds, bounds[1:]):
        for at, op, app, spec in _SCRIPT:
            if at == start:
                if op == "unsubscribe":
                    del live[app]
                else:
                    live[app] = spec
        group = [_unshared(parse_filter(spec, name=app)) for app, spec in live.items()]
        result = GroupAwareEngine(group).run(trace[start:end])
        for emission in result.emissions:
            for app in emission.recipients:
                streams.setdefault(app, []).append(emission.item.seq)
    return streams


async def _run_script(trace, migrate_at=frozenset()):
    def broker():
        service = DisseminationService(
            ServiceConfig(engine=EngineConfig(algorithm="region"), batch_max_items=1)
        )
        service.add_source("src")
        return service

    services = [broker()]
    streams: dict[str, list[int]] = {}
    consumers: list[asyncio.Task] = []
    contexts: list[float] = []

    async def drain(app, session):
        async for batch in session.batches():
            streams[app].extend(item.seq for item in batch.items)

    async def attach(app, spec):
        session = await services[-1].subscribe(app, "src", spec, queue_capacity=10_000)
        streams.setdefault(app, [])
        consumers.append(asyncio.create_task(drain(app, session)))

    for index, item in enumerate(trace):
        for at, op, app, spec in _SCRIPT:
            if at != index:
                continue
            if op == "subscribe":
                await attach(app, spec)
            elif op == "re_filter":
                await services[-1].re_filter(app, spec)
            else:
                await services[-1].unsubscribe(app)
            contexts.append(services[-1].engine_context_count())
        if index in migrate_at:
            state = await services[-1].export_source("src")
            services.append(broker())
            for app, spec in state["subscriptions"]:
                await attach(app, spec)
            await services[-1].import_source("src", state)
        await services[-1].offer("src", item)
    for service in services:
        await service.close()
    await asyncio.gather(*consumers)
    return streams, contexts


class TestBrokerSharing:
    def test_duplicate_spec_through_churn_equals_unshared_batch(self):
        trace = list(random_walk_trace(n=120, seed=42, attribute="temp"))
        streams, _ = asyncio.run(_run_script(trace))
        assert streams == _unshared_reference(trace)

    @pytest.mark.parametrize("migrate_at", [{15}, {45}, {20, 75}])
    def test_migration_replay_stays_byte_identical(self, migrate_at):
        """export_source/import_source moves the engine's checkpoint into
        a fresh engine; shared contexts must restore to the same state."""
        trace = list(random_walk_trace(n=120, seed=42, attribute="temp"))
        baseline, _ = asyncio.run(_run_script(trace))
        migrated, _ = asyncio.run(_run_script(trace, migrate_at=frozenset(migrate_at)))
        assert migrated == baseline

    def test_engine_contexts_gauge_reads_the_sharing_ratio(self):
        trace = list(random_walk_trace(n=120, seed=42, attribute="temp"))
        telemetry = Telemetry(sample_period=0)
        exposition = []

        async def run():
            service = DisseminationService(ServiceConfig(), telemetry=telemetry)
            service.add_source("src")
            for app, spec in (("a", _SPEC_A), ("b", _SPEC_B), ("c", _SPEC_A)):
                await service.subscribe(app, "src", spec)
            exposition.append(telemetry.registry.render())
            await service.close()

        asyncio.run(run())
        assert "repro_broker_sessions 3" in exposition[0]
        assert "repro_broker_engine_contexts 2" in exposition[0]

    def test_contexts_follow_the_subscription_set(self):
        trace = list(random_walk_trace(n=120, seed=42, attribute="temp"))
        _, contexts = asyncio.run(_run_script(trace))
        # a | a,b | a,b,c(=a) | c -> b's spec | c back on a's | c gone
        assert contexts == [1, 2, 2, 2, 2, 2]
