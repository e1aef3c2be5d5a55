#!/usr/bin/env python3
"""Adaptive group-awareness: the paper's future-work directions, running.

Sections 4.8 and 6.2 sketch three production concerns this example
demonstrates on live streams:

1. **Selectivity monitoring** - spot "bad" filters that select most of
   the source anyway, so coordination cannot pay for itself;
2. **Regrouping** - isolate those filters and split groups whose
   attribute sets are disjoint (their candidate sets can never overlap);
3. **Dynamic group-awareness** - disable coordination when the measured
   benefit drops below threshold, and probe to re-enable it.

Run:  python examples/adaptive_filtering.py
"""

from repro import DeltaCompressionFilter, SelfInterestedEngine
from repro.adaptive.controller import AdaptiveController
from repro.adaptive.regroup import isolate_greedy_filters, partition_by_attribute
from repro.adaptive.selectivity import selectivity_from_result
from repro.sources import namos_trace, step_trace


def monitoring_and_regrouping() -> None:
    trace = namos_trace(n=2000, seed=7)
    filters = [
        # A near-pass-through filter: delta far below the source noise.
        DeltaCompressionFilter("firehose", "tmpr4", 0.004, 0.001),
        DeltaCompressionFilter("thermal-1", "tmpr4", 0.0620, 0.0310),
        DeltaCompressionFilter("thermal-2", "tmpr4", 0.0310, 0.0155),
        DeltaCompressionFilter("bio-1", "fluoro", 0.0468, 0.0234),
    ]
    result = SelfInterestedEngine(filters).run(trace)
    selectivity = selectivity_from_result(result)

    print("Per-filter selectivity (fraction of the source each one needs):")
    for name, fraction in sorted(selectivity.items()):
        print(f"  {name:12} {fraction:.2f}")

    coordinated, isolated = isolate_greedy_filters(filters, selectivity, threshold=0.8)
    print(f"\nIsolated as 'bad' (coordination cannot help): "
          f"{[f.name for f in isolated] or 'none'}")

    groups = partition_by_attribute(coordinated)
    print("Attribute-disjoint coordination groups:")
    for group in groups:
        print(f"  {[f.name for f in group]}")


def dynamic_group_awareness() -> None:
    def factory():
        return [
            DeltaCompressionFilter("A", "value", 10.0, 0.1),
            DeltaCompressionFilter("B", "value", 20.0, 0.1),
        ]

    # A staircase source: abrupt jumps, near-zero slack tolerance -
    # candidate sets are singletons, so coordination cannot save a tuple.
    trace = step_trace(n=900, step_every=20, step_height=10.0)
    controller = AdaptiveController(factory, window_size=150)
    outcome = controller.run(trace)

    print("\nDynamic group-awareness on a no-benefit workload:")
    for window in outcome.windows:
        print(
            f"  window {window.window_index}: mode={window.mode:16} "
            f"output={window.output_count:3d} "
            f"benefit={window.benefit:+.2%}"
        )
    print(
        f"Controller switched modes {outcome.mode_switches} time(s); "
        "it stops paying coordination CPU once the benefit vanishes."
    )


if __name__ == "__main__":
    monitoring_and_regrouping()
    dynamic_group_awareness()
