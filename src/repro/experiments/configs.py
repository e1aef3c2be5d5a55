"""Filter-group configurations for every evaluation experiment.

Tables 4.1 and 5.2 of the paper parameterize filters from the measured
*srcStatistics* of the source: "we computed the average changes ... of
two consecutive tuples in the source time series and then randomly
picked delta values between the range of srcStatistics and
3*srcStatistics ... Then we set slack values to be about 50% of the
corresponding delta values" (section 4.3).

Where the synthetic NAMOS trace matches the statistics the paper's
literal numbers imply (thermo/fluoro channels - see
``repro.sources.namos``), the table values are used verbatim.

One substitution: the paper's own traces for the other sources (the
cow, volcano and fire-experiment series of Figure 4.19) and its fluoro
scale in Chapter 5 are not available, so for Figure 4.19, Table 5.2's
fluoro DC1 group and every DC2 (trend) filter the same recipe is
applied to the measured statistics of our synthetic traces
(:func:`dc_specs_from_statistics`, :func:`trend_statistic`) instead of
copying the paper's numbers, which were measured on other data.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.core.tuples import Trace, src_statistics
from repro.filters.trend import _TrendState

__all__ = [
    "TABLE_4_1_GROUPS",
    "FILTER_TYPE_NOTATIONS",
    "dc_specs_from_statistics",
    "fig_4_19_groups",
    "table_5_2_groups",
    "trend_statistic",
]

#: Table 4.1 - "Specifications for groups of filters" (verbatim).
TABLE_4_1_GROUPS: dict[str, list[str]] = {
    "DC_Fluoro": [
        "DC(fluoro, 0.0301, 0.0150)",
        "DC(fluoro, 0.0702, 0.0301)",
        "DC(fluoro, 0.0500, 0.0250)",
    ],
    "DC_Hybrid": [
        "DC(fluoro, 0.0702, 0.0100)",
        "DC(tmpr2, 0.0460, 0.0153)",
        "DC(tmpr4, 0.0310, 0.0103)",
    ],
    "DC_Tmpr": [
        "DC(tmpr4, 0.0620, 0.0310)",
        "DC(tmpr4, 0.0480, 0.0240)",
        "DC(tmpr4, 0.0310, 0.0155)",
    ],
}

#: Table 4.2 - "Filter type notations" (verbatim legend).
FILTER_TYPE_NOTATIONS: list[tuple[str, str]] = [
    ("SI", "Self-Interested filter"),
    ("RG", "Region-based Greedy filter"),
    ("PS", "Per-candidate-Set greedy filter"),
    ("+C", "with timely Cuts"),
    ("+C(x)", "with timely Cuts, x is the name of a time spec."),
    ("(B)", "with Batched output strategy"),
    ("(B)-x", "with Batched output strategy, x is input tuple window"),
    ("(Pcs)", "with Per-candidate-set output strategy"),
]


def dc_specs_from_statistics(
    trace: Trace,
    attribute: str,
    multipliers: Sequence[float],
    slack_fraction: float = 0.5,
    kind: str = "DC1",
) -> list[str]:
    """Apply the section-4.3 recipe: delta = multiplier * srcStatistics,
    slack = slack_fraction * delta."""
    statistic = src_statistics(trace, attribute)
    specs = []
    for multiplier in multipliers:
        # Format delta first and derive slack from the formatted value, so
        # the printed spec never violates Axiom 1 through rounding.
        delta = float(f"{multiplier * statistic:.6g}")
        slack = float(f"{slack_fraction * delta:.6g}")
        slack = min(slack, delta / 2.0)
        specs.append(f"{kind}({attribute}, {delta:.10g}, {slack:.10g})")
    return specs


def trend_statistic(trace: Trace, attribute: str) -> float:
    """srcStatistics of the derived trend series (for DC2 recipes)."""
    state = _TrendState(attribute)
    trends = [state.derive(item) for item in trace]
    total = sum(abs(b - a) for a, b in zip(trends, trends[1:]))
    if len(trends) < 2:
        raise ValueError("trend statistic needs at least two tuples")
    return total / (len(trends) - 1)


def fig_4_19_groups(
    cow: Trace, volcano: Trace, fire: Trace, seed: int = 5
) -> dict[str, list[str]]:
    """Figure 4.19 - filter specifications for the three extra sources.

    The paper's recipe is applied against each synthetic trace's own
    measured statistics: deltas at 1x / 2x / uniform(1, 3)x
    srcStatistics, slack at 50%.
    """
    rng = random.Random(seed)
    groups = {}
    for group_name, trace, attribute in (
        ("DC_cow", cow, "E-orient"),
        ("DC_volcano", volcano, "seis"),
        ("DC_fireExp", fire, "HRR"),
    ):
        multipliers = [1.0, 2.0, rng.uniform(1.0, 3.0)]
        groups[group_name] = dc_specs_from_statistics(trace, attribute, multipliers)
    return groups


def table_5_2_groups(trace: Trace, seed: int = 9) -> dict[int, list[str]]:
    """Table 5.2 - ten groups of (partly heterogeneous) filters.

    Groups 2-5, 7, 8 and 10 use the paper's literal values (our NAMOS
    statistics match); fluoro-based DC1/DC2 parameters are derived with
    the same multipliers against the synthetic trace's statistics, since
    the dissertation's fluoro scale differs between chapters.
    """
    rng = random.Random(seed)
    fluoro_multiplier = rng.uniform(1.0, 2.0)
    fluoro = dc_specs_from_statistics(
        trace, "fluoro", [1.0, 2.33, fluoro_multiplier]
    )
    trend_stat = trend_statistic(trace, "fluoro")

    def dc2_spec(multiplier: float) -> str:
        delta = float(f"{multiplier * trend_stat:.6g}")
        slack = min(float(f"{0.5 * delta:.6g}"), delta / 2.0)
        return f"DC2(fluoro, {delta:.10g}, {slack:.10g})"

    dc2 = [dc2_spec(2.0), dc2_spec(1.0), dc2_spec(1.3)]
    dc2_small = dc2_spec(0.52)
    return {
        1: fluoro,
        2: [
            "DC1(tmpr2, 0.0230, 0.0115)",
            "DC1(tmpr2, 0.0460, 0.0230)",
            "DC1(tmpr2, 0.0315, 0.0107)",
        ],
        3: [
            "DC1(tmpr4, 0.0310, 0.0155)",
            "DC1(tmpr4, 0.0620, 0.0310)",
            "DC1(tmpr4, 0.0480, 0.0240)",
        ],
        4: [
            "DC1(tmpr6, 0.0250, 0.0125)",
            "DC1(tmpr6, 0.0500, 0.0250)",
            "DC1(tmpr6, 0.0345, 0.0172)",
        ],
        5: [
            "DC3(tmpr2, tmpr4, tmpr6, 0.0300, 0.0150)",
            "DC3(tmpr2, tmpr4, tmpr6, 0.0600, 0.0300)",
            "DC3(tmpr2, tmpr4, tmpr6, 0.0452, 0.0226)",
        ],
        6: dc2,
        7: [
            "SS(tmpr4, 1000, 0.1500, 50, 20)",
            "SS(tmpr4, 1000, 0.3000, 50, 20)",
            "SS(tmpr4, 1000, 0.2300, 50, 20)",
        ],
        8: [
            "DC1(tmpr4, 0.0300, 0.0150)",
            "DC3(tmpr2, tmpr4, tmpr6, 0.0300, 0.0150)",
            "DC1(tmpr5, 0.0300, 0.0150)",
        ],
        9: [
            "DC1(tmpr4, 0.0300, 0.0150)",
            "DC3(tmpr2, tmpr4, tmpr6, 0.0300, 0.0150)",
            dc2_small,
        ],
        10: [
            "DC1(tmpr4, 0.0300, 0.0150)",
            "DC3(tmpr2, tmpr4, tmpr6, 0.0300, 0.0150)",
            "SS(tmpr4, 1000, 0.1000, 90, 50)",
        ],
    }
