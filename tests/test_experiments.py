"""Tests for the experiment harness, configs and CLI."""

import pytest

from repro.experiments.cli import main
from repro.experiments.configs import (
    TABLE_4_1_GROUPS,
    dc_specs_from_statistics,
    table_5_2_groups,
)
from repro.experiments.harness import (
    STANDARD_VARIANTS,
    Variant,
    run_group,
    run_variant,
    variant_from_name,
)
from repro.experiments.registry import EXPERIMENTS
from repro.filters.spec import parse_filter
from repro.sources import namos_trace

#: Every table and figure of the evaluation chapters, per DESIGN.md.
EXPECTED_IDS = {
    "table_4_1", "table_4_2",
    "fig_4_2", "fig_4_3", "fig_4_4", "fig_4_5", "fig_4_6", "fig_4_7", "fig_4_8",
    "fig_4_9", "fig_4_10", "fig_4_11", "fig_4_12", "fig_4_13", "fig_4_14",
    "fig_4_15", "fig_4_16", "fig_4_17", "fig_4_18", "fig_4_19", "fig_4_20",
    "fig_4_21", "fig_4_22", "fig_4_23", "fig_4_24",
    "table_5_1", "table_5_2", "table_5_3",
    "fig_5_2", "fig_5_3", "fig_5_4_scenario", "fig_5_5_scenario",
}


class TestRegistry:
    def test_every_paper_artifact_has_an_experiment(self):
        assert set(EXPERIMENTS.ids()) == EXPECTED_IDS

    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="available"):
            EXPERIMENTS.run("fig_99_9")


class TestVariantParsing:
    @pytest.mark.parametrize(
        "name,algorithm,cuts,output",
        [
            ("SI", "self_interested", False, "region"),
            ("RG", "region", False, "region"),
            ("RG+C", "region", True, "region"),
            ("PS", "per_candidate_set", False, "region"),
            ("PS+C", "per_candidate_set", True, "region"),
            ("PS(Pcs)", "per_candidate_set", False, "pcs"),
            ("PS(B)-200", "per_candidate_set", False, "batched"),
        ],
    )
    def test_notation(self, name, algorithm, cuts, output):
        variant = variant_from_name(name)
        assert variant.algorithm == algorithm
        assert variant.cuts is cuts
        assert variant.output == output

    def test_batch_size_parsed(self):
        assert variant_from_name("PS(B)-400").batch_size == 400

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            variant_from_name("XX")

    def test_bad_strategy(self):
        with pytest.raises(ValueError):
            Variant("x", "region", output="weird").to_engine_config()


class TestConfigs:
    def test_table_4_1_specs_parse(self):
        for specs in TABLE_4_1_GROUPS.values():
            assert len(specs) == 3
            for spec in specs:
                parse_filter(spec)

    def test_recipe_respects_axiom(self):
        trace = namos_trace(n=400, seed=7)
        specs = dc_specs_from_statistics(trace, "tmpr4", [1.0, 2.0, 2.7])
        for spec in specs:
            flt = parse_filter(spec)
            assert flt.slack <= flt.delta / 2 * (1 + 1e-4)

    def test_table_5_2_has_ten_groups(self):
        trace = namos_trace(n=400, seed=9)
        groups = table_5_2_groups(trace)
        assert sorted(groups) == list(range(1, 11))
        for specs in groups.values():
            assert len(specs) == 3
            for spec in specs:
                parse_filter(spec)


class TestHarness:
    def test_run_group_covers_variants(self):
        trace = namos_trace(n=300, seed=7)
        run = run_group("g", TABLE_4_1_GROUPS["DC_Tmpr"], trace, STANDARD_VARIANTS)
        assert set(run.results) == set(STANDARD_VARIANTS)
        assert run.output_ratio("RG") <= 1.0

    def test_run_variant_with_custom_constraint(self):
        trace = namos_trace(n=300, seed=7)
        result = run_variant(
            TABLE_4_1_GROUPS["DC_Tmpr"], trace, "RG+C", constraint_ms=50.0
        )
        assert result.regions_emitted > 0


class TestSmallExperiments:
    """Smoke-run the cheap experiments end to end."""

    @pytest.mark.parametrize("experiment_id", ["table_4_1", "table_4_2", "table_5_1"])
    def test_static_tables(self, experiment_id):
        report = EXPERIMENTS.run(experiment_id, n_tuples=300, repeats=1, seed=7)
        assert report.text
        assert report.experiment_id == experiment_id

    def test_fig_4_2_claims(self):
        report = EXPERIMENTS.run("fig_4_2", n_tuples=800, repeats=1, seed=7)
        for group, ratios in report.data.items():
            for variant in ("RG", "RG+C", "PS", "PS+C"):
                assert ratios[variant] <= ratios["SI"], (group, variant)

    def test_fig_4_15_monotone_trend(self):
        report = EXPERIMENTS.run("fig_4_15", n_tuples=800, repeats=1, seed=7)
        ratios = [report.data[f] for f in sorted(report.data)]
        # More slack -> more sharing: the ends of the sweep must order.
        assert ratios[-1] < ratios[0]

    def test_fig_5_2_majority_below_unity(self):
        report = EXPERIMENTS.run("fig_5_2", n_tuples=1200, repeats=1, seed=9)
        below = sum(1 for ratio in report.data.values() if ratio < 1.0)
        assert below >= 8

    def test_scenario_savings_positive(self):
        report = EXPERIMENTS.run("fig_5_4_scenario", n_tuples=1200, repeats=1, seed=23)
        assert report.data["saving"] > 0


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        printed = capsys.readouterr().out.split()
        assert set(printed) == EXPECTED_IDS

    def test_run(self, capsys):
        assert main(["run", "table_4_2"]) == 0
        assert "Filter type notations" in capsys.readouterr().out

    def test_run_with_knobs(self, capsys):
        assert main(["run", "fig_4_2", "--tuples", "300", "--seed", "3"]) == 0
        assert "O/I" in capsys.readouterr().out
