"""Tests for the declarative scenario harness (loader, grader, runner)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.service.chaos import ChaosOp
from repro.service.loadgen import LoadGenConfig, _RateSchedule
from repro.service.scenario import (
    Scenario,
    ScenarioError,
    grade_scenario,
    load_scenario_file,
    run_scenario,
    scenario_from_dict,
)

MINIMAL = """
[scenario]
name = "minimal"
"""

FULL = """
[scenario]
name = "full"
description = "everything at once"

[load]
source = "random_walk"
size = "tiny"
rate = 120.0
duration_s = 2.0
queue_capacity = 8
overflow = "drop_oldest"
rate_profile = [[0.5, 1.0], [1.0, 3.0]]

[degradation]
levels = ["DC1(value, 4.0, 2.0)", "DC1(value, 16.0, 8.0)"]

[degradation.config]
queue_high_ratio = 0.5
interval_s = 0.05

[[chaos]]
at_s = 0.5
op = "stall_reader"
target = "app0"
duration_s = 0.3

[watch_rules]
[[watch_rules.rule]]
name = "no-drops"
signal = "dropped_tuples"
warn = 1

[verdict]
max_level = 2
max_recovery_s = 4.0
expect_events = ["qos_degraded"]

[verdict.disabled]
require_shed = true
min_shed = 1
"""


def _load(tmp_path: Path, text: str, name="scenario.toml") -> Scenario:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return load_scenario_file(path)


class TestLoader:
    def test_minimal_scenario(self, tmp_path):
        scenario = _load(tmp_path, MINIMAL)
        assert scenario.name == "minimal"
        assert scenario.chaos_ops == ()
        assert scenario.watch_rules is None
        assert isinstance(scenario.config, LoadGenConfig)

    def test_full_scenario(self, tmp_path):
        scenario = _load(tmp_path, FULL)
        assert scenario.description == "everything at once"
        assert scenario.config.rate == 120.0
        assert scenario.config.rate_profile == ((0.5, 1.0), (1.0, 3.0))
        assert scenario.config.degradation_levels == (
            "DC1(value, 4.0, 2.0)",
            "DC1(value, 16.0, 8.0)",
        )
        assert scenario.config.degradation_config == {
            "queue_high_ratio": 0.5,
            "interval_s": 0.05,
        }
        assert scenario.chaos_ops == (
            ChaosOp(
                at_s=0.5, op="stall_reader",
                target="app0", duration_s=0.3,
            ),
        )
        assert scenario.watch_rules is not None
        assert scenario.verdict["max_level"] == 2
        assert "disabled" not in scenario.verdict
        assert scenario.disabled_verdict == {
            "require_shed": True, "min_shed": 1,
        }

    def test_json_same_shape(self, tmp_path):
        data = {
            "scenario": {"name": "as-json"},
            "load": {"rate": 50.0},
            "chaos": [{"at_s": 1.0, "op": "kill_worker", "target": 1}],
            "verdict": {"max_level": 1},
        }
        scenario = _load(tmp_path, json.dumps(data), name="scenario.json")
        assert scenario.name == "as-json"
        assert scenario.chaos_ops[0].op == "kill_worker"
        assert scenario.chaos_ops[0].target == "1"

    def test_missing_scenario_table(self, tmp_path):
        with pytest.raises(ScenarioError, match=r"missing required \[scenario\]"):
            _load(tmp_path, "[load]\nrate = 1.0\n")

    def test_missing_name(self):
        with pytest.raises(ScenarioError, match="needs a string 'name'"):
            scenario_from_dict({"scenario": {"description": "nameless"}})

    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match="unknown key"):
            scenario_from_dict({"scenario": {"name": "x"}, "chaso": []})

    def test_unknown_load_key(self):
        # ``fanout`` and ``codec`` named options that no longer exist.
        for load in (
            {"out_dir": "/tmp/x"},
            {"fanout": "shared"},
            {"codec": "binary"},
        ):
            with pytest.raises(ScenarioError, match="unknown key"):
                scenario_from_dict({"scenario": {"name": "x"}, "load": load})

    def test_bad_load_value_names_the_section(self):
        with pytest.raises(ScenarioError, match="load:"):
            scenario_from_dict(
                {"scenario": {"name": "x"}, "load": {"rate": -5.0}}
            )

    def test_non_positive_metrics_interval_and_in_flight_rejected(self):
        for load in ({"metrics_interval_s": 0.0}, {"max_in_flight": 0}):
            (key,) = load
            with pytest.raises(ScenarioError, match=key):
                scenario_from_dict({"scenario": {"name": "x"}, "load": load})

    def test_rate_profile_shape_checked(self):
        for bad in ("fast", [[1.0]], [[1.0, 2.0, 3.0]], [1.0]):
            with pytest.raises(ScenarioError, match="rate_profile"):
                scenario_from_dict(
                    {
                        "scenario": {"name": "x"},
                        "load": {"rate_profile": bad},
                    }
                )

    def test_degradation_levels_must_be_spec_strings(self):
        for bad in ([], [1.0], "DC1(value, 4, 2)"):
            with pytest.raises(ScenarioError, match="degradation.levels"):
                scenario_from_dict(
                    {
                        "scenario": {"name": "x"},
                        "degradation": {"levels": bad},
                    }
                )

    def test_chaos_entry_validation(self):
        with pytest.raises(ScenarioError, match="needs 'at_s' and 'op'"):
            scenario_from_dict(
                {"scenario": {"name": "x"}, "chaos": [{"at_s": 1.0}]}
            )
        with pytest.raises(ScenarioError, match="unknown chaos op"):
            scenario_from_dict(
                {
                    "scenario": {"name": "x"},
                    "chaos": [{"at_s": 1.0, "op": "set_on_fire"}],
                }
            )
        with pytest.raises(ScenarioError, match="unknown key"):
            scenario_from_dict(
                {
                    "scenario": {"name": "x"},
                    "chaos": [{"at_s": 1.0, "op": "kill_worker", "pid": 4}],
                }
            )

    def test_verdict_key_whitelists(self):
        with pytest.raises(ScenarioError, match="unknown key"):
            scenario_from_dict(
                {"scenario": {"name": "x"}, "verdict": {"max_lvl": 1}}
            )
        with pytest.raises(ScenarioError, match="unknown key"):
            scenario_from_dict(
                {
                    "scenario": {"name": "x"},
                    "verdict": {"disabled": {"require_she": True}},
                }
            )
        with pytest.raises(ScenarioError, match="expect_events"):
            scenario_from_dict(
                {
                    "scenario": {"name": "x"},
                    "verdict": {"expect_events": "qos_degraded"},
                }
            )

    def test_embedded_watch_rules_errors_surface_as_scenario_errors(self):
        with pytest.raises(ScenarioError, match="watch_rules"):
            scenario_from_dict(
                {
                    "scenario": {"name": "x"},
                    "watch_rules": {"rule": [{"name": "r"}]},  # no signal
                }
            )

    def test_shipped_examples_load(self):
        examples = Path(__file__).parent.parent / "examples" / "scenarios"
        files = sorted(examples.glob("*.toml"))
        assert len(files) >= 2
        for path in files:
            scenario = load_scenario_file(path)
            assert scenario.name
            assert scenario.config.degradation_levels


class TestChaosOpValidation:
    def test_worker_target_must_be_an_index(self):
        with pytest.raises(ValueError, match="worker index"):
            ChaosOp(at_s=0.0, op="kill_worker", target="worker-zero")

    def test_windowed_ops_need_duration(self):
        for op in ("stop_worker", "partition", "stall_reader"):
            with pytest.raises(ValueError, match="duration_s"):
                ChaosOp(at_s=0.0, op=op, target="0")

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError, match="at_s"):
            ChaosOp(at_s=-1.0, op="kill_worker")

    def test_stall_reader_takes_app_names(self):
        op = ChaosOp(
            at_s=0.5, op="stall_reader", target="app1", duration_s=1.0
        )
        assert op.target == "app1"


class TestRateSchedule:
    def test_empty_profile_is_constant_rate(self):
        schedule = _RateSchedule(10.0, ())
        assert schedule.time_for(0) == 0.0
        assert schedule.time_for(25) == pytest.approx(2.5)
        assert schedule.count_until(2.5) == pytest.approx(25.0)

    def test_piecewise_segments(self):
        # 10/s base: 2x for 1s (20 tuples), 0.5x for 1s (5 tuples),
        # then the base rate resumes.
        schedule = _RateSchedule(10.0, ((1.0, 2.0), (1.0, 0.5)))
        assert schedule.time_for(0) == 0.0
        assert schedule.time_for(10) == pytest.approx(0.5)
        assert schedule.time_for(20) == pytest.approx(1.0)
        assert schedule.time_for(24) == pytest.approx(1.8)
        assert schedule.time_for(25) == pytest.approx(2.0)
        assert schedule.time_for(35) == pytest.approx(3.0)
        assert schedule.count_until(0.5) == pytest.approx(10.0)
        assert schedule.count_until(1.5) == pytest.approx(22.5)
        assert schedule.count_until(3.0) == pytest.approx(35.0)

    def test_time_for_and_count_until_are_inverses(self):
        schedule = _RateSchedule(7.0, ((0.4, 3.0), (1.1, 0.25), (2.0, 1.5)))
        for index in range(0, 40, 3):
            assert schedule.count_until(
                schedule.time_for(index)
            ) == pytest.approx(float(index))


def _scenario(**verdict) -> Scenario:
    """A graded scenario over the tiny subscriber set (2 apps)."""
    return Scenario(
        name="synthetic",
        config=LoadGenConfig(
            size="tiny",
            duration_s=1.0,
            degradation_levels=("DC1(value, 4.0, 2.0)",),
        ),
        verdict=dict(verdict),
        disabled_verdict={"require_shed": True, "min_shed": 1},
    )


def _summary(**overrides) -> dict:
    base = {
        "final_subscriptions": [
            ["app0", "DC1(value, 1.0, 0.5)"],
            ["app1", "DC1(value, 2.0, 1.0)"],
        ],
        "delivered_tuples": 100,
        "clean_shutdown": True,
        "errors": [],
        "qos": {
            "max_level": 1,
            "final_level_by_app": {"app0": 0, "app1": 0},
            "recovery_time_s": 0.8,
        },
        "delivered_digest": {
            "app0": {"count": 50, "digest": "aa"},
            "app1": {"count": 50, "digest": "bb"},
        },
    }
    base.update(overrides)
    return base


def _by_name(manifest: dict) -> dict:
    return {c["name"]: c for c in manifest["checks"]}


class TestGrading:
    def test_healthy_summary_passes(self):
        manifest = grade_scenario(
            _scenario(max_level=1, max_recovery_s=2.0), _summary()
        )
        assert manifest["passed"], manifest["checks"]
        names = set(_by_name(manifest))
        assert {
            "subscribers_retained",
            "degradation_bounded",
            "recovered_to_level_0",
            "recovery_within_budget",
            "digests_recorded",
            "delivered",
            "clean_shutdown",
        } <= names

    def test_shed_subscriber_fails_retention(self):
        summary = _summary(
            final_subscriptions=[["app0", "DC1(value, 1.0, 0.5)"]]
        )
        manifest = grade_scenario(_scenario(), summary)
        check = _by_name(manifest)["subscribers_retained"]
        assert not check["ok"]
        assert "app1" in check["detail"]
        assert not manifest["passed"]

    def test_level_bound_enforced(self):
        summary = _summary(qos=dict(_summary()["qos"], max_level=2))
        manifest = grade_scenario(_scenario(max_level=1), summary)
        check = _by_name(manifest)["degradation_bounded"]
        assert not check["ok"]
        assert (check["value"], check["bound"]) == (2, 1)

    def test_stuck_session_fails_recovery(self):
        qos = dict(_summary()["qos"])
        qos["final_level_by_app"] = {"app0": 0, "app1": 1}
        manifest = grade_scenario(_scenario(), _summary(qos=qos))
        check = _by_name(manifest)["recovered_to_level_0"]
        assert not check["ok"]
        assert "app1" in check["detail"]

    def test_no_round_trip_fails_recovery_budget(self):
        qos = dict(_summary()["qos"], recovery_time_s=None)
        manifest = grade_scenario(
            _scenario(max_recovery_s=2.0), _summary(qos=qos)
        )
        assert not _by_name(manifest)["recovery_within_budget"]["ok"]

    def test_expected_events_need_an_event_log(self, tmp_path):
        scenario = _scenario(expect_events=["qos_degraded"])
        # No out_dir: the check must fail loudly, not silently pass.
        manifest = grade_scenario(scenario, _summary())
        assert not _by_name(manifest)["events_observed"]["ok"]
        # With a log that has the kind, it passes.
        (tmp_path / "events.jsonl").write_text(
            json.dumps({"kind": "qos_degraded"}) + "\n"
            + json.dumps({"kind": "qos_recovered"}) + "\n",
            encoding="utf-8",
        )
        manifest = grade_scenario(scenario, _summary(), out_dir=tmp_path)
        assert _by_name(manifest)["events_observed"]["ok"]
        # A missing kind names itself in the detail.
        scenario = _scenario(expect_events=["worker_respawn"])
        manifest = grade_scenario(scenario, _summary(), out_dir=tmp_path)
        check = _by_name(manifest)["events_observed"]
        assert not check["ok"] and "worker_respawn" in check["detail"]

    def test_missing_digest_fails(self):
        digests = {"app0": {"count": 50, "digest": "aa"}}
        manifest = grade_scenario(
            _scenario(), _summary(delivered_digest=digests)
        )
        check = _by_name(manifest)["digests_recorded"]
        assert not check["ok"] and "app1" in check["detail"]

    def test_chaos_must_all_apply(self):
        scenario = Scenario(
            name="chaotic",
            config=LoadGenConfig(size="tiny", duration_s=1.0),
            chaos_ops=(ChaosOp(at_s=0.1, op="kill_worker"),),
        )
        summary = _summary(
            chaos_applied=[
                {"at_s": 0.1, "op": "kill_worker", "ok": False,
                 "error": "no live process"}
            ]
        )
        manifest = grade_scenario(scenario, summary)
        check = _by_name(manifest)["chaos_applied"]
        assert not check["ok"] and "no live process" in check["detail"]

    def test_disabled_mode_grades_shedding(self):
        scenario = _scenario()
        # Nobody shed: the control run proved nothing -> fail.
        manifest = grade_scenario(scenario, _summary(), degradation=False)
        assert not manifest["passed"]
        assert not _by_name(manifest)["subscribers_shed"]["ok"]
        # One shed subscriber satisfies min_shed=1.
        summary = _summary(
            final_subscriptions=[["app0", "DC1(value, 1.0, 0.5)"]],
            clean_shutdown=False,
        )
        manifest = grade_scenario(scenario, summary, degradation=False)
        assert manifest["passed"], manifest["checks"]
        # Off-mode runs shed sessions, so clean_shutdown is not graded
        # unless explicitly requested.
        assert "clean_shutdown" not in _by_name(manifest)

    def test_dirty_shutdown_fails_on_mode(self):
        summary = _summary(clean_shutdown=False, errors=["1 task leaked"])
        manifest = grade_scenario(_scenario(), summary)
        check = _by_name(manifest)["clean_shutdown"]
        assert not check["ok"] and "task leaked" in check["detail"]


class TestRunScenario:
    def test_end_to_end_manifest_and_artifacts(self, tmp_path):
        """A short real run: manifest passes, verdict.json lands next to
        the loadgen artifacts, off-mode grades against [verdict.disabled]."""
        scenario = scenario_from_dict(
            {
                "scenario": {"name": "smoke"},
                "load": {
                    "size": "tiny",
                    "rate": 80.0,
                    "duration_s": 1.0,
                    "seed": 3,
                    "metrics_interval_s": 0.2,
                },
                "verdict": {
                    "min_delivered": 1,
                    "disabled": {"require_shed": False},
                },
            }
        )
        out = tmp_path / "run"
        manifest = run_scenario(scenario, out_dir=out)
        assert manifest["passed"], manifest["checks"]
        assert manifest["schema"] == "repro-scenario/v1"
        assert (out / "verdict.json").exists()
        assert (out / "summary.json").exists()
        on_disk = json.loads((out / "verdict.json").read_text())
        assert on_disk["scenario"] == "smoke"
        # Digests were collected even though verify= is off.
        digests = manifest["summary"]["delivered_digest"]
        assert digests and all(d["count"] > 0 for d in digests.values())

        off = run_scenario(scenario, degradation=False)
        assert off["degradation"] is False
        assert off["passed"], off["checks"]
