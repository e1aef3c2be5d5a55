"""Declarative robustness scenarios with graded verdicts.

A scenario file composes a load shape (flash crowd, diurnal swell,
correlated bursts — :class:`~repro.service.loadgen.LoadGenConfig` with a
``rate_profile``), a degradation ladder
(:mod:`repro.qos`), a chaos schedule (:mod:`repro.service.chaos`) and
per-scenario Watchtower rules into one reproducible experiment, and
every run is *graded*: the harness emits a ``repro-scenario/v1`` verdict
manifest whose checks assert the robustness claims the run was supposed
to demonstrate — every subscriber still connected, degradation bounded
to the declared maximum level, recovery to level 0 inside the budget,
the remediation chain actually observed, delivered-stream digests
recorded per subscriber.

TOML is the native format (3.11+ ``tomllib``); JSON with the same shape
works everywhere — the file goes through the same parse/strict-key
machinery as :mod:`repro.obs.rulesfile`, and an embedded
``[watch_rules]`` table is resolved by that module's own loader.

Example (TOML)::

    [scenario]
    name = "flash-crowd"
    description = "6x burst; degrade instead of dropping subscribers"

    [load]
    source = "random_walk"
    size = "tiny"
    rate = 300.0
    duration_s = 5.0
    queue_capacity = 4
    overflow = "drop_oldest"
    consumer_delay_ms = 8.0
    rate_profile = [[0.5, 1.0], [1.5, 6.0], [3.0, 0.2]]

    [degradation]
    levels = ["DC1(value, 60, 1)", "DC1(value, 240, 1)"]
    [degradation.config]
    queue_high_ratio = 0.5
    interval_s = 0.05

    [[chaos]]
    at_s = 1.0
    op = "kill_worker"
    target = 0

    [verdict]
    max_level = 1
    max_recovery_s = 5.0
    expect_events = ["qos_degraded", "qos_recovered"]

    [verdict.disabled]        # grades the --degradation off replay
    require_shed = true

``run_scenario(scenario, degradation=False)`` replays the identical
trace with the ladder stripped and grades it against
``[verdict.disabled]`` instead — the control run that demonstrates the
overload *would* have shed subscribers without adaptive QoS.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from repro.obs.rulesfile import (
    RulesConfig,
    RulesFileError,
    _check_keys,
    _parse_text,
    rules_config_from_dict,
)
from repro.service.chaos import ChaosOp, ChaosSchedule
from repro.service.loadgen import (
    SIZES,
    LoadGenConfig,
    _app_name,
    run_loadgen,
)

__all__ = [
    "ScenarioError",
    "Scenario",
    "load_scenario_file",
    "run_scenario",
]

#: Manifest schema identifier.
SCHEMA = "repro-scenario/v1"

_TOP_KEYS = frozenset(
    {"scenario", "load", "degradation", "chaos", "watch_rules", "verdict"}
)

_SCENARIO_KEYS = frozenset({"name", "description"})

#: ``[load]`` keys forwarded into :class:`LoadGenConfig` verbatim
#: (after shape conversion for ``rate_profile``).  Deliberately absent:
#: ``churn``/``verify``/``connect``/``drain_trace`` (scenario runs
#: grade delivered digests, not batch equivalence), ``out_dir`` (the
#: runner owns artifact placement) and the degradation fields (those
#: come from ``[degradation]``).
_LOAD_KEYS = frozenset(
    {
        "source",
        "size",
        "rate",
        "duration_s",
        "mode",
        "algorithm",
        "constraint_ms",
        "seed",
        "queue_capacity",
        "overflow",
        "batch_max_items",
        "batch_max_delay_ms",
        "consumer_delay_ms",
        "metrics_interval_s",
        "max_in_flight",
        "transport",
        "ingest_batch",
        "adaptive_batch",
        "sources",
        "workers",
        "trace_sample",
        "tuple_size_bytes",
        "watch",
        "watch_interval_s",
        "rate_profile",
    }
)

_DEGRADATION_KEYS = frozenset({"levels", "config"})

_CHAOS_KEYS = frozenset({"at_s", "op", "target", "duration_s"})

_VERDICT_KEYS = frozenset(
    {
        "require_all_connected",
        "max_level",
        "require_full_recovery",
        "max_recovery_s",
        "expect_events",
        "require_chaos_applied",
        "require_clean_shutdown",
        "require_digests",
        "min_delivered",
        "disabled",
    }
)

_DISABLED_KEYS = frozenset(
    {"require_shed", "min_shed", "require_clean_shutdown", "min_delivered"}
)


class ScenarioError(ValueError):
    """A scenario file that parsed but does not describe a valid run."""


@dataclass(frozen=True)
class Scenario:
    """One loaded scenario: config, faults, rules and grading criteria."""

    name: str
    description: str = ""
    #: Degradation fields included when the file declares a ladder.
    config: LoadGenConfig = field(default_factory=LoadGenConfig)
    chaos_ops: tuple[ChaosOp, ...] = ()
    #: ``[verdict]`` table (degradation-on grading criteria).
    verdict: dict = field(default_factory=dict)
    #: ``[verdict.disabled]`` table (degradation-off grading criteria).
    disabled_verdict: dict = field(default_factory=dict)
    watch_rules: Optional[RulesConfig] = None
    path: Optional[str] = None


def load_scenario_file(path: str | Path) -> Scenario:
    """Load and validate one scenario file (TOML or JSON)."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        data = _parse_text(text, path.suffix.lower(), str(path))
    except RulesFileError as exc:
        raise ScenarioError(str(exc)) from exc
    return scenario_from_dict(data, where=str(path))


def scenario_from_dict(data: dict, where: str = "<inline>") -> Scenario:
    """Validate an already-parsed scenario table."""
    if not isinstance(data, dict):
        raise ScenarioError(f"{where}: top level must be a table/object")
    try:
        return _build_scenario(data, where)
    except RulesFileError as exc:
        # _check_keys and the embedded rules loader raise RulesFileError;
        # surface everything as one error type per input file kind.
        raise ScenarioError(str(exc)) from exc


def _build_scenario(data: dict, where: str) -> Scenario:
    _check_keys(data, _TOP_KEYS, where)

    meta = _table(data, "scenario", where, required=True)
    _check_keys(meta, _SCENARIO_KEYS, f"{where}: scenario")
    name = meta.get("name")
    if not name or not isinstance(name, str):
        raise ScenarioError(f"{where}: [scenario] needs a string 'name'")
    description = str(meta.get("description", ""))

    load = _table(data, "load", where)
    _check_keys(load, _LOAD_KEYS, f"{where}: load")
    kwargs = dict(load)
    if "rate_profile" in kwargs:
        kwargs["rate_profile"] = _rate_profile(
            kwargs["rate_profile"], where
        )

    degradation = _table(data, "degradation", where)
    if degradation:
        _check_keys(degradation, _DEGRADATION_KEYS, f"{where}: degradation")
        levels = degradation.get("levels")
        if (
            not isinstance(levels, list)
            or not levels
            or not all(isinstance(s, str) for s in levels)
        ):
            raise ScenarioError(
                f"{where}: degradation.levels must be a non-empty "
                "array of filter-spec strings"
            )
        kwargs["degradation_levels"] = tuple(levels)
        knobs = degradation.get("config")
        if knobs is not None:
            if not isinstance(knobs, dict):
                raise ScenarioError(
                    f"{where}: degradation.config must be a table/object"
                )
            kwargs["degradation_config"] = dict(knobs)

    try:
        config = LoadGenConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: load: {exc}") from exc

    chaos_raw = data.get("chaos", [])
    if not isinstance(chaos_raw, list) or not all(
        isinstance(e, dict) for e in chaos_raw
    ):
        raise ScenarioError(
            f"{where}: 'chaos' must be an array of tables "
            "([[chaos]] in TOML, a list of objects in JSON)"
        )
    ops = []
    for i, entry in enumerate(chaos_raw):
        label = f"{where}: chaos[{i}]"
        _check_keys(entry, _CHAOS_KEYS, label)
        if "op" not in entry or "at_s" not in entry:
            raise ScenarioError(f"{label}: needs 'at_s' and 'op'")
        try:
            ops.append(
                ChaosOp(
                    at_s=float(entry["at_s"]),
                    op=str(entry["op"]),
                    target=str(entry.get("target", "0")),
                    duration_s=float(entry.get("duration_s", 0.0)),
                )
            )
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"{label}: {exc}") from exc

    watch_rules = None
    rules_table = data.get("watch_rules")
    if rules_table is not None:
        watch_rules = rules_config_from_dict(
            rules_table, where=f"{where}: watch_rules"
        )

    verdict = _table(data, "verdict", where)
    _check_keys(verdict, _VERDICT_KEYS, f"{where}: verdict")
    disabled = verdict.pop("disabled", {})
    if not isinstance(disabled, dict):
        raise ScenarioError(
            f"{where}: verdict.disabled must be a table/object"
        )
    _check_keys(disabled, _DISABLED_KEYS, f"{where}: verdict.disabled")
    expect = verdict.get("expect_events", [])
    if not isinstance(expect, list) or not all(
        isinstance(k, str) for k in expect
    ):
        raise ScenarioError(
            f"{where}: verdict.expect_events must be an array of "
            "event-kind strings"
        )

    return Scenario(
        name=name,
        description=description,
        config=config,
        chaos_ops=tuple(ops),
        verdict=dict(verdict),
        disabled_verdict=dict(disabled),
        watch_rules=watch_rules,
        path=None if where == "<inline>" else where,
    )


def _table(data: dict, key: str, where: str, required: bool = False) -> dict:
    value = data.get(key)
    if value is None:
        if required:
            raise ScenarioError(f"{where}: missing required [{key}] table")
        return {}
    if not isinstance(value, dict):
        raise ScenarioError(f"{where}: '{key}' must be a table/object")
    return dict(value)


def _rate_profile(raw, where: str) -> tuple[tuple[float, float], ...]:
    if not isinstance(raw, list):
        raise ScenarioError(
            f"{where}: load.rate_profile must be an array of "
            "[duration_s, multiplier] pairs"
        )
    profile = []
    for i, pair in enumerate(raw):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ScenarioError(
                f"{where}: load.rate_profile[{i}] must be "
                "[duration_s, multiplier]"
            )
        profile.append((float(pair[0]), float(pair[1])))
    return tuple(profile)


# ---------------------------------------------------------------------------
# Running + grading
# ---------------------------------------------------------------------------
def _expected_apps(config: LoadGenConfig) -> list[str]:
    """The subscriber set the run attaches at start (no churn in
    scenarios, so this is also the set that should survive)."""
    count = SIZES[config.size]
    return [
        _app_name(config, stream, subscriber)
        for stream in range(config.sources)
        for subscriber in range(count)
    ]


def _event_kinds(out_dir: Optional[Path]) -> Optional[list[str]]:
    """Event kinds recorded by the run, from its ``events.jsonl``."""
    if out_dir is None:
        return None
    path = out_dir / "events.jsonl"
    if not path.exists():
        return None
    kinds = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        try:
            kinds.append(str(json.loads(line).get("kind", "")))
        except json.JSONDecodeError:
            continue
    return kinds


def run_scenario(
    scenario: Scenario,
    *,
    degradation: bool = True,
    out_dir: Optional[str | Path] = None,
) -> dict:
    """Run one scenario and grade it; returns the verdict manifest.

    ``degradation=False`` replays the identical load/chaos schedule with
    the ladder stripped and grades against ``[verdict.disabled]`` — the
    control run showing what the overload does *without* adaptive QoS.
    With ``out_dir`` the loadgen artifacts (``summary.json``,
    ``metrics.jsonl``, ``events.jsonl``, ``health.json``) land there and
    the manifest is also written as ``verdict.json``.
    """
    config = scenario.config
    if not degradation:
        config = replace(
            config, degradation_levels=(), degradation_config=None
        )
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        config = replace(config, out_dir=str(out_path))
    chaos = ChaosSchedule(scenario.chaos_ops) if scenario.chaos_ops else None
    summary = run_loadgen(
        config, chaos=chaos, watch_rules=scenario.watch_rules
    )
    manifest = grade_scenario(
        scenario, summary, degradation=degradation, out_dir=out_path
    )
    if out_path is not None:
        (out_path / "verdict.json").write_text(
            json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
        )
    return manifest


def grade_scenario(
    scenario: Scenario,
    summary: dict,
    *,
    degradation: bool = True,
    out_dir: Optional[Path] = None,
) -> dict:
    """Grade one finished run's summary against the scenario's verdict."""
    checks: list[dict] = []

    def check(name, ok, value=None, bound=None, detail="") -> None:
        checks.append(
            {
                "name": name,
                "ok": bool(ok),
                "value": value,
                "bound": bound,
                "detail": detail,
            }
        )

    expected = _expected_apps(scenario.config)
    final_apps = {app for app, _ in summary.get("final_subscriptions", [])}
    missing = sorted(set(expected) - final_apps)
    qos = summary.get("qos") or {}
    criteria = scenario.verdict if degradation else scenario.disabled_verdict

    if degradation:
        if criteria.get("require_all_connected", True):
            check(
                "subscribers_retained",
                not missing,
                value=len(expected) - len(missing),
                bound=len(expected),
                detail=(
                    f"shed: {', '.join(missing)}" if missing else
                    "every subscriber still connected"
                ),
            )
        bound = criteria.get("max_level")
        if bound is not None:
            check(
                "degradation_bounded",
                qos.get("max_level", 0) <= int(bound),
                value=qos.get("max_level", 0),
                bound=int(bound),
                detail="deepest ladder level reached vs. declared max",
            )
        if criteria.get("require_full_recovery", True) and (
            scenario.config.degradation_levels
        ):
            finals = qos.get("final_level_by_app", {})
            stuck = sorted(a for a, lvl in finals.items() if lvl != 0)
            check(
                "recovered_to_level_0",
                not stuck,
                value=len(stuck),
                bound=0,
                detail=(
                    f"still degraded: {', '.join(stuck)}" if stuck else
                    "all sessions back at level 0"
                ),
            )
        budget = criteria.get("max_recovery_s")
        if budget is not None:
            recovery = qos.get("recovery_time_s")
            check(
                "recovery_within_budget",
                recovery is not None and recovery <= float(budget),
                value=recovery,
                bound=float(budget),
                detail=(
                    "first degrade to last recover-to-0"
                    if recovery is not None
                    else "no full degrade->recover round trip recorded"
                ),
            )
        expect = criteria.get("expect_events", [])
        if expect:
            kinds = _event_kinds(out_dir)
            if kinds is None:
                check(
                    "events_observed",
                    False,
                    value=None,
                    bound=list(expect),
                    detail=(
                        "event log unavailable (run with out_dir and "
                        "trace_sample > 0)"
                    ),
                )
            else:
                absent = [k for k in expect if k not in kinds]
                check(
                    "events_observed",
                    not absent,
                    value=sorted(set(kinds) & set(expect)),
                    bound=list(expect),
                    detail=(
                        f"missing: {', '.join(absent)}" if absent else
                        "expected event chain observed"
                    ),
                )
        if criteria.get("require_digests", True):
            digests = summary.get("delivered_digest") or {}
            empty = sorted(
                app
                for app in final_apps
                if digests.get(app, {}).get("count", 0) <= 0
            )
            check(
                "digests_recorded",
                bool(digests) and not empty,
                value=len(digests),
                bound=len(final_apps),
                detail=(
                    f"no delivered stream for: {', '.join(empty)}"
                    if empty
                    else "per-subscriber delivered-stream digests recorded"
                ),
            )
    else:
        if criteria.get("require_shed", True):
            min_shed = int(criteria.get("min_shed", 1))
            check(
                "subscribers_shed",
                len(missing) >= min_shed,
                value=len(missing),
                bound=min_shed,
                detail=(
                    f"shed: {', '.join(missing)}" if missing else
                    "overload shed nobody - the control run proves nothing"
                ),
            )

    if scenario.chaos_ops and criteria.get("require_chaos_applied", True):
        applied = summary.get("chaos_applied") or []
        failed = [r for r in applied if not r.get("ok")]
        check(
            "chaos_applied",
            len(applied) == len(scenario.chaos_ops) and not failed,
            value=len(applied) - len(failed),
            bound=len(scenario.chaos_ops),
            detail=(
                "; ".join(
                    f"{r['op']}@{r['at_s']}s: {r.get('error')}"
                    for r in failed
                )
                if failed
                else "every scheduled fault injected"
            ),
        )

    min_delivered = int(criteria.get("min_delivered", 1))
    check(
        "delivered",
        summary.get("delivered_tuples", 0) >= min_delivered,
        value=summary.get("delivered_tuples", 0),
        bound=min_delivered,
        detail="total tuples delivered to subscribers",
    )

    if criteria.get("require_clean_shutdown", degradation):
        check(
            "clean_shutdown",
            summary.get("clean_shutdown", False),
            value=summary.get("clean_shutdown", False),
            bound=True,
            detail="; ".join(summary.get("errors", [])) or "no errors",
        )

    return {
        "schema": SCHEMA,
        "scenario": scenario.name,
        "description": scenario.description,
        "degradation": degradation,
        "passed": all(c["ok"] for c in checks),
        "checks": checks,
        "expected_subscribers": expected,
        "qos": qos or None,
        "chaos_applied": summary.get("chaos_applied"),
        "summary": summary,
    }
