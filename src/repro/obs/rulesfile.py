"""Declarative Watchtower rules + remediation policy from a file.

One file configures the whole control loop: detection thresholds
(``[[rule]]``), SLO burn windows (``[[slo]]``), Watchtower knobs
(``[watch]``) and the remediation policy (``[remediation]``).  TOML is
the native format where the interpreter ships :mod:`tomllib` (3.11+);
JSON with the same shape is accepted everywhere, so a 3.10 deployment
loses nothing but syntax sugar.

Rules and SLOs *merge by name* over the defaults: a file entry whose
``name`` matches a stock rule replaces it, a new name extends the set,
and ``replace_defaults = true`` starts from an empty set instead.  A
rule entry of just ``name`` + ``disable = true`` drops the stock rule.

Example (TOML)::

    replace_defaults = false

    [watch]
    interval_s = 0.5
    decide_p99_target_ms = 250.0

    [[rule]]
    name = "overflow_drops"        # overrides the stock thresholds
    signal = "overflow_drop_ratio"
    warn = 0.05
    critical = 0.25

    [[slo]]
    name = "slo_decide_p99"
    signal = "decide_p99_ms"
    objective = 0.95
    window_s = 30.0

    [remediation]
    max_risk = 0.6
    cooldown_s = 10.0
    allow_scale = true
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.obs.slo import Rule, SloWindow, default_rules, default_slos

try:  # Python 3.11+
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - 3.10 fallback
    tomllib = None

__all__ = [
    "RulesFileError",
    "RulesConfig",
    "load_rules_file",
    "rules_config_from_dict",
]

#: Keys accepted in a ``[watch]`` table (anything else is a typo).  They
#: are :class:`~repro.obs.watch.Watchtower` keyword names: callers pass
#: the table as keywords, after their own defaults.
_WATCH_KEYS = frozenset(
    {
        "interval_s",
        "decide_p99_target_ms",
        "death_window_s",
        "flap_window_s",
    }
)

_RULE_KEYS = frozenset(
    {"name", "signal", "warn", "critical", "op", "detail", "series", "disable"}
)

_SLO_KEYS = frozenset(
    {
        "name",
        "signal",
        "objective",
        "window_s",
        "warn_burn",
        "critical_burn",
        "detail",
        "series",
        "disable",
    }
)

_REMEDIATION_KEYS = frozenset(
    {
        "max_risk",
        "cooldown_s",
        "actions_per_window",
        "window_s",
        "allow_scale",
        "allow_shed",
        "max_workers",
    }
)


class RulesFileError(ValueError):
    """A rules file that parsed but does not describe a valid config."""


@dataclass
class RulesConfig:
    """Everything a rules file configures, resolved against defaults."""

    rules: list[Rule] = field(default_factory=list)
    slos: list[SloWindow] = field(default_factory=list)
    watch: dict = field(default_factory=dict)
    #: Raw ``[remediation]`` table (``None`` when absent).  Kept as a
    #: dict so this module does not import the service layer; feed it to
    #: ``repro.service.remediate.RemediationPolicy(**remediation)``.
    remediation: Optional[dict] = None


def _parse_text(text: str, suffix: str, path: str) -> dict:
    if suffix in (".toml", ".tml"):
        if tomllib is None:
            raise RulesFileError(
                f"{path}: TOML rules need Python 3.11+ (tomllib); "
                "re-encode the file as JSON for older interpreters"
            )
        try:
            return tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise RulesFileError(f"{path}: invalid TOML: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        if tomllib is not None:
            # Unsuffixed files: accept TOML too before giving up.
            try:
                return tomllib.loads(text)
            except tomllib.TOMLDecodeError:
                pass
        raise RulesFileError(f"{path}: not valid JSON{' or TOML' if tomllib else ''}: {exc}") from exc


def _check_keys(table: dict, allowed: frozenset, where: str) -> None:
    unknown = sorted(set(table) - allowed)
    if unknown:
        raise RulesFileError(
            f"{where}: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"expected {', '.join(sorted(allowed))}"
        )


def _build_rule(entry: dict, where: str) -> Optional[Rule]:
    _check_keys(entry, _RULE_KEYS, where)
    name = entry.get("name")
    if not name or not isinstance(name, str):
        raise RulesFileError(f"{where}: every rule needs a string 'name'")
    if entry.get("disable"):
        return None
    signal = entry.get("signal")
    if not signal or not isinstance(signal, str):
        raise RulesFileError(f"{where} ({name!r}): missing 'signal'")
    try:
        return Rule(
            name=name,
            signal=signal,
            warn=entry.get("warn"),
            critical=entry.get("critical"),
            op=entry.get("op", ">"),
            series=tuple(entry.get("series", ())),
            detail=str(entry.get("detail", "")),
        )
    except ValueError as exc:
        raise RulesFileError(f"{where} ({name!r}): {exc}") from exc


def _build_slo(entry: dict, where: str) -> Optional[SloWindow]:
    _check_keys(entry, _SLO_KEYS, where)
    name = entry.get("name")
    if not name or not isinstance(name, str):
        raise RulesFileError(f"{where}: every slo needs a string 'name'")
    if entry.get("disable"):
        return None
    signal = entry.get("signal")
    if not signal or not isinstance(signal, str):
        raise RulesFileError(f"{where} ({name!r}): missing 'signal'")
    kwargs = {}
    for key in ("objective", "window_s", "warn_burn", "critical_burn"):
        if key in entry:
            kwargs[key] = float(entry[key])
    try:
        return SloWindow(
            name,
            signal=signal,
            series=tuple(entry.get("series", ())),
            detail=str(entry.get("detail", "")),
            **kwargs,
        )
    except ValueError as exc:
        raise RulesFileError(f"{where} ({name!r}): {exc}") from exc


def load_rules_file(path: str | Path) -> RulesConfig:
    """Load, validate and resolve a rules file against the defaults."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise RulesFileError(f"cannot read rules file {path}: {exc}") from exc
    data = _parse_text(text, path.suffix.lower(), str(path))
    return rules_config_from_dict(data, where=str(path))


def rules_config_from_dict(data: dict, where: str = "<inline>") -> RulesConfig:
    """Validate and resolve an already-parsed rules table.

    The same resolution :func:`load_rules_file` applies after parsing —
    exposed so embedding configs (scenario files carrying a
    ``[watch_rules]`` table) reuse one loader instead of re-implementing
    the merge-by-name semantics.  ``where`` labels error messages.
    """
    path = where
    if not isinstance(data, dict):
        raise RulesFileError(f"{path}: top level must be a table/object")
    known_top = {"replace_defaults", "watch", "rule", "slo", "remediation"}
    _check_keys(data, frozenset(known_top), str(path))
    replace = bool(data.get("replace_defaults", False))

    def _entries(key: str) -> list[dict]:
        raw = data.get(key, [])
        if not isinstance(raw, list) or not all(
            isinstance(e, dict) for e in raw
        ):
            raise RulesFileError(
                f"{path}: '{key}' must be an array of tables "
                f"([[{key}]] in TOML, a list of objects in JSON)"
            )
        return raw

    # Merge-by-name over defaults (or a blank slate).
    rules: dict[str, Rule] = (
        {} if replace else {r.name: r for r in default_rules()}
    )
    for i, entry in enumerate(_entries("rule")):
        name = str(entry.get("name", ""))
        built = _build_rule(entry, f"{path}: rule[{i}]")
        if built is None:
            rules.pop(name, None)
        else:
            rules[built.name] = built

    watch = data.get("watch", {})
    if not isinstance(watch, dict):
        raise RulesFileError(f"{path}: 'watch' must be a table/object")
    _check_keys(watch, _WATCH_KEYS, f"{path}: watch")
    watch = {k: float(v) for k, v in watch.items()}
    if watch.get("interval_s", 1.0) <= 0:
        raise RulesFileError(f"{path}: watch.interval_s must be positive")

    slo_defaults = default_slos(
        decide_p99_target_ms=watch.get("decide_p99_target_ms", 500.0)
    )
    slos: dict[str, SloWindow] = (
        {} if replace else {s.name: s for s in slo_defaults}
    )
    for i, entry in enumerate(_entries("slo")):
        name = str(entry.get("name", ""))
        built = _build_slo(entry, f"{path}: slo[{i}]")
        if built is None:
            slos.pop(name, None)
        else:
            slos[built.name] = built

    remediation = data.get("remediation")
    if remediation is not None:
        if not isinstance(remediation, dict):
            raise RulesFileError(
                f"{path}: 'remediation' must be a table/object"
            )
        _check_keys(
            remediation, _REMEDIATION_KEYS, f"{path}: remediation"
        )
        remediation = dict(remediation)

    return RulesConfig(
        rules=list(rules.values()),
        slos=list(slos.values()),
        watch=watch,
        remediation=remediation,
    )
