#!/usr/bin/env python
"""The CI gate: one engine over declarative specs in ``baselines.json``.

Usage::

    python benchmarks/gate.py <section> [--update] [--metrics PATH]
                                        [--baselines PATH]

Each section of ``benchmarks/baselines.json`` (``fig11``, ``traffic``,
``cluster``, ``stream``, ``scale``, ``reorder``, ``serve-smoke``) holds
its spec next to its recorded values:

``title``       the step-summary heading;
``metrics``     the default metrics file (relative to the working dir);
``regenerate``  the command that rebuilds the metrics and the section;
``records``     the payload key of the labelled records (``runs``,
                ``levels``, ``workers``); absent for a flat payload;
``identity``    top-level payload keys that form the config identity;
                absent: the payload's own ``config`` dict (the sweep's
                ``gate_config()``), checked when the section pins one;
``fields``      the recorded values, ``name -> path`` (or ``{"path",
                "per"}``: the value divided by the product of ``per``);
``rules``       the checks, each with ``kind``, ``path`` (a field name or
                a path), ``message``, a slack and optional ``where`` /
                ``unless`` record filters (``{path: value}``).

Paths are ``/``-separated.  A relative path resolves inside each record,
a leading ``/`` against the payload root (``{key}`` filled from the
root).  A ``*`` in the last step collects every matching key into a
dict, and a dict-valued rule compares key by key.  Rule kinds:

``growth``  value <= baseline x (1 + rel) + abs (``zero`` replaces
            ``abs`` when the baseline is 0);
``drop``    value >= baseline x (1 - rel) - abs;
``equal``   value == baseline (skipped while the baseline is unset);
``flag``    value is true (a count: nonzero), or equals ``value``;
``ratio``   value <= ``of`` x factor (``strict``: <), on one record;
            skipped when either side is absent;
``spread``  across records, max <= min x factor + abs;
``any``     at least one record has every ``path`` >= its ``pair``
            record's (``pair`` is a label template filled from the
            record).

``growth``/``drop``/``equal`` read the baseline recorded under the rule's
field (``field`` names it when the measured path differs).  Every record
must carry every recorded field; a recorded record missing from the
sweep fails.  ``--update`` rewrites only the section's recorded values
(``config``, the records, top-level fields) and keeps its spec; a file
without the section gets the spec from ``benchmarks/baselines.json``.
Verdicts are printed and, when ``GITHUB_STEP_SUMMARY`` is set, appended
there as a markdown table.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

BASELINES = Path(__file__).resolve().parent / "baselines.json"

#: comparison each numeric kind requires, and its failing counterpart
_OPS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt}
_NEGATED = {"<=": ">", ">=": "<", "<": ">="}


class GateError(Exception):
    """A structural problem that fails the gate with one clear line
    (missing file, missing section, malformed payload), never a
    traceback."""


def write_step_summary(
    gate: str,
    failures: Sequence[str],
    ok_note: str = "",
    path: Optional[str] = None,
) -> bool:
    """Append one gate's pass/fail table to ``$GITHUB_STEP_SUMMARY``
    (or ``path``); a no-op returning False when neither is set."""
    target = path if path is not None else os.environ.get("GITHUB_STEP_SUMMARY")
    if not target:
        return False
    lines = [f"### {gate}", "", "| status | detail |", "| --- | --- |"]
    for failure in failures:
        detail = str(failure).replace("|", "\\|").replace("\n", " ")
        lines.append(f"| :x: FAIL | {detail} |")
    if not failures:
        note = (ok_note or "all checks within slack").replace("|", "\\|")
        lines.append(f"| :white_check_mark: PASS | {note} |")
    with open(target, "a", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n\n")
    return True


def _read_json(path: Path, what: str) -> dict:
    if not path.exists():
        raise GateError(f"{what} {path} not found")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise GateError(f"{what} {path} is not valid JSON: {exc}") from None


def _get(obj, path: str):
    """The value at ``path`` in ``obj``, or None when absent."""
    try:
        path = path.format_map(obj)
    except (KeyError, AttributeError, TypeError):
        return None
    *steps, last = path.strip("/").split("/")
    for step in steps:
        obj = obj.get(step) if isinstance(obj, dict) else None
    if not isinstance(obj, dict):
        return None
    if "*" not in last:
        return obj.get(last)
    head, tail = last.split("*")
    return {
        key[len(head):len(key) - len(tail)]: value
        for key, value in obj.items()
        if key.startswith(head) and key.endswith(tail)
        and len(key) > len(head) + len(tail)
    }


def _path(spec) -> str:
    return spec if isinstance(spec, str) else spec["path"]


def _value(obj, spec):
    """A field's value: a path, or a path divided by its ``per`` values."""
    value = _get(obj, _path(spec))
    if isinstance(spec, str) or value is None:
        return value
    per = [_get(obj, p) for p in spec["per"]]
    if None in per:
        return None
    total = math.prod(per)
    if isinstance(value, dict):
        return {key: v / total for key, v in value.items()} if total else {}
    return value / total if total else None


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.0f}" if abs(value) >= 1000 else f"{value:.4g}"
    return repr(value)


def _selected(rule: dict, record) -> bool:
    where, unless = rule.get("where", {}), rule.get("unless", {})
    return all(_get(record, p) == v for p, v in where.items()) and not any(
        _get(record, p) == v for p, v in unless.items()
    )


def _limit(rule: dict, ref: float):
    """``(op, limit)`` a baseline-relative kind holds ``value`` to."""
    rel = rule.get("rel", 0.0)
    slack = rule.get("abs", 0.0)
    if rule["kind"] == "drop":
        return ">=", ref * (1.0 - rel) - slack
    if not ref:
        slack = rule.get("zero", slack)
    return "<=", ref * (1.0 + rel) + slack


def _compare(rule: dict, have, ref, other) -> tuple:
    """``(ok, detail)`` for one value of one record; ``ok`` is None when
    the rule does not apply."""
    kind = rule["kind"]
    if kind == "flag":
        ok = have == rule["value"] if "value" in rule else bool(have)
        return ok, f"{rule['path'].strip('/')} = {have!r}"
    if kind == "ratio":
        if have is None or other is None:
            return None, ""
        op, limit = ("<" if rule.get("strict") else "<="), other * rule["factor"]
    elif ref is None:
        return None, ""
    elif have is None:
        return False, "missing"
    elif kind == "equal":
        return have == ref, f"baseline {ref} != sweep {have}"
    else:
        op, limit = _limit(rule, ref)
    ok = _OPS[op](have, limit)
    return ok, f"{_fmt(have)} {op if ok else _NEGATED[op]} {_fmt(limit)}"


def _check_rule(rule: dict, spec: dict, payload: dict, records: dict) -> tuple:
    """``(failures, note)`` of one rule over the payload."""
    fields = spec.get("fields", {})
    key = spec.get("records")
    kind, message = rule["kind"], rule["message"]
    chosen = {label: r for label, r in records.items() if _selected(rule, r)}
    if kind == "any":
        failures, hits = [], 0
        for label, record in chosen.items():
            pair = records.get(rule["pair"].format_map(record))
            if pair is None:
                failures.append(f"{key}[{label}]: no paired record in the sweep")
                continue
            sides = [(_get(record, p), _get(pair, p)) for p in rule["path"]]
            hits += all(None not in side and side[0] >= side[1] for side in sides)
        if not hits:
            failures.append(message)
        held = " and ".join(rule["path"])
        return failures, f"{hits} of {len(chosen)} {key} hold {held} at or above their pair"
    path = fields.get(rule["path"], rule["path"])
    if kind == "spread":
        values = [v for v in (_value(r, path) for r in chosen.values()) if v is not None]
        if len(values) < 2:
            return [], None
        limit = min(values) * rule["factor"] + rule.get("abs", 0.0)
        if max(values) > limit:
            return [f"{message}: {_fmt(max(values))} > {_fmt(limit)}"], None
        return [], None
    of = fields.get(rule.get("of"), rule.get("of"))
    if _path(path).startswith("/"):
        targets = [("", payload, spec)]
    else:
        recorded = spec.get(key) or {}
        targets = [
            (f"{key}[{label}]: ", r, recorded.get(label)) for label, r in chosen.items()
        ]
    failures, note = [], None
    for where, obj, base in targets:
        have = _value(obj, path)
        ref = base.get(rule.get("field", rule["path"])) if base else None
        other = _value(obj, of) if of else None
        # a dict-valued field (a "*" path) compares key by key
        for part, want in ref.items() if isinstance(ref, dict) else [(None, ref)]:
            got = have if part is None else (have or {}).get(part)
            ok, detail = _compare(rule, got, want, other)
            label = "" if part is None else f" [{part}]"
            if ok is False:
                failures.append(f"{where}{message}{label}: {detail}")
            elif ok and not where and kind in ("growth", "drop", "ratio"):
                note = f"{_path(path).format_map(payload).strip('/')} {detail}"
    return failures, note


def _identity(spec: dict, payload: dict):
    keys = spec.get("identity")
    if keys is None:
        return payload.get("config")
    return {k: payload.get(k) for k in keys}


def _load_spec(name: str, baselines: Path) -> dict:
    """The section's spec: the target file's section over the default's."""
    default = _read_json(BASELINES, "baselines file").get(name) or {}
    target = {}
    if baselines.exists():
        target = _read_json(baselines, "baselines file").get(name) or {}
    if not default and not target:
        raise GateError(f"no gate section {name!r} in {BASELINES}")
    return {**default, **target}


def _load_metrics(name: str, spec: dict, path: Path) -> dict:
    payload = _read_json(path, "metrics file")
    key = spec.get("records")
    if key and payload.get(key) is None:
        raise GateError(
            f"metrics file {path} has no {key!r} key — not a {name!r} "
            f"sweep? regenerate with `{spec.get('regenerate', '')}`"
        )
    if key and not payload[key]:
        raise GateError(f"{path} recorded no {key}")
    return payload


def check(name: str, spec: dict, payload: dict) -> tuple:
    """``(failures, ok_line)`` of every rule of ``spec`` over ``payload``."""
    want, have = spec.get("config"), _identity(spec, payload)
    if want is not None and want != have:
        have = have or {}
        return [
            "sweep config does not match baseline config; run the config "
            f"documented in baselines.json[{name!r}]['regenerate']"
        ] + [
            f"  {k}: baseline {want.get(k)!r} != sweep {have.get(k)!r}"
            for k in sorted(set(want) | set(have))
            if want.get(k) != have.get(k)
        ], ""
    key = spec.get("records")
    records = (payload.get(key) or {}) if key else {}
    recorded = (spec.get(key) or {}) if key else {}
    failures = [
        f"{key}[{label}]: missing from the sweep"
        for label in recorded
        if label not in records
    ]
    for label, record in records.items():
        for field in spec.get("fields", {}).values():
            if not _path(field).startswith("/") and _value(record, field) is None:
                failures.append(f"{key}[{label}]: missing {_path(field)}")
    notes = []
    for rule in spec.get("rules", []):
        rule_failures, note = _check_rule(rule, spec, payload, records)
        failures += rule_failures
        notes += [note] if note else []
    counted = f"{len(records)} {key}" if key else "one payload"
    rules = len(spec.get("rules", []))
    ok_line = f"{spec.get('title', name)}: PASS, {counted}, {rules} rules hold"
    return failures, ok_line + "".join(f"; {n}" for n in notes)


def update(name: str, spec: dict, payload: dict, baselines: Path) -> None:
    """Rewrite the section's recorded values, keep everything else."""
    data = _read_json(baselines, "baselines file") if baselines.exists() else {}
    section = dict(spec)
    identity = _identity(spec, payload)
    if identity is not None:
        section["config"] = identity
    fields = spec.get("fields", {})
    record_fields = {n: f for n, f in fields.items() if not _path(f).startswith("/")}
    key = spec.get("records")
    if key and record_fields:
        section[key] = {
            label: {n: _value(record, f) for n, f in record_fields.items()}
            for label, record in sorted(payload[key].items())
        }
    for n, f in fields.items():
        if n not in record_fields:
            section[n] = _value(payload, f)
    data[name] = section
    baselines.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    counted = f" ({len(section.get(key) or {})} {key})" if key else ""
    print(f"wrote {baselines} [{name}]{counted}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("section", help="baselines.json section to gate")
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the section's recorded values from the metrics",
    )
    parser.add_argument(
        "--metrics", type=Path, help="metrics file (default: the section's)"
    )
    parser.add_argument(
        "--baselines",
        type=Path,
        default=BASELINES,
        help=f"baselines file (default: {BASELINES})",
    )
    args = parser.parse_args(argv)
    title = args.section
    try:
        spec = _load_spec(args.section, args.baselines)
        title = spec.get("title", title)
        payload = _load_metrics(
            args.section, spec, args.metrics or Path(spec["metrics"])
        )
        if args.update:
            update(args.section, spec, payload, args.baselines)
            return 0
        if not _read_json(args.baselines, "baselines file").get(args.section):
            raise GateError(
                f"{args.baselines} has no {args.section!r} section; run "
                f"`python benchmarks/gate.py {args.section} --update` on a "
                "healthy sweep"
            )
        failures, ok_line = check(args.section, spec, payload)
    except GateError as exc:
        failures, ok_line = [str(exc)], ""
    for failure in failures:
        print(f"FAIL: {failure}")
    write_step_summary(title, failures, ok_line)
    if failures:
        return 1
    print(ok_line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
