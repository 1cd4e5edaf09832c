"""Check one operation's output: does it parse, is it complete, consistent
and deterministic?

`classify()` returns the reason an operation failed (None if it did not)
and the statuses its report gives.  An operation fails if it raised, exited
2 (or with any code other than the 0/1 the report's statuses call for),
wrote a traceback, emitted a report that does not parse or lacks the frozen
check-id/anchor set for its suites, echoed another config than the one
requested, or emitted bytes that differ from an earlier identical
operation.
"""

from __future__ import annotations

import json
import os
import re

STATUSES = ("pass", "fail", "reported")
_EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")
_ROW = re.compile(r"(PASS|FAIL|REPORTED) +(\S+?) *max=(\S+) +tol=(\S+) +(.*)")
_SUMMARY = re.compile(r"(\d+) checks: (\d+) pass, (\d+) fail, (\d+) reported")


def load_expected() -> dict:
    """Frozen seed oracle: anchors by check id, default-config statuses."""
    with open(_EXPECTED) as fh:
        return json.load(fh)


class ReportError(ValueError):
    pass


def parse_text(text: str):
    """(config, [(check_id, anchor, status)], summary) from a text report."""
    lines = text.split("\n")
    if len(lines) < 5 or lines[0] != "conjugate-spinor identity checks" or lines[-1] != "":
        raise ReportError("bad text header or trailer")
    if not lines[1].startswith("config: "):
        raise ReportError("missing config line")
    config = _json(lines[1][len("config: ") :])
    rows = []
    for line in lines[3:-3]:
        if line.startswith("          . "):
            continue
        m = _ROW.fullmatch(line)
        if m is None:
            raise ReportError(f"unparsable row: {line!r}")
        float(m.group(3))
        rows.append((m.group(2), m.group(5), m.group(1).lower()))
    m = _SUMMARY.fullmatch(lines[-2])
    if m is None or lines[-3] != "":
        raise ReportError("missing summary line")
    total, npass, nfail, nrep = map(int, m.groups())
    return config, rows, {"total": total, "pass": npass, "fail": nfail, "reported": nrep}


def parse_json(text: str):
    """(config, [(check_id, anchor, status)], summary) from a JSON report."""
    doc = _json(text)
    try:
        rows = [(c["check_id"], c["anchor"], c["status"]) for c in doc["checks"]]
        return doc["config"], rows, doc["summary"]
    except (KeyError, TypeError) as exc:
        raise ReportError(f"missing field {exc}") from None


def _json(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ReportError(f"bad JSON: {exc}") from None


def classify(op: dict, expected: dict, earlier: bytes | None = None):
    """Why `op` failed (None if it did not), and its statuses.

    `op` holds `stdout` (bytes), `stderr` (bytes), `exit_code` (None for a
    library call), `error` (traceback text if the call raised, else None),
    `format` ("text" or "json") and `config` (the requested config dict).
    `earlier` is the output of an earlier identical operation, if any.
    Returns (reason, statuses); statuses maps check id to status and is
    None when the operation failed.
    """
    if op.get("error"):
        return "raised", None
    if op["exit_code"] == 2:
        return "exit 2", None
    if b"Traceback (most recent call last)" in op["stderr"]:
        return "traceback", None
    if op["exit_code"] not in (None, 0, 1):
        return f"exit {op['exit_code']}", None
    parse = parse_json if op["format"] == "json" else parse_text
    try:
        config, rows, summary = parse(op["stdout"].decode())
    except ValueError as exc:  # ReportError, a bad float or bad UTF-8
        return f"unparsable report: {exc}", None
    statuses = {cid: status for cid, _, status in rows}
    if any(s not in STATUSES for s in statuses.values()) or len(statuses) != len(rows):
        return "unparsable report: bad status or repeated check id", None
    counts = {s: sum(1 for v in statuses.values() if v == s) for s in STATUSES}
    if summary != {"total": len(rows), **counts}:
        return "summary disagrees with rows", None
    want = {
        cid: anchor
        for cid, anchor in expected["anchors"].items()
        if cid.split("/", 1)[0] in op["config"]["suites"]
    }
    if {cid: anchor for cid, anchor, _ in rows} != want:
        return "check-id/anchor set differs from the frozen set", None
    if not isinstance(config, dict) or any(config.get(k) != v for k, v in op["config"].items()):
        return "report echoes another config", None
    if op["exit_code"] is not None and op["exit_code"] != (1 if counts["fail"] else 0):
        return "exit code disagrees with statuses", None
    if earlier is not None and earlier != op["stdout"]:
        return "bytes differ from an identical earlier operation", None
    return None, statuses
