"""Deterministic report emission: JSONL verdicts, CSV curves, run records.

Verdict files must be byte-identical across reruns of the same
configuration, so they contain no timestamps, no unsorted dictionaries
and no locale-dependent formatting: floats are serialized by ``repr``
(shortest round-trip) through :func:`json.dumps` with sorted keys.
Wall-clock bookkeeping lives in the separate run record.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SCHEMA_VERSION = "verdict-v1"
ERROR_SCHEMA_VERSION = "error-v1"

__all__ = [
    "Verdict",
    "Outcome",
    "RunRecord",
    "config_hash",
    "render_verdict_line",
    "write_verdicts",
    "write_curve",
    "write_error_record",
    "validate_verdict_file",
    "load_verdicts",
]


def _plain(value):
    """Coerce numpy scalars/containers into JSON-stable builtins."""
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, float) and not np.isfinite(value):
        return repr(value)  # "inf"/"nan" as strings: JSON-portable and greppable
    return value


@dataclass(frozen=True)
class Verdict:
    """One pass/fail comparison: a measured number against a prediction.

    Two encodings share the record shape: symmetric comparisons
    (``|measured - predicted| <= tolerance``) and one-sided bounds
    (``measured <= predicted`` with tolerance 0).
    """

    name: str
    predicted: float
    measured: float
    tolerance: float
    passed: bool
    extras: dict = field(default_factory=dict)

    @classmethod
    def from_comparison(cls, name, predicted, measured, tolerance, **extras) -> "Verdict":
        ok = bool(abs(float(measured) - float(predicted)) <= float(tolerance))
        return cls(name, float(predicted), float(measured), float(tolerance), ok, extras)

    @classmethod
    def from_bound(cls, name, measured, bound, **extras) -> "Verdict":
        """One-sided check ``measured <= bound``."""
        return cls(name, float(bound), float(measured), 0.0,
                   bool(float(measured) <= float(bound)), extras)

    @classmethod
    def from_floor(cls, name, measured, floor, **extras) -> "Verdict":
        """One-sided check ``measured >= floor`` (lower Bernstein bounds)."""
        extras = dict(extras)
        extras.setdefault("direction", "floor")
        return cls(name, float(floor), float(measured), 0.0,
                   bool(float(measured) >= float(floor)), extras)

    def to_json_dict(self) -> dict:
        record = {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "predicted": _plain(self.predicted),
            "measured": _plain(self.measured),
            "tolerance": _plain(self.tolerance),
            "pass": bool(self.passed),
        }
        for key in sorted(self.extras):
            if key in record:
                raise ValueError(f"extra field {key!r} collides with a core field")
            record[key] = _plain(self.extras[key])
        return record


@dataclass(frozen=True)
class Outcome:
    """What one check returns: its verdicts, named curves and notes.

    ``curves`` maps each curve's name, the stem of its CSV file, to
    ``(times, values, csv_meta)``; ``csv_meta`` holds the header entries the
    check knows, to which the run adds its kind and config hash.
    """

    verdicts: list[Verdict]
    curves: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


def render_verdict_line(verdict: Verdict) -> str:
    return json.dumps(verdict.to_json_dict(), sort_keys=True, separators=(",", ":"))


def write_verdicts(path: Path, verdicts) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = "".join(render_verdict_line(v) + "\n" for v in verdicts)
    path.write_text(text, encoding="utf-8")
    return path


def load_verdicts(path: Path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line]


def write_curve(path: Path, times, values, meta: dict | None = None) -> Path:
    """CSV curve with a '#'-prefixed metadata header, fully deterministic."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape:
        raise ValueError("curve times and values must have matching shapes")
    lines = []
    for key in sorted(meta or {}):
        lines.append(f"# {key} = {_plain((meta or {})[key])}")
    lines.append("t,value")
    # float() strips the numpy scalar wrapper; repr keeps all 17 digits
    lines.extend(f"{float(t)!r},{float(v)!r}" for t, v in zip(times, values))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def config_hash(canonical_text: str) -> str:
    return hashlib.sha256(canonical_text.encode("utf-8")).hexdigest()[:16]


@dataclass
class RunRecord:
    """Provenance for one run; timestamps live here, not in the verdicts."""

    kind: str
    config_hash: str
    started_at: str
    finished_at: str
    artifacts: list[str]
    n_pass: int
    n_fail: int
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.n_fail == 0

    def write(self, path: Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": "run-record-v1",
            "kind": self.kind,
            "config_hash": self.config_hash,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "artifacts": list(self.artifacts),
            "n_pass": self.n_pass,
            "n_fail": self.n_fail,
            "notes": list(self.notes),
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        return path


def write_error_record(path: Path, kind: str, cfg_hash: str, exc: BaseException) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": ERROR_SCHEMA_VERSION,
        "kind": kind,
        "config_hash": cfg_hash,
        "error": type(exc).__name__,
        "message": str(exc),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def _is_number(value) -> bool:
    """A JSON number; ``bool`` is not one, as in JSON Schema."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: the rules of ``schemas/verdict-v1.json``, the published format, key by key
_RULES = (
    ("schema", f"must be {SCHEMA_VERSION!r}", lambda v: v == SCHEMA_VERSION),
    ("name", "must be a non-empty string", lambda v: isinstance(v, str) and v != ""),
    ("predicted", "must be a number or string", lambda v: _is_number(v) or isinstance(v, str)),
    ("measured", "must be a number or string", lambda v: _is_number(v) or isinstance(v, str)),
    # "minimum": NaN is not below 0, so it passes as in JSON Schema
    ("tolerance", "must be a number >= 0", lambda v: _is_number(v) and not v < 0),
    ("pass", "must be true or false", lambda v: isinstance(v, bool)),
)


def _violation(record) -> str | None:
    """The first verdict-v1 rule, with its key, that a loaded line breaks; None if none."""
    if not isinstance(record, dict):
        return f"a line must be a JSON object, got {record!r}"
    for key, rule, holds in _RULES:
        if key not in record:
            return f"key {key!r} is required"
        if not holds(record[key]):
            return f"key {key!r} {rule}, got {record[key]!r}"
    return None


def validate_verdict_file(path: Path) -> None:
    """Check every verdict line against verdict-v1; the first line that fails
    raises a ``ValueError`` naming the line, the key and the rule."""
    for i, record in enumerate(load_verdicts(path)):
        problem = _violation(record)
        if problem is not None:
            raise ValueError(f"verdict line {i + 1} fails {SCHEMA_VERSION}: {problem}")
