"""Deterministic report assembly and serialization.

Reports must be byte-identical across runs, so every float is rounded
to 12 significant digits before serialization, containers keep their
construction order, and nothing time- or environment-dependent is
recorded.  The keys of a result's payload come in the field order of
its dataclass (see ``Record``).
"""

from __future__ import annotations

import dataclasses
import json

SIG_DIGITS = 12


def round_sig(x: float) -> float:
    """Round to 12 significant digits; -0.0 collapses to 0.0."""
    v = float(f"{float(x):.{SIG_DIGITS}g}")
    return 0.0 if v == 0.0 else v


def canonical(obj):
    """Copy a JSON-ish structure with all floats rounded for output."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, float):
        return round_sig(obj)
    if isinstance(obj, int):
        return obj
    if isinstance(obj, str):
        return obj
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    # numpy scalars and anything else numeric
    if hasattr(obj, "dtype") and getattr(obj, "ndim", 1) == 0:
        kind = obj.dtype.kind
        if kind == "b":
            return bool(obj)
        if kind in "iu":
            return int(obj)
        return round_sig(float(obj))
    try:
        i = int(obj)
        if i == obj:
            return i
    except (TypeError, ValueError):
        pass
    return round_sig(float(obj))


OPTIONAL_KEYS = frozenset({"homotopy_margin"})  # left out of a payload where None


def _lists(obj):
    if isinstance(obj, dict):
        return {k: _lists(v) for k, v in obj.items() if v is not None or k not in OPTIONAL_KEYS}
    if isinstance(obj, (list, tuple)):
        return [_lists(v) for v in obj]
    return obj


class Record:
    """Base of the result dataclasses that go into reports.

    ``to_dict`` is ``dataclasses.asdict`` with tuples turned into lists
    and the OPTIONAL_KEYS that are None left out, so the payload's keys
    come in field order: reordering a field changes the report bytes.
    """

    def to_dict(self) -> dict:
        return _lists(dataclasses.asdict(self))


def render_report(report: dict) -> str:
    return json.dumps(canonical(report), indent=2) + "\n"


def summary_row(method: str, raw: float, rounded, oracle, residual: float,
                agree: bool) -> dict:
    return {
        "method": method,
        "raw": round_sig(raw),
        "rounded": rounded,
        "oracle": oracle,
        "residual": round_sig(residual),
        "agree": bool(agree),
    }


def format_table(name: str, rows: list) -> str:
    head = f"{'method':<18} {'raw':>18} {'rounded':>8} {'oracle':>7} {'residual':>12}  agree"
    lines = [f"scenario: {name}", head, "-" * len(head)]
    for r in rows:
        oracle = "-" if r["oracle"] is None else f"{r['oracle']:d}"
        lines.append(
            f"{r['method']:<18} {r['raw']:>18.12g} {r['rounded']:>8d} "
            f"{oracle:>7} {r['residual']:>12.3g}  {'yes' if r['agree'] else 'NO'}"
        )
    return "\n".join(lines)
