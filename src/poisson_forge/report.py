"""Machine-readable verification reports.

A report is a named suite of labelled checks; a failing check carries the
residue expression that witnessed the failure.  Checks are sorted by
label so that report assembly is order-stable; the text rendering omits
the (non-deterministic) timing, which only the JSON form carries, keeping
output bytes reproducible run over run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

REPORT_SCHEMA = {
    "type": "object",
    "required": ["suite", "ok", "items", "seconds"],
    "properties": {
        "suite": {"type": "string"},
        "ok": {"type": "boolean"},
        "seconds": {"type": "number"},
        "items": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["label", "status"],
                "properties": {
                    "label": {"type": "string"},
                    "status": {"enum": ["pass", "fail"]},
                    "residue": {"type": ["string", "null"]},
                },
            },
        },
    },
}


class CheckItem(NamedTuple):
    """One labelled check; ``residue`` is reported only when it fails."""

    label: str
    ok: bool
    residue: str


def check_item(label: str, residue) -> CheckItem:
    """A check that passes on a zero residue."""
    ok = residue.is_zero()
    return CheckItem(label, ok, "0" if ok else str(residue))


@dataclass
class Report:
    suite: str
    items: list[CheckItem]
    seconds: float = 0.0

    def __post_init__(self):
        self.items = sorted(self.items, key=lambda item: item.label)

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "ok": self.ok,
            "seconds": self.seconds,
            "items": [{"label": item.label,
                       "status": "pass" if item.ok else "fail",
                       "residue": None if item.ok else item.residue}
                      for item in self.items],
        }

    def render_text(self) -> str:
        lines = [f"suite {self.suite}: {'PASS' if self.ok else 'FAIL'}"]
        for item in self.items:
            mark = "ok  " if item.ok else "FAIL"
            line = f"  [{mark}] {item.label}"
            if not item.ok:
                line += f"  residue: {item.residue}"
            lines.append(line)
        return "\n".join(lines)
