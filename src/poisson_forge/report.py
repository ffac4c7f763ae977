"""Machine-readable verification reports.

A report is a named suite of labelled pass/fail items; failing items carry
the residue expression that witnessed the failure.  Items are sorted by
label so that report assembly is order-stable; the text rendering omits
the (non-deterministic) timing, which only the JSON form carries, keeping
output bytes reproducible run over run.
"""

from __future__ import annotations

from dataclasses import dataclass

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


CheckItem = tuple[str, bool, str]


def check_item(label: str, residue) -> CheckItem:
    """A (label, ok, residue text) check that passes on a zero residue."""
    ok = residue.is_zero()
    return (label, ok, "0" if ok else str(residue))


@dataclass(frozen=True)
class ReportItem:
    label: str
    status: str  # "pass" | "fail"
    residue: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "pass"


@dataclass
class Report:
    suite: str
    items: list[ReportItem]
    seconds: float = 0.0

    def __post_init__(self):
        self.items = sorted(self.items, key=lambda item: item.label)

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)

    @staticmethod
    def from_checks(suite: str, checks, seconds: float = 0.0) -> "Report":
        items = [ReportItem(label, "pass" if ok else "fail",
                            None if ok else residue)
                 for label, ok, residue in checks]
        return Report(suite, items, seconds)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "ok": self.ok,
            "seconds": self.seconds,
            "items": [{"label": item.label, "status": item.status,
                       "residue": item.residue} for item in self.items],
        }

    @staticmethod
    def from_dict(data: dict) -> "Report":
        items = [ReportItem(entry["label"], entry["status"], entry.get("residue"))
                 for entry in data["items"]]
        return Report(data["suite"], items, data.get("seconds", 0.0))

    def render_text(self) -> str:
        lines = [f"suite {self.suite}: {'PASS' if self.ok else 'FAIL'}"]
        for item in self.items:
            mark = "ok  " if item.ok else "FAIL"
            line = f"  [{mark}] {item.label}"
            if not item.ok and item.residue is not None:
                line += f"  residue: {item.residue}"
            lines.append(line)
        return "\n".join(lines)
