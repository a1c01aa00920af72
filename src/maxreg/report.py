"""Machine-readable experiment reports.

Every report is self-describing: schema version, seeds, resolutions, and
grid metadata ride along with each number.  JSON round-trips bit exact
(Python's shortest-roundtrip float repr); CSV uses a fixed column order.
"""
from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field

import numpy as np

SCHEMA_VERSION = "maxreg.report/1"

SEMINORM_COLUMNS = [
    "functional", "order", "value", "achieving_start", "achieving_end",
    "resolution", "divergent_flag", "seed",
]


@dataclass
class SeminormRow:
    functional: str
    order: float | None
    value: float
    achieving_interval: tuple[float, float] | None
    resolution: int | None
    divergent_flag: bool | None = None
    seed: int | None = None

    def csv_row(self) -> list:
        a0, a1 = self.achieving_interval if self.achieving_interval else ("", "")
        return [self.functional, self.order, self.value, a0, a1,
                self.resolution, self.divergent_flag, self.seed]


@dataclass
class RegularityReport:
    experiment_id: str
    # kind, seed, lambda, Lambda, T; the extension constants M and M_natural
    # are the extension_M and extension_M_natural rows of `seminorms`
    coefficient: dict = field(default_factory=dict)
    resolutions: dict = field(default_factory=dict)   # n_t, n_x, window_factor
    norms: dict = field(default_factory=dict)
    ratios: dict = field(default_factory=dict)
    seminorms: list[SeminormRow] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    schema_version: str = SCHEMA_VERSION

    def __post_init__(self):
        for key, val in self.norms.items():
            if val < 0:
                raise ValueError(f"norm {key} is negative: {val}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["seminorms"] = [asdict(r) for r in self.seminorms]
        return _jsonable(d)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def report_from_dict(d: dict) -> RegularityReport:
    """The report whose `to_dict` is d.  An achieving interval comes back as
    a tuple, and a row written before rows carried a seed loads with none."""
    rows = [SeminormRow(**{**r, "achieving_interval": tuple(r["achieving_interval"])
                           if r["achieving_interval"] else None})
            for r in d.get("seminorms", [])]
    return RegularityReport(**{**d, "seminorms": rows})


def emit_report(report: RegularityReport, path: str, format: str = "json") -> str:
    """Write the report; returns the path.  I/O failures propagate."""
    if format == "json":
        with open(path, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
    elif format == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(SEMINORM_COLUMNS)
            for row in report.seminorms:
                writer.writerow(row.csv_row())
    else:
        raise ValueError(f"unknown report format {format!r}")
    return path


def load_report(path: str) -> RegularityReport:
    with open(path) as fh:
        return report_from_dict(json.load(fh))


def emit_plot_data(path: str, x: np.ndarray, y: np.ndarray, header: tuple[str, str]) -> str:
    """Two-column CSV companion file (e.g. t vs ||u(t)||, or spectra)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(header))
        for xi, yi in zip(np.asarray(x), np.asarray(y)):
            writer.writerow([repr(float(xi)), repr(float(yi))])
    return path
