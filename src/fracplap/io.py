"""On-disk formats: diagnostics CSV, binary field snapshots, run summaries.

Everything written here is a pure function of the run inputs, so a
repeated run produces byte-identical files (wall-clock time is kept out
of these artifacts on purpose).
"""
from __future__ import annotations

import json
import struct

import numpy as np

from .errors import GridMismatchError
from .integrator import RunReport
from .model import DomainSpec, Field

SNAPSHOT_MAGIC = b"FPLP"
SNAPSHOT_VERSION = 1

_HEADER = struct.Struct("<4sIIId")   # magic, version, dim, n, half_width

SERIES_HEADER = "t,sup_norm,l2_norm,l1_norm,min_value"


def format_series(report: RunReport) -> str:
    """Render the recorded diagnostics as CSV text (17 significant digits,
    enough to round-trip float64)."""
    lines = [SERIES_HEADER]
    for i, t in enumerate(report.times):
        lines.append("%.17g,%.17g,%.17g,%.17g,%.17g" % (
            t, report.sup_series[i], report.l2_series[i],
            report.l1_series[i], report.min_series[i]))
    return "\n".join(lines) + "\n"


def write_series(report: RunReport, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_series(report))


def write_snapshot(field: Field, path: str) -> None:
    """Binary field dump: 24-byte header (magic, version, dim, n, L) then
    the row-major float64 little-endian grid values."""
    header = _HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, field.dim,
                          field.domain.n, field.domain.half_width)
    data = np.ascontiguousarray(field.values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())


def read_snapshot(path: str) -> Field:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise GridMismatchError(f"{path}: truncated snapshot header")
    magic, version, dim, n, half_width = _HEADER.unpack_from(raw)
    if magic != SNAPSHOT_MAGIC:
        raise GridMismatchError(f"{path}: bad magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise GridMismatchError(f"{path}: unsupported snapshot version {version}")
    if dim not in (1, 2):
        raise GridMismatchError(f"{path}: invalid dimension {dim}")
    try:
        domain = DomainSpec(half_width=half_width, n=n)
    except ValueError as exc:
        raise GridMismatchError(f"{path}: invalid grid header: {exc}") from exc
    count = n ** dim
    expected = _HEADER.size + 8 * count
    if len(raw) != expected:
        raise GridMismatchError(
            f"{path}: expected {expected} bytes for n={n}, dim={dim}, got {len(raw)}")
    values = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size, count=count)
    return Field(values.reshape((n,) * dim).astype(np.float64), domain)


def summarize_run(report: RunReport) -> dict:
    """Deterministic JSON-ready summary of a run (no wall-clock entries);
    the report's series hold at least the t = 0 row, as every ``run``
    report does."""
    summary = {
        "status": report.status.kind,
        "steps": report.steps,
        "final_time": float(report.times[-1]),
        "sup_norm_final": float(report.sup_series[-1]),
        "sup_norm_peak": float(np.max(report.sup_series)),
        "l2_norm_final": float(report.l2_series[-1]),
        "min_value_final": float(report.min_series[-1]),
        "warnings": list(report.warnings),
        "history_rows": report.history_rows,
        "soe_terms": report.soe_terms,
        "worst_negative": report.worst_negative,
        "worst_negative_time": report.worst_negative_time,
        "solve_path": report.solve_path,
        "cg_iterations": report.cg_iterations,
        "cg_iterations_max": report.cg_iterations_max,
        "cg_residual_max": report.cg_residual_max,
    }
    if report.status.time is not None:
        summary["halt_time"] = report.status.time
    return summary


def write_report_json(report: RunReport, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(summarize_run(report), fh, indent=2, sort_keys=True)
        fh.write("\n")

