"""Result export and pretty-printing helpers shared by the experiment drivers."""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.cluster.telemetry import TrainingHistory


def telemetry_series(history: TrainingHistory) -> Dict:
    """The event-engine telemetry fields the figures plot.

    Server busy/idle fractions, per-worker pushed-round counts and the
    admitted version-lag histogram, all in plain-Python form ready for
    ``json.dumps``.  Lock-step histories report zero busy time
    only if they predate the busy accounting; their lag histogram is the
    policy's staleness distribution (all mass at 0 under full synchrony).
    """
    utilisation = history.server_utilisation()
    wire = history.wire_summary()
    return {
        "server_busy_fraction": utilisation["busy_fraction"],
        "server_idle_fraction": utilisation["idle_fraction"],
        "server_busy_time": utilisation["busy_time"],
        "server_idle_time": utilisation["idle_time"],
        "worker_round_counts": {
            str(wid): count for wid, count in history.worker_round_counts().items()
        },
        "version_lag_histogram": {
            str(lag): count for lag, count in history.version_lag_histogram().items()
        },
        "wire_bytes": wire["wire_bytes"],
        "downlink_bytes": wire["downlink_bytes"],
        "bytes_sent": wire["bytes_sent"],
        "bytes_received": wire["bytes_received"],
        "bytes_received_full": wire["bytes_received_full"],
        "bytes_received_delta": wire["bytes_received_delta"],
        "queueing_delay_seconds": wire["queueing_delay_seconds"],
        "compression_error": wire["compression_error"],
        "region_queueing_seconds": {
            str(region): seconds
            for region, seconds in history.region_queueing_summary().items()
        },
    }


def format_table(headers: Sequence[str], rows: Sequence[Sequence], title: str = "") -> str:
    """Render a plain-text table (the form in which benches print paper rows)."""
    str_rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in str_rows)) if str_rows else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _format_cell(cell) -> str:
    if isinstance(cell, float):
        if np.isnan(cell):
            return "n/a"
        return f"{cell:.4g}"
    return str(cell)


__all__ = ["telemetry_series", "format_table"]
