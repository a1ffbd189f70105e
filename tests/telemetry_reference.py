"""The object-merge telemetry export, frozen verbatim as a reference oracle.

This is the per-worker half of ``TrainingHistory``'s export as it stood
before the export was built from the compact columns: ``merged_timelines``
copies every worker's :class:`WorkerTimeline` and adds the compact wire
columns one attribute at a time, ``wire_summary`` sums the merged objects
with builtin ``sum()`` (ascending ids in compact mode, the object store's
insertion order otherwise), and ``to_dict`` exports each merged object's
``to_dict()`` in ascending id order.  The history methods this file calls
(``throughput``, ``sync_summary``, ...) are the live ones; only the three
functions below are frozen.  ``tests/test_telemetry_reference.py`` requires
``json.dumps(..., sort_keys=True)`` of the live ``to_dict()`` and of
:func:`to_dict` to be equal **bytes** on every store and engine.  Do not
edit the function bodies below.
"""

from __future__ import annotations

from typing import Dict

from repro.cluster.telemetry import (
    _WIRE_FLOAT_COLUMNS,
    _WIRE_INT_COLUMNS,
    TrainingHistory,
    WorkerTimeline,
)


def merged_timelines(self: TrainingHistory) -> Dict[int, WorkerTimeline]:
    """Per-worker timelines with compact wire columns folded back in."""
    if not self.compact:
        return self.worker_timelines
    merged: Dict[int, WorkerTimeline] = {}
    touched_ids = [
        wid
        for wid in self._wire_ids
        if self._wire_touched[self._wire_row[wid]]
    ]
    for wid in sorted(set(touched_ids) | set(self.worker_timelines)):
        base = self.worker_timelines.get(wid)
        timeline = (
            WorkerTimeline(worker_id=wid)
            if base is None
            else WorkerTimeline(**{**base.to_dict()})
        )
        row = self._wire_row.get(wid)
        if row is not None:
            for name in _WIRE_FLOAT_COLUMNS:
                setattr(
                    timeline, name,
                    getattr(timeline, name) + float(self._wire_cols[name][row]),
                )
            for name in _WIRE_INT_COLUMNS:
                setattr(
                    timeline, name,
                    getattr(timeline, name) + int(self._wire_cols[name][row]),
                )
        merged[wid] = timeline
    return merged


def wire_summary(self: TrainingHistory) -> Dict[str, float]:
    """Aggregate wire-substrate counters over the run."""
    timelines = merged_timelines(self).values()
    return {
        "wire_bytes": self.total_wire_bytes,
        "downlink_bytes": self.total_downlink_bytes,
        "bytes_sent": float(sum(t.bytes_sent for t in timelines)),
        "bytes_received": float(sum(t.bytes_received for t in timelines)),
        "bytes_received_full": float(
            sum(t.bytes_received_full for t in timelines)
        ),
        "bytes_received_delta": float(
            sum(t.bytes_received_delta for t in timelines)
        ),
        "queueing_delay_seconds": float(
            sum(t.queueing_delay_seconds for t in timelines)
        ),
        "compression_error": float(sum(t.compression_error for t in timelines)),
    }


def to_dict(self: TrainingHistory) -> Dict:
    """JSON-serialisable summary of the run."""
    return {
        "num_updates": self.num_updates,
        "total_time": self.total_time,
        "final_accuracy": self.final_accuracy,
        "best_accuracy": self.best_accuracy,
        "throughput": self.throughput(),
        "latency_breakdown": self.latency_breakdown(),
        "sync": self.sync_summary(),
        "wire": wire_summary(self),
        "distance_cache": self.distance_cache_summary(),
        "region_queueing": self.region_queueing_summary(),
        "interserver": self.interserver_summary(),
        "server_utilisation": self.server_utilisation(),
        "version_lag_histogram": {
            str(lag): count for lag, count in self.version_lag_histogram().items()
        },
        "worker_timelines": {
            str(wid): timeline.to_dict()
            for wid, timeline in sorted(merged_timelines(self).items())
        },
        "diverged": self.diverged,
        "divergence_reason": self.divergence_reason,
        "evaluations": [
            {"step": e.step, "sim_time": e.sim_time, "accuracy": e.accuracy}
            for e in self.evaluations
        ],
    }
