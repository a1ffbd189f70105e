"""Per-subsystem host-time profiling of the simulator itself.

The simulated clock measures the *modelled* system; this module measures the
*simulator* — where the host CPU actually goes while a step executes.  The
trainers bracket their hot stages with :meth:`SimProfiler.section`, so a
``--profile`` run reports a breakdown over the canonical subsystems:

``event_dispatch``
    Queue mechanics: pushing/popping events, clock advancement.
``codec``
    Wire-codec work: encode/decode (batched or per frame) and error-feedback
    residual updates.
``link_drain``
    Transfer pricing: channel transfers, link-fabric solo times and shared
    pipe contention resolution.
``gar_kernel``
    The server stage, the same bracket in both engines: validation, the
    distance pass, trimming/averaging, cost-model pricing and the
    inter-server gather's pricing — *except* the selection stage below
    and the optimizer step (outside the bracket: ``unaccounted_s``).
``gar_select``
    The GAR's selection stage (Krum score reduction + stable pick, Bulyan's
    iterated extraction, Brute's subset-diameter scan), split out of
    ``gar_kernel`` so distance time and selection time are visible
    separately.  The rule modules credit a shared clock
    (:data:`repro.core.kernels.SELECTION_CLOCK`); the trainers drain it
    after each aggregation bracket and move the seconds here, keeping the
    sections disjoint (the split still sums to the wall clock).
``telemetry``
    History recording: per-worker wire counters and step records.
``compute``
    Worker-side gradient estimation (sampling + forward/backward).
``attack``
    Byzantine gradient crafting (one joint call per version for
    deterministic attacks, the per-worker loop otherwise).
``link_reschedule``
    Async link-event bookkeeping: cancelling a pipe's stale completion
    event and scheduling the next one whenever a session opens or drains
    (previously invisible inside ``event_dispatch``).
``admission``
    Async admission control (``AsyncTrainer._admit_arrival`` and a herd
    cohort's bulk ``PendingPool.put_many``): the decode (one batch per
    ``arrive`` cohort), drop / stale / supersede bookkeeping and the
    pending-pool writes — never the quorum and adversary triggers that
    follow them.

Anything not bracketed is the residue between ``wall_clock_s`` and the sum
of the subsystems — deliberately visible, so a future hot spot outside the
known stages shows up as a growing gap instead of hiding inside a bucket.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

#: Canonical subsystem order used by reports (unknown names sort after).
SUBSYSTEMS = (
    "event_dispatch",
    "codec",
    "link_drain",
    "link_reschedule",
    "admission",
    "gar_kernel",
    "gar_select",
    "telemetry",
    "compute",
    "attack",
)


class SimProfiler:
    """Accumulates host seconds per simulator subsystem.

    The profiler is deliberately dumb — named accumulators around
    ``perf_counter`` — so its own overhead stays far below the stages it
    measures.  Sections nest safely (inner time is attributed to the inner
    section only if the caller brackets it that way; the profiler does not
    subtract nested sections automatically, so trainers bracket disjoint
    stages).
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self._wall_start: Optional[float] = None
        self.wall_clock_s = 0.0

    # ----------------------------------------------------------- accounting
    def add(self, name: str, seconds: float, *, calls: int = 1) -> None:
        """Credit *seconds* of host time (and *calls* invocations) to *name*."""
        self.seconds[name] = self.seconds.get(name, 0.0) + float(seconds)
        self.calls[name] = self.calls.get(name, 0) + int(calls)

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        """Bracket one timed region: ``with profiler.section("codec"): ...``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def start_run(self) -> None:
        """Mark the start of the profiled run (for the wall-clock total)."""
        self._wall_start = time.perf_counter()

    def stop_run(self) -> None:
        """Accumulate wall-clock seconds since :meth:`start_run`."""
        if self._wall_start is not None:
            self.wall_clock_s += time.perf_counter() - self._wall_start
            self._wall_start = None

    # -------------------------------------------------------------- reports
    def _ordered_names(self) -> list:
        known = [name for name in SUBSYSTEMS if name in self.seconds]
        extra = sorted(name for name in self.seconds if name not in SUBSYSTEMS)
        return known + extra

    def to_dict(self) -> Dict:
        """JSON-serialisable breakdown (the ``--profile`` summary payload)."""
        total = sum(self.seconds.values())
        return {
            "wall_clock_s": float(self.wall_clock_s),
            "accounted_s": float(total),
            "unaccounted_s": float(max(self.wall_clock_s - total, 0.0)),
            "subsystems": {
                name: {
                    "seconds": float(self.seconds[name]),
                    "calls": int(self.calls.get(name, 0)),
                    "share": float(self.seconds[name] / total) if total > 0 else 0.0,
                }
                for name in self._ordered_names()
            },
        }

    def format_report(self) -> str:
        """Human-readable breakdown for the runner's ``--profile`` output."""
        lines = ["[repro.profile] subsystem breakdown (host seconds):"]
        total = sum(self.seconds.values())
        for name in self._ordered_names():
            seconds = self.seconds[name]
            share = seconds / total if total > 0 else 0.0
            lines.append(
                f"[repro.profile]   {name:<15s} {seconds:10.4f}s"
                f"  {share:6.1%}  ({self.calls.get(name, 0)} calls)"
            )
        if self.wall_clock_s > 0:
            lines.append(
                f"[repro.profile]   {'wall clock':<15s} {self.wall_clock_s:10.4f}s"
                f"  (accounted {total / self.wall_clock_s:.1%})"
                if self.wall_clock_s
                else ""
            )
        return "\n".join(line for line in lines if line)


__all__ = ["SimProfiler", "SUBSYSTEMS"]
