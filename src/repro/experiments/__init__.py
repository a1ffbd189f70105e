"""Experiment drivers reproducing the paper's evaluation (one module per figure/table).

Every driver exposes a ``run_*`` function parameterised by an
:class:`~repro.experiments.config.ExperimentProfile`; the ``ci`` profile is a
scaled-down deployment (fewer workers, smaller model/dataset, fewer steps)
that preserves the qualitative shapes and runs in seconds, while the
``paper`` profile matches the paper's cluster dimensions (19 workers, f=4,
the Table-1 CNN).  The benchmark suite under ``benchmarks/`` runs the ``ci``
profile and prints the same rows/series the paper reports.
"""

from repro.experiments.config import ExperimentProfile, ci_profile, paper_profile
from repro.experiments import (
    table1,
    overhead,
    latency,
    scalability,
    impact_f,
    corrupted_data,
    dropped_packets,
    byzantine_attacks,
    cost_analysis,
    stragglers,
    async_throughput,
    broadcast_scaling,
)
from repro.experiments.export import telemetry_series, format_table

__all__ = [
    "ExperimentProfile",
    "ci_profile",
    "paper_profile",
    "table1",
    "overhead",
    "latency",
    "scalability",
    "impact_f",
    "corrupted_data",
    "dropped_packets",
    "byzantine_attacks",
    "cost_analysis",
    "broadcast_scaling",
    "stragglers",
    "async_throughput",
    "telemetry_series",
    "format_table",
]
