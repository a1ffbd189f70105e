"""simlint — AST-based determinism & contract checking for the simulator.

The simulator's only currency is determinism: bit-identical replay, named
RNG streams with prefix-stable spawn counts, resumable checkpoints and
profiler splits that sum to the wall clock.  Those invariants used to live
in reviewer vigilance and frozen-oracle tests; this package enforces them
mechanically, as a self-hosted analogue of a race/sanitizer layer.

``python -m repro.analysis src/`` walks the source tree once, runs every
registered rule over each module's AST (plus a handful of cross-module
contract rules), honours ``# simlint: disable=SIMxxx <reason>`` pragmas —
the one way to suppress a finding — and exits non-zero on anything else.

Rule families
-------------
``SIM0xx``  tool integrity (unparseable source)
``SIM1xx``  determinism (wall-clock reads, legacy global RNG, ambient
            entropy, set-iteration ordering in the simulation core)
``SIM2xx``  RNG discipline (unseeded generators reachable from library
            code, raw ``default_rng`` bypassing :mod:`repro.utils.random`)
``SIM3xx``  tie-break hazards (``argpartition`` / non-stable ``argsort``
            on selection and admission paths — the PR 8 bug class)
``SIM4xx``  checkpoint coverage (mutable ``__init__`` state not captured
            by ``state_dict``)
``SIM5xx``  profiler coverage (``SimProfiler`` buckets vs. trainer
            sections, both directions)
``SIM6xx``  parameter-service contracts (shard routing must be a pure
            function of ``(worker_id, shard_id, version)`` — no clock
            reads, no RNG draws, no salted ``hash()`` in placement)

See the README's "Static analysis" section for the workflow (pragmas,
adding a rule).
"""

from __future__ import annotations

from repro.analysis.engine import AnalysisResult, run_analysis
from repro.analysis.rules import RULE_REGISTRY, Finding, Rule, all_rule_codes

__all__ = [
    "AnalysisResult",
    "run_analysis",
    "RULE_REGISTRY",
    "Finding",
    "Rule",
    "all_rule_codes",
]
