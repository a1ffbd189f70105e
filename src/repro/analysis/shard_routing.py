"""SIM6xx — parameter-service shard-routing purity.

The sharded parameter service's placement contract
(:mod:`repro.cluster.service`): which server actor holds a worker's home
slice, and which shard a push or fetch is routed to, is a **pure function
of** ``(worker_id, shard_id, version)``.  Nothing else — not the simulated
clock, not an RNG stream (seeded or not), not salted ``hash()`` — may leak
into placement.  A clock- or entropy-dependent router silently breaks two
load-bearing guarantees at once: bit-identical replay (the same seed must
route every message identically) and checkpoint resume (the restored run
must re-derive the same placement the archive's digests were written
under).

SIM1xx already bans *host* entropy everywhere; this family is stricter on
the routing surface specifically, where even simulator-legal sources of
variation (the simulated clock, a named seeded ``Generator``) are
contract violations.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Optional

from repro.analysis.determinism import AMBIENT_ENTROPY_CALLS, WALL_CLOCK_CALLS
from repro.analysis.rules import Finding, Rule, register_rule
from repro.analysis.walker import SourceFile, dotted_name

#: Function names that constitute the shard-routing surface.  Deliberately
#: tighter than ``shard_*`` so pricing helpers (``shard_frame_bytes``,
#: ``shard_gather_bytes``) that merely *mention* shards stay out of scope.
ROUTING_NAME_RE = re.compile(
    r"^_?(?:home_shard\w*|place_shards?\w*|shard_bounds\w*|shard_of\w*"
    r"|route_\w+|\w+_route|\w+_routing)$"
)

#: Call-name prefixes that draw randomness.  The modern seeded numpy API is
#: included on purpose: a *seeded* draw is fine elsewhere in the simulator
#: but still makes placement depend on stream state rather than on
#: ``(worker_id, shard_id, version)``.
_RANDOM_PREFIXES = ("numpy.random.", "random.", "secrets.")

#: Local names conventionally bound to RNG handles; a method call on one
#: (``rng.integers(...)``, ``self.rng.choice(...)``) is a draw.
_RNG_HANDLE_NAMES = frozenset({"rng", "generator", "random_state"})


def _routing_functions(src: SourceFile) -> Iterable[ast.AST]:
    for node in src.walk():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if ROUTING_NAME_RE.match(node.name):
                yield node


def _violation(src: SourceFile, call: ast.Call) -> Optional[str]:
    """Why *call* breaks routing purity, or ``None`` if it does not."""
    dotted = dotted_name(call.func)
    if dotted is None:
        return None
    resolved = src.imports.resolve(dotted)
    if resolved in WALL_CLOCK_CALLS:
        return f"host-clock read {resolved}()"
    if resolved in AMBIENT_ENTROPY_CALLS:
        return f"OS-entropy read {resolved}()"
    for prefix in _RANDOM_PREFIXES:
        if resolved.startswith(prefix):
            return f"RNG call {resolved}() (even seeded draws are stream state)"
    if resolved == "hash":
        return "builtin hash() (salted per process by PYTHONHASHSEED)"
    parts = dotted.split(".")
    # ``rng.integers(...)`` / ``self.rng.choice(...)``: a draw from a handle.
    if len(parts) >= 2 and any(part in _RNG_HANDLE_NAMES for part in parts[:-1]):
        return f"draw from RNG handle {dotted}()"
    # ``clock.now()`` / ``self.clock.now()``: simulated-time read.  Legal
    # simulator-wide, but placement may not depend on when a message lands.
    if parts[-1] == "now" and any("clock" in part for part in parts[:-1]):
        return f"simulated-clock read {dotted}()"
    return None


@register_rule
class ShardRoutingPurityRule(Rule):
    code = "SIM601"
    name = "shard-routing-purity"
    description = (
        "Shard-routing function (home_shard/place_shards/route_*/...) reads a "
        "clock, draws randomness or calls salted hash(); placement must be a "
        "pure function of (worker_id, shard_id, version)"
    )
    scope_dirs = ("cluster",)

    def check_file(self, src: SourceFile) -> Iterable[Finding]:
        for func in _routing_functions(src):
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                reason = _violation(src, node)
                if reason is not None:
                    yield self.finding(
                        src,
                        node,
                        f"{reason} inside routing function {func.name}(); shard "
                        "placement must derive only from (worker_id, shard_id, "
                        "version) so replay and checkpoint resume re-route every "
                        "message identically",
                    )


__all__ = ["ShardRoutingPurityRule", "ROUTING_NAME_RE"]
