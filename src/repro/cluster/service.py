"""Sharded / replicated parameter service over the event-driven substrate.

The reproduction's server side grew up as one :class:`~repro.cluster.server.ParameterServer`
object, yet the paper's TensorFlow lineage assumes a parameter *service*:
``n_pss`` server tasks, each owning a slice of the model, with workers
fanning their pushes out across them.  This module promotes the single
server to that service:

* :func:`parse_server_topology` resolves the ``--server-topology`` grammar
  (``shards:N`` / ``replicas:R`` / ``region-sharded``) into a
  :class:`ServerTopology`;
* :class:`ServerFabric` hosts the resolved :class:`ShardSpec` actors on top
  of the authoritative store, routes worker fetch/push traffic through
  per-shard sub-frames (:meth:`repro.cluster.codec.FrameBatch.shard_bytes`,
  a whole batch of frames at a time) priced against each shard's *regional*
  placement, runs the round's server stage (:meth:`ServerFabric.aggregate`:
  validate, aggregate, price) and prices the inter-server shard gather —
  the wire that replaces the flat :func:`repro.core.theory.shard_combine_flops`
  term — as real :class:`~repro.cluster.link.LinkScheduler` sessions.

Design contract (mirrors the PR-5 :class:`~repro.core.distance_cache.DistanceCache`
precedent): the *data plane* stays on the audited single-store kernels —
every correct shard/replica of a deterministic state machine holds exactly
the bytes the authoritative store holds, so aggregated gradients are
bit-identical across topologies by construction.  What the service changes
is the *simulated systems layer*: per-shard byte accounting (local versus
cross-region), the measured gather wire on the aggregation critical path,
replica fan-out and digest-sync costs, and per-shard version/pin
bookkeeping for checkpoints.

Every trainer talks to a fabric: ``single`` is the one-actor fabric and
differs from ``shards:1`` / ``replicas:1`` only in its spec string.  The
one-actor accounting rule lives here and nowhere else — with no inter-server
wire, :meth:`~ServerFabric.account_pushes`, :meth:`~ServerFabric.account_fetches`
and :meth:`~ServerFabric.gather_seconds` book nothing (the ``interserver``
ledger stays all-zero) and the in-server combine keeps its analytic
:func:`~repro.core.theory.shard_combine_flops` price.  The fabric keeps no
version log of its own: a shard's slice digests are a pure function of the
authoritative store, so nothing is hashed per update and nothing can drift.

Shard routing is a pure function of ``(worker_id, shard_id, version)`` —
no wall clock, no RNG (enforced by simlint rule SIM601).

:func:`majority_model` is the worker-side vote of the paper's untrusted
server (§6): with replicated servers, a worker adopts the model vector more
than two thirds of the replicas sent — correct replicas of a deterministic
state machine send bit-identical models, so the lying ones are outvoted.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.codec import FrameBatch
from repro.cluster.link import DEFAULT_REGION, LinkScheduler, LinkTopology
from repro.core import theory
from repro.exceptions import ConfigurationError, TrainingError

#: Bytes of one replica state digest (blake2b-16): what deterministic
#: replicas exchange to confirm agreement after every update — they never
#: ship full models, bit-identity makes the fingerprint sufficient.
REPLICA_DIGEST_BYTES = 16

#: Accepted ``--server-topology`` kinds.
TOPOLOGY_KINDS = ("single", "shards", "replicas", "region-sharded")


def majority_model(proposals: Sequence[np.ndarray], *, quorum: Optional[int] = None,
                   atol: float = 0.0) -> np.ndarray:
    """Return the model vector proposed by a quorum of server replicas.

    Parameters
    ----------
    proposals:
        One flat model vector per replica.
    quorum:
        Minimum number of identical proposals required; defaults to a strict
        two-thirds majority ``floor(2r/3) + 1``.
    atol:
        Tolerance when comparing proposals (0 = bit-identical, which is what
        deterministic replicas produce).
    """
    vectors = [np.asarray(p, dtype=np.float64).ravel() for p in proposals]
    if len(vectors) == 0:
        raise TrainingError("no server replica sent a model")
    r = len(vectors)
    needed = quorum if quorum is not None else (2 * r) // 3 + 1
    if needed < 1 or needed > r:
        raise ConfigurationError(f"quorum must be in [1, {r}], got {needed}")
    if atol == 0.0:
        # Exact-equality voting (the deterministic-replica contract) groups
        # proposals by content fingerprint in O(r * d) instead of running the
        # O(r^2 * d) pairwise comparison loop.  Two canonicalisations keep the
        # grouping equivalent to ``np.allclose(..., atol=0, rtol=0)``:
        # ``vec + 0.0`` folds ``-0.0`` into ``+0.0`` (equal values, different
        # bit patterns), and a vector containing NaN matches *nothing* — not
        # even itself (``equal_nan=False``) — so it votes with count 0.
        counts = [0] * r
        keys: List[Optional[Tuple[Tuple[int, ...], bytes]]] = []
        groups: Dict[Tuple[Tuple[int, ...], bytes], int] = {}
        for vec in vectors:
            if np.isnan(vec).any():
                keys.append(None)
                continue
            key = (vec.shape, (vec + 0.0).tobytes())
            keys.append(key)
            groups[key] = groups.get(key, 0) + 1
        for i, key in enumerate(keys):
            if key is not None:
                counts[i] = groups[key]
    else:
        # Tolerance voting has no transitive grouping (a ~ b and b ~ c do not
        # imply a ~ c), so the pairwise loop is kept as the fallback.
        counts = [0] * r
        for i in range(r):
            for j in range(r):
                if vectors[i].shape == vectors[j].shape and np.allclose(
                    vectors[i], vectors[j], atol=atol, rtol=0.0, equal_nan=False
                ):
                    counts[i] += 1
    best = int(np.argmax(counts))
    if counts[best] < needed:
        raise TrainingError(
            f"no model reached the quorum of {needed} identical replica proposals "
            f"(best agreement: {counts[best]} of {r})"
        )
    return vectors[best].copy()


@dataclass(frozen=True)
class ServerTopology:
    """A resolved ``--server-topology`` request.

    ``count`` is the declared actor count; ``region-sharded`` defers it to
    the number of WAN regions (0 until :class:`ServerFabric` resolves it
    against the link topology).
    """

    kind: str
    count: int

    def __post_init__(self) -> None:
        if self.kind not in TOPOLOGY_KINDS:
            raise ConfigurationError(
                f"server topology kind must be one of {TOPOLOGY_KINDS}, got {self.kind!r}"
            )
        if self.kind == "region-sharded":
            if self.count != 0:
                raise ConfigurationError(
                    "region-sharded resolves its shard count from the link "
                    f"topology; got an explicit count {self.count}"
                )
        elif self.count < 1:
            raise ConfigurationError(
                f"server topology needs at least one actor, got {self.count}"
            )

    @property
    def spec(self) -> str:
        """The canonical spec string this topology round-trips to."""
        if self.kind == "single":
            return "single"
        if self.kind == "region-sharded":
            return "region-sharded"
        return f"{self.kind}:{self.count}"


def parse_server_topology(spec: Optional[str]) -> ServerTopology:
    """Resolve a ``--server-topology`` string into a :class:`ServerTopology`.

    Grammar
    -------
    ``None`` / ``""`` / ``"single"``
        The single-server deployment (trivial service).
    ``"shards:N"``
        ``N`` server actors, each owning a contiguous parameter shard.
    ``"replicas:R"``
        ``R`` deterministic full-model replicas (workers multicast pushes).
    ``"region-sharded"``
        One shard per WAN region of the link topology, placed in-region so a
        worker's home slice never crosses the WAN (requires a ``wan:`` link
        profile).
    """
    if spec is None:
        return ServerTopology(kind="single", count=1)
    text = str(spec).strip().lower()
    if text in ("", "single"):
        return ServerTopology(kind="single", count=1)
    if text == "region-sharded":
        return ServerTopology(kind="region-sharded", count=0)
    for kind in ("shards", "replicas"):
        prefix = f"{kind}:"
        if text.startswith(prefix):
            try:
                count = int(text[len(prefix):])
            except ValueError as exc:
                raise ConfigurationError(
                    f"malformed server topology {spec!r}; expected "
                    f"'{kind}:<count>' with an integer count"
                ) from exc
            return ServerTopology(kind=kind, count=count)
    raise ConfigurationError(
        f"malformed server topology {spec!r}; expected 'single', 'shards:N', "
        "'replicas:R' or 'region-sharded'"
    )


@dataclass(frozen=True)
class ShardSpec:
    """One server actor: a contiguous coordinate slice placed in a region.

    Replicated deployments use full-width shards (``lo=0, hi=dim``): every
    replica owns the whole model.
    """

    shard_id: int
    lo: int
    hi: int
    region: str

    @property
    def width(self) -> int:
        """Number of model coordinates this actor owns."""
        return self.hi - self.lo


def shard_bounds(dim: int, num_shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` coordinate ranges of *num_shards* shards.

    The split matches ``np.array_split``: the first ``dim % num_shards``
    shards are one coordinate wider, so widths never differ by more than
    one and every coordinate is owned exactly once.
    """
    if dim < 1:
        raise ConfigurationError(f"dim must be >= 1, got {dim}")
    if num_shards < 1 or num_shards > dim:
        raise ConfigurationError(
            f"num_shards must be in [1, {dim}] for a {dim}-parameter model, "
            f"got {num_shards}"
        )
    base, extra = divmod(dim, num_shards)
    bounds: List[Tuple[int, int]] = []
    lo = 0
    for shard_id in range(num_shards):
        hi = lo + base + (1 if shard_id < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def place_shards(num_shards: int, regions: Sequence[str]) -> List[str]:
    """Deterministic shard placement: shard ``i`` lands in ``regions[i % R]``.

    Pure in ``(shard_id, regions)`` — placement must replay bit-identically,
    so no entropy source may enter it (simlint SIM601).
    """
    if num_shards < 1:
        raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
    if not regions:
        raise ConfigurationError("shard placement needs at least one region")
    return [str(regions[i % len(regions)]) for i in range(num_shards)]


def _slice_digest(parameters: np.ndarray, lo: int, hi: int) -> bytes:
    """Content digest of one shard's slice of a parameter vector."""
    block = np.ascontiguousarray(parameters[lo:hi], dtype=np.float64)
    return hashlib.blake2b(block.tobytes(), digest_size=16).digest()


class ServerFabric:
    """The parameter service: shard/replica actors over the authoritative store.

    Parameters
    ----------
    server:
        The authoritative :class:`~repro.cluster.server.ParameterServer`.
        Its versioned store stays the single source of truth for values;
        the fabric owns the per-shard systems view (routing, wire pricing,
        version digests).
    cost_model:
        Prices the inter-server pipes (symmetric bandwidth/latency base).
    topology:
        The requested :class:`ServerTopology`.
    link_topology:
        The WAN topology the deployment runs on (``None`` = the single
        symmetric ``core`` region).  ``region-sharded`` resolves one shard
        per region from it; regional placement prices cross-region traffic
        on both endpoints' WAN hops.
    link_sharing:
        Sharing discipline of the inter-server pipes (mirrors the worker
        links' ``--link-sharing``).
    """

    #: Derived configuration, rebuilt verbatim from the constructor's
    #: topology arguments on every construction — never mutated after
    #: ``__init__``, so checkpoints have nothing to capture (SIM401).
    _CHECKPOINT_EXEMPT = ("_region_latency", "_region_bandwidth", "_shard_local")

    def __init__(
        self,
        server,
        cost_model,
        *,
        topology: ServerTopology,
        link_topology: Optional[LinkTopology] = None,
        link_sharing: str = "none",
    ) -> None:
        self.server = server
        self.cost_model = cost_model
        self.topology = topology
        self.link_topology = link_topology
        self.link_sharing = link_sharing
        self._history = None

        region_names: Tuple[str, ...] = (
            (DEFAULT_REGION,)
            if link_topology is None
            else tuple(region.name for region in link_topology.regions)
        )
        kind = topology.kind
        if kind == "region-sharded":
            if link_topology is None:
                raise ConfigurationError(
                    "server topology 'region-sharded' needs a WAN link "
                    "topology (e.g. link_profile='wan:4x10mbit'); there are "
                    "no regions to shard across"
                )
            count = len(region_names)
            kind = "shards"
        else:
            count = topology.count

        self.kind = kind  # "single" | "shards" | "replicas" (resolved)
        self.num_actors = count
        dim = server.dim
        if kind == "shards" and count > dim:
            raise ConfigurationError(
                f"cannot shard a {dim}-parameter model across {count} servers"
            )
        regions = place_shards(max(count, 1), region_names)
        if kind == "shards":
            bounds = shard_bounds(dim, count)
        else:  # single server or full-model replicas
            bounds = [(0, dim)] * count
        self.shards: List[ShardSpec] = [
            ShardSpec(shard_id=i, lo=lo, hi=hi, region=regions[i])
            for i, (lo, hi) in enumerate(bounds)
        ]
        self._bounds = bounds
        self._region_latency: Dict[str, float] = {}
        self._region_bandwidth: Dict[str, Optional[float]] = {}
        if link_topology is not None:
            for region in link_topology.regions:
                self._region_latency[region.name] = region.latency_s
                self._region_bandwidth[region.name] = region.bandwidth_gbps
        #: ``[region position, shard]``: whether the shard is placed in that
        #: region — a worker's row is its (worker, shard) locality mask.
        self._shard_local = np.array(
            [[shard.region == name for shard in self.shards] for name in region_names],
            dtype=bool,
        )
        #: Cumulative interserver counters (also pushed into the bound
        #: history so they surface in ``to_dict()['interserver']``).
        self.counters: Dict[str, float] = {
            "push_local_bytes": 0.0,
            "push_cross_bytes": 0.0,
            "fetch_local_bytes": 0.0,
            "fetch_cross_bytes": 0.0,
            "gather_bytes": 0.0,
            "gather_seconds": 0.0,
            "gather_sessions": 0.0,
            "replica_sync_bytes": 0.0,
            "rounds": 0.0,
        }

    # ------------------------------------------------------------- structure
    @property
    def is_trivial(self) -> bool:
        """Whether this service is indistinguishable from the single server.

        One actor owning the whole model has no inter-server wire: the
        accounting methods book nothing and the analytic in-server combine
        stays charged, so ``single`` / ``shards:1`` / ``replicas:1`` are
        bit-identical in parameters, timing and telemetry.  Private to this
        module's pricing decisions — callers never branch on it.
        """
        return self.num_actors <= 1

    @property
    def num_shards(self) -> int:
        """Number of server actors hosted by the fabric."""
        return self.num_actors

    def region_of_worker(self, worker_id: int) -> str:
        """The WAN region *worker_id* pushes from (``core`` without a topology)."""
        if self.link_topology is None:
            return DEFAULT_REGION
        return self.link_topology.region_of(worker_id)

    def describe(self) -> Dict:
        """JSON-serialisable summary of the resolved service layout."""
        return {
            "topology": self.topology.spec,
            "kind": self.kind,
            "num_actors": self.num_actors,
            "shards": [
                {
                    "shard_id": shard.shard_id,
                    "lo": shard.lo,
                    "hi": shard.hi,
                    "region": shard.region,
                }
                for shard in self.shards
            ],
        }

    # ------------------------------------------------------------- telemetry
    def bind_history(self, history) -> None:
        """Attach the run's :class:`~repro.cluster.telemetry.TrainingHistory`."""
        self._history = history

    def _record(self, **deltas: float) -> None:
        for key, value in deltas.items():
            self.counters[key] += float(value)
        if self._history is not None:
            self._history.record_interserver(
                **{key: value for key, value in deltas.items() if key != "rounds"}
            )

    # ---------------------------------------------------------- push routing
    def _locality(self, worker_ids: np.ndarray) -> np.ndarray:
        """``(n, num_actors)`` mask: actor ``j`` sits in worker ``i``'s region."""
        if self.link_topology is None:
            return np.broadcast_to(self._shard_local[0], (len(worker_ids), self.num_actors))
        return self._shard_local[self.link_topology.routes(worker_ids)[0]]

    def _record_split(self, prefix: str, split: np.ndarray, local: np.ndarray) -> None:
        """Add a batch's per-(worker, actor) bytes to the local / cross counters.

        Each total is the last entry of a running sum over the row-major
        flattening with the other side's entries zeroed.  That is the float
        a per-frame, per-shard ``+=`` loop reaches: ``cumsum`` adds left to
        right, and adding ``0.0`` to a non-negative running total is exact.
        """
        if split.size == 0:
            return
        local_bytes = float(np.cumsum(np.where(local, split, 0.0).ravel())[-1])
        cross_bytes = float(np.cumsum(np.where(local, 0.0, split).ravel())[-1])
        if local_bytes or cross_bytes:
            self._record(**{
                f"{prefix}_local_bytes": local_bytes, f"{prefix}_cross_bytes": cross_bytes,
            })

    def account_pushes(
        self, worker_ids: Sequence[int], batches: Sequence[FrameBatch]
    ) -> None:
        """Account uplink frames fanning out across the actors.

        *batches* hold the sent frames in *worker_ids* order, one row each.
        Sharded service: each frame splits into per-shard sub-frames
        (:meth:`~repro.cluster.codec.FrameBatch.shard_bytes` prices a whole
        batch at once); the sub-frame for the shard placed in the worker's
        own region is local, the rest cross the WAN.  Replicated service:
        the worker multicasts the whole frame to every replica.  The
        batches' splits are concatenated in row order and the two totals
        are ordered sums (:meth:`_record_split`), so the counters are
        bit-identical to accounting the frames one at a time.  Arrival
        *times* are untouched — the uplink's admission schedule is priced on
        the worker's own path exactly as in the single-server deployment
        (the slices travel in parallel); the fan-out is a byte-accounting
        effect.
        """
        if self.is_trivial:
            return
        if self.kind == "replicas":
            splits = [np.full((len(batch), self.num_actors), batch.nbytes) for batch in batches]
        else:
            splits = [batch.shard_bytes(self._bounds) for batch in batches]
        split = np.concatenate(splits) if splits else np.zeros((0, self.num_actors))
        self._record_split("push", split, self._locality(np.asarray(worker_ids, dtype=np.intp)))

    def account_fetches(
        self, worker_ids: Sequence[int], nbytes: Sequence[float]
    ) -> None:
        """Account model fetches assembled from the actors' slices.

        A broadcast frame's bytes originate proportionally from each shard's
        coordinate range (dense framing; the worker-side assembly is free),
        so the shard homed in the worker's region serves its slice locally
        while the remaining slices cross the WAN.  Replicated service:
        the worker pulls from its region's replica when one exists (pure
        ``(worker_id, shard_id)`` routing), so the whole fetch is local
        unless no replica shares the region.  Zero-byte fetches cost
        nothing; the totals are the same ordered sums as for pushes.
        """
        if self.is_trivial:
            return
        totals = np.asarray(nbytes, dtype=np.float64)
        fetched = totals != 0.0
        totals = totals[fetched]
        local = self._locality(np.asarray(worker_ids, dtype=np.intp)[fetched])
        if self.kind == "replicas":
            split, local = totals[:, None], local.any(axis=1, keepdims=True)
        else:
            widths = np.array([shard.width for shard in self.shards], dtype=np.float64)
            split = totals[:, None] * (widths / float(self.server.dim))
        self._record_split("fetch", split, local)

    # ------------------------------------------------------ inter-server wire
    def _interserver_session_kwargs(self, src_region: str, dst_region: str) -> dict:
        """Per-session extras for a shard-to-shard transfer.

        Same-region hops ride the datacenter fabric (no extra latency, no
        regional cap); a cross-region hop pays both endpoints' WAN
        propagation and is capped by the slower of the two bottlenecks.
        """
        if src_region == dst_region:
            return {}
        extra = self._region_latency.get(src_region, 0.0) + self._region_latency.get(
            dst_region, 0.0
        )
        caps = [
            cap
            for cap in (
                self._region_bandwidth.get(src_region),
                self._region_bandwidth.get(dst_region),
            )
            if cap is not None
        ]
        kwargs: dict = {"extra_latency_s": float(extra)}
        if caps:
            kwargs["rate_cap"] = min(caps) * 1e9 / 8.0
        return kwargs

    def gather_seconds(self, num_gradients: int) -> float:
        """Price one round's inter-server traffic as real link sessions.

        Sharded service: every non-coordinator shard ships its partial
        ``(n, n)`` distance block plus its aggregated coordinate slice to
        the coordinator (shard 0) — the wire realisation of the flat
        :func:`repro.core.theory.shard_combine_flops` gather the analytic
        cost model charges per extra core (:meth:`aggregate` disables that
        term and returns these measured seconds instead).  Replicated service:
        after every update the replicas confirm agreement by exchanging
        16-byte state digests with the primary — deterministic replicas
        never ship models.

        The sessions are resolved closed-world on a fresh
        :class:`~repro.cluster.link.LinkScheduler` (all of a round's
        transfers are known when aggregation starts), so the pricing is a
        pure function of ``(n, d, topology)`` — nothing to checkpoint, and
        a resumed run reprices rounds bit-identically.
        """
        if self.is_trivial:
            return 0.0
        coordinator = self.shards[0]
        jobs: List[Tuple[float, float]] = []
        session_kwargs: List[dict] = []
        total_bytes = 0.0
        for shard in self.shards[1:]:
            if self.kind == "replicas":
                nbytes = float(REPLICA_DIGEST_BYTES)
            else:
                nbytes = theory.shard_gather_bytes(num_gradients, shard.width)
            jobs.append((0.0, nbytes))
            session_kwargs.append(
                self._interserver_session_kwargs(shard.region, coordinator.region)
            )
            total_bytes += nbytes
        pipe = LinkScheduler(
            bandwidth_gbps=self.cost_model.bandwidth_gbps,
            latency_s=self.cost_model.latency_s,
            sharing=self.link_sharing,
        )
        schedule = pipe.simulate(jobs, session_kwargs=session_kwargs)
        seconds = max(done for done, _ in schedule)
        deltas = {
            "gather_bytes": total_bytes,
            "gather_seconds": seconds,
            "gather_sessions": float(len(jobs)),
            "rounds": 1.0,
        }
        if self.kind == "replicas":
            deltas["replica_sync_bytes"] = total_bytes
        self._record(**deltas)
        return seconds

    # ----------------------------------------------------------- server stage
    def aggregate(self, worker_ids: Sequence[int], matrix: np.ndarray):
        """One round's server stage: validate once, aggregate, price, gather.

        Returns ``(result, aggregation_seconds, gather_seconds)``, apart
        because the engines associate the two durations differently.  A
        distance cache attached to the server prices only the blocks it
        computed (the aggregate is bit-identical either way).  Who pays for
        combining the shards' partial results is decided here: a multi-actor
        service drops the flat analytic combine term because the measured
        gather replaces it; a one-actor service keeps it (``server_cores``
        still combine in-server) and gathers in ``0.0`` seconds.
        """
        self.server.validate_rows(worker_ids, matrix)
        result, seconds = self.cost_model.aggregation_time_detailed(
            self.server.gar,
            matrix,
            distance_cache=self.server.distance_cache,
            charge_shard_combine=self.is_trivial,
        )
        return result, seconds, self.gather_seconds(len(worker_ids))

    # ------------------------------------------------------------ checkpoints
    def state_dict(self) -> Dict:
        """JSON-serialisable fabric state for checkpoints.

        Covers, per shard, the slice digest of the version being
        checkpointed (the only one whose bytes the archive carries, hence
        the only one :meth:`restore_state` can verify), the pinned versions
        each shard must keep for live delta broadcasts, and the cumulative
        interserver counters.
        """
        pins = self.server.pinned_versions()
        version = self.server.version
        parameters = self.server.parameters
        return {
            "topology": self.topology.spec,
            "counters": {key: float(value) for key, value in self.counters.items()},
            "shards": [
                {
                    "shard_id": shard.shard_id,
                    "lo": shard.lo,
                    "hi": shard.hi,
                    "region": shard.region,
                    "versions": {
                        str(version): _slice_digest(parameters, shard.lo, shard.hi).hex()
                    },
                    "pins": {str(pinned): count for pinned, count in sorted(pins.items())},
                }
                for shard in self.shards
            ],
        }

    def restore_state(self, state: Optional[Dict]) -> None:
        """Restore the fabric from :meth:`state_dict` output.

        The authoritative store must already be restored.  Every shard's
        recorded slice digest of the *restored* version is verified against
        the store's bytes — the checkpoint's own ``parameters`` — so a
        corrupted or mismatched archive fails loudly instead of resuming
        from silently divergent shards.  Held versions are not compared: the
        checkpoint layer re-registers them from the workers' replicas
        (:meth:`~repro.cluster.server.ParameterServer.track_version`),
        reconstructions that are exact only under a lossless broadcast codec
        and never consulted as delta bases.  The counters restart from the
        checkpointed cumulative values.

        One-actor deployments are one deployment under three spellings, so
        a one-actor fabric takes any one-actor archive: ``single``,
        ``shards:1`` / ``replicas:1``, or ``None`` — an archive written
        before the parameter service existed, which has nothing to restore.
        A multi-actor fabric takes only its own topology.
        """
        if state is None:
            if self.is_trivial:
                return
            state = {"topology": "single"}
        shards = state.get("shards", [])
        if state.get("topology") != self.topology.spec and not (
            self.is_trivial and len(shards) == 1
        ):
            raise ConfigurationError(
                f"checkpointed server topology {state.get('topology')!r} does not "
                f"match the deployed topology {self.topology.spec!r}"
            )
        if len(shards) != len(self.shards):
            raise ConfigurationError(
                f"checkpoint covers {len(shards)} shards, the service has "
                f"{len(self.shards)}"
            )
        version = self.server.version
        parameters = self.server.parameters
        for shard, entry in zip(self.shards, shards):
            if (entry.get("lo"), entry.get("hi")) != (shard.lo, shard.hi):
                raise ConfigurationError(
                    f"checkpointed shard {shard.shard_id} bounds "
                    f"({entry.get('lo')}, {entry.get('hi')}) do not match the "
                    f"service bounds ({shard.lo}, {shard.hi})"
                )
            recorded = entry.get("versions", {}).get(str(version))
            if recorded is None and self.is_trivial:
                # One-actor archives written while the fabric mirrored the
                # version log hold version 0's digest only: nothing to verify.
                continue
            if recorded != _slice_digest(parameters, shard.lo, shard.hi).hex():
                raise ConfigurationError(
                    f"shard {shard.shard_id} slice digest mismatch at "
                    f"version {version}: the checkpoint does not "
                    "describe the restored parameters"
                )
        for key, value in state.get("counters", {}).items():
            if key in self.counters:
                self.counters[key] = float(value)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ServerFabric(topology={self.topology.spec!r}, actors={self.num_actors}, "
            f"trivial={self.is_trivial})"
        )


__all__ = [
    "REPLICA_DIGEST_BYTES",
    "TOPOLOGY_KINDS",
    "ServerTopology",
    "ShardSpec",
    "ServerFabric",
    "parse_server_topology",
    "shard_bounds",
    "place_shards",
    "majority_model",
]
