"""High-level cluster assembly — the ``runner.py`` analogue.

:func:`build_trainer` wires a complete simulated deployment from declarative
arguments (model name, dataset, GAR, optimizer, worker counts, attack, lossy
links), mirroring how AggregaThor's ``runner.py`` builds a training session
from command-line flags.  It is the main entry point used by the examples and
experiment drivers.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Callable, Dict, Optional, Union


from repro.attacks.base import Attack, make_attack
from repro.cluster.codec import WireCodec, make_codec
from repro.cluster.cost_model import CostModel, StragglerModel
from repro.cluster.deploy import ClusterSpec, allocate_devices
from repro.cluster.link import LinkTopology, parse_link_profile
from repro.cluster.network import Channel, DelayedChannel, LossyChannel
from repro.cluster.packets import RecoveryPolicy
from repro.cluster.profiler import SimProfiler
from repro.cluster.server import ParameterServer
from repro.cluster.service import ServerFabric, parse_server_topology
from repro.cluster.sync import SyncPolicy, make_sync_policy
from repro.cluster.trainer import AsyncTrainer, BaseTrainer, SynchronousTrainer
from repro.cluster.worker import ByzantineWorker, HonestWorker, Worker
from repro.core.base import GradientAggregationRule, make_gar
from repro.core.distance_cache import DistanceCache
from repro.data.corruption import corrupt_features, permute_labels
from repro.data.dataset import Dataset
from repro.data.sampler import MiniBatchSampler
from repro.exceptions import ConfigurationError
from repro.nn.model import Sequential
from repro.nn.models.registry import make_model
from repro.optim.base import Optimizer, make_optimizer
from repro.utils.random import ChildStreams, SeedLike


def _resolve_gar(gar: Union[str, GradientAggregationRule], f: int, gar_kwargs: Optional[dict]) -> GradientAggregationRule:
    if isinstance(gar, GradientAggregationRule):
        return gar
    kwargs = dict(gar_kwargs or {})
    kwargs.setdefault("f", f)
    return make_gar(str(gar), **kwargs)


def _resolve_optimizer(optimizer: Union[str, Optimizer], learning_rate: float,
                       optimizer_kwargs: Optional[dict]) -> Optimizer:
    if isinstance(optimizer, Optimizer):
        return optimizer
    kwargs = dict(optimizer_kwargs or {})
    kwargs.setdefault("learning_rate", learning_rate)
    return make_optimizer(str(optimizer), **kwargs)


def _resolve_attack(attack: Union[None, str, Attack], attack_kwargs: Optional[dict]) -> Optional[Attack]:
    if attack is None or isinstance(attack, Attack):
        return attack
    return make_attack(str(attack), **(attack_kwargs or {}))


def _resolve_sync_policy(policy: Union[str, SyncPolicy], sync_kwargs: Optional[dict]) -> SyncPolicy:
    if isinstance(policy, SyncPolicy):
        return policy
    return make_sync_policy(str(policy), **(sync_kwargs or {}))


def _resolve_codec(codec: Union[str, WireCodec], k: Optional[int], bits: Optional[int],
                   rng, options: tuple) -> WireCodec:
    """A codec instance as given, or ``make_codec`` by name (*options*: its ``options``)."""
    if not isinstance(codec, WireCodec):
        return make_codec(codec, k=k, bits=bits, rng=rng, options=options)
    if k is not None or bits is not None:
        raise ConfigurationError(
            f"{options[1]} / {options[2]} only apply when the {options[0]} is given "
            "by name; configure a codec instance directly instead"
        )
    return codec


def build_trainer(
    *,
    model: Union[str, Callable[..., Sequential]] = "mlp",
    model_kwargs: Optional[dict] = None,
    dataset: Dataset,
    gar: Union[str, GradientAggregationRule] = "multi-krum",
    gar_kwargs: Optional[dict] = None,
    num_workers: int = 19,
    num_byzantine: int = 0,
    declared_f: Optional[int] = None,
    attack: Union[None, str, Attack] = None,
    attack_kwargs: Optional[dict] = None,
    corrupted_workers: int = 0,
    batch_size: int = 100,
    optimizer: Union[str, Optimizer] = "rmsprop",
    optimizer_kwargs: Optional[dict] = None,
    learning_rate: float = 1e-3,
    cost_model: Optional[CostModel] = None,
    server_cores: Optional[int] = None,
    distance_cache: bool = False,
    measured_aggregation: bool = False,
    cluster: Optional[ClusterSpec] = None,
    mode: str = "sync",
    sync_policy: Union[str, SyncPolicy] = "full-sync",
    sync_kwargs: Optional[dict] = None,
    max_version_lag: Optional[int] = None,
    retain_versions: Optional[int] = 64,
    straggler_model: Optional[StragglerModel] = None,
    codec: Union[str, WireCodec] = "identity",
    codec_k: Optional[int] = None,
    quantize_bits: Optional[int] = None,
    broadcast_codec: Union[None, str, WireCodec] = None,
    broadcast_k: Optional[int] = None,
    broadcast_bits: Optional[int] = None,
    error_feedback: bool = True,
    compute_mode: str = "exact",
    profiler: Optional[SimProfiler] = None,
    compact_telemetry: bool = False,
    link_sharing: str = "none",
    link_profile: Optional[str] = None,
    link_topology: Optional[LinkTopology] = None,
    lossy_links: int = 0,
    lossy_drop_rate: float = 0.0,
    lossy_policy: Union[str, RecoveryPolicy] = RecoveryPolicy.RANDOM_FILL,
    link_delays: Optional[Dict[int, float]] = None,
    link_jitters: Optional[Dict[int, float]] = None,
    worker_speeds: Optional[Dict[int, float]] = None,
    uplink_channels: Optional[Dict[int, Channel]] = None,
    server_topology: Optional[str] = None,
    seed: SeedLike = 0,
) -> BaseTrainer:
    """Assemble a full simulated deployment and return its trainer.

    Validation: this function checks only what relates its own keywords to
    each other (worker-count ranges, ``max_version_lag`` needs
    ``mode="async"``, the lossy options need lossy links, ``broadcast_k``
    needs a ``broadcast_codec``).  Every other constraint is raised by the
    layer that owns the concept — ``make_codec`` and the codec constructors,
    the sync policy's ``bind`` / ``admission``, ``CostModel``,
    ``ServerFabric``, the link layer, the ``make_*`` registries — and all of
    them are reached before any per-worker object is built, except what the
    channel constructors (``lossy_drop_rate``'s range) and the trainer itself
    (a cluster spec's node assignments) check.  ``repro.runner`` adds no check
    on top, so the CLI and the API raise the same
    :class:`~repro.exceptions.ConfigurationError`.

    Parameters
    ----------
    model, model_kwargs:
        A registered model name (``--experiment`` analogue) or a factory
        callable; built for the server, for the evaluator, and for each honest
        worker the first time its replica is read, in id order (reading
        worker ``k``'s first builds every lower id's) — so a factory may be
        called fewer than ``n + 2`` times, never in another order.
    dataset:
        The training/test data (each honest worker samples iid from the
        training split).
    gar, gar_kwargs:
        The gradient aggregation rule (``--aggregator`` analogue).  ``f``
        defaults to ``declared_f``.
    num_workers:
        Total worker count ``n``.
    num_byzantine:
        How many of those workers the adversary actually controls (requires
        an ``attack``).
    declared_f:
        The ``f`` the *deployment* is configured to tolerate; defaults to
        ``num_byzantine``.  The paper's non-Byzantine experiments use
        ``declared_f > 0`` with zero actual attackers.
    attack, attack_kwargs:
        The Byzantine behaviour (registered attack name or instance).
    corrupted_workers:
        Number of honest workers whose local dataset has permuted labels
        (the Figure 7 "corrupted data" behaviour).
    server_cores:
        Number of simulated server cores the aggregation's parallelisable
        work (distance matrix, coordinate-wise trimming) is sharded across;
        overrides the cost model's own setting when given.  1 (the cost
        model default) reproduces single-core pricing bit for bit.
    distance_cache:
        When True the server shares a cross-round
        :class:`~repro.core.distance_cache.DistanceCache` across the
        selection GARs' aggregations: gradients are bit-identical to the
        uncached path, but simulated aggregation time charges only the
        distance blocks not already held (carried re-submissions and blocks
        warmed during the quorum wait are free).
    measured_aggregation:
        When True the aggregation stage is timed from the live NumPy
        execution instead of the analytic flop model; machine-dependent and
        therefore not replayable (the runner rejects it together with
        ``--determinism-check``).
    batch_size:
        Mini-batch size ``b`` per worker.
    mode:
        ``"sync"`` (default) builds the lock-step
        :class:`~repro.cluster.trainer.SynchronousTrainer`; ``"async"``
        builds the event-driven :class:`~repro.cluster.trainer.AsyncTrainer`,
        which needs a policy with an event-stream form (``full-sync`` has
        none; its ``admission`` refuses).
    sync_policy, sync_kwargs:
        The synchrony policy (``--sync-policy`` analogue): a registered name
        (``"full-sync"``, ``"quorum"``, ``"bounded-staleness"``) or an
        instance.  The default reproduces the paper's fully synchronous
        protocol bit-identically.
    max_version_lag:
        Async mode only (refused under ``mode="sync"``): hard bound on the
        version lag of admitted gradients; ``None`` defers to the policy
        (``tau`` for bounded staleness, unbounded for plain quorum).
    retain_versions:
        How many historical parameter vectors the server's versioned store
        keeps for :meth:`~repro.cluster.server.ParameterServer.parameters_at`
        (bounded by default so long runs hold O(retain * d) memory, far more
        than any realistic staleness bound; ``None`` retains every version).
    straggler_model:
        Optional heavy-tailed per-step compute slowdown sampling for the
        honest workers (drawn from a dedicated RNG stream, so enabling it
        never perturbs the worker / channel / attack streams).
    codec, codec_k, quantize_bits:
        The wire codec encoding honest gradients before the uplink
        (``--codec`` analogue): a registered name (``"identity"``,
        ``"top-k"``, ``"random-k"``, ``"qsgd"``) or an instance.  ``codec_k``
        configures the sparsifiers (required for them, rejected elsewhere);
        ``quantize_bits`` configures ``qsgd``.  Codecs built by name draw
        from their own dedicated RNG stream derived from *seed*; a codec
        *instance* is used as given — construct stochastic instances with an
        explicit ``rng`` or the run is not reproducible from *seed* alone.
        The default identity codec is bit-identical to the seed wire.
    broadcast_codec, broadcast_k, broadcast_bits:
        The downlink codec (``--broadcast-codec`` analogue): when set, model
        fetches travel as codec-encoded version deltas against each worker's
        held state (with a full-state resync whenever the held version was
        evicted past ``retain_versions``).  Any registered codec name or
        instance composes; ``broadcast_k`` / ``broadcast_bits`` mirror
        ``codec_k`` / ``quantize_bits``.  ``None`` (default) keeps the raw
        ``4d`` full-state framing, and the identity broadcast codec stays
        bit-identical to it in both trajectory and priced bytes.
    error_feedback:
        Whether honest workers carry their codec residual into the next
        round (EF-SGD memory compensation; default on, a no-op under the
        identity codec).
    compute_mode:
        ``"exact"`` (default) runs every honest worker's own backprop;
        ``"fleet"`` batches all honest gradients through one
        :class:`~repro.cluster.fleet.FleetComputeKernel` pass when the model
        supports it (statistically equivalent, not bitwise — falls back to
        exact per-worker compute otherwise).
    profiler:
        Optional :class:`~repro.cluster.profiler.SimProfiler`; when given,
        the trainer brackets its subsystems (event dispatch, codec, link
        drain, GAR kernel, telemetry, compute) so ``--profile`` can report a
        per-subsystem wall-clock split.
    compact_telemetry:
        Store per-worker wire counters in preallocated arrays instead of
        per-worker objects (identical exports; O(1) Python objects per step
        at fleet scale).
    link_sharing:
        Sharing discipline of the server's shared ingress/egress link:
        ``"none"`` (seed semantics, infinite capacity), ``"fair"``
        (processor sharing — N concurrent transfers each see 1/N of the
        pipe) or ``"fifo"`` (store-and-forward queueing).
    link_profile, link_topology:
        Heterogeneous wire topology: ``link_profile`` is the compact WAN
        string (``"wan:<regions>x<bandwidth>[/<latency>]"``, e.g.
        ``"wan:3x10mbit/40ms"`` — workers round-robin across per-region
        shared bottlenecks), ``link_topology`` an explicit
        :class:`~repro.cluster.link.LinkTopology` (mutually exclusive with
        the profile).  A cluster spec's ``link_profile`` field applies when
        neither is given.  Contention (``link_sharing``) then plays out per
        region bottleneck instead of on one global pipe.
    lossy_links, lossy_drop_rate, lossy_policy:
        Put a lossy UDP-like uplink with the given drop rate and recovery
        policy on this many workers (Figure 8); a non-default rate or policy
        with ``lossy_links=0`` is refused.  Explicit ``uplink_channels``
        entries take precedence.
    link_delays:
        Per-worker-id extra one-way uplink delay in seconds: the worker's
        channel (reliable or lossy) is wrapped in a
        :class:`~repro.cluster.network.DelayedChannel` — a structurally slow
        link, the network half of the straggler scenarios.
    link_jitters:
        Per-worker-id uniform jitter bound in seconds on the same wrapped
        channel; the jitter draws live on a named child stream of the
        worker's channel seed, so they can never perturb training
        randomness.
    worker_speeds:
        Per-worker-id relative compute speed (< 1 = persistent compute
        straggler); applies to honest workers only, the adversary is
        arbitrarily fast regardless.
    server_topology:
        The parameter-service layout (``--server-topology`` analogue):
        ``"single"`` / ``None`` is the one-actor service,
        ``"shards:N"`` hosts ``N`` server actors each owning a contiguous
        parameter shard, ``"replicas:R"`` runs ``R`` deterministic
        full-model replicas, and ``"region-sharded"`` places one shard per
        WAN region of the link topology (requires a ``wan:`` profile).  A
        cluster spec's ``server_topology`` field applies when not given.
        Every layout runs on a :class:`~repro.cluster.service.ServerFabric`;
        the one-actor ones (``single`` / ``shards:1`` / ``replicas:1``) run
        the same code and differ only in their spec string.
    seed:
        Master seed; every worker / channel / attack derives an independent
        stream from it, on first use: the stream at position ``i`` is a
        function of ``(seed, i)`` alone, whichever others were ever made.
    """
    if mode not in ("sync", "async"):
        raise ConfigurationError(f"mode must be 'sync' or 'async', got {mode!r}")
    if num_workers < 1:
        raise ConfigurationError(f"num_workers must be >= 1, got {num_workers}")
    if num_byzantine < 0 or num_byzantine >= num_workers:
        raise ConfigurationError(
            f"num_byzantine must be in [0, num_workers), got {num_byzantine} of {num_workers}"
        )
    if corrupted_workers < 0 or corrupted_workers > num_workers - num_byzantine:
        raise ConfigurationError(
            "corrupted_workers must leave at least the Byzantine workers available"
        )
    if lossy_links < 0 or lossy_links > num_workers:
        raise ConfigurationError(f"lossy_links must be in [0, num_workers], got {lossy_links}")
    if num_byzantine > 0 and attack is None:
        raise ConfigurationError("num_byzantine > 0 requires an attack")
    for worker_id in (worker_speeds or {}):
        if not num_byzantine <= worker_id < num_workers:
            raise ConfigurationError(
                f"worker_speeds id {worker_id} does not name an honest worker "
                f"(honest ids are [{num_byzantine}, {num_workers}); the adversary "
                "is arbitrarily fast regardless)"
            )
    for worker_id, jitter_s in (link_jitters or {}).items():
        if jitter_s < 0:
            raise ConfigurationError(
                f"link_jitters values must be non-negative, got {jitter_s} "
                f"for worker {worker_id}"
            )
    delayed_ids = sorted(set(link_delays or {}) | set(link_jitters or {}))
    for worker_id in delayed_ids:
        if not num_byzantine <= worker_id < num_workers:
            # Byzantine senders have arbitrarily fast links in the threat
            # model, so a delay on their uplink would be silently ignored.
            raise ConfigurationError(
                f"link_delays/link_jitters id {worker_id} does not name an "
                f"honest worker (honest ids are [{num_byzantine}, {num_workers}); "
                "the adversary is arbitrarily fast regardless)"
            )

    if mode == "sync" and max_version_lag is not None:
        raise ConfigurationError(
            f"max_version_lag={max_version_lag} only applies to mode='async'; "
            "the lock-step engine has no model-version lag to bound"
        )
    if lossy_links == 0 and (
        lossy_drop_rate != 0.0 or lossy_policy != RecoveryPolicy.RANDOM_FILL
    ):
        raise ConfigurationError(
            "lossy_drop_rate / lossy_policy only apply to lossy uplinks, and "
            "lossy_links is 0"
        )
    if link_profile is not None and link_topology is not None:
        raise ConfigurationError(
            "link_profile and link_topology are mutually exclusive; pass the "
            "compact profile string or an explicit topology, not both"
        )
    topology = link_topology
    if topology is None:
        profile_text = link_profile
        if profile_text is None and cluster is not None:
            profile_text = cluster.link_profile
        topology = parse_link_profile(profile_text, num_workers)
    f = num_byzantine if declared_f is None else int(declared_f)
    gar_instance = _resolve_gar(gar, f, gar_kwargs)
    optimizer_instance = _resolve_optimizer(optimizer, learning_rate, optimizer_kwargs)
    attack_instance = _resolve_attack(attack, attack_kwargs)
    sync_instance = _resolve_sync_policy(sync_policy, sync_kwargs)
    # Everything that can refuse the deployment is resolved before the
    # per-worker object loop, so a bad configuration fails in milliseconds at
    # any fleet size.  The trainer binds the policy again (idempotent).
    sync_instance.bind(
        num_workers=num_workers, f=gar_instance.f,
        min_batch=gar_instance.minimum_workers(gar_instance.f),
    )
    if mode == "async":
        sync_instance.admission(max_version_lag=max_version_lag)
    cost = cost_model if cost_model is not None else CostModel()
    if server_cores is not None:
        cost = replace(cost, server_cores=int(server_cores))
    if measured_aggregation:
        cost = replace(cost, measured_aggregation=True)

    # Independent RNG streams: one per worker, plus channels / corruption /
    # attack / model init / stragglers / codec / broadcast codec.  New
    # streams are appended at the end of the spawn, so existing seeds
    # reproduce bit-identically — and wire randomness (channel drops, codec
    # draws) can never perturb the training streams (model init, batch
    # order, attacks).
    # Positions are fixed; a stream is built when first indexed, so a fleet
    # pays only for the sampler and channel streams its run draws from.
    rngs = ChildStreams(seed, num_workers * 2 + 7)
    (
        corruption_rng,
        attack_rng,
        model_rng,
        straggler_rng,
        codec_rng,
        broadcast_rng,
        fleet_sample_rng,
    ) = (rngs[2 * num_workers + role] for role in range(7))

    codec_instance = _resolve_codec(
        codec, codec_k, quantize_bits, codec_rng, ("codec", "codec_k", "quantize_bits")
    )
    if broadcast_codec is not None:
        broadcast_instance = _resolve_codec(
            broadcast_codec, broadcast_k, broadcast_bits, broadcast_rng,
            ("broadcast_codec", "broadcast_k", "broadcast_bits"),
        )
    elif broadcast_k is not None or broadcast_bits is not None:
        raise ConfigurationError("broadcast_k / broadcast_bits require a broadcast_codec")
    else:
        broadcast_instance = None

    def build_model() -> Sequential:
        kwargs = dict(model_kwargs or {})
        if callable(model) and not isinstance(model, str):
            return model(**kwargs)
        kwargs.setdefault("rng", model_rng)
        return make_model(str(model), **kwargs)

    server_model = build_model()
    eval_model = build_model()
    # Honest replicas, in id order: asking for the k-th first builds every
    # earlier one, so the k-th honest worker always gets the k-th factory
    # call after these two whatever order the run touches workers in (the
    # replicas share ``model_rng`` and a caller's factory may hold state).
    replicas: list[Sequential] = []

    def replica(k: int) -> Sequential:
        while len(replicas) <= k:
            replicas.append(build_model())
        return replicas[k]

    server = ParameterServer(
        server_model.get_parameters(),
        gar_instance,
        optimizer_instance,
        expected_workers=list(range(num_workers)),
        retain_versions=retain_versions,
        distance_cache=DistanceCache() if distance_cache else None,
    )

    cluster_spec = cluster
    if cluster_spec is not None and cluster_spec.server_node is None:
        cluster_spec = allocate_devices(cluster_spec, num_workers)

    # Parameter service: every deployment runs on a fabric, resolved against
    # the wire topology.  No flag and no cluster field is ``single``, the
    # one-actor fabric.
    topology_spec = server_topology
    if topology_spec is None and cluster_spec is not None:
        topology_spec = cluster_spec.server_topology
    service = ServerFabric(
        server,
        cost,
        topology=parse_server_topology(topology_spec),
        link_topology=topology,
        link_sharing=link_sharing,
    )

    # Worker roles: the first `num_byzantine` ids are Byzantine, the next
    # `corrupted_workers` ids run on corrupted data, the rest are honest.
    workers: list[Worker] = []
    corrupted_ids = set(range(num_byzantine, num_byzantine + corrupted_workers))
    for worker_id in range(num_workers):
        if worker_id < num_byzantine:
            workers.append(
                ByzantineWorker(worker_id, attack_instance, rng=attack_rng)
            )
            continue
        features, labels = dataset.train_x, dataset.train_y
        if worker_id in corrupted_ids:
            # Malformed input (Figure 7): the worker's local copy of the data
            # has systematically permuted labels *and* garbage features, so its
            # honestly-computed gradients are large and misleading.
            labels = permute_labels(labels, max(dataset.num_classes, 2), rng=corruption_rng)
            features = corrupt_features(features, scale=100.0, rng=corruption_rng)
        sampler = MiniBatchSampler(
            features, labels, batch_size, rng=partial(rngs.__getitem__, worker_id)
        )
        speed = (worker_speeds or {}).get(worker_id, 1.0)
        workers.append(HonestWorker(
            worker_id, partial(replica, worker_id - num_byzantine), sampler, speed=speed
        ))

    # Channels: lossy UDP-like links on the last `lossy_links` workers by
    # default (so the Byzantine ids, which come first, keep reliable links
    # unless the caller says otherwise), explicit entries win.
    channels: Dict[int, Channel] = {}
    lossy_ids = list(range(num_workers - lossy_links, num_workers))
    for worker_id in lossy_ids:
        channels[worker_id] = LossyChannel(
            drop_rate=lossy_drop_rate,
            policy=lossy_policy,
            rng=rngs[num_workers + worker_id],
        )
    for worker_id in delayed_ids:
        channels[worker_id] = DelayedChannel(
            channels.get(worker_id),
            delay_s=(link_delays or {}).get(worker_id, 0.0),
            jitter_s=(link_jitters or {}).get(worker_id, 0.0),
            rng=rngs[num_workers + worker_id],
        )
    if uplink_channels:
        channels.update(uplink_channels)

    common = dict(
        service=service,
        sync_policy=sync_instance,
        straggler_model=straggler_model,
        straggler_rng=straggler_rng,
        uplink_channels=channels,
        cluster=cluster_spec,
        codec=codec_instance,
        broadcast_codec=broadcast_instance,
        link_sharing=link_sharing,
        link_topology=topology,
        error_feedback=error_feedback,
        compute_mode=compute_mode,
        fleet_sample_rng=fleet_sample_rng,
        profiler=profiler,
        compact_telemetry=compact_telemetry,
        eval_model=eval_model,
        test_set=(dataset.test_x, dataset.test_y),
    )
    if mode == "async":
        return AsyncTrainer(
            server, workers, cost, max_version_lag=max_version_lag, **common
        )
    return SynchronousTrainer(server, workers, cost, **common)


__all__ = ["build_trainer"]
