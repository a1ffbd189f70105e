"""Command-line runner — the analogue of AggregaThor's ``runner.py``.

Builds and runs one training session on the simulated cluster entirely from
command-line flags, mirroring the original tool's interface where it makes
sense for a simulation::

    python -m repro.runner \
        --aggregator multi-krum --nb-workers 11 --nb-decl-byz 2 \
        --nb-real-byz 2 --attack reversed-gradient \
        --experiment mlp --dataset blobs \
        --optimizer rmsprop --learning-rate 1e-3 --batch-size 32 \
        --max-step 100 --evaluation-delta 10 \
        --output results.json

Leaving ``--aggregator`` or ``--experiment`` empty prints the available
registered names, exactly like the original runner does.

The runner is argparse, the options the operator actually typed, and one
:func:`~repro.cluster.builder.build_trainer` call.  It validates nothing a
lower layer owns (:func:`_check_cli_only` and :func:`_straggler_model` hold
the three checks only a command line can make), so a flag combination is
refused with the same ``ConfigurationError`` text the API raises, and every
parsed flag except the file paths is echoed in the summary's ``configuration``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.cluster.builder import build_trainer
from repro.cluster.codec import available_codecs
from repro.cluster.checkpoint import (
    Checkpoint,
    CheckpointManager,
    write_summary_csv,
)
from repro.cluster.cost_model import StragglerModel
from repro.cluster.profiler import SimProfiler
from repro.cluster.sync import available_sync_policies
from repro.cluster.trainer import TrainerConfig
from repro.core.base import available_gars
from repro.data.datasets import available_datasets, load_dataset
from repro.exceptions import ConfigurationError, ReproError, TrainingError
from repro.nn.models.registry import available_models
from repro.optim.base import OPTIMIZER_REGISTRY

#: Flags that name files rather than the deployment: the only parsed options
#: the summary's ``configuration`` block does not echo.
FILE_PATH_FLAGS = ("checkpoint_dir", "output", "summary_csv")

#: ``(flag, "listed" value, title, registry listing)``: an empty value for
#: one of these flags prints the registered names instead of running.
_LISTINGS = (
    ("aggregator", "aggregators", "aggregators", available_gars),
    ("experiment", "experiments", "experiments (models)", available_models),
    ("dataset", "datasets", "datasets", available_datasets),
    ("sync_policy", "sync-policies", "sync policies", available_sync_policies),
    ("codec", "codecs", "codecs", available_codecs),
    ("broadcast_codec", "broadcast-codecs", "broadcast codecs", available_codecs),
)


def build_parser() -> argparse.ArgumentParser:
    """The command-line interface (kept close to AggregaThor's flag names)."""
    parser = argparse.ArgumentParser(
        prog="repro.runner",
        description="Byzantine-resilient distributed SGD on a simulated parameter-server cluster",
    )
    parser.add_argument("--aggregator", default="multi-krum",
                        help="gradient aggregation rule (empty string lists the options)")
    parser.add_argument("--experiment", default="mlp",
                        help="model to train (empty string lists the options)")
    parser.add_argument("--experiment-args", default="",
                        help="space-separated model arguments, e.g. 'input_dim:16 num_classes:4'")
    parser.add_argument("--dataset", default="blobs",
                        help="dataset name (empty string lists the options)")
    parser.add_argument("--dataset-args", default="",
                        help="space-separated dataset arguments, e.g. 'num_train:800 dim:16'")
    parser.add_argument("--nb-workers", type=int, default=11, help="total number of workers n")
    parser.add_argument("--nb-decl-byz", type=int, default=None,
                        help="declared f (defaults to the number of real Byzantine workers)")
    parser.add_argument("--nb-real-byz", type=int, default=0,
                        help="number of actually Byzantine workers")
    parser.add_argument("--attack", default=None, help="Byzantine behaviour (see repro.attacks)")
    parser.add_argument("--nb-corrupted", type=int, default=0,
                        help="number of honest workers with corrupted local data")
    parser.add_argument("--optimizer", default="rmsprop",
                        choices=sorted(OPTIMIZER_REGISTRY), help="server-side update rule")
    parser.add_argument("--learning-rate", type=float, default=1e-3)
    parser.add_argument("--batch-size", type=int, default=100)
    parser.add_argument("--max-step", type=int, default=100, help="number of model updates")
    parser.add_argument("--evaluation-delta", type=int, default=10,
                        help="evaluate accuracy every this many steps (0 disables)")
    parser.add_argument("--checkpoint-delta", type=int, default=0,
                        help="save a checkpoint every this many steps (0 disables)")
    parser.add_argument("--checkpoint-dir", default="checkpoints")
    parser.add_argument("--mode", default="sync", choices=["sync", "async"],
                        help="lock-step rounds (sync) or the event-driven server actor (async)")
    parser.add_argument("--max-version-lag", type=int, default=None,
                        help="async mode: hard bound on the admitted gradients' model-version "
                             "lag (defaults to the policy's own bound)")
    parser.add_argument("--sync-policy", default="full-sync",
                        help="synchrony policy (empty string lists the options)")
    parser.add_argument("--quorum-size", type=int, default=None,
                        help="gradients to wait for per step (quorum / bounded-staleness "
                             "policies; defaults to n - f)")
    parser.add_argument("--straggler-policy", default=None,
                        choices=["drop", "carry"],
                        help="what the quorum policy does with late gradients "
                             "(default drop)")
    parser.add_argument("--staleness-bound", type=int, default=None,
                        help="maximum gradient staleness tau (bounded-staleness "
                             "policy; default 1)")
    parser.add_argument("--straggler-model", default="none",
                        choices=["none", "lognormal", "pareto", "constant"],
                        help="heavy-tailed per-step compute slowdown distribution")
    parser.add_argument("--straggler-prob", type=float, default=None,
                        help="probability a worker straggles in a given step (default 1)")
    parser.add_argument("--straggler-intensity", type=float, default=None,
                        help="sigma (lognormal) / scale (pareto, constant) of the slowdown; "
                             "defaults per distribution (0.75 / 1.0 / 2.0)")
    parser.add_argument("--codec", default="identity",
                        help="wire codec encoding gradients before the uplink "
                             "(empty string lists the options)")
    parser.add_argument("--codec-k", type=int, default=None,
                        help="coordinates kept per gradient (top-k / random-k codecs)")
    parser.add_argument("--quantize-bits", type=int, default=None,
                        help="quantisation width in bits (qsgd codec, 1-16)")
    parser.add_argument("--no-error-feedback", action="store_true",
                        help="disable the EF-SGD residual carry for lossy codecs")
    parser.add_argument("--broadcast-codec", default=None,
                        help="downlink codec: model fetches travel as codec-encoded "
                             "version deltas against each worker's held state "
                             "(default: raw full-state 4d framing; empty string "
                             "lists the options)")
    parser.add_argument("--broadcast-k", type=int, default=None,
                        help="coordinates kept per delta broadcast "
                             "(top-k / random-k broadcast codecs)")
    parser.add_argument("--broadcast-bits", type=int, default=None,
                        help="quantisation width in bits (qsgd broadcast codec, 1-16)")
    parser.add_argument("--link-sharing", default="none",
                        choices=["none", "fair", "fifo"],
                        help="how concurrent transfers share the server's link: "
                             "none (infinite capacity, the seed semantics), fair "
                             "(processor sharing) or fifo (store-and-forward)")
    parser.add_argument("--link-profile", default="symmetric",
                        help="wire topology: 'symmetric' (one shared pipe, the "
                             "seed semantics) or 'wan:<regions>x<bandwidth>[/<latency>]' "
                             "(per-region shared bottlenecks, workers round-robin), "
                             "e.g. 'wan:3x10mbit/40ms'")
    parser.add_argument("--server-topology", default=None,
                        help="parameter-service layout: 'single' (default), "
                             "'shards:N' (N server actors each owning a "
                             "contiguous parameter shard), 'replicas:R' (R "
                             "deterministic full-model replicas) or "
                             "'region-sharded' (one shard per WAN region of "
                             "--link-profile).  shards:1 is bit-identical to "
                             "the single server")
    parser.add_argument("--server-cores", type=int, default=1,
                        help="simulated server cores the aggregation's parallelisable "
                             "work (distance matrix, coordinate-wise trimming) is "
                             "sharded across (default 1 = the seed pricing)")
    parser.add_argument("--distance-cache", default="off", choices=["on", "off"],
                        help="cross-round pairwise-distance cache for the selection "
                             "GARs: gradients stay bit-identical, but simulated "
                             "aggregation time charges only the distance blocks not "
                             "already held (carried re-submissions and blocks warmed "
                             "during the quorum wait are free)")
    parser.add_argument("--measured-aggregation", action="store_true",
                        help="time the aggregation stage from the live NumPy "
                             "execution instead of the analytic flop model "
                             "(machine-dependent: incompatible with "
                             "--determinism-check)")
    parser.add_argument("--determinism-check", action="store_true",
                        help="run the configured session twice and fail unless the "
                             "two telemetry summaries are identical")
    parser.add_argument("--profile", action="store_true",
                        help="time the simulator's own subsystems (event dispatch, "
                             "codec, link drain, GAR kernel, telemetry, compute) and "
                             "print a host wall-clock breakdown; the profile rides in "
                             "the output JSON but never in the determinism comparison "
                             "(host timings are machine-dependent)")
    parser.add_argument("--compute-mode", default="exact", choices=["exact", "fleet"],
                        help="where honest mini-batches come from: exact (each "
                             "worker's own stream) or fleet (one fleet-wide draw "
                             "per stacked pass); every gradient is the worker's own "
                             "backprop on its batch in both")
    parser.add_argument("--compact-telemetry", action="store_true",
                        help="store per-worker wire counters in preallocated arrays "
                             "instead of per-worker objects (identical exports; "
                             "recommended at 1k+ workers)")
    parser.add_argument("--lossy-links", type=int, default=0,
                        help="number of worker uplinks using the lossy UDP-like transport")
    parser.add_argument("--drop-rate", type=float, default=None,
                        help="per-packet drop probability of the lossy links (default 0)")
    parser.add_argument("--recovery-policy", default=None,
                        choices=["drop-gradient", "nan-fill", "random-fill"],
                        help="what a lossy link's receiver does with missing "
                             "packets (default random-fill)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default=None, help="write the run summary to this JSON file")
    parser.add_argument("--summary-csv", default=None, help="write the accuracy series to this CSV")
    return parser


def _parse_kv_args(text: str) -> dict:
    """Parse AggregaThor-style 'key:value key:value' argument strings."""
    result: dict = {}
    for token in text.split():
        if ":" not in token:
            raise ConfigurationError(f"malformed argument {token!r}; expected key:value")
        key, value = token.split(":", 1)
        for caster in (int, float):
            try:
                result[key] = caster(value)
                break
            except ValueError:
                continue
        else:
            result[key] = value
    return result


def _check_cli_only(args) -> None:
    """The two constraints only a command line can state.

    Everything else is checked below ``build_trainer`` by the layer that owns
    the concept.  These have no owner there: ``tau = 0`` is a valid
    ``BoundedStaleness`` the CLI declines to offer, and the replay behind
    ``--determinism-check`` is a runner feature.
    """
    if args.staleness_bound is not None and args.staleness_bound < 1:
        raise ConfigurationError(
            f"--staleness-bound must be >= 1, got {args.staleness_bound}; a bound "
            "below 1 would forbid every carried gradient (use --sync-policy quorum "
            "--straggler-policy drop to discard stragglers instead)"
        )
    if args.measured_aggregation and args.determinism_check:
        raise ConfigurationError(
            "--measured-aggregation is incompatible with --determinism-check: "
            "measured mode times the host wall-clock inside the simulation, "
            "which is machine- and load-dependent, so two replays of the same "
            "configuration cannot produce identical telemetry.  Drop one of "
            "the two flags (the analytic cost model is the deterministic "
            "default)."
        )


def _typed(**options) -> dict:
    """The *options* the operator typed (argparse leaves the rest ``None``): the
    consumer, not the runner, supplies a default or refuses what does not apply."""
    return {name: value for name, value in options.items() if value is not None}


def _straggler_model(args) -> Optional[StragglerModel]:
    """Compose the three ``--straggler-*`` flags into a :class:`StragglerModel`."""
    distribution = args.straggler_model
    if distribution == "none":
        if args.straggler_prob is not None or args.straggler_intensity is not None:
            raise ConfigurationError(
                "--straggler-prob / --straggler-intensity shape a straggler "
                "distribution and --straggler-model is 'none'; pick lognormal, "
                "pareto or constant"
            )
        return None
    # --straggler-intensity means sigma for lognormal and scale otherwise; the
    # constructor's scale of 1.0 would make a constant slowdown no slowdown.
    intensity = args.straggler_intensity
    if intensity is None and distribution == "constant":
        intensity = 2.0
    shape = "sigma" if distribution == "lognormal" else "scale"
    return StragglerModel(distribution, **_typed(prob=args.straggler_prob, **{shape: intensity}))


def run(argv: Optional[Sequence[str]] = None, *, stream=None) -> dict:
    """Parse *argv*, run the session, and return the result summary dictionary."""
    out = stream if stream is not None else sys.stdout
    args = build_parser().parse_args(argv)

    for flag, listed, title, available in _LISTINGS:
        if getattr(args, flag) == "":
            print(f"available {title}: " + ", ".join(available()), file=out)
            return {"listed": listed}
    _check_cli_only(args)
    straggler_model = _straggler_model(args)

    def _run_session() -> tuple:
        """Build and run one full session from the parsed flags."""
        dataset = load_dataset(
            args.dataset, **_parse_kv_args(args.dataset_args), rng=args.seed
        )
        # Each session (including determinism-check replays) gets its own
        # profiler: host timings differ between replays, so they must never
        # leak into the simulated-telemetry summary that gets compared.
        profiler = SimProfiler() if args.profile else None
        trainer = build_trainer(
            model=args.experiment,
            model_kwargs=_parse_kv_args(args.experiment_args),
            dataset=dataset,
            gar=args.aggregator,
            num_workers=args.nb_workers,
            num_byzantine=args.nb_real_byz,
            declared_f=args.nb_decl_byz,
            attack=args.attack,
            corrupted_workers=args.nb_corrupted,
            batch_size=args.batch_size,
            optimizer=args.optimizer,
            learning_rate=args.learning_rate,
            server_cores=args.server_cores,
            distance_cache=args.distance_cache == "on",
            measured_aggregation=args.measured_aggregation,
            mode=args.mode,
            sync_policy=args.sync_policy,
            sync_kwargs=_typed(quorum=args.quorum_size, stragglers=args.straggler_policy,
                               tau=args.staleness_bound),
            max_version_lag=args.max_version_lag,
            straggler_model=straggler_model,
            codec=args.codec,
            codec_k=args.codec_k,
            quantize_bits=args.quantize_bits,
            broadcast_codec=args.broadcast_codec,
            broadcast_k=args.broadcast_k,
            broadcast_bits=args.broadcast_bits,
            error_feedback=not args.no_error_feedback,
            link_sharing=args.link_sharing,
            link_profile=args.link_profile,
            server_topology=args.server_topology,
            lossy_links=args.lossy_links,
            compute_mode=args.compute_mode,
            profiler=profiler,
            compact_telemetry=args.compact_telemetry,
            seed=args.seed,
            **_typed(lossy_drop_rate=args.drop_rate, lossy_policy=args.recovery_policy),
        )

        manager = (
            CheckpointManager(args.checkpoint_dir) if args.checkpoint_delta > 0 else None
        )

        def snapshot() -> None:
            manager.save(
                Checkpoint(step=trainer.server.step, sim_time=trainer.clock.now,
                           parameters=trainer.server.parameters)
            )

        def on_step(record) -> None:
            if trainer.server.step % args.checkpoint_delta == 0:
                snapshot()

        config = TrainerConfig(max_steps=args.max_step, eval_every=args.evaluation_delta)
        if profiler is not None:
            profiler.start_run()
        try:
            # Snapshots come from inside the one run — every checkpoint-delta
            # steps, plus the state the run ended in when that is off the
            # grid — so checkpointing never changes the telemetry it snapshots.
            history = trainer.run(config, on_step=on_step if manager else None)
            if manager and (history.diverged or trainer.server.step % args.checkpoint_delta):
                snapshot()
        finally:
            if profiler is not None:
                profiler.stop_run()

        summary = history.to_dict()
        summary["configuration"] = {
            flag: value for flag, value in vars(args).items() if flag not in FILE_PATH_FLAGS
        }
        return history, summary, profiler

    history, summary, profiler = _run_session()
    if args.determinism_check:
        # Replay the whole session from scratch and diff the telemetry: every
        # simulated quantity is a pure function of the flags + seed, so any
        # drift is a determinism regression (measured_aggregation, the one
        # mode this cannot hold for, is rejected at flag validation).
        _, replay, _ = _run_session()
        if json.dumps(summary, sort_keys=True) != json.dumps(replay, sort_keys=True):
            raise TrainingError(
                "determinism check failed: two replays of the identical "
                "configuration produced different telemetry summaries"
            )
        summary["determinism_check"] = "ok"

    # Host timings join the summary only after the determinism comparison:
    # they measure the machine, not the simulated cluster.
    if profiler is not None:
        summary["profile"] = profiler.to_dict()
        print(profiler.format_report(), file=out)

    if args.output:
        with open(args.output, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
    if args.summary_csv:
        write_summary_csv(history, args.summary_csv)

    print(
        f"[repro.runner] {args.aggregator} on {args.experiment}/{args.dataset}: "
        f"final accuracy {history.final_accuracy:.4f} after {history.num_updates} updates "
        f"({history.total_time:.4f} simulated seconds)"
        + (" [DIVERGED]" if history.diverged else ""),
        file=out,
    )
    return summary


def main() -> int:
    """Console entry point."""
    try:
        run()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
