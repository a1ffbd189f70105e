"""Checkpointing and training-summary export.

AggregaThor's runner exposes ``--checkpoint-delta`` / ``--summary-delta``
flags: the server periodically saves the model and writes scalar summaries.
The simulated counterpart stores checkpoints as ``.npz`` archives (model
parameters, optimizer step, simulated time) and summaries as CSV files, so a
training run can be resumed or analysed offline.

Two checkpoint granularities exist:

* :class:`Checkpoint` — the model-only snapshot (parameters, step, time),
  enough to evaluate or warm-start a model;
* :class:`TrainingState` — the *resumable* snapshot: model, optimizer
  moments, the synchrony policy's carried-gradient pool, and every RNG
  stream (worker samplers, channels, stragglers), so a resumed run is
  bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.cluster.telemetry import TrainingHistory
from repro.cluster.worker import HonestWorker
from repro.exceptions import ConfigurationError


def _reject_async_trainer(trainer, action: str) -> None:
    """Async engines carry in-flight event state the snapshot cannot hold."""
    from repro.cluster.trainer import AsyncTrainer

    if isinstance(trainer, AsyncTrainer):
        raise ConfigurationError(
            f"cannot {action} an AsyncTrainer: its event queue, admission buffer "
            "and in-flight aggregation are not part of the training state; "
            "checkpoint/resume is supported for the synchronous trainer only"
        )


@dataclass
class Checkpoint:
    """A snapshot of the server state."""

    step: int
    sim_time: float
    parameters: np.ndarray

    def __post_init__(self) -> None:
        if self.step < 0:
            raise ConfigurationError(f"step must be non-negative, got {self.step}")
        if self.sim_time < 0:
            raise ConfigurationError(f"sim_time must be non-negative, got {self.sim_time}")
        self.parameters = np.asarray(self.parameters, dtype=np.float64)
        if self.parameters.ndim != 1 or self.parameters.size == 0:
            raise ConfigurationError("parameters must be a non-empty flat vector")


def save_checkpoint(checkpoint: Checkpoint, path: Union[str, Path]) -> Path:
    """Write a checkpoint to an ``.npz`` archive; returns the resolved path."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path,
        step=np.asarray(checkpoint.step, dtype=np.int64),
        sim_time=np.asarray(checkpoint.sim_time, dtype=np.float64),
        parameters=checkpoint.parameters,
    )
    return path


def load_checkpoint(path: Union[str, Path]) -> Checkpoint:
    """Load a checkpoint previously written by :func:`save_checkpoint`."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"checkpoint {path} does not exist")
    with np.load(path) as archive:
        try:
            return Checkpoint(
                step=int(archive["step"]),
                sim_time=float(archive["sim_time"]),
                parameters=np.asarray(archive["parameters"], dtype=np.float64),
            )
        except KeyError as exc:
            raise ConfigurationError(f"{path} is not a valid checkpoint archive: missing {exc}") from exc


class CheckpointManager:
    """Keeps the most recent ``max_to_keep`` checkpoints in a directory."""

    def __init__(self, directory: Union[str, Path], *, max_to_keep: int = 3,
                 prefix: str = "checkpoint") -> None:
        if max_to_keep < 1:
            raise ConfigurationError(f"max_to_keep must be >= 1, got {max_to_keep}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_to_keep = int(max_to_keep)
        self.prefix = str(prefix)

    def _path_for(self, step: int) -> Path:
        return self.directory / f"{self.prefix}-{step:08d}.npz"

    def existing(self) -> list[Path]:
        """Checkpoints currently on disk, oldest first."""
        return sorted(self.directory.glob(f"{self.prefix}-*.npz"))

    def save(self, checkpoint: Checkpoint) -> Path:
        """Save a checkpoint and prune the oldest beyond ``max_to_keep``."""
        path = save_checkpoint(checkpoint, self._path_for(checkpoint.step))
        existing = self.existing()
        for stale in existing[: max(0, len(existing) - self.max_to_keep)]:
            stale.unlink()
        return path

    def latest(self) -> Optional[Checkpoint]:
        """Most recent checkpoint, or ``None`` when the directory is empty."""
        existing = self.existing()
        if not existing:
            return None
        return load_checkpoint(existing[-1])


@dataclass
class TrainingState:
    """A fully resumable trainer snapshot.

    Beyond the :class:`Checkpoint` trio, this captures the optimizer's
    mutable state, the synchrony policy's carried-gradient pool and the state
    of every RNG stream the trainer owns — everything needed for a resumed
    run to reproduce the uninterrupted trajectory bit for bit.
    """

    step: int
    sim_time: float
    parameters: np.ndarray
    optimizer_state: Dict = field(default_factory=dict)
    policy_name: str = ""
    policy_state: Dict = field(default_factory=dict)
    rng_states: Dict[str, dict] = field(default_factory=dict)
    #: Per-worker error-feedback residuals of the wire codec (empty under
    #: the identity codec or with error feedback disabled).
    codec_memory: Dict[int, np.ndarray] = field(default_factory=dict)
    #: Per-worker downlink sessions for delta broadcasts:
    #: ``{worker_id: (held_version, replica)}`` (empty without a broadcast
    #: codec — and in archives written before delta broadcasts existed).
    downlink_sessions: Dict[int, Tuple[int, np.ndarray]] = field(default_factory=dict)
    #: Distance flops the trainer warmed at the captured round's end (the
    #: carry pool's blocks) that still bill against the next round's wait
    #: budget.  The cache itself is derived state and is rebuilt from the
    #: carry pool on restore; this one float is the only pricing carry-over
    #: (0.0 without a distance cache — and in older archives).
    distance_warm_debt: float = 0.0
    #: Parameter-service fabric state (:meth:`ServerFabric.state_dict`):
    #: every shard's slice digest of the checkpointed version and the
    #: cumulative interserver counters.  ``None`` only in archives written
    #: before the parameter service existed (a one-actor fabric accepts
    #: them, others refuse).
    service_state: Optional[Dict] = None


def _channel_rngs(channel, prefix: str) -> List[Tuple[str, np.random.Generator]]:
    """The RNG streams owned by *channel* (and wrapped channels), labelled.

    A lossy channel owns two named wire streams — its drop/reorder stream
    and its packetizer's garbage-fill stream — both captured so a resumed
    run replays the exact same wire damage.
    """
    found: List[Tuple[str, np.random.Generator]] = []
    rng = getattr(channel, "_rng", None)
    if isinstance(rng, np.random.Generator):
        found.append((prefix, rng))
    wire_rng = getattr(channel, "_wire_rng", None)
    if isinstance(wire_rng, np.random.Generator):
        found.append((prefix + ":wire", wire_rng))
    packetizer = getattr(channel, "packetizer", None)
    fill_rng = getattr(packetizer, "_rng", None)
    if isinstance(fill_rng, np.random.Generator):
        found.append((prefix + ":fill", fill_rng))
    inner = getattr(channel, "inner", None)
    if inner is not None:
        found.extend(_channel_rngs(inner, prefix + ":inner"))
    return found


def _trainer_rngs(trainer) -> Dict[str, np.random.Generator]:
    """Every RNG stream of *trainer*, keyed by a stable label.

    Byzantine workers may share one attack generator and workers may share
    one default channel; labels are per-consumer, so a shared generator is
    captured (and restored) once per label — restoring the same state twice
    is idempotent.  Each honest worker's Dropout mask stream is one only for
    a model with a Dropout layer, so other models' archives keep their keys.
    """
    rngs: Dict[str, np.random.Generator] = {}
    for worker in trainer.workers:
        if isinstance(worker, HonestWorker):
            rngs[f"sampler:{worker.worker_id}"] = worker.sampler._rng
            if trainer.eval_model.has_dropout:
                rngs[f"dropout:{worker.worker_id}"] = worker.dropout_rng
        else:
            rngs[f"attack:{worker.worker_id}"] = worker._rng
    for worker_id, channel in sorted(trainer.uplink_channels.items()):
        for label, generator in _channel_rngs(channel, f"channel:{worker_id}"):
            rngs[label] = generator
    rngs["straggler"] = trainer._straggler_rng
    codec_rng = getattr(getattr(trainer, "codec", None), "_rng", None)
    if isinstance(codec_rng, np.random.Generator):
        rngs["codec"] = codec_rng
    broadcast_rng = getattr(getattr(trainer, "broadcast_codec", None), "_rng", None)
    if isinstance(broadcast_rng, np.random.Generator):
        rngs["broadcast-codec"] = broadcast_rng
    return rngs


def capture_training_state(trainer) -> TrainingState:
    """Snapshot *trainer* into a :class:`TrainingState`.

    Only the lock-step :class:`~repro.cluster.trainer.SynchronousTrainer` is
    resumable; the async engine's in-flight events have no snapshot form yet.
    """
    _reject_async_trainer(trainer, "capture")
    return TrainingState(
        step=trainer.server.step,
        sim_time=trainer.clock.now,
        parameters=trainer.server.parameters,
        optimizer_state=trainer.server.optimizer.state_dict(),
        policy_name=trainer.sync_policy.name,
        policy_state=trainer.sync_policy.state_dict(),
        rng_states={
            label: generator.bit_generator.state
            for label, generator in _trainer_rngs(trainer).items()
        },
        codec_memory=trainer._fleet.state_dict() if trainer._fleet is not None else {},
        downlink_sessions={
            int(worker_id): (int(session.version), session.replica.copy())
            for worker_id, session in getattr(trainer, "_downlink", {}).items()
        },
        distance_warm_debt=float(getattr(trainer, "_warm_debt", 0.0)),
        service_state=trainer.service.state_dict(),
    )


def restore_training_state(trainer, state: TrainingState) -> None:
    """Load *state* into a freshly built, identically configured *trainer*.

    The trainer must have been constructed with the same topology (workers,
    channels, policy, optimizer class) as the one that produced the state;
    mismatches are rejected rather than silently mis-restored.
    """
    _reject_async_trainer(trainer, "restore into")
    if state.policy_name and state.policy_name != trainer.sync_policy.name:
        raise ConfigurationError(
            f"checkpoint was written under sync policy {state.policy_name!r} but the "
            f"trainer runs {trainer.sync_policy.name!r}"
        )
    expected = _trainer_rngs(trainer)
    missing = sorted(set(state.rng_states) - set(expected))
    extra = sorted(set(expected) - set(state.rng_states))
    if missing or extra:
        raise ConfigurationError(
            "checkpointed RNG streams do not match the trainer topology "
            f"(checkpoint-only: {missing}, trainer-only: {extra})"
        )
    trainer.server.restore(state.parameters, state.step)
    trainer.server.optimizer.load_state_dict(state.optimizer_state)
    trainer.sync_policy.load_state_dict(state.policy_state)
    if trainer.server.distance_cache is not None:
        # The distance cache is derived state and is never persisted:
        # ``server.restore`` invalidated it, and rebuilding it from the
        # restored carry pool reproduces the between-round cache state of
        # the uninterrupted run exactly (retention keeps precisely the carry
        # pool's rows), so resumed runs charge bit-identical aggregation
        # times.
        pending = trainer.sync_policy.pending()
        trainer.server.distance_cache.rebuild(pending.payloads if len(pending) else None)
    trainer._warm_debt = float(state.distance_warm_debt)
    for label, rng_state in state.rng_states.items():
        expected[label].bit_generator.state = rng_state
    if trainer._fleet is not None:
        trainer._fleet.load_state_dict(state.codec_memory, trainer.server.dim)
    from repro.cluster.trainer import DownlinkSession

    trainer._downlink = {}
    for worker_id, (version, replica) in state.downlink_sessions.items():
        trainer._downlink[int(worker_id)] = DownlinkSession(
            version=int(version),
            replica=np.asarray(replica, dtype=np.float64).copy(),
        )
    # The fabric refuses an archive of another topology and verifies each
    # shard's slice digest of the restored version against the store.
    trainer.service.restore_state(state.service_state)
    trainer.clock.reset(state.sim_time)


def save_training_state(state: TrainingState, path: Union[str, Path]) -> Path:
    """Write a :class:`TrainingState` to an ``.npz`` archive (no pickling)."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    path.parent.mkdir(parents=True, exist_ok=True)

    arrays: Dict[str, np.ndarray] = {"parameters": np.asarray(state.parameters, dtype=np.float64)}
    optimizer_scalars: Dict[str, object] = {}
    optimizer_arrays: List[str] = []
    for key, value in state.optimizer_state.items():
        if isinstance(value, np.ndarray):
            arrays[f"opt:{key}"] = value
            optimizer_arrays.append(key)
        else:
            optimizer_scalars[key] = value

    pending_meta: List[Dict] = []
    for index, entry in enumerate(state.policy_state.get("pending", [])):
        arrays[f"pend:{index}:gradient"] = np.asarray(entry["gradient"], dtype=np.float64)
        arrays[f"pend:{index}:payload"] = np.asarray(entry["payload"], dtype=np.float64)
        pending_meta.append({k: v for k, v in entry.items() if k not in ("gradient", "payload")})

    for worker_id, residual in state.codec_memory.items():
        arrays[f"efmem:{int(worker_id)}"] = np.asarray(residual, dtype=np.float64)

    downlink_versions: Dict[str, int] = {}
    for worker_id, (version, replica) in state.downlink_sessions.items():
        arrays[f"dlink:{int(worker_id)}"] = np.asarray(replica, dtype=np.float64)
        downlink_versions[str(int(worker_id))] = int(version)

    meta = {
        "step": int(state.step),
        "sim_time": float(state.sim_time),
        "policy_name": state.policy_name,
        "optimizer_scalars": optimizer_scalars,
        "optimizer_arrays": optimizer_arrays,
        "pending": pending_meta,
        "rng_states": state.rng_states,
        "codec_memory_workers": sorted(int(w) for w in state.codec_memory),
        "downlink_versions": downlink_versions,
        "distance_warm_debt": float(state.distance_warm_debt),
        "service_state": state.service_state,
    }
    np.savez_compressed(path, meta=np.asarray(json.dumps(meta)), **arrays)
    return path


def load_training_state(path: Union[str, Path]) -> TrainingState:
    """Load a :class:`TrainingState` written by :func:`save_training_state`."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"training state {path} does not exist")
    with np.load(path) as archive:
        if "meta" not in archive:
            raise ConfigurationError(f"{path} is not a training-state archive (no meta entry)")
        meta = json.loads(str(archive["meta"]))
        optimizer_state: Dict[str, object] = dict(meta["optimizer_scalars"])
        for key in meta["optimizer_arrays"]:
            optimizer_state[key] = np.asarray(archive[f"opt:{key}"], dtype=np.float64)
        pending = []
        for index, entry in enumerate(meta["pending"]):
            pending.append(
                dict(
                    entry,
                    gradient=np.asarray(archive[f"pend:{index}:gradient"], dtype=np.float64),
                    payload=np.asarray(archive[f"pend:{index}:payload"], dtype=np.float64),
                )
            )
        return TrainingState(
            step=int(meta["step"]),
            sim_time=float(meta["sim_time"]),
            parameters=np.asarray(archive["parameters"], dtype=np.float64),
            optimizer_state=optimizer_state,
            policy_name=meta["policy_name"],
            policy_state={"pending": pending} if pending else {},
            rng_states=meta["rng_states"],
            codec_memory={
                int(worker_id): np.asarray(archive[f"efmem:{worker_id}"], dtype=np.float64)
                for worker_id in meta.get("codec_memory_workers", [])
            },
            downlink_sessions={
                int(worker_id): (
                    int(version),
                    np.asarray(archive[f"dlink:{worker_id}"], dtype=np.float64),
                )
                for worker_id, version in meta.get("downlink_versions", {}).items()
            },
            distance_warm_debt=float(meta.get("distance_warm_debt", 0.0)),
            service_state=meta.get("service_state"),
        )


def write_summary_csv(history: TrainingHistory, path: Union[str, Path]) -> Path:
    """Export the per-evaluation accuracy series as a CSV summary."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["step", "sim_time", "accuracy"])
        for record in history.evaluations:
            writer.writerow([record.step, f"{record.sim_time:.9f}", f"{record.accuracy:.6f}"])
    return path


__all__ = [
    "Checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointManager",
    "TrainingState",
    "capture_training_state",
    "restore_training_state",
    "save_training_state",
    "load_training_state",
    "write_summary_csv",
]
